//! Cross-crate integration: proxy pipelines with scan accounting, the
//! storage substrate driving decode costs, optimal-weight consistency with
//! realized ExSample behaviour, and experiment-harness smoke runs.

use exsample::baselines::ProxyOrderPolicy;
use exsample::core::{
    driver::{run_search, SearchCost, StopCond},
    exsample::{ExSample, ExSampleConfig},
    Chunking,
};
use exsample::detect::{OracleDiscriminator, ProxyModel, QueryOracle, SimulatedDetector};
use exsample::optimal::{optimal_weights, ChunkProbs, SolveOpts};
use exsample::stats::Rng64;
use exsample::store::{Container, ContainerWriter, CostModel};
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use std::sync::Arc;

#[test]
fn proxy_wins_on_samples_but_loses_on_wall_clock() {
    // A rare, clustered object: the proxy (near-perfect) needs very few
    // *samples*, but its mandatory scan dwarfs ExSample's entire runtime —
    // the Table I phenomenon.
    let frames = 120_000u64;
    let gt = Arc::new(
        DatasetSpec::single_class(
            frames,
            ClassSpec::new("boat", 60, 100.0, SkewSpec::CentralNormal { frac95: 0.1 }),
        )
        .generate(21),
    );
    let proxy = ProxyModel::build(&gt, ClassId(0), 0.98, 22);
    let scan_s = proxy.scan_seconds(100.0);
    let stop = StopCond::results(30).or_samples(frames);
    let per_sample = 1.0 / 20.0;

    let mut rng = Rng64::new(23);
    let mut p = ProxyOrderPolicy::new(proxy.descending_order(), 50);
    let mut oracle = QueryOracle::new(
        SimulatedDetector::perfect(gt.clone(), ClassId(0)),
        OracleDiscriminator::new(),
    );
    let proxy_trace = {
        let mut f = |frame| oracle.process(frame);
        run_search(
            &mut p,
            &mut f,
            &SearchCost {
                upfront_s: scan_s,
                per_sample_s: per_sample,
            },
            &stop,
            &mut rng,
        )
    };

    let mut rng = Rng64::new(23);
    let mut ex = ExSample::new(Chunking::even(frames, 24), ExSampleConfig::default());
    let mut oracle = QueryOracle::new(
        SimulatedDetector::perfect(gt.clone(), ClassId(0)),
        OracleDiscriminator::new(),
    );
    let ex_trace = {
        let mut f = |frame| oracle.process(frame);
        run_search(
            &mut ex,
            &mut f,
            &SearchCost::per_sample(per_sample),
            &stop,
            &mut rng,
        )
    };

    assert!(proxy_trace.found() >= 30 && ex_trace.found() >= 30);
    assert!(
        proxy_trace.samples() <= ex_trace.samples(),
        "a near-perfect proxy should need fewer samples: proxy {} vs exsample {}",
        proxy_trace.samples(),
        ex_trace.samples()
    );
    assert!(
        ex_trace.seconds() < proxy_trace.seconds() / 3.0,
        "but wall-clock must favour exsample: {}s vs {}s",
        ex_trace.seconds(),
        proxy_trace.seconds()
    );
    assert!(
        ex_trace.seconds() < scan_s,
        "the whole search should finish before the scan alone would"
    );
}

#[test]
fn store_costs_reflect_sampling_patterns() {
    // Random sampling over a GOP-20 container decodes ~10x more frames
    // than it returns; a sequential scan decodes exactly once per frame.
    let frames = 8_000u64;
    let mut w = ContainerWriter::new(20);
    for i in 0..frames {
        w.push_frame(&i.to_le_bytes());
    }
    let opened = Container::open(w.finish()).unwrap();

    let mut random_reader = opened.reader();
    let mut rng = Rng64::new(31);
    let mut sampler = exsample::stats::UniformNoReplacement::new(frames);
    for _ in 0..500 {
        let f = sampler.next(&mut rng).unwrap();
        random_reader.read_frame(f).unwrap();
    }
    let amp = random_reader.stats().decode_amplification();
    assert!((6.0..14.0).contains(&amp), "random amplification {amp}");

    let mut seq_reader = opened.reader();
    for f in 0..frames {
        seq_reader.read_frame(f).unwrap();
    }
    assert!((seq_reader.stats().decode_amplification() - 1.0).abs() < 1e-9);

    // And the cost model orders them accordingly (per frame returned).
    let m = CostModel::default();
    let rand_cost = m.seconds(random_reader.stats()) / 500.0;
    let seq_cost = m.seconds(seq_reader.stats()) / frames as f64;
    assert!(rand_cost > 3.0 * seq_cost);
}

#[test]
fn exsample_realized_weights_approach_optimal() {
    // After enough samples, the de-facto chunk allocation n_j/n should
    // correlate with the offline optimal weights (Fig. 3's dashed-line
    // convergence claim, §IV-A).
    let frames = 400_000u64;
    let gt = Arc::new(
        DatasetSpec::single_class(
            frames,
            ClassSpec::new(
                "object",
                800,
                70.0,
                SkewSpec::CentralNormal { frac95: 1.0 / 16.0 },
            ),
        )
        .generate(41),
    );
    let chunking = Chunking::even(frames, 16);
    let budget = 30_000u64;

    let mut rng = Rng64::new(42);
    let mut policy = ExSample::new(chunking.clone(), ExSampleConfig::default());
    let mut oracle = QueryOracle::new(
        SimulatedDetector::perfect(gt.clone(), ClassId(0)),
        OracleDiscriminator::new(),
    );
    {
        let mut f = |frame| oracle.process(frame);
        run_search(
            &mut policy,
            &mut f,
            &SearchCost::per_sample(0.01),
            &StopCond::samples(budget),
            &mut rng,
        );
    }
    let realized = policy.realized_weights();

    let probs = ChunkProbs::build(&gt, ClassId(0), &chunking);
    let optimal = optimal_weights(&probs, budget, SolveOpts::default());

    // Both should put most mass on the same central chunks.
    let top_opt: Vec<usize> = {
        let mut idx: Vec<usize> = (0..optimal.len()).collect();
        idx.sort_by(|&a, &b| optimal[b].partial_cmp(&optimal[a]).unwrap());
        idx.into_iter().take(3).collect()
    };
    let realized_mass_on_top: f64 = top_opt.iter().map(|&j| realized[j]).sum();
    assert!(
        realized_mass_on_top > 0.5,
        "realized weights {realized:?} put only {realized_mass_on_top} on optimal top chunks {top_opt:?}"
    );
}

#[test]
fn experiment_harness_smoke() {
    // The experiment runners execute end to end at tiny scale.
    use exsample::experiments::{coverage, fig2, fig6};

    let cells = fig2::run(&fig2::Fig2Config {
        instances: 100,
        runs: 60,
        checkpoints: vec![100, 2_000],
        n1_tolerance: 5,
        seed: 51,
    });
    assert_eq!(cells.len(), 2);

    let cov = coverage::class_coverage(
        &DatasetSpec::single_class(50_000, ClassSpec::new("car", 100, 80.0, SkewSpec::Uniform))
            .generate(52),
        ClassId(0),
        &coverage::CoverageConfig {
            runs: 3,
            samples: 3_000,
            checkpoints: 5,
            seed: 53,
        },
    );
    assert!(cov.evaluations > 0);

    let rows = fig6::run(1000);
    assert_eq!(rows.len(), 5);
}
