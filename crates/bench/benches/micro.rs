//! Microbenchmarks of the hot paths: belief sampling, chunk selection,
//! within-chunk ordering, interval stabbing, storage reads, the optimal
//! solver, and the tracker.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exsample_core::belief::{BeliefPrior, ChunkStats};
use exsample_core::driver::{run_search, SearchCost, StopCond};
use exsample_core::exsample::{ExSample, ExSampleConfig, ScoringWork};
use exsample_core::policy::SamplingPolicy;
use exsample_core::within::StratifiedWithin;
use exsample_core::Chunking;
use exsample_detect::{
    Detector, Discriminator, NoiseModel, OracleDiscriminator, QueryOracle, SimulatedDetector,
};
use exsample_optimal::{optimal_weights, ChunkProbs, SolveOpts};
use exsample_stats::dist::{Continuous, Gamma};
use exsample_stats::{Rng64, UniformNoReplacement};
use exsample_store::{Container, ContainerWriter};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, IntervalIndex, SkewSpec};
use std::sync::Arc;

fn bench_gamma_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("gamma_sample");
    let mut rng = Rng64::new(1);
    for shape in [0.1f64, 1.0, 5.0] {
        let d = Gamma::new(shape, 1.0);
        g.bench_with_input(BenchmarkId::from_parameter(shape), &d, |b, d| {
            b.iter(|| black_box(d.sample(&mut rng)))
        });
    }
    g.finish();
}

/// What one Thompson step pays per large chunk group, at the shape most of
/// them have (`N1 = 0`, so `α0 = 0.1`) and at the probabilities `U^(1/k)`
/// of groups of 30 to 2000 chunks: the CDF the screen evaluates against
/// the quantile it avoids. Divide by `gamma_sample/0.1` for the
/// quantile-to-draw ratio quoted beside `GROUP_MAX_THRESHOLD`, and see
/// `belief/prepared_draw/*` for the draw as a Thompson step makes it.
fn bench_gamma_cdf_and_quantile(c: &mut Criterion) {
    let d = Gamma::new(0.1, 1.0);
    let mut i = 0usize;
    c.bench_function("gamma/cdf", |b| {
        b.iter(|| {
            i = (i + 1) % 4;
            black_box(d.cdf([0.4, 1.1, 2.5, 6.0][i]))
        })
    });
    c.bench_function("gamma/inv_cdf", |b| {
        b.iter(|| {
            i = (i + 1) % 4;
            black_box(d.inv_cdf([0.977, 0.993, 0.9991, 0.99965][i]))
        })
    });
}

fn bench_thompson_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("exsample_next_frame");
    let step = |policy: &mut ExSample, rng: &mut Rng64| {
        let f = policy.next_frame(rng).expect("frames remain");
        policy.feedback(f, exsample_core::Feedback::NONE);
        black_box(f)
    };
    for m in [64usize, 1024] {
        // A fresh sampler: all chunks start on one shared belief and only
        // the sampled ones leave it, without ever reporting a result — not
        // the mix of groups a search produces (the "searched" cases below).
        let mut policy = ExSample::new(Chunking::even(16_000_000, m), ExSampleConfig::default());
        let mut rng = Rng64::new(2);
        g.bench_with_input(BenchmarkId::new("chunks", m), &m, |b, _| {
            b.iter(|| step(&mut policy, &mut rng))
        });
    }
    // The traffic a session really sees: beliefs diverged by a search for
    // rare, skewed objects (the benchmark's `solo_manychunk` shape at a
    // quarter of its size) — some forty small groups of chunks with
    // results beside a few large groups of chunks without.
    let gt = Arc::new(
        DatasetSpec::single_class(
            1_000_000,
            ClassSpec::new(
                "object",
                500,
                150.0,
                SkewSpec::CentralNormal { frac95: 1.0 / 16.0 },
            ),
        )
        .generate(8),
    );
    for m in [64usize, 1024] {
        let mut policy = ExSample::new(Chunking::even(gt.frames, m), ExSampleConfig::default());
        let mut oracle = QueryOracle::new(
            SimulatedDetector::new(gt.clone(), ClassId(0), NoiseModel::none(), 7),
            OracleDiscriminator::new(),
        );
        let mut rng = Rng64::new(2);
        run_search(
            &mut policy,
            &mut |frame| oracle.process(frame),
            &SearchCost::per_sample(0.0),
            &StopCond::results(250),
            &mut rng,
        );
        let before = policy.scoring_work();
        g.bench_with_input(BenchmarkId::new("searched_chunks", m), &m, |b, _| {
            b.iter(|| step(&mut policy, &mut rng))
        });
        // What the timed picks were made of: the clock above moves with the
        // machine, these ratios only with the scorer.
        let after = policy.scoring_work();
        let per_pick = |count: fn(&ScoringWork) -> u64| {
            (count(&after) - count(&before)) as f64 / (after.picks - before.picks) as f64
        };
        println!(
            "  per pick: {:.1} groups ({:.2} large), {:.1} draws ({:.1} boosted, {:.2} boosts \
             evaluated), {:.3} cdf, {:.3} quantiles",
            per_pick(|w| w.groups),
            per_pick(|w| w.large_groups),
            per_pick(|w| w.gamma_draws),
            per_pick(|w| w.boost_draws),
            per_pick(|w| w.boosts_evaluated),
            per_pick(|w| w.cdf_evals),
            per_pick(|w| w.quantile_evals),
        );
    }
    g.finish();
}

fn bench_belief_draw(c: &mut Criterion) {
    let prior = BeliefPrior::default();
    let stats = ChunkStats { n1: 7.0, n: 421 };
    // One member of a small group, as a Thompson step draws it: from a
    // belief prepared once per group, against the best draw so far. At
    // shape 0.1 (`N1 = 0`) a bar the draw cannot reach saves the boost's
    // `powf`; at shape 2.1 there is no boost to save. Rate 422 either way.
    let mut g = c.benchmark_group("belief/prepared_draw");
    let mut rng = Rng64::new(3);
    for (shape, bar, label) in [
        (0.1, f64::NEG_INFINITY, "0.1/no_bar"),
        (0.1, 0.05, "0.1/bar_screens_boost"),
        (2.1, f64::NEG_INFINITY, "2.1/no_bar"),
        (2.1, 0.05, "2.1/bar"),
    ] {
        let draw = Gamma::new(shape, 422.0).prepare();
        g.bench_function(label, |b| {
            b.iter(|| black_box(draw.sample_above(&mut rng, black_box(bar))))
        });
    }
    g.finish();
    c.bench_function("belief/bayes_ucb", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(prior.bayes_ucb(&stats, t))
        })
    });
}

fn bench_within_samplers(c: &mut Criterion) {
    c.bench_function("within/stratified_draw", |b| {
        let mut rng = Rng64::new(4);
        let mut s = StratifiedWithin::new(0..1u64 << 40);
        b.iter(|| black_box(s.draw(&mut rng)))
    });
    c.bench_function("within/sparse_fisher_yates", |b| {
        let mut rng = Rng64::new(5);
        let mut s = UniformNoReplacement::new(1u64 << 40);
        b.iter(|| black_box(s.next(&mut rng)))
    });
}

fn bench_interval_stab(c: &mut Criterion) {
    let gt = DatasetSpec::single_class(
        1_000_000,
        ClassSpec::new("car", 5_000, 300.0, SkewSpec::Uniform),
    )
    .generate(6);
    let idx = IntervalIndex::build(
        1_000_000,
        gt.instances().iter().map(|i| (i.id.0, i.start, i.end())),
    );
    let mut rng = Rng64::new(7);
    c.bench_function("interval_index/stab", |b| {
        b.iter(|| {
            let f = rng.u64_below(1_000_000);
            let mut n = 0u32;
            idx.stab(f, |_| n += 1);
            black_box(n)
        })
    });
}

fn bench_container_reads(c: &mut Criterion) {
    let mut w = ContainerWriter::new(20);
    for i in 0..20_000u64 {
        w.push_frame(&i.to_le_bytes());
    }
    let opened = Container::open(w.finish()).unwrap();
    let mut g = c.benchmark_group("container");
    g.bench_function("random_read", |b| {
        let mut container = opened.reader();
        let mut rng = Rng64::new(8);
        b.iter(|| {
            let f = rng.u64_below(20_000);
            black_box(container.read_frame(f).unwrap());
        })
    });
    g.bench_function("sequential_read", |b| {
        let mut container = opened.reader();
        let mut f = 0u64;
        b.iter(|| {
            black_box(container.read_frame(f).unwrap());
            f = (f + 1) % 20_000;
        })
    });
    g.finish();
}

fn bench_detector_and_tracker(c: &mut Criterion) {
    let gt = Arc::new(
        DatasetSpec::single_class(
            200_000,
            ClassSpec::new("car", 500, 300.0, SkewSpec::Uniform),
        )
        .generate(9),
    );
    c.bench_function("detector/simulated_detect", |b| {
        let mut det = SimulatedDetector::perfect(gt.clone(), ClassId(0));
        let mut rng = Rng64::new(10);
        b.iter(|| {
            let f = rng.u64_below(200_000);
            black_box(det.detect(f))
        })
    });
    c.bench_function("discrim/oracle_observe", |b| {
        let mut det = SimulatedDetector::perfect(gt.clone(), ClassId(0));
        let mut disc = OracleDiscriminator::new();
        let mut rng = Rng64::new(11);
        b.iter(|| {
            let f = rng.u64_below(200_000);
            let dets = det.detect(f);
            black_box(disc.observe(f, &dets))
        })
    });
}

fn bench_optimal_solver(c: &mut Criterion) {
    let gt = DatasetSpec::single_class(
        1_000_000,
        ClassSpec::new(
            "car",
            2_000,
            700.0,
            SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
        ),
    )
    .generate(12);
    let probs = ChunkProbs::build(&gt, ClassId(0), &Chunking::even(1_000_000, 128));
    c.bench_function("optimal/solve_eq_iv1", |b| {
        b.iter(|| black_box(optimal_weights(&probs, 10_000, SolveOpts::default())))
    });
}

criterion_group!(
    benches,
    bench_gamma_sampling,
    bench_gamma_cdf_and_quantile,
    bench_thompson_step,
    bench_belief_draw,
    bench_within_samplers,
    bench_interval_stab,
    bench_container_reads,
    bench_detector_and_tracker,
    bench_optimal_solver,
);
criterion_main!(benches);
