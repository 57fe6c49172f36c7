//! What only a microbenchmark measures and the sampler's docs cite: the
//! cost of the quantile the Thompson step avoids against the draws it
//! makes, and what a pick on a searched sampler is made of. Everything
//! else that used to be timed here is a layer metric of the benchmark
//! (`benchmark/README.md`): `stats.gamma_sample_ns`,
//! `core.next_frame_ns_m{16,1024}`, `store.read_frame_ns`,
//! `detect.process_ns`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exsample_core::driver::{run_search, SearchCost, StopCond};
use exsample_core::exsample::{ExSample, ExSampleConfig, ScoringWork};
use exsample_core::policy::SamplingPolicy;
use exsample_core::Chunking;
use exsample_detect::{NoiseModel, OracleDiscriminator, QueryOracle, SimulatedDetector};
use exsample_stats::dist::{Continuous, Gamma};
use exsample_stats::Rng64;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use std::sync::Arc;

/// What one Thompson step pays per large chunk group, at the shape most of
/// them have (`N1 = 0`, so `α0 = 0.1`) and at the probabilities `U^(1/k)`
/// of groups of 30 to 2000 chunks: the CDF the screen evaluates against
/// the quantile it avoids. Divide by `belief/prepared_draw/0.1/no_bar` —
/// the draw as a Thompson step makes it — for the quantile-to-draw ratio
/// quoted beside `GROUP_MAX_THRESHOLD`.
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

/// A pick on a sampler whose beliefs a search has diverged, and — the
/// reason this case stays — the operations it was made of.
fn bench_thompson_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("exsample_next_frame");
    let step = |policy: &mut ExSample, rng: &mut Rng64| {
        let f = policy.next_frame(rng).expect("frames remain");
        policy.feedback(f, exsample_core::Feedback::NONE);
        black_box(f)
    };
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
}

criterion_group!(
    benches,
    bench_gamma_cdf_and_quantile,
    bench_thompson_step,
    bench_belief_draw,
);
criterion_main!(benches);
