//! What only a microbenchmark measures, and the sampler's docs cite: the
//! cost of the quantile a Thompson step avoids against the draws it
//! makes, and what a pick on a searched sampler is made of. Everything
//! else the sampler costs is a layer metric of the benchmark
//! (`benchmark/README.md`): `stats.gamma_sample_ns`,
//! `core.next_frame_ns_m{16,1024}`.
//!
//! ```text
//! cargo run --release -p exsample-bench --bin sampler_micro [-- --quick]
//! ```
//!
//! Each case prints its median nanoseconds per call over five timed
//! rounds (one warm-up round first). Each searched sampler also prints
//! what its timed picks were made of (`ExSample::scoring_work`): the clock
//! moves with the machine, those ratios only with the scorer.

use exsample_core::driver::{run_search, SearchCost, StopCond};
use exsample_core::exsample::{ExSample, ExSampleConfig, ScoringWork};
use exsample_core::policy::SamplingPolicy;
use exsample_core::{Chunking, Feedback};
use exsample_detect::{NoiseModel, OracleDiscriminator, QueryOracle, SimulatedDetector};
use exsample_stats::dist::{Continuous, Gamma};
use exsample_stats::Rng64;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Time `iters` calls of `op` per round; print and return the median
/// nanoseconds per call over five rounds after a warm-up round.
fn time(name: &str, iters: u64, mut op: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..6)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .skip(1)
        .collect();
    rounds.sort_by(f64::total_cmp);
    let ns = rounds[rounds.len() / 2];
    println!("{name:<44} {ns:>9.1} ns/op");
    ns
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters = |n: u64| if quick { n / 100 } else { n };

    // What one Thompson step pays per large chunk group, at the shape most
    // of them have (`N1 = 0`, so `α0 = 0.1`) and at the probabilities
    // `U^(1/k)` of groups of 30 to 2000 chunks: the CDF the screen
    // evaluates against the quantile it avoids.
    let d = Gamma::new(0.1, 1.0);
    let mut i = 0usize;
    let xs = [0.4, 1.1, 2.5, 6.0];
    let ps = [0.977, 0.993, 0.9991, 0.99965];
    time("gamma/cdf", iters(1_000_000), || {
        i = (i + 1) % 4;
        black_box(d.cdf(xs[i]));
    });
    let quantile_ns = time("gamma/inv_cdf", iters(200_000), || {
        i = (i + 1) % 4;
        black_box(d.inv_cdf(ps[i]));
    });

    // One member of a small group, as a Thompson step draws it: from a
    // belief prepared once per group, against the best draw so far. At
    // shape 0.1 (`N1 = 0`) a bar the draw cannot reach saves the boost's
    // `powf`; at shape 2.1 there is no boost to save. Rate 422 either way.
    let mut rng = Rng64::new(3);
    let mut draw_ns = f64::NAN;
    for (shape, bar, label) in [
        (0.1, f64::NEG_INFINITY, "0.1/no_bar"),
        (0.1, 0.05, "0.1/bar_screens_boost"),
        (2.1, f64::NEG_INFINITY, "2.1/no_bar"),
        (2.1, 0.05, "2.1/bar"),
    ] {
        let draw = Gamma::new(shape, 422.0).prepare();
        let name = format!("belief/prepared_draw/{label}");
        let ns = time(&name, iters(2_000_000), || {
            black_box(draw.sample_above(&mut rng, black_box(bar)));
        });
        if label == "0.1/no_bar" {
            draw_ns = ns;
        }
    }
    // The figure quoted beside `GROUP_MAX_THRESHOLD`.
    println!(
        "quantile-to-draw ratio (inv_cdf / prepared_draw/0.1/no_bar): {:.0}",
        quantile_ns / draw_ns
    );

    // A pick on a sampler whose beliefs a search has diverged: the
    // benchmark's `solo_manychunk` shape at a quarter of its size — rare,
    // skewed objects, some forty small groups of chunks with results
    // beside a few large groups of chunks without.
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
        // A few thousand picks in all: each one's `Feedback::NONE` moves
        // the beliefs further from where the search left them.
        let before = policy.scoring_work();
        time(
            &format!("exsample_next_frame/searched_chunks/{m}"),
            iters(1_000),
            || {
                let f = policy.next_frame(&mut rng).expect("frames remain");
                policy.feedback(f, Feedback::NONE);
                black_box(f);
            },
        );
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
}
