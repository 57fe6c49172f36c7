//! Ablations of the sampler's design choices.
//!
//! * **Prior** — sensitivity to `(α0, β0)` (paper §III-C: "we did not
//!   observe a strong dependence on this value choice").
//! * **Selector** — Thompson vs Bayes-UCB vs greedy point estimate
//!   (paper: Bayes-UCB "did not observe different results"; greedy is the
//!   §III-B strawman).
//! * **Within-chunk order** — random+ vs plain random inside chunks
//!   (paper §III-F).
//! * **Batch size** — batched Thompson sampling `B ∈ {1, 8, 64}`
//!   (paper §III-F: feedback is delayed by a batch, throughput rises).
//! * **Fusion** — the §VII future-work sketch: adaptive chunk selection
//!   with score-descending order inside chunks, vs plain ExSample and
//!   pure proxy ordering.

use crate::report::Table;
use crate::runner::{replicate_runs, PolicyFactory, PolicySpec, RunConfig};
use crate::Scale;
use exsample_core::belief::{BeliefPrior, Selector};
use exsample_core::driver::StopCond;
use exsample_core::exsample::{ExSample, ExSampleConfig};
use exsample_core::fidelity::{median_to, Key};
use exsample_core::policy::SamplingPolicy;
use exsample_core::within::WithinKind;
use exsample_core::Chunking;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::Arc;

/// The shared ablation workload: a skewed single-class dataset.
#[derive(Debug, Clone)]
pub struct AblationWorkload {
    /// Ground truth.
    pub gt: Arc<GroundTruth>,
    /// Chunking for ExSample variants.
    pub chunking: Chunking,
    /// Result target for "samples to target" measurements.
    pub target: u64,
    /// Replicates.
    pub runs: usize,
    /// Sample cap.
    pub max_samples: u64,
    /// Root seed.
    pub seed: u64,
}

impl AblationWorkload {
    /// Standard workload at a scale.
    pub fn at_scale(scale: Scale) -> Self {
        let (frames, instances, dur, chunks, runs, max_samples, target) = match scale {
            Scale::Full => (
                2_000_000u64,
                1000usize,
                90.0,
                64usize,
                15usize,
                150_000u64,
                500u64,
            ),
            Scale::Quick => (400_000, 400, 40.0, 32, 5, 30_000, 200),
        };
        let spec = DatasetSpec::single_class(
            frames,
            ClassSpec::new(
                "object",
                instances,
                dur,
                SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
            ),
        );
        AblationWorkload {
            gt: Arc::new(spec.generate(71)),
            chunking: Chunking::even(frames, chunks),
            target,
            runs,
            max_samples,
            seed: 72,
        }
    }

    /// Median samples-to-target of `spec`, runs forked from `seed`, drawing
    /// `batch` frames per decision.
    fn median(&self, spec: &dyn PolicyFactory, seed: u64, batch: usize) -> Option<f64> {
        let stop = StopCond::results(self.target).or_samples(self.max_samples);
        let cfg = RunConfig {
            batch,
            ..RunConfig::new(self.runs, stop, seed)
        };
        let traces = replicate_runs(&self.gt, ClassId(0), spec, &cfg);
        median_to(&traces, self.target, Key::Samples)
    }

    /// Median samples-to-target for an ExSample configuration.
    pub(crate) fn measure(&self, config: ExSampleConfig) -> Option<f64> {
        self.measure_policy(PolicySpec::ExSample {
            chunking: self.chunking.clone(),
            config,
        })
    }

    /// Median samples-to-target for a baseline policy.
    pub(crate) fn measure_policy(&self, spec: PolicySpec) -> Option<f64> {
        self.median(&spec, self.seed, 1)
    }
}

/// A median cell: whole samples, or `-` when unreached.
fn fmt_median(m: Option<f64>) -> String {
    m.map(|v| format!("{v:.0}")).unwrap_or_else(|| "-".into())
}

/// Prior-sensitivity ablation: grid over `(α0, β0)`.
pub fn prior_table(w: &AblationWorkload) -> Table {
    let mut t = Table::new(&["alpha0", "beta0", "median samples to target"]);
    for &a0 in &[0.01, 0.1, 1.0] {
        for &b0 in &[0.1, 1.0, 10.0] {
            let cfg = ExSampleConfig {
                prior: BeliefPrior::new(a0, b0),
                ..ExSampleConfig::default()
            };
            t.row(vec![
                format!("{a0}"),
                format!("{b0}"),
                fmt_median(w.measure(cfg)),
            ]);
        }
    }
    t
}

/// Selector ablation: Thompson vs Bayes-UCB vs greedy, plus random.
pub fn selector_table(w: &AblationWorkload) -> Table {
    let mut t = Table::new(&["selector", "median samples to target"]);
    for sel in [Selector::Thompson, Selector::BayesUcb, Selector::Greedy] {
        let cfg = ExSampleConfig {
            selector: sel,
            ..ExSampleConfig::default()
        };
        t.row(vec![sel.name().to_string(), fmt_median(w.measure(cfg))]);
    }
    let rnd = w.measure_policy(PolicySpec::Random);
    t.row(vec!["(random baseline)".into(), fmt_median(rnd)]);
    t
}

/// Within-chunk order ablation: stratified random+ vs plain random, both
/// inside ExSample and as whole-dataset baselines.
pub fn within_table(w: &AblationWorkload) -> Table {
    let mut t = Table::new(&["sampler", "median samples to target"]);
    for (label, within) in [
        ("exsample + random+", WithinKind::Stratified),
        ("exsample + random", WithinKind::Random),
    ] {
        let cfg = ExSampleConfig {
            within,
            ..ExSampleConfig::default()
        };
        t.row(vec![label.into(), fmt_median(w.measure(cfg))]);
    }
    for (label, spec) in [
        ("random+ (no chunks)", PolicySpec::RandomPlus),
        ("random (no chunks)", PolicySpec::Random),
    ] {
        t.row(vec![label.into(), fmt_median(w.measure_policy(spec))]);
    }
    t
}

/// Median samples-to-target under batched Thompson sampling with batch
/// size `b` (feedback only lands after a whole batch is processed).
pub(crate) fn batched_samples_to_target(w: &AblationWorkload, b: usize) -> Option<f64> {
    let spec = PolicySpec::ExSample {
        chunking: w.chunking.clone(),
        config: ExSampleConfig::default(),
    };
    w.median(&spec, w.seed ^ 0xBA7C, b)
}

/// §VII fusion study: ExSample chunk selection with score-descending
/// within-chunk order, vs plain ExSample and pure proxy ordering.
/// Measured in *samples* to target — the scan needed to produce scores is
/// reported separately (it is exactly what the fusion's future-work
/// "predictive scoring" would remove).
pub fn fusion_table(w: &AblationWorkload, fidelity: f64) -> Table {
    use exsample_detect::ProxyModel;
    let proxy = ProxyModel::build(&w.gt, ClassId(0), fidelity, w.seed ^ 0xF0);
    let scores: Arc<Vec<f32>> = Arc::new((0..w.gt.frames).map(|f| proxy.score(f)).collect());
    let plain = PolicySpec::ExSample {
        chunking: w.chunking.clone(),
        config: ExSampleConfig::default(),
    };
    let fused = |_: u64| -> Box<dyn SamplingPolicy> {
        Box::new(ExSample::fused(
            w.chunking.clone(),
            ExSampleConfig::default(),
            &scores,
        ))
    };
    let proxy_order = PolicySpec::ProxyOrder {
        order: Arc::new(proxy.descending_order()),
        avoid_window: 0,
        upfront_s: 0.0,
    };
    let rows: [(String, &dyn PolicyFactory, &str); 3] = [
        ("exsample (random+ within)".into(), &plain, "no"),
        (
            format!("exsample fused (scores; fid {fidelity})"),
            &fused,
            "yes",
        ),
        (format!("proxy-order (fid {fidelity})"), &proxy_order, "yes"),
    ];
    let mut t = Table::new(&[
        "policy",
        "median samples to target",
        "requires scoring scan",
    ]);
    for (label, spec, scan) in rows {
        let median = w.median(spec, w.seed ^ 0xF1, 1);
        t.row(vec![label, fmt_median(median), scan.into()]);
    }
    t
}

/// Batch-size ablation table.
pub fn batch_table(w: &AblationWorkload) -> Table {
    let mut t = Table::new(&["batch size B", "median samples to target"]);
    for b in [1usize, 8, 64] {
        t.row(vec![
            b.to_string(),
            fmt_median(batched_samples_to_target(w, b)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AblationWorkload {
        let spec = DatasetSpec::single_class(
            100_000,
            ClassSpec::new(
                "object",
                200,
                40.0,
                SkewSpec::CentralNormal { frac95: 1.0 / 16.0 },
            ),
        );
        AblationWorkload {
            gt: Arc::new(spec.generate(3)),
            chunking: Chunking::even(100_000, 16),
            target: 100,
            runs: 5,
            max_samples: 20_000,
            seed: 4,
        }
    }

    #[test]
    fn priors_are_not_load_bearing() {
        // Paper: no strong dependence on (α0, β0). Compare two priors an
        // order of magnitude apart; medians should be within 3x.
        let w = tiny();
        let a = w
            .measure(ExSampleConfig {
                prior: BeliefPrior::new(0.01, 1.0),
                ..ExSampleConfig::default()
            })
            .unwrap();
        let b = w
            .measure(ExSampleConfig {
                prior: BeliefPrior::new(1.0, 1.0),
                ..ExSampleConfig::default()
            })
            .unwrap();
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 3.0, "a={a} b={b}");
    }

    #[test]
    fn thompson_and_bayes_ucb_comparable() {
        let w = tiny();
        let t = w
            .measure(ExSampleConfig {
                selector: Selector::Thompson,
                ..Default::default()
            })
            .unwrap();
        let u = w
            .measure(ExSampleConfig {
                selector: Selector::BayesUcb,
                ..Default::default()
            })
            .unwrap();
        let ratio = t.max(u) / t.min(u);
        assert!(ratio < 3.0, "thompson={t} bayes-ucb={u}");
    }

    #[test]
    fn batching_costs_little() {
        let w = tiny();
        let b1 = batched_samples_to_target(&w, 1).unwrap();
        let b64 = batched_samples_to_target(&w, 64).unwrap();
        // Delayed feedback wastes some samples but not an order of
        // magnitude at this scale.
        assert!(b64 < b1 * 4.0, "b1={b1} b64={b64}");
    }

    #[test]
    fn tables_render() {
        let w = tiny();
        assert_eq!(selector_table(&w).len(), 4);
        assert_eq!(within_table(&w).len(), 4);
        assert_eq!(batch_table(&w).len(), 3);
    }

    #[test]
    fn fusion_with_good_scores_beats_plain_exsample_on_samples() {
        let w = tiny();
        let t = fusion_table(&w, 0.95);
        let md = t.to_csv();
        let rows: Vec<Vec<&str>> = md.lines().skip(1).map(|l| l.split(',').collect()).collect();
        assert_eq!(rows.len(), 3);
        let plain: f64 = rows[0][1].parse().expect("plain measured");
        let fused: f64 = rows[1][1].parse().expect("fused measured");
        // A near-perfect proxy inside chunks should need no more samples
        // than random+ inside chunks (usually far fewer).
        assert!(fused <= plain * 1.2, "fused={fused} plain={plain}");
    }
}
