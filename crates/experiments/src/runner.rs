//! Replicated discovery-curve runs shared by all experiments.

use crate::baselines::{ProxyOrderPolicy, RandomPlusPolicy, RandomPolicy};
use crate::parallel::{default_threads, parallel_map};
use crate::presets::DETECT_FPS;
use exsample_core::driver::{run_search_batched, SearchCost, SearchTrace, StopCond};
use exsample_core::exsample::{ExSample, ExSampleConfig};
use exsample_core::policy::SamplingPolicy;
use exsample_core::Chunking;
use exsample_detect::{OracleDiscriminator, QueryOracle, SimulatedDetector};
use exsample_stats::{quantile, Rng64};
use exsample_videosim::{ClassId, GroundTruth};
use std::sync::Arc;

/// Builds a fresh policy for every replicate run. [`PolicySpec`] is the
/// common recipe; a closure `|frames: u64| -> Box<dyn SamplingPolicy>`
/// builds anything else (fused orders, test wrappers).
pub trait PolicyFactory: Sync {
    /// Instantiate the policy for a repository of `frames` frames.
    fn build(&self, frames: u64) -> Box<dyn SamplingPolicy>;

    /// Upfront cost charged before sampling starts.
    fn upfront_seconds(&self) -> f64 {
        0.0
    }
}

impl<F: Fn(u64) -> Box<dyn SamplingPolicy> + Sync> PolicyFactory for F {
    fn build(&self, frames: u64) -> Box<dyn SamplingPolicy> {
        self(frames)
    }
}

/// A policy recipe that can be instantiated fresh for every replicate run.
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// ExSample with the given chunking and configuration.
    ExSample {
        /// Chunk partition (bandit arms).
        chunking: Chunking,
        /// Prior / selector / within-chunk settings.
        config: ExSampleConfig,
    },
    /// Uniform random sampling without replacement.
    Random,
    /// Whole-dataset stratified random+.
    RandomPlus,
    /// BlazeIt-style: frames in descending proxy-score order after a full
    /// scoring scan.
    ProxyOrder {
        /// Precomputed descending-score frame order (shared across runs).
        order: Arc<Vec<u64>>,
        /// Duplicate-avoidance window in frames (0 = none).
        avoid_window: u64,
        /// Upfront scan seconds charged before the first sample.
        upfront_s: f64,
    },
}

impl PolicyFactory for PolicySpec {
    fn build(&self, frames: u64) -> Box<dyn SamplingPolicy> {
        match self {
            PolicySpec::ExSample { chunking, config } => {
                Box::new(ExSample::new(chunking.clone(), *config))
            }
            PolicySpec::Random => Box::new(RandomPolicy::new(frames)),
            PolicySpec::RandomPlus => Box::new(RandomPlusPolicy::new(frames)),
            PolicySpec::ProxyOrder {
                order,
                avoid_window,
                ..
            } => Box::new(ProxyOrderPolicy::new(order.as_ref().clone(), *avoid_window)),
        }
    }

    fn upfront_seconds(&self) -> f64 {
        match self {
            PolicySpec::ProxyOrder { upfront_s, .. } => *upfront_s,
            _ => 0.0,
        }
    }
}

impl PolicySpec {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::ExSample { chunking, config } => format!(
                "exsample(M={},{})",
                chunking.num_chunks(),
                config.selector.name()
            ),
            PolicySpec::Random => "random".into(),
            PolicySpec::RandomPlus => "random+".into(),
            PolicySpec::ProxyOrder { avoid_window, .. } => {
                format!("proxy-order(w={avoid_window})")
            }
        }
    }
}

/// Replication settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of independent replicate runs.
    pub runs: usize,
    /// Stop condition per run.
    pub stop: StopCond,
    /// Root seed; run `r` uses stream `fork(r)`.
    pub base_seed: u64,
    /// Frames drawn per decision before any of their feedback lands
    /// (§III-F batched inference; 1 = per-frame).
    pub batch: usize,
}

impl RunConfig {
    /// `runs` replicates under `stop`, forked from `base_seed`, with
    /// per-frame feedback (`batch` 1).
    pub fn new(runs: usize, stop: StopCond, base_seed: u64) -> Self {
        RunConfig {
            runs,
            stop,
            base_seed,
            batch: 1,
        }
    }
}

/// Run `cfg.runs` independent searches of `spec` against a perfect
/// detector + oracle discriminator (the configuration of the paper's
/// simulation studies), timed at the paper's detector rate
/// ([`DETECT_FPS`]), on every worker thread, and return their traces.
pub fn replicate_runs<P: PolicyFactory + ?Sized>(
    gt: &Arc<GroundTruth>,
    class: ClassId,
    spec: &P,
    cfg: &RunConfig,
) -> Vec<SearchTrace> {
    let root = Rng64::new(cfg.base_seed);
    let cost = SearchCost {
        upfront_s: spec.upfront_seconds(),
        per_sample_s: 1.0 / DETECT_FPS,
    };
    parallel_map(cfg.runs, default_threads(), |r| {
        let mut rng = root.fork(r as u64);
        let mut policy = spec.build(gt.frames);
        let mut oracle = QueryOracle::new(
            SimulatedDetector::perfect(gt.clone(), class),
            OracleDiscriminator::new(),
        );
        let mut f = |frame: u64| oracle.process(frame);
        run_search_batched(
            policy.as_mut(),
            &mut f,
            &cost,
            &cfg.stop,
            &mut rng,
            cfg.batch,
        )
    })
}

/// One row of a median/quartile discovery band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandPoint {
    /// Sample count of this checkpoint.
    pub samples: u64,
    /// 25th percentile of found across runs.
    pub q25: f64,
    /// Median found.
    pub median: f64,
    /// 75th percentile of found.
    pub q75: f64,
}

/// Median and quartiles of "results found" at each checkpoint — the solid
/// line and shaded band of Figures 3 and 4.
pub fn found_band(traces: &[SearchTrace], checkpoints: &[u64]) -> Vec<BandPoint> {
    checkpoints
        .iter()
        .map(|&n| {
            let found: Vec<f64> = traces
                .iter()
                .map(|t| t.found_at_samples(n) as f64)
                .collect();
            BandPoint {
                samples: n,
                q25: quantile(&found, 0.25),
                median: quantile(&found, 0.5),
                q75: quantile(&found, 0.75),
            }
        })
        .collect()
}

/// Log-spaced sample checkpoints from 1 to `max` (inclusive), `per_decade`
/// points per decade — the x grid of the log-scale figures.
pub fn log_checkpoints(max: u64, per_decade: usize) -> Vec<u64> {
    assert!(max >= 1 && per_decade >= 1);
    let mut out = Vec::new();
    let mut x = 0.0f64;
    let step = 1.0 / per_decade as f64;
    loop {
        let v = 10f64.powf(x).round() as u64;
        if v > max {
            break;
        }
        if out.last() != Some(&v) {
            out.push(v);
        }
        x += step;
    }
    if out.last() != Some(&max) {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_core::fidelity::{median_to, Key};
    use exsample_videosim::{ClassSpec, DatasetSpec, SkewSpec};

    fn truth() -> Arc<GroundTruth> {
        Arc::new(
            DatasetSpec::single_class(
                20_000,
                ClassSpec::new("car", 50, 100.0, SkewSpec::CentralNormal { frac95: 0.125 }),
            )
            .generate(5),
        )
    }

    #[test]
    fn replicate_runs_are_deterministic_per_seed() {
        let gt = truth();
        let spec = PolicySpec::Random;
        let cfg = RunConfig::new(4, StopCond::results(10), 42);
        let a = replicate_runs(&gt, ClassId(0), &spec, &cfg);
        let b = replicate_runs(&gt, ClassId(0), &spec, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for t in &a {
            assert!(t.found() >= 10);
        }
    }

    #[test]
    fn band_is_ordered_and_monotone() {
        let gt = truth();
        let cfg = RunConfig::new(5, StopCond::samples(2_000), 11);
        let traces = replicate_runs(&gt, ClassId(0), &PolicySpec::RandomPlus, &cfg);
        let cps = log_checkpoints(2_000, 4);
        let band = found_band(&traces, &cps);
        for p in &band {
            assert!(p.q25 <= p.median && p.median <= p.q75);
        }
        for w in band.windows(2) {
            assert!(w[0].median <= w[1].median);
        }
    }

    #[test]
    fn log_checkpoints_shape() {
        let cps = log_checkpoints(1000, 2);
        assert_eq!(cps.first(), Some(&1));
        assert_eq!(cps.last(), Some(&1000));
        assert!(cps.windows(2).all(|w| w[0] < w[1]));
        let cps1 = log_checkpoints(1, 5);
        assert_eq!(cps1, vec![1]);
    }

    #[test]
    fn proxy_spec_charges_upfront() {
        let gt = truth();
        let order: Arc<Vec<u64>> = Arc::new((0..20_000).rev().collect());
        let spec = PolicySpec::ProxyOrder {
            order,
            avoid_window: 10,
            upfront_s: 123.0,
        };
        assert_eq!(spec.upfront_seconds(), 123.0);
        let cfg = RunConfig::new(1, StopCond::samples(5), 3);
        let traces = replicate_runs(&gt, ClassId(0), &spec, &cfg);
        assert!(traces[0].seconds() >= 123.0);
    }

    #[test]
    fn median_none_when_unreached() {
        let gt = truth();
        let cfg = RunConfig::new(3, StopCond::samples(10), 13);
        let traces = replicate_runs(&gt, ClassId(0), &PolicySpec::Random, &cfg);
        assert!(median_to(&traces, 1_000, Key::Samples).is_none());
    }

    #[test]
    fn labels() {
        assert_eq!(PolicySpec::Random.label(), "random");
        assert_eq!(PolicySpec::RandomPlus.label(), "random+");
        let ex = PolicySpec::ExSample {
            chunking: Chunking::even(100, 4),
            config: ExSampleConfig::default(),
        };
        assert_eq!(ex.label(), "exsample(M=4,thompson)");
    }
}
