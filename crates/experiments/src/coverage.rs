//! §III-D variance-bound coverage check.
//!
//! The paper tests Eq. III.3 on BDD-MOT ground truth: "the 95% confidence
//! bound derived from Eq. III.3 includes the actual expected reward about
//! 80% of the time (with some variation across classes) … our variance
//! estimate is a slight underestimate".
//!
//! We replicate the protocol: run random sampling over the BDD-MOT preset;
//! at log-spaced checkpoints form the interval
//! `N1/n ± 1.96·sqrt((N1+α0)/n²)` and check whether it contains the true
//! expected reward `R(n+1) = Σ_unseen p_i`.

use crate::presets::dataset;
use crate::report::Table;
use crate::Scale;
use exsample_core::BeliefPrior;
use exsample_stats::{FxHashMap, Rng64, UniformNoReplacement};
use exsample_videosim::{ClassId, GroundTruth, InstanceId};

/// Coverage measurement for one class.
#[derive(Debug, Clone)]
pub struct ClassCoverage {
    /// Class name.
    pub class: String,
    /// Number of (run, checkpoint) interval evaluations.
    pub evaluations: usize,
    /// Fraction of intervals containing the true expected reward.
    pub coverage: f64,
    /// Fraction of misses where the true value exceeded the upper bound
    /// (evidence of variance underestimation, as the paper observed).
    pub miss_above: f64,
}

/// Study configuration.
#[derive(Debug, Clone, Copy)]
pub struct CoverageConfig {
    /// Replicate runs per class.
    pub runs: usize,
    /// Samples per run.
    pub samples: u64,
    /// Checkpoints per run (log-spaced).
    pub checkpoints: usize,
    /// Root seed.
    pub seed: u64,
}

impl CoverageConfig {
    /// Paper-scale / smoke-scale settings.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => CoverageConfig {
                runs: 20,
                samples: 40_000,
                checkpoints: 12,
                seed: 61,
            },
            Scale::Quick => CoverageConfig {
                runs: 5,
                samples: 10_000,
                checkpoints: 8,
                seed: 61,
            },
        }
    }
}

/// Run the coverage study on one class of a ground truth.
pub fn class_coverage(gt: &GroundTruth, class: ClassId, cfg: &CoverageConfig) -> ClassCoverage {
    let alpha0 = BeliefPrior::default().alpha0;
    let p: FxHashMap<InstanceId, f64> = gt
        .instances_of_class(class)
        .map(|i| (i.id, i.hit_probability(gt.frames)))
        .collect();
    let total_p: f64 = p.values().sum();
    let checkpoints: Vec<u64> = crate::runner::log_checkpoints(cfg.samples, 4)
        .into_iter()
        .rev()
        .take(cfg.checkpoints)
        .rev()
        .collect();

    let root = Rng64::new(cfg.seed ^ (class.0 as u64) << 32);
    let mut evaluations = 0usize;
    let mut hits = 0usize;
    let mut above = 0usize;
    let mut vis = Vec::new();
    for run in 0..cfg.runs {
        let mut rng = root.fork(run as u64);
        let mut sampler = UniformNoReplacement::new(gt.frames);
        let mut seen: FxHashMap<InstanceId, u32> = FxHashMap::default();
        let mut seen_p = 0.0f64;
        let mut n1 = 0i64;
        let mut cp_iter = checkpoints.iter().copied().peekable();
        for n in 1..=cfg.samples {
            let Some(frame) = sampler.next(&mut rng) else {
                break;
            };
            gt.visible_at(class, frame, &mut vis);
            for &id in &vis {
                let c = seen.entry(id).or_insert(0);
                *c += 1;
                match *c {
                    1 => {
                        n1 += 1;
                        seen_p += p[&id];
                    }
                    2 => n1 -= 1,
                    _ => {}
                }
            }
            if cp_iter.peek() == Some(&n) {
                cp_iter.next();
                let est = n1 as f64 / n as f64;
                let sd = ((n1 as f64 + alpha0).max(0.0)).sqrt() / n as f64;
                let (lo, hi) = (est - 1.96 * sd, est + 1.96 * sd);
                let truth = total_p - seen_p; // Σ p_i over unseen instances
                evaluations += 1;
                if truth >= lo && truth <= hi {
                    hits += 1;
                } else if truth > hi {
                    above += 1;
                }
            }
        }
    }
    let share = |part: usize, whole: usize| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    ClassCoverage {
        class: gt.class_name(class).to_string(),
        evaluations,
        coverage: share(hits, evaluations),
        miss_above: share(above, evaluations - hits),
    }
}

/// Run the study over every BDD-MOT class.
pub fn run(scale: Scale) -> Vec<ClassCoverage> {
    let cfg = CoverageConfig::at_scale(scale);
    let ds = dataset("BDD MOT").expect("preset exists");
    let gt = ds.repository();
    (0..ds.classes.len())
        .map(|ci| class_coverage(&gt, ClassId(ci as u16), &cfg))
        .collect()
}

/// Render as a table.
pub fn to_table(rows: &[ClassCoverage]) -> Table {
    let mut t = Table::new(&["class", "evaluations", "coverage", "misses above bound"]);
    for r in rows {
        t.row(vec![
            r.class.clone(),
            r.evaluations.to_string(),
            format!("{:.0}%", r.coverage * 100.0),
            format!("{:.0}%", r.miss_above * 100.0),
        ]);
    }
    t
}

/// Mean coverage across classes (paper: ≈80%).
pub fn mean_coverage(rows: &[ClassCoverage]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.coverage).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_videosim::{ClassSpec, DatasetSpec, SkewSpec};

    #[test]
    fn coverage_in_plausible_band() {
        // Small synthetic check: coverage should be substantial but the
        // bound is known to be slightly anti-conservative (paper: ~80%).
        let gt = DatasetSpec::single_class(
            100_000,
            ClassSpec::new("car", 300, 120.0, SkewSpec::Uniform),
        )
        .generate(8);
        let cfg = CoverageConfig {
            runs: 10,
            samples: 8_000,
            checkpoints: 8,
            seed: 2,
        };
        let c = class_coverage(&gt, ClassId(0), &cfg);
        assert!(c.evaluations >= 60, "evaluations={}", c.evaluations);
        assert!(
            c.coverage > 0.5 && c.coverage <= 1.0,
            "coverage={}",
            c.coverage
        );
    }

    #[test]
    fn table_and_mean() {
        let rows = vec![
            ClassCoverage {
                class: "a".into(),
                evaluations: 10,
                coverage: 0.8,
                miss_above: 1.0,
            },
            ClassCoverage {
                class: "b".into(),
                evaluations: 10,
                coverage: 0.6,
                miss_above: 0.5,
            },
        ];
        assert!((mean_coverage(&rows) - 0.7).abs() < 1e-12);
        assert_eq!(to_table(&rows).len(), 2);
    }
}
