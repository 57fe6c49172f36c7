//! Figure 3: the 4×4 skew × duration simulation grid (paper §IV-B).
//!
//! 2000 instances placed over 16M frames with four skew levels (none,
//! 95%-in-1/4, 1/32, 1/256) and four mean durations (14, 100, 700, 4900
//! frames). ExSample (128 chunks) vs random, 21 replicate runs, median and
//! 25–75% band, savings labels at 10/100/1000 results, and the
//! optimal-allocation reference (Eq. IV.1).

use crate::optimal::{optimal_curve, ChunkProbs, SolveOpts};
use crate::report::{fmt_ratio, Table};
use crate::runner::{
    found_band, log_checkpoints, replicate_runs, BandPoint, PolicySpec, RunConfig,
};
use crate::Scale;
use exsample_core::driver::StopCond;
use exsample_core::exsample::ExSampleConfig;
use exsample_core::fidelity::{median_to, savings, Key};
use exsample_core::Chunking;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use std::sync::Arc;

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Total frames (paper: 16 million).
    pub frames: u64,
    /// Instances per cell (paper: 2000).
    pub instances: usize,
    /// Number of chunks (paper: 128).
    pub chunks: usize,
    /// Replicate runs per policy (paper: 21).
    pub runs: usize,
    /// Sample cap per run.
    pub max_samples: u64,
    /// Result-count targets for the savings labels (paper: 10/100/1000).
    pub targets: Vec<u64>,
    /// Mean durations (rows).
    pub durations: Vec<f64>,
    /// Skew columns as `(label, spec)`.
    pub skews: Vec<(String, SkewSpec)>,
    /// Root seed.
    pub seed: u64,
}

impl Fig3Config {
    /// Paper-scale or smoke-scale configuration. Quick mode shrinks the
    /// frame count and scales durations with it, preserving every `p_i`.
    pub fn at_scale(scale: Scale) -> Self {
        let skews = vec![
            ("none".to_string(), SkewSpec::Uniform),
            ("1/4".to_string(), SkewSpec::CentralNormal { frac95: 0.25 }),
            (
                "1/32".to_string(),
                SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
            ),
            (
                "1/256".to_string(),
                SkewSpec::CentralNormal {
                    frac95: 1.0 / 256.0,
                },
            ),
        ];
        match scale {
            Scale::Full => Fig3Config {
                frames: 16_000_000,
                instances: 2000,
                chunks: 128,
                runs: 11,
                max_samples: 250_000,
                targets: vec![10, 100, 1000],
                durations: vec![14.0, 100.0, 700.0, 4900.0],
                skews,
                seed: 31,
            },
            Scale::Quick => Fig3Config {
                frames: 1_000_000,
                instances: 500,
                chunks: 32,
                runs: 5,
                max_samples: 40_000,
                targets: vec![10, 100],
                // Scaled by 1/16 to keep p_i identical to the full grid.
                durations: vec![1.0, 7.0, 44.0, 306.0],
                skews,
                seed: 31,
            },
        }
    }
}

/// Result of one grid cell.
#[derive(Debug, Clone)]
pub struct Fig3Cell {
    /// Skew column label.
    pub skew: String,
    /// Mean duration (frames).
    pub duration: f64,
    /// Median/quartile discovery bands per policy.
    pub exsample_band: Vec<BandPoint>,
    /// Random baseline band.
    pub random_band: Vec<BandPoint>,
    /// Optimal-allocation reference curve `(n, expected found)`.
    pub optimal: Vec<(u64, f64)>,
    /// Savings `n_random/n_exsample` at each target (None if either policy
    /// missed the target within the budget).
    pub savings: Vec<(u64, Option<f64>)>,
}

/// Run one cell of the grid.
pub fn run_cell(config: &Fig3Config, skew_idx: usize, dur_idx: usize) -> Fig3Cell {
    let (skew_label, skew) = &config.skews[skew_idx];
    let duration = config.durations[dur_idx];
    let spec = DatasetSpec::single_class(
        config.frames,
        ClassSpec::new("object", config.instances, duration, skew.clone()),
    );
    let cell_seed = config.seed ^ ((skew_idx as u64) << 16) ^ ((dur_idx as u64) << 24);
    let gt = Arc::new(spec.generate(cell_seed));
    let stop = StopCond::results(config.instances as u64).or_samples(config.max_samples);
    let run_cfg = RunConfig::new(config.runs, stop, cell_seed ^ 0xABCD);
    let chunking = Chunking::even(config.frames, config.chunks);
    let ex_spec = PolicySpec::ExSample {
        chunking: chunking.clone(),
        config: ExSampleConfig::default(),
    };
    let ex = replicate_runs(&gt, ClassId(0), &ex_spec, &run_cfg);
    let rnd = replicate_runs(&gt, ClassId(0), &PolicySpec::Random, &run_cfg);

    let checkpoints = log_checkpoints(config.max_samples, 8);
    let probs = ChunkProbs::build(&gt, ClassId(0), &chunking);
    let optimal = optimal_curve(&probs, &checkpoints, SolveOpts::default());

    let savings = config
        .targets
        .iter()
        .map(|&t| {
            let to = |traces| median_to(traces, t, Key::Samples);
            (t, savings(to(&rnd), to(&ex)))
        })
        .collect();

    Fig3Cell {
        skew: skew_label.clone(),
        duration,
        exsample_band: found_band(&ex, &checkpoints),
        random_band: found_band(&rnd, &checkpoints),
        optimal,
        savings,
    }
}

/// Savings-label summary table (the text annotations of Figure 3).
pub fn savings_table(cells: &[Fig3Cell]) -> Table {
    let mut t = Table::new(&[
        "mean duration",
        "skew",
        "target",
        "savings (random/exsample)",
    ]);
    for c in cells {
        for &(target, s) in &c.savings {
            t.row(vec![
                format!("{}", c.duration),
                c.skew.clone(),
                target.to_string(),
                s.map(fmt_ratio).unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t
}

/// Full band/curve CSV (one row per checkpoint per cell).
pub fn curves_table(cells: &[Fig3Cell]) -> Table {
    let mut t = Table::new(&[
        "duration",
        "skew",
        "samples",
        "exsample_q25",
        "exsample_med",
        "exsample_q75",
        "random_q25",
        "random_med",
        "random_q75",
        "optimal",
    ]);
    for c in cells {
        for (i, p) in c.exsample_band.iter().enumerate() {
            let r = &c.random_band[i];
            let o = c.optimal[i].1;
            t.row(vec![
                format!("{}", c.duration),
                c.skew.clone(),
                p.samples.to_string(),
                format!("{:.1}", p.q25),
                format!("{:.1}", p.median),
                format!("{:.1}", p.q75),
                format!("{:.1}", r.q25),
                format!("{:.1}", r.median),
                format!("{:.1}", r.q75),
                format!("{o:.1}"),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> Fig3Config {
        Fig3Config {
            frames: 200_000,
            instances: 300,
            chunks: 16,
            runs: 5,
            max_samples: 15_000,
            targets: vec![10, 100],
            durations: vec![50.0],
            skews: vec![
                ("none".into(), SkewSpec::Uniform),
                (
                    "1/32".into(),
                    SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
                ),
            ],
            seed: 5,
        }
    }

    #[test]
    fn skewed_cell_shows_savings_unskewed_does_not() {
        let cfg = tiny_config();
        let uniform = run_cell(&cfg, 0, 0);
        let skewed = run_cell(&cfg, 1, 0);
        // Savings at 100 results: skewed should be clearly better than
        // uniform's (which hovers around 1x).
        let s_uniform = uniform.savings[1].1.expect("uniform reached 100");
        let s_skewed = skewed.savings[1].1.expect("skewed reached 100");
        assert!(
            s_skewed > s_uniform.max(1.2),
            "skewed={s_skewed} uniform={s_uniform}"
        );
        assert!(s_uniform < 1.5, "uniform should be near 1x: {s_uniform}");
    }

    #[test]
    fn optimal_curve_upper_bounds_exsample_median() {
        let cfg = tiny_config();
        let cell = run_cell(&cfg, 1, 0);
        // The offline-optimal expectation should (weakly) dominate the
        // achieved ExSample median at matching checkpoints — allow small
        // noise slack.
        for (p, &(n, opt)) in cell.exsample_band.iter().zip(&cell.optimal) {
            assert_eq!(p.samples, n);
            assert!(
                p.median <= opt + 0.15 * cfg.instances as f64,
                "n={n}: median {} > optimal {opt}",
                p.median
            );
        }
    }

    #[test]
    fn tables_render() {
        let cfg = tiny_config();
        let cell = run_cell(&cfg, 0, 0);
        let st = savings_table(std::slice::from_ref(&cell));
        assert_eq!(st.len(), 2);
        let ct = curves_table(std::slice::from_ref(&cell));
        assert!(ct.len() > 10);
    }
}
