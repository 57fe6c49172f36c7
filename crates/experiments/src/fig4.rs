//! Figure 4: sensitivity to the number of chunks (paper §IV-C).
//!
//! Fixed workload (skew 1/32, mean duration 700 frames, 2000 instances in
//! 16M frames); chunk count `M` swept over {2, 16, 128, 1024} plus the
//! random baseline. For small `M` ExSample matches the static optimum;
//! for large `M` a gap opens because the sampler must first *learn* which
//! chunks pay (the benefit is non-monotonic in `M`).

use crate::optimal::{optimal_curve, ChunkProbs, SolveOpts};
use crate::report::Table;
use crate::runner::{
    found_band, log_checkpoints, replicate_runs, BandPoint, PolicySpec, RunConfig,
};
use crate::Scale;
use exsample_core::driver::StopCond;
use exsample_core::exsample::ExSampleConfig;
use exsample_core::Chunking;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use std::sync::Arc;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Total frames (paper: 16M).
    pub frames: u64,
    /// Instances (paper: 2000).
    pub instances: usize,
    /// Mean duration (paper: 700).
    pub mean_duration: f64,
    /// Skew (paper: central 1/32).
    pub skew: SkewSpec,
    /// Chunk counts to sweep (paper: 2, 16, 128, 1024).
    pub chunk_counts: Vec<usize>,
    /// Replicates.
    pub runs: usize,
    /// Sample budget (paper plots to 30k).
    pub max_samples: u64,
    /// Root seed.
    pub seed: u64,
}

impl Fig4Config {
    /// Paper-scale or smoke-scale settings.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Fig4Config {
                frames: 16_000_000,
                instances: 2000,
                mean_duration: 700.0,
                skew: SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
                chunk_counts: vec![2, 16, 128, 1024],
                runs: 21,
                max_samples: 30_000,
                seed: 41,
            },
            Scale::Quick => Fig4Config {
                frames: 1_000_000,
                instances: 500,
                mean_duration: 44.0,
                skew: SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
                chunk_counts: vec![2, 16, 128],
                runs: 5,
                max_samples: 20_000,
                seed: 41,
            },
        }
    }
}

/// One series of the figure.
#[derive(Debug, Clone)]
pub struct Fig4Series {
    /// "random" or `M=<count>`.
    pub label: String,
    /// Median/quartiles of instances found at each checkpoint.
    pub band: Vec<BandPoint>,
    /// Optimal static-weights expectation at each checkpoint (empty for
    /// the random series — uniform IS its optimum).
    pub optimal: Vec<(u64, f64)>,
    /// Median instances found at the full budget.
    pub found_at_budget: f64,
}

/// Run the sweep.
pub fn run(config: &Fig4Config) -> Vec<Fig4Series> {
    let spec = DatasetSpec::single_class(
        config.frames,
        ClassSpec::new(
            "object",
            config.instances,
            config.mean_duration,
            config.skew.clone(),
        ),
    );
    let gt = Arc::new(spec.generate(config.seed));
    let stop = StopCond::results(config.instances as u64).or_samples(config.max_samples);
    let run_cfg = RunConfig::new(config.runs, stop, config.seed ^ 0xF1640);
    let checkpoints = log_checkpoints(config.max_samples, 8);

    let mut out = Vec::new();
    let rnd = replicate_runs(&gt, ClassId(0), &PolicySpec::Random, &run_cfg);
    let band = found_band(&rnd, &checkpoints);
    out.push(Fig4Series {
        label: "random".into(),
        found_at_budget: band.last().map(|p| p.median).unwrap_or(0.0),
        band,
        optimal: Vec::new(),
    });
    for &m in &config.chunk_counts {
        let chunking = Chunking::even(config.frames, m);
        let ex_spec = PolicySpec::ExSample {
            chunking: chunking.clone(),
            config: ExSampleConfig::default(),
        };
        let traces = replicate_runs(&gt, ClassId(0), &ex_spec, &run_cfg);
        let probs = ChunkProbs::build(&gt, ClassId(0), &chunking);
        let optimal = optimal_curve(&probs, &checkpoints, SolveOpts::default());
        let band = found_band(&traces, &checkpoints);
        out.push(Fig4Series {
            label: format!("M={m}"),
            found_at_budget: band.last().map(|p| p.median).unwrap_or(0.0),
            band,
            optimal,
        });
    }
    out
}

/// Summary table: instances found at the sample budget per series, with
/// the optimal reference where defined.
pub fn summary_table(series: &[Fig4Series]) -> Table {
    let mut t = Table::new(&["series", "median found @ budget", "optimal @ budget"]);
    for s in series {
        t.row(vec![
            s.label.clone(),
            format!("{:.0}", s.found_at_budget),
            s.optimal
                .last()
                .map(|&(_, v)| format!("{v:.0}"))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    t
}

/// The reading of a sweep, derived from the medians [`summary_table`]
/// prints: whether every chunked series beats random (the first series),
/// and whether the median found at the budget ever falls as `M` grows —
/// the figure's non-monotonicity, which a sweep that stops before the
/// learning cost bites does not show.
pub fn reading(series: &[Fig4Series]) -> String {
    let Some((random, chunked)) = series.split_first() else {
        return String::from("no series were run.");
    };
    let found = |s: &Fig4Series| format!("{:.0}", s.found_at_budget);
    let medians: Vec<String> = chunked.iter().map(found).collect();
    let medians = medians.join(" / ");
    let losers: Vec<&str> = chunked
        .iter()
        .filter(|s| s.found_at_budget <= random.found_at_budget)
        .map(|s| s.label.as_str())
        .collect();
    let versus_random = if losers.is_empty() {
        format!("every chunked variant beats random ({})", found(random))
    } else {
        format!(
            "{} does not beat random ({})",
            losers.join(", "),
            found(random)
        )
    };
    let drop = chunked
        .windows(2)
        .find(|w| w[1].found_at_budget < w[0].found_at_budget);
    let in_m = match drop {
        Some([peak, after]) => format!(
            "the median found falls from {} at {} to {} at {} ({medians}), so the benefit is \
             non-monotonic in M",
            found(peak),
            peak.label,
            found(after),
            after.label
        ),
        _ => format!(
            "the median found never falls as M grows ({medians}), so this sweep shows no \
             non-monotonicity in M"
        ),
    };
    format!("{versus_random}; {in_m}.")
}

/// Full curves as CSV rows.
pub fn curves_table(series: &[Fig4Series]) -> Table {
    let mut t = Table::new(&["series", "samples", "q25", "median", "q75", "optimal"]);
    for s in series {
        for (i, p) in s.band.iter().enumerate() {
            t.row(vec![
                s.label.clone(),
                p.samples.to_string(),
                format!("{:.1}", p.q25),
                format!("{:.1}", p.median),
                format!("{:.1}", p.q75),
                s.optimal
                    .get(i)
                    .map(|&(_, v)| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig4Config {
        Fig4Config {
            frames: 200_000,
            instances: 300,
            mean_duration: 50.0,
            skew: SkewSpec::CentralNormal { frac95: 1.0 / 32.0 },
            chunk_counts: vec![2, 16, 64],
            runs: 5,
            max_samples: 8_000,
            seed: 6,
        }
    }

    #[test]
    fn chunked_beats_random_under_skew() {
        let series = run(&tiny());
        let random = &series[0];
        // Paper: "we varied the number of chunks by three orders of
        // magnitude and still see a benefit of chunking versus random
        // across all settings".
        for s in &series[1..] {
            assert!(
                s.found_at_budget > random.found_at_budget,
                "{} ({}) !> random ({})",
                s.label,
                s.found_at_budget,
                random.found_at_budget
            );
        }
    }

    #[test]
    fn optimal_steeper_with_more_chunks() {
        let series = run(&tiny());
        // More chunks = finer knowledge = (weakly) higher optimal curve at
        // the budget.
        let opt_at_budget: Vec<f64> = series[1..]
            .iter()
            .map(|s| s.optimal.last().unwrap().1)
            .collect();
        for w in opt_at_budget.windows(2) {
            assert!(
                w[1] >= w[0] - 1.0,
                "optimal not increasing: {opt_at_budget:?}"
            );
        }
    }

    fn at_budget(found: &[(&str, f64)]) -> Vec<Fig4Series> {
        let series = |&(label, found): &(&str, f64)| Fig4Series {
            label: label.into(),
            band: Vec::new(),
            optimal: Vec::new(),
            found_at_budget: found,
        };
        found.iter().map(series).collect()
    }

    #[test]
    fn reading_of_a_rising_sweep_claims_no_drop() {
        let series = at_budget(&[
            ("random", 98.0),
            ("M=2", 251.0),
            ("M=16", 465.0),
            ("M=128", 472.0),
        ]);
        assert_eq!(
            reading(&series),
            "every chunked variant beats random (98); the median found never falls as M grows \
             (251 / 465 / 472), so this sweep shows no non-monotonicity in M."
        );
    }

    #[test]
    fn reading_of_a_sweep_with_a_drop_names_it() {
        let series = at_budget(&[
            ("random", 1141.0),
            ("M=2", 1215.0),
            ("M=16", 1925.0),
            ("M=128", 1958.0),
            ("M=1024", 1835.0),
        ]);
        let text = reading(&series);
        assert_eq!(
            text,
            "every chunked variant beats random (1141); the median found falls from 1958 at \
             M=128 to 1835 at M=1024 (1215 / 1925 / 1958 / 1835), so the benefit is \
             non-monotonic in M."
        );
        let lost = at_budget(&[("random", 300.0), ("M=2", 280.0), ("M=16", 400.0)]);
        assert!(reading(&lost).starts_with("M=2 does not beat random (300); the median"));
    }

    #[test]
    fn tables_render() {
        let series = run(&Fig4Config {
            runs: 3,
            chunk_counts: vec![4],
            ..tiny()
        });
        assert_eq!(summary_table(&series).len(), 2);
        assert!(curves_table(&series).len() > 5);
    }
}
