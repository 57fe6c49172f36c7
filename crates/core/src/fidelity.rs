//! Paper-fidelity arithmetic: the numbers the evaluation (Table I,
//! Figs. 3 and 5) computes from replicate search traces. The belief a
//! calibration study checks (Eq. III.4) is [`BeliefPrior`](crate::BeliefPrior)'s.

use crate::driver::SearchTrace;
use exsample_stats::moments::geometric_mean;
use exsample_stats::{quantile, quantile_of_sorted};

/// The unit a time-to-target is measured in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// Frames processed.
    Samples,
    /// Modelled seconds, including any upfront cost.
    Seconds,
}

/// Median (across runs) of the time needed to reach `target` results,
/// measured in `key`. Returns `None` if fewer than half the runs reached
/// the target.
pub fn median_to(traces: &[SearchTrace], target: u64, key: Key) -> Option<f64> {
    let mut reached: Vec<f64> = traces
        .iter()
        .filter_map(|t| t.points().iter().find(|p| p.found >= target))
        .map(|p| match key {
            Key::Samples => p.samples as f64,
            Key::Seconds => p.seconds,
        })
        .collect();
    if reached.len() * 2 < traces.len() {
        return None;
    }
    reached.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Some(quantile_of_sorted(&reached, 0.5))
}

/// Savings ratio `random / exsample` of two times to the same target;
/// `None` unless both were reached (and ExSample's took any time).
pub fn savings(random: Option<f64>, exsample: Option<f64>) -> Option<f64> {
    match (random, exsample) {
        (Some(r), Some(e)) if e > 0.0 => Some(r / e),
        _ => None,
    }
}

/// Summary statistics of a set of savings ratios (paper §V-C: geometric
/// mean ≈1.9×, max ≈6×, min ≈0.75×).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Geometric mean of all savings ratios.
    pub geo_mean: f64,
    /// Largest savings ratio.
    pub max: f64,
    /// Smallest savings ratio.
    pub min: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Number of ratios.
    pub bars: usize,
}

/// Summarise `ratios`; `None` when there are none.
pub fn summary(ratios: &[f64]) -> Option<Summary> {
    if ratios.is_empty() {
        return None;
    }
    Some(Summary {
        geo_mean: geometric_mean(ratios),
        max: ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        min: ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        p90: quantile(ratios, 0.9),
        p10: quantile(ratios, 0.1),
        bars: ratios.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TracePoint;

    /// A trace whose `found` first reaches `found` at `samples` frames, at
    /// a tenth of a second per frame plus `upfront_s`.
    fn trace(found: u64, samples: u64, upfront_s: f64) -> SearchTrace {
        let seconds = upfront_s + samples as f64 / 10.0;
        let end = TracePoint {
            samples,
            found,
            seconds,
        };
        SearchTrace::from_parts(vec![end, end], samples, found, seconds, false)
    }

    #[test]
    fn median_to_needs_half_the_runs() {
        // Two of four runs reach 10 results: a median, of those two.
        let half = [
            trace(10, 100, 0.0),
            trace(12, 300, 0.0),
            trace(4, 50, 0.0),
            trace(9, 900, 0.0),
        ];
        assert_eq!(median_to(&half, 10, Key::Samples), Some(200.0));
        assert_eq!(median_to(&half, 10, Key::Seconds), Some(20.0));
        // One of four: no median.
        let quarter = [
            trace(10, 100, 0.0),
            trace(3, 300, 0.0),
            trace(4, 50, 0.0),
            trace(9, 900, 0.0),
        ];
        assert_eq!(median_to(&quarter, 10, Key::Samples), None);
        assert_eq!(median_to(&quarter, 10, Key::Seconds), None);
    }

    #[test]
    fn samples_and_seconds_select_the_same_runs() {
        // The upfront cost reorders nothing: both keys take the median of
        // the same three reaching runs (the 1000-sample run never reaches).
        let runs = [
            trace(5, 40, 7.0),
            trace(5, 10, 7.0),
            trace(4, 1000, 7.0),
            trace(6, 20, 7.0),
        ];
        assert_eq!(median_to(&runs, 5, Key::Samples), Some(20.0));
        assert_eq!(median_to(&runs, 5, Key::Seconds), Some(9.0));
    }

    #[test]
    fn savings_needs_both_times() {
        assert_eq!(savings(Some(30.0), Some(10.0)), Some(3.0));
        assert_eq!(savings(None, Some(10.0)), None);
        assert_eq!(savings(Some(30.0), None), None);
        assert_eq!(savings(Some(30.0), Some(0.0)), None);
    }
}
