//! Order statistics the reports are built from.

use crate::spec::Better;

/// The `p`-quantile (`0.0..=1.0`) of `values`, linearly interpolated
/// between the two closest ranks. Empty input yields 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The quartile on the *good* side of the distribution: the lower
/// quartile of a lower-is-better metric, the upper quartile of a
/// higher-is-better one. Interference on a shared box only ever slows a
/// repetition; the traced run, which has two repetitions a side, compares
/// these.
pub fn near_best(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => percentile(values, 0.25),
        Better::Higher => percentile(values, 0.75),
    }
}

/// A per-repetition metric reduced for reporting: the near-best quartile
/// as the headline value, with min / median / max so the spread shows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise one value per repetition.
    pub fn of(values: &[f64]) -> Summary {
        Summary {
            value: median(values),
            min: percentile(values, 0.0),
            median: median(values),
            max: percentile(values, 1.0),
        }
    }

    /// A metric that has one value for the whole run (a count ratio,
    /// peak memory).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            min: value,
            median: value,
            max: value,
        }
    }
}

/// Median nanoseconds per call of `op`, over `batches` batches of `iters`
/// back-to-back calls. The caller keeps results alive through
/// `std::hint::black_box` inside `op`.
pub fn bench_ns(batches: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = std::time::Instant::now();
        for _ in 0..iters {
            op();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 0.25), 1.75);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn near_best_picks_the_good_side() {
        let v = [10.0, 11.0, 12.0, 13.0, 30.0];
        assert_eq!(near_best(&v, Better::Lower), 11.0);
        assert_eq!(near_best(&v, Better::Higher), 13.0);
        // One slow repetition moves the max, not the headline value.
        let s = Summary::of(&v);
        assert_eq!((s.value, s.min, s.median, s.max), (12.0, 10.0, 12.0, 30.0));
    }

    #[test]
    fn bench_ns_grows_with_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = x.wrapping_add(std::hint::black_box(i));
                }
                std::hint::black_box(x);
            }
        };
        let small = bench_ns(3, 50, spin(100));
        let large = bench_ns(3, 50, spin(10_000));
        assert!(large > small * 10.0, "small {small} large {large}");
    }
}
