//! Uniform sampling *without replacement* from a huge index range.
//!
//! The random baseline of the paper samples frames uniformly without
//! replacement from repositories of up to 16 million frames, but touches
//! only a tiny prefix of that permutation before the query's limit is hit.
//! A sparse Fisher–Yates using a hash map of displaced entries gives O(1)
//! time and O(draws) memory instead of materializing the permutation.

use crate::hash::FxHashMap;
use crate::rng::Rng64;

/// Lazily materialized uniform permutation of `0..n`.
///
/// Each call to [`UniformNoReplacement::next`] returns a previously unseen
/// index, uniformly at random among the remaining ones; after `n` draws the
/// sequence is exactly a uniform random permutation of `0..n`.
#[derive(Debug, Clone)]
pub struct UniformNoReplacement {
    /// Sparse array view: `swapped[i]` holds the value currently at
    /// position `i` if it differs from `i` itself.
    swapped: FxHashMap<u64, u64>,
    /// Number of indices not yet emitted.
    remaining: u64,
}

impl UniformNoReplacement {
    /// Sampler over the range `0..n`. `n == 0` yields an exhausted sampler.
    pub fn new(n: u64) -> Self {
        UniformNoReplacement {
            swapped: FxHashMap::default(),
            remaining: n,
        }
    }

    /// Number of indices not yet emitted.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Draw the next index, or `None` when exhausted.
    pub fn next(&mut self, rng: &mut Rng64) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        // Classic backward Fisher-Yates: pick j in [0, remaining), swap the
        // value at j with the value at remaining-1, shrink.
        let last = self.remaining - 1;
        let j = rng.u64_below(self.remaining);
        let value_at = |m: &FxHashMap<u64, u64>, idx: u64| *m.get(&idx).unwrap_or(&idx);
        let picked = value_at(&self.swapped, j);
        let tail = value_at(&self.swapped, last);
        self.swapped.insert(j, tail);
        self.swapped.remove(&last); // position `last` never consulted again
        self.remaining = last;
        Some(picked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_exact_permutation() {
        let mut s = UniformNoReplacement::new(1000);
        let mut rng = Rng64::new(40);
        let mut seen: Vec<u64> = Vec::new();
        while let Some(v) = s.next(&mut rng) {
            seen.push(v);
        }
        assert_eq!(seen.len(), 1000);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next(&mut rng), None);
    }

    #[test]
    fn zero_range_is_immediately_empty() {
        let mut s = UniformNoReplacement::new(0);
        let mut rng = Rng64::new(41);
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.next(&mut rng), None);
    }

    #[test]
    fn single_element() {
        let mut s = UniformNoReplacement::new(1);
        let mut rng = Rng64::new(42);
        assert_eq!(s.next(&mut rng), Some(0));
        assert_eq!(s.next(&mut rng), None);
    }

    #[test]
    fn first_draw_is_uniform() {
        // Chi-square-ish sanity: the distribution of the first draw over
        // a range of 8 should be flat.
        let mut counts = [0u32; 8];
        for seed in 0..40_000u64 {
            let mut s = UniformNoReplacement::new(8);
            let mut rng = Rng64::new(seed);
            counts[s.next(&mut rng).unwrap() as usize] += 1;
        }
        for &c in &counts {
            assert!((4_300..5_700).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn memory_stays_proportional_to_draws() {
        let mut s = UniformNoReplacement::new(u64::MAX / 2);
        let mut rng = Rng64::new(43);
        for _ in 0..1000 {
            s.next(&mut rng).unwrap();
        }
        // The map never holds more entries than draws taken.
        assert!(s.swapped.len() <= 1000);
        assert_eq!(s.remaining(), u64::MAX / 2 - 1000);
    }

    #[test]
    fn no_duplicates_on_partial_draws() {
        let mut s = UniformNoReplacement::new(1_000_000);
        let mut rng = Rng64::new(44);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50_000 {
            let v = s.next(&mut rng).unwrap();
            assert!(v < 1_000_000);
            assert!(seen.insert(v), "duplicate {v}");
        }
    }
}
