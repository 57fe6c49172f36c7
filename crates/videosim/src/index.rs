//! Bucketed interval index: "which instances are visible in frame f?"
//!
//! Every sampled frame in every experiment performs this stabbing query,
//! over repositories of up to 16 million frames and tens of thousands of
//! instances. The timeline is divided into fixed-width buckets; each
//! bucket stores the intervals overlapping it. A query inspects one bucket
//! and filters, giving O(bucket overlap) time with memory linear in the
//! total overlap (Σ duration / bucket_width + N).

use crate::FrameIdx;

/// Interval stabbing index over `[start, end)` spans keyed by a `u32` id.
#[derive(Debug, Clone)]
pub(crate) struct IntervalIndex {
    frames: u64,
    bucket_width: u64,
    /// CSR layout: `bucket_off[b]..bucket_off[b+1]` indexes into `entries`.
    bucket_off: Vec<u32>,
    /// (id, start, end) triples, grouped by bucket.
    entries: Vec<(u32, FrameIdx, FrameIdx)>,
    num_intervals: usize,
}

impl IntervalIndex {
    /// Build an index over `frames` total frames from `(id, start, end)`
    /// half-open intervals.
    ///
    /// # Panics
    /// Panics if an interval is empty or exceeds `frames`.
    pub(crate) fn build(
        frames: u64,
        intervals: impl Iterator<Item = (u32, FrameIdx, FrameIdx)>,
    ) -> Self {
        let items: Vec<(u32, FrameIdx, FrameIdx)> = intervals.collect();
        for &(id, s, e) in &items {
            assert!(s < e, "interval {id} is empty ({s}..{e})");
            assert!(
                e <= frames,
                "interval {id} exceeds dataset ({e} > {frames})"
            );
        }
        // Aim for ~1 overlap entry per interval on average: width near the
        // mean duration, clamped to keep bucket count reasonable.
        let mean_dur = if items.is_empty() {
            frames.max(1)
        } else {
            (items.iter().map(|&(_, s, e)| e - s).sum::<u64>() / items.len() as u64).max(1)
        };
        let max_buckets = 4 * items.len() as u64 + 64;
        let bucket_width = mean_dur.max(frames.max(1).div_ceil(max_buckets)).max(1);
        let n_buckets = (frames.max(1)).div_ceil(bucket_width) as usize;

        let bucket_of = |f: FrameIdx| (f / bucket_width) as usize;
        let mut counts = vec![0u32; n_buckets + 1];
        for &(_, s, e) in &items {
            for b in bucket_of(s)..=bucket_of(e - 1) {
                counts[b + 1] += 1;
            }
        }
        for b in 0..n_buckets {
            counts[b + 1] += counts[b];
        }
        let mut entries = vec![(0u32, 0u64, 0u64); counts[n_buckets] as usize];
        let mut cursor = counts.clone();
        for &(id, s, e) in &items {
            for b in bucket_of(s)..=bucket_of(e - 1) {
                entries[cursor[b] as usize] = (id, s, e);
                cursor[b] += 1;
            }
        }
        IntervalIndex {
            frames,
            bucket_width,
            bucket_off: counts,
            entries,
            num_intervals: items.len(),
        }
    }

    /// Number of indexed intervals.
    pub(crate) fn num_intervals(&self) -> usize {
        self.num_intervals
    }

    /// Visit the id of every interval containing frame `f`.
    #[inline]
    pub(crate) fn stab(&self, f: FrameIdx, mut visit: impl FnMut(u32)) {
        if f >= self.frames {
            return;
        }
        let b = (f / self.bucket_width) as usize;
        let lo = self.bucket_off[b] as usize;
        let hi = self.bucket_off[b + 1] as usize;
        for &(id, s, e) in &self.entries[lo..hi] {
            if f >= s && f < e {
                visit(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stab_vec(idx: &IntervalIndex, f: u64) -> Vec<u32> {
        let mut out = Vec::new();
        idx.stab(f, |id| out.push(id));
        out
    }

    fn naive_stab(items: &[(u32, u64, u64)], f: u64) -> Vec<u32> {
        let mut v: Vec<u32> = items
            .iter()
            .filter(|&&(_, s, e)| f >= s && f < e)
            .map(|&(id, _, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn stab_matches_naive_on_fixed_case() {
        let items = vec![(0u32, 0u64, 10u64), (1, 5, 15), (2, 14, 20), (3, 90, 100)];
        let idx = IntervalIndex::build(100, items.iter().copied());
        for f in 0..100 {
            let mut got = stab_vec(&idx, f);
            got.sort_unstable();
            assert_eq!(got, naive_stab(&items, f), "frame {f}");
        }
    }

    #[test]
    fn stab_out_of_range_is_empty() {
        let idx = IntervalIndex::build(50, vec![(0u32, 0u64, 50u64)].into_iter());
        assert!(stab_vec(&idx, 50).is_empty());
        assert!(stab_vec(&idx, 1000).is_empty());
    }

    #[test]
    fn empty_index() {
        let idx = IntervalIndex::build(1000, std::iter::empty());
        assert_eq!(idx.num_intervals(), 0);
        assert!(stab_vec(&idx, 5).is_empty());
    }

    #[test]
    fn single_frame_intervals() {
        let items: Vec<(u32, u64, u64)> = (0..10).map(|i| (i as u32, i * 10, i * 10 + 1)).collect();
        let idx = IntervalIndex::build(100, items.iter().copied());
        for i in 0..10u64 {
            assert_eq!(stab_vec(&idx, i * 10), vec![i as u32]);
            assert!(stab_vec(&idx, i * 10 + 1).is_empty());
        }
    }

    #[test]
    fn long_intervals_spanning_many_buckets() {
        // A single interval covering everything plus many short ones.
        let mut items = vec![(0u32, 0u64, 100_000u64)];
        for i in 1..200u32 {
            let s = (i as u64) * 500;
            items.push((i, s, s + 3));
        }
        let idx = IntervalIndex::build(100_000, items.iter().copied());
        for f in [0u64, 499, 500, 502, 503, 99_999] {
            let mut got = stab_vec(&idx, f);
            got.sort_unstable();
            assert_eq!(got, naive_stab(&items, f), "frame {f}");
        }
    }
}
