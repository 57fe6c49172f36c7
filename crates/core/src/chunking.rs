//! Temporal chunk partitions — the arms of the ExSample bandit.
//!
//! A [`Chunking`] splits the global frame range `0..frames` into `M`
//! contiguous chunks. The paper uses 20-minute chunks for long videos and
//! one chunk per clip for datasets of short clips; §IV-C studies how the
//! choice of `M` trades off skew exploitation against learning overhead.

use crate::FrameIdx;

/// A partition of `0..frames` into contiguous chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunking {
    /// Chunk boundaries: `bounds[j]..bounds[j+1]` is chunk `j`.
    bounds: Vec<u64>,
}

impl Chunking {
    /// Build from explicit boundaries (`bounds[0] == 0`, strictly
    /// increasing; the final entry is the total frame count).
    ///
    /// # Panics
    /// Panics on malformed boundaries.
    pub fn from_bounds(bounds: Vec<u64>) -> Self {
        assert!(bounds.len() >= 2, "need at least one chunk");
        assert_eq!(bounds[0], 0, "first boundary must be 0");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        Chunking { bounds }
    }

    /// One single chunk covering everything. With one chunk, ExSample
    /// degenerates to its within-chunk sampler (paper §IV-C).
    pub fn single(frames: u64) -> Self {
        Chunking::from_bounds(vec![0, frames])
    }

    /// Split `frames` into `m` chunks of near-equal size.
    ///
    /// # Panics
    /// Panics if `m == 0` or `m > frames`.
    pub fn even(frames: u64, m: usize) -> Self {
        assert!(m > 0, "need at least one chunk");
        assert!(m as u64 <= frames, "more chunks than frames");
        let mut bounds = Vec::with_capacity(m + 1);
        for j in 0..=m as u64 {
            bounds.push(j * frames / m as u64);
        }
        Chunking::from_bounds(bounds)
    }

    /// Number of chunks `M`.
    pub fn num_chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total frames covered.
    pub fn frames(&self) -> u64 {
        *self.bounds.last().expect("bounds never empty")
    }

    /// Frame range of chunk `j`.
    pub fn range(&self, j: usize) -> std::ops::Range<u64> {
        self.bounds[j]..self.bounds[j + 1]
    }

    /// Number of frames in chunk `j`.
    pub fn len(&self, j: usize) -> u64 {
        self.bounds[j + 1] - self.bounds[j]
    }

    /// Chunk containing frame `f` (binary search).
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn chunk_of(&self, f: FrameIdx) -> usize {
        assert!(f < self.frames(), "frame {f} out of range");
        self.bounds.partition_point(|&b| b <= f) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_chunking_covers_everything() {
        let c = Chunking::even(100, 7);
        assert_eq!(c.num_chunks(), 7);
        assert_eq!(c.frames(), 100);
        let total: u64 = (0..7).map(|j| c.len(j)).sum();
        assert_eq!(total, 100);
        let sizes: Vec<u64> = (0..7).map(|j| c.len(j)).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn chunk_of_agrees_with_ranges() {
        let c = Chunking::even(1000, 13);
        for f in 0..1000 {
            let j = c.chunk_of(f);
            assert!(c.range(j).contains(&f));
        }
    }

    #[test]
    fn chunk_of_boundary_frames() {
        let c = Chunking::from_bounds(vec![0, 10, 30, 35]);
        assert_eq!(c.chunk_of(0), 0);
        assert_eq!(c.chunk_of(9), 0);
        assert_eq!(c.chunk_of(10), 1);
        assert_eq!(c.chunk_of(29), 1);
        assert_eq!(c.chunk_of(30), 2);
        assert_eq!(c.chunk_of(34), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_of_rejects_past_end() {
        Chunking::single(5).chunk_of(5);
    }

    #[test]
    fn single_chunk() {
        let c = Chunking::single(42);
        assert_eq!(c.num_chunks(), 1);
        assert_eq!(c.range(0), 0..42);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_bounds() {
        Chunking::from_bounds(vec![0, 10, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "more chunks than frames")]
    fn rejects_more_chunks_than_frames() {
        Chunking::even(3, 4);
    }
}
