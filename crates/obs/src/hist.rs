//! Log-bucketed latency histograms with mergeable, wire-stable snapshots.
//!
//! [`LatencyHistogram`] is the live, concurrent accumulator: 64
//! power-of-two buckets of `AtomicU64`, where recording a value is two
//! relaxed atomic adds (bucket count + running sum) — no locks, no
//! allocation, no ordering constraints on the hot path. [`HistSnapshot`]
//! is the frozen value type used for merging across engines and shards,
//! quantile queries, and the bytewise-stable wire encoding.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per power of two of a `u64`, plus bucket 0
/// reserved for the exact value zero.
pub const BUCKETS: usize = 64;

/// Encoded byte length of a [`HistSnapshot`]: version byte, `sum`, and
/// [`BUCKETS`] counts, all little-endian `u64`.
pub const ENCODED_LEN: usize = 1 + 8 + BUCKETS * 8;

/// Version byte prefixed to every encoded snapshot.
const ENCODING_VERSION: u8 = 1;

/// Bucket index for a recorded value.
///
/// Bucket 0 holds exactly `0`; bucket `k` (for `1 <= k <= 62`) holds
/// `[2^(k-1), 2^k)`; bucket 63 saturates, holding everything from
/// `2^62` up to `u64::MAX`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket — the value quantiles report.
///
/// Bucket 0 reports `0`, bucket `k` reports `2^k - 1`, and the
/// saturating top bucket reports `u64::MAX`.
#[inline]
pub fn bucket_ceiling(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        k if k >= BUCKETS - 1 => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A concurrent log-bucketed histogram of `u64` observations
/// (conventionally nanoseconds).
///
/// All methods take `&self`; recording uses only relaxed atomics, so a
/// histogram shared via `Arc` across worker threads never serializes
/// them. Counts are approximate only in the sense that a `snapshot`
/// taken concurrently with recording may straddle in-flight updates —
/// each individual observation is never lost or double-counted.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// A new, empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            counts: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Two relaxed atomic adds; wait-free.
    #[inline]
    pub fn record(&self, value: u64) {
        // lint: allow(panic_audit, bucket_of clamps to BUCKETS-1 so the index is always in bounds)
        self.counts[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Fold another live histogram into this one (used when collapsing
    /// per-worker histograms). Bucket-aligned by construction — every
    /// `LatencyHistogram` shares the same power-of-two layout.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter().zip(&other.counts) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Freeze the current contents into a plain value.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = [0u64; BUCKETS];
        for (slot, count) in counts.iter_mut().zip(&self.counts) {
            *slot = count.load(Ordering::Relaxed);
        }
        HistSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: a plain value safe to merge, encode, ship over
/// the wire, and compare.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (see [`bucket_of`]).
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values (wrapping on overflow).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl std::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_struct("HistSnapshot");
        map.field("total", &self.total()).field("sum", &self.sum);
        for (i, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                map.field(&format!("le_{}", bucket_ceiling(i)), &c);
            }
        }
        map.finish()
    }
}

impl HistSnapshot {
    /// Total number of observations (saturating).
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Fold another snapshot into this one. Counts and sums saturate
    /// rather than wrap, so merging is associative and commutative even
    /// at the extremes.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `p`-quantile (`p` in `[0, 1]`, clamped) as the inclusive
    /// upper bound of the bucket holding the rank-`ceil(p·total)`
    /// observation. Monotone non-decreasing in `p`; `0` for an empty
    /// snapshot. Log bucketing bounds the relative error at 2x.
    pub fn quantile(&self, p: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_ceiling(i);
            }
        }
        u64::MAX
    }

    /// Encode to the stable wire form: a version byte, then `sum` and
    /// every bucket count as little-endian `u64`. Always
    /// [`ENCODED_LEN`] bytes; identical snapshots encode to identical
    /// bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENCODED_LEN);
        out.push(ENCODING_VERSION);
        out.extend_from_slice(&self.sum.to_le_bytes());
        for c in &self.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Decode an encoded snapshot. Rejects wrong lengths and unknown
    /// versions; `decode(encode(s)) == s` and re-encoding reproduces
    /// the input bytes exactly.
    pub fn decode(bytes: &[u8]) -> Result<HistSnapshot, SnapshotDecodeError> {
        if bytes.len() != ENCODED_LEN {
            return Err(SnapshotDecodeError::WrongLength {
                got: bytes.len(),
                want: ENCODED_LEN,
            });
        }
        // lint: allow(panic_audit, the ENCODED_LEN equality check above guarantees a non-empty slice)
        let version = bytes[0];
        if version != ENCODING_VERSION {
            return Err(SnapshotDecodeError::UnknownVersion(version));
        }
        let word = |i: usize| {
            let at = 1 + i * 8;
            // lint: allow(panic_audit, at+8 <= ENCODED_LEN for every i used below; length checked on entry)
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
        };
        let mut counts = [0u64; BUCKETS];
        for (i, slot) in counts.iter_mut().enumerate() {
            *slot = word(1 + i);
        }
        Ok(HistSnapshot {
            counts,
            sum: word(0),
        })
    }
}

/// Why an encoded snapshot failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The byte length was not [`ENCODED_LEN`].
    WrongLength {
        /// Length received.
        got: usize,
        /// Length required.
        want: usize,
    },
    /// The leading version byte was not recognised.
    UnknownVersion(u8),
}

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotDecodeError::WrongLength { got, want } => {
                write!(f, "encoded snapshot is {got} bytes, expected {want}")
            }
            SnapshotDecodeError::UnknownVersion(v) => {
                write!(f, "unknown snapshot encoding version {v}")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_of(1u64 << 62), 63);
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(10), 1023);
        assert_eq!(bucket_ceiling(63), u64::MAX);
        // Every value's bucket ceiling is >= the value (except the
        // saturating top bucket, whose ceiling is u64::MAX anyway).
        for v in [0u64, 1, 2, 7, 100, 1_000_000, u64::MAX] {
            assert!(bucket_ceiling(bucket_of(v)) >= v);
        }
    }

    #[test]
    fn record_and_quantiles() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1_000); // bucket 10, ceiling 1023
        }
        h.record(1_000_000); // bucket 20, ceiling 1_048_575
        let s = h.snapshot();
        assert_eq!(s.total(), 100);
        assert_eq!(s.sum, 99 * 1_000 + 1_000_000);
        assert_eq!(s.quantile(0.5), 1_023);
        assert_eq!(s.quantile(0.9), 1_023);
        assert_eq!(s.quantile(0.99), 1_023);
        assert_eq!(s.quantile(1.0), 1_048_575);
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(HistSnapshot::default().quantile(0.99), 0);
        assert!(HistSnapshot::default().is_empty());
    }

    #[test]
    fn live_merge_matches_snapshot_merge() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in [0u64, 3, 9, 1 << 40] {
            a.record(v);
        }
        for v in [5u64, 1 << 20, u64::MAX] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        a.merge(&b);
        assert_eq!(a.snapshot(), merged);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 1000, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let bytes = s.encode();
        assert_eq!(bytes.len(), ENCODED_LEN);
        let back = HistSnapshot::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decode_rejects_bad_input() {
        let bytes = HistSnapshot::default().encode();
        assert_eq!(
            HistSnapshot::decode(&bytes[..bytes.len() - 1]),
            Err(SnapshotDecodeError::WrongLength {
                got: ENCODED_LEN - 1,
                want: ENCODED_LEN
            })
        );
        let mut wrong = bytes.clone();
        wrong[0] = 9;
        assert_eq!(
            HistSnapshot::decode(&wrong),
            Err(SnapshotDecodeError::UnknownVersion(9))
        );
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * 4 + t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().total(), 40_000);
    }
}
