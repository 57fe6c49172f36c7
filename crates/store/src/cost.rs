//! Decode cost accounting: what a read does ([`GopWalk`]), what it
//! tallies ([`DecodeStats`]) and what that costs ([`CostModel`]).

use crate::format::{StoreError, FRAME_PREFIX_LEN};

/// Tally of physical work performed by container reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Random repositions (one per read that left the current GOP).
    pub seeks: u64,
    /// GOPs whose payload was fetched and checksummed.
    pub gops_fetched: u64,
    /// Frames decoded (includes keyframe-to-target walks).
    pub frames_decoded: u64,
    /// Frames actually returned to the caller.
    pub frames_returned: u64,
    /// Payload bytes fetched.
    pub bytes_fetched: u64,
}

impl DecodeStats {
    /// Fresh zeroed tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another tally into this one.
    pub fn merge(&mut self, other: &DecodeStats) {
        self.seeks += other.seeks;
        self.gops_fetched += other.gops_fetched;
        self.frames_decoded += other.frames_decoded;
        self.frames_returned += other.frames_returned;
        self.bytes_fetched += other.bytes_fetched;
    }

    /// Average frames decoded per frame returned — the random-access
    /// amplification factor (≈ GOP/2 for uniform random reads, 1.0 for
    /// sequential scans).
    pub fn decode_amplification(&self) -> f64 {
        if self.frames_returned == 0 {
            0.0
        } else {
            self.frames_decoded as f64 / self.frames_returned as f64
        }
    }
}

/// How a read of the GOP container moves a [`DecodeStats`] tally, holding
/// no bytes: a reader's place in its keyframe walk and nothing else.
///
/// A read of frame `f` lands in GOP `f / gop_size`. Leaving the cached GOP
/// charges a seek, a GOP fetch and the GOP's bytes; the keyframe walk then
/// resumes where it stopped — at the keyframe, after a seek — and decodes
/// every frame up to `f`; one frame is returned. A frame the walk already
/// passed costs only its return.
///
/// [`Container::read_frame`](crate::Container::read_frame) tallies through
/// one, verifying the fetched GOP's checksum between the charge and the
/// GOP becoming cached. On its own, [`GopWalk::read`] is the tally of a
/// container whose every payload is empty, each frame only its 4-byte
/// length prefix — the decode *cost* of a repository without its bytes.
#[derive(Debug, Clone)]
pub struct GopWalk {
    gop_size: u32,
    frame_count: u64,
    /// The GOP the walk is in, once a read has entered one.
    gop: Option<u32>,
    /// Frames of `gop` decoded so far, keyframe first.
    walked: usize,
}

impl GopWalk {
    /// A walk over `frame_count` frames with a keyframe every `gop_size`,
    /// in no GOP yet.
    ///
    /// # Panics
    /// Panics if `gop_size == 0`.
    pub fn new(gop_size: u32, frame_count: u64) -> Self {
        assert!(gop_size > 0, "gop_size must be positive");
        GopWalk {
            gop_size,
            frame_count,
            gop: None,
            walked: 0,
        }
    }

    /// Frames walked over.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Keyframe interval.
    pub fn gop_size(&self) -> u32 {
        self.gop_size
    }

    /// Tally one read of `frame` of the empty-payload container into
    /// `tally`: a GOP of `k` frames fetches `4k` bytes. Refuses what
    /// [`Container::read_frame`](crate::Container::read_frame) refuses for
    /// the same frame — one at or past the end — and then charges nothing.
    pub fn read(&mut self, frame: u64, tally: &mut DecodeStats) -> Result<(), StoreError> {
        let (gop_size, frame_count) = (self.gop_size as u64, self.frame_count);
        let fetch = |gop: u32| {
            let frames = (frame_count - gop as u64 * gop_size).min(gop_size);
            (frames * FRAME_PREFIX_LEN as u64, Ok(()))
        };
        self.read_with(frame, tally, fetch, |_, _| Ok(())).map(drop)
    }

    /// The one statement of a read. `fetch(gop)` runs when the read
    /// leaves the cached GOP, once the seek is charged: it returns the
    /// GOP's length in bytes, charged whatever follows, and `Err` when the
    /// GOP must not be cached — the walk then stays where it was.
    /// `decode(gop, i)` runs for each frame `i` of the GOP the walk newly
    /// reaches, in order; an `Err` stops the walk before frame `i`.
    /// Returns the frame's index within its GOP.
    ///
    /// Inlined into `Container::read_frame`: called out of line, the
    /// closures' state went through memory and a random read of the
    /// empty-payload container cost about 8 % more.
    #[inline]
    pub(crate) fn read_with(
        &mut self,
        frame: u64,
        tally: &mut DecodeStats,
        fetch: impl FnOnce(u32) -> (u64, Result<(), StoreError>),
        mut decode: impl FnMut(u32, usize) -> Result<(), StoreError>,
    ) -> Result<usize, StoreError> {
        if frame >= self.frame_count {
            return Err(StoreError::FrameOutOfRange {
                frame,
                total: self.frame_count,
            });
        }
        let gop = (frame / self.gop_size as u64) as u32;
        let within = (frame % self.gop_size as u64) as usize;
        if self.gop != Some(gop) {
            tally.seeks += 1;
            tally.gops_fetched += 1;
            let (bytes, verified) = fetch(gop);
            tally.bytes_fetched += bytes;
            verified?;
            self.gop = Some(gop);
            self.walked = 0;
        }
        while self.walked <= within {
            decode(gop, self.walked)?;
            self.walked += 1;
            tally.frames_decoded += 1;
        }
        tally.frames_returned += 1;
        Ok(within)
    }
}

/// Converts [`DecodeStats`] into seconds.
///
/// Defaults approximate the paper's measured environment: io+decode
/// throughput around 100 frames/s for sequential scoring scans, dominated
/// by per-frame decode, with an extra penalty per random seek.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Seconds per random seek (GOP locate + fetch start).
    pub seek_s: f64,
    /// Seconds to decode a single frame.
    pub frame_decode_s: f64,
    /// Seconds per byte fetched (storage bandwidth term).
    pub byte_fetch_s: f64,
    /// Fixed seconds of overhead per detector **dispatch** — the kernel
    /// launch, host↔device transfer, and framework round-trip a real GPU
    /// pays once per submitted batch, not once per frame (ExSample
    /// §III-F). Per-frame stepping pays it on every cache miss; batched
    /// stepping (`exsample-engine`'s `EngineConfig::batch` /
    /// `QuerySpec::batch`) pays it once per batch of misses, which is
    /// exactly the amortization batching exists to buy. Defaults to 0 so
    /// dispatch overhead is only modelled when explicitly enabled and
    /// existing cost accounting is unchanged.
    pub dispatch_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // 100 fps sequential decode => 0.01 s/frame; seeks ~2 ms; a spinning
        // disk or object store would raise `seek_s`.
        CostModel {
            seek_s: 0.002,
            frame_decode_s: 0.01,
            byte_fetch_s: 0.0,
            dispatch_s: 0.0,
        }
    }
}

impl CostModel {
    /// Total io/decode seconds implied by a tally. Dispatch overhead is
    /// per detector dispatch, not per decode, so it is charged separately
    /// via [`CostModel::dispatch_seconds`].
    pub fn seconds(&self, stats: &DecodeStats) -> f64 {
        stats.seeks as f64 * self.seek_s
            + stats.frames_decoded as f64 * self.frame_decode_s
            + stats.bytes_fetched as f64 * self.byte_fetch_s
    }

    /// Overhead seconds for `dispatches` detector dispatches.
    pub fn dispatch_seconds(&self, dispatches: u64) -> f64 {
        dispatches as f64 * self.dispatch_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = DecodeStats {
            seeks: 1,
            gops_fetched: 2,
            frames_decoded: 10,
            frames_returned: 3,
            bytes_fetched: 100,
        };
        let b = DecodeStats {
            seeks: 2,
            gops_fetched: 1,
            frames_decoded: 5,
            frames_returned: 5,
            bytes_fetched: 50,
        };
        a.merge(&b);
        assert_eq!(a.seeks, 3);
        assert_eq!(a.gops_fetched, 3);
        assert_eq!(a.frames_decoded, 15);
        assert_eq!(a.frames_returned, 8);
        assert_eq!(a.bytes_fetched, 150);
    }

    #[test]
    fn amplification() {
        let s = DecodeStats {
            frames_decoded: 30,
            frames_returned: 3,
            ..Default::default()
        };
        assert!((s.decode_amplification() - 10.0).abs() < 1e-12);
        assert_eq!(DecodeStats::default().decode_amplification(), 0.0);
    }

    #[test]
    fn seconds_formula() {
        let m = CostModel {
            seek_s: 1.0,
            frame_decode_s: 0.1,
            byte_fetch_s: 0.001,
            dispatch_s: 0.0,
        };
        let s = DecodeStats {
            seeks: 2,
            frames_decoded: 10,
            bytes_fetched: 1000,
            ..Default::default()
        };
        assert!((m.seconds(&s) - (2.0 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn dispatch_overhead_is_per_dispatch_not_per_frame() {
        let m = CostModel {
            dispatch_s: 0.02,
            ..CostModel::default()
        };
        // 64 frames as one batch vs 64 individual dispatches.
        assert!((m.dispatch_seconds(1) - 0.02).abs() < 1e-12);
        assert!((m.dispatch_seconds(64) - 1.28).abs() < 1e-12);
        // Defaults charge nothing: existing accounting is unchanged.
        assert_eq!(CostModel::default().dispatch_seconds(1_000), 0.0);
    }

    #[test]
    fn default_model_is_100fps_sequential() {
        let m = CostModel::default();
        let s = DecodeStats {
            frames_decoded: 100,
            frames_returned: 100,
            ..Default::default()
        };
        assert!((m.seconds(&s) - 1.0).abs() < 1e-9);
    }
}
