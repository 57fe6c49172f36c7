//! Byte-level encoding of the persisted artifacts.
//!
//! Two payload kinds live inside [`framing`](exsample_store::framing)
//! records (all integers little-endian, floats as IEEE-754 bit patterns).
//! The `le_record!` field lists below *are* the layouts, both directions
//! ([`exsample_store::le`]); a detection record is a `(repo, frame)` key
//! and a `Vec<Detection>`, spelled out by [`encode_detections`] and
//! `decode_detections_into` so a scan can decode into one buffer. This
//! diagram is their reading aid:
//!
//! ```text
//! detection record : repo u32 | frame u64 | count u32 | count × detection
//! detection        : x1 f32 | y1 f32 | x2 f32 | y2 f32
//!                  | class u16 | score f32 | truth_tag u8 [| truth u32]
//! belief snapshot  : repo u32 | class u16 | chunks u32
//!                  | chunks × (n1 f64-bits u64 | n u64)
//! ```
//!
//! `ChunkStats::n1` is stored as raw `f64` bits so a warm-started belief
//! is **bit-identical** to what the writer held — round-tripping through
//! decimal would silently perturb the Gamma posterior.

use exsample_core::belief::ChunkStats;
use exsample_detect::Detection;
use exsample_store::le::{self, Le, Reader};
use exsample_store::le_record;
use exsample_videosim::{BBox, ClassId, InstanceId};
use std::borrow::Cow;

/// Decode failure: the payload does not parse as the expected shape.
/// With checksums verified by the framing layer this indicates a writer
/// bug or version skew, not disk damage.
pub use exsample_store::le::Error as CodecError;

/// Format marker of this crate's on-disk layouts (see
/// [`exsample_store::le`]): every `le_record!(Disk: …)` in the crate —
/// log and snapshot payloads, catalog entries, the container's header,
/// index and box rows — is the byte layout of that type, both directions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Disk;

/// Full detector output for one frame of one repository.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Repository id (the engine's registration index).
    pub repo: u32,
    /// Frame index within the repository.
    pub frame: u64,
    /// All detections on the frame, every class.
    pub dets: Vec<Detection>,
}

/// Per-chunk belief statistics of one finished (or cancelled) search.
#[derive(Debug, Clone, PartialEq)]
pub struct BeliefSnapshot {
    /// Repository id.
    pub repo: u32,
    /// Queried class.
    pub class: u16,
    /// Per-chunk `(N1, n)` statistics, index = chunk id.
    pub stats: Vec<ChunkStats>,
}

impl BeliefSnapshot {
    /// The `(repo, class, chunks)` key this snapshot warm-starts.
    pub fn key(&self) -> (u32, u16, u32) {
        (self.repo, self.class, self.stats.len() as u32)
    }
}

le_record!(Disk: Detection { bbox, class, score, truth });
le_record!(Disk: BBox { x1, y1, x2, y2 });
le_record!(Disk: ClassId { 0 });
le_record!(Disk: InstanceId { 0 });
le_record!(Disk: BeliefSnapshot { repo, class, stats });
le_record!(Disk: ChunkStats { n1, n });

/// Encode one frame's detections into `out` (payload only — framing is the
/// caller's job): the `(repo, frame)` key, then the detections as a
/// `Vec`'s layout.
pub fn encode_detections(repo: u32, frame: u64, dets: &[Detection], out: &mut Vec<u8>) {
    Le::<Disk>::put(&(repo, frame), out);
    Le::<Disk>::put(&Cow::Borrowed(dets), out);
}

/// Decode a detection-record payload into `dets`, replacing what it
/// held, and return its `(repo, frame)` key. A log scan decodes every
/// record into one buffer this way.
pub(crate) fn decode_detections_into(
    payload: &[u8],
    dets: &mut Vec<Detection>,
) -> Result<(u32, u64), CodecError> {
    let mut r = Reader::new(payload);
    let key = Le::<Disk>::get(&mut r)?;
    dets.clear();
    for _ in 0..r.count(<Detection as Le<Disk>>::MIN)? {
        dets.push(Le::<Disk>::get(&mut r)?);
    }
    r.finish()?;
    Ok(key)
}

/// Decode a detection-record payload.
pub fn decode_detections(payload: &[u8]) -> Result<DetectionRecord, CodecError> {
    let mut dets = Vec::new();
    let (repo, frame) = decode_detections_into(payload, &mut dets)?;
    Ok(DetectionRecord { repo, frame, dets })
}

/// Encode a belief snapshot into `out` (payload only).
pub fn encode_beliefs(snap: &BeliefSnapshot, out: &mut Vec<u8>) {
    snap.put(out);
}

/// Decode a belief-snapshot payload.
pub fn decode_beliefs(payload: &[u8]) -> Result<BeliefSnapshot, CodecError> {
    le::decode::<Disk, _>(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(i: u32, truth: Option<u32>) -> Detection {
        Detection {
            bbox: BBox {
                x1: i as f32 * 0.5,
                y1: 1.25,
                x2: i as f32 + 10.0,
                y2: 42.0,
            },
            class: ClassId((i % 3) as u16),
            score: 0.875,
            truth: truth.map(InstanceId),
        }
    }

    #[test]
    fn detections_round_trip() {
        let dets = vec![det(0, Some(7)), det(1, None), det(2, Some(u32::MAX))];
        let mut buf = Vec::new();
        encode_detections(3, 99_999, &dets, &mut buf);
        let rec = decode_detections(&buf).unwrap();
        assert_eq!(rec.repo, 3);
        assert_eq!(rec.frame, 99_999);
        assert_eq!(rec.dets, dets);
    }

    #[test]
    fn decoding_into_a_buffer_replaces_its_contents() {
        let mut buf = Vec::new();
        encode_detections(4, 8, &[det(5, None)], &mut buf);
        let mut dets = vec![det(0, Some(7)), det(1, None)];
        assert_eq!(decode_detections_into(&buf, &mut dets), Ok((4, 8)));
        assert_eq!(dets, vec![det(5, None)]);
    }

    #[test]
    fn empty_frame_round_trips() {
        let mut buf = Vec::new();
        encode_detections(0, 0, &[], &mut buf);
        let rec = decode_detections(&buf).unwrap();
        assert!(rec.dets.is_empty());
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut buf = Vec::new();
        encode_detections(1, 2, &[det(0, Some(1))], &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_detections(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_detections(1, 2, &[], &mut buf);
        buf.push(0);
        assert_eq!(decode_detections(&buf), Err(CodecError("trailing bytes")));
    }

    #[test]
    fn absurd_count_rejected_without_allocation() {
        // A valid key, then a count of u32::MAX with nothing behind it.
        let mut buf = Vec::new();
        encode_detections(1, 2, &[], &mut buf);
        buf.truncate(buf.len() - 4);
        Le::<Disk>::put(&u32::MAX, &mut buf);
        assert_eq!(
            decode_detections(&buf),
            Err(CodecError("element count exceeds payload"))
        );
    }

    #[test]
    fn beliefs_round_trip_bit_identical() {
        // Include values that would not survive a decimal round trip.
        let snap = BeliefSnapshot {
            repo: 5,
            class: 2,
            stats: vec![
                ChunkStats { n1: 0.0, n: 0 },
                ChunkStats {
                    n1: 0.1 + 0.2, // 0.30000000000000004
                    n: u64::MAX,
                },
                ChunkStats { n1: -0.0, n: 17 },
            ],
        };
        let mut buf = Vec::new();
        encode_beliefs(&snap, &mut buf);
        let got = decode_beliefs(&buf).unwrap();
        assert_eq!(got.repo, snap.repo);
        assert_eq!(got.class, snap.class);
        assert_eq!(got.stats.len(), snap.stats.len());
        for (a, b) in got.stats.iter().zip(&snap.stats) {
            assert_eq!(a.n1.to_bits(), b.n1.to_bits());
            assert_eq!(a.n, b.n);
        }
        assert_eq!(got.key(), (5, 2, 3));
    }
}
