//! Shared on-disk framing conventions: magic/version headers and
//! CRC-checked records.
//!
//! The container format ([`crate::format`]) established this crate's
//! conventions — four-byte magic, little-endian integers, CRC-32 payload
//! checksums. Sibling crates that persist other artifacts (notably
//! `exsample-persist`'s detection log and belief snapshots) reuse the same
//! conventions through this module instead of re-inventing them:
//!
//! ```text
//! [ segment header ] magic [u8; 4] | version u16 | fingerprint u64
//! [ record         ] len u32 | crc32 u32 | payload bytes
//! [ record         ] ...
//! ```
//!
//! The `fingerprint` field identifies the configuration that produced the
//! segment (e.g. a detector version hash); readers skip whole segments
//! whose fingerprint does not match theirs. Records are self-delimiting
//! and individually checksummed, so a reader can salvage the valid prefix
//! of a segment whose tail was torn by a crash or flipped by bit rot.

use crate::crc::crc32;
use crate::le::{Le, Reader};
use crate::le_record;

/// Format marker of this crate's on-disk layouts (see [`crate::le`]).
#[derive(Debug, Clone, Copy)]
pub struct Disk;

/// Parsed segment header: what follows the magic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version of the segment body.
    pub version: u16,
    /// Fingerprint of the configuration that produced the segment.
    pub fingerprint: u64,
}
le_record!(Disk: SegmentHeader { version, fingerprint });

/// The first bytes of a segment.
struct Preamble {
    magic: [u8; 4],
    header: SegmentHeader,
}
le_record!(Disk: Preamble { magic, header });

/// The frame in front of every record payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}
le_record!(Disk: RecordHeader { len, crc });

/// Byte length of a segment header (magic + version + fingerprint).
pub const SEGMENT_HEADER_LEN: usize = <Preamble as Le<Disk>>::MIN;

/// Byte overhead of one record frame (length + checksum).
pub const RECORD_OVERHEAD: usize = <RecordHeader as Le<Disk>>::MIN;

/// Why a segment header was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer than [`SEGMENT_HEADER_LEN`] bytes.
    TooShort,
    /// The magic bytes did not match.
    BadMagic,
}

impl std::fmt::Display for HeaderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeaderError::TooShort => write!(f, "segment shorter than its header"),
            HeaderError::BadMagic => write!(f, "segment magic mismatch"),
        }
    }
}

impl std::error::Error for HeaderError {}

/// Append a segment header to `out`.
pub fn write_segment_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u16, fingerprint: u64) {
    let header = SegmentHeader {
        version,
        fingerprint,
    };
    Preamble {
        magic: *magic,
        header,
    }
    .put(out);
}

/// Parse a segment header, returning it and the remaining body bytes.
/// Version and fingerprint checks are the caller's policy (typically
/// "skip the segment, count it"), so both values are returned as read.
pub fn read_segment_header<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
) -> Result<(SegmentHeader, &'a [u8]), HeaderError> {
    let mut r = Reader::new(data);
    let preamble = Preamble::get(&mut r).map_err(|_| HeaderError::TooShort)?;
    if preamble.magic != *magic {
        return Err(HeaderError::BadMagic);
    }
    Ok((preamble.header, r.rest()))
}

/// Append one framed record (`len | crc32 | payload`) to `out`.
pub fn write_record(out: &mut Vec<u8>, payload: &[u8]) {
    RecordHeader {
        len: payload.len() as u32,
        crc: crc32(payload),
    }
    .put(out);
    out.extend_from_slice(payload);
}

/// One step of walking a segment body record by record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordStep<'a> {
    /// A complete, checksum-valid record, plus the bytes after it.
    Record {
        /// The record payload (checksum already verified).
        payload: &'a [u8],
        /// The remaining body after this record.
        rest: &'a [u8],
    },
    /// Clean end of the body: zero bytes left.
    End,
    /// A partial record at the tail — a torn write. Nothing after it is
    /// recoverable.
    Truncated,
    /// A record whose checksum failed — bit rot. Since the framing itself
    /// may be damaged, nothing after it is recoverable either.
    Corrupt,
}

/// Examine the next record of a segment body.
///
/// Walk a body by calling this in a loop, replacing the slice with `rest`
/// after each [`RecordStep::Record`]; stop on any other variant. The
/// distinction between [`RecordStep::Truncated`] and [`RecordStep::Corrupt`]
/// is diagnostic only — in both cases the valid prefix is all there is.
pub fn next_record(data: &[u8]) -> RecordStep<'_> {
    if data.is_empty() {
        return RecordStep::End;
    }
    let mut r = Reader::new(data);
    let Ok(header) = RecordHeader::get(&mut r) else {
        return RecordStep::Truncated;
    };
    let Ok(payload) = r.take(header.len as usize) else {
        return RecordStep::Truncated;
    };
    if crc32(payload) != header.crc {
        return RecordStep::Corrupt;
    }
    RecordStep::Record {
        payload,
        rest: r.rest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: &[u8; 4] = b"TEST";

    fn segment(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        write_segment_header(&mut out, MAGIC, 3, 0xFEED);
        for p in payloads {
            write_record(&mut out, p);
        }
        out
    }

    fn collect(mut body: &[u8]) -> (Vec<Vec<u8>>, RecordStep<'_>) {
        let mut records = Vec::new();
        loop {
            match next_record(body) {
                RecordStep::Record { payload, rest } => {
                    records.push(payload.to_vec());
                    body = rest;
                }
                stop => return (records, stop),
            }
        }
    }

    #[test]
    fn header_round_trip() {
        let seg = segment(&[]);
        let (hdr, body) = read_segment_header(&seg, MAGIC).unwrap();
        assert_eq!(hdr.version, 3);
        assert_eq!(hdr.fingerprint, 0xFEED);
        assert!(body.is_empty());
    }

    #[test]
    fn header_rejects_garbage() {
        assert_eq!(
            read_segment_header(b"TE", MAGIC),
            Err(HeaderError::TooShort)
        );
        let mut seg = segment(&[]);
        seg[0] ^= 0xFF;
        assert_eq!(read_segment_header(&seg, MAGIC), Err(HeaderError::BadMagic));
    }

    #[test]
    fn records_round_trip() {
        let seg = segment(&[b"alpha", b"", b"gamma-gamma"]);
        let (_, body) = read_segment_header(&seg, MAGIC).unwrap();
        let (records, stop) = collect(body);
        assert_eq!(
            records,
            vec![b"alpha".to_vec(), vec![], b"gamma-gamma".to_vec()]
        );
        assert_eq!(stop, RecordStep::End);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let seg = segment(&[b"first", b"second"]);
        let (_, body) = read_segment_header(&seg[..seg.len() - 3], MAGIC).unwrap();
        let (records, stop) = collect(body);
        assert_eq!(records, vec![b"first".to_vec()]);
        assert_eq!(stop, RecordStep::Truncated);
    }

    #[test]
    fn bit_flip_detected() {
        let mut seg = segment(&[b"first", b"second"]);
        let flip = seg.len() - 2; // inside the second record's payload
        seg[flip] ^= 0x10;
        let (_, body) = read_segment_header(&seg, MAGIC).unwrap();
        let (records, stop) = collect(body);
        assert_eq!(records, vec![b"first".to_vec()]);
        assert_eq!(stop, RecordStep::Corrupt);
    }

    #[test]
    fn absurd_length_is_corrupt_or_truncated() {
        let mut out = Vec::new();
        write_segment_header(&mut out, MAGIC, 1, 0);
        RecordHeader {
            len: u32::MAX,
            crc: 0,
        }
        .put(&mut out);
        out.extend_from_slice(b"short");
        let (_, body) = read_segment_header(&out, MAGIC).unwrap();
        assert!(matches!(
            next_record(body),
            RecordStep::Truncated | RecordStep::Corrupt
        ));
    }
}
