//! The container format: writer, index, and random-access reader.
//!
//! Layout (all integers little-endian). The `Header`, `GopEntry` and
//! `Trailer` field lists below *are* the layout ([`crate::le`]); this
//! diagram only places them in the file:
//!
//! ```text
//! [ header  ] magic "XSVC" | version u16 | gop_size u32 | frame_count u64
//! [ payload ] GOP 0 bytes | GOP 1 bytes | ...
//! [ index   ] per GOP: offset u64 | len u32 | crc32 u32 | first_frame u64
//! [ trailer ] index_offset u64 | gop_count u32 | magic "XSVI"
//! ```
//!
//! Within a GOP each frame is `len u32 | bytes`. Only the first frame of a
//! GOP is a keyframe: decoding frame `f` walks from the keyframe to `f`,
//! which is exactly the cost structure of inter-coded video.

use crate::cost::DecodeStats;
use crate::crc::crc32;
use crate::framing::Disk;
use crate::le::{put_bytes, Le, Reader};
use crate::le_record;
use bytes::Bytes;
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"XSVC";
const INDEX_MAGIC: [u8; 4] = *b"XSVI";
const VERSION: u16 = 1;

struct Header {
    magic: [u8; 4],
    version: u16,
    gop_size: u32,
    frame_count: u64,
}
le_record!(Disk: Header { magic, version, gop_size, frame_count });

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GopEntry {
    offset: u64,
    len: u32,
    crc: u32,
    first_frame: u64,
}
le_record!(Disk: GopEntry { offset, len, crc, first_frame });

struct Trailer {
    index_offset: u64,
    gop_count: u32,
    magic: [u8; 4],
}
le_record!(Disk: Trailer { index_offset, gop_count, magic });

const HEADER_LEN: usize = <Header as Le<Disk>>::MIN;
const TRAILER_LEN: usize = <Trailer as Le<Disk>>::MIN;
const INDEX_ENTRY_LEN: usize = <GopEntry as Le<Disk>>::MIN;
/// The `len u32` in front of each frame inside a GOP.
const FRAME_PREFIX_LEN: usize = <u32 as Le<Disk>>::MIN;

/// Errors produced while opening or reading a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The byte stream is not a container or is truncated.
    Malformed(&'static str),
    /// The container version is not supported.
    UnsupportedVersion(u16),
    /// A GOP payload failed its checksum.
    CorruptGop {
        /// Index of the corrupted GOP.
        gop: u32,
    },
    /// Requested frame does not exist.
    FrameOutOfRange {
        /// Requested frame index.
        frame: u64,
        /// Total frames available.
        total: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Malformed(what) => write!(f, "malformed container: {what}"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            StoreError::CorruptGop { gop } => write!(f, "GOP {gop} failed checksum"),
            StoreError::FrameOutOfRange { frame, total } => {
                write!(f, "frame {frame} out of range (total {total})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Streaming writer: push frame payloads, obtain the finished container.
#[derive(Debug)]
pub struct ContainerWriter {
    gop_size: u32,
    payload: Vec<u8>,
    current_gop: Vec<u8>,
    frames_in_gop: u32,
    frame_count: u64,
    index: Vec<GopEntry>,
}

impl ContainerWriter {
    /// New writer producing keyframes every `gop_size` frames (the paper
    /// re-encodes with `gop_size = 20`).
    ///
    /// # Panics
    /// Panics if `gop_size == 0`.
    pub fn new(gop_size: u32) -> Self {
        assert!(gop_size > 0, "gop_size must be positive");
        ContainerWriter {
            gop_size,
            payload: Vec::new(),
            current_gop: Vec::new(),
            frames_in_gop: 0,
            frame_count: 0,
            index: Vec::new(),
        }
    }

    /// Append one frame payload.
    pub fn push_frame(&mut self, data: &[u8]) {
        put_bytes(data, &mut self.current_gop);
        self.frames_in_gop += 1;
        self.frame_count += 1;
        if self.frames_in_gop == self.gop_size {
            self.flush_gop();
        }
    }

    fn flush_gop(&mut self) {
        if self.frames_in_gop == 0 {
            return;
        }
        let first_frame = self.frame_count - self.frames_in_gop as u64;
        let gop = std::mem::take(&mut self.current_gop);
        self.index.push(GopEntry {
            offset: self.payload.len() as u64,
            len: gop.len() as u32,
            crc: crc32(&gop),
            first_frame,
        });
        self.payload.extend_from_slice(&gop);
        self.frames_in_gop = 0;
    }

    /// Number of frames pushed so far.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Finish the container and return its bytes.
    pub fn finish(mut self) -> Bytes {
        self.flush_gop();
        let mut out = Vec::with_capacity(
            HEADER_LEN + self.payload.len() + self.index.len() * INDEX_ENTRY_LEN + TRAILER_LEN,
        );
        Header {
            magic: MAGIC,
            version: VERSION,
            gop_size: self.gop_size,
            frame_count: self.frame_count,
        }
        .put(&mut out);
        out.extend_from_slice(&self.payload);
        let index_offset = out.len() as u64;
        for e in &self.index {
            e.put(&mut out);
        }
        Trailer {
            index_offset,
            gop_count: self.index.len() as u32,
            magic: INDEX_MAGIC,
        }
        .put(&mut out);
        Bytes::from(out)
    }
}

/// Random-access reader over a finished container.
///
/// Reads validate GOP checksums on first touch and account decode work in
/// a [`DecodeStats`] tally. The most recently decoded GOP stays cached, so
/// sequential access decodes each frame exactly once.
///
/// The bytes and the parsed GOP index are shared between a container and
/// the readers handed out by [`Container::reader`]; the GOP cache and the
/// tally are each reader's own.
#[derive(Debug)]
pub struct Container {
    data: Bytes,
    gop_size: u32,
    frame_count: u64,
    index: Arc<[GopEntry]>,
    /// (gop index, decoded frame payloads) of the last touched GOP.
    cache: Option<(u32, Vec<Bytes>)>,
    stats: DecodeStats,
}

impl Container {
    /// Parse a container from bytes (payload is validated lazily, the
    /// header/index eagerly).
    pub fn open(data: Bytes) -> Result<Self, StoreError> {
        if data.len() < HEADER_LEN + TRAILER_LEN {
            return Err(StoreError::Malformed("too short"));
        }
        let (head, trailer) = data.split_at(data.len() - TRAILER_LEN);
        let header =
            Header::get(&mut Reader::new(head)).map_err(|_| StoreError::Malformed("too short"))?;
        if header.magic != MAGIC {
            return Err(StoreError::Malformed("bad magic"));
        }
        if header.version != VERSION {
            return Err(StoreError::UnsupportedVersion(header.version));
        }
        let (gop_size, frame_count) = (header.gop_size, header.frame_count);
        if gop_size == 0 {
            return Err(StoreError::Malformed("zero gop size"));
        }

        let trailer = Trailer::get(&mut Reader::new(trailer))
            .map_err(|_| StoreError::Malformed("too short"))?;
        if trailer.magic != INDEX_MAGIC {
            return Err(StoreError::Malformed("bad index magic"));
        }
        let index_offset = trailer.index_offset as usize;
        let gop_count = trailer.gop_count as usize;
        let index_end = index_offset
            .checked_add(gop_count * INDEX_ENTRY_LEN)
            .ok_or(StoreError::Malformed("index overflow"))?;
        if index_end + TRAILER_LEN != data.len() || index_offset < HEADER_LEN {
            return Err(StoreError::Malformed("index bounds"));
        }
        let mut entries = Reader::new(&data[index_offset..index_end]);
        let mut index = Vec::with_capacity(gop_count);
        for _ in 0..gop_count {
            let e =
                GopEntry::get(&mut entries).map_err(|_| StoreError::Malformed("index bounds"))?;
            let end = HEADER_LEN as u64 + e.offset + e.len as u64;
            if end as usize > index_offset {
                return Err(StoreError::Malformed("gop bounds"));
            }
            index.push(e);
        }
        Ok(Container {
            data,
            gop_size,
            frame_count,
            index: index.into(),
            cache: None,
            stats: DecodeStats::new(),
        })
    }

    /// Another reader over the same container: an empty GOP cache and a
    /// zeroed tally of its own, the bytes and the index shared. Costs two
    /// reference-count increments where [`Container::open`] parses and
    /// validates the whole index again.
    pub fn reader(&self) -> Container {
        Container {
            data: self.data.clone(),
            gop_size: self.gop_size,
            frame_count: self.frame_count,
            index: Arc::clone(&self.index),
            cache: None,
            stats: DecodeStats::new(),
        }
    }

    /// Frames stored.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Configured GOP size.
    pub fn gop_size(&self) -> u32 {
        self.gop_size
    }

    /// Number of GOPs.
    pub fn gop_count(&self) -> usize {
        self.index.len()
    }

    /// Accumulated decode statistics.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Reset the decode tally (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = DecodeStats::new();
    }

    /// Read one frame, paying keyframe-walk decode costs.
    pub fn read_frame(&mut self, frame: u64) -> Result<Bytes, StoreError> {
        if frame >= self.frame_count {
            return Err(StoreError::FrameOutOfRange {
                frame,
                total: self.frame_count,
            });
        }
        let gop = (frame / self.gop_size as u64) as u32;
        let within = (frame % self.gop_size as u64) as usize;
        let cached = matches!(&self.cache, Some((g, _)) if *g == gop);
        if !cached {
            self.decode_gop_prefix(gop, within)?;
        }
        let (_, frames) = self.cache.as_ref().expect("cache populated above");
        // A re-read of a later frame from a partially decoded GOP may need
        // to extend the decode walk.
        if within >= frames.len() {
            self.extend_gop_decode(gop, within)?;
        }
        let (_, frames) = self.cache.as_ref().expect("cache populated above");
        self.stats.frames_returned += 1;
        Ok(frames[within].clone())
    }

    /// Fetch GOP payload, verify checksum, decode frames `0..=upto`.
    fn decode_gop_prefix(&mut self, gop: u32, upto: usize) -> Result<(), StoreError> {
        let e = self.index[gop as usize];
        self.stats.seeks += 1;
        self.stats.gops_fetched += 1;
        self.stats.bytes_fetched += e.len as u64;
        let start = HEADER_LEN + e.offset as usize;
        let payload = self.data.slice(start..start + e.len as usize);
        if crc32(&payload) != e.crc {
            return Err(StoreError::CorruptGop { gop });
        }
        self.cache = Some((gop, Vec::new()));
        self.extend_gop_decode_inner(gop, upto, payload)
    }

    fn extend_gop_decode(&mut self, gop: u32, upto: usize) -> Result<(), StoreError> {
        let e = self.index[gop as usize];
        let start = HEADER_LEN + e.offset as usize;
        let payload = self.data.slice(start..start + e.len as usize);
        self.extend_gop_decode_inner(gop, upto, payload)
    }

    fn extend_gop_decode_inner(
        &mut self,
        gop: u32,
        upto: usize,
        payload: Bytes,
    ) -> Result<(), StoreError> {
        let (g, frames) = self.cache.as_mut().expect("cache set by caller");
        debug_assert_eq!(*g, gop);
        // Re-walk the length-prefixed frame records from where we stopped.
        let mut off = frames
            .iter()
            .map(|f| FRAME_PREFIX_LEN + f.len())
            .sum::<usize>();
        while frames.len() <= upto {
            let mut r = Reader::new(payload.get(off..).unwrap_or_default());
            let len =
                r.u32()
                    .map_err(|_| StoreError::Malformed("truncated gop"))? as usize;
            r.take(len)
                .map_err(|_| StoreError::Malformed("truncated frame"))?;
            off += FRAME_PREFIX_LEN;
            frames.push(payload.slice(off..off + len));
            off += len;
            self.stats.frames_decoded += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_payload(i: u64) -> Vec<u8> {
        // Variable-length, content derived from the index.
        let len = 10 + (i % 23) as usize;
        (0..len)
            .map(|j| ((i as usize * 31 + j) % 251) as u8)
            .collect()
    }

    fn build(frames: u64, gop: u32) -> Container {
        let mut w = ContainerWriter::new(gop);
        for i in 0..frames {
            w.push_frame(&frame_payload(i));
        }
        Container::open(w.finish()).expect("valid container")
    }

    #[test]
    fn round_trip_all_frames() {
        let mut c = build(103, 20);
        assert_eq!(c.frame_count(), 103);
        assert_eq!(c.gop_count(), 6); // 5 full GOPs + partial
        for i in 0..103 {
            assert_eq!(
                c.read_frame(i).unwrap().as_ref(),
                frame_payload(i).as_slice()
            );
        }
    }

    #[test]
    fn out_of_range_read() {
        let mut c = build(10, 4);
        assert_eq!(
            c.read_frame(10),
            Err(StoreError::FrameOutOfRange {
                frame: 10,
                total: 10
            })
        );
    }

    #[test]
    fn empty_container() {
        let c = Container::open(ContainerWriter::new(8).finish()).unwrap();
        assert_eq!(c.frame_count(), 0);
        assert_eq!(c.gop_count(), 0);
    }

    #[test]
    fn sequential_read_decodes_each_frame_once() {
        let mut c = build(100, 20);
        for i in 0..100 {
            c.read_frame(i).unwrap();
        }
        assert_eq!(c.stats().frames_decoded, 100);
        assert_eq!(c.stats().frames_returned, 100);
        assert_eq!(c.stats().seeks, 5); // one per GOP
        assert!((c.stats().decode_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_read_pays_keyframe_walk() {
        let mut c = build(100, 20);
        // Last frame of GOP 2 requires decoding 20 frames.
        c.read_frame(59).unwrap();
        assert_eq!(c.stats().frames_decoded, 20);
        assert_eq!(c.stats().frames_returned, 1);
        assert_eq!(c.stats().seeks, 1);
    }

    #[test]
    fn rereading_cached_gop_is_free() {
        let mut c = build(100, 20);
        c.read_frame(45).unwrap();
        let decoded = c.stats().frames_decoded;
        c.read_frame(41).unwrap(); // earlier in same GOP: already decoded
        assert_eq!(c.stats().frames_decoded, decoded);
        c.read_frame(47).unwrap(); // later: extends the walk, no new seek
        assert_eq!(c.stats().frames_decoded, decoded + 2);
        assert_eq!(c.stats().seeks, 1);
    }

    #[test]
    fn readers_share_the_index_but_not_cache_or_tally() {
        let mut opened = build(100, 20);
        opened.read_frame(59).unwrap();
        let mut reader = opened.reader();
        assert_eq!(reader.frame_count(), 100);
        assert_eq!(reader.gop_count(), 5);
        assert!(Arc::ptr_eq(&opened.index, &reader.index));
        // A fresh tally, and no inherited GOP cache: frame 59 costs the
        // full keyframe walk again.
        assert_eq!(reader.stats().frames_returned, 0);
        assert_eq!(
            reader.read_frame(59).unwrap().as_ref(),
            frame_payload(59).as_slice()
        );
        assert_eq!(reader.stats().frames_decoded, 20);
        assert_eq!(reader.stats().seeks, 1);
        // ... and the reader's work is not charged to the container it
        // came from.
        assert_eq!(opened.stats().frames_returned, 1);
        assert_eq!(opened.stats().seeks, 1);
    }

    #[test]
    fn corruption_detected() {
        let mut w = ContainerWriter::new(4);
        for i in 0..8 {
            w.push_frame(&frame_payload(i));
        }
        let bytes = w.finish();
        let mut raw = bytes.to_vec();
        raw[HEADER_LEN + 2] ^= 0xFF; // flip a payload byte in GOP 0
        let mut c = Container::open(Bytes::from(raw)).unwrap();
        assert_eq!(c.read_frame(0), Err(StoreError::CorruptGop { gop: 0 }));
        // Other GOPs unaffected.
        assert!(c.read_frame(6).is_ok());
    }

    #[test]
    fn open_rejects_garbage() {
        assert!(Container::open(Bytes::from_static(b"not a container")).is_err());
        let mut valid = build(4, 2);
        let _ = valid.read_frame(0);
        let mut truncated = ContainerWriter::new(2);
        truncated.push_frame(b"abc");
        let bytes = truncated.finish().to_vec();
        assert!(Container::open(Bytes::from(bytes[..bytes.len() - 3].to_vec())).is_err());
    }

    #[test]
    fn gop_size_one_means_all_keyframes() {
        let mut c = build(30, 1);
        for i in [29u64, 3, 17, 0] {
            c.read_frame(i).unwrap();
        }
        // Every read decodes exactly one frame.
        assert_eq!(c.stats().frames_decoded, 4);
        assert_eq!(c.stats().seeks, 4);
    }

    #[test]
    fn zero_length_frames_round_trip() {
        let mut w = ContainerWriter::new(3);
        w.push_frame(b"");
        w.push_frame(b"x");
        w.push_frame(b"");
        let mut c = Container::open(w.finish()).unwrap();
        assert_eq!(c.read_frame(0).unwrap().len(), 0);
        assert_eq!(c.read_frame(1).unwrap().as_ref(), b"x");
        assert_eq!(c.read_frame(2).unwrap().len(), 0);
    }
}
