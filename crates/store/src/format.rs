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
//!
//! Offsets in the index are relative to the end of the header; each
//! `crc32` covers one GOP's bytes, prefixes included. Header and trailer
//! carry no checksum of their own, so [`Container::open`] cross-checks
//! them against the index instead.
//!
//! The file is built and read where it lies. [`ContainerWriter`] appends
//! each frame to the one buffer that becomes the file;
//! [`Container::read_frame`] returns a slice of the one buffer every
//! reader of the container shares.

use crate::cost::{DecodeStats, GopWalk};
use crate::crc::crc32;
use crate::framing::Disk;
use crate::le::{put_bytes, Le, Reader};
use crate::le_record;
use std::ops::Range;
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
pub(crate) const FRAME_PREFIX_LEN: usize = <u32 as Le<Disk>>::MIN;

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
///
/// The writer holds the file itself, in place: one buffer that starts as
/// the header's reserved bytes and grows by each length-prefixed frame.
/// Sealing a GOP checksums the bytes already there and notes one index
/// entry; [`finish`](ContainerWriter::finish) fills the header in, appends
/// index and trailer and hands the buffer over. No frame is copied after
/// `push_frame` wrote it.
#[derive(Debug)]
pub struct ContainerWriter {
    gop_size: u32,
    /// The file so far: reserved header, then every frame pushed.
    out: Vec<u8>,
    /// Where the unsealed GOP begins in `out`.
    gop_start: usize,
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
            out: vec![0; HEADER_LEN],
            gop_start: HEADER_LEN,
            frames_in_gop: 0,
            frame_count: 0,
            index: Vec::new(),
        }
    }

    /// Append one frame payload.
    pub fn push_frame(&mut self, data: &[u8]) {
        put_bytes(data, &mut self.out);
        self.frames_in_gop += 1;
        self.frame_count += 1;
        if self.frames_in_gop == self.gop_size {
            self.seal_gop();
        }
    }

    fn seal_gop(&mut self) {
        if self.frames_in_gop == 0 {
            return;
        }
        let gop = &self.out[self.gop_start..];
        self.index.push(GopEntry {
            offset: (self.gop_start - HEADER_LEN) as u64,
            len: gop.len() as u32,
            crc: crc32(gop),
            first_frame: self.frame_count - self.frames_in_gop as u64,
        });
        self.gop_start = self.out.len();
        self.frames_in_gop = 0;
    }

    /// Number of frames pushed so far.
    pub fn frame_count(&self) -> u64 {
        self.frame_count
    }

    /// Finish the container and return its bytes, ready for
    /// [`Container::open`].
    pub fn finish(mut self) -> Vec<u8> {
        self.seal_gop();
        let mut header = Vec::with_capacity(HEADER_LEN);
        Header {
            magic: MAGIC,
            version: VERSION,
            gop_size: self.gop_size,
            frame_count: self.frame_count,
        }
        .put(&mut header);
        self.out[..HEADER_LEN].copy_from_slice(&header);

        let index_offset = self.out.len() as u64;
        // Grow once and exactly: fitting the index must not double a
        // repository-sized buffer.
        self.out
            .reserve_exact(self.index.len() * INDEX_ENTRY_LEN + TRAILER_LEN);
        for e in &self.index {
            e.put(&mut self.out);
        }
        Trailer {
            index_offset,
            gop_count: self.index.len() as u32,
            magic: INDEX_MAGIC,
        }
        .put(&mut self.out);
        self.out
    }
}

/// One GOP's place in the file, as [`Container::open`] checked it:
/// `start..end` lies inside the payload region.
#[derive(Debug, Clone, Copy)]
struct Gop {
    start: usize,
    end: usize,
    crc: u32,
}

/// What a container and every reader taken from it share.
#[derive(Debug)]
struct Shared {
    data: Vec<u8>,
    /// One entry per `gop_size` frames, in frame order.
    gops: Vec<Gop>,
}

/// Random-access reader over a finished container.
///
/// Reads validate GOP checksums on first touch and account decode work in
/// a [`DecodeStats`] tally, through a [`GopWalk`]. The most recently
/// decoded GOP stays cached, so sequential access decodes each frame
/// exactly once. What is cached is not bytes: it is the walk's place in
/// the one verified GOP and the extent of each of its frames the walk has
/// reached, in a `Vec` reused from GOP to GOP.
///
/// The bytes and the checked GOP index are shared between a container and
/// the readers handed out by [`Container::reader`]; the GOP cache and the
/// tally are each reader's own. Sharing is one reference count, touched
/// by `reader()` and by drop and never by a read.
#[derive(Debug)]
pub struct Container {
    shared: Arc<Shared>,
    /// Which GOP this reader verified last, and how far into it it has
    /// decoded.
    walk: GopWalk,
    /// Where in `shared.data` each frame `walk` has decoded lies,
    /// keyframe first: one entry per frame walked.
    frames: Vec<Range<usize>>,
    stats: DecodeStats,
}

impl Container {
    /// Parse a container from bytes. The payload is validated lazily
    /// (each GOP's checksum on first touch); header, trailer and index are
    /// validated here, completely: magic and version, a non-zero GOP
    /// size, the index lying exactly between payload and trailer, one
    /// index entry per `gop_size` frames of `frame_count` with entry `i`
    /// starting at frame `i * gop_size`, and every GOP extent inside the
    /// payload region under checked arithmetic. A file that passes cannot
    /// make [`read_frame`](Container::read_frame) index out of bounds —
    /// the header is covered by no checksum, so this is what stands
    /// between a flipped `frame_count` bit and a panic.
    pub fn open(data: Vec<u8>) -> Result<Self, StoreError> {
        let payload_end = data
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|&end| end >= HEADER_LEN)
            .ok_or(StoreError::Malformed("too short"))?;
        let (head, trailer) = data.split_at(payload_end);
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
        if trailer.gop_count as u64 != frame_count.div_ceil(gop_size as u64) {
            return Err(StoreError::Malformed("gop count contradicts frame count"));
        }
        let gop_count = trailer.gop_count as usize;
        let index_offset = usize::try_from(trailer.index_offset)
            .ok()
            .filter(|&at| at >= HEADER_LEN)
            .ok_or(StoreError::Malformed("index bounds"))?;
        let index_end = gop_count
            .checked_mul(INDEX_ENTRY_LEN)
            .and_then(|len| index_offset.checked_add(len));
        if index_end != Some(payload_end) {
            return Err(StoreError::Malformed("index bounds"));
        }

        let mut entries = Reader::new(&data[index_offset..payload_end]);
        let mut gops = Vec::with_capacity(gop_count);
        for i in 0..gop_count as u64 {
            let e =
                GopEntry::get(&mut entries).map_err(|_| StoreError::Malformed("index bounds"))?;
            if e.first_frame != i * gop_size as u64 {
                return Err(StoreError::Malformed("gop first frame"));
            }
            let extent = usize::try_from(e.offset)
                .ok()
                .and_then(|offset| offset.checked_add(HEADER_LEN))
                .and_then(|start| Some(start..start.checked_add(e.len as usize)?))
                .filter(|extent| extent.end <= index_offset)
                .ok_or(StoreError::Malformed("gop bounds"))?;
            gops.push(Gop {
                start: extent.start,
                end: extent.end,
                crc: e.crc,
            });
        }
        Ok(Container {
            shared: Arc::new(Shared { data, gops }),
            walk: GopWalk::new(gop_size, frame_count),
            frames: Vec::new(),
            stats: DecodeStats::new(),
        })
    }

    /// Another reader over the same container: an empty GOP cache and a
    /// zeroed tally of its own, the bytes and the index shared. Costs one
    /// reference-count increment where [`Container::open`] parses and
    /// validates the whole index again.
    pub fn reader(&self) -> Container {
        Container {
            shared: Arc::clone(&self.shared),
            walk: GopWalk::new(self.gop_size(), self.frame_count()),
            frames: Vec::new(),
            stats: DecodeStats::new(),
        }
    }

    /// Frames stored.
    pub fn frame_count(&self) -> u64 {
        self.walk.frame_count()
    }

    /// Configured GOP size.
    pub fn gop_size(&self) -> u32 {
        self.walk.gop_size()
    }

    /// Number of GOPs.
    pub fn gop_count(&self) -> usize {
        self.shared.gops.len()
    }

    /// Accumulated decode statistics.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// Reset the decode tally (e.g. between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = DecodeStats::new();
    }

    /// Read one frame, paying keyframe-walk decode costs. The slice is
    /// borrowed from the container's shared bytes — nothing is copied and
    /// no reference count moves.
    ///
    /// A frame outside the cached GOP is a seek: the GOP is fetched and
    /// charged, its checksum verified, and only then does it replace the
    /// cached one — after a [`StoreError::CorruptGop`] the previous GOP is
    /// still cached. Within the cached GOP the walk is extended from where
    /// it stopped, or not at all for a frame already reached.
    pub fn read_frame(&mut self, frame: u64) -> Result<&[u8], StoreError> {
        let shared = &*self.shared;
        let frames = &mut self.frames;
        // `open` checked that there is a GOP for every frame below
        // `frame_count` and that its extent lies inside `data`.
        let fetch = |gop: u32| {
            let e = shared.gops[gop as usize];
            let verified = if crc32(&shared.data[e.start..e.end]) == e.crc {
                Ok(())
            } else {
                Err(StoreError::CorruptGop { gop })
            };
            ((e.end - e.start) as u64, verified)
        };
        // Extend the walk over the length-prefixed frames. The walk asks
        // for consecutive frames, starting at the first it has not reached
        // — frame 0 of a GOP just verified, which drops the last GOP's
        // extents — so `at` (the next frame's offset, the GOP's end) is
        // found once per read.
        let mut at: Option<(usize, usize)> = None;
        let decode = |gop: u32, i: usize| {
            let (off, end) = at.get_or_insert_with(|| {
                let e = shared.gops[gop as usize];
                frames.truncate(i);
                (frames.last().map_or(e.start, |f| f.end), e.end)
            });
            let mut r = Reader::new(&shared.data[*off..*end]);
            let len =
                r.u32()
                    .map_err(|_| StoreError::Malformed("truncated gop"))? as usize;
            r.take(len)
                .map_err(|_| StoreError::Malformed("truncated frame"))?;
            let start = *off + FRAME_PREFIX_LEN;
            *off = start + len;
            frames.push(start..*off);
            Ok(())
        };
        let within = self.walk.read_with(frame, &mut self.stats, fetch, decode)?;
        Ok(&shared.data[self.frames[within].clone()])
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
            assert_eq!(c.read_frame(i).unwrap(), frame_payload(i).as_slice());
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
        assert!(Arc::ptr_eq(&opened.shared, &reader.shared));
        // A fresh tally, and no inherited GOP cache: frame 59 costs the
        // full keyframe walk again.
        assert_eq!(reader.stats().frames_returned, 0);
        assert_eq!(reader.read_frame(59).unwrap(), frame_payload(59).as_slice());
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
        let mut raw = w.finish();
        raw[HEADER_LEN + 2] ^= 0xFF; // flip a payload byte in GOP 0
        let mut c = Container::open(raw).unwrap();
        assert_eq!(c.read_frame(0), Err(StoreError::CorruptGop { gop: 0 }));
        // Other GOPs unaffected.
        assert!(c.read_frame(6).is_ok());
    }

    #[test]
    fn open_rejects_garbage() {
        assert!(Container::open(b"not a container".to_vec()).is_err());
        let mut valid = build(4, 2);
        let _ = valid.read_frame(0);
        let mut truncated = ContainerWriter::new(2);
        truncated.push_frame(b"abc");
        let mut bytes = truncated.finish();
        bytes.truncate(bytes.len() - 3);
        assert!(Container::open(bytes).is_err());
    }

    #[test]
    fn open_rejects_a_header_its_index_contradicts() {
        let mut w = ContainerWriter::new(4);
        for i in 0..10 {
            w.push_frame(&frame_payload(i));
        }
        let pristine = w.finish();
        // `frame_count` (bytes 10..18) and `gop_size` (6..10) sit in the
        // header, which no checksum covers. Left unchecked, 1000 frames
        // over a 3-entry index sends `read_frame(500)` to GOP 125.
        let mut raw = pristine.clone();
        raw[10..18].copy_from_slice(&1000u64.to_le_bytes());
        assert_eq!(
            Container::open(raw).err(),
            Some(StoreError::Malformed("gop count contradicts frame count"))
        );
        let mut raw = pristine.clone();
        raw[6..10].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            Container::open(raw).err(),
            Some(StoreError::Malformed("gop count contradicts frame count"))
        );
        // Same GOP count, wrong stride: entry 1 no longer starts at
        // `1 * gop_size`.
        let mut raw = pristine.clone();
        raw[6..10].copy_from_slice(&5u32.to_le_bytes());
        raw[10..18].copy_from_slice(&11u64.to_le_bytes());
        assert_eq!(
            Container::open(raw).err(),
            Some(StoreError::Malformed("gop first frame"))
        );
        // An extent that only fits if the addition wraps.
        let mut raw = pristine;
        let entry0 = raw.len() - TRAILER_LEN - 3 * INDEX_ENTRY_LEN;
        raw[entry0..entry0 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Container::open(raw).err(),
            Some(StoreError::Malformed("gop bounds"))
        );
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
        assert_eq!(c.read_frame(1).unwrap(), b"x");
        assert_eq!(c.read_frame(2).unwrap().len(), 0);
    }
}
