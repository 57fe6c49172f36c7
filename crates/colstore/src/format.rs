//! The immutable, memory-mapped columnar container format.
//!
//! One file (`detections.xsc`) holds every compacted detection of a
//! persist directory, laid out for the *sampling* access pattern: a warm
//! start touches the fixed header and the chunk index (a few KiB), then
//! reads only the column groups of chunks a query actually samples —
//! O(touched chunks), not O(total detections).
//!
//! ```text
//! [ header     ]  96 bytes, fixed, little-endian (see [`HEADER_LEN`]):
//!                 magic "XSCS" | version u16 | header_len u16
//!                 | fingerprint u64 (detector ⊕ dataset)
//!                 | chunk_frames u64 | groups u32
//!                 | index_off u64 | index_len u64 | index_crc u32
//!                 | data_off u64  | data_len u64  | data_crc u32
//!                 | header_crc u32 | reserved [u8; 24]
//! [ chunk index]  groups × 64-byte entries (see [`INDEX_ENTRY_LEN`]):
//!                 repo u32 | chunk u32 | off u64 | len u64 | crc u32
//!                 | frames u32 | dets u32 | min_frame u64 | max_frame u64
//!                 | max_score f32-bits | score_sum f64-bits
//! [ data       ]  concatenated column groups, one per (repo, chunk)
//! ```
//!
//! The fixed parts are declared once, as field lists in byte order
//! (`Header` + `HeaderSeal`, [`IndexEntry`], `BoxRow` below, over
//! [`exsample_store::le`]); each declaration is both the writer and the
//! reader of its part, and the diagram above is their reading aid.
//!
//! Each **column group** packs the detections of one `(repo, chunk)` as
//! four independently-delimited columns (lengths as varints up front):
//! frame ids (first absolute, then strictly-positive deltas, LEB128),
//! per-frame detection counts, scores (raw `f32` bit patterns as
//! varints — bitwise round trip, NaN-safe), and box/class/truth bytes.
//!
//! Integrity is sectioned so damage costs exactly what it touched: the
//! header and chunk index are CRC-verified at [`ColumnarStore::open`]
//! (they are the only bytes open *reads*), while each group's CRC is
//! verified lazily on first touch — a flipped bit inside one chunk turns
//! only that chunk into misses (counted, never fatal), and
//! [`ColumnarStore::verify`] checks everything eagerly for the
//! compactor's write-then-verify step.

use crate::mmap::MappedFile;
use crate::varint::{get_u64, put_u64};
use exsample_detect::Detection;
use exsample_stats::FxHashMap;
use exsample_store::crc::crc32;
use exsample_store::le::{Le, Reader};
use exsample_store::le_record;
use exsample_videosim::{BBox, ClassId, InstanceId};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic of columnar containers ("eXSample Columnar Store").
pub const MAGIC: &[u8; 4] = b"XSCS";
/// Current container format version.
pub const FORMAT_VERSION: u16 = 1;
/// Fixed byte length of the container header.
pub const HEADER_LEN: usize = <Header as Le<Disk>>::MIN + <HeaderSeal as Le<Disk>>::MIN;
/// Fixed byte length of one chunk-index entry.
pub const INDEX_ENTRY_LEN: usize = <IndexEntry as Le<Disk>>::MIN;
// The sizes the format documents; the reserved tail is what rounds the
// header up to its 96.
const _: () = assert!(HEADER_LEN == 96 && INDEX_ENTRY_LEN == 64);
/// Canonical container file name inside a persist directory.
pub const CONTAINER_NAME: &str = "detections.xsc";
/// Suffix of in-flight compaction outputs (swept if orphaned by a crash).
pub const TMP_SUFFIX: &str = ".xsc.tmp";

/// Format marker of the container's fixed layouts (see
/// [`exsample_store::le`]): each `le_record!(Disk: …)` below is that
/// part's byte layout, both directions.
#[derive(Debug, Clone, Copy)]
pub struct Disk;

/// The checksummed part of the header.
struct Header {
    magic: [u8; 4],
    version: u16,
    header_len: u16,
    /// Detector ⊕ dataset.
    fingerprint: u64,
    chunk_frames: u64,
    groups: u32,
    index_off: u64,
    index_len: u64,
    index_crc: u32,
    data_off: u64,
    data_len: u64,
    data_crc: u32,
}
le_record!(Disk: Header {
    magic, version, header_len, fingerprint, chunk_frames, groups,
    index_off, index_len, index_crc, data_off, data_len, data_crc,
});

/// What closes the header: the CRC of the encoded [`Header`], then
/// bytes reserved for future versions (zero, and checked to be).
struct HeaderSeal {
    header_crc: u32,
    reserved: [u8; 24],
}
le_record!(Disk: HeaderSeal { header_crc, reserved });

/// One detection's row in a group's box column (its score travels in
/// the score column).
struct BoxRow {
    bbox: BBox,
    class: ClassId,
    truth: Option<InstanceId>,
}
le_record!(Disk: BoxRow { bbox, class, truth });
le_record!(Disk: BBox { x1, y1, x2, y2 });
le_record!(Disk: ClassId { 0 });
le_record!(Disk: InstanceId { 0 });

/// One chunk-index entry: where a `(repo, chunk)` group's columns live
/// and what they summarize — enough to answer "is this chunk worth
/// touching?" without reading the columns themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    /// Repository id (the engine's durable catalog id).
    pub repo: u32,
    /// Temporal chunk index: `frame / chunk_frames`.
    pub chunk: u32,
    /// Byte offset of the group inside the data section.
    pub off: u64,
    /// Byte length of the group.
    pub len: u64,
    /// CRC-32 of the group bytes (verified on first touch).
    pub crc: u32,
    /// Frames recorded in the group.
    pub frames: u32,
    /// Total detections across those frames.
    pub dets: u32,
    /// Smallest recorded frame id.
    pub min_frame: u64,
    /// Largest recorded frame id.
    pub max_frame: u64,
    /// Maximum non-NaN detection score (−∞ when the group has none).
    pub max_score: f32,
    /// Sum of non-NaN detection scores (belief seeding / ranking hint).
    pub score_sum: f64,
}

le_record!(Disk: IndexEntry {
    repo, chunk, off, len, crc, frames, dets, min_frame, max_frame, max_score, score_sum,
});

/// Why a container file was rejected at [`ColumnarStore::open`].
#[derive(Debug)]
pub enum OpenError {
    /// No container file at the path (a fresh directory — not damage).
    Missing,
    /// File-level IO failure (permissions, unreadable directory).
    Io(std::io::Error),
    /// Structurally invalid: bad magic/version, truncation, a failed
    /// header or index CRC, or out-of-bounds section table.
    Invalid(&'static str),
    /// The container was written under a different detector/dataset
    /// fingerprint — a model or footage upgrade invalidates it.
    FingerprintMismatch {
        /// Fingerprint recorded in the container header.
        found: u64,
        /// Fingerprint the reader expected.
        expected: u64,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Missing => write!(f, "no container file"),
            OpenError::Io(e) => write!(f, "container io error: {e}"),
            OpenError::Invalid(why) => write!(f, "invalid container: {why}"),
            OpenError::FingerprintMismatch { found, expected } => write!(
                f,
                "container fingerprint {found:#x} does not match expected {expected:#x}"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

/// Encode the columns of one `(repo, chunk)` group. `frames` must be
/// sorted by frame id, strictly increasing, and non-empty. Returns the
/// summary the chunk index records.
pub fn encode_group(frames: &[(u64, Vec<Detection>)], out: &mut Vec<u8>) -> GroupSummary {
    debug_assert!(!frames.is_empty(), "groups are never empty");
    debug_assert!(frames.windows(2).all(|w| w[0].0 < w[1].0));
    let mut frames_col = Vec::new();
    let mut counts_col = Vec::new();
    let mut scores_col = Vec::new();
    let mut boxes_col = Vec::new();
    let mut n_dets = 0u64;
    let mut max_score = f32::NEG_INFINITY;
    let mut score_sum = 0.0f64;
    let mut prev = 0u64;
    for (i, (frame, dets)) in frames.iter().enumerate() {
        put_u64(&mut frames_col, if i == 0 { *frame } else { frame - prev });
        prev = *frame;
        put_u64(&mut counts_col, dets.len() as u64);
        n_dets += dets.len() as u64;
        for d in dets {
            put_u64(&mut scores_col, u64::from(d.score.to_bits()));
            if !d.score.is_nan() {
                if d.score > max_score {
                    max_score = d.score;
                }
                score_sum += f64::from(d.score);
            }
            BoxRow {
                bbox: d.bbox,
                class: d.class,
                truth: d.truth,
            }
            .put(&mut boxes_col);
        }
    }
    put_u64(out, frames.len() as u64);
    put_u64(out, n_dets);
    for col in [&frames_col, &counts_col, &scores_col, &boxes_col] {
        put_u64(out, col.len() as u64);
        out.extend_from_slice(col);
    }
    GroupSummary {
        frames: frames.len() as u64,
        dets: n_dets,
        min_frame: frames[0].0,
        max_frame: frames[frames.len() - 1].0,
        max_score,
        score_sum,
    }
}

/// What [`encode_group`] summarizes for the chunk index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupSummary {
    /// Frames in the group.
    pub frames: u64,
    /// Detections in the group.
    pub dets: u64,
    /// Smallest frame id.
    pub min_frame: u64,
    /// Largest frame id.
    pub max_frame: u64,
    /// Maximum non-NaN score (−∞ when none).
    pub max_score: f32,
    /// Sum of non-NaN scores.
    pub score_sum: f64,
}

/// The decoded columns of one group: sorted frame ids plus each frame's
/// detections, reassembled bit-identically to what was encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedGroup {
    frames: Vec<u64>,
    dets: Vec<Vec<Detection>>,
}

impl DecodedGroup {
    /// The group's sorted frame ids.
    pub fn frames(&self) -> &[u64] {
        &self.frames
    }

    /// Detections of `frame`, if recorded (binary search).
    pub fn get(&self, frame: u64) -> Option<&[Detection]> {
        let i = self.frames.binary_search(&frame).ok()?;
        Some(&self.dets[i])
    }

    /// Iterate `(frame, detections)` in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[Detection])> {
        self.frames
            .iter()
            .zip(&self.dets)
            .map(|(f, d)| (*f, d.as_slice()))
    }
}

/// Decode one group's columns (CRC already verified by the caller).
pub fn decode_group(data: &[u8]) -> Result<DecodedGroup, &'static str> {
    let mut pos = 0usize;
    let bad = |_| "bad group varint";
    let n_frames = get_u64(data, &mut pos).map_err(bad)? as usize;
    let n_dets = get_u64(data, &mut pos).map_err(bad)? as usize;
    // A group can't hold more frames/detections than bytes; reject before
    // allocating on absurd counts.
    if n_frames > data.len() || n_dets > data.len() {
        return Err("group counts exceed payload");
    }
    let mut cols: [&[u8]; 4] = [&[]; 4];
    for col in cols.iter_mut() {
        let len = get_u64(data, &mut pos).map_err(bad)? as usize;
        let end = pos.checked_add(len).ok_or("column length overflow")?;
        if end > data.len() {
            return Err("column exceeds group");
        }
        *col = &data[pos..end];
        pos = end;
    }
    if pos != data.len() {
        return Err("trailing bytes after columns");
    }
    let [frames_col, counts_col, scores_col, boxes_col] = cols;

    let mut frames = Vec::with_capacity(n_frames);
    let mut fpos = 0usize;
    let mut prev = 0u64;
    for i in 0..n_frames {
        let v = get_u64(frames_col, &mut fpos).map_err(bad)?;
        let frame = if i == 0 {
            v
        } else {
            if v == 0 {
                return Err("non-increasing frame delta");
            }
            prev.checked_add(v).ok_or("frame id overflow")?
        };
        frames.push(frame);
        prev = frame;
    }
    if fpos != frames_col.len() {
        return Err("trailing bytes in frame column");
    }

    let mut counts = Vec::with_capacity(n_frames);
    let mut cpos = 0usize;
    let mut total = 0u64;
    for _ in 0..n_frames {
        let c = get_u64(counts_col, &mut cpos).map_err(bad)?;
        total += c;
        counts.push(c as usize);
    }
    if cpos != counts_col.len() {
        return Err("trailing bytes in count column");
    }
    if total != n_dets as u64 {
        return Err("count column disagrees with detection total");
    }

    let mut spos = 0usize;
    let mut boxes = Reader::new(boxes_col);
    let mut dets = Vec::with_capacity(n_frames);
    for &count in &counts {
        let mut frame_dets = Vec::with_capacity(count);
        for _ in 0..count {
            let score_bits = get_u64(scores_col, &mut spos).map_err(bad)?;
            let score_bits = u32::try_from(score_bits).map_err(|_| "score bits exceed f32")?;
            let row = BoxRow::get(&mut boxes).map_err(|_| "bad box column row")?;
            frame_dets.push(Detection {
                bbox: row.bbox,
                class: row.class,
                score: f32::from_bits(score_bits),
                truth: row.truth,
            });
        }
        dets.push(frame_dets);
    }
    if spos != scores_col.len() {
        return Err("trailing bytes in score column");
    }
    if boxes.finish().is_err() {
        return Err("trailing bytes in box column");
    }
    Ok(DecodedGroup { frames, dets })
}

/// Serialize a full container from merged `(repo, frame) → detections`
/// records. Frames group into temporal chunks of `chunk_frames`; groups
/// are laid out `(repo, chunk)`-sorted.
///
/// Fails (with a diagnostic, never a panic) only on pathological shapes:
/// a chunk id or per-group count that does not fit the index's `u32`
/// fields.
pub fn build_container(
    records: &BTreeMap<(u32, u64), Vec<Detection>>,
    fingerprint: u64,
    chunk_frames: u64,
) -> Result<Vec<u8>, &'static str> {
    let chunk_frames = chunk_frames.max(1);
    // Group in key order: BTreeMap iteration is (repo, frame)-sorted, so
    // chunks emerge already sorted and each group's frames ascend.
    type GroupBuf = Vec<(u64, Vec<Detection>)>;
    let mut groups: Vec<(u32, u32, GroupBuf)> = Vec::new();
    for ((repo, frame), dets) in records {
        let chunk = u32::try_from(frame / chunk_frames).map_err(|_| "chunk id exceeds u32")?;
        match groups.last_mut() {
            Some((r, c, g)) if *r == *repo && *c == chunk => g.push((*frame, dets.clone())),
            _ => groups.push((*repo, chunk, vec![(*frame, dets.clone())])),
        }
    }
    let mut data = Vec::new();
    let mut index = Vec::with_capacity(groups.len() * INDEX_ENTRY_LEN);
    let n_groups = u32::try_from(groups.len()).map_err(|_| "group count exceeds u32")?;
    for (repo, chunk, frames) in &groups {
        let off = data.len() as u64;
        let mut group = Vec::new();
        let summary = encode_group(frames, &mut group);
        let entry = IndexEntry {
            repo: *repo,
            chunk: *chunk,
            off,
            len: group.len() as u64,
            crc: crc32(&group),
            frames: u32::try_from(summary.frames).map_err(|_| "group frames exceed u32")?,
            dets: u32::try_from(summary.dets).map_err(|_| "group detections exceed u32")?,
            min_frame: summary.min_frame,
            max_frame: summary.max_frame,
            max_score: summary.max_score,
            score_sum: summary.score_sum,
        };
        entry.put(&mut index);
        data.extend_from_slice(&group);
    }
    let index_off = HEADER_LEN as u64;
    let mut out = Vec::with_capacity(HEADER_LEN + index.len() + data.len());
    Header {
        magic: *MAGIC,
        version: FORMAT_VERSION,
        header_len: HEADER_LEN as u16,
        fingerprint,
        chunk_frames,
        groups: n_groups,
        index_off,
        index_len: index.len() as u64,
        index_crc: crc32(&index),
        data_off: index_off + index.len() as u64,
        data_len: data.len() as u64,
        data_crc: crc32(&data),
    }
    .put(&mut out);
    HeaderSeal {
        header_crc: crc32(&out),
        reserved: Default::default(),
    }
    .put(&mut out);
    out.extend_from_slice(&index);
    out.extend_from_slice(&data);
    Ok(out)
}

/// State of one lazily-decoded group in the reader.
enum GroupState {
    /// Decoded and CRC-verified.
    Ready(std::sync::Arc<DecodedGroup>),
    /// CRC or decode failure: the chunk is dead (counted), reads miss.
    Damaged,
}

/// The memory-mapped reader over a compacted container.
///
/// Opening validates the header and the chunk index (both CRC-checked) —
/// the only bytes read eagerly. Column groups are decoded on first touch,
/// CRC-verified, and cached; a damaged group is counted and reads of its
/// chunk return `None` (a cache miss, never an error). The mapping is
/// `Sync`: many engines on one host can share one `Arc<ColumnarStore>`,
/// or map the same file independently and share pages through the OS.
pub struct ColumnarStore {
    map: MappedFile,
    fingerprint: u64,
    chunk_frames: u64,
    data_off: usize,
    data_len: usize,
    data_crc: u32,
    index: Vec<IndexEntry>,
    /// `(repo, chunk) → index position`.
    lookup: FxHashMap<(u32, u32), usize>,
    /// Lazily decoded groups by index position.
    groups: Mutex<FxHashMap<usize, GroupState>>,
    /// Bytes actually consulted: header + index at open, plus each
    /// touched group once — the "I/O actually paid" a warm start reads.
    bytes_touched: AtomicU64,
    /// Groups whose CRC or decode failed on touch.
    damaged_groups: AtomicU64,
}

impl ColumnarStore {
    /// Map and validate the container at `path` against
    /// `expected_fingerprint`. See [`OpenError`] for the failure split —
    /// callers treat everything except [`OpenError::Io`] as "no container,
    /// recompute" (never fatal).
    pub fn open(path: &Path, expected_fingerprint: u64) -> Result<ColumnarStore, OpenError> {
        let map = match MappedFile::open(path) {
            Ok(map) => map,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(OpenError::Missing),
            Err(e) => return Err(OpenError::Io(e)),
        };
        let data = &*map;
        let short = |_| OpenError::Invalid("shorter than the fixed header");
        let mut r = Reader::new(data);
        let sealed = r.take(<Header as Le<Disk>>::MIN).map_err(short)?;
        let seal = HeaderSeal::get(&mut r).map_err(short)?;
        let header = Header::get(&mut Reader::new(sealed)).map_err(short)?;
        if header.magic != *MAGIC {
            return Err(OpenError::Invalid("bad magic"));
        }
        if header.version != FORMAT_VERSION {
            return Err(OpenError::Invalid("unsupported format version"));
        }
        if header.header_len as usize != HEADER_LEN {
            return Err(OpenError::Invalid("unexpected header length"));
        }
        if crc32(sealed) != seal.header_crc {
            return Err(OpenError::Invalid("header checksum mismatch"));
        }
        // The reserved tail sits outside the checksummed prefix; requiring
        // it to be zero keeps every header byte validated (and reserves it
        // for future versions, which will bump FORMAT_VERSION anyway).
        if seal.reserved.iter().any(|&b| b != 0) {
            return Err(OpenError::Invalid("nonzero reserved header bytes"));
        }
        let fingerprint = header.fingerprint;
        if fingerprint != expected_fingerprint {
            return Err(OpenError::FingerprintMismatch {
                found: fingerprint,
                expected: expected_fingerprint,
            });
        }
        let chunk_frames = header.chunk_frames.max(1);
        let n_groups = header.groups as usize;
        let (index_off, index_len) = (header.index_off as usize, header.index_len as usize);
        let (data_off, data_len) = (header.data_off as usize, header.data_len as usize);
        let data_crc = header.data_crc;
        if index_len != n_groups * INDEX_ENTRY_LEN {
            return Err(OpenError::Invalid(
                "index length disagrees with group count",
            ));
        }
        let index_end = index_off.checked_add(index_len);
        let data_end = data_off.checked_add(data_len);
        match (index_end, data_end) {
            (Some(ie), Some(de)) if ie <= data.len() && de <= data.len() => {}
            _ => return Err(OpenError::Invalid("section table out of bounds")),
        }
        let index_bytes = &data[index_off..index_off + index_len];
        if crc32(index_bytes) != header.index_crc {
            return Err(OpenError::Invalid("index checksum mismatch"));
        }
        let mut entries = Reader::new(index_bytes);
        let mut index = Vec::with_capacity(n_groups);
        let mut lookup = FxHashMap::default();
        for i in 0..n_groups {
            let entry = IndexEntry::get(&mut entries)
                .map_err(|_| OpenError::Invalid("index length disagrees with group count"))?;
            let end = entry.off.checked_add(entry.len);
            if end.is_none() || end.expect("checked") > data_len as u64 {
                return Err(OpenError::Invalid("group extent out of bounds"));
            }
            if lookup.insert((entry.repo, entry.chunk), i).is_some() {
                return Err(OpenError::Invalid("duplicate (repo, chunk) group"));
            }
            index.push(entry);
        }
        Ok(ColumnarStore {
            fingerprint,
            chunk_frames,
            data_off,
            data_len,
            data_crc,
            index,
            lookup,
            groups: Mutex::new(FxHashMap::default()),
            bytes_touched: AtomicU64::new((HEADER_LEN + index_len) as u64),
            damaged_groups: AtomicU64::new(0),
            map,
        })
    }

    /// Fingerprint the container was written under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Temporal chunk width (frames per index chunk).
    pub fn chunk_frames(&self) -> u64 {
        self.chunk_frames
    }

    /// Total container size in bytes.
    pub fn file_len(&self) -> u64 {
        self.map.len() as u64
    }

    /// Chunk-index entries (one per `(repo, chunk)` group).
    pub fn group_count(&self) -> usize {
        self.index.len()
    }

    /// Total frames indexed across all groups.
    pub fn frames_indexed(&self) -> u64 {
        self.index.iter().map(|e| u64::from(e.frames)).sum()
    }

    /// Largest repository id appearing in the index, if any. Engines fold
    /// this into their catalog-reservation safety net so a lost catalog
    /// can never remap container detections onto other footage.
    pub fn max_repo(&self) -> Option<u32> {
        self.index.iter().map(|e| e.repo).max()
    }

    /// Bytes of the mapping actually consulted so far: header + chunk
    /// index, plus each touched group counted once.
    pub fn bytes_touched(&self) -> u64 {
        self.bytes_touched.load(Ordering::Relaxed)
    }

    /// Groups rejected on touch (CRC or decode failure). Damage costs
    /// recomputation of that chunk only, never an error.
    pub fn damaged_groups(&self) -> u64 {
        self.damaged_groups.load(Ordering::Relaxed)
    }

    /// The chunk-index entries of `repo`, chunk-sorted — per-chunk frame
    /// and detection counts plus score summaries, read without touching
    /// any column bytes (this is what makes belief imports and chunk
    /// prioritization O(index), not O(detections)).
    pub fn chunk_summaries(&self, repo: u32) -> Vec<IndexEntry> {
        let mut entries: Vec<IndexEntry> = self
            .index
            .iter()
            .filter(|e| e.repo == repo)
            .copied()
            .collect();
        entries.sort_by_key(|e| e.chunk);
        entries
    }

    fn group(&self, pos: usize) -> Option<std::sync::Arc<DecodedGroup>> {
        {
            let groups = self.groups.lock().expect("group cache poisoned");
            match groups.get(&pos) {
                Some(GroupState::Ready(g)) => return Some(g.clone()),
                Some(GroupState::Damaged) => return None,
                None => {}
            }
        }
        // Decode outside the cache lock: group decode is the expensive
        // part and must not serialize readers of other chunks. A racing
        // decode of the same group is harmless (identical result).
        let entry = &self.index[pos];
        let start = self.data_off + entry.off as usize;
        let bytes = &self.map[start..start + entry.len as usize];
        self.bytes_touched.fetch_add(entry.len, Ordering::Relaxed);
        let decoded = if crc32(bytes) != entry.crc {
            Err("group checksum mismatch")
        } else {
            decode_group(bytes)
        };
        let state = match decoded {
            Ok(group) => GroupState::Ready(std::sync::Arc::new(group)),
            Err(why) => {
                self.damaged_groups.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "exsample-colstore: chunk (repo {}, chunk {}) unusable: {why}",
                    entry.repo, entry.chunk
                );
                GroupState::Damaged
            }
        };
        let mut groups = self.groups.lock().expect("group cache poisoned");
        let state = groups.entry(pos).or_insert(state);
        match state {
            GroupState::Ready(g) => Some(g.clone()),
            GroupState::Damaged => None,
        }
    }

    /// Detections of `(repo, frame)`, if recorded. Touches (decodes and
    /// CRC-verifies) only the frame's chunk group; `None` on any miss —
    /// unknown chunk, unrecorded frame, or damaged group.
    pub fn get(&self, repo: u32, frame: u64) -> Option<Vec<Detection>> {
        let chunk = u32::try_from(frame / self.chunk_frames).ok()?;
        let &pos = self.lookup.get(&(repo, chunk))?;
        let entry = &self.index[pos];
        if frame < entry.min_frame || frame > entry.max_frame {
            return None;
        }
        self.group(pos)?.get(frame).map(<[_]>::to_vec)
    }

    /// Visit every recorded `(repo, frame, detections)` in `(repo,
    /// chunk, frame)` order, skipping damaged groups. Returns how many
    /// groups were skipped. This is the compactor's carry-forward path —
    /// per-frame readers use [`ColumnarStore::get`].
    pub fn for_each_frame(&self, mut f: impl FnMut(u32, u64, &[Detection])) -> u64 {
        let mut skipped = 0;
        for pos in 0..self.index.len() {
            let repo = self.index[pos].repo;
            match self.group(pos) {
                Some(group) => {
                    for (frame, dets) in group.iter() {
                        f(repo, frame, dets);
                    }
                }
                None => skipped += 1,
            }
        }
        skipped
    }

    /// Eagerly verify everything open deferred: the data-section CRC and
    /// every group (CRC + full column decode). The compactor runs this on
    /// the freshly written temp file before the atomic rename makes it
    /// live — the log stays authoritative until this passes.
    pub fn verify(&self) -> Result<(), &'static str> {
        let data = &self.map[self.data_off..self.data_off + self.data_len];
        if crc32(data) != self.data_crc {
            return Err("data section checksum mismatch");
        }
        for pos in 0..self.index.len() {
            let entry = &self.index[pos];
            let start = self.data_off + entry.off as usize;
            let bytes = &self.map[start..start + entry.len as usize];
            if crc32(bytes) != entry.crc {
                return Err("group checksum mismatch");
            }
            let group = decode_group(bytes)?;
            if group.frames().len() as u64 != u64::from(entry.frames) {
                return Err("index frame count disagrees with column");
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ColumnarStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarStore")
            .field("fingerprint", &self.fingerprint)
            .field("chunk_frames", &self.chunk_frames)
            .field("groups", &self.index.len())
            .field("frames_indexed", &self.frames_indexed())
            .field("file_len", &self.file_len())
            .finish()
    }
}
