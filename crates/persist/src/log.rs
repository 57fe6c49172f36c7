//! The append-only, segmented, fsync'd detection log.
//!
//! Directory layout (everything lives directly under the persist dir):
//!
//! ```text
//! <dir>/seg-000000.xsd    detection-log segment (oldest)
//! <dir>/seg-000001.xsd    ...
//! <dir>/beliefs-*.xsb     belief snapshots (see [`crate::beliefs`])
//! ```
//!
//! Each segment starts with a [`framing`](exsample_store::framing) header
//! carrying the writer's detector **fingerprint**; a reader with a
//! different fingerprint (detector upgrade, changed noise model) skips the
//! whole segment — counted and logged, never an error. Within a segment,
//! each record is CRC-framed, so a torn tail (crash mid-write) or a
//! flipped bit forfeits only the suffix of that one segment: the valid
//! prefix is still loaded and everything in other segments is untouched.
//!
//! A writer never appends to a pre-existing segment: every
//! [`DetectionLog::open`] starts a fresh segment lazily on first append,
//! which keeps recovery logic trivial (old segments are immutable).

use crate::codec::{decode_detections_into, encode_detections, CodecError, DetectionRecord};
use crate::PersistConfig;
use exsample_detect::Detection;
use exsample_store::framing::{
    next_record, read_segment_header, write_record, write_segment_header, RecordStep,
};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic of detection-log segments ("eXSample Detection Log").
pub(crate) const SEGMENT_MAGIC: &[u8; 4] = b"XSDL";
/// Current detection-log format version.
pub(crate) const SEGMENT_VERSION: u16 = 1;

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.xsd"))
}

/// Outcome counters of one pass over a persist directory's log. An
/// engine's startup compaction makes the only such pass, and publishes
/// its counters as they are (`PersistStats` in `exsample-engine`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Segments whose header matched and whose records were read.
    pub segments_loaded: u64,
    /// Segments skipped wholesale: wrong magic, unsupported version, a
    /// fingerprint from a different detector configuration, or unreadable.
    pub segments_skipped: u64,
    /// Checksum-valid records decoded and delivered to the sink.
    pub records_loaded: u64,
    /// Damaged segment tails abandoned (torn final write, bit rot or an
    /// undecodable record); one count per affected segment, the valid
    /// prefix was still delivered.
    pub damaged_tails: u64,
}

/// Append-only writer over the segmented detection log.
///
/// Thread safety is the caller's concern (the engine wraps it in a
/// `Mutex`). IO errors do not panic and do not propagate into the search
/// path: the first error disables the writer and is counted in
/// [`DetectionLog::write_errors`] — persistence is an optimization, never
/// a correctness dependency.
#[derive(Debug)]
pub struct DetectionLog {
    dir: PathBuf,
    fingerprint: u64,
    flush_every: usize,
    segment_records: usize,
    /// Open segment, or `None` before the first append / after rotation.
    file: Option<BufWriter<File>>,
    next_segment: u64,
    records_in_segment: usize,
    unflushed: usize,
    writes: u64,
    write_errors: u64,
    /// Reusable encode buffer.
    scratch: Vec<u8>,
    /// Reusable buffer for the framed record.
    framed: Vec<u8>,
}

impl DetectionLog {
    /// Open a log for appending: creates the directory if needed and
    /// positions the writer after the newest existing segment.
    pub fn open(cfg: &PersistConfig) -> std::io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let next_segment = sealed_segments(&cfg.dir)?
            .last()
            .map_or(0, |(last, _)| last + 1);
        Ok(DetectionLog {
            dir: cfg.dir.clone(),
            fingerprint: cfg.fingerprint,
            flush_every: cfg.flush_every.max(1),
            segment_records: cfg.segment_records.max(1),
            file: None,
            next_segment,
            records_in_segment: 0,
            unflushed: 0,
            writes: 0,
            write_errors: 0,
            scratch: Vec::new(),
            framed: Vec::new(),
        })
    }

    /// Append one frame's detections. Errors are absorbed (counted and
    /// logged once); after the first error the log goes inert.
    pub fn append(&mut self, repo: u32, frame: u64, dets: &[Detection]) {
        if self.write_errors > 0 {
            return;
        }
        if let Err(e) = self.try_append(repo, frame, dets) {
            self.write_errors += 1;
            eprintln!(
                "exsample-persist: disabling detection log after write error in {}: {e}",
                self.dir.display()
            );
        }
    }

    fn try_append(&mut self, repo: u32, frame: u64, dets: &[Detection]) -> std::io::Result<()> {
        if self.file.is_none() {
            let path = segment_path(&self.dir, self.next_segment);
            self.next_segment += 1;
            self.records_in_segment = 0;
            let mut header = Vec::with_capacity(exsample_store::framing::SEGMENT_HEADER_LEN);
            write_segment_header(
                &mut header,
                SEGMENT_MAGIC,
                SEGMENT_VERSION,
                self.fingerprint,
            );
            let mut w = BufWriter::new(File::create(path)?);
            w.write_all(&header)?;
            self.file = Some(w);
        }
        self.scratch.clear();
        encode_detections(repo, frame, dets, &mut self.scratch);
        self.framed.clear();
        write_record(&mut self.framed, &self.scratch);
        let w = self.file.as_mut().expect("opened above");
        w.write_all(&self.framed)?;
        self.writes += 1;
        self.records_in_segment += 1;
        self.unflushed += 1;
        if self.records_in_segment >= self.segment_records {
            self.sync()?;
            self.file = None;
        } else if self.unflushed >= self.flush_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Flush buffered records and fsync the open segment.
    fn sync(&mut self) -> std::io::Result<()> {
        if let Some(w) = self.file.as_mut() {
            w.flush()?;
            w.get_ref().sync_data()?;
        }
        self.unflushed = 0;
        Ok(())
    }

    /// Records successfully appended since open.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// IO errors absorbed (at most 1: the first error disables the log).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }
}

impl Drop for DetectionLog {
    fn drop(&mut self) {
        // Make every record durable before the engine goes away; errors
        // here can only lose the unflushed tail, which the reader treats
        // as a torn write anyway.
        let _ = self.sync();
    }
}

/// The `seg-*.xsd` files present in `dir` with their parsed indices,
/// sorted oldest first. Returns each entry's *actual* path, so
/// non-canonically named files (e.g. a hand-made `seg-1.xsd`) are still
/// readable rather than re-derived into a name that does not exist.
///
/// Every listed segment is *sealed*: the writer never appends to a
/// pre-existing file (each [`DetectionLog::open`] starts a fresh segment),
/// so as long as no [`DetectionLog`] opened *after* this call has written,
/// the listed files are immutable — the compactor's fold set.
pub fn sealed_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(idx) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".xsd"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((idx, path));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The one pass over the log: every sealed segment in `dir`, oldest
/// first, its checksum-valid records handed to `sink` as `(repo, frame,
/// detections)` when its header matches `fingerprint`. Every record is
/// decoded into one reused buffer. Returns what the pass read and the
/// paths of the matching segments — the compactor's fold set.
///
/// Mismatched or damaged data is *skipped and counted*, never fatal: a
/// segment with a foreign header, or one that cannot be read, is skipped;
/// a torn, corrupt or undecodable record abandons the rest of its segment
/// (the valid prefix was still delivered). The only errors surfaced are
/// directory-level IO failures; a missing directory is an empty log.
pub(crate) fn scan_log(
    dir: &Path,
    fingerprint: u64,
    mut sink: impl FnMut(u32, u64, &[Detection]),
) -> std::io::Result<(LoadStats, Vec<PathBuf>)> {
    let mut stats = LoadStats::default();
    let mut matched = Vec::new();
    let mut dets = Vec::new();
    for (_, path) in sealed_segments(dir)? {
        let mut skip = |why: &dyn std::fmt::Display| {
            stats.segments_skipped += 1;
            eprintln!("exsample-persist: skipping {}: {why}", path.display());
        };
        // Unreadable (or gone since the listing) is skipped like any
        // other segment no reader can use.
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(e) => {
                skip(&e);
                continue;
            }
        };
        let mut rest = match read_segment_header(&data, SEGMENT_MAGIC) {
            Ok((hdr, body)) if hdr.version == SEGMENT_VERSION && hdr.fingerprint == fingerprint => {
                body
            }
            Ok((hdr, _)) => {
                skip(&format_args!(
                    "version {} fingerprint {:#x}, expected {SEGMENT_VERSION} / {fingerprint:#x}",
                    hdr.version, hdr.fingerprint
                ));
                continue;
            }
            Err(e) => {
                skip(&e);
                continue;
            }
        };
        stats.segments_loaded += 1;
        let damage = loop {
            match next_record(rest) {
                RecordStep::Record { payload, rest: r } => {
                    match decode_detections_into(payload, &mut dets) {
                        Ok((repo, frame)) => {
                            rest = r;
                            stats.records_loaded += 1;
                            sink(repo, frame, &dets);
                        }
                        // Checksum-valid but unparseable: writer-version
                        // skew; treat like damage.
                        Err(CodecError(why)) => break Some(why),
                    }
                }
                RecordStep::End => break None,
                RecordStep::Truncated | RecordStep::Corrupt => break Some("damaged record"),
            }
        };
        if let Some(why) = damage {
            stats.damaged_tails += 1;
            eprintln!(
                "exsample-persist: abandoning tail of {}: {why}",
                path.display()
            );
        }
        matched.push(path);
    }
    Ok((stats, matched))
}

/// Deliver each checksum-valid record of the segments in `dir` matching
/// `fingerprint` to `sink`, owned, oldest segment first; mismatched or
/// damaged data is skipped and counted, never fatal. This is the log's
/// one loop with a copy per record. The engine never calls it — its
/// startup compaction ([`crate::container::fold_log`]) is its one pass
/// over the log.
pub fn scan_detections(
    dir: &Path,
    fingerprint: u64,
    mut sink: impl FnMut(DetectionRecord),
) -> std::io::Result<LoadStats> {
    let scan = scan_log(dir, fingerprint, |repo, frame, dets| {
        sink(DetectionRecord {
            repo,
            frame,
            dets: dets.to_vec(),
        })
    });
    scan.map(|(stats, _)| stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_videosim::{BBox, ClassId};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("exsample-persist-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &Path) -> PersistConfig {
        PersistConfig::new(dir).fingerprint(0xABCD).flush_every(4)
    }

    fn det(frame: u64) -> Vec<Detection> {
        vec![Detection {
            bbox: BBox {
                x1: frame as f32,
                y1: 0.0,
                x2: frame as f32 + 5.0,
                y2: 5.0,
            },
            class: ClassId(0),
            score: 0.5,
            truth: None,
        }]
    }

    fn collect(dir: &Path, fp: u64) -> (Vec<DetectionRecord>, LoadStats) {
        let mut recs = Vec::new();
        let stats = scan_detections(dir, fp, |r| recs.push(r)).unwrap();
        (recs, stats)
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut log = DetectionLog::open(&cfg(&dir)).unwrap();
        for f in 0..10u64 {
            log.append(1, f, &det(f));
        }
        drop(log); // fsyncs the tail
        let (recs, stats) = collect(&dir, 0xABCD);
        assert_eq!(recs.len(), 10);
        assert_eq!(stats.records_loaded, 10);
        assert_eq!(stats.segments_loaded, 1);
        assert_eq!(
            stats,
            LoadStats {
                segments_loaded: 1,
                records_loaded: 10,
                ..Default::default()
            }
        );
        for (f, r) in recs.iter().enumerate() {
            assert_eq!(r.frame, f as u64);
            assert_eq!(r.dets, det(f as u64));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_reopen_appends_new_segment() {
        let dir = tmp_dir("rotate");
        let cfg = cfg(&dir).segment_records(3);
        let mut log = DetectionLog::open(&cfg).unwrap();
        for f in 0..7u64 {
            log.append(0, f, &[]);
        }
        drop(log);
        let indices = |dir: &Path| -> Vec<u64> {
            sealed_segments(dir)
                .unwrap()
                .into_iter()
                .map(|(i, _)| i)
                .collect()
        };
        assert_eq!(indices(&dir), vec![0, 1, 2]);
        // Reopen: new records go into a fresh segment, old ones untouched.
        let mut log = DetectionLog::open(&cfg).unwrap();
        log.append(0, 7, &[]);
        drop(log);
        assert_eq!(indices(&dir), vec![0, 1, 2, 3]);
        let (recs, stats) = collect(&dir, 0xABCD);
        assert_eq!(recs.len(), 8);
        assert_eq!(stats.segments_loaded, 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_skips_segment() {
        let dir = tmp_dir("fingerprint");
        let mut log = DetectionLog::open(&cfg(&dir)).unwrap();
        log.append(0, 1, &det(1));
        drop(log);
        let (recs, stats) = collect(&dir, 0x9999);
        assert!(recs.is_empty());
        assert_eq!(stats.segments_skipped, 1);
        assert_eq!(stats.segments_loaded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_and_bit_flip_salvage_prefix() {
        let dir = tmp_dir("damage");
        let mut log = DetectionLog::open(&cfg(&dir)).unwrap();
        for f in 0..6u64 {
            log.append(0, f, &det(f));
        }
        drop(log);
        let path = segment_path(&dir, 0);
        let pristine = fs::read(&path).unwrap();

        // Torn write: chop the last few bytes.
        fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        let (recs, stats) = collect(&dir, 0xABCD);
        assert_eq!(recs.len(), 5);
        assert_eq!(stats.damaged_tails, 1);

        // Bit rot: flip one payload byte of the 4th record.
        let mut flipped = pristine.clone();
        let idx = pristine.len() / 2;
        flipped[idx] ^= 0x40;
        fs::write(&path, &flipped).unwrap();
        let (recs, stats) = collect(&dir, 0xABCD);
        assert!(recs.len() < 6, "flip at {idx} went undetected");
        assert_eq!(stats.damaged_tails, 1);
        // Whatever was salvaged is pristine.
        for r in &recs {
            assert_eq!(r.dets, det(r.frame));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_canonical_segment_names_are_read_not_fatal() {
        // A hand-made `seg-1.xsd` (no zero padding) must be scanned via
        // its real path, and the writer must still pick a fresh index
        // above it.
        let dir = tmp_dir("noncanonical");
        let mut log = DetectionLog::open(&cfg(&dir)).unwrap();
        log.append(0, 0, &det(0));
        drop(log);
        fs::rename(dir.join("seg-000000.xsd"), dir.join("seg-1.xsd")).unwrap();
        let (recs, stats) = collect(&dir, 0xABCD);
        assert_eq!(recs.len(), 1);
        assert_eq!(stats.segments_loaded, 1);
        let mut log = DetectionLog::open(&cfg(&dir)).unwrap();
        log.append(0, 5, &det(5));
        drop(log);
        assert!(dir.join("seg-000002.xsd").exists());
        let (recs, _) = collect(&dir, 0xABCD);
        assert_eq!(recs.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_skipped_not_fatal() {
        let dir = tmp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(segment_path(&dir, 0), b"not a segment").unwrap();
        fs::write(dir.join("README.txt"), b"ignore me").unwrap();
        let (recs, stats) = collect(&dir, 0);
        assert!(recs.is_empty());
        assert_eq!(stats.segments_skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_empty_log() {
        let dir = tmp_dir("missing");
        let (recs, stats) = collect(&dir, 0);
        assert!(recs.is_empty());
        assert_eq!(stats, LoadStats::default());
    }
}
