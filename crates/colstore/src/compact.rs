//! Compaction: fold sealed detection-log segments into the columnar
//! container, atomically and crash-safely.
//!
//! The invariant defended at every step is **the log stays authoritative
//! until the container is fsync'd, re-opened, and verified**. The
//! protocol:
//!
//! 1. sweep orphaned `*.xsc.tmp` files (a previous crash mid-write);
//! 2. list sealed segments (the log writer never appends to an existing
//!    file, so everything on disk before our log opens is immutable) and
//!    merge every matching segment's records, keyed by `(repo, frame)` —
//!    nothing matched means nothing to do, and the run ends here;
//! 3. carry the prior same-fingerprint container forward into the same
//!    keyed merge — duplicates collapse (first write wins; detections are
//!    deterministic per fingerprint, so any copy is the same bytes);
//! 4. write `detections.xsc.tmp`, `fsync` it;
//! 5. *verify*: re-open the temp file through the real reader and run the
//!    eager full-container check ([`ColumnarStore::verify`]);
//! 6. `rename` over `detections.xsc` (atomic on POSIX), `fsync` the
//!    directory;
//! 7. only now delete the folded segments (and `fsync` the directory
//!    again).
//!
//! A crash at any point leaves a readable state: before the rename the old
//! container (if any) plus the full log; after the rename but before the
//! cleanup, the new container plus segments it already contains —
//! duplicates that the keyed merge and the engine's first-fill-wins cache
//! both collapse. Segments with a *different* fingerprint are never
//! folded and never deleted.
//!
//! [`KillPoint`] injects a simulated crash at each boundary for tests; the
//! production entry point [`compact`] never kills.

use crate::format::{build_container, ColumnarStore, OpenError, CONTAINER_NAME, TMP_SUFFIX};
use exsample_detect::Detection;
use exsample_persist::{scan_segment_file, sealed_segments, SegmentOutcome};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Simulated crash boundaries for crash-safety tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Die after writing only half the temp container, no fsync.
    MidTmpWrite,
    /// Die after the temp container is written, fsync'd, and verified —
    /// but before the atomic rename makes it live.
    BeforeRename,
    /// Die after the rename but before the folded segments are deleted.
    BeforeCleanup,
}

/// Why a compaction did not complete.
#[derive(Debug)]
pub enum CompactError {
    /// Filesystem failure (the log is untouched).
    Io(std::io::Error),
    /// The merged records could not be serialized (pathological shape,
    /// e.g. a chunk id beyond `u32`).
    Build(&'static str),
    /// The freshly written temp container failed re-open verification;
    /// the temp file was removed and the log remains authoritative.
    Verify(String),
}

impl std::fmt::Display for CompactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactError::Io(e) => write!(f, "compaction io error: {e}"),
            CompactError::Build(why) => write!(f, "compaction build error: {why}"),
            CompactError::Verify(why) => write!(f, "compaction verify error: {why}"),
        }
    }
}

impl std::error::Error for CompactError {}

impl From<std::io::Error> for CompactError {
    fn from(e: std::io::Error) -> Self {
        CompactError::Io(e)
    }
}

/// What one compaction run did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Whether the run reached the end (false only under a [`KillPoint`]).
    pub completed: bool,
    /// Whether a new container was actually written (false when there was
    /// nothing to fold — the existing state was already compact).
    pub rewritten: bool,
    /// Sealed segments folded (and deleted on completion).
    pub segments_folded: u64,
    /// Log records folded out of those segments.
    pub records_folded: u64,
    /// Folded segments whose damaged tail was abandoned (the valid prefix
    /// was folded; the segment is deleted like any other).
    pub damaged_tails: u64,
    /// Frames carried forward from the prior container.
    pub carried_frames: u64,
    /// Distinct `(repo, frame)` entries in the new container.
    pub frames: u64,
    /// `(repo, chunk)` column groups in the new container.
    pub groups: u64,
    /// Size of the new container in bytes.
    pub container_bytes: u64,
    /// Bytes of folded segments reclaimed by the cleanup.
    pub reclaimed_bytes: u64,
}

/// Canonical container path inside a persist directory.
pub fn container_path(dir: &Path) -> PathBuf {
    dir.join(CONTAINER_NAME)
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Remove `*.xsc.tmp` leftovers of crashed compactions. Returns how many
/// were swept. Runs at the head of every compaction, hence of every
/// engine startup — a half-written temp file is never readable state.
pub fn sweep_orphans(dir: &Path) -> std::io::Result<u64> {
    let mut swept = 0;
    if !dir.exists() {
        return Ok(swept);
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(TMP_SUFFIX));
        if is_tmp && fs::remove_file(&path).is_ok() {
            swept += 1;
            eprintln!(
                "exsample-colstore: swept orphaned compaction temp {}",
                path.display()
            );
        }
    }
    Ok(swept)
}

/// Compact `dir`: fold every sealed segment matching `fingerprint` (plus
/// the prior container, if usable) into a fresh container, then delete
/// the folded segments. No-op (`rewritten: false`) when there is nothing
/// to fold. See the module docs for the crash-safety protocol.
pub fn compact(
    dir: &Path,
    fingerprint: u64,
    chunk_frames: u64,
) -> Result<CompactionReport, CompactError> {
    compact_with_kill(dir, fingerprint, chunk_frames, None)
}

/// [`compact`] with an injected crash for tests: execution stops dead at
/// `kill` (returning `completed: false`), leaving the filesystem exactly
/// as a real crash there would.
pub fn compact_with_kill(
    dir: &Path,
    fingerprint: u64,
    chunk_frames: u64,
    kill: Option<KillPoint>,
) -> Result<CompactionReport, CompactError> {
    let mut report = CompactionReport::default();
    sweep_orphans(dir)?;

    // Fold matching segments. A segment is deletable once its surviving
    // records are merged — a damaged tail holds nothing any reader would
    // ever serve. Foreign-fingerprint segments are left alone entirely.
    let mut merged: BTreeMap<(u32, u64), Vec<Detection>> = BTreeMap::new();
    let mut deletable: Vec<PathBuf> = Vec::new();
    for (_, path) in sealed_segments(dir)? {
        let outcome = match scan_segment_file(&path, fingerprint, |rec| {
            merged.entry((rec.repo, rec.frame)).or_insert(rec.dets);
        }) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!(
                    "exsample-colstore: leaving unreadable segment {}: {e}",
                    path.display()
                );
                continue;
            }
        };
        if let SegmentOutcome::Loaded {
            records,
            damaged_tail,
        } = outcome
        {
            report.segments_folded += 1;
            report.records_folded += records;
            report.damaged_tails += u64::from(damaged_tail);
            deletable.push(path);
        }
    }

    // Nothing to fold: the current state is already as compact as it
    // gets, and not one column of the prior container was read to find
    // that out. An unusable prior container is left alone too — replacing
    // it with an empty one would destroy (stale but intact) bytes for no
    // gain.
    if report.segments_folded == 0 {
        report.completed = true;
        return Ok(report);
    }

    // Carry the prior container forward. A missing container is the
    // common fresh case; a mismatched or damaged one contributes nothing
    // (its data is unusable) and is replaced by this run's output.
    let final_path = container_path(dir);
    match ColumnarStore::open(&final_path, fingerprint) {
        Ok(prior) => {
            let skipped = prior.for_each_frame(|repo, frame, dets| {
                report.carried_frames += 1;
                merged.entry((repo, frame)).or_insert_with(|| dets.to_vec());
            });
            if skipped > 0 {
                eprintln!(
                    "exsample-colstore: carried prior container with {skipped} damaged group(s)"
                );
            }
        }
        Err(OpenError::Missing) => {}
        Err(e) => eprintln!("exsample-colstore: prior container unusable ({e}); will replace"),
    }

    let bytes = build_container(&merged, fingerprint, chunk_frames).map_err(CompactError::Build)?;
    report.frames = merged.len() as u64;
    report.container_bytes = bytes.len() as u64;

    // Write + fsync the temp file.
    let tmp_path = dir.join(format!("{CONTAINER_NAME}.tmp"));
    debug_assert!(tmp_path.to_string_lossy().ends_with(TMP_SUFFIX));
    {
        let mut f = File::create(&tmp_path)?;
        if kill == Some(KillPoint::MidTmpWrite) {
            f.write_all(&bytes[..bytes.len() / 2])?;
            f.flush()?;
            return Ok(report);
        }
        f.write_all(&bytes)?;
        f.sync_all()?;
    }

    // Verify through the real reader before the rename: the log stays
    // authoritative until these bytes are proven readable.
    match ColumnarStore::open(&tmp_path, fingerprint) {
        Ok(store) => {
            report.groups = store.group_count() as u64;
            if let Err(why) = store.verify() {
                let _ = fs::remove_file(&tmp_path);
                return Err(CompactError::Verify(why.to_string()));
            }
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp_path);
            return Err(CompactError::Verify(e.to_string()));
        }
    }

    if kill == Some(KillPoint::BeforeRename) {
        return Ok(report);
    }

    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    report.rewritten = true;

    if kill == Some(KillPoint::BeforeCleanup) {
        return Ok(report);
    }

    for path in &deletable {
        let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        match fs::remove_file(path) {
            Ok(()) => report.reclaimed_bytes += len,
            Err(e) => eprintln!(
                "exsample-colstore: folded segment {} not deleted: {e}",
                path.display()
            ),
        }
    }
    sync_dir(dir)?;
    report.completed = true;
    Ok(report)
}
