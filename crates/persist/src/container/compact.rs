//! Compaction: fold sealed detection-log segments into the columnar
//! container, atomically and crash-safely.
//!
//! The invariant defended at every step is **the log stays authoritative
//! until the container is fsync'd, re-opened, and verified**. The
//! protocol:
//!
//! 1. sweep orphaned `*.xsc.tmp` files (a previous crash mid-write);
//! 2. *scan* ([`fold_log`]): one pass over the sealed segments (the log
//!    writer never appends to an existing file, so everything on disk
//!    before our log opens is immutable) collects every matching
//!    segment's records, in segment order, into one flat list, and counts
//!    what it read ([`Fold::log`]) — nothing matched means nothing to do,
//!    and the run ends here;
//! 3. *write* ([`Fold::write`]): append the prior same-fingerprint
//!    container's records to the same list, then merge by one stable sort
//!    on `(repo, frame)` and a dedup that keeps each key's first entry —
//!    first write wins (detections are deterministic per fingerprint, so
//!    any copy is the same bytes);
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
//! duplicates that the merge and the engine's first-fill-wins cache both
//! collapse. Segments with a *different* fingerprint are never
//! folded and never deleted.
//!
//! [`compact`] runs both phases; an engine runs them itself, so it keeps
//! the scan's counters when the write fails. [`KillPoint`] injects a
//! simulated crash at each boundary for tests.

use super::{build_container, ColumnarStore, OpenError, CONTAINER_NAME, TMP_SUFFIX};
use crate::log::{scan_log, LoadStats};
use exsample_detect::Detection;
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
    /// What the scan read. Its matching segments are folded (and deleted
    /// on completion), a damaged tail's valid prefix with them; skipped
    /// segments are left alone.
    pub log: LoadStats,
    /// Frames carried forward from the prior container.
    pub carried_frames: u64,
    /// Distinct `(repo, frame)` entries in the new container.
    pub frames: u64,
    /// Size of the new container in bytes.
    pub container_bytes: u64,
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
                "exsample-persist: swept orphaned compaction temp {}",
                path.display()
            );
        }
    }
    Ok(swept)
}

/// The records of one compaction, in arrival order until [`Merge::settle`]:
/// each `(repo, frame)` key with the range of its detections in one flat
/// buffer, so no record owns an allocation of its own.
#[derive(Default)]
struct Merge {
    keys: Vec<((u32, u64), usize, usize)>,
    dets: Vec<Detection>,
}

impl Merge {
    fn push(&mut self, key: (u32, u64), dets: &[Detection]) {
        self.keys.push((key, self.dets.len(), dets.len()));
        self.dets.extend_from_slice(dets);
    }

    /// Sort by key and keep each key's first arrival. The sort is stable,
    /// so among equal keys arrival order survives and the dedup keeps the
    /// first write: segments in order, then the prior container.
    fn settle(&mut self) {
        self.keys.sort_by_key(|&(key, _, _)| key);
        self.keys.dedup_by_key(|&mut (key, _, _)| key);
    }

    /// The settled records, as [`build_container`] takes them.
    fn records(&self) -> impl Iterator<Item = (&(u32, u64), &[Detection])> {
        self.keys
            .iter()
            .map(|(key, start, len)| (key, &self.dets[*start..*start + *len]))
    }
}

/// The scan phase of a compaction: the records of every sealed segment
/// matching one fingerprint, read in one pass and not yet written.
pub struct Fold {
    /// What the scan read.
    pub log: LoadStats,
    /// Largest repository id among the scanned records, if any.
    pub max_repo: Option<u32>,
    dir: PathBuf,
    fingerprint: u64,
    /// The matching segments: deletable once the container holding their
    /// records is live — a damaged tail holds nothing any reader would
    /// ever serve.
    folded: Vec<PathBuf>,
    merged: Merge,
}

/// Sweep orphans and scan `dir`'s sealed segments under `fingerprint`:
/// steps 1 and 2 of the protocol. Foreign-fingerprint segments are left
/// alone entirely.
pub fn fold_log(dir: &Path, fingerprint: u64) -> std::io::Result<Fold> {
    sweep_orphans(dir)?;
    let mut merged = Merge::default();
    let mut max_repo = None;
    let (log, folded) = scan_log(dir, fingerprint, |repo, frame, dets| {
        max_repo = max_repo.max(Some(repo));
        merged.push((repo, frame), dets);
    })?;
    Ok(Fold {
        log,
        max_repo,
        dir: dir.to_path_buf(),
        fingerprint,
        folded,
        merged,
    })
}

impl Fold {
    /// Steps 3–7 of the protocol: fold the scanned records (plus the
    /// prior container, if usable) into a fresh container, then delete
    /// the folded segments. No-op (`rewritten: false`) when the scan
    /// matched nothing. With a `kill`, execution stops dead there
    /// (returning `completed: false`), leaving the filesystem exactly as
    /// a real crash there would.
    pub fn write(
        mut self,
        chunk_frames: u64,
        kill: Option<KillPoint>,
    ) -> Result<CompactionReport, CompactError> {
        let mut report = CompactionReport {
            log: self.log,
            ..CompactionReport::default()
        };
        let (dir, fingerprint) = (self.dir.as_path(), self.fingerprint);

        // Nothing to fold: the current state is already as compact as it
        // gets, and not one column of the prior container was read to find
        // that out. An unusable prior container is left alone too —
        // replacing it with an empty one would destroy (stale but intact)
        // bytes for no gain.
        if self.folded.is_empty() {
            report.completed = true;
            return Ok(report);
        }

        // Carry the prior container forward. A missing container is the
        // common fresh case; a mismatched or damaged one contributes
        // nothing (its data is unusable) and is replaced by this run's
        // output.
        let final_path = container_path(dir);
        match ColumnarStore::open(&final_path, fingerprint) {
            Ok(prior) => {
                let skipped = prior.for_each_frame(|repo, frame, dets| {
                    report.carried_frames += 1;
                    self.merged.push((repo, frame), dets);
                });
                if skipped > 0 {
                    eprintln!(
                        "exsample-persist: carried prior container with {skipped} damaged group(s)"
                    );
                }
            }
            Err(OpenError::Missing) => {}
            Err(e) => eprintln!("exsample-persist: prior container unusable ({e}); will replace"),
        }

        self.merged.settle();
        let bytes = build_container(self.merged.records(), fingerprint, chunk_frames)
            .map_err(CompactError::Build)?;
        report.frames = self.merged.keys.len() as u64;
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
        let verified = ColumnarStore::open(&tmp_path, fingerprint)
            .map_err(|e| e.to_string())
            .and_then(|store| store.verify().map_err(str::to_string));
        if let Err(why) = verified {
            let _ = fs::remove_file(&tmp_path);
            return Err(CompactError::Verify(why));
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

        for path in &self.folded {
            if let Err(e) = fs::remove_file(path) {
                eprintln!(
                    "exsample-persist: folded segment {} not deleted: {e}",
                    path.display()
                );
            }
        }
        sync_dir(dir)?;
        report.completed = true;
        Ok(report)
    }
}

/// Compact `dir`: [`fold_log`], then `Fold::write`. See the module
/// docs for the crash-safety protocol.
pub fn compact(
    dir: &Path,
    fingerprint: u64,
    chunk_frames: u64,
) -> Result<CompactionReport, CompactError> {
    compact_with_kill(dir, fingerprint, chunk_frames, None)
}

/// [`compact`] with an injected crash for tests (see `Fold::write`).
pub fn compact_with_kill(
    dir: &Path,
    fingerprint: u64,
    chunk_frames: u64,
    kill: Option<KillPoint>,
) -> Result<CompactionReport, CompactError> {
    fold_log(dir, fingerprint)?.write(chunk_frames, kill)
}
