//! Crash-safety tests for the compactor: a simulated kill at every
//! protocol boundary must leave the detection log authoritative, leak no
//! readable garbage, and let the next clean compaction converge to the
//! exact same container with no loss and no duplicates.

use exsample_detect::Detection;
use exsample_persist::container::{
    compact, compact_with_kill, container_path, sweep_orphans, ColumnarStore, KillPoint, TMP_SUFFIX,
};
use exsample_persist::{scan_detections, sealed_segments, DetectionLog, PersistConfig};
use exsample_videosim::{BBox, ClassId, InstanceId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const FINGERPRINT: u64 = 0xC0FFEE;
const CHUNK_FRAMES: u64 = 64;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn make_det(seed: u64) -> Detection {
    let f = |shift: u64| ((seed >> shift) & 0xFF) as f32;
    Detection {
        bbox: BBox::new(f(0), f(8), f(0) + 10.0, f(8) + 10.0),
        class: ClassId((seed % 7) as u16),
        score: (seed % 1000) as f32 / 1000.0,
        truth: if seed.is_multiple_of(3) {
            None
        } else {
            Some(InstanceId((seed >> 16) as u32))
        },
    }
}

/// Write `n` records across several sealed segments and return the
/// ground-truth `(repo, frame) → detections` map.
fn seed_log(dir: &Path, n: u64) -> BTreeMap<(u32, u64), Vec<Detection>> {
    let cfg = PersistConfig::new(dir)
        .fingerprint(FINGERPRINT)
        .segment_records(16)
        .flush_every(1);
    let mut log = DetectionLog::open(&cfg).expect("open log");
    let mut truth = BTreeMap::new();
    for i in 0..n {
        let repo = (i % 3) as u32;
        let frame = i * 5 + u64::from(repo);
        let dets = vec![make_det(i.wrapping_mul(0x9E37_79B9)), make_det(i ^ 0xDEAD)];
        log.append(repo, frame, &dets);
        truth.insert((repo, frame), dets);
    }
    assert_eq!(log.write_errors(), 0);
    drop(log);
    truth
}

/// Everything currently readable from the log segments.
fn log_view(dir: &Path) -> BTreeMap<(u32, u64), Vec<Detection>> {
    let mut out = BTreeMap::new();
    scan_detections(dir, FINGERPRINT, |rec| {
        assert!(
            out.insert((rec.repo, rec.frame), rec.dets).is_none(),
            "log replay produced a duplicate record"
        );
    })
    .expect("scan log");
    out
}

/// Everything a restarted engine would see: container (when live and
/// matching) unioned with the log — the exact merge the engine performs.
fn merged_view(dir: &Path) -> BTreeMap<(u32, u64), Vec<Detection>> {
    let mut out = BTreeMap::new();
    if let Ok(store) = ColumnarStore::open(&container_path(dir), FINGERPRINT) {
        store.for_each_frame(|repo, frame, dets| {
            out.insert((repo, frame), dets.to_vec());
        });
    }
    for (key, dets) in log_view(dir) {
        out.entry(key).or_insert(dets);
    }
    out
}

fn container_view(dir: &Path) -> BTreeMap<(u32, u64), Vec<Detection>> {
    let store = ColumnarStore::open(&container_path(dir), FINGERPRINT).expect("open container");
    let mut out = BTreeMap::new();
    let skipped = store.for_each_frame(|repo, frame, dets| {
        out.insert((repo, frame), dets.to_vec());
    });
    assert_eq!(skipped, 0, "container has damaged groups");
    out
}

fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| {
            let p = e.expect("entry").path();
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(TMP_SUFFIX))
                .then_some(p)
        })
        .collect()
}

#[test]
fn kill_mid_tmp_write_leaves_log_authoritative() {
    let dir = scratch_dir("kill-mid-tmp-write");
    let truth = seed_log(&dir, 100);

    let report = compact_with_kill(
        &dir,
        FINGERPRINT,
        CHUNK_FRAMES,
        Some(KillPoint::MidTmpWrite),
    )
    .expect("killed run still returns");
    assert!(!report.completed);
    assert!(!report.rewritten);

    // The crash left a half-written temp file; it is not readable state.
    assert_eq!(tmp_files(&dir).len(), 1, "expected the torn temp file");
    assert!(!container_path(&dir).exists());
    assert_eq!(log_view(&dir), truth, "log damaged by a failed compaction");
    assert_eq!(merged_view(&dir), truth);

    // Recovery: the next compaction sweeps the orphan and completes.
    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("clean compact");
    assert!(report.completed && report.rewritten);
    assert_eq!(report.frames, truth.len() as u64);
    assert!(tmp_files(&dir).is_empty());
    assert!(sealed_segments(&dir).expect("list").is_empty());
    assert_eq!(container_view(&dir), truth);
    assert_eq!(merged_view(&dir), truth);
}

#[test]
fn kill_before_rename_leaves_log_authoritative() {
    let dir = scratch_dir("kill-before-rename");
    let truth = seed_log(&dir, 100);

    let report = compact_with_kill(
        &dir,
        FINGERPRINT,
        CHUNK_FRAMES,
        Some(KillPoint::BeforeRename),
    )
    .expect("killed run still returns");
    assert!(!report.completed);
    assert!(!report.rewritten);

    // Fully written and verified, but never made live: still just a temp.
    assert_eq!(tmp_files(&dir).len(), 1);
    assert!(!container_path(&dir).exists());
    assert_eq!(log_view(&dir), truth);
    assert_eq!(merged_view(&dir), truth);

    // An explicit sweep (what an engine restart does) removes the orphan.
    assert_eq!(sweep_orphans(&dir).expect("sweep"), 1);
    assert!(tmp_files(&dir).is_empty());

    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("clean compact");
    assert!(report.completed && report.rewritten);
    assert!(sealed_segments(&dir).expect("list").is_empty());
    assert_eq!(container_view(&dir), truth);
}

#[test]
fn kill_before_cleanup_duplicates_but_never_loses() {
    let dir = scratch_dir("kill-before-cleanup");
    let truth = seed_log(&dir, 100);
    let n_segments = sealed_segments(&dir).expect("list").len();
    assert!(n_segments > 1, "test needs several segments");

    let report = compact_with_kill(
        &dir,
        FINGERPRINT,
        CHUNK_FRAMES,
        Some(KillPoint::BeforeCleanup),
    )
    .expect("killed run still returns");
    assert!(!report.completed);
    assert!(report.rewritten, "rename already happened");

    // Both the container and the folded segments exist: duplicated state,
    // and the keyed merge collapses it without loss.
    assert!(container_path(&dir).exists());
    assert_eq!(sealed_segments(&dir).expect("list").len(), n_segments);
    assert_eq!(container_view(&dir), truth);
    assert_eq!(log_view(&dir), truth);
    assert_eq!(merged_view(&dir), truth);

    // The follow-up compaction carries the container, re-folds the
    // segments (pure duplicates), and finally deletes them.
    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("clean compact");
    assert!(report.completed && report.rewritten);
    assert_eq!(report.carried_frames, truth.len() as u64);
    assert_eq!(
        report.frames,
        truth.len() as u64,
        "duplicates not collapsed"
    );
    assert!(sealed_segments(&dir).expect("list").is_empty());
    assert_eq!(container_view(&dir), truth);
    assert_eq!(merged_view(&dir), truth);
}

#[test]
fn every_kill_point_chain_converges() {
    // A worst-case history: crash at every boundary in sequence, with new
    // records arriving between crashes. Nothing may be lost at any step.
    let dir = scratch_dir("kill-chain");
    let mut truth = seed_log(&dir, 60);

    for (round, kill) in [
        KillPoint::MidTmpWrite,
        KillPoint::BeforeRename,
        KillPoint::BeforeCleanup,
    ]
    .into_iter()
    .enumerate()
    {
        let report = compact_with_kill(&dir, FINGERPRINT, CHUNK_FRAMES, Some(kill))
            .expect("killed run still returns");
        assert!(!report.completed);
        assert_eq!(merged_view(&dir), truth, "loss after {kill:?}");

        // More records land after the crash (a new engine incarnation).
        let cfg = PersistConfig::new(&dir)
            .fingerprint(FINGERPRINT)
            .segment_records(16)
            .flush_every(1);
        let mut log = DetectionLog::open(&cfg).expect("reopen log");
        for i in 0..10u64 {
            let frame = 10_000 + round as u64 * 100 + i;
            let dets = vec![make_det(frame)];
            log.append(9, frame, &dets);
            truth.insert((9, frame), dets);
        }
        drop(log);
        assert_eq!(merged_view(&dir), truth, "append lost after {kill:?}");
    }

    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("final compact");
    assert!(report.completed && report.rewritten);
    assert_eq!(container_view(&dir), truth);
    assert!(sealed_segments(&dir).expect("list").is_empty());
    assert_eq!(merged_view(&dir), truth);
}

#[test]
fn no_op_and_foreign_fingerprint_segments_survive() {
    let dir = scratch_dir("compact-noop-foreign");

    // Empty directory: a completed no-op, nothing written.
    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("empty compact");
    assert!(report.completed && !report.rewritten);
    assert!(!container_path(&dir).exists());

    // Segments under a different fingerprint are never folded or deleted.
    let foreign = seed_log(&dir, 30);
    let report = compact(&dir, FINGERPRINT ^ 1, CHUNK_FRAMES).expect("foreign compact");
    assert!(report.completed && !report.rewritten);
    assert_eq!(report.log.segments_loaded, 0);
    assert!(!container_path(&dir).exists());
    assert_eq!(
        log_view(&dir),
        foreign,
        "foreign segments must be untouched"
    );

    // The matching compactor folds them fine afterwards.
    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("matching compact");
    assert!(report.completed && report.rewritten);
    assert_eq!(container_view(&dir), foreign);

    // Already compact: a second run finds nothing to fold and returns
    // without carrying (reading) a single frame of the container.
    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("second compact");
    assert!(report.completed && !report.rewritten);
    assert_eq!(report.carried_frames, 0);
    assert_eq!(container_view(&dir), foreign);
}

#[test]
fn an_unreadable_segment_is_skipped_once_and_never_deleted() {
    let dir = scratch_dir("compact-unreadable-segment");
    let truth = seed_log(&dir, 40);
    let loaded = sealed_segments(&dir).expect("list").len() as u64;
    let unreadable = dir.join("seg-000099.xsd");
    std::fs::create_dir(&unreadable).expect("plant an unreadable segment");

    let report = compact(&dir, FINGERPRINT, CHUNK_FRAMES).expect("compact");
    assert!(report.completed && report.rewritten);
    assert_eq!(report.log.segments_skipped, 1);
    assert_eq!(report.log.segments_loaded, loaded);
    assert_eq!(report.log.records_loaded, truth.len() as u64);
    assert!(
        unreadable.is_dir(),
        "an unreadable segment is never deleted"
    );
    assert_eq!(sealed_segments(&dir).expect("list").len(), 1);
    assert_eq!(container_view(&dir), truth);
}
