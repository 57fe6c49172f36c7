//! Integration: the durable detection store across engine restarts.
//!
//! Covers the PR's acceptance criteria end to end through the facade
//! crate: a reopened engine answers previously-detected frames with zero
//! detector invocations; warm-started beliefs are bit-identical to the
//! `ChunkStats` the prior run held at snapshot time; corrupted or
//! fingerprint-mismatched segments are skipped (counted) rather than
//! poisoning the store.

use exsample::core::driver::StopCond;
use exsample::core::exsample::{ExSample, ExSampleConfig};
use exsample::core::Chunking;
use exsample::detect::NoiseModel;
use exsample::engine::{
    detector_fingerprint, Engine, EngineConfig, PersistConfig, QuerySpec, RepoId, SessionReport,
    SessionStatus,
};
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::path::PathBuf;
use std::sync::Arc;

const FRAMES: u64 = 20_000;
const DET_SEED: u64 = 5;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repository() -> Arc<GroundTruth> {
    Arc::new(
        DatasetSpec::single_class(
            FRAMES,
            ClassSpec::new("car", 60, 50.0, SkewSpec::CentralNormal { frac95: 0.2 }),
        )
        .generate(17),
    )
}

fn engine_on(dir: &PathBuf, fingerprint: u64) -> (Engine, RepoId) {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        persist: Some(PersistConfig::new(dir).fingerprint(fingerprint)),
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("restart-repo", repository(), NoiseModel::none(), DET_SEED);
    (engine, repo)
}

fn fingerprint() -> u64 {
    detector_fingerprint(&NoiseModel::none(), DET_SEED)
}

/// The reference query, replayable bit-for-bit (cold beliefs).
fn query(repo: RepoId) -> QuerySpec {
    QuerySpec::new(repo, ClassId(0), StopCond::results(30))
        .chunks(8)
        .seed(9)
        .warm_start(false)
}

fn run_query(engine: &Engine, spec: QuerySpec) -> SessionReport {
    let report = engine
        .wait(engine.submit(spec).expect("valid spec"))
        .expect("session finishes");
    assert_eq!(report.status, SessionStatus::Done);
    report
}

#[test]
fn reopened_engine_answers_previous_frames_with_zero_invocations() {
    let dir = scratch_dir("zero-invocations");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    assert!(paid > 0, "cold run must invoke the detector");
    assert_eq!(paid, first.charges.detector_invocations);
    drop(engine);

    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.records_loaded, paid);
    assert_eq!(ps.segments_skipped, 0);
    assert_eq!(ps.damaged_tails, 0);

    let replay = run_query(&engine, query(repo));
    assert_eq!(
        engine.detector_invocations(),
        0,
        "previously-detected frames must come from the durable store"
    );
    assert_eq!(replay.charges.cache_hits, replay.charges.frames);
    // Warm loads are lazy: each replayed frame was read back on touch.
    assert_eq!(engine.cache_stats().warm_loads, paid);
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_hits, paid);
    // The replay is the same search: identical frames, identical results.
    assert_eq!(replay.trace.samples(), first.trace.samples());
    assert_eq!(replay.trace.found(), first.trace.found());
    let first_curve: Vec<_> = first
        .trace
        .points()
        .iter()
        .map(|p| (p.samples, p.found))
        .collect();
    let replay_curve: Vec<_> = replay
        .trace
        .points()
        .iter()
        .map(|p| (p.samples, p.found))
        .collect();
    assert_eq!(first_curve, replay_curve);
}

#[test]
fn warm_started_beliefs_are_bit_identical_to_snapshot() {
    let dir = scratch_dir("belief-bits");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    assert_eq!(first.chunk_stats.len(), 8);
    assert!(first.chunk_stats.iter().any(|s| s.n1 != 0.0 || s.n != 0));
    drop(engine);

    // The reopened engine serves the snapshot exactly as the prior run
    // held it at snapshot time — raw f64 bits and all.
    let (engine, repo) = engine_on(&dir, fingerprint());
    let warm = engine
        .warm_beliefs(repo, ClassId(0), 8)
        .expect("snapshot persisted");
    assert_eq!(warm.len(), first.chunk_stats.len());
    for (loaded, held) in warm.iter().zip(&first.chunk_stats) {
        assert_eq!(loaded.n1.to_bits(), held.n1.to_bits());
        assert_eq!(loaded.n, held.n);
    }
    // And a warm-started sampler adopts them verbatim.
    let mut sampler = ExSample::new(Chunking::even(FRAMES, 8), ExSampleConfig::default());
    sampler.import_stats(&warm);
    for (adopted, held) in sampler.chunk_stats().iter().zip(&first.chunk_stats) {
        assert_eq!(adopted.n1.to_bits(), held.n1.to_bits());
        assert_eq!(adopted.n, held.n);
    }
    // A warm-started engine session runs to completion over them.
    let warm_report = run_query(&engine, query(repo).warm_start(true).seed(77));
    assert!(warm_report.trace.found() >= 30);
}

#[test]
fn corrupt_and_mismatched_segments_are_skipped_not_poisoning() {
    let dir = scratch_dir("corruption");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    drop(engine);

    // Flip one byte mid-segment (bit rot) ...
    let seg = dir.join("seg-000000.xsd");
    let mut raw = std::fs::read(&seg).expect("segment exists");
    let idx = raw.len() / 2;
    raw[idx] ^= 0x20;
    std::fs::write(&seg, &raw).expect("rewrite segment");
    // ... drop in a segment from a "different detector version" ...
    let foreign_cfg = PersistConfig::new(&dir).fingerprint(fingerprint() ^ 1);
    let mut foreign = exsample::persist::DetectionLog::open(&foreign_cfg).expect("open");
    foreign.append(repo.0, 1, &[]);
    drop(foreign);
    // ... and a file that is not a segment at all.
    std::fs::write(dir.join("seg-000099.xsd"), b"garbage").expect("write garbage");

    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.segments_skipped, 2, "foreign + garbage segments skipped");
    assert_eq!(ps.damaged_tails, 1, "bit flip abandoned the tail");
    assert!(
        ps.records_loaded < paid,
        "the flip cost at least one record"
    );
    assert_eq!(ps.container_frames, ps.records_loaded);

    // Not poisoned: the replay recomputes exactly the lost records and
    // still produces identical results.
    let replay = run_query(&engine, query(repo));
    assert_eq!(replay.trace.found(), first.trace.found());
    assert_eq!(replay.trace.samples(), first.trace.samples());
    assert_eq!(engine.detector_invocations(), paid - ps.records_loaded);
    assert_eq!(engine.cache_stats().warm_loads, ps.records_loaded);
    let after = engine.persist_stats().expect("persistence configured");
    assert_eq!(after.container_hits, ps.records_loaded);
}

#[test]
fn fingerprint_change_invalidates_everything() {
    let dir = scratch_dir("upgrade");
    let (engine, repo) = engine_on(&dir, fingerprint());
    run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    drop(engine);

    // "Detector upgrade": same directory, new fingerprint.
    let (engine, repo) = engine_on(&dir, 0xDEAD_BEEF);
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.records_loaded, 0);
    assert!(ps.segments_skipped >= 1);
    assert_eq!(ps.snapshots_loaded, 0);
    assert!(ps.snapshots_skipped >= 1);
    assert!(engine.warm_beliefs(repo, ClassId(0), 8).is_none());
    // Every frame is recomputed under the "new" detector.
    run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), paid);
}
