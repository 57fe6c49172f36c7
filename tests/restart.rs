//! Integration: the durable detection store across engine restarts,
//! through the facade crate. Startup compaction folds the sealed log into
//! the mapped container, and a reopened engine replays with **zero**
//! detector invocations and bit-identical results; snapshot beliefs come
//! back to the bit; damaged or foreign segments and containers are
//! skipped, counted and never destroyed; a crash or a failed compaction
//! between lives loses nothing; `PersistConfig::columnar` selects no
//! pipeline.

use exsample::colstore::{compact_with_kill, container_path, KillPoint};
use exsample::core::driver::StopCond;
use exsample::core::exsample::{ExSample, ExSampleConfig};
use exsample::core::Chunking;
use exsample::detect::NoiseModel;
use exsample::engine::{
    detector_fingerprint, ColumnarConfig, Engine, EngineConfig, PersistConfig, QuerySpec, RepoId,
    SessionReport, SessionStatus,
};
use exsample::persist::sealed_segments;
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FRAMES: u64 = 20_000;
const DET_SEED: u64 = 5;
const CHUNK_FRAMES: u64 = 512;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repository() -> Arc<GroundTruth> {
    let class = ClassSpec::new("car", 60, 50.0, SkewSpec::CentralNormal { frac95: 0.2 });
    Arc::new(DatasetSpec::single_class(FRAMES, class).generate(17))
}

fn engine_on(dir: &PathBuf, fingerprint: u64) -> (Engine, RepoId) {
    let columnar = ColumnarConfig::new().chunk_frames(CHUNK_FRAMES);
    let engine = engine_with(
        PersistConfig::new(dir)
            .fingerprint(fingerprint)
            .columnar(columnar),
    );
    let repo = engine.register_repo("restart-repo", repository(), NoiseModel::none(), DET_SEED);
    (engine, repo)
}

fn engine_with(persist: PersistConfig) -> Engine {
    Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        persist: Some(persist),
        ..EngineConfig::default()
    })
}

/// Make every compaction of `dir` fail, deterministically and without
/// permission tricks: a *directory* where the compactor creates its temp
/// file. The orphan sweep cannot unlink it and `File::create` fails with
/// `EISDIR`. Returns the path, to be removed with `remove_dir`.
fn block_compaction(dir: &Path) -> PathBuf {
    let blocker = dir.join("detections.xsc.tmp");
    std::fs::create_dir(&blocker).expect("block the compactor's temp path");
    blocker
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

fn curve(report: &SessionReport) -> Vec<(u64, u64)> {
    let points = report.trace.points();
    points.iter().map(|p| (p.samples, p.found)).collect()
}

#[test]
fn restart_replays_from_container_with_zero_invocations() {
    let dir = scratch_dir("colstore-zero-invocations");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    assert!(paid > 0, "cold run must invoke the detector");
    assert_eq!(paid, first.charges.detector_invocations);
    drop(engine);

    // Startup compaction folded the whole log into the container.
    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!((ps.segments_skipped, ps.damaged_tails), (0, 0));
    assert_eq!(ps.container_frames, paid);
    assert!(ps.container_chunks > 0);
    assert_eq!(ps.container_skipped, 0);
    assert!(container_path(&dir).exists());
    assert!(
        sealed_segments(&dir).expect("list").is_empty(),
        "compaction must supersede the folded segments"
    );
    // This start read the whole log — through the compactor — and left
    // none of it behind: the container IS the warm state.
    assert_eq!(ps.records_loaded, paid);
    assert_eq!(engine.cache_stats().warm_loads, 0, "warm loads are lazy");

    // The replay never touches the detector: every sampled frame is a
    // cache miss resolved from the mapped container.
    let replay = run_query(&engine, query(repo));
    assert_eq!(
        engine.detector_invocations(),
        0,
        "replayed frames must come from the container"
    );
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_hits, paid);
    assert!(ps.container_bytes_touched > 0);
    assert!(
        ps.container_bytes_touched
            <= std::fs::metadata(container_path(&dir))
                .expect("metadata")
                .len(),
        "cannot touch more bytes than the container holds"
    );
    assert_eq!(engine.cache_stats().warm_loads, paid);
    assert_eq!(replay.charges.cache_hits, replay.charges.frames);

    // Bit-identical search: same frames, same results, same curve.
    assert_eq!(curve(&replay), curve(&first));
    drop(engine);

    // Container-served frames never re-enter the log: a third incarnation
    // still sees zero sealed segments and replays for free again.
    let (engine, repo) = engine_on(&dir, fingerprint());
    assert!(sealed_segments(&dir).expect("list").is_empty());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!((ps.segments_loaded, ps.records_loaded), (0, 0));
    assert_eq!(ps.container_frames, paid);
    let again = run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), 0);
    assert_eq!(curve(&again), curve(&first));
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
    assert_eq!(curve(&replay), curve(&first));
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

#[test]
fn fingerprint_mismatch_skips_container_non_fatally() {
    let dir = scratch_dir("colstore-upgrade");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    drop(engine);
    // Build the container under the original fingerprint.
    let (engine, _) = engine_on(&dir, fingerprint());
    assert_eq!(
        engine.persist_stats().expect("stats").container_frames,
        paid
    );
    drop(engine);

    // "Detector upgrade": the container is skipped (counted), never
    // deleted, and every frame is recomputed — no failure anywhere.
    let (engine, repo) = engine_on(&dir, 0xDEAD_BEEF);
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_skipped, 1);
    assert_eq!(ps.container_frames, 0);
    assert_eq!(ps.container_hits, 0);
    run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), paid);
    assert!(
        container_path(&dir).exists(),
        "a mismatched container must not be destroyed"
    );
    drop(engine);

    // Rolling back to the original detector finds the container intact
    // and replays for free, ignoring the foreign segments the "upgraded"
    // engine wrote.
    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_skipped, 0);
    assert_eq!(ps.container_frames, paid);
    let replay = run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), 0);
    assert_eq!(curve(&replay), curve(&first));
}

#[test]
fn crash_mid_compaction_between_incarnations_loses_nothing() {
    let dir = scratch_dir("colstore-crash");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    drop(engine);

    // Crash while writing the temp container: the next engine sweeps the
    // orphan, compacts cleanly, and replays from the result.
    let report = compact_with_kill(
        &dir,
        fingerprint(),
        CHUNK_FRAMES,
        Some(KillPoint::MidTmpWrite),
    )
    .expect("killed run returns");
    assert!(!report.completed);
    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_frames, paid);
    let replay = run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), 0);
    assert_eq!(curve(&replay), curve(&first));
    drop(engine);

    // Crash after the rename but before segment cleanup: container and
    // segments coexist; the next startup dedups — no loss, no double
    // counting, same container content.
    let (engine, repo) = engine_on(&dir, fingerprint());
    let more = run_query(
        &engine,
        QuerySpec::new(repo, ClassId(0), StopCond::results(40))
            .chunks(8)
            .seed(123)
            .warm_start(false),
    );
    assert_eq!(more.status, SessionStatus::Done);
    let extra = engine.detector_invocations();
    drop(engine);
    let report = compact_with_kill(
        &dir,
        fingerprint(),
        CHUNK_FRAMES,
        Some(KillPoint::BeforeCleanup),
    )
    .expect("killed run returns");
    assert!(!report.completed && report.rewritten);
    assert!(
        !sealed_segments(&dir).expect("list").is_empty(),
        "the kill point must leave the folded segments behind"
    );

    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(
        ps.container_frames,
        paid + extra,
        "duplicated log records must collapse in the keyed merge"
    );
    assert!(sealed_segments(&dir).expect("list").is_empty());
    let replay = run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), 0);
    assert_eq!(curve(&replay), curve(&first));
}

#[test]
fn failed_startup_compaction_recomputes_and_the_next_clean_start_folds_everything() {
    let dir = scratch_dir("colstore-failed-compaction");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    drop(engine);
    let logged = sealed_segments(&dir).expect("list").len() as u64;
    assert!(logged > 0);

    // The contract given up: with no container, the un-folded log is not
    // a warm read path. It is counted, kept, and not served from.
    let blocker = block_compaction(&dir);
    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_frames, 0);
    assert_eq!((ps.segments_loaded, ps.records_loaded), (logged, paid));
    assert_eq!((ps.segments_skipped, ps.damaged_tails), (0, 0));
    let replay = run_query(&engine, query(repo));
    assert_eq!(curve(&replay), curve(&first));
    assert_eq!(engine.detector_invocations(), paid, "the replay re-pays");
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!((ps.container_hits, ps.log_write_errors), (0, 0));
    drop(engine);
    // The log stayed authoritative: nothing deleted, the re-paid frames
    // appended behind it.
    assert_eq!(
        sealed_segments(&dir).expect("list").len() as u64,
        2 * logged
    );

    // The next clean start folds old and re-appended records alike: one
    // entry per distinct frame, no segment left, a free replay.
    std::fs::remove_dir(&blocker).expect("unblock");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.container_frames, paid, "duplicates collapse");
    assert_eq!(
        (ps.segments_loaded, ps.records_loaded),
        (2 * logged, 2 * paid)
    );
    assert!(sealed_segments(&dir).expect("list").is_empty());
    let again = run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), 0);
    assert_eq!(curve(&again), curve(&first));
}

#[test]
fn failed_compaction_with_a_lost_catalog_reserves_the_ids_in_the_unfolded_log() {
    let dir = scratch_dir("colstore-failed-compaction-lost-catalog");
    let (engine, repo) = engine_on(&dir, fingerprint());
    run_query(&engine, query(repo));
    drop(engine);

    // Compaction fails, and the catalog and every belief snapshot are
    // gone: the only artifact still naming `repo`'s id is the un-folded
    // log. Handing that id to other footage now would have the next clean
    // start fold these records into the container under its name.
    block_compaction(&dir);
    for entry in std::fs::read_dir(&dir).expect("list") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "xsr" || e == "xsb") {
            std::fs::remove_file(&path).expect("remove catalog / snapshot");
        }
    }
    let engine = engine_with(PersistConfig::new(&dir).fingerprint(fingerprint()));
    assert_eq!(engine.persist_stats().expect("stats").container_frames, 0);
    let other = Arc::new(
        DatasetSpec::single_class(5_000, ClassSpec::new("bus", 10, 30.0, SkewSpec::Uniform))
            .generate(3),
    );
    let fresh = engine.register_repo("other-cam", other, NoiseModel::none(), DET_SEED);
    assert!(
        fresh.0 > repo.0,
        "{fresh:?} was handed out although the un-folded log still holds {repo:?}"
    );
}

#[test]
fn an_unreadable_segment_is_counted_once_and_never_deleted() {
    let dir = scratch_dir("colstore-unreadable-segment");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let first = run_query(&engine, query(repo));
    let paid = engine.detector_invocations();
    drop(engine);
    let logged = sealed_segments(&dir).expect("list").len() as u64;

    // A segment name no reader can open: compaction's one scan skips and
    // counts it, folds the rest, and leaves it where it is.
    let unreadable = dir.join("seg-000099.xsd");
    std::fs::create_dir(&unreadable).expect("plant an unreadable segment");
    let (engine, repo) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!(ps.segments_skipped, 1, "counted once, by the one scan");
    assert_eq!((ps.segments_loaded, ps.records_loaded), (logged, paid));
    assert_eq!((ps.container_frames, ps.damaged_tails), (paid, 0));
    let replay = run_query(&engine, query(repo));
    assert_eq!(engine.detector_invocations(), 0);
    assert_eq!(curve(&replay), curve(&first));
    drop(engine);
    assert!(
        unreadable.is_dir(),
        "an unreadable segment is never deleted"
    );
    let (engine, _) = engine_on(&dir, fingerprint());
    let ps = engine.persist_stats().expect("persistence configured");
    assert_eq!((ps.segments_skipped, ps.segments_loaded), (1, 0));
}

#[test]
fn columnar_none_is_the_default_chunk_width_not_another_pipeline() {
    let dir = scratch_dir("colstore-none-equals-default");
    let persist = |dir: &Path| PersistConfig::new(dir).fingerprint(fingerprint());
    let engine = engine_with(persist(&dir));
    let repo = engine.register_repo("restart-repo", repository(), NoiseModel::none(), DET_SEED);
    run_query(&engine, query(repo));
    drop(engine);
    let copy = scratch_dir("colstore-none-equals-default-copy");
    std::fs::create_dir_all(&copy).expect("create copy");
    for entry in std::fs::read_dir(&dir).expect("list") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, copy.join(path.file_name().expect("name"))).expect("copy");
    }

    let second_life = |persist: PersistConfig| {
        let engine = engine_with(persist);
        let at_start = engine.persist_stats().expect("persistence configured");
        let repo = engine.register_repo("restart-repo", repository(), NoiseModel::none(), DET_SEED);
        let replay = run_query(&engine, query(repo));
        (
            at_start,
            engine.persist_stats().expect("persistence configured"),
            engine.cache_stats(),
            curve(&replay),
        )
    };
    let implicit = second_life(persist(&dir));
    let explicit = second_life(persist(&copy).columnar(ColumnarConfig::new()));
    assert_eq!(implicit, explicit);
    assert!(implicit.0.container_frames > 0);
    assert_eq!(implicit.2.misses, 0, "both replays are container-served");
}
