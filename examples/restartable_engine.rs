//! Yesterday's GPU bill, not paid twice: the restartable engine.
//!
//! A fleet of overlapping queries runs through a persistence-enabled
//! engine, which writes every detector invocation behind the cache into
//! an append-only, CRC-checked detection log and snapshots each finished
//! session's chunk beliefs. The engine is then dropped — "the service
//! restarted" — and a fresh engine reopens the same directory, folds the
//! sealed log into the memory-mapped columnar container, and:
//!
//! * replaying the identical fleet costs **zero** detector invocations
//!   (every sampled frame is a cache miss answered from the container's
//!   columns — only the chunks a query touches are read), and
//! * a brand-new query warm-starts its beliefs from what earlier
//!   sessions learned about where results live.
//!
//! ```text
//! cargo run --release --example restartable_engine [-- <persist-dir>]
//! ```
//!
//! Pass a directory to persist across *process* runs: on a second
//! invocation even the "cold" fleet is answered from disk, so the
//! printed `total detector invocations:` drops — CI runs this example
//! twice and fails unless the second run's total is strictly smaller
//! and its `container hits:` line is positive.

use exsample::core::driver::StopCond;
use exsample::detect::NoiseModel;
use exsample::engine::{
    dataset_fingerprint, detector_fingerprint, Engine, EngineConfig, PersistConfig, QuerySpec,
    RepoId, SessionStatus,
};
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::Arc;

const DET_SEED: u64 = 7;

fn repository() -> Arc<GroundTruth> {
    Arc::new(
        DatasetSpec::single_class(
            100_000,
            ClassSpec::new("car", 120, 60.0, SkewSpec::CentralNormal { frac95: 0.15 }),
        )
        .generate(2026),
    )
}

fn engine_on(dir: &std::path::Path, gt: &Arc<GroundTruth>) -> Engine {
    // Detector config AND footage identity: swapping either invalidates
    // the store instead of serving stale detections.
    let fingerprint = detector_fingerprint(&NoiseModel::none(), DET_SEED) ^ dataset_fingerprint(gt);
    Engine::new(EngineConfig {
        persist: Some(PersistConfig::new(dir).fingerprint(fingerprint)),
        ..EngineConfig::default()
    })
}

/// Run the standard fleet (cold beliefs for exact replayability) and
/// return the detector invocations it caused on this engine.
fn run_fleet(engine: &Engine, repo: RepoId) -> u64 {
    let before = engine.detector_invocations();
    let ids: Vec<_> = (0..4)
        .map(|q| {
            engine
                .submit(
                    QuerySpec::new(repo, ClassId(0), StopCond::results(100 + q))
                        .chunks(16)
                        .seed(40 + q)
                        .warm_start(false),
                )
                .expect("valid query")
        })
        .collect();
    for id in ids {
        let report = engine.wait(id).expect("session finishes");
        assert_eq!(report.status, SessionStatus::Done);
    }
    engine.detector_invocations() - before
}

fn main() {
    let dir = std::env::args().nth(1).map_or_else(
        || std::env::temp_dir().join(format!("exsample-restartable-{}", std::process::id())),
        std::path::PathBuf::from,
    );
    println!("persist directory: {}\n", dir.display());
    let gt = repository();

    // ── first incarnation ───────────────────────────────────────────────
    let engine = engine_on(&dir, &gt);
    let stats = engine.persist_stats().expect("persistence on");
    println!(
        "engine 1 up: {} log records folded, container holds {} frames, {} belief snapshots",
        stats.records_loaded, stats.container_frames, stats.beliefs_resident
    );
    let repo = engine.register_repo("restartable-cam", gt.clone(), NoiseModel::none(), DET_SEED);
    let fleet1 = run_fleet(&engine, repo);
    println!("fleet of 4 queries: {fleet1} detector invocations");
    println!("cache: {}", engine.cache_stats());
    drop(engine); // ── the service restarts ──
    println!("\nengine 1 dropped (detection log fsynced); reopening …\n");

    // ── second incarnation, same directory ──────────────────────────────
    let engine = engine_on(&dir, &gt);
    let stats = engine.persist_stats().expect("persistence on");
    println!(
        "engine 2 up: {} log records folded, container holds {} frames, {} belief snapshots",
        stats.records_loaded, stats.container_frames, stats.beliefs_resident
    );
    let repo = engine.register_repo("restartable-cam", gt.clone(), NoiseModel::none(), DET_SEED);
    let replay = run_fleet(&engine, repo);
    println!("replayed fleet: {replay} detector invocations");
    assert_eq!(
        replay, 0,
        "previously-detected frames must be answered from the container"
    );

    // A query this deployment has never seen, warm-started from the
    // beliefs earlier sessions persisted.
    let probe = engine
        .submit(
            QuerySpec::new(repo, ClassId(0), StopCond::results(100))
                .chunks(16)
                .seed(999),
        )
        .expect("valid query");
    let probe = engine.wait(probe).expect("probe finishes");
    println!(
        "unseen probe query (warm beliefs): found {} in {} samples, {} detector invocations",
        probe.trace.found(),
        probe.trace.samples(),
        probe.charges.detector_invocations
    );
    println!("cache: {}", engine.cache_stats());

    let total = fleet1 + replay + probe.charges.detector_invocations;
    println!("\ncold-vs-warm: fleet paid {fleet1} detector invocations before the restart and {replay} after");
    // Machine-readable lines compared across process runs by CI (the
    // hits are the second incarnation's).
    println!("total detector invocations: {total}");
    let stats = engine.persist_stats().expect("persistence on");
    println!("container hits: {}", stats.container_hits);
    drop(engine);

    // Only clean up self-made scratch dirs; an explicit argument means
    // the caller owns the directory (and wants it to persist).
    if std::env::args().nth(1).is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
