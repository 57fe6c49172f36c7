//! Integration test: many concurrent sessions over one repository must
//! all reach their stop conditions, share detector work through the
//! cache, and produce results that are deterministic under fixed seeds.

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{Engine, EngineConfig, QuerySpec, SessionReport, SessionStatus};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::Arc;

fn repository() -> Arc<GroundTruth> {
    // Rare objects in a hot region: sessions chasing high recall sweep
    // overlapping frames.
    Arc::new(
        DatasetSpec::single_class(
            50_000,
            ClassSpec::new("car", 60, 50.0, SkewSpec::CentralNormal { frac95: 0.15 }),
        )
        .generate(41),
    )
}

/// Submit six concurrent sessions (mixed targets, weights, seeds) and
/// wait for all of them.
fn run_fleet(workers: usize) -> (Vec<SessionReport>, u64, u64) {
    run_fleet_batched(workers, 1)
}

/// [`run_fleet`] with a detector batch size (§III-F) for every session.
fn run_fleet_batched(workers: usize, batch: u32) -> (Vec<SessionReport>, u64, u64) {
    let engine = Engine::new(EngineConfig {
        workers,
        quantum: 8,
        batch,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("it-repo", repository(), NoiseModel::none(), 3);
    let specs: Vec<QuerySpec> = (0..6)
        .map(|i| {
            QuerySpec::new(repo, ClassId(0), StopCond::results(40 + 2 * i as u64))
                .chunks(16)
                .weight(1 + (i % 3) as u32)
                .seed(900 + i as u64)
        })
        .collect();
    let ids: Vec<_> = specs
        .into_iter()
        .map(|s| engine.submit(s).expect("valid spec"))
        .collect();
    let reports: Vec<SessionReport> = ids
        .into_iter()
        .map(|id| engine.wait(id).expect("session finishes"))
        .collect();
    let stats = engine.cache_stats();
    (reports, stats.hits, engine.detector_invocations())
}

#[test]
fn concurrent_sessions_reach_stop_share_cache_and_are_deterministic() {
    let (reports, hits, invocations) = run_fleet(4);

    // Every session reached its StopCond (the result limit, not
    // exhaustion or cancellation).
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.status, SessionStatus::Done, "session {i}");
        assert!(!r.trace.exhausted(), "session {i} exhausted the repository");
        assert!(
            r.trace.found() >= 40 + 2 * i as u64,
            "session {i} under target"
        );
        // The ledger is consistent: every frame was a hit or an invocation.
        assert_eq!(
            r.charges.cache_hits + r.charges.detector_invocations,
            r.charges.frames,
            "session {i} ledger"
        );
        assert_eq!(r.trace.samples(), r.charges.frames, "session {i} samples");
    }

    // Overlap was shared: hits happened, and the engine paid for strictly
    // fewer invocations than the frames it served.
    let total_frames: u64 = reports.iter().map(|r| r.charges.frames).sum();
    assert!(hits > 0, "no cache hits across six overlapping sessions");
    assert_eq!(hits + invocations, total_frames);
    assert!(invocations < total_frames);

    // Determinism: a second engine with the same seeds reproduces every
    // session's sampled-frame count, result count, and discovery curve —
    // and (with no evictions) the same total detector spend — regardless
    // of worker interleaving. Use a different worker count to stress that
    // independence.
    let (again, hits2, invocations2) = run_fleet(2);
    assert_eq!(reports.len(), again.len());
    for (a, b) in reports.iter().zip(&again) {
        assert_eq!(a.trace.samples(), b.trace.samples());
        assert_eq!(a.trace.found(), b.trace.found());
        let curve_a: Vec<(u64, u64)> = a
            .trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect();
        let curve_b: Vec<(u64, u64)> = b
            .trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect();
        assert_eq!(curve_a, curve_b);
    }
    assert_eq!(
        invocations, invocations2,
        "detector spend is not reproducible"
    );
    assert_eq!(hits, hits2);
}

#[test]
fn batched_sessions_are_deterministic_across_worker_counts() {
    // §III-F batched dispatch: the fleet steps in 8-frame detector
    // batches. Each session's frame sequence (and therefore its trace) is
    // a pure function of its spec and batch size — it must not depend on
    // how many workers interleave the sessions or on the hit/miss
    // partition those interleavings produce.
    let (reports, hits, invocations) = run_fleet_batched(4, 8);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.status, SessionStatus::Done, "session {i}");
        assert!(
            r.trace.found() >= 40 + 2 * i as u64,
            "session {i} under target"
        );
        assert_eq!(
            r.charges.cache_hits + r.charges.detector_invocations,
            r.charges.frames,
            "session {i} ledger"
        );
        // Batching amortizes dispatches: never more dispatches than
        // invocations, and with batches of 8 over a mostly-cold cache,
        // strictly fewer.
        assert!(
            r.charges.dispatches <= r.charges.detector_invocations,
            "session {i}: {} dispatches for {} invocations",
            r.charges.dispatches,
            r.charges.detector_invocations
        );
    }
    let total_dispatches: u64 = reports.iter().map(|r| r.charges.dispatches).sum();
    assert!(
        total_dispatches < invocations,
        "8-frame batches did not amortize dispatches: {total_dispatches} >= {invocations}"
    );
    assert!(hits > 0, "batched sessions stopped sharing the cache");

    let (again, _, invocations2) = run_fleet_batched(1, 8);
    for (a, b) in reports.iter().zip(&again) {
        assert_eq!(a.trace.samples(), b.trace.samples());
        assert_eq!(a.trace.found(), b.trace.found());
        let curve_a: Vec<(u64, u64)> = a
            .trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect();
        let curve_b: Vec<(u64, u64)> = b
            .trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect();
        assert_eq!(curve_a, curve_b, "batched trace depends on worker count");
    }
    assert_eq!(invocations, invocations2);
}

#[test]
fn exhaustive_sweeps_are_complete_and_billed_once_per_frame_at_any_batch_size() {
    // Every query samples every frame, so batching can change neither
    // what is found nor what the detector runs on.
    let gt = Arc::new(
        DatasetSpec::single_class(
            5_000,
            ClassSpec::new("car", 20, 40.0, SkewSpec::CentralNormal { frac95: 0.15 }),
        )
        .generate(7),
    );
    for batch in [1, 8] {
        let engine = Engine::new(EngineConfig {
            workers: 3,
            batch,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("sweep-repo", gt.clone(), NoiseModel::none(), 3);
        let ids: Vec<_> = (0..3)
            .map(|q| {
                let spec = QuerySpec::new(repo, ClassId(0), StopCond::samples(gt.frames));
                engine.submit(spec.chunks(8).seed(70 + q)).expect("valid")
            })
            .collect();
        for id in ids {
            let report = engine.wait(id).expect("session finishes");
            assert_eq!(report.trace.found(), 20, "incomplete sweep, batch {batch}");
            assert_eq!(report.charges.frames, gt.frames);
        }
        assert_eq!(engine.detector_invocations(), gt.frames, "batch {batch}");
    }
}

#[test]
fn per_query_batch_override_takes_precedence_over_engine_default() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        batch: 1,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("it-repo", repository(), NoiseModel::none(), 3);
    // Batch larger than the quantum: capped per lease, still correct.
    let batched = engine
        .submit(
            QuerySpec::new(repo, ClassId(0), StopCond::results(30))
                .chunks(16)
                .seed(77)
                .batch(64),
        )
        .expect("valid spec");
    let per_frame = engine
        .submit(
            QuerySpec::new(repo, ClassId(0), StopCond::results(30))
                .chunks(16)
                .seed(78),
        )
        .expect("valid spec");
    let batched = engine.wait(batched).expect("finishes");
    let per_frame = engine.wait(per_frame).expect("finishes");
    assert!(batched.trace.found() >= 30);
    assert!(per_frame.trace.found() >= 30);
    assert!(
        batched.charges.dispatches < batched.charges.detector_invocations,
        "override ignored: {} dispatches for {} invocations",
        batched.charges.dispatches,
        batched.charges.detector_invocations
    );
    // The engine-default session dispatches per miss.
    assert_eq!(
        per_frame.charges.dispatches,
        per_frame.charges.detector_invocations
    );
}
