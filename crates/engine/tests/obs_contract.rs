//! The instrumentation contract: the flight recorder accounts for every
//! detector invocation via dispatch spans (at batch sizes 1 and 8), the
//! event counts are deterministic across worker counts, and switching
//! observability off changes nothing about the search results.

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{Diagnostics, Engine, EngineConfig, QuerySpec, SearchService};
use exsample_obs::{validate_spans, SpanId, Stage, TraceId};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::Arc;

fn truth() -> Arc<GroundTruth> {
    Arc::new(
        DatasetSpec::single_class(
            20_000,
            ClassSpec::new("car", 60, 200.0, SkewSpec::CentralNormal { frac95: 0.2 }),
        )
        .generate(17),
    )
}

/// Run one fixed session to completion and return the diagnostics plus
/// the engine's detector-invocation count. The flight ring keeps the
/// last 4096 events; the session's are checked to fit well inside it, so
/// event counts are over the whole session, not a window of it.
fn run_session(workers: usize, batch: u32) -> (Diagnostics, u64, Vec<(u64, u64)>) {
    let engine = Engine::new(EngineConfig {
        workers,
        quantum: 8,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("cam", truth(), NoiseModel::none(), 5);
    let spec = QuerySpec::new(repo, ClassId(0), StopCond::samples(400))
        .seed(9)
        .batch(batch);
    let id = engine.submit(spec).unwrap();
    let report = engine.wait(id).unwrap();
    let curve = report
        .trace
        .points()
        .iter()
        .map(|p| (p.samples, p.found))
        .collect();
    let diag = engine.diagnostics();
    assert!(
        diag.events.len() * 4 < 4096,
        "400 samples must stay well under the 4096-event ring: {} events",
        diag.events.len()
    );
    (diag, engine.detector_invocations(), curve)
}

/// Every detector invocation is covered by a dispatch span: the sum of
/// dispatch-event keys (misses per dispatch) equals the engine's
/// invocation count, at single-frame and batched dispatch alike.
#[test]
fn dispatch_events_account_for_every_invocation() {
    for batch in [1u32, 8] {
        let (diag, invocations, _) = run_session(2, batch);
        assert!(invocations > 0, "workload must run the detector");
        let dispatch_events: Vec<_> = diag
            .events
            .iter()
            .filter(|e| e.stage == Stage::Dispatch)
            .collect();
        let covered: u64 = dispatch_events.iter().map(|e| e.key).sum();
        assert_eq!(
            covered, invocations,
            "batch={batch}: dispatch events must cover every detector invocation"
        );
        // The dispatch histogram agrees with the event log.
        let hist = diag.histogram("dispatch_ns").expect("dispatch histogram");
        assert_eq!(hist.total(), dispatch_events.len() as u64);
        // At B=1 every dispatch resolves exactly one miss.
        if batch == 1 {
            assert!(dispatch_events.iter().all(|e| e.key == 1));
        }
    }
}

/// A single session's event *counts* are a pure function of the spec —
/// identical across worker-pool sizes, like the trace itself.
#[test]
fn event_counts_deterministic_across_worker_counts() {
    for batch in [1u32, 8] {
        let (d1, inv1, curve1) = run_session(1, batch);
        let (d4, inv4, curve4) = run_session(4, batch);
        assert_eq!(curve1, curve4, "trace determinism (batch={batch})");
        assert_eq!(inv1, inv4, "invocation determinism (batch={batch})");
        let count =
            |d: &Diagnostics, stage: Stage| d.events.iter().filter(|e| e.stage == stage).count();
        for stage in [Stage::Dispatch, Stage::CacheWait] {
            assert_eq!(
                count(&d1, stage),
                count(&d4, stage),
                "event count for {stage} (batch={batch})"
            );
        }
        // Histogram totals for per-frame work agree too.
        for name in ["dispatch_ns", "batch_assembly_ns"] {
            assert_eq!(
                d1.histogram(name).unwrap().total(),
                d4.histogram(name).unwrap().total(),
                "{name} total (batch={batch})"
            );
        }
        assert_eq!(d1.counter("frames_total"), d4.counter("frames_total"));
    }
}

/// Observability off: identical results, all-zero diagnostics with the
/// same metric shape.
#[test]
fn observe_off_is_inert_but_shape_stable() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        observe: false,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("cam", truth(), NoiseModel::none(), 5);
    let id = engine
        .submit(
            QuerySpec::new(repo, ClassId(0), StopCond::samples(200))
                .seed(9)
                .batch(4),
        )
        .unwrap();
    engine.wait(id).unwrap();
    let diag = engine.diagnostics();
    assert!(diag.events.is_empty());
    assert!(diag.histograms.iter().all(|(_, s)| s.is_empty()));
    assert!(diag.counters.iter().all(|(_, v)| *v == 0));
    assert!(diag.histogram("dispatch_ns").is_some());
}

/// Tracing is observational-only: the search trace is bit-identical
/// with observability (histograms, flight ring, span trees) on or off.
#[test]
fn tracing_on_or_off_is_bit_identical() {
    let run = |observe: bool| {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            quantum: 8,
            observe,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("cam", truth(), NoiseModel::none(), 5);
        let id = engine
            .submit(
                QuerySpec::new(repo, ClassId(0), StopCond::samples(300))
                    .seed(11)
                    .batch(4),
            )
            .unwrap();
        let report = engine.wait(id).unwrap();
        (
            report.trace.points().to_vec(),
            report.charges.frames,
            engine.detector_invocations(),
        )
    };
    let traced = run(true);
    assert_eq!(traced, run(false), "observe off must change nothing");
    assert_eq!(traced, run(true), "a second traced run agrees");
}

/// A completed session's collected spans form a valid causal tree
/// rooted at the session span, covering the layers the engine touched.
#[test]
fn collected_trace_is_a_valid_session_tree() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("cam", truth(), NoiseModel::none(), 5);
    let id = engine
        .submit(QuerySpec::new(repo, ClassId(0), StopCond::samples(200)).seed(7))
        .unwrap();
    engine.wait(id).unwrap();
    let spans = engine.collect_trace(TraceId::from_session(id.0));
    assert!(!spans.is_empty(), "a finished session must have a trace");
    validate_spans(&spans).expect("causal tree invariants");
    let root = &spans[0];
    assert_eq!(root.id, SpanId::ROOT);
    assert_eq!(root.stage, Stage::Session);
    assert_eq!(root.session, id.0);
    assert!(root.duration_ns > 0, "root closed at session finish");
    assert!(
        spans.iter().any(|s| s.stage == Stage::Submit),
        "submit span recorded"
    );
    assert!(
        spans.iter().any(|s| s.stage == Stage::Dispatch),
        "dispatch spans recorded"
    );
    // Every span belongs to this session's trace and session id.
    assert!(spans.iter().all(|s| s.session == id.0));
    // With observe off the same engine shape collects nothing.
    let dark = Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        observe: false,
        ..EngineConfig::default()
    });
    let repo = dark.register_repo("cam", truth(), NoiseModel::none(), 5);
    let id = dark
        .submit(QuerySpec::new(repo, ClassId(0), StopCond::samples(100)).seed(7))
        .unwrap();
    dark.wait(id).unwrap();
    assert!(dark.collect_trace(TraceId::from_session(id.0)).is_empty());
}

/// A session's trace root is open before any worker can lease the
/// session. One-sample sessions submitted back to back keep both
/// workers mid-loop, so each new session is leased — and finished — the
/// moment the submitter lets go of the engine, before the submitter's
/// next statement runs; a root opened any later than that is found
/// missing by the worker's spans and by the finish that should close it.
#[test]
fn trace_root_is_open_before_a_worker_can_run_the_session() {
    let engine = Engine::new(EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("cam", truth(), NoiseModel::none(), 5);
    // Rounds of fewer sessions than the collector keeps traces for, each
    // checked before the next round may evict it.
    for round in 0..5 {
        let ids: Vec<_> = (0..400)
            .map(|seed| {
                let stop = StopCond::samples(1);
                let spec = QuerySpec::new(repo, ClassId(0), stop).seed(round * 400 + seed);
                engine.submit(spec).unwrap()
            })
            .collect();
        for id in ids {
            engine.wait(id).unwrap();
            let spans = engine.collect_trace(TraceId::from_session(id.0));
            validate_spans(&spans).expect("causal tree invariants");
            let root = spans.first().expect("a finished session has a trace");
            assert_eq!((root.id, root.stage), (SpanId::ROOT, Stage::Session));
            assert!(root.duration_ns > 0, "session {}: root never closed", id.0);
            for stage in [Stage::Submit, Stage::Lease] {
                assert!(
                    spans.iter().any(|s| s.stage == stage),
                    "session {}: {stage} span dropped",
                    id.0
                );
            }
        }
    }
}

/// The trait object surfaces diagnostics like the concrete engine.
#[test]
fn diagnostics_via_trait_object() {
    let engine = Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let repo = engine.register_repo("cam", truth(), NoiseModel::none(), 5);
    let svc: &dyn SearchService = &engine;
    let id = svc
        .submit(QuerySpec::new(repo, ClassId(0), StopCond::samples(100)).seed(3))
        .unwrap();
    svc.wait(id).unwrap();
    let diag = svc.diagnostics().unwrap();
    assert!(diag.histogram("dispatch_ns").unwrap().total() > 0);
    assert!(diag.counter("sessions_finished_total").unwrap() >= 1);
}
