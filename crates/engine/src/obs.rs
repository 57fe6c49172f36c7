//! The engine's instrumentation hub: one [`Registry`], one
//! [`FlightRecorder`], and pre-resolved histogram handles for every
//! engine stage, so hot paths record through plain `Arc` derefs and
//! relaxed atomics — never through the registry lock.
//!
//! Instrumentation is strictly observational (wall clock + atomics); it
//! cannot perturb a session's deterministic trace. With
//! [`EngineConfig::observe`](crate::EngineConfig::observe) off, spans
//! are inert and never read the clock (`tests/obs_contract.rs`).

use exsample_obs::{
    Counter, CounterFamily, FlightRecorder, GaugeFamily, LatencyHistogram, Registry, SpanCollector,
    SpanGuard, SpanId, Stage, TraceId, NO_SESSION,
};
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds since `since`, saturating.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pre-registered metric handles plus the flight recorder; owned by the
/// engine's shared state and reachable from every worker.
///
/// The metric catalog (names, units, span taxonomy) is documented in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug)]
pub struct EngineObs {
    enabled: bool,
    registry: Arc<Registry>,
    flight: FlightRecorder,
    dispatch: Arc<LatencyHistogram>,
    batch_assembly: Arc<LatencyHistogram>,
    cache_wait: Arc<LatencyHistogram>,
    lease: Arc<LatencyHistogram>,
    write_behind: Arc<LatencyHistogram>,
    belief_snapshot: Arc<LatencyHistogram>,
    compaction: Arc<LatencyHistogram>,
    server_submit: Arc<LatencyHistogram>,
    server_poll: Arc<LatencyHistogram>,
    server_stream: Arc<LatencyHistogram>,
    serve_accept: Arc<LatencyHistogram>,
    serve_handshake: Arc<LatencyHistogram>,
    serve_turn: Arc<LatencyHistogram>,
    serve_admission: Arc<LatencyHistogram>,
    session_hist: Arc<LatencyHistogram>,
    state_lock_wait: Arc<LatencyHistogram>,
    wake_to_service: Arc<LatencyHistogram>,
    tracer: SpanCollector,
    /// Frames stepped across all sessions (bumped once per quantum).
    pub frames_total: Arc<Counter>,
    /// Queries accepted by `submit`.
    pub sessions_submitted_total: Arc<Counter>,
    /// Sessions finalized (finished or cancelled).
    pub sessions_finished_total: Arc<Counter>,
    /// Accepted submits, labeled by tenant (`submits_total{tenant=...}`;
    /// untagged in-process submits land under tenant `0`).
    pub submits_by_tenant: Arc<CounterFamily>,
    /// Unfinished sessions per tenant
    /// (`sessions_active{tenant=...}`), maintained at submit and
    /// finalization for tenant-tagged sessions.
    pub sessions_active: Arc<GaugeFamily>,
}

impl EngineObs {
    /// Build the hub, registering the full engine metric catalog up
    /// front so diagnostics always expose a stable shape. `enabled`
    /// gates *recording* only; `trace` additionally switches the span
    /// collector (request-scoped tracing) and is effective only when
    /// `enabled` is too.
    pub fn new(enabled: bool, trace: bool, flight_capacity: usize) -> Self {
        let registry = Arc::new(Registry::new());
        EngineObs {
            enabled,
            dispatch: registry.histogram("dispatch_ns"),
            batch_assembly: registry.histogram("batch_assembly_ns"),
            cache_wait: registry.histogram("cache_wait_ns"),
            lease: registry.histogram("lease_ns"),
            write_behind: registry.histogram("write_behind_ns"),
            belief_snapshot: registry.histogram("belief_snapshot_ns"),
            compaction: registry.histogram("compaction_ns"),
            server_submit: registry.histogram("server_submit_ns"),
            server_poll: registry.histogram("server_poll_ns"),
            server_stream: registry.histogram("server_stream_ns"),
            serve_accept: registry.histogram("accept_ns"),
            serve_handshake: registry.histogram("handshake_ns"),
            serve_turn: registry.histogram("turn_ns"),
            serve_admission: registry.histogram("admission_ns"),
            session_hist: registry.histogram("session_ns"),
            state_lock_wait: registry.histogram("engine_state_lock_wait_ns"),
            wake_to_service: registry.histogram("engine_wake_to_service_ns"),
            tracer: SpanCollector::new(enabled && trace),
            frames_total: registry.counter("frames_total"),
            sessions_submitted_total: registry.counter("sessions_submitted_total"),
            sessions_finished_total: registry.counter("sessions_finished_total"),
            submits_by_tenant: registry.counter_family("submits_total", "tenant"),
            sessions_active: registry.gauge_family("sessions_active", "tenant"),
            flight: FlightRecorder::new(flight_capacity),
            registry,
        }
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry (for render/collect and for other layers —
    /// e.g. the wire server — to register their own metrics alongside
    /// the engine's).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The engine histogram for `stage`.
    fn hist(&self, stage: Stage) -> &Arc<LatencyHistogram> {
        match stage {
            Stage::Dispatch => &self.dispatch,
            Stage::BatchAssembly => &self.batch_assembly,
            Stage::CacheWait => &self.cache_wait,
            Stage::Lease => &self.lease,
            Stage::WriteBehind => &self.write_behind,
            Stage::BeliefSnapshot => &self.belief_snapshot,
            Stage::Compaction => &self.compaction,
            // Recorded by the wire server (`exsample-proto`), which
            // reaches the same hub through `Engine::obs`.
            Stage::Submit => &self.server_submit,
            Stage::Poll => &self.server_poll,
            Stage::Stream => &self.server_stream,
            // Recorded by the reactor (`exsample-serve`), same route.
            Stage::Accept => &self.serve_accept,
            Stage::Handshake => &self.serve_handshake,
            Stage::Turn => &self.serve_turn,
            Stage::Admission => &self.serve_admission,
            // Fed by `trace_finish` with the root span's duration, so it
            // fills only while tracing is on.
            Stage::Session => &self.session_hist,
        }
    }

    /// The request-scoped span collector. Disabled (inert) unless both
    /// [`EngineConfig::observe`](crate::EngineConfig::observe) and
    /// [`EngineConfig::trace`](crate::EngineConfig::trace) are set.
    pub fn tracer(&self) -> &SpanCollector {
        &self.tracer
    }

    /// Open `session`'s trace: mint the root session span. Submit calls
    /// this before the session can be leased — a worker that runs the
    /// whole session the moment it can must find the trace open, or its
    /// spans are dropped and its finish closes nothing. No-op unless
    /// tracing is on.
    pub fn trace_open(&self, session: u64) {
        self.tracer
            .open_root(TraceId::from_session(session), session);
    }

    /// Record the engine-side submit span of `submit_ns` under
    /// `session`'s root. No-op unless tracing is on.
    pub fn trace_submit(&self, session: u64, submit_ns: u64) {
        let trace = TraceId::from_session(session);
        self.tracer
            .record(trace, SpanId::ROOT, Stage::Submit, session, submit_ns, 0);
    }

    /// Close `session`'s trace at finalization; the root span's
    /// lifetime lands in the `session_ns` histogram.
    pub fn trace_finish(&self, session: u64) {
        if let Some(ns) = self.tracer.close_root(TraceId::from_session(session)) {
            self.session_hist.record(ns);
        }
    }

    /// Record one *contended* acquisition of the engine state lock:
    /// `since` is when the caller's `try_lock` failed. The uncontended
    /// path never gets here, so it stays free.
    pub fn state_lock_waited(&self, since: Instant) {
        self.state_lock_wait.record(elapsed_ns(since));
    }

    /// Record one wake-up's latency: from the worker publishing the
    /// progress (`woke_at`: completion pushed / parked callers notified)
    /// to the woken side being back in service (connection about to be
    /// resumed / caller returned from its park). No-op without a stamp.
    pub fn wake_serviced(&self, woke_at: Option<Instant>) {
        if let Some(t) = woke_at {
            self.wake_to_service.record(elapsed_ns(t));
        }
    }

    /// A histogram-only span (no flight event) — for high-frequency
    /// stages where a per-occurrence event would churn the ring.
    pub fn span(&self, stage: Stage, session: u64) -> SpanGuard<'_> {
        if self.enabled {
            let mut span = SpanGuard::start(Some(self.hist(stage)), None, session, stage);
            span.attach_tracer(&self.tracer);
            span
        } else {
            SpanGuard::disabled(stage)
        }
    }

    /// A span that records the histogram *and* leaves a structured
    /// flight event behind.
    pub fn span_flight(&self, stage: Stage, session: u64) -> SpanGuard<'_> {
        if self.enabled {
            let mut span =
                SpanGuard::start(Some(self.hist(stage)), Some(&self.flight), session, stage);
            span.attach_tracer(&self.tracer);
            span
        } else {
            SpanGuard::disabled(stage)
        }
    }

    /// Record an already-measured duration for `stage` (used where a
    /// guard cannot span the region, e.g. across lock boundaries),
    /// with a flight event.
    pub fn record(&self, stage: Stage, session: u64, duration_ns: u64, key: u64) {
        if !self.enabled {
            return;
        }
        self.hist(stage).record(duration_ns);
        self.flight.record(session, stage, duration_ns, key);
        if self.tracer.enabled() && session != NO_SESSION {
            self.tracer.record(
                TraceId::from_session(session),
                SpanId::ROOT,
                stage,
                session,
                duration_ns,
                key,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hub_records_nothing() {
        let obs = EngineObs::new(false, false, 16);
        {
            let mut s = obs.span_flight(Stage::Dispatch, 1);
            s.set_key(4);
        }
        obs.record(Stage::Lease, 1, 99, 0);
        assert!(obs
            .registry()
            .histograms()
            .iter()
            .all(|(_, s)| s.is_empty()));
        assert!(obs.flight().dump().is_empty());
    }

    #[test]
    fn catalog_is_registered_up_front() {
        let obs = EngineObs::new(true, true, 16);
        let names: Vec<String> = obs
            .registry()
            .histograms()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        for expect in [
            "batch_assembly_ns",
            "belief_snapshot_ns",
            "cache_wait_ns",
            "compaction_ns",
            "dispatch_ns",
            "lease_ns",
            "write_behind_ns",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        let counters: Vec<String> = obs
            .registry()
            .counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(counters.iter().any(|n| n == "frames_total"));
    }

    #[test]
    fn enabled_spans_land_in_hist_and_flight() {
        let obs = EngineObs::new(true, false, 16);
        {
            let mut s = obs.span_flight(Stage::Dispatch, 7);
            s.set_key(3);
        }
        {
            let _s = obs.span(Stage::BatchAssembly, 7);
        }
        let hists = obs.registry().histograms();
        let get = |name: &str| {
            hists
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.total())
                .unwrap()
        };
        assert_eq!(get("dispatch_ns"), 1);
        assert_eq!(get("batch_assembly_ns"), 1);
        // Only the flight-recording span left an event.
        let events = obs.flight().dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, Stage::Dispatch);
        assert_eq!(events[0].key, 3);
        assert_eq!(events[0].session, 7);
    }

    #[test]
    fn trace_lifecycle_builds_a_session_tree() {
        let obs = EngineObs::new(true, true, 16);
        obs.trace_open(5);
        obs.trace_submit(5, 1_000);
        {
            let mut s = obs.span_flight(Stage::Dispatch, 5);
            s.set_key(2);
        }
        obs.record(Stage::Lease, 5, 42, 0);
        obs.trace_finish(5);
        let spans = obs.tracer().collect(TraceId::from_session(5));
        exsample_obs::validate_spans(&spans).expect("valid tree");
        assert_eq!(spans.len(), 4, "root + submit + dispatch + lease");
        let root = spans.iter().find(|s| s.stage == Stage::Session).unwrap();
        assert!(root.duration_ns > 0, "trace_finish closed the root");
        let hists = obs.registry().histograms();
        let session_total = hists
            .iter()
            .find(|(n, _)| n == "session_ns")
            .map(|(_, s)| s.total())
            .unwrap();
        assert_eq!(session_total, 1);
    }
}
