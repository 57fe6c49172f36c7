//! The engine's instrumentation hub: one [`Registry`], one
//! [`FlightRecorder`], one [`SpanCollector`], and one pre-resolved
//! histogram per [`Stage`] — all written by [`EngineObs::record`] and
//! `EngineObs::flush`, so hot paths record through plain `Arc` derefs
//! and relaxed atomics, never through the registry lock. Where an occurrence goes is the stage's
//! business: its histogram always, the ring when [`Stage::in_ring`], the
//! trace when it has one. [`Span`] times a region and records it on drop.
//! A worker stepping a session does not record as it goes: it notes each
//! occurrence in `Notes`, a buffer of its own, and `EngineObs::flush`
//! writes them all once the quantum ends.
//!
//! Instrumentation is strictly observational (wall clock + atomics); it
//! cannot perturb a session's deterministic trace. With
//! [`EngineConfig::observe`](crate::EngineConfig::observe) off, nothing is
//! recorded and spans never read the clock (`tests/obs_contract.rs`).

use exsample_obs::{
    Counter, CounterFamily, FlightRecorder, GaugeFamily, LatencyHistogram, MeasuredSpan, Registry,
    SpanCollector, SpanId, Stage, TraceContext, TraceId, NO_SESSION,
};
use std::sync::Arc;
use std::time::Instant;

/// Events the flight ring keeps: a debugging window of a few thousand
/// dispatches.
const FLIGHT_CAPACITY: usize = 4096;

/// Nanoseconds since `since`, saturating.
pub(crate) fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pre-registered metric handles, the flight recorder and the span
/// collector; owned by the engine's shared state and reachable from
/// every worker.
///
/// The metric catalog (names, units, span taxonomy) is documented in
/// `docs/OBSERVABILITY.md`.
#[derive(Debug)]
pub struct EngineObs {
    enabled: bool,
    registry: Arc<Registry>,
    flight: FlightRecorder,
    tracer: SpanCollector,
    /// One histogram per stage, indexed by wire tag.
    stages: [Arc<LatencyHistogram>; Stage::ALL.len()],
    state_lock_wait: Arc<LatencyHistogram>,
    wake_to_service: Arc<LatencyHistogram>,
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
    /// gates *recording* — histograms, flight events and request-scoped
    /// span trees alike.
    pub fn new(enabled: bool) -> Self {
        let registry = Arc::new(Registry::new());
        EngineObs {
            enabled,
            // In `Stage` wire-tag order. The wire stages are recorded by
            // `exsample-proto`'s `Connection` and the reactor, which
            // reach this hub through `Engine::obs`.
            stages: [
                registry.histogram("dispatch_ns"),
                registry.histogram("batch_assembly_ns"),
                registry.histogram("cache_wait_ns"),
                registry.histogram("lease_ns"),
                registry.histogram("write_behind_ns"),
                registry.histogram("belief_snapshot_ns"),
                registry.histogram("compaction_ns"),
                registry.histogram("server_submit_ns"),
                registry.histogram("server_poll_ns"),
                registry.histogram("server_stream_ns"),
                registry.histogram("accept_ns"),
                registry.histogram("handshake_ns"),
                registry.histogram("turn_ns"),
                registry.histogram("admission_ns"),
                registry.histogram("session_ns"),
            ],
            state_lock_wait: registry.histogram("engine_state_lock_wait_ns"),
            wake_to_service: registry.histogram("engine_wake_to_service_ns"),
            tracer: SpanCollector::new(enabled),
            frames_total: registry.counter("frames_total"),
            sessions_submitted_total: registry.counter("sessions_submitted_total"),
            sessions_finished_total: registry.counter("sessions_finished_total"),
            submits_by_tenant: registry.counter_family("submits_total", "tenant"),
            sessions_active: registry.gauge_family("sessions_active", "tenant"),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
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

    /// The flight recorder, for dumps.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The request-scoped span collector, for collection. Inert unless
    /// [`EngineConfig::observe`](crate::EngineConfig::observe) is set.
    pub fn tracer(&self) -> &SpanCollector {
        &self.tracer
    }

    /// Record one occurrence of `stage` that took `ns`: into the stage's
    /// histogram, into the flight ring if the stage [is in
    /// it](Stage::in_ring), and into a trace — under `ctx` when the
    /// request carried one, else at the root of `session`'s trace. With
    /// `EngineObs::flush`, the only writer of all three. No-op with
    /// recording off.
    pub fn record(&self, stage: Stage, session: u64, ctx: Option<TraceContext>, ns: u64, key: u64) {
        if !self.enabled {
            return;
        }
        if let Some(hist) = self.stages.get(stage as usize) {
            hist.record(ns);
        }
        if stage.in_ring() {
            self.flight.record(session, stage, ns, key);
        }
        let ctx =
            ctx.or_else(|| (session != NO_SESSION).then(|| TraceContext::for_session(session)));
        if let Some(ctx) = ctx {
            self.tracer
                .record(ctx.trace, ctx.parent, stage, session, ns, key);
        }
    }

    /// Write what a worker noted during one quantum of `session`: every
    /// occurrence into its stage's histogram and, when the stage is in
    /// it, into the ring, then — if `traced` — all of them into the
    /// session's trace under one collector lock. The other half of the
    /// one writer, beside [`EngineObs::record`]; `notes` comes back empty.
    /// Returns whether the trace takes further spans (`false` once it is
    /// full), which is what the next quantum's `traced` should be.
    pub(crate) fn flush(&self, session: u64, traced: bool, notes: &mut Notes) -> bool {
        for n in &notes.0 {
            if let Some(hist) = self.stages.get(n.stage as usize) {
                hist.record(n.duration_ns);
            }
            if n.stage.in_ring() {
                self.flight.record(session, n.stage, n.duration_ns, n.key);
            }
        }
        let traced = traced
            && (notes.0.is_empty()
                || self.tracer.record_all(
                    TraceId::from_session(session),
                    SpanId::ROOT,
                    session,
                    &notes.0,
                ));
        notes.0.clear();
        traced
    }

    /// Now, when recording is on: the start of an occurrence a worker
    /// will [note](Notes::note).
    pub(crate) fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Time `stage` from now until the returned span drops; `session`
    /// may be [`NO_SESSION`] for unowned work, or filled in later.
    pub fn span(&self, stage: Stage, session: u64) -> Span<'_> {
        Span {
            obs: self,
            stage,
            session,
            ctx: None,
            key: 0,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Open `session`'s trace: mint the root session span. Submit calls
    /// this before the session can be leased — a worker that runs the
    /// whole session the moment it can must find the trace open, or its
    /// spans are dropped and its finish closes nothing. No-op unless
    /// recording is on.
    pub(crate) fn trace_open(&self, session: u64) {
        self.tracer
            .open_root(TraceId::from_session(session), session);
    }

    /// Record the engine-side submit span of `submit_ns` under
    /// `session`'s root. No-op unless recording is on.
    pub(crate) fn trace_submit(&self, session: u64, submit_ns: u64) {
        let trace = TraceId::from_session(session);
        self.tracer
            .record(trace, SpanId::ROOT, Stage::Submit, session, submit_ns, 0);
    }

    /// Close `session`'s trace at finalization; the root span's
    /// lifetime lands in the `session_ns` histogram.
    pub(crate) fn trace_finish(&self, session: u64) {
        let closed = self.tracer.close_root(TraceId::from_session(session));
        if let (Some(ns), Some(hist)) = (closed, self.stages.get(Stage::Session as usize)) {
            hist.record(ns);
        }
    }

    /// Record one *contended* acquisition of the engine state lock:
    /// `since` is when the caller's `try_lock` failed. The uncontended
    /// path never gets here, so it stays free.
    pub(crate) fn state_lock_waited(&self, since: Instant) {
        self.state_lock_wait.record(elapsed_ns(since));
    }

    /// Record one wake-up's latency: from a worker pushing a watcher's
    /// token onto its [`CompletionQueue`](crate::CompletionQueue) to the
    /// queue's drain (a connection about to be resumed, a parked `wait` /
    /// `poll_wait` caller back from its park). No-op without a stamp.
    pub(crate) fn wake_serviced(&self, pushed: Option<Instant>) {
        if let Some(t) = pushed {
            self.wake_to_service.record(elapsed_ns(t));
        }
    }
}

/// The occurrences a worker measured during one quantum, in the order
/// they ended, until [`EngineObs::flush`] writes them. The worker owns
/// it and reuses it, so noting touches nothing another worker shares.
#[derive(Debug, Default)]
pub(crate) struct Notes(Vec<MeasuredSpan>);

impl Notes {
    /// Note one occurrence of `stage` that began at `start` (from
    /// [`EngineObs::start`]) and ends now. No-op with recording off.
    pub(crate) fn note(&mut self, stage: Stage, start: Option<Instant>, key: u64) {
        if let Some(start) = start {
            self.0.push(MeasuredSpan {
                stage,
                start,
                duration_ns: elapsed_ns(start),
                key,
            });
        }
    }
}

/// A timer over the hub: it reads the clock when opened (only with
/// recording on) and hands its duration to [`EngineObs::record`] when
/// dropped.
#[derive(Debug)]
#[must_use = "a span measures until dropped — binding it to _ ends it immediately"]
pub struct Span<'a> {
    obs: &'a EngineObs,
    stage: Stage,
    session: u64,
    ctx: Option<TraceContext>,
    key: u64,
    start: Option<Instant>,
}

impl Span<'_> {
    /// The stage-specific key reported with the span (e.g. frames in the
    /// dispatched batch).
    pub fn set_key(&mut self, key: u64) {
        self.key = key;
    }

    /// Re-tag the owning session after the fact; with no explicit
    /// context the span then lands at the root of that session's trace.
    pub fn set_session(&mut self, session: u64) {
        self.session = session;
    }

    /// Pin the span to an explicit trace and causal parent — the context
    /// a wire request carried.
    pub fn set_trace_context(&mut self, ctx: TraceContext) {
        self.ctx = Some(ctx);
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = elapsed_ns(start);
            self.obs
                .record(self.stage, self.session, self.ctx, ns, self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_obs::validate_spans;

    fn hist_total(obs: &EngineObs, name: &str) -> u64 {
        let hists = obs.registry().histograms();
        let found = hists.iter().find(|(n, _)| n == name);
        found.map(|(_, s)| s.total()).unwrap()
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let obs = EngineObs::new(false);
        {
            let mut s = obs.span(Stage::Dispatch, 1);
            s.set_key(4);
        }
        obs.record(Stage::Lease, 1, None, 99, 0);
        assert!(obs
            .registry()
            .histograms()
            .iter()
            .all(|(_, s)| s.is_empty()));
        assert!(obs.flight().dump().is_empty());
    }

    #[test]
    fn catalog_is_registered_up_front() {
        let obs = EngineObs::new(true);
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
            "engine_state_lock_wait_ns",
            "engine_wake_to_service_ns",
        ] {
            assert!(names.iter().any(|n| n == expect), "missing {expect}");
        }
        // Every stage records into its own histogram, under the name the
        // catalog has always given it.
        let pinned = [
            (Stage::Dispatch, "dispatch_ns"),
            (Stage::BatchAssembly, "batch_assembly_ns"),
            (Stage::CacheWait, "cache_wait_ns"),
            (Stage::Lease, "lease_ns"),
            (Stage::WriteBehind, "write_behind_ns"),
            (Stage::BeliefSnapshot, "belief_snapshot_ns"),
            (Stage::Compaction, "compaction_ns"),
            (Stage::Submit, "server_submit_ns"),
            (Stage::Poll, "server_poll_ns"),
            (Stage::Stream, "server_stream_ns"),
            (Stage::Accept, "accept_ns"),
            (Stage::Handshake, "handshake_ns"),
            (Stage::Turn, "turn_ns"),
            (Stage::Admission, "admission_ns"),
            (Stage::Session, "session_ns"),
        ];
        assert_eq!(pinned.len(), Stage::ALL.len());
        // Stage `i` records `i + 1` times, so a stage that wrote into a
        // neighbour's histogram shows up as a wrong count.
        for (i, &(stage, _)) in pinned.iter().enumerate() {
            for _ in 0..=i {
                obs.record(stage, NO_SESSION, None, 10, 0);
            }
        }
        for (i, (stage, name)) in pinned.into_iter().enumerate() {
            assert_eq!(hist_total(&obs, name), i as u64 + 1, "{stage} -> {name}");
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
        let obs = EngineObs::new(true);
        {
            let mut s = obs.span(Stage::Dispatch, 7);
            s.set_key(3);
        }
        {
            let _s = obs.span(Stage::BatchAssembly, 7);
        }
        assert_eq!(hist_total(&obs, "dispatch_ns"), 1);
        assert_eq!(hist_total(&obs, "batch_assembly_ns"), 1);
        // Only the stage that is in the ring left an event.
        let events = obs.flight().dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].stage, Stage::Dispatch);
        assert_eq!(events[0].key, 3);
        assert_eq!(events[0].session, 7);
    }

    #[test]
    fn trace_lifecycle_builds_a_session_tree() {
        let obs = EngineObs::new(true);
        obs.trace_open(5);
        obs.trace_submit(5, 1_000);
        {
            let mut s = obs.span(Stage::Dispatch, 5);
            s.set_key(2);
        }
        obs.record(Stage::Lease, 5, None, 42, 0);
        obs.trace_finish(5);
        let spans = obs.tracer().collect(TraceId::from_session(5));
        validate_spans(&spans).expect("valid tree");
        assert_eq!(spans.len(), 4, "root + submit + dispatch + lease");
        let root = spans.iter().find(|s| s.stage == Stage::Session).unwrap();
        assert!(root.duration_ns > 0, "trace_finish closed the root");
        assert_eq!(hist_total(&obs, "session_ns"), 1);
    }

    #[test]
    fn drop_records_into_both_sinks() {
        let obs = EngineObs::new(true);
        {
            let mut span = obs.span(Stage::Dispatch, 42);
            span.set_key(8);
            assert!(span.start.is_some());
        }
        assert_eq!(hist_total(&obs, "dispatch_ns"), 1);
        let events = obs.flight().dump();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].session, 42);
        assert_eq!(events[0].stage, Stage::Dispatch);
        assert_eq!(events[0].key, 8);
    }

    #[test]
    fn traced_guard_lands_in_the_session_trace() {
        let obs = EngineObs::new(true);
        let trace = TraceId::from_session(7);
        obs.trace_open(7);
        {
            let mut span = obs.span(Stage::Dispatch, NO_SESSION);
            span.set_session(7); // trace derived at drop time
            span.set_key(4);
        }
        {
            // Explicit context wins over session derivation.
            let mut span = obs.span(Stage::Poll, NO_SESSION);
            span.set_trace_context(TraceContext::for_session(7));
        }
        let spans = obs.tracer().collect(trace);
        assert_eq!(spans.len(), 3, "root + two guard spans");
        assert!(spans
            .iter()
            .any(|s| s.stage == Stage::Dispatch && s.key == 4));
        assert!(spans.iter().any(|s| s.stage == Stage::Poll));
        validate_spans(&spans).expect("guard spans keep the tree valid");
    }

    #[test]
    fn a_flush_writes_the_notes_in_order_to_every_sink() {
        let obs = EngineObs::new(true);
        obs.trace_open(5);
        let mut notes = Notes::default();
        notes.note(Stage::Dispatch, obs.start(), 2);
        notes.note(Stage::BatchAssembly, obs.start(), 3);
        notes.note(Stage::Lease, obs.start(), 8);
        assert!(obs.flush(5, true, &mut notes), "the trace has room");
        assert!(notes.0.is_empty());
        for name in ["dispatch_ns", "batch_assembly_ns", "lease_ns"] {
            assert_eq!(hist_total(&obs, name), 1, "{name}");
        }
        let ring: Vec<(Stage, u64, u64)> = obs
            .flight()
            .dump()
            .iter()
            .map(|e| (e.stage, e.session, e.key))
            .collect();
        assert_eq!(ring, [(Stage::Dispatch, 5, 2), (Stage::Lease, 5, 8)]);
        let spans = obs.tracer().collect(TraceId::from_session(5));
        validate_spans(&spans).expect("valid tree");
        let traced: Vec<(Stage, u64)> = spans.iter().skip(1).map(|s| (s.stage, s.key)).collect();
        let noted = [
            (Stage::Dispatch, 2),
            (Stage::BatchAssembly, 3),
            (Stage::Lease, 8),
        ];
        assert_eq!(traced, noted);
        assert!(spans
            .iter()
            .all(|s| s.parent == SpanId::NONE || s.parent == SpanId::ROOT));

        // Untraced, the notes still reach histogram and ring.
        notes.note(Stage::Dispatch, obs.start(), 1);
        assert!(!obs.flush(5, false, &mut notes));
        assert_eq!(hist_total(&obs, "dispatch_ns"), 2);
        assert_eq!(obs.flight().dump().len(), 3);
        assert_eq!(obs.tracer().collect(TraceId::from_session(5)).len(), 4);
    }

    #[test]
    fn a_disabled_hub_notes_nothing() {
        let obs = EngineObs::new(false);
        obs.trace_open(5);
        let mut notes = Notes::default();
        assert!(obs.start().is_none(), "no clock read");
        notes.note(Stage::Dispatch, obs.start(), 2);
        assert!(notes.0.is_empty());
        obs.flush(5, true, &mut notes);
        assert_eq!(hist_total(&obs, "dispatch_ns"), 0);
        assert!(obs.flight().dump().is_empty());
    }

    #[test]
    fn disabled_guard_records_nothing() {
        let obs = EngineObs::new(false);
        obs.trace_open(3);
        {
            let mut span = obs.span(Stage::Lease, NO_SESSION);
            span.set_key(3);
            span.set_session(3);
            span.set_trace_context(TraceContext::for_session(3));
            assert!(
                span.start.is_none(),
                "a disabled span never reads the clock"
            );
        }
        assert!(obs.flight().dump().is_empty());
        assert_eq!(hist_total(&obs, "lease_ns"), 0);
        assert!(obs.tracer().collect(TraceId::from_session(3)).is_empty());
    }
}
