//! Public vocabulary of the engine: queries, sessions, and their
//! observable state.

use crate::obs::EngineObs;
use exsample_core::belief::ChunkStats;
use exsample_core::driver::{SearchTrace, StopCond};
use exsample_core::exsample::ExSampleConfig;
use exsample_videosim::ClassId;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Identifies a video repository registered with an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RepoId(pub u32);

/// Identifies one submitted search session. Monotonic per engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Identifies one tenant of a shared engine. Assigned by the serving
/// layer's authentication registry (`exsample-serve`); the engine treats
/// it as an opaque accounting key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// A tenant identity bound to a submission by an *authenticated* serving
/// layer — never derived from client-controlled spec fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantBinding {
    /// The authenticated tenant.
    pub tenant: TenantId,
    /// Tier weight multiplier (≥ 1): the session's effective scheduler
    /// weight is `spec.weight × weight`, so a paying tenant's sessions
    /// outschedule free-tier ones submitting identical specs.
    pub weight: u32,
}

/// Which discriminator a session uses to decide "is this detection a new
/// distinct object?" (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscriminatorKind {
    /// Ground-truth identity matching — perfect discrimination, isolating
    /// the sampling question (the paper's simulation-study setting).
    #[default]
    Oracle,
    /// The SORT-style IoU tracker with emulated forward/backward track
    /// extension: exercises duplicate/split noise under concurrency.
    Tracker {
        /// Seed of the tracker's private drift RNG.
        seed: u64,
    },
}

/// A declarative search request: "find distinct objects of `class` in
/// `repo` until `stop`", plus knobs for the sampler and the scheduler.
///
/// A spec is pure data with a stable wire encoding (`exsample-proto`), so
/// the same value drives an in-process engine or a remote search service
/// identically.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Repository to search.
    pub repo: RepoId,
    /// Object class queried.
    pub class: ClassId,
    /// Stop condition (result limit / sample budget / time budget).
    pub stop: StopCond,
    /// Number of temporal chunks for the ExSample policy.
    pub chunks: usize,
    /// Sampler configuration (prior, selector, within-chunk order).
    pub config: ExSampleConfig,
    /// Scheduler priority weight: a weight-2 session receives twice the
    /// detector budget of a weight-1 session.
    pub weight: u32,
    /// Seed for the session's private sampling RNG.
    pub seed: u64,
    /// Discriminator implementation for this session.
    pub discriminator: DiscriminatorKind,
    /// Warm-start chunk beliefs from a persisted snapshot of an earlier
    /// search over the same `(repo, class, chunks)`, when the engine has
    /// persistence configured and a snapshot exists. On by default —
    /// without persistence it is a no-op. Disable for bit-reproducible
    /// replays of a cold run.
    pub warm_start: bool,
    /// Detector batch size for this session (§III-F): the sampler draws
    /// this many Thompson samples *before* seeing any of their outcomes,
    /// and the engine resolves each batch's cache misses with a single
    /// detector dispatch, amortizing the per-dispatch overhead of
    /// `exsample_store::CostModel::dispatch_s`. `None` (the default)
    /// inherits the engine's `EngineConfig::batch`. A batch of 1 is
    /// bit-identical to per-frame stepping; larger batches trade feedback
    /// freshness for dispatch amortization, exactly like real GPU batched
    /// inference.
    pub batch: Option<u32>,
}

impl QuerySpec {
    /// A query with the paper-default sampler over 16 chunks, weight 1,
    /// the oracle discriminator, and warm-starting enabled.
    pub fn new(repo: RepoId, class: ClassId, stop: StopCond) -> Self {
        QuerySpec {
            repo,
            class,
            stop,
            chunks: 16,
            config: ExSampleConfig::default(),
            weight: 1,
            seed: 0,
            discriminator: DiscriminatorKind::default(),
            warm_start: true,
            batch: None,
        }
    }

    /// Set the chunk count.
    pub fn chunks(mut self, chunks: usize) -> Self {
        self.chunks = chunks;
        self
    }

    /// Set the scheduler weight (priority).
    pub fn weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Select the discriminator implementation.
    pub fn discriminator(mut self, kind: DiscriminatorKind) -> Self {
        self.discriminator = kind;
        self
    }

    /// Enable or disable belief warm-starting (see
    /// [`QuerySpec::warm_start`]).
    pub fn warm_start(mut self, warm: bool) -> Self {
        self.warm_start = warm;
        self
    }

    /// Set the detector batch size (see [`QuerySpec::batch`]).
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Structural validation, shared by every
    /// [`SearchService`](crate::SearchService) implementation: every
    /// problem checkable from the spec alone is rejected *at submit
    /// time* — a degenerate prior, for instance, would otherwise panic
    /// deep inside a worker thread's Gamma sampler. Repository and class
    /// existence are the service's job (they need the catalog).
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.chunks == 0 {
            return Err("chunks must be positive");
        }
        if self.weight == 0 {
            return Err("weight must be positive");
        }
        let p = &self.config.prior;
        if !(p.alpha0 > 0.0 && p.alpha0.is_finite() && p.beta0 > 0.0 && p.beta0.is_finite()) {
            return Err("prior pseudo-counts must be positive and finite");
        }
        if self.stop.max_seconds.is_some_and(|s| !s.is_finite()) {
            return Err("stop seconds must be finite");
        }
        if self.batch == Some(0) {
            return Err("batch must be positive");
        }
        Ok(())
    }
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Competing for detector budget (includes "queued behind others").
    Running,
    /// Stop condition reached or repository exhausted.
    Done,
    /// Cancelled by the client; the partial trace is preserved.
    Cancelled,
}

/// One incremental result: a frame that yielded new distinct objects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultEvent {
    /// The frame that was processed.
    pub frame: u64,
    /// How many new distinct results it contributed.
    pub new_results: u32,
    /// Session sample count after this frame.
    pub samples: u64,
    /// Session charged seconds after this frame.
    pub seconds: f64,
}

/// Cost ledger of a session, maintained by the scheduler loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionCharges {
    /// Modelled detector seconds charged (misses only — hits are free).
    pub detect_s: f64,
    /// Modelled io/decode seconds charged (container seeks + GOP walks).
    pub io_s: f64,
    /// Modelled dispatch-overhead seconds charged: one
    /// `CostModel::dispatch_s` per detector dispatch this session paid
    /// for. Zero unless the engine's cost model prices dispatches.
    pub dispatch_s: f64,
    /// Frames this session processed.
    pub frames: u64,
    /// Frames answered from the shared cache.
    pub cache_hits: u64,
    /// Frames this session paid detector time for.
    pub detector_invocations: u64,
    /// Detector dispatches this session paid for. Per-frame stepping
    /// (`batch = 1`) dispatches once per miss; batched stepping resolves
    /// a whole batch's misses with one dispatch, so
    /// `dispatches ≤ detector_invocations` and the gap is what batching
    /// amortized (§III-F).
    pub dispatches: u64,
}

impl SessionCharges {
    /// Total seconds charged against the scheduler budget.
    pub fn total_s(&self) -> f64 {
        self.detect_s + self.io_s + self.dispatch_s
    }

    /// Add another ledger to this one: a quantum's charges to its
    /// session's, or a session's to a fleet total.
    pub fn add(&mut self, delta: &SessionCharges) {
        self.detect_s += delta.detect_s;
        self.io_s += delta.io_s;
        self.dispatch_s += delta.dispatch_s;
        self.frames += delta.frames;
        self.cache_hits += delta.cache_hits;
        self.detector_invocations += delta.detector_invocations;
        self.dispatches += delta.dispatches;
    }
}

/// Snapshot returned by [`crate::Engine::poll`]: status, aggregate
/// counters, and the result events the caller has not yet consumed.
///
/// # Cursor contract
///
/// The event log is append-only; `cursor` indexes into it. A poll returns
/// the events in `cursor..` (optionally capped by a window) and
/// `next_cursor` set just past the last event returned. A cursor at or
/// past the end of the log yields an empty `events` with `next_cursor`
/// equal to the log length — never an error, never out of bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// Lifecycle state at snapshot time.
    pub status: SessionStatus,
    /// Distinct results found so far.
    pub found: u64,
    /// Frames processed so far.
    pub samples: u64,
    /// Cost ledger so far.
    pub charges: SessionCharges,
    /// Events `cursor..` (pass `next_cursor` back in to continue).
    pub events: Vec<ResultEvent>,
    /// Cursor to pass to the next poll.
    pub next_cursor: u64,
}

/// Final report for a finished session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Lifecycle state (Done or Cancelled).
    pub status: SessionStatus,
    /// The discovery trace, identical in shape to a single-query
    /// `run_search` trace (seconds = charged engine seconds).
    pub trace: SearchTrace,
    /// Cost ledger.
    pub charges: SessionCharges,
    /// 0-based position in the engine's finish order (session 0 finished
    /// first). Useful for observing scheduling effects.
    pub finish_order: u64,
    /// Final per-chunk `(N1, n)` belief statistics of the session's
    /// sampler — exactly what a persistence-enabled engine snapshots for
    /// later warm-starts.
    pub chunk_stats: Vec<ChunkStats>,
}

/// One session's progress cell: everything a client can observe of the
/// session, behind the session's own small lock, with the session's own
/// wake primitive. The leasing worker publishes each quantum here —
/// outside the engine state lock — and wakes only this session's
/// waiters; `poll` / `poll_wait` / `wait` read it without the state lock.
///
/// Lock order: engine state lock → `progress`, never the reverse, and
/// `progress` is never held across detector dispatch (`exsample-lint`'s
/// `lock_order` / `lock_blocking` rules enforce both).
pub(crate) struct SessionCell {
    pub(crate) progress: Mutex<Progress>,
    /// Parks `poll_wait` / `wait` callers of *this* session.
    pub(crate) wake: Condvar,
    /// Cancellation request, read by the leasing worker at every batch.
    pub(crate) cancel: AtomicBool,
}

impl SessionCell {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(SessionCell {
            progress: Mutex::new(Progress {
                status: SessionStatus::Running,
                found: 0,
                samples: 0,
                charges: SessionCharges::default(),
                events: Vec::new(),
                finished: None,
                last_access: Instant::now(),
                parked_streams: 0,
                parked_waits: 0,
                watchers: Vec::new(),
                woke_at: None,
            }),
            wake: Condvar::new(),
            cancel: AtomicBool::new(false),
        })
    }
}

/// What finalization adds to a session's progress.
pub(crate) struct Finished {
    pub(crate) trace: SearchTrace,
    pub(crate) chunk_stats: Vec<ChunkStats>,
    pub(crate) finish_order: u64,
}

/// One-shot interest of a completion queue in a session (see
/// [`CompletionQueue`]).
pub(crate) struct Watch {
    queue: Arc<CompletionQueue>,
    token: u64,
    /// Fires once the event log grows past this cursor (`u64::MAX`: at
    /// finalization only), and at finalization.
    past: u64,
}

impl Watch {
    /// Deliver the completion: the watcher's token goes onto its queue.
    pub(crate) fn fire(self) {
        self.queue.push(self.token);
    }
}

/// The state behind [`SessionCell::progress`].
pub(crate) struct Progress {
    pub(crate) status: SessionStatus,
    pub(crate) found: u64,
    pub(crate) samples: u64,
    pub(crate) charges: SessionCharges,
    /// Append-only result log (the [`SessionSnapshot`] cursor indexes it).
    pub(crate) events: Vec<ResultEvent>,
    /// `Some` once the session finished or was cancelled.
    pub(crate) finished: Option<Finished>,
    /// Last client touch (submit/poll/wait); drives TTL-based reaping of
    /// finished sessions, and is kept current only when
    /// `EngineConfig::session_ttl` is set.
    pub(crate) last_access: Instant,
    /// `poll_wait` callers parked on the cell: woken per event batch.
    pub(crate) parked_streams: u32,
    /// `wait` callers parked on the cell: woken at finalization only.
    pub(crate) parked_waits: u32,
    watchers: Vec<Watch>,
    /// When the worker last woke this cell's parked callers — the start
    /// of `engine_wake_to_service_ns`. Observation only.
    pub(crate) woke_at: Option<Instant>,
}

impl Progress {
    /// Whether a `poll_wait` from `cursor` has something to return.
    pub(crate) fn has_batch(&self, cursor: u64) -> bool {
        self.finished.is_some() || (self.events.len() as u64) > cursor
    }

    /// The observable state from `cursor`, returning at most `window`
    /// events (the [`SessionSnapshot`] cursor contract: a cursor at or
    /// past the end of the log yields empty events, clamped, never OOB).
    pub(crate) fn snapshot(&self, cursor: u64, window: Option<u32>) -> SessionSnapshot {
        let len = self.events.len();
        let start = cursor.min(len as u64) as usize;
        let end = match window {
            Some(w) => start.saturating_add(w as usize).min(len),
            None => len,
        };
        SessionSnapshot {
            status: self.status,
            found: self.found,
            samples: self.samples,
            charges: self.charges,
            // lint: allow(panic_audit, start and end are both clamped to events.len() just above)
            events: self.events[start..end].to_vec(),
            next_cursor: end as u64,
        }
    }

    /// The final report, once the session finished.
    pub(crate) fn report(&self) -> Option<SessionReport> {
        self.finished.as_ref().map(|f| SessionReport {
            status: self.status,
            trace: f.trace.clone(),
            charges: self.charges,
            finish_order: f.finish_order,
            chunk_stats: f.chunk_stats.clone(),
        })
    }

    /// [`Progress::report`] by move, for the last reader (`forget`).
    pub(crate) fn take_report(&mut self) -> Option<SessionReport> {
        let (status, charges) = (self.status, self.charges);
        self.finished.take().map(|f| SessionReport {
            status,
            trace: f.trace,
            charges,
            finish_order: f.finish_order,
            chunk_stats: f.chunk_stats,
        })
    }

    /// Register `queue`'s one-shot interest: `token` is pushed onto it
    /// once this session has result events past cursor `past` or has
    /// finished, whichever comes first. Re-registering the same
    /// `(queue, token)` keeps one watch, at the earlier cursor.
    pub(crate) fn watch(&mut self, queue: &Arc<CompletionQueue>, token: u64, past: u64) {
        let known = self
            .watchers
            .iter_mut()
            .find(|w| w.token == token && Arc::ptr_eq(&w.queue, queue));
        match known {
            Some(w) => w.past = w.past.min(past),
            None => self.watchers.push(Watch {
                queue: queue.clone(),
                token,
                past,
            }),
        }
    }

    /// Worker side: fold one quantum into the cell. Watchers whose
    /// condition it met move to `woken` (fired by the caller once the
    /// cell lock is dropped); returns whether parked callers must be
    /// notified. `stamp` starts the wake-to-service clock.
    pub(crate) fn publish(
        &mut self,
        quantum: &Quantum,
        found: u64,
        samples: u64,
        finished: Option<(SessionStatus, Finished)>,
        stamp: bool,
        woken: &mut Vec<Watch>,
    ) -> bool {
        self.events.extend_from_slice(&quantum.events);
        self.charges.add(&quantum.delta);
        self.found = found;
        self.samples = samples;
        let done = finished.is_some();
        if let Some((status, finished)) = finished {
            self.status = status;
            self.finished = Some(finished);
            self.last_access = Instant::now();
        }
        let progressed = !quantum.events.is_empty();
        if done || progressed {
            let logged = self.events.len() as u64;
            woken.extend(self.watchers.extract_if(.., |w| done || logged > w.past));
        }
        let notify =
            (done && self.parked_waits > 0) || ((done || progressed) && self.parked_streams > 0);
        if notify && stamp {
            self.woke_at = Some(Instant::now());
        }
        notify
    }
}

/// What one quantum of stepping produced: the worker's reusable scratch,
/// folded into the session's cell by [`Progress::publish`].
#[derive(Default)]
pub(crate) struct Quantum {
    pub(crate) events: Vec<ResultEvent>,
    pub(crate) delta: SessionCharges,
    /// How the session ended, if this quantum ended it.
    pub(crate) ended: Option<SessionStatus>,
}

/// The engine's completion queue: how a readiness-driven server learns
/// *which* of its parked connections can make progress, without asking
/// the engine about each of them.
///
/// A server that cannot afford a thread per pending request asks with
/// [`Engine::try_wait_watch`](crate::Engine::try_wait_watch) /
/// [`Engine::poll_watch`](crate::Engine::poll_watch). When the answer is
/// "not yet", the call leaves one-shot interest in the session, tagged
/// with a caller-chosen `token` (a connection key); the worker that next
/// makes the session progress pushes the token here and — only when the
/// queue goes from empty to non-empty — calls the queue's `wake` hook
/// (e.g. a poller's notify). The server then [`drain`](Self::drain)s the
/// queue and resumes exactly those connections: O(progressed), never
/// O(parked).
pub struct CompletionQueue {
    ready: Mutex<Vec<(u64, Option<Instant>)>>,
    wake: Box<dyn Fn() + Send + Sync>,
    obs: Arc<EngineObs>,
}

impl CompletionQueue {
    pub(crate) fn new(wake: Box<dyn Fn() + Send + Sync>, obs: Arc<EngineObs>) -> Arc<Self> {
        Arc::new(CompletionQueue {
            ready: Mutex::new(Vec::new()),
            wake,
            obs,
        })
    }

    fn push(&self, token: u64) {
        let pushed = self.obs.enabled().then(Instant::now);
        let was_empty = {
            let mut ready = self.ready.lock().expect("completion queue poisoned");
            ready.push((token, pushed));
            ready.len() == 1
        };
        if was_empty {
            (self.wake)();
        }
    }

    /// Move every pending token into `out` (appended), in completion
    /// order. Each token was registered by one `*_watch` call that
    /// answered "not yet" and is delivered at most once per registration.
    pub fn drain(&self, out: &mut Vec<u64>) {
        let mut ready = self.ready.lock().expect("completion queue poisoned");
        for (token, pushed) in ready.drain(..) {
            self.obs.wake_serviced(pushed);
            out.push(token);
        }
    }
}

impl std::fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pending = self.ready.lock().map_or(0, |r| r.len());
        f.debug_struct("CompletionQueue")
            .field("pending", &pending)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_spec_builder() {
        let q = QuerySpec::new(RepoId(3), ClassId(1), StopCond::results(5))
            .chunks(32)
            .weight(4)
            .seed(99)
            .discriminator(DiscriminatorKind::Tracker { seed: 5 })
            .warm_start(false)
            .batch(16);
        assert_eq!(q.repo, RepoId(3));
        assert_eq!(q.class, ClassId(1));
        assert_eq!(q.chunks, 32);
        assert_eq!(q.weight, 4);
        assert_eq!(q.seed, 99);
        assert_eq!(q.stop.max_results, Some(5));
        assert_eq!(q.discriminator, DiscriminatorKind::Tracker { seed: 5 });
        assert!(!q.warm_start);
        assert_eq!(q.batch, Some(16));
    }

    #[test]
    fn query_spec_defaults_to_oracle_and_warm_start() {
        let q = QuerySpec::new(RepoId(0), ClassId(0), StopCond::results(1));
        assert_eq!(q.discriminator, DiscriminatorKind::Oracle);
        assert!(q.warm_start);
        assert_eq!(q.batch, None, "batch defaults to the engine's setting");
    }

    #[test]
    fn zero_batch_is_rejected_at_validation() {
        let q = QuerySpec::new(RepoId(0), ClassId(0), StopCond::results(1)).batch(0);
        assert_eq!(q.validate(), Err("batch must be positive"));
        let q = QuerySpec::new(RepoId(0), ClassId(0), StopCond::results(1)).batch(1);
        assert_eq!(q.validate(), Ok(()));
    }

    #[test]
    fn charges_total() {
        let c = SessionCharges {
            detect_s: 1.5,
            io_s: 0.25,
            dispatch_s: 0.5,
            ..Default::default()
        };
        assert!((c.total_s() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn completion_queue_wakes_on_empty_to_non_empty_only() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = wakes.clone();
        let queue = CompletionQueue::new(
            Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }),
            Arc::new(EngineObs::new(true)),
        );
        let mut out = Vec::new();
        queue.drain(&mut out);
        assert!(out.is_empty());
        for token in [3, 1, 2] {
            queue.push(token);
        }
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "one wake for the burst");
        queue.drain(&mut out);
        assert_eq!(out, [3, 1, 2], "completion order");
        queue.push(4);
        assert_eq!(
            wakes.load(Ordering::SeqCst),
            2,
            "drained, so it wakes again"
        );
        queue.drain(&mut out);
        assert_eq!(out, [3, 1, 2, 4], "drain appends");
    }

    #[test]
    fn watches_fire_past_their_cursor_or_at_the_end_and_only_once() {
        let queue = CompletionQueue::new(Box::new(|| {}), Arc::new(EngineObs::new(false)));
        let cell = SessionCell::new();
        let mut progress = cell.progress.lock().unwrap();
        let event = |samples| ResultEvent {
            frame: samples,
            new_results: 1,
            samples,
            seconds: 0.0,
        };
        let quantum = |events: Vec<ResultEvent>| Quantum {
            events,
            ..Quantum::default()
        };
        let tokens = |woken: &mut Vec<Watch>| {
            let mut t: Vec<u64> = woken.drain(..).map(|w| w.token).collect();
            t.sort_unstable();
            t
        };
        let mut woken = Vec::new();
        progress.watch(&queue, 1, 0); // a stream at the head of the log
        progress.watch(&queue, 2, 1); // a stream one event ahead
        progress.watch(&queue, 3, u64::MAX); // a `Wait`
        progress.watch(&queue, 2, 5); // again: one watch, earlier cursor kept

        // No events: nobody's condition is met, nobody is parked.
        assert!(!progress.publish(&quantum(vec![]), 0, 8, None, false, &mut woken));
        assert!(woken.is_empty());
        // One event: past cursor 0 only.
        progress.publish(&quantum(vec![event(9)]), 1, 16, None, false, &mut woken);
        assert_eq!(tokens(&mut woken), [1]);
        // A second: past cursor 1 now; the fired watch does not repeat.
        progress.publish(&quantum(vec![event(17)]), 2, 24, None, false, &mut woken);
        assert_eq!(tokens(&mut woken), [2]);
        // Finalization fires whatever is left.
        progress.watch(&queue, 4, 7);
        let end = Finished {
            trace: exsample_core::driver::SearchStepper::new(StopCond::results(1), 0.0).finish(),
            chunk_stats: Vec::new(),
            finish_order: 0,
        };
        let done = Some((SessionStatus::Done, end));
        progress.publish(&quantum(vec![]), 2, 24, done, false, &mut woken);
        assert_eq!(tokens(&mut woken), [3, 4]);
        assert_eq!(progress.events.len(), 2);
        assert!(progress
            .report()
            .is_some_and(|r| r.status == SessionStatus::Done));
    }

    #[test]
    fn publish_notifies_parked_callers_by_what_they_wait_for() {
        let cell = SessionCell::new();
        let mut progress = cell.progress.lock().unwrap();
        let mut woken = Vec::new();
        let with_event = Quantum {
            events: vec![ResultEvent {
                frame: 1,
                new_results: 1,
                samples: 1,
                seconds: 0.0,
            }],
            ..Quantum::default()
        };
        // Nobody parked: nothing to notify, no clock read.
        assert!(!progress.publish(&with_event, 1, 1, None, true, &mut woken));
        assert!(progress.woke_at.is_none());
        // A `wait` caller sleeps through events; a `poll_wait` caller
        // does not sleep through them, but sleeps through empty quanta.
        progress.parked_waits = 1;
        assert!(!progress.publish(&with_event, 2, 2, None, true, &mut woken));
        progress.parked_streams = 1;
        assert!(!progress.publish(&Quantum::default(), 2, 3, None, true, &mut woken));
        assert!(progress.publish(&with_event, 3, 4, None, true, &mut woken));
        assert!(progress.woke_at.is_some(), "the wake is stamped");
    }
}
