//! The engine: many search sessions multiplexed over a few workers.
//!
//! # Architecture
//!
//! ```text
//!  submit ──▶ ┌───────────────────────────────┐
//!  cancel ──▶ │ EngineState (state mutex)     │   work_cv: parks idle
//!  forget ──▶ │  sessions: SessionId -> cell ─┼─┐ workers, notified only
//!             │  scheduler: weighted fair     │ │ when one is parked
//!             │  tenant ledger, reap queue    │ │
//!             └──────────────┬────────────────┘ │ id -> cell: one lookup
//!                            │ lease / release  │
//!                 ┌──────────▼──────────┐       │
//!                 │ workers: run_quantum│       ▼
//!                 └───┬──────────────┬──┘  ┌──────────────────────────┐
//!      miss: decode + │      publish │     │ SessionCell (per session)│
//!      detect         │      quantum └────▶│  progress: small mutex   │◀── poll
//!                 ┌───▼─────────────────┐  │   events, status, ledger,│◀── poll_wait
//!                 │ FrameCache (sharded)│  │   final report, watchers │◀── wait
//!                 └─────────────────────┘  │  wake: own condvar       │
//!                  hit: free, shared       └───────────┬──────────────┘
//!                                                      │ one-shot watch fires
//!                                          ┌───────────▼──────────────┐
//!                                          │ CompletionQueue (MPSC)   │──▶ server's
//!                                          │  tokens; wake hook fires │    poller
//!                                          │  on empty -> non-empty   │    notify
//!                                          └──────────────────────────┘
//! ```
//!
//! A worker leases the runnable session with the smallest virtual time —
//! the lease *owns* the session's core, so the state mutex is not held
//! while frames are processed — steps it for up to a quantum of frames,
//! publishes what the quantum produced into the session's own
//! [progress cell](crate::session) — outside the state mutex, waking only
//! callers parked on *that* session and completion queues watching it —
//! then checks the core back in and charges the scheduler what the
//! quantum actually cost. (The one quantum that finishes a session
//! publishes its final report under the state mutex instead, right after
//! the engine's books for the session close, so that a woken `wait` finds
//! both done.) Clients resolve a session id to its cell with one short
//! table lookup and read progress under the cell's lock alone; the state
//! mutex guards the scheduler, the session table, the tenant ledger and
//! the reap queue, nothing a poll needs. Lock order is state → cell,
//! never the reverse.
//!
//! # Stepping
//!
//! That whole turn — lease → step → publish or finalize → release — is
//! one call, [`Engine::run_quantum`], and the only stepping code there is:
//! a worker thread is `loop { if !run_quantum() { park } }`, and an engine
//! built with [`EngineConfig::workers`]` = 0` spawns no thread and moves
//! only when its owner makes that call, so a fleet's interleaving becomes
//! a program instead of a race (`wait` and `poll_wait` never step on the
//! caller's behalf). Within a quantum, stepping proceeds in detector
//! *batches* (§III-F, [`EngineConfig::batch`] / `QuerySpec::batch`), each
//! one value handed through three phases, back to back:
//!
//! 1. **draw + reserve** — the batch is drawn from the sampler with no
//!    intermediate feedback and each frame looked up in the cache: a hit
//!    is in hand, a miss becomes this session's reservation, a key another
//!    session is computing becomes a wait;
//! 2. **detect** — the reservations are redeemed outside the cache shard
//!    locks, from the mapped container where it holds the frame and by a
//!    single detector dispatch for the rest. It reads no sampler or
//!    stepper state: the cut a fleet-level dispatch queue needs;
//! 3. **record + publish** — other sessions' in-flight frames are waited
//!    for (strictly after our own fills, so overlapping batches cannot
//!    deadlock), then discriminator feedback is replayed in draw order and
//!    the session charged.
//!
//! Per-frame cost is the modelled detector time (`1 / detector_fps`,
//! cache misses only) plus io/decode seconds priced by the store's
//! `CostModel`, plus one `CostModel::dispatch_s` overhead per dispatch;
//! cache hits are free, which is precisely the sharing the engine exists
//! to exploit. The io/decode tally of a miss comes from the session's own
//! `exsample_store::GopWalk` — the seek, GOP fetch and keyframe walk the
//! paper's re-encoded storage (§V-A, a keyframe every
//! [`EngineConfig::gop_size`] frames) would pay, with every frame an empty
//! payload. No container is built or read: decode cost is structural, so
//! the walk charges exactly what reading such a container would, holds no
//! bytes, and leaves a repository costing nothing per frame to register.
//!
//! # Determinism
//!
//! Each session owns its policy, RNG, and discriminator, and is stepped by
//! one lease holder at a time, so its frame sequence — and therefore its
//! results, for result- or sample-bounded stops — is a pure function of
//! its `QuerySpec`, independent of scheduling interleavings. Detector
//! output is deterministic per `(repo, frame)`, and the cache computes
//! each resident key exactly once, so total detector invocations are also
//! reproducible (given a cache large enough to avoid evictions).
//! Time-bounded stops (`StopCond::max_seconds`) react to *charged*
//! seconds, which depend on which session happens to pay for a shared
//! frame first — those stops are fair but not bit-reproducible.

mod bootstrap;
mod service;
mod worker;

pub use bootstrap::PersistStats;

use crate::cache::{CacheStats, FrameCache};
use crate::obs::{elapsed_ns, EngineObs};
use crate::scheduler::Scheduler;
use crate::service::{Diagnostics, ServiceError, ServiceStats};
use crate::session::{
    CompletionQueue, Progress, QuerySpec, RepoId, SessionCell, SessionId, SessionReport,
    SessionSnapshot, TenantBinding, TenantId,
};
use bootstrap::{PersistShared, RepoData, RepoEntry};
use exsample_core::belief::ChunkStats;
use exsample_core::exsample::ExSample;
use exsample_core::{default_threads, Chunking};
use exsample_obs::{SpanRecord, TraceId};
use exsample_persist::PersistConfig;
use exsample_stats::FxHashMap;
use exsample_store::CostModel;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use worker::{SessionCore, Worker};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (defaults to [`default_threads`]). `0` spawns none:
    /// the engine moves only when its owner calls
    /// [`Engine::run_quantum`].
    pub workers: usize,
    /// Modelled detector throughput; one invocation charges
    /// `1 / detector_fps` seconds (the paper measures ≈ 20 fps).
    pub detector_fps: f64,
    /// Frames granted per scheduler lease. Smaller quanta interleave
    /// sessions more finely; larger quanta amortize locking.
    pub quantum: u32,
    /// Default detector batch size per session (§III-F), overridable per
    /// query via `QuerySpec::batch`. Each batch is drawn from the sampler
    /// with no intermediate feedback and its cache misses are resolved
    /// with a **single** detector dispatch, amortizing
    /// [`CostModel::dispatch_s`]. The effective batch is capped by
    /// `quantum` at each lease. The default of 1 is bit-identical to
    /// per-frame stepping.
    pub batch: u32,
    /// Shared detection cache capacity, in frames.
    pub cache_capacity: usize,
    /// Cache shard count (rounded up to a power of two).
    pub cache_shards: usize,
    /// Keyframe interval of the modelled storage containers.
    pub gop_size: u32,
    /// Prices io/decode work (seeks, GOP walks) in seconds.
    pub cost_model: CostModel,
    /// Durable detection store. When set, the engine folds the previous
    /// life's detection log into the mapped columnar container at startup
    /// and answers cache misses from it before paying the detector,
    /// appends every real miss to the log (write-behind), and snapshots
    /// each finished session's chunk beliefs for later warm-starts. `None`
    /// (the default) keeps the engine fully in-memory.
    pub persist: Option<PersistConfig>,
    /// Orphan-session garbage collection. Sessions deliberately outlive
    /// connections (so remote clients can reconnect and resume), which
    /// means an abandoned session's event log and trace are otherwise
    /// retained until `forget`. With a TTL set, a *finished* session that
    /// has not been polled, waited on, or forgotten for this long is
    /// reaped as if forgotten; every poll/wait refreshes its liveness,
    /// and `forget` stays immediate. Reaping is piggybacked on engine
    /// activity (API calls and session finalization), so an idle engine
    /// reaps at its next touch. Pick a TTL comfortably above the slowest
    /// client's poll interval. `None` (the default) never reaps.
    pub session_ttl: Option<Duration>,
    /// Record latency histograms, flight-recorder events (the last 4096)
    /// and request-scoped span trees (on by default). Each accepted
    /// submit opens a trace — deterministically derived from the session
    /// id — and every instrumented stage adds a span to its causal tree,
    /// collectable via
    /// [`SearchService::collect_trace`](crate::SearchService::collect_trace).
    /// Instrumentation is observational only — wall-clock reads and
    /// relaxed atomics — so session traces are identical either way;
    /// switching it off removes even that cost (the benchmark's
    /// `obs.*_record_ns` layer metrics price it per record). Metrics are
    /// still *registered* when off (with zero readings), so
    /// [`Engine::diagnostics`] keeps a stable shape.
    pub observe: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: default_threads(),
            detector_fps: 20.0,
            quantum: 32,
            batch: 1,
            cache_capacity: 1 << 20,
            cache_shards: 64,
            gop_size: 20,
            cost_model: CostModel::default(),
            persist: None,
            session_ttl: None,
            observe: true,
        }
    }
}

/// The engine state lock, held.
type StateGuard<'a> = MutexGuard<'a, EngineState>;

struct EngineState {
    /// The repository catalog, which is also its own identity index: each
    /// entry's `RepoInfo` carries the `(name, dataset fingerprint)` it
    /// was registered under.
    repos: FxHashMap<RepoId, RepoEntry>,
    /// Next id for catalog-less allocation (kept past the durable
    /// catalog's assignments when persistence is on).
    next_repo: u32,
    /// Workers parked on `work_cv`. `notify_*` on a futex condvar is a
    /// syscall whether or not anyone waits, so releases and submits
    /// notify only when this is nonzero.
    idle_workers: usize,
    /// Every session a client can still ask about, running or finished:
    /// id → everything a client observes of it.
    sessions: FxHashMap<SessionId, Arc<SessionCell>>,
    /// The cores of the running sessions nobody is stepping right now. A
    /// core is here or in its lease holder's hands, never both — which is
    /// all "leased" means.
    parked: FxHashMap<SessionId, Box<SessionCore>>,
    scheduler: Scheduler,
    next_session: u64,
    finished_sessions: u64,
    /// Per-tenant count of *running* sessions (tagged submissions only):
    /// incremented at submit, decremented at finalization. This is the
    /// serving layer's session-quota accounting, kept here so it cannot
    /// drift from the authoritative session table.
    tenant_running: FxHashMap<TenantId, u64>,
    /// Finished sessions awaiting TTL expiry, roughly ordered by their
    /// earliest possible reap time. Entries whose session was forgotten
    /// in the meantime are skipped; entries whose session was touched
    /// since are re-queued at their refreshed deadline. Empty unless
    /// [`EngineConfig::session_ttl`] is set.
    reap_queue: VecDeque<(SessionId, Instant)>,
}

struct Shared {
    state: Mutex<EngineState>,
    /// Wakes workers when sessions become runnable (submit / release).
    work_cv: Condvar,
    cache: FrameCache,
    config: EngineConfig,
    persist: Option<PersistShared>,
    /// Instrumentation hub (`Arc` so the write-behind closure can hold
    /// it independently of the engine's lifetime).
    obs: Arc<EngineObs>,
    stop: AtomicBool,
}

/// Multi-query search engine front door.
///
/// See the [module docs](self) for the architecture. All methods take
/// `&self`; the engine is internally synchronized and is shut down (stop
/// flag + worker join) on drop.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Engine {
    /// Start an engine and its worker threads — none with
    /// [`EngineConfig::workers`]` = 0`: that engine is stepped by its
    /// caller through [`Engine::run_quantum`]. With
    /// [`EngineConfig::persist`] set, previously persisted detections are
    /// compacted into the container and mapped, and belief snapshots are
    /// loaded into memory, before any worker runs; stale
    /// (fingerprint-mismatched) or damaged data is skipped and counted in
    /// [`Engine::persist_stats`], never an error. A startup compaction
    /// that fails is absorbed too: that life serves from whatever
    /// container was already live and re-pays the detector for the rest.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (zero quantum, batch,
    /// fps, GOP size or cache capacity), or if the persist directory cannot be
    /// created or listed at all (directory-level IO failure — damaged
    /// *contents* never panic).
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.quantum > 0, "quantum must be positive");
        assert!(config.batch > 0, "batch must be positive");
        assert!(config.detector_fps > 0.0, "detector_fps must be positive");
        assert!(config.gop_size > 0, "gop_size must be positive");
        let obs = Arc::new(EngineObs::new(config.observe));
        let mut cache = FrameCache::new(config.cache_capacity, config.cache_shards);
        let persist = config
            .persist
            .as_ref()
            .map(|pc| PersistShared::open(pc, &obs, &mut cache));
        let workers = config.workers;
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                repos: FxHashMap::default(),
                next_repo: 0,
                idle_workers: 0,
                sessions: FxHashMap::default(),
                parked: FxHashMap::default(),
                scheduler: Scheduler::new(),
                next_session: 0,
                finished_sessions: 0,
                tenant_running: FxHashMap::default(),
                reap_queue: VecDeque::new(),
            }),
            work_cv: Condvar::new(),
            cache,
            config,
            persist,
            obs,
            stop: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("exsample-engine-{i}"))
                    .spawn(move || Worker::new(&shared).run())
                    // lint: allow(panic_audit, failing to spawn a worker at engine startup is fatal by design)
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, workers }
    }

    /// Run one quantum on the calling thread: lease the runnable session
    /// with the smallest virtual time, step it for up to
    /// [`EngineConfig::quantum`] frames, publish what that produced (or
    /// finalize the session), release the lease. `false`, having done
    /// nothing, when no session is runnable. Worker threads call exactly
    /// this in a loop, and it is the whole of how a `workers = 0` engine
    /// moves: `while engine.run_quantum() {}` drives every submitted
    /// session to completion in scheduler order.
    ///
    /// # Panics
    /// Re-raises a panic from the session's discriminator or storage —
    /// after finalizing the session as cancelled, so nothing waits on it
    /// forever.
    pub fn run_quantum(&self) -> bool {
        let state = self.lock_state();
        Worker::new(&self.shared).quantum(state).1
    }

    /// Submit a query; the session immediately competes for detector
    /// budget. Returns its id for `poll` / `cancel` / `wait`.
    ///
    /// The spec is validated *here*, not in a worker: a structurally
    /// invalid spec (zero chunks or weight, degenerate prior, non-finite
    /// time budget, unknown repository or class) is rejected before it
    /// can consume any detector budget or panic mid-search.
    pub fn submit(&self, spec: QuerySpec) -> Result<SessionId, ServiceError> {
        self.submit_tagged(spec, None)
    }

    /// [`Engine::submit`] with an authenticated tenant binding, used by
    /// the serving layer (`exsample-serve`).
    ///
    /// The binding tags the session for per-tenant accounting (see
    /// [`Engine::tenant_running`]) and multiplies the spec's scheduler
    /// weight by the tenant's tier weight, so tier priority composes
    /// with per-query weights without the client being able to forge
    /// it: the binding comes from the server's auth registry, never
    /// from the wire spec.
    pub fn submit_tagged(
        &self,
        spec: QuerySpec,
        binding: Option<TenantBinding>,
    ) -> Result<SessionId, ServiceError> {
        let obs = &self.shared.obs;
        let submit_start = obs.enabled().then(Instant::now);
        let invalid = |why: &str| ServiceError::InvalidSpec(why.into());
        spec.validate().map_err(invalid)?;
        let mut state = self.lock_state();
        let repo = state
            .repos
            .get(&spec.repo)
            .map(|e| e.data.clone())
            .ok_or(ServiceError::UnknownRepo(spec.repo))?;
        if (spec.class.0 as usize) >= repo.gt.num_classes() {
            return Err(invalid("class not present in repository"));
        }
        let frames = repo.gt.frames;
        if frames == 0 {
            return Err(invalid("repository has no frames"));
        }
        let chunks = spec.chunks.min(frames as usize);
        let mut policy = ExSample::new(Chunking::even(frames, chunks), spec.config);
        if spec.warm_start {
            if let Some(p) = &self.shared.persist {
                let beliefs = p.beliefs.lock().expect("belief store poisoned");
                if let Some(stats) = beliefs.get((spec.repo.0, spec.class.0, chunks as u32)) {
                    policy.import_stats(stats);
                }
            }
        }
        let cell = SessionCell::new();
        let config = &self.shared.config;
        let batch = spec.batch.unwrap_or(config.batch);
        let tenant = binding.map(|b| b.tenant);
        let core = SessionCore::new(
            &spec,
            repo,
            policy,
            batch,
            config.gop_size,
            cell.clone(),
            tenant,
        );
        let id = SessionId(state.next_session);
        state.next_session += 1;
        // Still under the state lock, so before any worker can lease
        // the session (let alone finish it).
        obs.trace_open(id.0);
        state.sessions.insert(id, cell);
        if let Some(t) = tenant {
            *state.tenant_running.entry(t).or_insert(0) += 1;
        }
        let weight = match binding {
            Some(b) => spec.weight.saturating_mul(b.weight.max(1)),
            None => spec.weight,
        };
        state.admit(id, weight, core);
        let wake_worker = state.idle_workers > 0;
        drop(state);
        if obs.enabled() {
            obs.sessions_submitted_total.inc();
            // Untagged in-process submits are accounted under tenant 0.
            let tenant = tenant.map_or(0, |t| t.0).to_string();
            obs.submits_by_tenant.with(&tenant).inc();
            obs.sessions_active.with(&tenant).add(1);
            obs.trace_submit(id.0, submit_start.map_or(0, elapsed_ns));
        }
        if wake_worker {
            self.shared.work_cv.notify_all();
        }
        Ok(id)
    }

    /// Non-blocking progress snapshot. `cursor` selects which result
    /// events to return (pass 0 first, then the returned `next_cursor`);
    /// see [`SessionSnapshot`] for the full cursor contract — in
    /// particular, a cursor at or past the end of the event log returns
    /// an empty snapshot, never an error.
    pub fn poll(&self, id: SessionId, cursor: u64) -> Result<SessionSnapshot, ServiceError> {
        self.poll_window(id, cursor, None)
    }

    /// [`Engine::poll`] with a window: at most `window` events are
    /// returned and `next_cursor` advances only past what was returned,
    /// so a slow consumer paces the stream (`None` = unbounded).
    pub fn poll_window(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        let cell = self.cell(id)?;
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        self.touch(&mut progress);
        Ok(progress.snapshot(cursor, window))
    }

    /// Blocking poll: parks until the session has result events past
    /// `cursor` *or* has finished, then snapshots like
    /// [`Engine::poll_window`]. This is what a streaming server loop
    /// uses — no busy-polling between result batches. The caller parks on
    /// the session's own cell: only this session's progress wakes it.
    pub fn poll_wait(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        let cell = self.cell(id)?;
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        // Counted under the same lock the worker publishes under, so a
        // wakeup can never be missed.
        while !progress.has_batch(cursor) {
            progress.parked_streams += 1;
            progress = cell.wake.wait(progress).expect("session cell poisoned");
            progress.parked_streams -= 1;
            self.shared.obs.wake_serviced(progress.woke_at);
        }
        self.touch(&mut progress);
        Ok(progress.snapshot(cursor, window))
    }

    /// Request cancellation. Takes effect at the session's next frame
    /// boundary; `wait` then returns its partial trace with status
    /// [`Cancelled`](crate::SessionStatus::Cancelled). Cancelling a
    /// finished session is a no-op.
    pub fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        let state = self.lock_state();
        let cell = state
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        cell.cancel.store(true, Ordering::Relaxed);
        // A running session is leased (its worker reads the flag at the
        // next batch) or runnable (a worker pass finalizes it); only an
        // idle pool needs the nudge.
        let wake_worker = state.idle_workers > 0;
        drop(state);
        if wake_worker {
            self.shared.work_cv.notify_all();
        }
        Ok(())
    }

    /// Block until the session finishes (or is cancelled) and return its
    /// final report. Parks on the session's own cell, like
    /// [`Engine::poll_wait`], and is woken at finalization only.
    pub fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        let cell = self.cell(id)?;
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        // Drop takes `&mut self`, so no `wait` borrow can be alive while
        // the engine shuts down — no stop check is needed here.
        let report = loop {
            if let Some(report) = progress.report() {
                break report;
            }
            progress.parked_waits += 1;
            progress = cell.wake.wait(progress).expect("session cell poisoned");
            progress.parked_waits -= 1;
            self.shared.obs.wake_serviced(progress.woke_at);
        };
        self.touch(&mut progress);
        Ok(report)
    }

    /// Non-blocking [`Engine::wait`]: the final report if the session
    /// has finished, `None` while it still runs.
    pub fn try_wait(&self, id: SessionId) -> Result<Option<SessionReport>, ServiceError> {
        let cell = self.cell(id)?;
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        self.touch(&mut progress);
        Ok(progress.report())
    }

    /// A completion queue on this engine (see [`CompletionQueue`]).
    /// `wake` is called from a worker thread whenever the queue goes from
    /// empty to non-empty. It must not block and must not call back into
    /// the engine — at a session's finalization it runs under the engine
    /// state lock. A poller notify or a channel send is what it is for.
    pub fn completion_queue(
        &self,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> Arc<CompletionQueue> {
        CompletionQueue::new(Box::new(wake), self.shared.obs.clone())
    }

    /// [`Engine::try_wait`] for a readiness-driven server, which cannot
    /// park a thread per pending wait: when the answer is `None`, `token`
    /// is pushed onto `queue` once the session finishes — registered
    /// under the same lock the worker publishes under, so the completion
    /// cannot be missed. Ask again only then.
    pub fn try_wait_watch(
        &self,
        id: SessionId,
        queue: &Arc<CompletionQueue>,
        token: u64,
    ) -> Result<Option<SessionReport>, ServiceError> {
        let cell = self.cell(id)?;
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        self.touch(&mut progress);
        let report = progress.report();
        if report.is_none() {
            progress.watch(queue, token, u64::MAX);
        }
        Ok(report)
    }

    /// The non-blocking counterpart of [`Engine::poll_wait`]: the
    /// snapshot if the session has events past `cursor` or has finished;
    /// otherwise `None`, and `token` is pushed onto `queue` once either
    /// becomes true (as for [`Engine::try_wait_watch`]).
    pub fn poll_watch(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
        queue: &Arc<CompletionQueue>,
        token: u64,
    ) -> Result<Option<SessionSnapshot>, ServiceError> {
        let cell = self.cell(id)?;
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        self.touch(&mut progress);
        if progress.has_batch(cursor) {
            return Ok(Some(progress.snapshot(cursor, window)));
        }
        progress.watch(queue, token, cursor);
        Ok(None)
    }

    /// Number of sessions currently *running* (admitted and not yet
    /// finished or cancelled) — the admission layer's queue-depth
    /// signal.
    pub fn running_sessions(&self) -> usize {
        self.lock_state().scheduler.active_sessions()
    }

    /// Number of running sessions tagged with `tenant` (see
    /// [`Engine::submit_tagged`]). Zero for tenants with nothing
    /// running.
    pub fn tenant_running(&self, tenant: TenantId) -> u64 {
        self.lock_state()
            .tenant_running
            .get(&tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Drop every trace of a *finished* session (its event log, trace,
    /// and ledger), returning the final report one last time.
    ///
    /// Finished sessions are retained indefinitely so late `poll`/`wait`
    /// callers can still read them; a long-lived engine serving an open-
    /// ended query stream should `forget` sessions once their results are
    /// consumed, or resident memory grows with every query ever run.
    pub fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        let mut state = self.lock_state();
        let cell = state
            .sessions
            .get(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        let report = {
            let mut progress = cell.progress.lock().expect("session cell poisoned");
            // Usually the table holds the last reference (no new one can
            // appear while the state lock is held) and the report moves
            // out; a caller still inside `wait`/`poll` on this session
            // keeps the cell alive and is left its own copy.
            if Arc::strong_count(cell) == 1 {
                progress.take_report()
            } else {
                progress.report()
            }
        };
        let report = report.ok_or(ServiceError::SessionRunning(id))?;
        state.sessions.remove(&id);
        Ok(report)
    }

    /// Shared-cache counters (hits, misses, evictions, residency).
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Total detector invocations the engine has paid for — cache misses.
    /// With independent execution this would be the total frame count
    /// across sessions; the difference is what sharing saved.
    pub fn detector_invocations(&self) -> u64 {
        self.shared.cache.stats().misses
    }

    /// Durable-store counters, or `None` when persistence is off.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.shared.persist.as_ref().map(PersistShared::stats)
    }

    /// The belief statistics a warm-starting query over
    /// `(repo, class, chunks)` would import right now, if a snapshot
    /// exists. `None` when persistence is off or no prior search over
    /// that key has finished. `chunks` is the *effective* chunk count
    /// (i.e. after clamping to the repository's frame count).
    pub fn warm_beliefs(
        &self,
        repo: RepoId,
        class: exsample_videosim::ClassId,
        chunks: usize,
    ) -> Option<Vec<ChunkStats>> {
        let p = self.shared.persist.as_ref()?;
        let beliefs = p.beliefs.lock().expect("belief store poisoned");
        beliefs
            .get((repo.0, class.0, chunks as u32))
            .map(<[_]>::to_vec)
    }

    /// Aggregate service counters: cache behaviour, durable-store
    /// activity, and resident session count — the per-shard unit a
    /// cluster router sums into fleet-wide statistics.
    pub fn service_stats(&self) -> ServiceStats {
        let live_sessions = {
            let state = self.lock_state();
            state.sessions.len() as u64
        };
        ServiceStats {
            cache: self.cache_stats(),
            persist: self.persist_stats(),
            live_sessions,
        }
    }

    /// The engine's observability snapshot: every registered latency
    /// histogram and counter plus the flight recorder's resident
    /// events. Cheap — atomic loads and one ring copy; no state lock.
    /// With [`EngineConfig::observe`] off, the shape is identical but
    /// every reading is zero.
    pub fn diagnostics(&self) -> Diagnostics {
        let obs = &self.shared.obs;
        Diagnostics {
            histograms: obs.registry().histograms(),
            counters: obs.registry().counters(),
            events: obs.flight().dump(),
        }
    }

    /// The instrumentation hub — other layers (e.g. the wire server)
    /// record their own stages through its [`EngineObs::record`] and
    /// [`EngineObs::span`], into the same histograms, ring and traces.
    pub fn obs(&self) -> &EngineObs {
        &self.shared.obs
    }

    /// This shard's recorded spans for `trace`, as a causal tree rooted
    /// at the session span. Empty when [`EngineConfig::observe`] is off
    /// (or the trace was evicted); never an error.
    pub fn collect_trace(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.shared.obs.tracer().collect(trace)
    }

    /// Note a client touch for TTL-based reaping — the only reader of
    /// `last_access`, so without a TTL the clock is not read.
    fn touch(&self, progress: &mut Progress) {
        if self.shared.config.session_ttl.is_some() {
            progress.last_access = Instant::now();
        }
    }

    /// Resolve a session id to its progress cell: the one short visit to
    /// the state lock a poll or wait makes.
    fn cell(&self, id: SessionId) -> Result<Arc<SessionCell>, ServiceError> {
        let state = self.lock_state();
        state
            .sessions
            .get(&id)
            .cloned()
            .ok_or(ServiceError::UnknownSession(id))
    }

    fn lock_state(&self) -> StateGuard<'_> {
        let mut state = lock_state(&self.shared);
        // Orphan-session GC piggybacks on every API touch: cheap (a front
        // peek) when nothing is due, and no dedicated timer thread.
        if let Some(ttl) = self.shared.config.session_ttl {
            reap_expired(&mut state, ttl);
        }
        state
    }
}

/// Take the engine state lock. The contended path — and only it — is
/// timed into `engine_state_lock_wait_ns`: `try_lock` first, so an
/// uncontended acquisition never reads the clock.
fn lock_state(shared: &Shared) -> StateGuard<'_> {
    match shared.state.try_lock() {
        Ok(state) => state,
        Err(TryLockError::WouldBlock) => {
            let since = shared.obs.enabled().then(Instant::now);
            let state = shared.state.lock().expect("engine state poisoned");
            if let Some(since) = since {
                shared.obs.state_lock_waited(since);
            }
            state
        }
        Err(TryLockError::Poisoned(_)) => panic!("engine state poisoned"),
    }
}

/// Reap finished sessions whose TTL elapsed without a client touch.
/// Entries are queued at finalization; a session polled or waited on
/// since then (or whose final report is not published yet) is re-queued
/// at its refreshed deadline, and one forgotten in the meantime is simply
/// skipped.
fn reap_expired(state: &mut EngineState, ttl: Duration) {
    let now = Instant::now();
    while let Some(&(id, due)) = state.reap_queue.front() {
        if due > now {
            break;
        }
        state.reap_queue.pop_front();
        let Some(cell) = state.sessions.get(&id) else {
            continue; // forgotten before its TTL ran out
        };
        let deadline = {
            let progress = cell.progress.lock().expect("session cell poisoned");
            match progress.finished {
                Some(_) => progress.last_access + ttl,
                None => now + ttl,
            }
        };
        if deadline <= now {
            state.sessions.remove(&id);
        } else {
            state.reap_queue.push_back((id, deadline));
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Workers read `stop` under the state mutex before parking on
        // work_cv. Notifying while holding that mutex closes the lost-
        // wakeup window: either a worker has already parked (the notify
        // reaches it) or it still holds the mutex (we block here until it
        // parks, then our notify reaches it) — it can never re-check the
        // flag before our store became visible.
        {
            let _state = self.lock_state();
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock_state();
        f.debug_struct("Engine")
            .field("workers", &self.workers.len())
            .field("repos", &state.repos.len())
            .field("sessions", &state.sessions.len())
            .field("cache", &self.shared.cache.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{SearchService, ServiceError};
    use crate::session::{DiscriminatorKind, SessionStatus};
    use exsample_core::driver::StopCond;
    use exsample_detect::{NoiseModel, OracleDiscriminator, SimulatedDetector};
    use exsample_stats::Rng64;
    use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};

    fn truth(frames: u64, instances: usize) -> Arc<GroundTruth> {
        Arc::new(
            DatasetSpec::single_class(
                frames,
                ClassSpec::new(
                    "car",
                    instances,
                    200.0,
                    SkewSpec::CentralNormal { frac95: 0.2 },
                ),
            )
            .generate(17),
        )
    }

    fn small_engine(workers: usize) -> (Engine, RepoId) {
        let engine = Engine::new(EngineConfig {
            workers,
            quantum: 8,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("test-repo", truth(20_000, 60), NoiseModel::none(), 5);
        (engine, repo)
    }

    /// Step a `workers: 0` engine until nothing is runnable.
    fn run_to_idle(engine: &Engine) {
        while engine.run_quantum() {}
    }

    #[test]
    fn single_session_reaches_result_limit() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(10)).seed(3))
            .unwrap();
        let report = engine.wait(id).unwrap();
        assert_eq!(report.status, SessionStatus::Done);
        assert!(report.trace.found() >= 10);
        assert!(report.charges.frames > 0);
        assert!(report.charges.detector_invocations > 0);
        assert!(report.charges.total_s() > 0.0);
        // Engine seconds equal the charged ledger.
        assert!((report.trace.seconds() - report.charges.total_s()).abs() < 1e-9);
    }

    #[test]
    fn tenant_tagged_submits_are_counted_and_released() {
        let (engine, repo) = small_engine(2);
        let t = TenantId(7);
        let binding = Some(TenantBinding {
            tenant: t,
            weight: 4,
        });
        let a = engine
            .submit_tagged(
                QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(1),
                binding,
            )
            .unwrap();
        let b = engine
            .submit_tagged(
                QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(2),
                binding,
            )
            .unwrap();
        // Untagged sessions never touch tenant accounting.
        let c = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(3))
            .unwrap();
        assert!(engine.tenant_running(t) <= 2);
        assert_eq!(engine.tenant_running(TenantId(8)), 0);
        for id in [a, b, c] {
            engine.wait(id).unwrap();
        }
        // Quota slots release at finalization, not at forget.
        assert_eq!(engine.tenant_running(t), 0);
        assert_eq!(engine.forget(a).unwrap().status, SessionStatus::Done);
    }

    #[test]
    fn try_wait_is_none_until_finished() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(9))
            .unwrap();
        // Running or finished, try_wait never blocks and never errors on
        // a live session.
        let early = engine.try_wait(id).unwrap();
        let report = engine.wait(id).unwrap();
        let late = engine.try_wait(id).unwrap().expect("finished");
        assert_eq!(late.trace, report.trace);
        if let Some(early) = early {
            assert_eq!(early.trace, report.trace);
        }
        assert!(engine.try_wait(SessionId(999)).is_err());
    }

    #[test]
    fn poll_streams_events_incrementally() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(15)).seed(4))
            .unwrap();
        let mut cursor = 0;
        let mut streamed = 0u64;
        loop {
            let snap = engine.poll(id, cursor).unwrap();
            streamed += snap
                .events
                .iter()
                .map(|e| e.new_results as u64)
                .sum::<u64>();
            cursor = snap.next_cursor;
            if snap.status != SessionStatus::Running {
                break;
            }
            std::thread::yield_now();
        }
        let report = engine.wait(id).unwrap();
        assert_eq!(streamed, report.trace.found());
        // Events are monotone in samples and their results sum to found.
        let snap = engine.poll(id, 0).unwrap();
        for w in snap.events.windows(2) {
            assert!(w[0].samples < w[1].samples);
            assert!(w[0].seconds <= w[1].seconds);
        }
    }

    #[test]
    fn cancel_preserves_partial_trace() {
        // Big, nearly-empty repository: the session cannot exhaust or
        // finish before the cancel lands.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            quantum: 8,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("big-repo", truth(500_000, 2), NoiseModel::none(), 5);
        // Unreachable target: only cancellation (or exhaustion) ends it.
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1_000_000)).seed(5))
            .unwrap();
        // Let it make some progress, then cancel.
        loop {
            let snap = engine.poll(id, 0).unwrap();
            if snap.samples > 100 || snap.status != SessionStatus::Running {
                break;
            }
            std::thread::yield_now();
        }
        engine.cancel(id).unwrap();
        let report = engine.wait(id).unwrap();
        assert_eq!(report.status, SessionStatus::Cancelled);
        assert!(report.trace.samples() > 0);
        // Idempotent.
        engine.cancel(id).unwrap();
        assert_eq!(engine.wait(id).unwrap().status, SessionStatus::Cancelled);
    }

    #[test]
    fn overlapping_sessions_share_detections() {
        // Rare objects and a near-full-recall target force each session to
        // sweep a large share of the hot region, so the sessions' sample
        // sets overlap heavily.
        let engine = Engine::new(EngineConfig {
            workers: 3,
            quantum: 8,
            ..EngineConfig::default()
        });
        let gt = Arc::new(
            DatasetSpec::single_class(
                20_000,
                ClassSpec::new("car", 40, 40.0, SkewSpec::CentralNormal { frac95: 0.15 }),
            )
            .generate(17),
        );
        let repo = engine.register_repo("overlap-repo", gt, NoiseModel::none(), 5);
        let ids: Vec<SessionId> = (0..4)
            .map(|i| {
                engine
                    .submit(
                        QuerySpec::new(repo, ClassId(0), StopCond::results(30))
                            .seed(100 + i)
                            .chunks(8),
                    )
                    .unwrap()
            })
            .collect();
        let mut total_frames = 0;
        for id in ids {
            let report = engine.wait(id).unwrap();
            assert_eq!(report.status, SessionStatus::Done);
            assert!(report.trace.found() >= 30);
            total_frames += report.charges.frames;
        }
        let stats = engine.cache_stats();
        assert!(
            stats.hits > 0,
            "overlapping sessions produced no cache hits"
        );
        assert_eq!(stats.hits + stats.misses, total_frames);
        assert!(engine.detector_invocations() < total_frames);
    }

    #[test]
    fn exhaustion_finishes_session() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("tiny-repo", truth(500, 2), NoiseModel::none(), 6);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1_000)).seed(7))
            .unwrap();
        let report = engine.wait(id).unwrap();
        assert_eq!(report.status, SessionStatus::Done);
        assert!(report.trace.exhausted());
        assert_eq!(report.trace.samples(), 500);
    }

    #[test]
    fn api_errors() {
        let (engine, repo) = small_engine(1);
        assert_eq!(
            engine.submit(QuerySpec::new(RepoId(99), ClassId(0), StopCond::results(1))),
            Err(ServiceError::UnknownRepo(RepoId(99)))
        );
        assert_eq!(
            engine.submit(QuerySpec::new(repo, ClassId(9), StopCond::results(1))),
            Err(ServiceError::InvalidSpec(
                "class not present in repository".into()
            ))
        );
        assert_eq!(
            engine.submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1)).weight(0)),
            Err(ServiceError::InvalidSpec("weight must be positive".into()))
        );
        assert_eq!(
            engine.poll(SessionId(42), 0).unwrap_err(),
            ServiceError::UnknownSession(SessionId(42))
        );
        assert_eq!(
            engine.wait(SessionId(42)).unwrap_err(),
            ServiceError::UnknownSession(SessionId(42))
        );
        assert!(engine.cancel(SessionId(42)).is_err());
    }

    #[test]
    fn priority_weights_shift_detector_budget() {
        // Equal sample budgets on a caller-stepped engine, so the grant
        // sequence is the scheduler's and nobody's race. A repository
        // each (no shared frames: every frame is a miss), free io, and a
        // detector at 16 fps make every quantum cost exactly 4/16 s, so
        // the virtual times are exact and weighted fair queueing is an
        // exact prediction: four grants to the weight-4 session for each
        // one to the weight-1 session, ties to the older id.
        let engine = Engine::new(EngineConfig {
            workers: 0,
            quantum: 4,
            detector_fps: 16.0,
            cost_model: CostModel {
                seek_s: 0.0,
                frame_decode_s: 0.0,
                ..CostModel::default()
            },
            ..EngineConfig::default()
        });
        assert!(engine.workers.is_empty());
        let submit = |name: &str, seed, weight| {
            let repo = engine.register_repo(name, truth(50_000, 40), NoiseModel::none(), 8);
            let spec = QuerySpec::new(repo, ClassId(0), StopCond::samples(2_000));
            engine.submit(spec.seed(seed).weight(weight)).unwrap()
        };
        let heavy = submit("priority-heavy", 1, 4);
        let light = submit("priority-light", 2, 1);
        // Nothing moves until the owner steps it.
        let frames = |id| engine.poll(id, u64::MAX).unwrap().charges.frames;
        assert_eq!((frames(heavy), frames(light)), (0, 0));
        let (mut heavy_grants, mut light_grants) = (0u64, 0u64);
        while engine.try_wait(heavy).unwrap().is_none() {
            let before = (frames(heavy), frames(light));
            assert!(engine.run_quantum());
            match (frames(heavy) - before.0, frames(light) - before.1) {
                (4, 0) => heavy_grants += 1,
                (0, 4) => light_grants += 1,
                other => panic!("one quantum moved {other:?} frames"),
            }
            // While both run, the light session is never more than one
            // grant away from a quarter of the heavy one's.
            assert!(light_grants.abs_diff(heavy_grants.div_ceil(4)) <= 1);
        }
        assert_eq!((heavy_grants, light_grants), (500, 125));
        run_to_idle(&engine);
        let heavy_report = engine.wait(heavy).unwrap();
        let light_report = engine.wait(light).unwrap();
        assert_eq!(heavy_report.trace.samples(), 2_000);
        assert_eq!(light_report.trace.samples(), 2_000);
        assert!(heavy_report.finish_order < light_report.finish_order);
        assert!(!engine.run_quantum(), "an idle engine has nothing to step");
    }

    #[test]
    fn forget_releases_finished_sessions_only() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(21))
            .unwrap();
        let report = engine.wait(id).unwrap();
        let forgotten = engine.forget(id).unwrap();
        assert_eq!(forgotten.trace, report.trace);
        assert_eq!(forgotten.charges, report.charges);
        // Gone: every later access errors.
        assert_eq!(
            engine.poll(id, 0).unwrap_err(),
            ServiceError::UnknownSession(id)
        );
        assert_eq!(
            engine.forget(id).unwrap_err(),
            ServiceError::UnknownSession(id)
        );
        // A running session cannot be forgotten.
        let busy = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1_000_000)).seed(22))
            .unwrap();
        match engine.forget(busy) {
            Err(ServiceError::SessionRunning(_)) => {}
            Ok(_) => {
                // It may legitimately have finished (exhaustion) before we
                // got here on a fast machine; that is fine too.
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn tracker_discriminator_is_selectable_per_session() {
        // Smoke test (ROADMAP: tracker in the engine): a session using the
        // SORT-style tracker under realistic detector noise must still
        // reach its result limit, concurrently with an oracle session.
        let engine = Engine::new(EngineConfig {
            workers: 2,
            quantum: 8,
            ..EngineConfig::default()
        });
        let repo =
            engine.register_repo("noisy-repo", truth(20_000, 60), NoiseModel::realistic(), 5);
        let tracked = engine
            .submit(
                QuerySpec::new(repo, ClassId(0), StopCond::results(20))
                    .seed(31)
                    .discriminator(DiscriminatorKind::Tracker { seed: 7 }),
            )
            .unwrap();
        let oracle = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(20)).seed(32))
            .unwrap();
        let tracked = engine.wait(tracked).unwrap();
        let oracle = engine.wait(oracle).unwrap();
        assert_eq!(tracked.status, SessionStatus::Done);
        assert_eq!(oracle.status, SessionStatus::Done);
        assert!(tracked.trace.found() >= 20);
        assert!(oracle.trace.found() >= 20);
    }

    #[test]
    fn report_exposes_final_chunk_stats() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(
                QuerySpec::new(repo, ClassId(0), StopCond::results(10))
                    .seed(3)
                    .chunks(8),
            )
            .unwrap();
        let report = engine.wait(id).unwrap();
        assert_eq!(report.chunk_stats.len(), 8);
        let sampled: u64 = report.chunk_stats.iter().map(|s| s.n).sum();
        assert_eq!(sampled, report.trace.samples());
        assert!(report.chunk_stats.iter().any(|s| s.n1 > 0.0));
    }

    #[test]
    fn persist_stats_absent_without_persistence() {
        let (engine, _) = small_engine(1);
        assert!(engine.persist_stats().is_none());
        assert!(engine.warm_beliefs(RepoId(0), ClassId(0), 16).is_none());
    }

    #[test]
    fn persistence_warm_starts_cache_and_beliefs_across_engines() {
        let dir = std::env::temp_dir().join(format!(
            "exsample-engine-persist-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = exsample_persist::PersistConfig::new(&dir).fingerprint(11);
        let config = EngineConfig {
            workers: 2,
            quantum: 8,
            persist: Some(persist),
            ..EngineConfig::default()
        };

        let engine = Engine::new(config.clone());
        let repo = engine.register_repo("persist-repo", truth(20_000, 60), NoiseModel::none(), 5);
        let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(15))
            .seed(3)
            .warm_start(false);
        let first = engine.wait(engine.submit(spec.clone()).unwrap()).unwrap();
        let invocations = engine.detector_invocations();
        assert!(invocations > 0);
        drop(engine); // flushes the detection log

        let engine = Engine::new(config);
        let repo2 = engine.register_repo("persist-repo", truth(20_000, 60), NoiseModel::none(), 5);
        assert_eq!(repo2, repo);
        let ps = engine.persist_stats().expect("persistence on");
        assert_eq!(ps.records_loaded, invocations);
        assert_eq!(ps.container_frames, invocations);
        assert_eq!(ps.segments_skipped, 0);
        // Nothing is loaded ahead of a query: the cache warms on touch.
        assert_eq!(engine.cache_stats().warm_loads, 0);
        // Beliefs: the first session's final stats are served bit-for-bit.
        let warm = engine
            .warm_beliefs(repo, ClassId(0), 16)
            .expect("snapshot exists");
        assert_eq!(warm.len(), first.chunk_stats.len());
        for (a, b) in warm.iter().zip(&first.chunk_stats) {
            assert_eq!(a.n1.to_bits(), b.n1.to_bits());
            assert_eq!(a.n, b.n);
        }
        // A cold-belief replay of the same query touches only frames the
        // container holds: zero detector invocations, every one a warm
        // load.
        let replay = engine.wait(engine.submit(spec).unwrap()).unwrap();
        assert_eq!(replay.trace.samples(), first.trace.samples());
        assert_eq!(replay.trace.found(), first.trace.found());
        assert_eq!(engine.detector_invocations(), 0);
        assert_eq!(engine.cache_stats().warm_loads, invocations);
        let ps = engine.persist_stats().expect("persistence on");
        assert_eq!(ps.container_hits, invocations);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repo_catalog_lists_and_deduplicates_registrations() {
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let gt_a = truth(5_000, 10);
        let gt_b = truth(7_000, 12);
        let a = engine.register_repo("cam-north", gt_a.clone(), NoiseModel::none(), 1);
        let b = engine.register_repo("cam-south", gt_b, NoiseModel::none(), 1);
        assert_ne!(a, b);
        // Same identity + same detector parameters → same id, no
        // rebuild, no new catalog row.
        assert_eq!(
            engine.register_repo("cam-north", gt_a.clone(), NoiseModel::none(), 1),
            a
        );
        let infos = engine.repos();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].id, a);
        assert_eq!(infos[0].name, "cam-north");
        assert_eq!(infos[0].frames, 5_000);
        assert_eq!(infos[0].classes, 1);
        assert_eq!(infos[1].id, b);
        assert_eq!(infos[1].name, "cam-south");
        // Same name, different footage → different identity, fresh id.
        let a2 = engine.register_repo("cam-north", truth(5_000, 11), NoiseModel::none(), 1);
        assert_ne!(a2, a);
        assert_eq!(engine.repos().len(), 3);
    }

    #[test]
    #[should_panic(expected = "different detector parameters")]
    fn re_registering_with_different_detector_parameters_panics() {
        // The detector bank is built once per identity; pretending the
        // second caller's parameters took effect would silently serve it
        // wrong detections, so the mismatch is a loud error instead.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let gt = truth(2_000, 5);
        engine.register_repo("cam", gt.clone(), NoiseModel::none(), 1);
        engine.register_repo("cam", gt, NoiseModel::realistic(), 1);
    }

    #[test]
    fn repo_ids_are_stable_across_restarts_despite_reordering() {
        let dir = std::env::temp_dir().join(format!(
            "exsample-engine-repo-id-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = exsample_persist::PersistConfig::new(&dir).fingerprint(13);
        let config = EngineConfig {
            workers: 2,
            quantum: 8,
            persist: Some(persist),
            ..EngineConfig::default()
        };
        let gt_a = truth(6_000, 20);
        let gt_b = Arc::new(
            DatasetSpec::single_class(
                9_000,
                ClassSpec::new("car", 30, 80.0, SkewSpec::CentralNormal { frac95: 0.3 }),
            )
            .generate(99),
        );

        let engine = Engine::new(config.clone());
        let a = engine.register_repo("cam-a", gt_a.clone(), NoiseModel::none(), 5);
        let b = engine.register_repo("cam-b", gt_b.clone(), NoiseModel::none(), 5);
        let spec = QuerySpec::new(b, ClassId(0), StopCond::results(8))
            .seed(3)
            .warm_start(false);
        let first = engine.wait(engine.submit(spec.clone()).unwrap()).unwrap();
        let invocations = engine.detector_invocations();
        assert!(invocations > 0);
        drop(engine);

        // Restart, registering in the *opposite* order: identities — not
        // registration order — decide the ids, so persisted detections
        // and beliefs keep meaning the footage they were computed from.
        let engine = Engine::new(config);
        let b2 = engine.register_repo("cam-b", gt_b, NoiseModel::none(), 5);
        let a2 = engine.register_repo("cam-a", gt_a, NoiseModel::none(), 5);
        assert_eq!((a2, b2), (a, b));
        assert!(engine.warm_beliefs(b, ClassId(0), 16).is_some());
        assert!(engine.warm_beliefs(a, ClassId(0), 16).is_none());
        // The replay is served entirely from the container, under b's id.
        let replay = engine.wait(engine.submit(spec).unwrap()).unwrap();
        assert_eq!(replay.trace.samples(), first.trace.samples());
        assert_eq!(replay.trace.found(), first.trace.found());
        assert_eq!(engine.detector_invocations(), 0);
        assert_eq!(engine.cache_stats().warm_loads, invocations);
        let ps = engine.persist_stats().expect("persistence on");
        assert_eq!(ps.container_hits, invocations);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_catalog_never_remaps_surviving_artifacts() {
        // The catalog file is deleted between runs (partial restore, say)
        // while the detection log survives. Re-registration in a
        // different order must NOT inherit the orphaned ids — that would
        // serve one repository's cached detections for another's footage.
        // Instead the identities get fresh ids past every id observed in
        // surviving artifacts, and the engine re-pays the detector.
        let dir = std::env::temp_dir().join(format!(
            "exsample-engine-lost-catalog-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persist = exsample_persist::PersistConfig::new(&dir).fingerprint(21);
        let config = EngineConfig {
            workers: 2,
            quantum: 8,
            persist: Some(persist),
            ..EngineConfig::default()
        };
        let gt_a = truth(6_000, 20);
        let gt_b = Arc::new(
            DatasetSpec::single_class(
                9_000,
                ClassSpec::new("car", 30, 80.0, SkewSpec::CentralNormal { frac95: 0.3 }),
            )
            .generate(99),
        );

        let engine = Engine::new(config.clone());
        let a = engine.register_repo("cam-a", gt_a.clone(), NoiseModel::none(), 5);
        let b = engine.register_repo("cam-b", gt_b.clone(), NoiseModel::none(), 5);
        let spec = QuerySpec::new(b, ClassId(0), StopCond::results(8))
            .seed(3)
            .warm_start(false);
        let first = engine.wait(engine.submit(spec.clone()).unwrap()).unwrap();
        assert!(engine.detector_invocations() > 0);
        drop(engine);

        std::fs::remove_file(dir.join("repos.xsr")).expect("catalog written");

        // Restart, reversed order: without the artifact-id reservation,
        // cam-b would land on cam-a's old id and be served cam-a's
        // cached detections.
        let engine = Engine::new(config);
        let b2 = engine.register_repo("cam-b", gt_b, NoiseModel::none(), 5);
        let a2 = engine.register_repo("cam-a", gt_a, NoiseModel::none(), 5);
        assert!(b2 != a && b2 != b, "orphaned ids must not be reassigned");
        assert!(a2 != a && a2 != b, "orphaned ids must not be reassigned");
        let spec = QuerySpec { repo: b2, ..spec };
        let replay = engine.wait(engine.submit(spec).unwrap()).unwrap();
        // Correct results (same footage, same seed), honestly re-paid.
        assert_eq!(replay.trace.samples(), first.trace.samples());
        assert_eq!(replay.trace.found(), first.trace.found());
        assert!(
            engine.detector_invocations() > 0,
            "stale detections must not be served under a fresh id"
        );
        let ps = engine.persist_stats().expect("persistence on");
        assert_eq!((ps.container_hits, engine.cache_stats().warm_loads), (0, 0));
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn poll_window_paces_the_stream_and_past_end_cursor_is_empty() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(12)).seed(6))
            .unwrap();
        engine.wait(id).unwrap();
        let all = engine.poll(id, 0).unwrap();
        assert!(!all.events.is_empty());
        // Windowed polls return the same events, at most `w` at a time,
        // advancing the cursor only past what was returned.
        let mut cursor = 0;
        let mut paged = Vec::new();
        loop {
            let snap = engine.poll_window(id, cursor, Some(1)).unwrap();
            assert!(snap.events.len() <= 1);
            if snap.events.is_empty() {
                break;
            }
            assert_eq!(snap.next_cursor, cursor + snap.events.len() as u64);
            paged.extend(snap.events);
            cursor = snap.next_cursor;
        }
        assert_eq!(paged, all.events);
        // A cursor past the end is clamped: empty snapshot, not an error.
        let past = engine.poll(id, u64::MAX).unwrap();
        assert!(past.events.is_empty());
        assert_eq!(past.next_cursor, all.events.len() as u64);
        assert_eq!(past.status, SessionStatus::Done);
        assert_eq!(past.found, all.found);
    }

    #[test]
    fn poll_wait_streams_without_busy_polling() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(15)).seed(8))
            .unwrap();
        let mut cursor = 0;
        let mut streamed = 0u64;
        loop {
            let snap = engine.poll_wait(id, cursor, Some(4)).unwrap();
            assert!(snap.events.len() <= 4);
            streamed += snap
                .events
                .iter()
                .map(|e| e.new_results as u64)
                .sum::<u64>();
            cursor = snap.next_cursor;
            if snap.status != SessionStatus::Running && snap.events.is_empty() {
                break;
            }
        }
        let report = engine.wait(id).unwrap();
        assert_eq!(streamed, report.trace.found());
        // On a finished session poll_wait returns immediately.
        let snap = engine.poll_wait(id, cursor, None).unwrap();
        assert!(snap.events.is_empty());
        assert_eq!(
            engine.poll_wait(SessionId(404), 0, None).unwrap_err(),
            ServiceError::UnknownSession(SessionId(404))
        );
    }

    #[test]
    fn submit_validates_specs_before_any_worker_sees_them() {
        let (engine, repo) = small_engine(1);
        let base = QuerySpec::new(repo, ClassId(0), StopCond::results(1));
        let mut degenerate_prior = base.clone();
        degenerate_prior.config.prior = exsample_core::belief::BeliefPrior {
            alpha0: 0.0,
            beta0: 1.0,
        };
        assert_eq!(
            engine.submit(degenerate_prior),
            Err(ServiceError::InvalidSpec(
                "prior pseudo-counts must be positive and finite".into()
            ))
        );
        let nan_stop = base.clone().chunks(4);
        let nan_stop = QuerySpec {
            stop: StopCond::seconds(f64::NAN),
            ..nan_stop
        };
        assert_eq!(
            engine.submit(nan_stop),
            Err(ServiceError::InvalidSpec(
                "stop seconds must be finite".into()
            ))
        );
        assert_eq!(
            engine.submit(base.clone().chunks(0)),
            Err(ServiceError::InvalidSpec("chunks must be positive".into()))
        );
        // A valid spec still goes through after the rejections.
        let id = engine.submit(base).unwrap();
        assert_eq!(engine.wait(id).unwrap().status, SessionStatus::Done);
    }

    #[test]
    fn engine_serves_the_search_service_trait() {
        let (engine, repo) = small_engine(2);
        let svc: &dyn SearchService = &engine;
        let infos = svc.repos().unwrap();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].id, repo);
        assert_eq!(
            svc.submit(QuerySpec::new(RepoId(77), ClassId(0), StopCond::results(1))),
            Err(ServiceError::UnknownRepo(RepoId(77)))
        );
        let id = svc
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(41))
            .unwrap();
        let mut cursor = 0;
        let mut streamed = 0u64;
        loop {
            let snap = svc.poll(id, cursor, Some(2)).unwrap();
            streamed += snap
                .events
                .iter()
                .map(|e| e.new_results as u64)
                .sum::<u64>();
            cursor = snap.next_cursor;
            if snap.status != SessionStatus::Running && snap.events.is_empty() {
                break;
            }
            std::thread::yield_now();
        }
        let report = svc.wait(id).unwrap();
        assert_eq!(streamed, report.trace.found());
        assert_eq!(svc.forget(id).unwrap().trace, report.trace);
        assert_eq!(svc.wait(id).unwrap_err(), ServiceError::UnknownSession(id));
    }

    #[test]
    fn session_ttl_reaps_unpolled_finished_sessions() {
        let ttl = Duration::from_millis(200);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            quantum: 8,
            session_ttl: Some(ttl),
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("ttl-repo", truth(20_000, 60), NoiseModel::none(), 5);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(3))
            .unwrap();
        engine.wait(id).unwrap();
        // Within the TTL the session is still readable.
        assert!(engine.poll(id, 0).is_ok());
        std::thread::sleep(ttl * 2);
        // The next API touch reaps it — as if forgotten.
        assert_eq!(
            engine.poll(id, 0).unwrap_err(),
            ServiceError::UnknownSession(id)
        );
        assert_eq!(
            engine.wait(id).unwrap_err(),
            ServiceError::UnknownSession(id)
        );
        assert_eq!(engine.service_stats().live_sessions, 0);
    }

    #[test]
    fn session_ttl_polling_refreshes_liveness() {
        let ttl = Duration::from_millis(250);
        let engine = Engine::new(EngineConfig {
            workers: 2,
            quantum: 8,
            session_ttl: Some(ttl),
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("ttl-repo", truth(20_000, 60), NoiseModel::none(), 5);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(4))
            .unwrap();
        engine.wait(id).unwrap();
        // Keep touching it for well over one TTL: every poll refreshes
        // the deadline, so the session must survive.
        for _ in 0..8 {
            std::thread::sleep(ttl / 3);
            assert!(engine.poll(id, 0).is_ok(), "poll must refresh liveness");
        }
        // `forget` stays immediate — no TTL involved.
        assert!(engine.forget(id).is_ok());
        assert_eq!(
            engine.poll(id, 0).unwrap_err(),
            ServiceError::UnknownSession(id)
        );
    }

    #[test]
    fn service_stats_aggregates_cache_and_sessions() {
        let (engine, repo) = small_engine(2);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(9))
            .unwrap();
        engine.wait(id).unwrap();
        let stats = engine.service_stats();
        assert_eq!(stats.cache, engine.cache_stats());
        assert!(stats.cache.misses > 0);
        assert!(stats.persist.is_none());
        assert_eq!(stats.live_sessions, 1);
        engine.forget(id).unwrap();
        assert_eq!(engine.service_stats().live_sessions, 0);
    }

    #[test]
    fn engine_stepping_matches_blocking_run_search_per_query() {
        // The engine's batched stepping at batch = 1 (the default) must
        // sample exactly the frames the classic blocking per-frame driver
        // samples: same RNG consumption, same feedback order, same trace
        // shape. This is the bit-identity contract of §III-F batching.
        use exsample_core::driver::{run_search, SearchCost};
        use exsample_core::exsample::{ExSample, ExSampleConfig};
        let gt = truth(20_000, 60);
        let engine = Engine::new(EngineConfig {
            workers: 1,
            quantum: 8,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("ref-repo", gt.clone(), NoiseModel::none(), 5);
        let id = engine
            .submit(
                QuerySpec::new(repo, ClassId(0), StopCond::results(12))
                    .seed(9)
                    .chunks(16),
            )
            .unwrap();
        let report = engine.wait(id).unwrap();

        let mut policy = ExSample::new(Chunking::even(20_000, 16), ExSampleConfig::default());
        let mut oracle = exsample_detect::QueryOracle::new(
            SimulatedDetector::new(gt, ClassId(0), NoiseModel::none(), 5),
            OracleDiscriminator::new(),
        );
        let mut rng = Rng64::new(9);
        let reference = {
            let mut f = |frame| oracle.process(frame);
            run_search(
                &mut policy,
                &mut f,
                &SearchCost::per_sample(1.0 / 20.0),
                &StopCond::results(12),
                &mut rng,
            )
        };
        assert_eq!(report.trace.samples(), reference.samples());
        assert_eq!(report.trace.found(), reference.found());
        let engine_curve: Vec<(u64, u64)> = report
            .trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect();
        let reference_curve: Vec<(u64, u64)> = reference
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect();
        assert_eq!(engine_curve, reference_curve);
    }

    #[test]
    fn dispatch_overhead_is_charged_once_per_batch() {
        let cost_model = CostModel {
            dispatch_s: 0.05,
            ..CostModel::default()
        };
        let engine = Engine::new(EngineConfig {
            workers: 1,
            quantum: 16,
            batch: 8,
            cost_model,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("batch-repo", truth(20_000, 60), NoiseModel::none(), 5);
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(15)).seed(4))
            .unwrap();
        let report = engine.wait(id).unwrap();
        assert!(report.charges.dispatches > 0);
        assert!(
            report.charges.dispatches < report.charges.detector_invocations,
            "{} dispatches did not amortize {} invocations",
            report.charges.dispatches,
            report.charges.detector_invocations
        );
        // One overhead charge per dispatch, and the trace clock equals
        // the full charged ledger including dispatch overhead.
        assert!((report.charges.dispatch_s - report.charges.dispatches as f64 * 0.05).abs() < 1e-9);
        assert!((report.trace.seconds() - report.charges.total_s()).abs() < 1e-9);
    }

    #[test]
    fn session_results_are_deterministic_across_engines() {
        let run = || {
            let (engine, repo) = small_engine(4);
            let ids: Vec<SessionId> = (0..4)
                .map(|i| {
                    engine
                        .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(20)).seed(7 + i))
                        .unwrap()
                })
                .collect();
            ids.into_iter()
                .map(|id| {
                    let r = engine.wait(id).unwrap();
                    (
                        r.trace.samples(),
                        r.trace.found(),
                        r.trace
                            .points()
                            .iter()
                            .map(|p| (p.samples, p.found))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// The `(samples, found)` curve of a trace — what two runs of one
    /// spec must share whatever their frames cost.
    fn curve(trace: &exsample_core::driver::SearchTrace) -> Vec<(u64, u64)> {
        trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect()
    }

    #[test]
    fn stepped_overlapping_sessions_match_solo_runs_and_pay_each_frame_once() {
        use exsample_core::driver::{run_search_batched, SearchCost};
        use exsample_core::exsample::ExSampleConfig;
        use exsample_core::policy::{Feedback, SamplingPolicy};
        use std::collections::HashSet;

        /// ExSample, with every frame it hands out noted down — the
        /// speculative tail of a last batch included.
        struct Noting<'a>(ExSample, &'a mut HashSet<u64>);
        impl SamplingPolicy for Noting<'_> {
            fn next_frame(&mut self, rng: &mut Rng64) -> Option<u64> {
                self.0.next_frame(rng).inspect(|&f| self.1.extend([f]))
            }
            fn next_batch(&mut self, batch: usize, rng: &mut Rng64, out: &mut Vec<u64>) {
                self.0.next_batch(batch, rng, out);
                self.1.extend(out.iter());
            }
            fn feedback(&mut self, frame: u64, fb: Feedback) {
                self.0.feedback(frame, fb)
            }
            fn name(&self) -> String {
                self.0.name()
            }
        }

        // Rare objects and a near-full-recall target: both sessions sweep
        // much of the same hot region, in batches of 8.
        let gt = Arc::new(
            DatasetSpec::single_class(
                20_000,
                ClassSpec::new("car", 40, 40.0, SkewSpec::CentralNormal { frac95: 0.15 }),
            )
            .generate(17),
        );
        let engine = Engine::new(EngineConfig {
            workers: 0,
            quantum: 16,
            batch: 8,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("overlap-repo", gt.clone(), NoiseModel::none(), 5);
        let spec = |seed| {
            QuerySpec::new(repo, ClassId(0), StopCond::results(30))
                .seed(seed)
                .chunks(8)
        };
        let ids = [
            engine.submit(spec(100)).unwrap(),
            engine.submit(spec(101)).unwrap(),
        ];
        run_to_idle(&engine);

        let mut drawn = HashSet::new();
        let mut recorded = 0;
        for (id, seed) in ids.into_iter().zip([100, 101]) {
            let report = engine.wait(id).unwrap();
            let policy = ExSample::new(Chunking::even(20_000, 8), ExSampleConfig::default());
            let mut oracle = exsample_detect::QueryOracle::new(
                SimulatedDetector::new(gt.clone(), ClassId(0), NoiseModel::none(), 5),
                OracleDiscriminator::new(),
            );
            let alone = run_search_batched(
                &mut Noting(policy, &mut drawn),
                &mut |frame| oracle.process(frame),
                &SearchCost::per_sample(1.0 / 20.0),
                &StopCond::results(30),
                &mut Rng64::new(seed),
                8,
            );
            assert_eq!(curve(&report.trace), curve(&alone));
            recorded += report.charges.frames;
        }
        // Each frame either session drew was detected exactly once,
        // whichever of them got to it first.
        let stats = engine.cache_stats();
        assert_eq!(engine.detector_invocations(), drawn.len() as u64);
        assert!(
            (drawn.len() as u64) < recorded,
            "the sessions never overlapped"
        );
        assert!(stats.hits >= recorded - drawn.len() as u64);
    }

    #[test]
    fn stepped_and_threaded_engines_report_bit_identical_sessions() {
        // A repository per session, so who pays for a frame does not
        // depend on the schedule and the whole report is a function of
        // the spec: then an engine stepped by its caller and one stepped
        // by two racing workers must agree to the bit — trace seconds and
        // ledger included — per frame and in batches of 16.
        let reports = |workers: usize, batch: u32| {
            let engine = Engine::new(EngineConfig {
                workers,
                quantum: 32,
                batch,
                ..EngineConfig::default()
            });
            let ids: Vec<SessionId> = (0..3)
                .map(|i| {
                    let name = format!("solo-{i}");
                    let repo =
                        engine.register_repo(&name, truth(20_000, 60), NoiseModel::none(), 5);
                    let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(25));
                    engine.submit(spec.seed(40 + i)).unwrap()
                })
                .collect();
            if workers == 0 {
                run_to_idle(&engine);
            }
            ids.into_iter()
                .map(|id| engine.wait(id).unwrap())
                .map(|r| (r.status, r.trace, r.charges, r.chunk_stats))
                .collect::<Vec<_>>()
        };
        for batch in [1, 16] {
            assert_eq!(reports(0, batch), reports(2, batch), "batch {batch}");
        }
    }

    #[test]
    fn a_panic_while_stepping_finalizes_the_session_instead_of_stranding_it() {
        /// The oracle, until it has seen `left` frames; then it panics.
        struct PanicsAfter {
            inner: OracleDiscriminator,
            left: u32,
        }
        impl exsample_detect::Discriminator for PanicsAfter {
            fn observe(
                &mut self,
                frame: u64,
                dets: &[exsample_detect::Detection],
            ) -> exsample_detect::DiscrimOutcome {
                assert!(self.left > 0, "discriminator stub: out of frames");
                self.left -= 1;
                self.inner.observe(frame, dets)
            }
            fn results(&self) -> u64 {
                self.inner.results()
            }
        }

        let (engine, repo) = small_engine(0);
        let engine = Arc::new(engine);
        let tenant = TenantId(9);
        let binding = Some(TenantBinding { tenant, weight: 1 });
        let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(u64::MAX)).seed(1);
        let doomed = engine.submit_tagged(spec, binding).unwrap();
        // Nobody has stepped yet, so the core is parked: arm it to blow up
        // in the middle of its third quantum.
        let stub = PanicsAfter {
            inner: OracleDiscriminator::new(),
            left: 20,
        };
        lock_state(&engine.shared)
            .parked
            .get_mut(&doomed)
            .expect("a fresh session is parked")
            .discrim = Box::new(stub);
        assert_eq!(engine.tenant_running(tenant), 1);

        // A caller parks in `wait`, as a client would; a stepping thread
        // plays the worker and dies of the panic.
        let (done, waited) = std::sync::mpsc::channel();
        let waiter = {
            let engine = engine.clone();
            std::thread::spawn(move || done.send(engine.wait(doomed)).unwrap())
        };
        let stepper = {
            let engine = engine.clone();
            std::thread::spawn(move || run_to_idle(&engine))
        };
        assert!(stepper.join().is_err(), "the panic reaches the stepper");
        let report = waited
            .recv_timeout(Duration::from_secs(60))
            .expect("wait returns once the stepper has died")
            .unwrap();
        waiter.join().unwrap();
        // Cancelled, with everything it had recorded — the 4 frames of
        // the torn quantum included — and its books closed.
        assert_eq!(report.status, SessionStatus::Cancelled);
        assert_eq!(report.trace.samples(), 20);
        assert_eq!(report.charges.frames, 20);
        assert_eq!(engine.tenant_running(tenant), 0);
        assert_eq!(engine.running_sessions(), 0);
        assert_eq!(
            engine.poll(doomed, 0).unwrap().status,
            SessionStatus::Cancelled
        );

        // The engine is whole: the frames the doomed session paid for are
        // shared, and the next session runs to its end.
        let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(5)).seed(1);
        let next = engine.submit_tagged(spec, binding).unwrap();
        run_to_idle(&engine);
        assert_eq!(engine.wait(next).unwrap().status, SessionStatus::Done);
        assert_eq!(engine.tenant_running(tenant), 0);
    }

    /// Returns from a park on a session cell, as the engine itself
    /// counts them.
    fn wakes(engine: &Engine) -> u64 {
        engine
            .diagnostics()
            .histogram("engine_wake_to_service_ns")
            .map_or(0, |h| h.total())
    }

    #[test]
    fn a_parked_caller_is_woken_by_its_own_session_only() {
        // Two classes on a timeline that takes seconds to exhaust: cars
        // to find, and a class with no instances at all — a session
        // searching for it runs and runs and never logs an event.
        let car = ClassSpec::new("car", 60, 200.0, SkewSpec::CentralNormal { frac95: 0.2 });
        let ghost = ClassSpec::new("ghost", 0, 200.0, SkewSpec::CentralNormal { frac95: 0.2 });
        let footage = DatasetSpec {
            classes: vec![car.clone(), ghost],
            ..DatasetSpec::single_class(1_000_000, car)
        };
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            quantum: 8,
            ..EngineConfig::default()
        }));
        let repo = engine.register_repo(
            "two-class",
            Arc::new(footage.generate(17)),
            NoiseModel::none(),
            5,
        );
        let quiet = engine
            .submit(QuerySpec::new(repo, ClassId(1), StopCond::results(1)).seed(1))
            .unwrap();
        let streamer = {
            let engine = engine.clone();
            std::thread::spawn(move || engine.poll_wait(quiet, 0, None).unwrap())
        };
        let waiter = {
            let engine = engine.clone();
            std::thread::spawn(move || engine.wait(quiet).unwrap())
        };
        // Both are parked on the quiet session's cell before anything
        // else happens.
        let cell = engine.cell(quiet).unwrap();
        loop {
            let progress = cell.progress.lock().unwrap();
            if progress.parked_streams == 1 && progress.parked_waits == 1 {
                break;
            }
            drop(progress);
            std::thread::yield_now();
        }

        // Forty sessions stream their events and finish next door,
        // consumed without parking.
        for seed in 0..40 {
            let id = engine
                .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(10)).seed(seed))
                .unwrap();
            while engine.try_wait(id).unwrap().is_none() {
                std::thread::yield_now();
            }
            assert!(!engine.poll(id, 0).unwrap().events.is_empty());
        }
        assert_eq!(wakes(&engine), 0, "someone else's progress woke a caller");
        assert!(!streamer.is_finished() && !waiter.is_finished());

        // Its own finalization wakes both, once each.
        engine.cancel(quiet).unwrap();
        let snap = streamer.join().unwrap();
        assert_eq!(snap.status, SessionStatus::Cancelled);
        assert!(snap.events.is_empty());
        assert_eq!(waiter.join().unwrap().status, SessionStatus::Cancelled);
        assert_eq!(wakes(&engine), 2);
    }

    #[test]
    fn completion_queue_names_each_watcher_of_a_session_once() {
        let (engine, repo) = small_engine(2);
        let (wake, woken) = std::sync::mpsc::channel();
        let queue = engine.completion_queue(move || {
            let _ = wake.send(());
        });
        // Unreachable target: the session ends when it is cancelled (or
        // has swept all 20,000 frames).
        let id = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(u64::MAX)).seed(2))
            .unwrap();
        // Three watchers of its end, one of them registered twice; a
        // fourth is a stream from past the end of the log.
        for token in [10, 11, 12, 11] {
            assert_eq!(engine.try_wait_watch(id, &queue, token).unwrap(), None);
        }
        assert_eq!(
            engine.poll_watch(id, u64::MAX, None, &queue, 13).unwrap(),
            None
        );
        engine.cancel(id).unwrap();
        let mut tokens = Vec::new();
        while tokens.len() < 4 {
            woken
                .recv_timeout(Duration::from_secs(30))
                .expect("finalization completes every watch");
            queue.drain(&mut tokens);
        }
        tokens.sort_unstable();
        assert_eq!(tokens, [10, 11, 12, 13]);
        // One-shot: a finished session answers at once instead of
        // registering, and nothing more arrives.
        let report = engine.wait(id).unwrap();
        assert_eq!(engine.try_wait_watch(id, &queue, 10).unwrap(), Some(report));
        let snap = engine.poll_watch(id, 0, Some(4), &queue, 13).unwrap();
        assert!(snap.is_some_and(|s| s.status == SessionStatus::Cancelled));
        queue.drain(&mut tokens);
        assert_eq!(tokens.len(), 4);
        assert!(woken.try_recv().is_err());
        assert!(engine.try_wait_watch(SessionId(404), &queue, 0).is_err());
    }
}
