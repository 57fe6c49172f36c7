//! The engine: worker threads multiplexing many search sessions.
//!
//! # Architecture
//!
//! ```text
//!  submit ──▶ ┌───────────────────────────────┐
//!  cancel ──▶ │ EngineState (state mutex)     │   work_cv: parks idle
//!  forget ──▶ │  sessions: SessionId -> Slot ─┼─┐ workers, notified only
//!             │  scheduler: weighted fair     │ │ when one is parked
//!             │  tenant ledger, reap queue    │ │
//!             └──────────────┬────────────────┘ │ id -> cell: one lookup
//!                            │ lease / release  │
//!                 ┌──────────▼──────────┐       │
//!                 │ worker thread pool  │       ▼
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
//! A worker leases the runnable session with the smallest virtual time,
//! *takes the session core out of the slot* (so the state mutex is not
//! held while frames are processed), steps it for up to a quantum of
//! frames, publishes what the quantum produced into the session's own
//! [progress cell](crate::session) — outside the state mutex, waking only
//! callers parked on *that* session and completion queues watching it —
//! then puts the core back and charges the scheduler what the quantum
//! actually cost. (The one quantum that finishes a session publishes its
//! final report under the state mutex instead, right after the engine's
//! books for the session close, so that a woken `wait` finds both done.)
//! Clients resolve a session id to its cell with one short
//! table lookup and read progress under the cell's lock alone; the state
//! mutex guards the scheduler, the session table, the tenant ledger and
//! the reap queue, nothing a poll needs. Lock order is state → cell,
//! never the reverse. Stepping proceeds in detector *batches* (§III-F,
//! [`EngineConfig::batch`] / `QuerySpec::batch`): each batch is drawn
//! from the sampler with no intermediate feedback, its cache misses are
//! resolved by a single detector dispatch issued outside the cache shard
//! locks, and discriminator feedback is replayed in draw order. Per-frame
//! cost is the modelled detector time (`1 / detector_fps`, cache misses
//! only) plus io/decode seconds from the session's own GOP container
//! reader priced by the store's `CostModel`, plus one
//! `CostModel::dispatch_s` overhead per dispatch; cache hits are free,
//! which is precisely the sharing the engine exists to exploit.
//!
//! # Determinism
//!
//! Each session owns its policy, RNG, and discriminator, and is stepped by
//! one worker at a time, so its frame sequence — and therefore its
//! results, for result- or sample-bounded stops — is a pure function of
//! its `QuerySpec`, independent of scheduling interleavings. Detector
//! output is deterministic per `(repo, frame)`, and the cache computes
//! each resident key exactly once, so total detector invocations are also
//! reproducible (given a cache large enough to avoid evictions).
//! Time-bounded stops (`StopCond::max_seconds`) react to *charged*
//! seconds, which depend on which session happens to pay for a shared
//! frame first — those stops are fair but not bit-reproducible.

use crate::cache::{CacheStats, CachedDetections, FrameCache, Lookup, MissGuard};
use crate::obs::{elapsed_ns, EngineObs};
use crate::scheduler::Scheduler;
use crate::service::{
    Diagnostics, RepoInfo, SearchService, ServiceError, ServiceStats, SubmitError,
};
use crate::session::{
    CompletionQueue, DiscriminatorKind, Finished, Progress, Quantum, QuerySpec, RepoId,
    ResultEvent, SessionCell, SessionId, SessionReport, SessionSnapshot, SessionStatus,
    TenantBinding, TenantId, Watch,
};
use exsample_colstore::{ColumnarStore, CompactionReport, OpenError};
use exsample_core::belief::ChunkStats;
use exsample_core::driver::SearchStepper;
use exsample_core::exsample::ExSample;
use exsample_core::policy::Feedback;
use exsample_core::{default_threads, Chunking};
use exsample_detect::{
    dispatch_batch, Detection, Discriminator, NoiseModel, OracleDiscriminator, SimulatedDetector,
    TrackerDiscriminator,
};
use exsample_obs::{SpanRecord, Stage, TraceId, NO_SESSION};
use exsample_persist::{
    dataset_fingerprint, scan_detections, BeliefStore, DetectionLog, LoadStats, PersistConfig,
    RepoCatalog,
};
use exsample_stats::{FxHashMap, Rng64};
use exsample_store::{Container, ContainerWriter, CostModel, DecodeStats};
use exsample_videosim::GroundTruth;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (defaults to [`default_threads`]).
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
    /// Record latency histograms and flight-recorder events (on by
    /// default). Instrumentation is observational only — wall-clock
    /// reads and relaxed atomics — so session traces are identical
    /// either way; switching it off removes even that cost (the
    /// benchmark's `obs.*_record_ns` layer metrics price it per record).
    /// Metrics are still *registered* when off (with zero readings), so
    /// [`Engine::diagnostics`] keeps a stable shape.
    pub observe: bool,
    /// Record request-scoped span trees for distributed tracing (on by
    /// default, but inert unless [`observe`](Self::observe) is also on).
    /// Each accepted submit opens a trace — deterministically derived
    /// from the session id — and every instrumented stage adds a span to
    /// its causal tree, collectable via
    /// [`SearchService::collect_trace`].
    /// Like all instrumentation this is observational only; search
    /// traces are bit-identical with tracing on or off.
    pub trace: bool,
    /// Capacity of the flight recorder's event ring (most recent events
    /// win). Sized so a typical debugging window — a few thousand
    /// dispatches — stays resident.
    pub flight_capacity: usize,
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
            trace: true,
            flight_capacity: 4096,
        }
    }
}

/// What the durable detection store did at startup and since (see
/// [`Engine::persist_stats`]). All "skipped" counters are benign: stale or
/// damaged data costs recomputation, never correctness.
///
/// The four log counters say what this start read out of log segments
/// matching its fingerprint, *whoever read it*: what startup compaction
/// folded into the container plus what the pass over the segments it left
/// behind found. After a clean start that is the previous life's appends;
/// after a start whose compaction failed it is the un-folded log, which
/// stays on disk, is not served from, and is folded at the next clean
/// start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Matching detection-log segments read at startup (folded or left).
    pub segments_loaded: u64,
    /// Segments invalidated at startup (version/fingerprint mismatch,
    /// unrecognizable header, unreadable). Compaction never touches these,
    /// so the count comes from the leftover pass alone.
    pub segments_skipped: u64,
    /// Checksum-valid detection records read out of those segments.
    pub records_loaded: u64,
    /// Segments whose damaged tail was abandoned at startup (torn write,
    /// bit rot) — including segments compaction folded and deleted.
    pub damaged_tails: u64,
    /// Belief snapshots loaded at startup.
    pub snapshots_loaded: u64,
    /// Belief snapshots invalidated at startup.
    pub snapshots_skipped: u64,
    /// Belief snapshot keys currently resident (loaded + written since).
    pub beliefs_resident: u64,
    /// Detection-log write errors absorbed (the log goes inert after the
    /// first).
    pub log_write_errors: u64,
    /// Belief snapshot write errors absorbed.
    pub snapshot_write_errors: u64,
    /// Frames indexed by the mapped columnar container (0 when no usable
    /// container exists: a first start, or a failed first compaction).
    pub container_frames: u64,
    /// `(repo, chunk)` column groups in the mapped container.
    pub container_chunks: u64,
    /// Cache misses answered from the mapped container instead of the
    /// detector (lazy per-chunk warm starts) — the warm-start number.
    pub container_hits: u64,
    /// Container bytes actually consulted: header + chunk index + each
    /// touched column group once — the I/O a warm start really paid.
    pub container_bytes_touched: u64,
    /// 1 when a container file existed but was rejected (fingerprint
    /// mismatch or damage) — benign: the engine recomputes.
    pub container_skipped: u64,
}

/// Durable-store handles shared by workers (independent of the state
/// mutex; lock order is always state → persist, or persist alone).
struct PersistShared {
    log: Arc<Mutex<DetectionLog>>,
    beliefs: Mutex<BeliefStore>,
    /// Durable `(name, dataset fingerprint) -> RepoId` assignments, so a
    /// restarted engine resolves re-registered repositories to the same
    /// ids its persisted detections and snapshots were written under.
    catalog: Mutex<RepoCatalog>,
    /// The startup log counters of [`PersistStats`]: compaction's report
    /// plus the leftover pass.
    detections_load: LoadStats,
    /// The mapped columnar container, when a valid one exists. Shared
    /// (`Arc`) so every worker reads the same mapping zero-copy.
    container: Option<Arc<ColumnarStore>>,
    /// 1 when a container file existed but was rejected at startup.
    container_skipped: u64,
    /// Cache misses served from the container instead of the detector.
    container_hits: std::sync::atomic::AtomicU64,
}

impl PersistShared {
    /// The mapped container's copy of `(repo, frame)`, if it holds one —
    /// counted as a container hit.
    fn warm(&self, repo: RepoId, frame: u64) -> Option<Vec<Detection>> {
        let dets = self.container.as_ref()?.get(repo.0, frame)?;
        self.container_hits.fetch_add(1, Ordering::Relaxed);
        Some(dets)
    }
}

/// Errors surfaced by the engine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The repository id was never registered.
    UnknownRepo(RepoId),
    /// The session id was never submitted.
    UnknownSession(SessionId),
    /// The query spec is structurally invalid.
    InvalidSpec(&'static str),
    /// The session is still running (e.g. `forget` before completion).
    SessionRunning(SessionId),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownRepo(r) => write!(f, "unknown repository {r:?}"),
            EngineError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            EngineError::InvalidSpec(why) => write!(f, "invalid query spec: {why}"),
            EngineError::SessionRunning(s) => write!(f, "session {s:?} is still running"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A registered repository: ground truth, one deterministic per-class
/// detector bank, and its GOP container, opened once: sessions read
/// through [`Container::reader`]s that share its bytes and parsed index.
struct RepoData {
    gt: Arc<GroundTruth>,
    detectors: Vec<SimulatedDetector>,
    container: Container,
}

/// A repository slot in the engine state: catalog entry + live data.
struct RepoEntry {
    info: RepoInfo,
    /// Detector parameters the repository was built with. Re-registering
    /// the same identity with different parameters is rejected loudly:
    /// silently serving the original detectors would be wrong detections.
    noise: NoiseModel,
    det_seed: u64,
    data: Arc<RepoData>,
}

/// The per-session state a worker checks out while stepping.
struct SessionCore {
    repo_id: RepoId,
    repo: Arc<RepoData>,
    class: exsample_videosim::ClassId,
    policy: ExSample,
    rng: Rng64,
    stepper: SearchStepper,
    discrim: Box<dyn Discriminator + Send>,
    /// This session's private reader over the repo container (its own GOP
    /// cache and decode tally).
    container: Container,
    /// Reusable buffer for the query-class slice of cached detections.
    class_dets: Vec<Detection>,
    /// Reusable visible-instance scratch for cache-miss detection runs.
    gt_scratch: Vec<exsample_videosim::InstanceId>,
    /// Reusable per-batch buffers of [`step_quantum`] / [`resolve_batch`]
    /// (cleared, never dropped, between batches): the drawn frames, their
    /// resolutions, and the missed frames with their io seconds.
    drawn: Vec<u64>,
    resolved: Vec<Option<ResolvedFrame>>,
    miss_frames: Vec<u64>,
    miss_io: Vec<f64>,
    /// What the quantum in flight produced, until it is published.
    quantum: Quantum,
    /// Effective detector batch size (spec override or engine default).
    batch: usize,
    /// The session's progress cell (also reachable through its slot).
    cell: Arc<SessionCell>,
}

/// Slot holding a session inside the engine state.
struct Slot {
    /// `Some` while the session still runs; taken by the leasing worker.
    core: Option<Box<SessionCore>>,
    /// Everything a client observes of the session.
    cell: Arc<SessionCell>,
    /// Owning tenant when the session came through an authenticated
    /// serving layer ([`Engine::submit_tagged`]); `None` for in-process
    /// and anonymous submissions.
    tenant: Option<TenantId>,
}

struct EngineState {
    repos: FxHashMap<RepoId, RepoEntry>,
    /// `(name, dataset fingerprint) -> id`: in-memory identity index
    /// (mirrors the durable catalog when persistence is on).
    repo_ids: FxHashMap<(String, u64), RepoId>,
    /// Next id for catalog-less allocation (kept past the durable
    /// catalog's assignments when persistence is on).
    next_repo: u32,
    /// Workers parked on `work_cv`. `notify_*` on a futex condvar is a
    /// syscall whether or not anyone waits, so releases and submits
    /// notify only when this is nonzero.
    idle_workers: usize,
    sessions: FxHashMap<SessionId, Slot>,
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
    /// Start an engine and its worker threads. With
    /// [`EngineConfig::persist`] set, previously persisted detections are
    /// compacted into the container and mapped, and belief snapshots are
    /// loaded into memory, before any worker runs; stale
    /// (fingerprint-mismatched) or damaged data is skipped and counted in
    /// [`Engine::persist_stats`], never an error. A startup compaction
    /// that fails is absorbed too: that life serves from whatever
    /// container was already live and re-pays the detector for the rest.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (zero workers, quantum,
    /// fps, or cache capacity), or if the persist directory cannot be
    /// created or listed at all (directory-level IO failure — damaged
    /// *contents* never panic).
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.quantum > 0, "quantum must be positive");
        assert!(config.batch > 0, "batch must be positive");
        assert!(config.detector_fps > 0.0, "detector_fps must be positive");
        let obs = Arc::new(EngineObs::new(
            config.observe,
            config.trace,
            config.flight_capacity,
        ));
        let mut cache = FrameCache::new(config.cache_capacity, config.cache_shards);
        let persist = config.persist.as_ref().map(|pc| {
            // Before the log writer exists: fold the sealed segments into
            // the container (compaction sweeps crashed leftovers itself),
            // then map whatever container is live. Every failure here is
            // absorbed — the log stays authoritative, the engine
            // recomputes, and the next clean start folds what this one
            // could not.
            let chunk_frames = pc.columnar.unwrap_or_default().chunk_frames;
            let folded = {
                let mut span = obs.span_flight(Stage::Compaction, NO_SESSION);
                span.set_key(chunk_frames);
                exsample_colstore::compact(&pc.dir, pc.fingerprint, chunk_frames)
            };
            let folded = folded.unwrap_or_else(|e| {
                eprintln!("exsample-engine: startup compaction failed: {e}");
                CompactionReport::default()
            });
            let (container, container_skipped) = match ColumnarStore::open(
                &exsample_colstore::container_path(&pc.dir),
                pc.fingerprint,
            ) {
                Ok(store) => (Some(Arc::new(store)), 0),
                Err(OpenError::Missing) => (None, 0),
                Err(e) => {
                    eprintln!("exsample-engine: ignoring columnar container: {e}");
                    (None, 1)
                }
            };
            // lint: allow(panic_audit, an unusable persist directory at engine startup is fatal by design)
            let beliefs = BeliefStore::open(pc).expect("persist directory unusable");
            // lint: allow(panic_audit, an unusable persist directory at engine startup is fatal by design)
            let mut catalog = RepoCatalog::open(&pc.dir).expect("persist directory unusable");
            // lint: allow(panic_audit, an unusable persist directory at engine startup is fatal by design)
            let log = DetectionLog::open(pc).expect("persist directory unusable");
            // One pass over the segments compaction left behind — foreign
            // ones, or everything when it failed. Nothing read here enters
            // the cache (the container is the only warm read path); the
            // pass exists for the id reservation below and the counters.
            let mut max_artifact_repo: Option<u32> = container.as_ref().and_then(|c| c.max_repo());
            let mut detections_load = scan_detections(&pc.dir, pc.fingerprint, |rec| {
                max_artifact_repo = max_artifact_repo.max(Some(rec.repo));
            })
            // lint: allow(panic_audit, an unusable persist directory at engine startup is fatal by design)
            .expect("persist directory unusable");
            detections_load.segments_loaded += folded.segments_folded;
            detections_load.records_loaded += folded.records_folded;
            detections_load.damaged_tails += folded.damaged_tails;
            // Safety net for a lost or torn catalog: any id observed in a
            // surviving artifact (container, un-folded log, belief
            // snapshots) must never be *newly* assigned, or those
            // artifacts would be silently remapped onto whatever footage
            // registers in that position next. Reserved ids keep meaning
            // their original footage (when the catalog entry survived) or
            // nothing.
            max_artifact_repo = max_artifact_repo.max(beliefs.keys().map(|key| key.0).max());
            if let Some(max) = max_artifact_repo {
                catalog.reserve_past(max);
            }
            let log = Arc::new(Mutex::new(log));
            let sink = log.clone();
            let wb_obs = obs.clone();
            cache.set_write_behind(Box::new(move |key, dets| {
                // The cache does not know which session published the
                // miss; write-behind events are unowned.
                let mut span = wb_obs.span_flight(Stage::WriteBehind, NO_SESSION);
                span.set_key(key.1);
                sink.lock()
                    .expect("detection log poisoned")
                    .append(key.0 .0, key.1, dets);
            }));
            PersistShared {
                log,
                beliefs: Mutex::new(beliefs),
                catalog: Mutex::new(catalog),
                detections_load,
                container,
                container_skipped,
                container_hits: std::sync::atomic::AtomicU64::new(0),
            }
        });
        let workers = config.workers;
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                repos: FxHashMap::default(),
                repo_ids: FxHashMap::default(),
                next_repo: 0,
                idle_workers: 0,
                sessions: FxHashMap::default(),
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
                    .spawn(move || {
                        // On a worker panic, dump the flight recorder —
                        // the last few thousand structured events are
                        // exactly the context a post-mortem needs — then
                        // let the panic proceed unchanged.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            worker_loop(&shared)
                        }));
                        if let Err(panic) = run {
                            eprintln!(
                                "exsample-engine: worker panicked; {}",
                                shared.obs.flight().render()
                            );
                            std::panic::resume_unwind(panic);
                        }
                    })
                    // lint: allow(panic_audit, failing to spawn a worker at engine startup is fatal by design)
                    .expect("spawn engine worker")
            })
            .collect();
        Engine { shared, workers }
    }

    /// Register a repository under a caller-supplied `name`. Builds the
    /// per-class detector bank (the noise stream of class `c` is seeded by
    /// `det_seed + c`, so detection output is a pure function of
    /// `(repo, frame)`) and writes the repository's GOP container, which
    /// sessions decode through.
    ///
    /// # Identity
    ///
    /// The repository's identity is `(name, dataset fingerprint)` — not
    /// its registration order. Registering the same identity twice
    /// returns the same [`RepoId`] (the repository is *not* rebuilt), and
    /// with [`EngineConfig::persist`] set the assignment is durable: a
    /// restarted engine resolves the identity to the id its persisted
    /// detections and belief snapshots were written under, regardless of
    /// the order repositories are re-registered in. Footage that changes
    /// under the same name is a *new* identity and gets a fresh id, so
    /// stale persisted data can never be served for it. The catalog of
    /// registered repositories is browsable via [`Engine::repos`].
    ///
    /// # Panics
    ///
    /// Panics when the identity is already registered with *different*
    /// detector parameters (`noise`, `det_seed`): those are not part of
    /// the identity, and silently serving the original detector bank
    /// would hand the second caller wrong detections. (Across restarts
    /// the analogous protection is [`PersistConfig`]'s fingerprint —
    /// fold `detector_fingerprint(noise, det_seed)` into it so a
    /// detector upgrade invalidates persisted output.)
    pub fn register_repo(
        &self,
        name: &str,
        gt: Arc<GroundTruth>,
        noise: NoiseModel,
        det_seed: u64,
    ) -> RepoId {
        let fingerprint = dataset_fingerprint(&gt);
        let key = (name.to_string(), fingerprint);
        // The mismatch assert must run *after* the state guard drops, or
        // the panic would poison the engine mutex and turn into a
        // double-panic abort when Drop tries to lock it during unwind.
        let same_detectors = |existing: (NoiseModel, u64)| {
            assert!(
                existing == (noise, det_seed),
                "repository {name:?} is already registered with different detector parameters"
            );
        };
        {
            let state = self.lock_state();
            if let Some(&id) = state.repo_ids.get(&key) {
                // lint: allow(panic_audit, repo_ids only holds ids that are keys of repos)
                let existing = (state.repos[&id].noise, state.repos[&id].det_seed);
                drop(state);
                same_detectors(existing);
                return id;
            }
        }
        let detectors = (0..gt.num_classes())
            .map(|c| {
                SimulatedDetector::new(
                    gt.clone(),
                    exsample_videosim::ClassId(c as u16),
                    noise,
                    det_seed.wrapping_add(c as u64),
                )
            })
            .collect();
        // Model the storage layer with an empty payload per frame: decode
        // *cost* (seeks, keyframe walks) is structural, not content-bound.
        let mut writer = ContainerWriter::new(self.shared.config.gop_size);
        for _ in 0..gt.frames {
            writer.push_frame(&[]);
        }
        let frames = gt.frames;
        let classes = gt.num_classes() as u16;
        let repo = Arc::new(RepoData {
            gt,
            detectors,
            // lint: allow(panic_audit, the engine wrote these bytes itself two lines up)
            container: Container::open(writer.finish()).expect("engine-built container"),
        });
        let mut state = self.lock_state();
        // Raced registration of the same identity: first writer wins, the
        // duplicate build is discarded.
        if let Some(&id) = state.repo_ids.get(&key) {
            // lint: allow(panic_audit, repo_ids only holds ids that are keys of repos)
            let existing = (state.repos[&id].noise, state.repos[&id].det_seed);
            drop(state);
            same_detectors(existing);
            return id;
        }
        // The durable file write happens *after* the state lock drops:
        // workers need this lock between every quantum, and an fsync must
        // never stall them (same discipline as belief snapshots). A crash
        // in the window loses only the assignment record, which the
        // startup `reserve_past` safety net already tolerates.
        let (id, fresh) = match &self.shared.persist {
            Some(p) => {
                let (id, fresh) = p
                    .catalog
                    .lock()
                    .expect("repo catalog poisoned")
                    .assign(name, fingerprint);
                (RepoId(id), fresh)
            }
            None => (RepoId(state.next_repo), false),
        };
        state.next_repo = state.next_repo.max(id.0.saturating_add(1));
        state.repo_ids.insert(key, id);
        state.repos.insert(
            id,
            RepoEntry {
                info: RepoInfo {
                    id,
                    name: name.to_string(),
                    frames,
                    classes,
                    dataset_fingerprint: fingerprint,
                },
                noise,
                det_seed,
                data: repo,
            },
        );
        drop(state);
        if fresh {
            // lint: allow(panic_audit, fresh is only set on the branch that already dereferenced persist)
            let p = self.shared.persist.as_ref().expect("fresh implies persist");
            p.catalog.lock().expect("repo catalog poisoned").persist();
        }
        id
    }

    /// The repository catalog: one [`RepoInfo`] per registered repository,
    /// in id order.
    pub fn repos(&self) -> Vec<RepoInfo> {
        let state = self.lock_state();
        let mut infos: Vec<RepoInfo> = state.repos.values().map(|e| e.info.clone()).collect();
        infos.sort_by_key(|i| i.id);
        infos
    }

    /// Submit a query; the session immediately competes for detector
    /// budget. Returns its id for `poll` / `cancel` / `wait`.
    ///
    /// The spec is validated *here*, not in a worker: a structurally
    /// invalid spec (zero chunks or weight, degenerate prior, non-finite
    /// time budget, unknown repository or class) is rejected before it
    /// can consume any detector budget or panic mid-search.
    pub fn submit(&self, spec: QuerySpec) -> Result<SessionId, EngineError> {
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
    ) -> Result<SessionId, EngineError> {
        let submit_start = self.shared.obs.enabled().then(Instant::now);
        spec.validate().map_err(EngineError::InvalidSpec)?;
        let mut state = self.lock_state();
        let repo = state
            .repos
            .get(&spec.repo)
            .map(|e| e.data.clone())
            .ok_or(EngineError::UnknownRepo(spec.repo))?;
        if (spec.class.0 as usize) >= repo.gt.num_classes() {
            return Err(EngineError::InvalidSpec("class not present in repository"));
        }
        let frames = repo.gt.frames;
        if frames == 0 {
            return Err(EngineError::InvalidSpec("repository has no frames"));
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
        let discrim: Box<dyn Discriminator + Send> = match spec.discriminator {
            DiscriminatorKind::Oracle => Box::new(OracleDiscriminator::new()),
            DiscriminatorKind::Tracker { seed } => {
                Box::new(TrackerDiscriminator::new(repo.gt.clone(), seed))
            }
        };
        let cell = SessionCell::new();
        let core = Box::new(SessionCore {
            repo_id: spec.repo,
            class: spec.class,
            policy,
            rng: Rng64::new(spec.seed),
            stepper: SearchStepper::new(spec.stop, 0.0),
            discrim,
            container: repo.container.reader(),
            repo,
            class_dets: Vec::new(),
            gt_scratch: Vec::new(),
            drawn: Vec::new(),
            resolved: Vec::new(),
            miss_frames: Vec::new(),
            miss_io: Vec::new(),
            quantum: Quantum::default(),
            batch: spec.batch.unwrap_or(self.shared.config.batch).max(1) as usize,
            cell: cell.clone(),
        });
        let id = SessionId(state.next_session);
        state.next_session += 1;
        // Still under the state lock, so before any worker can lease
        // the session (let alone finish it).
        self.shared.obs.trace_open(id.0);
        state.sessions.insert(
            id,
            Slot {
                core: Some(core),
                cell,
                tenant: binding.map(|b| b.tenant),
            },
        );
        if let Some(b) = binding {
            *state.tenant_running.entry(b.tenant).or_insert(0) += 1;
        }
        let weight = match binding {
            Some(b) => spec.weight.saturating_mul(b.weight.max(1)),
            None => spec.weight,
        };
        state.scheduler.register(id, weight);
        let wake_worker = state.idle_workers > 0;
        drop(state);
        if self.shared.obs.enabled() {
            self.shared.obs.sessions_submitted_total.inc();
            // Untagged in-process submits are accounted under tenant 0.
            let tenant = binding.map_or(0, |b| b.tenant.0);
            self.shared
                .obs
                .submits_by_tenant
                .with(&tenant.to_string())
                .inc();
            self.shared
                .obs
                .sessions_active
                .with(&tenant.to_string())
                .add(1);
            let submit_ns = submit_start.map_or(0, elapsed_ns);
            self.shared.obs.trace_submit(id.0, submit_ns);
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
    pub fn poll(&self, id: SessionId, cursor: u64) -> Result<SessionSnapshot, EngineError> {
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
    ) -> Result<SessionSnapshot, EngineError> {
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
    ) -> Result<SessionSnapshot, EngineError> {
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
    /// [`SessionStatus::Cancelled`]. Cancelling a finished session is a
    /// no-op.
    pub fn cancel(&self, id: SessionId) -> Result<(), EngineError> {
        let state = self.lock_state();
        let slot = state
            .sessions
            .get(&id)
            .ok_or(EngineError::UnknownSession(id))?;
        slot.cell.cancel.store(true, Ordering::Relaxed);
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
    pub fn wait(&self, id: SessionId) -> Result<SessionReport, EngineError> {
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
    pub fn try_wait(&self, id: SessionId) -> Result<Option<SessionReport>, EngineError> {
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
    ) -> Result<Option<SessionReport>, EngineError> {
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
    ) -> Result<Option<SessionSnapshot>, EngineError> {
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
    pub fn forget(&self, id: SessionId) -> Result<SessionReport, EngineError> {
        let mut state = self.lock_state();
        let slot = state
            .sessions
            .get(&id)
            .ok_or(EngineError::UnknownSession(id))?;
        let report = {
            let mut progress = slot.cell.progress.lock().expect("session cell poisoned");
            // Usually the table holds the last reference (no new one can
            // appear while the state lock is held) and the report moves
            // out; a caller still inside `wait`/`poll` on this session
            // keeps the cell alive and is left its own copy.
            if Arc::strong_count(&slot.cell) == 1 {
                progress.take_report()
            } else {
                progress.report()
            }
        };
        let report = report.ok_or(EngineError::SessionRunning(id))?;
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
        self.shared.persist.as_ref().map(|p| {
            let beliefs = p.beliefs.lock().expect("belief store poisoned");
            let snapshots = beliefs.load_stats();
            PersistStats {
                segments_loaded: p.detections_load.segments_loaded,
                segments_skipped: p.detections_load.segments_skipped,
                records_loaded: p.detections_load.records_loaded,
                damaged_tails: p.detections_load.damaged_tails,
                snapshots_loaded: snapshots.segments_loaded,
                snapshots_skipped: snapshots.segments_skipped,
                beliefs_resident: beliefs.len() as u64,
                snapshot_write_errors: beliefs.write_errors(),
                log_write_errors: p.log.lock().expect("detection log poisoned").write_errors(),
                container_frames: p.container.as_ref().map_or(0, |c| c.frames_indexed()),
                container_chunks: p.container.as_ref().map_or(0, |c| c.group_count() as u64),
                container_hits: p.container_hits.load(Ordering::Relaxed),
                container_bytes_touched: p.container.as_ref().map_or(0, |c| c.bytes_touched()),
                container_skipped: p.container_skipped,
            }
        })
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
    /// time their own stages into the same registry and flight
    /// recorder through this.
    pub fn obs(&self) -> &EngineObs {
        &self.shared.obs
    }

    /// This shard's recorded spans for `trace`, as a causal tree rooted
    /// at the session span. Empty when tracing is off (or the trace was
    /// evicted); never an error.
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
    fn cell(&self, id: SessionId) -> Result<Arc<SessionCell>, EngineError> {
        let state = self.lock_state();
        state
            .sessions
            .get(&id)
            .map(|slot| slot.cell.clone())
            .ok_or(EngineError::UnknownSession(id))
    }

    fn lock_state(&self) -> MutexGuard<'_, EngineState> {
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
fn lock_state(shared: &Shared) -> MutexGuard<'_, EngineState> {
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
        let Some(slot) = state.sessions.get(&id) else {
            continue; // forgotten before its TTL ran out
        };
        let deadline = {
            let progress = slot.cell.progress.lock().expect("session cell poisoned");
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

/// Map lifecycle [`EngineError`]s onto the service vocabulary. Submit
/// errors are handled separately (they map onto [`SubmitError`]).
fn service_err(e: EngineError) -> ServiceError {
    match e {
        EngineError::UnknownSession(s) => ServiceError::UnknownSession(s),
        EngineError::SessionRunning(s) => ServiceError::SessionRunning(s),
        // Unreachable from lifecycle calls; surfaced faithfully anyway.
        other => ServiceError::Transport(other.to_string()),
    }
}

/// The in-process implementation of the client-facing API: calls go
/// straight to the engine, no serialization. The remote implementation
/// (`exsample-proto`'s `RemoteClient`) is interchangeable with this one
/// and produces identical session results.
impl SearchService for Engine {
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError> {
        Ok(Engine::repos(self))
    }

    fn submit(&self, spec: QuerySpec) -> Result<SessionId, SubmitError> {
        Engine::submit(self, spec).map_err(|e| match e {
            EngineError::UnknownRepo(r) => SubmitError::UnknownRepo(r),
            EngineError::InvalidSpec(why) => SubmitError::InvalidSpec(why.to_string()),
            other => SubmitError::InvalidSpec(other.to_string()),
        })
    }

    fn poll(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        Engine::poll_window(self, id, cursor, window).map_err(service_err)
    }

    fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        Engine::cancel(self, id).map_err(service_err)
    }

    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Engine::wait(self, id).map_err(service_err)
    }

    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        Engine::forget(self, id).map_err(service_err)
    }

    fn stats(&self) -> Result<ServiceStats, ServiceError> {
        Ok(Engine::service_stats(self))
    }

    fn diagnostics(&self) -> Result<Diagnostics, ServiceError> {
        Ok(Engine::diagnostics(self))
    }

    fn collect_trace(&self, trace: TraceId) -> Result<Vec<SpanRecord>, ServiceError> {
        Ok(Engine::collect_trace(self, trace))
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

fn worker_loop(shared: &Shared) {
    // Watchers a publish moved out of a cell, fired once its lock drops.
    let mut woken: Vec<Watch> = Vec::new();
    let mut state = lock_state(shared);
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let Some(id) = state.scheduler.lease_next() else {
            state.idle_workers += 1;
            state = shared.work_cv.wait(state).expect("engine state poisoned");
            state.idle_workers -= 1;
            continue;
        };
        // lint: allow(panic_audit, the scheduler only leases ids of registered sessions)
        let slot = state.sessions.get_mut(&id).expect("leased session exists");
        // lint: allow(panic_audit, a leased session's core is parked in its slot between quanta)
        let mut core = slot.core.take().expect("leased session has its core");
        drop(state);

        // The lease span covers the session checkout: everything between
        // taking the core and being ready to release the lease. Measured
        // manually (not via guard) because the release itself happens
        // back under the state lock.
        let lease_t0 = shared.obs.enabled().then(Instant::now);
        step_quantum(&mut core, shared, id);
        if let Some(t0) = lease_t0 {
            let frames = core.quantum.delta.frames;
            shared
                .obs
                .record(Stage::Lease, id.0, elapsed_ns(t0), frames);
            shared.obs.frames_total.add(frames);
        }

        // Fairness floor: an all-hit quantum costs ~0 modelled seconds,
        // and a near-zero charge would let a cache-warm session hold
        // every lease until it finishes (wall-clock-starving cost-paying
        // sessions). Floor each release at 0.1% of a fully-missing
        // quantum — negligible for budget split, sufficient for rotation.
        // This is *policy*; correctness (NaN/negative/zero charges) is
        // the scheduler's own validation in `Scheduler::release`. Session
        // ledgers stay exact; only the arbitration sees the floor.
        let floor_s = shared.config.quantum as f64 / shared.config.detector_fps * 1e-3;
        let charge_s = core.quantum.delta.total_s().max(floor_s);

        let Some(status) = core.quantum.ended else {
            // The common case: the quantum's events and ledger go into
            // the session's cell without the state lock, and only this
            // session's waiters hear of it.
            let notify = {
                let mut progress = core.cell.progress.lock().expect("session cell poisoned");
                let (found, samples) = (core.stepper.found(), core.stepper.samples());
                let stamp = shared.obs.enabled();
                progress.publish(&core.quantum, found, samples, None, stamp, &mut woken)
            };
            wake(&core.cell, notify, &mut woken);
            state = lock_state(shared);
            state.scheduler.release(id, charge_s);
            // lint: allow(panic_audit, the session stays registered while its quantum is in flight)
            let slot = state.sessions.get_mut(&id).expect("session exists");
            slot.core = Some(core);
            // The session is runnable again; a parked worker may want it.
            if state.idle_workers > 0 {
                shared.work_cv.notify_one();
            }
            continue;
        };

        // Finalization. Everything but what the report needs is freed
        // first, with no lock held. Then the engine's books close — the
        // lease, the tenant's quota slot, the in-memory belief snapshot —
        // and the cell publishes the final report *under the same hold of
        // the state lock*: whoever `wait` wakes finds all of it in place,
        // and this worker goes on to its next lease (or parks) without
        // letting go of the lock in between. Re-taking it here would race
        // the woken client's next `submit` once per session.
        let Retired {
            cell,
            quantum,
            found,
            samples,
            trace,
            chunk_stats,
            belief_key,
        } = retire(core);
        state = lock_state(shared);
        state.scheduler.release(id, charge_s);
        let finish_order = state.finished_sessions;
        state.finished_sessions += 1;
        state.scheduler.deactivate(id);
        // Release the tenant's quota slot the moment the session stops
        // running — not at forget/reap, which can be much later (or
        // never) and would wedge the tenant's admission.
        let tenant = state.sessions.get(&id).and_then(|s| s.tenant);
        if let Some(t) = tenant {
            if let Some(n) = state.tenant_running.get_mut(&t) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    state.tenant_running.remove(&t);
                }
            }
        }
        if shared.obs.enabled() {
            shared.obs.sessions_finished_total.inc();
            shared
                .obs
                .sessions_active
                .with(&tenant.map_or(0, |t| t.0).to_string())
                .sub(1);
            shared.obs.trace_finish(id.0);
        }
        // The TTL clock starts at finalization; reap opportunistically so
        // a busy engine collects orphans even with no API traffic.
        if let Some(ttl) = shared.config.session_ttl {
            state.reap_queue.push_back((id, Instant::now() + ttl));
            reap_expired(&mut state, ttl);
        }
        // Make the belief snapshot visible (in memory) *before* waiters
        // learn the session finished: a warm_start query submitted the
        // instant `wait` returns must find it. Only the durable file
        // write is deferred past the wake. The offer is evidence-gated,
        // so a short or cancelled run never clobbers a richer snapshot of
        // the same key.
        let snapshot = match &shared.persist {
            Some(persist) if samples > 0 => persist
                .beliefs
                .lock()
                .expect("belief store poisoned")
                .offer(belief_key, chunk_stats.clone())
                .then_some(persist),
            _ => None,
        };
        let notify = {
            let finished = Finished {
                trace,
                chunk_stats,
                finish_order,
            };
            let mut progress = cell.progress.lock().expect("session cell poisoned");
            let (done, stamp) = (Some((status, finished)), shared.obs.enabled());
            progress.publish(&quantum, found, samples, done, stamp, &mut woken)
        };
        wake(&cell, notify, &mut woken);
        // The table's reference is the last one again, so a `forget`
        // moves the report out instead of copying it.
        drop(cell);
        if let Some(persist) = snapshot {
            drop(state);
            {
                let mut span = shared.obs.span_flight(Stage::BeliefSnapshot, id.0);
                span.set_key(belief_key.2 as u64);
                persist
                    .beliefs
                    .lock()
                    .expect("belief store poisoned")
                    .persist_key(belief_key);
            }
            state = lock_state(shared);
        }
    }
}

/// What finalization keeps of a session's core.
struct Retired {
    cell: Arc<SessionCell>,
    /// The last quantum, still to be published.
    quantum: Quantum,
    found: u64,
    samples: u64,
    trace: exsample_core::driver::SearchTrace,
    chunk_stats: Vec<ChunkStats>,
    /// `(repo, class, chunks)`: where the belief snapshot is filed.
    belief_key: (u32, u16, u32),
}

/// Reduce a finished session's core to its [`Retired`] parts. The rest —
/// sampler, discriminator, container reader, scratch buffers — is freed
/// on return, which the caller arranges to be before it takes any lock.
fn retire(core: Box<SessionCore>) -> Retired {
    let core = *core;
    Retired {
        found: core.stepper.found(),
        samples: core.stepper.samples(),
        chunk_stats: core.policy.chunk_stats().to_vec(),
        belief_key: (
            core.repo_id.0,
            core.class.0,
            core.policy.chunking().num_chunks() as u32,
        ),
        trace: core.stepper.finish(),
        cell: core.cell,
        quantum: core.quantum,
    }
}

/// Deliver the wake-ups a [`Progress::publish`](crate::session) asked
/// for, once the cell lock is dropped: the callers parked on the cell's
/// condvar, and the completion queues whose watches it moved to `woken`.
fn wake(cell: &SessionCell, notify: bool, woken: &mut Vec<Watch>) {
    if notify {
        cell.wake.notify_all();
    }
    for watch in woken.drain(..) {
        watch.fire();
    }
}

/// How one drawn frame's detections were obtained (see
/// [`resolve_batch`]).
struct ResolvedFrame {
    dets: CachedDetections,
    /// io/decode seconds this session paid (misses only).
    io_s: f64,
    /// This session ran the detector for the frame (a cache miss).
    miss: bool,
    /// Recording this frame also bills one dispatch overhead
    /// ([`CostModel::dispatch_s`]) — set on the first miss of each
    /// dispatch.
    dispatch: bool,
}

impl ResolvedFrame {
    /// Detections this session did not run the detector for: resident,
    /// filled by another session, or read back from the container.
    fn free(dets: CachedDetections) -> Self {
        ResolvedFrame {
            dets,
            io_s: 0.0,
            miss: false,
            dispatch: false,
        }
    }
}

/// Resolve detections for one drawn batch, *cache → container →
/// detector*:
///
/// 1. **Reserve** every key ([`FrameCache::begin`]) — hits are served
///    immediately, misses become this session's reservations, keys other
///    sessions are computing become waits.
/// 2. **Redeem** the reservations ([`redeem`]): the mapped container
///    answers what it holds, and the rest is one detector dispatch — all
///    with **no cache shard lock held**, so detection never serializes
///    unrelated sessions on a shard.
/// 3. **Wait** for the in-flight keys, strictly *after* our own fills —
///    two sessions batching overlapping frames therefore can never
///    deadlock on each other. An abandoned in-flight entry (its computer
///    panicked) becomes our reservation and is redeemed like any other.
///
/// `resolved` is filled positionally (one entry per drawn frame).
fn resolve_batch(
    core: &mut SessionCore,
    shared: &Shared,
    drawn: &[u64],
    resolved: &mut Vec<Option<ResolvedFrame>>,
    sid: SessionId,
) {
    resolved.clear();
    resolved.resize_with(drawn.len(), || None);
    let mut reservations: Vec<(usize, MissGuard<'_>)> = Vec::new();
    let mut waits = Vec::new();
    for (k, &frame) in drawn.iter().enumerate() {
        match shared.cache.begin((core.repo_id, frame)) {
            // lint: allow(panic_audit, k enumerates drawn and resolved is sized to drawn.len())
            Lookup::Hit(dets) => resolved[k] = Some(ResolvedFrame::free(dets)),
            Lookup::Pending(wait) => waits.push((k, wait)),
            Lookup::Miss(guard) => reservations.push((k, guard)),
        }
    }
    if !reservations.is_empty() {
        redeem(core, shared, reservations, resolved, sid);
    }
    for (k, wait) in waits {
        // lint: allow(panic_audit, k enumerates drawn and resolved is sized to drawn.len())
        let frame = drawn[k];
        // Covers this key's whole resolution: the actual park on the
        // computing session plus (rarely) the recompute of an abandoned
        // entry. Key is the frame index waited on.
        let mut wait_span = shared.obs.span_flight(Stage::CacheWait, sid.0);
        wait_span.set_key(frame);
        let mut wait = Some(wait);
        // lint: allow(panic_audit, k enumerates drawn and resolved is sized to drawn.len())
        while resolved[k].is_none() {
            let lookup = match wait.take() {
                Some(w) => Lookup::Pending(w),
                None => shared.cache.begin((core.repo_id, frame)),
            };
            match lookup {
                // lint: allow(panic_audit, k enumerates drawn and resolved is sized to drawn.len())
                Lookup::Hit(dets) => resolved[k] = Some(ResolvedFrame::free(dets)),
                // `None`: the computing session abandoned the entry; ask again.
                // lint: allow(panic_audit, k enumerates drawn and resolved is sized to drawn.len())
                Lookup::Pending(w) => resolved[k] = w.wait().map(ResolvedFrame::free),
                // The session computing this frame died and the key is
                // ours now: a batch of one.
                Lookup::Miss(guard) => redeem(core, shared, vec![(k, guard)], resolved, sid),
            }
        }
    }
}

/// Turn a set of reservations into detections, filling `resolved[k]` for
/// each `(k, guard)`.
///
/// **Container first** (lazy warm start): before paying any detector
/// time, let the mapped columnar container answer. Only the touched
/// chunks' columns are decoded (and only once per chunk, cached); a
/// served frame is a warm hit — no miss, no io bill, no write-behind.
///
/// **Then one dispatch** for every reservation left: decode through the
/// session's own container reader, detect back-to-back, publish. The
/// first miss carries the dispatch-overhead bill. The span covers all
/// three phases; its event key is the miss count, so summing
/// dispatch-event keys reproduces the engine's detector-invocation total.
fn redeem(
    core: &mut SessionCore,
    shared: &Shared,
    mut reservations: Vec<(usize, MissGuard<'_>)>,
    resolved: &mut [Option<ResolvedFrame>],
    sid: SessionId,
) {
    if let Some(persist) = shared.persist.as_ref() {
        reservations = reservations
            .into_iter()
            .filter_map(
                |(k, guard)| match persist.warm(core.repo_id, guard.key().1) {
                    Some(dets) => {
                        // lint: allow(panic_audit, every k was issued by resolve_batch against resolved's own length)
                        resolved[k] = Some(ResolvedFrame::free(guard.fill_warm(dets)));
                        None
                    }
                    None => Some((k, guard)),
                },
            )
            .collect();
    }
    if reservations.is_empty() {
        return;
    }
    let cost_model = shared.config.cost_model;
    let mut span = shared.obs.span_flight(Stage::Dispatch, sid.0);
    span.set_key(reservations.len() as u64);
    let mut miss_frames = std::mem::take(&mut core.miss_frames);
    let mut io = std::mem::take(&mut core.miss_io);
    miss_frames.clear();
    io.clear();
    miss_frames.extend(reservations.iter().map(|(_, guard)| guard.key().1));
    for &frame in &miss_frames {
        let before = *core.container.stats();
        core.container
            .read_frame(frame)
            // lint: allow(panic_audit, the container was validated at registration; torn storage mid-run is fatal by design)
            .expect("engine-built container read");
        let after = *core.container.stats();
        io.push(cost_model.seconds(&decode_delta(&before, &after)));
    }
    let banks = dispatch_batch(&core.repo.detectors, &miss_frames, &mut core.gt_scratch);
    let mut first = true;
    for (((k, guard), dets), &io_s) in reservations.into_iter().zip(banks).zip(&io) {
        // lint: allow(panic_audit, every k was issued by resolve_batch against resolved's own length)
        resolved[k] = Some(ResolvedFrame {
            dets: guard.fill(dets),
            io_s,
            miss: true,
            dispatch: std::mem::take(&mut first),
        });
    }
    core.miss_frames = miss_frames;
    core.miss_io = io;
}

/// Step one leased session for up to `quantum` frames, in detector
/// batches of the session's batch size (§III-F). Runs without the state
/// lock; touches only the session's own core plus the shared cache.
///
/// Per batch: draw up to `batch` frames from the sampler with no
/// intermediate feedback, resolve their detections ([`resolve_batch`]:
/// one dispatch for the misses, outside the cache shard locks), then
/// replay discriminator feedback **in draw order** — so a session's
/// frame sequence and results are a pure function of its spec and batch
/// size, independent of worker interleavings and of the hit/miss
/// partition. With `batch = 1` the stepping, charging, and RNG
/// consumption are bit-identical to per-frame execution.
///
/// When the stop condition fires mid-batch, the remaining drawn frames
/// are discarded unrecorded — the speculative tail real batched
/// inference wastes. Their detections stay in the shared cache (later
/// sessions hit them for free) but are *not* billed to this session's
/// ledger: the clock stops where the search stopped.
fn step_quantum(core: &mut SessionCore, shared: &Shared, sid: SessionId) {
    let detect_frame_s = 1.0 / shared.config.detector_fps;
    let cost_model = shared.config.cost_model;
    // The quantum's outcome and the batch buffers live in the core
    // between quanta; they are taken out while `core` is borrowed whole.
    let mut out = std::mem::take(&mut core.quantum);
    out.events.clear();
    out.delta = Default::default();
    out.ended = None;
    let mut drawn = std::mem::take(&mut core.drawn);
    let mut resolved = std::mem::take(&mut core.resolved);
    let quantum = shared.config.quantum as usize;
    let mut stepped = 0usize;
    'quantum: while stepped < quantum {
        if core.cell.cancel.load(Ordering::Relaxed) {
            out.ended = Some(SessionStatus::Cancelled);
            break;
        }
        let want = core.batch.min(quantum - stepped);
        core.stepper
            .next_batch(&mut core.policy, &mut core.rng, want, &mut drawn);
        if drawn.is_empty() {
            out.ended = Some(SessionStatus::Done);
            break;
        }
        {
            // Histogram-only span (no flight event): at B=1 this fires
            // per frame, which would churn the event ring for no
            // diagnostic value.
            let mut span = shared.obs.span(Stage::BatchAssembly, sid.0);
            span.set_key(drawn.len() as u64);
            resolve_batch(core, shared, &drawn, &mut resolved, sid);
        }
        for (k, &frame) in drawn.iter().enumerate() {
            // lint: allow(panic_audit, resolve_batch's postcondition is that every drawn slot is Some)
            let r = resolved[k].take().expect("resolve_batch fills every slot");
            core.class_dets.clear();
            core.class_dets
                .extend(r.dets.iter().filter(|d| d.class == core.class).cloned());
            let obs = core.discrim.observe(frame, &core.class_dets);
            let fb = Feedback::new(obs.new_results, obs.matched_once);

            out.delta.frames += 1;
            let frame_cost = if r.miss {
                out.delta.detector_invocations += 1;
                out.delta.detect_s += detect_frame_s;
                out.delta.io_s += r.io_s;
                let mut cost = detect_frame_s + r.io_s;
                if r.dispatch {
                    out.delta.dispatches += 1;
                    out.delta.dispatch_s += cost_model.dispatch_s;
                    cost += cost_model.dispatch_s;
                }
                cost
            } else {
                out.delta.cache_hits += 1;
                0.0
            };
            // The session clock lives in the stepper (record sets it to
            // the absolute value we pass), so there is a single source of
            // truth.
            let now = core.stepper.seconds() + frame_cost;
            let done = core.stepper.record(&mut core.policy, frame, fb, now);
            if fb.new_results > 0 {
                out.events.push(ResultEvent {
                    frame,
                    new_results: fb.new_results,
                    samples: core.stepper.samples(),
                    seconds: now,
                });
            }
            stepped += 1;
            if done {
                out.ended = Some(SessionStatus::Done);
                break 'quantum;
            }
        }
    }
    // A stop mid-batch leaves the unrecorded tail resolved; let go of its
    // cached detections rather than pinning them until the next lease.
    resolved.clear();
    core.drawn = drawn;
    core.resolved = resolved;
    core.quantum = out;
}

/// Component-wise `after - before` of two decode tallies.
fn decode_delta(before: &DecodeStats, after: &DecodeStats) -> DecodeStats {
    DecodeStats {
        seeks: after.seeks - before.seeks,
        gops_fetched: after.gops_fetched - before.gops_fetched,
        frames_decoded: after.frames_decoded - before.frames_decoded,
        frames_returned: after.frames_returned - before.frames_returned,
        bytes_fetched: after.bytes_fetched - before.bytes_fetched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_core::driver::StopCond;
    use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};

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
            Err(EngineError::UnknownRepo(RepoId(99)))
        );
        assert_eq!(
            engine.submit(QuerySpec::new(repo, ClassId(9), StopCond::results(1))),
            Err(EngineError::InvalidSpec("class not present in repository"))
        );
        assert_eq!(
            engine.submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1)).weight(0)),
            Err(EngineError::InvalidSpec("weight must be positive"))
        );
        assert_eq!(
            engine.poll(SessionId(42), 0).unwrap_err(),
            EngineError::UnknownSession(SessionId(42))
        );
        assert_eq!(
            engine.wait(SessionId(42)).unwrap_err(),
            EngineError::UnknownSession(SessionId(42))
        );
        assert!(engine.cancel(SessionId(42)).is_err());
    }

    #[test]
    fn priority_weights_shift_detector_budget() {
        // One worker, equal sample budgets: the weight-4 session receives
        // 4/5 of the detector grants while both run, so it must reach its
        // budget — and finalize — strictly before the weight-1 session.
        // finish_order is assigned under the state lock, so this is
        // race-free.
        let engine = Engine::new(EngineConfig {
            workers: 1,
            quantum: 4,
            ..EngineConfig::default()
        });
        let repo = engine.register_repo("priority-repo", truth(50_000, 40), NoiseModel::none(), 8);
        let heavy = engine
            .submit(
                QuerySpec::new(repo, ClassId(0), StopCond::samples(2_000))
                    .seed(1)
                    .weight(4),
            )
            .unwrap();
        let light = engine
            .submit(
                QuerySpec::new(repo, ClassId(0), StopCond::samples(2_000))
                    .seed(2)
                    .weight(1),
            )
            .unwrap();
        let heavy_report = engine.wait(heavy).unwrap();
        let light_report = engine.wait(light).unwrap();
        assert_eq!(heavy_report.trace.samples(), 2_000);
        assert_eq!(light_report.trace.samples(), 2_000);
        assert!(
            heavy_report.finish_order < light_report.finish_order,
            "weight-4 session finished after weight-1 ({} vs {})",
            heavy_report.finish_order,
            light_report.finish_order
        );
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
            EngineError::UnknownSession(id)
        );
        assert_eq!(
            engine.forget(id).unwrap_err(),
            EngineError::UnknownSession(id)
        );
        // A running session cannot be forgotten.
        let busy = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1_000_000)).seed(22))
            .unwrap();
        match engine.forget(busy) {
            Err(EngineError::SessionRunning(_)) => {}
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
            EngineError::UnknownSession(SessionId(404))
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
            Err(EngineError::InvalidSpec(
                "prior pseudo-counts must be positive and finite"
            ))
        );
        let nan_stop = base.clone().chunks(4);
        let nan_stop = QuerySpec {
            stop: StopCond::seconds(f64::NAN),
            ..nan_stop
        };
        assert_eq!(
            engine.submit(nan_stop),
            Err(EngineError::InvalidSpec("stop seconds must be finite"))
        );
        assert_eq!(
            engine.submit(base.clone().chunks(0)),
            Err(EngineError::InvalidSpec("chunks must be positive"))
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
            Err(SubmitError::UnknownRepo(RepoId(77)))
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
            EngineError::UnknownSession(id)
        );
        assert_eq!(
            engine.wait(id).unwrap_err(),
            EngineError::UnknownSession(id)
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
            EngineError::UnknownSession(id)
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
