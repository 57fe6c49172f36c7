//! Multi-query search engine for ExSample workloads.
//!
//! The core crates answer "how do I find distinct objects in video with
//! the fewest detector invocations?" for *one* query. A production
//! service faces many concurrent users whose queries overlap on the same
//! repositories — where detector outputs can be shared and the GPU budget
//! must be arbitrated. This crate provides that serving layer:
//!
//! * [`SearchService`] — the client-facing API every consumer programs
//!   against: repository catalog, submit, windowed cursor polls, cancel,
//!   wait, forget. Implemented in-process by [`Engine`] and remotely by
//!   `exsample-proto`'s `RemoteClient`, interchangeably.
//! * [`Engine`] — the front door: register repositories under stable
//!   names, [`Engine::submit`] queries, [`Engine::poll`] incremental
//!   results (plus [`Engine::poll_wait`] for push-style streaming),
//!   [`Engine::cancel`], and [`Engine::wait`] for the final
//!   `SearchTrace`. Sessions are multiplexed over a worker-thread pool.
//!   Each session's observable progress lives in its own cell: a poll
//!   never waits behind the scheduler, and a parked `poll_wait`/`wait`
//!   caller is woken by its own session's progress only.
//! * [`CompletionQueue`] — how a readiness-driven server (the
//!   `exsample-serve` reactor) learns *which* parked connections can
//!   make progress: [`Engine::try_wait_watch`] / [`Engine::poll_watch`]
//!   leave one-shot interest in a session, and the worker that moves it
//!   names the watcher on the queue.
//! * [`FrameCache`] — a sharded, thread-safe memo of detector output keyed
//!   by `(video, frame)`, with hit/miss/eviction statistics. Overlapping
//!   queries never pay for the same frame twice.
//! * [`Scheduler`] — weighted-fair arbitration of the modelled detector
//!   budget: sessions are charged detection plus io/decode seconds (via
//!   `exsample_store::CostModel`) and the next quantum always goes to the
//!   cheapest-so-far session per unit priority.
//! * [`QuerySpec`] / [`SessionId`] / [`SessionSnapshot`] /
//!   [`SessionReport`] — the session lifecycle vocabulary, including the
//!   selectable discriminator ([`DiscriminatorKind`]) and per-query
//!   belief warm-starting.
//! * **Durable detection store** — with [`EngineConfig::persist`] set
//!   (see [`PersistConfig`]), detector output is written behind the cache
//!   into `exsample_persist`'s segmented log; the next start folds that
//!   log into `exsample_colstore`'s memory-mapped container and answers
//!   cache misses from it, so a restarted engine serves
//!   previously-detected frames with zero detector invocations and reads
//!   only the chunks its queries touch; finished sessions snapshot their
//!   chunk beliefs for cross-session warm-starts. [`Engine::persist_stats`]
//!   reports what was folded, skipped (stale fingerprints), or salvaged.
//!
//! # Example
//!
//! ```
//! use exsample_engine::{Engine, EngineConfig, QuerySpec};
//! use exsample_core::driver::StopCond;
//! use exsample_detect::NoiseModel;
//! use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
//! use std::sync::Arc;
//!
//! let gt = Arc::new(
//!     DatasetSpec::single_class(
//!         50_000,
//!         ClassSpec::new("car", 80, 300.0, SkewSpec::CentralNormal { frac95: 0.2 }),
//!     )
//!     .generate(11),
//! );
//! let engine = Engine::new(EngineConfig::default());
//! let repo = engine.register_repo("city-cam", gt, NoiseModel::none(), 1);
//!
//! // Two overlapping queries race for the same detector budget ...
//! let a = engine
//!     .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(10)).seed(1))
//!     .unwrap();
//! let b = engine
//!     .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(10)).seed(2))
//!     .unwrap();
//! assert!(engine.wait(a).unwrap().trace.found() >= 10);
//! assert!(engine.wait(b).unwrap().trace.found() >= 10);
//! // ... and frames sampled by both were only detected once.
//! let stats = engine.cache_stats();
//! assert_eq!(stats.misses, engine.detector_invocations());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod obs;
pub mod scheduler;
pub mod service;
pub mod session;

pub use cache::{
    CacheStats, CachedDetections, FrameCache, FrameKey, Lookup, MissGuard, PendingWait,
};
pub use engine::{Engine, EngineConfig, PersistStats};
pub use exsample_persist::{
    dataset_fingerprint, detector_fingerprint, ColumnarConfig, PersistConfig,
};
pub use obs::EngineObs;
pub use scheduler::Scheduler;
pub use service::{Diagnostics, RepoInfo, SearchService, ServiceError, ServiceStats};
pub use session::{
    CompletionQueue, DiscriminatorKind, QuerySpec, RepoId, ResultEvent, SessionCharges, SessionId,
    SessionReport, SessionSnapshot, SessionStatus, TenantBinding, TenantId,
};
