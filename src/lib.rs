//! # ExSample — adaptive sampling for distinct-object search over video
//!
//! A from-scratch Rust reproduction of *"ExSample: Efficient Searches on
//! Video Repositories through Adaptive Sampling"* (Moll et al., ICDE
//! 2022). This facade crate re-exports the full workspace:
//!
//! * [`core`] — the paper's contribution: chunked Thompson sampling over
//!   Good–Turing beliefs, Bayes-UCB and greedy variants, the random+
//!   stratified order, and the Algorithm 1 driver.
//! * [`stats`] — RNG, Gamma/LogNormal/Poisson/Geometric machinery, special
//!   functions, descriptive statistics.
//! * [`videosim`] — the synthetic video-repository substrate (ground
//!   truth, trajectories, skewed placement, clips and chunkings).
//! * [`store`] — a GOP-packed container modelling random-access decode
//!   costs (the Hwang/Scanner role in the paper's stack).
//! * [`detect`] — simulated object detector with a noise model, the
//!   SORT-style IoU tracking discriminator, and the BlazeIt-style proxy
//!   scorer.
//! * [`baselines`] — random, random+, sequential, and proxy-ordered
//!   policies.
//! * [`optimal`] — the Eq. IV.1 optimal static chunk-weight solver and
//!   skew diagnostics.
//! * [`engine`] — the multi-query serving layer: concurrent search
//!   sessions over shared repositories, a shared detection cache, and a
//!   cost-aware scheduler arbitrating the detector budget.
//! * [`persist`] — the durable detection store: an append-only,
//!   CRC-checked detection log plus belief snapshots, so a restarted
//!   engine answers previously-detected frames without re-running the
//!   detector and new queries warm-start from persisted chunk beliefs.
//! * [`colstore`] — the compacted form of that store: an immutable,
//!   memory-mapped columnar container with varint-delta columns and a
//!   per-chunk temporal index, rewritten from sealed log segments by a
//!   crash-safe compactor, so warm starts read only the chunks a query
//!   touches instead of replaying the whole log.
//! * [`proto`] — the serving layer's wire protocol: a versioned,
//!   length-prefixed binary framing with a remote `SearchService` client
//!   and a server multiplexing many connections over one engine, so the
//!   engine deploys as a query *service* with streaming results.
//! * [`serve`] — the scale-up deployment of that protocol: a
//!   readiness-driven (epoll) reactor multiplexing thousands of
//!   non-blocking connections over one engine thread, with bearer-token
//!   tenant auth mapped onto scheduler weights, per-tenant connection
//!   and session quotas, and typed `Overloaded { retry_after_ms }` load
//!   shedding on surviving connections.
//! * [`cluster`] — the scale-out layer: a `ShardRouter` implementing the
//!   same `SearchService` over a fleet of shards (in-process engines or
//!   remote clients, mixed), with rendezvous placement of repositories,
//!   namespaced session routing, fleet-wide statistics, and typed
//!   shard-failure errors.
//! * [`obs`] — the observability substrate: lock-free counters and
//!   log-bucketed latency histograms with mergeable wire-stable
//!   snapshots, span-style timing guards, a per-engine flight recorder
//!   of recent structured events, and a Prometheus-style text
//!   exposition.
//! * [`experiments`] — runners that regenerate every table and figure of
//!   the paper's evaluation, on the library crates alone.
//!
//! ## Quick start
//!
//! ```
//! use exsample::core::{
//!     driver::{run_search, SearchCost, StopCond},
//!     exsample::{ExSample, ExSampleConfig},
//!     Chunking, Feedback,
//! };
//! use exsample::detect::{OracleDiscriminator, QueryOracle, SimulatedDetector};
//! use exsample::stats::Rng64;
//! use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
//! use std::sync::Arc;
//!
//! // A 100k-frame repository where 200 "traffic lights" cluster in a
//! // small part of the timeline.
//! let spec = DatasetSpec::single_class(
//!     100_000,
//!     ClassSpec::new("traffic light", 200, 80.0, SkewSpec::CentralNormal { frac95: 0.1 }),
//! );
//! let gt = Arc::new(spec.generate(1));
//!
//! // "find 20 traffic lights": ExSample over 16 chunks.
//! let mut policy = ExSample::new(Chunking::even(gt.frames, 16), ExSampleConfig::default());
//! let mut oracle = QueryOracle::new(
//!     SimulatedDetector::perfect(gt.clone(), ClassId(0)),
//!     OracleDiscriminator::new(),
//! );
//! let mut rng = Rng64::new(7);
//! let trace = {
//!     let mut f = |frame| oracle.process(frame);
//!     run_search(&mut policy, &mut f, &SearchCost::per_sample(0.05), &StopCond::results(20), &mut rng)
//! };
//! assert!(trace.found() >= 20);
//! ```

pub use exsample_baselines as baselines;
pub use exsample_cluster as cluster;
pub use exsample_colstore as colstore;
pub use exsample_core as core;
pub use exsample_detect as detect;
pub use exsample_engine as engine;
pub use exsample_experiments as experiments;
pub use exsample_obs as obs;
pub use exsample_optimal as optimal;
pub use exsample_persist as persist;
pub use exsample_proto as proto;
pub use exsample_serve as serve;
pub use exsample_stats as stats;
pub use exsample_store as store;
pub use exsample_videosim as videosim;
