//! Cluster layer: shard repositories across search engines behind one
//! [`SearchService`](exsample_engine::SearchService).
//!
//! ExSample's economics come from amortizing detector cost across
//! overlapping queries, but one engine owns every repository it serves —
//! capping a deployment at a single machine's GPU and cache. This crate
//! scales the corpus *out* instead of up:
//!
//! * [`ShardRouter`] — itself a `SearchService`, over N backend shards:
//!   any mix of in-process [`Engine`](exsample_engine::Engine)s and
//!   `exsample-proto` `RemoteClient`s. Existing callers, examples, and
//!   experiments work unchanged against a fleet, and per-session results
//!   are bit-identical to running on the owning shard directly.
//! * `placement` — rendezvous hashing of the durable
//!   `(name, dataset fingerprint)` repository identity onto shard
//!   *names*: placement survives restarts and shard-list reordering, and
//!   adding/removing a shard moves only the repositories it gains or
//!   loses (warm caches and persisted detections stay put).
//! * **Namespaced ids** — session and repository ids carry their shard
//!   slot in the high bits, so submit/poll/cancel/wait/forget route with
//!   pure bit arithmetic: no id table, no global lock.
//! * [`ClusterStats`](router::ClusterStats) — fleet-wide cache/persist
//!   statistics summed per shard (degraded-tolerant), plus
//!   [`ShardHealth`](router::ShardHealth): a shard whose link
//!   fails is marked down with a typed [`ServiceError::ShardDown`]
//!   surfaced to the caller instead of a panic, and
//!   [`ShardRouter::revive`] puts it back after repair.
//! * [`FleetDiagnostics`](router::FleetDiagnostics) — fleet-level
//!   observability: per-shard latency histograms merged by metric name
//!   (so `dispatch_ns` p99 is over the union of every shard's
//!   dispatches) and counters summed, degraded-tolerant like
//!   [`ClusterStats`](router::ClusterStats); the router's strict
//!   `SearchService::diagnostics` additionally re-namespaces flight-event
//!   session ids into the router's id space.
//!
//! [`ServiceError::ShardDown`]: exsample_engine::ServiceError::ShardDown
//!
//! See `docs/CLUSTER.md` for placement, namespacing, and failure
//! semantics, and `examples/cluster_search.rs` for a three-shard fleet
//! (two in-process engines plus one behind a reactor's Unix-socket
//! listener).

#![warn(missing_docs)]

mod placement;
pub mod router;

pub use placement::place;
pub use router::{
    global_repo, global_session, split_repo, split_session, ShardRouter, ShardService,
};
