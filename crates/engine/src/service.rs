//! The client-facing search API: the [`SearchService`] trait.
//!
//! Every consumer of the system — examples, experiments, benchmarks,
//! remote clients — addresses a search service through this one trait:
//! discover repositories ([`SearchService::repos`]), submit queries,
//! stream incremental results with cursor/window backpressure, cancel,
//! wait for final reports, and forget finished sessions. Two
//! interchangeable implementations exist:
//!
//! * [`Engine`](crate::Engine) — in-process: calls go straight to the
//!   worker pool;
//! * `RemoteClient` (in the `exsample-proto` crate) — remote: calls are
//!   encoded onto a versioned binary wire protocol and served by a
//!   `SearchServer` pump or an `exsample-serve` reactor fronting an
//!   engine, so the same code drives a search service across a socket.
//!
//! Code written against `&dyn SearchService` cannot tell the difference —
//! by design, and by test: the protocol crate asserts remote sessions
//! produce traces identical to in-process ones.
//!
//! # Errors
//!
//! Every failure anywhere in the serving stack is one [`ServiceError`]:
//! the engine returns it, the wire carries it as is, the admission layer
//! refuses with it and the cluster router passes it on, so no layer
//! translates another's error. Which layer produces which variant:
//!
//! * the engine — `UnknownRepo`, `InvalidSpec` (both at submit time,
//!   before the query reaches a worker), `UnknownSession`,
//!   `SessionRunning`;
//! * the serving layer (`exsample-proto`'s `Connection`, the
//!   `exsample-serve` admission layer) — `Malformed` for a peer that broke
//!   the protocol, `Overloaded` when shedding load, `Unauthorized`;
//! * the remote client — `Transport` for a failed connection or an
//!   unexpected reply, `VersionMismatch` at the handshake;
//! * the cluster router — `ShardDown`, and the engine's ids re-namespaced
//!   into its own.

use crate::cache::CacheStats;
use crate::engine::PersistStats;
use crate::session::{QuerySpec, RepoId, SessionId, SessionReport, SessionSnapshot};
use exsample_obs::{FlightEvent, HistSnapshot, SpanRecord, TraceId};

/// Everything a client can know about a registered repository, returned
/// by the [`SearchService::repos`] catalog call.
///
/// The `(name, dataset_fingerprint)` pair is the repository's *identity*:
/// an engine with persistence resolves it to the same [`RepoId`] across
/// restarts regardless of registration order, so snapshots and cached
/// detections can never be remapped onto the wrong footage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepoInfo {
    /// Stable repository id — what [`QuerySpec::repo`] must carry.
    pub id: RepoId,
    /// Caller-supplied name under which the repository was registered.
    pub name: String,
    /// Number of frames in the repository.
    pub frames: u64,
    /// Number of object classes in its ground truth.
    pub classes: u16,
    /// Structural fingerprint of the footage
    /// (`exsample_persist::dataset_fingerprint`).
    pub dataset_fingerprint: u64,
}

/// Operational counters of one search service: what its detection cache
/// and durable store have been doing. Returned by
/// [`SearchService::stats`], and the unit a cluster router sums per shard
/// into fleet-wide statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Shared detection cache counters (hits, misses, evictions,
    /// residency, warm loads).
    pub cache: CacheStats,
    /// Durable-store counters; `None` when the service runs without
    /// persistence.
    pub persist: Option<PersistStats>,
    /// Sessions currently resident (running or finished-but-not-forgotten).
    pub live_sessions: u64,
}

/// One service's observability snapshot, returned by
/// [`SearchService::diagnostics`]: every latency histogram and counter
/// in its metric registry plus the recent structured events of its
/// flight recorder (see `docs/OBSERVABILITY.md` for the catalog).
///
/// Over the wire this is protocol v5's `DiagnosticsReply`; a cluster
/// router merges the per-shard histograms (by name) and sums the
/// counters into fleet-level distributions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// Latency histogram snapshots, sorted by metric name. Values are
    /// nanoseconds.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Counter and gauge readings, sorted by metric name.
    pub counters: Vec<(String, u64)>,
    /// Recent flight-recorder events, oldest first. Session ids are
    /// raw [`SessionId`] values (namespaced by cluster routers), with
    /// `u64::MAX` marking unowned work.
    pub events: Vec<FlightEvent>,
}

impl Diagnostics {
    /// The snapshot of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The reading of the counter (or gauge) named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Why a [`SearchService`] call failed — the one failure vocabulary of
/// every layer (see the [module docs](self#errors) for who produces
/// which variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// A submitted spec names a repository id the service does not know.
    UnknownRepo(RepoId),
    /// The session id was never submitted (or already forgotten).
    UnknownSession(SessionId),
    /// The session is still running (e.g. `forget` before completion).
    SessionRunning(SessionId),
    /// A submitted spec is structurally invalid (zero chunks or weight,
    /// class not present, non-positive prior, non-finite stop
    /// condition, …).
    InvalidSpec(String),
    /// The peer broke the protocol (e.g. an `Ack` outside a subscription,
    /// or a response tag sent as a request); the server hangs up after
    /// saying so.
    Malformed(String),
    /// The serving layer shed this call under load (queue depth, a
    /// connection cap or a per-tenant quota); the client should retry
    /// after the hinted delay.
    Overloaded {
        /// Server's suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// The serving layer requires an authenticated tenant for this
    /// operation and the connection has none (or presented a token it
    /// rejected).
    Unauthorized(String),
    /// The cluster shard owning the addressed session or repository is
    /// marked down; calls to healthy shards are unaffected.
    ShardDown {
        /// Name of the unreachable shard.
        shard: String,
        /// The failure that marked it down.
        cause: String,
    },
    /// The peer speaks a different protocol version; the connection was
    /// rejected at the handshake, before any message could be misparsed.
    VersionMismatch {
        /// Protocol version this side speaks.
        ours: u16,
        /// Protocol version the peer announced.
        theirs: u16,
    },
    /// The remote transport failed (connection, framing, or an
    /// unexpected reply).
    Transport(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownRepo(r) => write!(f, "unknown repository {r:?}"),
            ServiceError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            ServiceError::SessionRunning(s) => write!(f, "session {s:?} is still running"),
            ServiceError::InvalidSpec(why) => write!(f, "invalid query spec: {why}"),
            ServiceError::Malformed(why) => write!(f, "protocol violation: {why}"),
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded; retry after {retry_after_ms} ms")
            }
            ServiceError::Unauthorized(why) => write!(f, "unauthorized: {why}"),
            ServiceError::ShardDown { shard, cause } => {
                write!(f, "shard {shard:?} is down: {cause}")
            }
            ServiceError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}"
            ),
            ServiceError::Transport(why) => write!(f, "transport error: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A search service: the complete client-facing surface of the engine.
///
/// All methods take `&self` and are safe to call from many threads;
/// implementations are internally synchronized.
///
/// # Poll contract
///
/// [`SearchService::poll`] is a cursor over the session's append-only
/// result-event log. Pass `cursor = 0` first, then the returned
/// [`SessionSnapshot::next_cursor`]; each event is returned exactly once
/// per cursor chain. `window` caps how many events one poll returns
/// (`None` = all available) — a client that acknowledges slowly therefore
/// receives slowly, which is the backpressure story of the remote
/// implementation. A cursor at or past the end of the event log returns
/// an **empty** snapshot (`next_cursor` = log length, current status and
/// counters) — never an error, never out-of-bounds.
pub trait SearchService {
    /// The repository catalog: everything registered with this service,
    /// in id order. Clients resolve names to [`RepoId`]s here instead of
    /// assuming registration order.
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError>;

    /// Submit a query for execution. The spec is validated now — a
    /// rejected spec never consumes detector budget.
    fn submit(&self, spec: QuerySpec) -> Result<SessionId, ServiceError>;

    /// Non-blocking progress snapshot; see the trait docs for the
    /// cursor/window contract.
    fn poll(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError>;

    /// Request cancellation (idempotent; takes effect at the session's
    /// next frame boundary).
    fn cancel(&self, id: SessionId) -> Result<(), ServiceError>;

    /// Block until the session finishes (or is cancelled) and return its
    /// final report.
    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError>;

    /// Drop all state of a *finished* session, returning the final report
    /// one last time.
    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError>;

    /// Operational counters: cache behaviour, durable-store activity, and
    /// resident session count. Cheap (no detector work); a cluster router
    /// sums this per shard into fleet-wide statistics.
    fn stats(&self) -> Result<ServiceStats, ServiceError>;

    /// The service's observability snapshot: latency histograms,
    /// counters, and recent flight-recorder events. Cheap (atomic loads
    /// plus one ring copy); safe to poll from a metrics scraper. A
    /// cluster router merges this per shard into fleet-level
    /// distributions.
    fn diagnostics(&self) -> Result<Diagnostics, ServiceError>;

    /// The recorded spans of one distributed trace, as a causal tree
    /// rooted at the session span (`exsample_obs::validate_spans`
    /// documents the invariants). Trace ids derive deterministically
    /// from session ids (`TraceId::from_session`); a cluster router
    /// resolves a trace to its owning shard and re-namespaces the
    /// returned spans, so clients collect fleet-wide traces by the same
    /// id they derived locally. Unknown, evicted, or untraced ids
    /// return an empty vector — never an error. The default
    /// implementation returns empty, so services without a span
    /// collector (mocks, thin adapters) stay source-compatible.
    fn collect_trace(&self, trace: TraceId) -> Result<Vec<SpanRecord>, ServiceError> {
        let _ = trace;
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        for (err, shown) in [
            (
                ServiceError::UnknownRepo(RepoId(3)),
                "unknown repository RepoId(3)",
            ),
            (
                ServiceError::UnknownSession(SessionId(9)),
                "unknown session SessionId(9)",
            ),
            (
                ServiceError::SessionRunning(SessionId(9)),
                "session SessionId(9) is still running",
            ),
            (
                ServiceError::InvalidSpec("chunks must be positive".into()),
                "invalid query spec: chunks must be positive",
            ),
            (
                ServiceError::Malformed("expected a request".into()),
                "protocol violation: expected a request",
            ),
            (
                ServiceError::Overloaded { retry_after_ms: 50 },
                "service overloaded; retry after 50 ms",
            ),
            (
                ServiceError::Unauthorized("unknown tenant token".into()),
                "unauthorized: unknown tenant token",
            ),
            (
                ServiceError::ShardDown {
                    shard: "shard-b".into(),
                    cause: "transport error: broken pipe".into(),
                },
                "shard \"shard-b\" is down: transport error: broken pipe",
            ),
            (
                ServiceError::VersionMismatch { ours: 1, theirs: 2 },
                "protocol version mismatch: we speak v1, peer speaks v2",
            ),
            (
                ServiceError::Transport("broken pipe".into()),
                "transport error: broken pipe",
            ),
        ] {
            assert_eq!(err.to_string(), shown);
        }
    }
}
