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
//! Submission failures are [`SubmitError`] (unknown repository, invalid
//! spec) and are validated *at submit time*, before the query reaches a
//! worker. Session-lifecycle failures are [`ServiceError`]. Both carry a
//! `Transport` variant used only by remote implementations; the in-process
//! engine never returns it.

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

/// Why a submission was rejected. Raised at submit time over both
/// implementations — an invalid spec never reaches a worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec names a repository id the service does not know.
    UnknownRepo(RepoId),
    /// The spec is structurally invalid (zero chunks or weight, class not
    /// present, non-positive prior, non-finite stop condition, …).
    InvalidSpec(String),
    /// The cluster shard owning the spec's repository is marked down.
    /// Only returned by routing implementations (`exsample-cluster`).
    ShardDown {
        /// Name of the unreachable shard.
        shard: String,
        /// The failure that marked it down.
        cause: String,
    },
    /// The remote transport failed (connection, framing, or protocol
    /// error). Never returned by the in-process engine.
    Transport(String),
    /// The serving layer shed this submission under load (queue depth or
    /// per-tenant quota); the client should retry after the hinted
    /// delay. Never returned by the in-process engine.
    Overloaded {
        /// Server's suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// The serving layer requires an authenticated tenant for this
    /// operation and the connection has none (or presented a token it
    /// rejected). Never returned by the in-process engine.
    Unauthorized(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownRepo(r) => write!(f, "unknown repository {r:?}"),
            SubmitError::InvalidSpec(why) => write!(f, "invalid query spec: {why}"),
            SubmitError::ShardDown { shard, cause } => {
                write!(f, "shard {shard:?} is down: {cause}")
            }
            SubmitError::Transport(why) => write!(f, "transport error: {why}"),
            SubmitError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded; retry after {retry_after_ms} ms")
            }
            SubmitError::Unauthorized(why) => write!(f, "unauthorized: {why}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a session-lifecycle call failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The session id was never submitted (or already forgotten).
    UnknownSession(SessionId),
    /// The session is still running (e.g. `forget` before completion).
    SessionRunning(SessionId),
    /// The cluster shard owning the addressed session or resource is
    /// marked down. Only returned by routing implementations
    /// (`exsample-cluster`); calls to healthy shards are unaffected.
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
    /// The remote transport failed (connection, framing, or protocol
    /// error). Never returned by the in-process engine.
    Transport(String),
    /// The serving layer shed this call under load; the client should
    /// retry after the hinted delay. Never returned by the in-process
    /// engine.
    Overloaded {
        /// Server's suggested backoff before retrying.
        retry_after_ms: u64,
    },
    /// The serving layer requires an authenticated tenant for this
    /// operation and the connection has none (or presented a token it
    /// rejected). Never returned by the in-process engine.
    Unauthorized(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownSession(s) => write!(f, "unknown session {s:?}"),
            ServiceError::SessionRunning(s) => write!(f, "session {s:?} is still running"),
            ServiceError::ShardDown { shard, cause } => {
                write!(f, "shard {shard:?} is down: {cause}")
            }
            ServiceError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak v{ours}, peer speaks v{theirs}"
            ),
            ServiceError::Transport(why) => write!(f, "transport error: {why}"),
            ServiceError::Overloaded { retry_after_ms } => {
                write!(f, "service overloaded; retry after {retry_after_ms} ms")
            }
            ServiceError::Unauthorized(why) => write!(f, "unauthorized: {why}"),
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
    fn submit(&self, spec: QuerySpec) -> Result<SessionId, SubmitError>;

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
        assert_eq!(
            SubmitError::UnknownRepo(RepoId(3)).to_string(),
            "unknown repository RepoId(3)"
        );
        assert_eq!(
            SubmitError::InvalidSpec("chunks must be positive".into()).to_string(),
            "invalid query spec: chunks must be positive"
        );
        assert_eq!(
            ServiceError::VersionMismatch { ours: 1, theirs: 2 }.to_string(),
            "protocol version mismatch: we speak v1, peer speaks v2"
        );
        assert!(ServiceError::UnknownSession(SessionId(9))
            .to_string()
            .contains("SessionId(9)"));
        assert_eq!(
            ServiceError::ShardDown {
                shard: "shard-b".into(),
                cause: "transport error: broken pipe".into(),
            }
            .to_string(),
            "shard \"shard-b\" is down: transport error: broken pipe"
        );
        assert_eq!(
            SubmitError::ShardDown {
                shard: "shard-b".into(),
                cause: "gone".into(),
            }
            .to_string(),
            "shard \"shard-b\" is down: gone"
        );
    }
}
