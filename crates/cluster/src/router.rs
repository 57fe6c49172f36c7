//! The [`ShardRouter`]: one [`SearchService`] over many backend shards.
//!
//! # Id namespacing
//!
//! Each shard allocates its own repository and session ids, so two
//! shards routinely both own a `RepoId(0)`. The router exposes
//! *namespaced* ids instead: the shard's slot (its position in the
//! router's name-sorted shard list) travels in the high bits, the
//! shard-local id in the low bits. Routing a call is therefore pure bit
//! arithmetic — no id table, no global lock — and because slots are
//! assigned by sorted shard *name*, a router rebuilt from the same shard
//! set in any order exposes the same ids.
//!
//! ```text
//! RepoId    (u32):  [ slot : 8 bits ][ shard-local id : 24 bits ]
//! SessionId (u64):  [ slot : 16 bits ][ shard-local id : 48 bits ]
//! ```
//!
//! # Health
//!
//! A shard whose call fails at the connection level (a transport error,
//! a version mismatch, or a `Malformed` answer, after which the server
//! hangs up) is marked **down**: the failing call and every later call
//! routed to it return the typed [`ServiceError::ShardDown`] immediately
//! instead of panicking or hammering a dead link. Every other error a
//! shard returns passes through unchanged but for its ids, which are
//! re-namespaced; calls routed to other shards are unaffected. After
//! repairing the backend (e.g. `RemoteClient::reconnect`),
//! [`ShardRouter::revive`] puts the shard back in rotation.

use crate::placement;
use exsample_engine::{
    CacheStats, Diagnostics, PersistStats, QuerySpec, RepoId, RepoInfo, SearchService,
    ServiceError, ServiceStats, SessionId, SessionReport, SessionSnapshot,
};
use exsample_obs::{HistSnapshot, SpanRecord, TraceId, NO_SESSION};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Hard cap on shards per router: the slot must fit the 8 bits reserved
/// in a namespaced [`RepoId`].
pub(crate) const MAX_SHARDS: usize = 256;

const REPO_SLOT_SHIFT: u32 = 24;
const REPO_LOCAL_MASK: u32 = (1 << REPO_SLOT_SHIFT) - 1;
const REPO_MAX_SLOT: usize = (u32::MAX >> REPO_SLOT_SHIFT) as usize;
const SESSION_SLOT_SHIFT: u32 = 48;
const SESSION_LOCAL_MASK: u64 = (1 << SESSION_SLOT_SHIFT) - 1;
const SESSION_MAX_SLOT: usize = (u64::MAX >> SESSION_SLOT_SHIFT) as usize;

/// Which id namespace an [`IdOverflow`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdKind {
    /// Repository ids: 8 slot bits over a 24-bit shard-local id.
    Repo,
    /// Session ids: 16 slot bits over a 48-bit shard-local id.
    Session,
}

/// A shard-local id (or slot) that does not fit its reserved bit field.
///
/// Namespacing is pure bit arithmetic, so an out-of-range value OR-merged
/// without this check would silently corrupt the slot bits and route
/// every later call for that id to the *wrong shard* — the typed error
/// exists so callers surface the impossibility instead of aliasing ids.
/// An engine never allocates such ids (they'd take 2⁴⁸ submits); in
/// practice this means a misbehaving backend or an attempt to nest one
/// router behind another (whose ids already carry slot bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdOverflow {
    /// Namespace that overflowed.
    pub kind: IdKind,
    /// The shard slot the id was being namespaced under.
    pub slot: usize,
    /// The shard-local id that does not fit (widened to `u64`).
    pub local: u64,
}

impl std::fmt::Display for IdOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, slot_bits, local_bits) = match self.kind {
            IdKind::Repo => ("repo", 32 - REPO_SLOT_SHIFT, REPO_SLOT_SHIFT),
            IdKind::Session => ("session", 64 - SESSION_SLOT_SHIFT, SESSION_SLOT_SHIFT),
        };
        write!(
            f,
            "{kind} id {} under slot {} does not fit the router namespace \
             ({slot_bits}-bit slot over a {local_bits}-bit local id)",
            self.local, self.slot
        )
    }
}

impl std::error::Error for IdOverflow {}

/// Namespace a shard-local repository id under `slot`, or a typed
/// [`IdOverflow`] when the slot exceeds its 8 bits or the local id its
/// 24 — OR-merging such a value would silently route to the wrong shard.
pub fn global_repo(slot: usize, local: RepoId) -> Result<RepoId, IdOverflow> {
    if slot > REPO_MAX_SLOT || local.0 > REPO_LOCAL_MASK {
        return Err(IdOverflow {
            kind: IdKind::Repo,
            slot,
            local: local.0 as u64,
        });
    }
    Ok(RepoId(((slot as u32) << REPO_SLOT_SHIFT) | local.0))
}

/// Split a namespaced repository id into `(slot, shard-local id)`.
pub fn split_repo(id: RepoId) -> (usize, RepoId) {
    (
        (id.0 >> REPO_SLOT_SHIFT) as usize,
        RepoId(id.0 & REPO_LOCAL_MASK),
    )
}

/// Namespace a shard-local session id under `slot`, or a typed
/// [`IdOverflow`] when the slot exceeds its 16 bits or the local id its
/// 48 (see [`global_repo`]).
pub fn global_session(slot: usize, local: SessionId) -> Result<SessionId, IdOverflow> {
    if slot > SESSION_MAX_SLOT || local.0 > SESSION_LOCAL_MASK {
        return Err(IdOverflow {
            kind: IdKind::Session,
            slot,
            local: local.0,
        });
    }
    Ok(SessionId(((slot as u64) << SESSION_SLOT_SHIFT) | local.0))
}

/// Split a namespaced session id into `(slot, shard-local id)`.
pub fn split_session(id: SessionId) -> (usize, SessionId) {
    (
        (id.0 >> SESSION_SLOT_SHIFT) as usize,
        SessionId(id.0 & SESSION_LOCAL_MASK),
    )
}

/// One backend of the router: anything speaking [`SearchService`] — an
/// in-process `Engine` or a `RemoteClient`. (Not another router: its
/// ids already carry slot bits, which do not fit this router's local-id
/// namespace — the catalog and submit paths reject them loudly.)
pub type ShardService = Arc<dyn SearchService + Send + Sync>;

struct Shard {
    name: String,
    svc: ShardService,
    /// `Some(cause)` while the shard is marked down.
    down: Mutex<Option<String>>,
}

/// Health of one shard as reported by [`ShardRouter::health`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard name.
    pub name: String,
    /// False when the shard is marked down.
    pub up: bool,
    /// The failure that marked it down, when down.
    pub cause: Option<String>,
}

/// Fleet-wide statistics: per-shard [`ServiceStats`] plus their sums.
/// Produced by [`ShardRouter::cluster_stats`], which keeps working in a
/// degraded fleet — unreachable shards are reported as `None` and left
/// out of the sums instead of failing the whole call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// `(shard name, stats)` per shard, in slot order; `None` when the
    /// shard is down or its stats call failed (which marks it down).
    pub shards: Vec<(String, Option<ServiceStats>)>,
    /// Cache counters summed over reachable shards (includes
    /// `warm_loads`, so fleet-wide cold/warm behaviour is one read).
    pub cache: CacheStats,
    /// Durable-store counters summed over reachable persisting shards;
    /// `None` when no reachable shard persists.
    pub persist: Option<PersistStats>,
    /// Resident sessions summed over reachable shards.
    pub live_sessions: u64,
}

impl ClusterStats {
    /// Number of shards that did not report (down or failing).
    pub fn shards_down(&self) -> usize {
        self.shards.iter().filter(|(_, s)| s.is_none()).count()
    }
}

/// Fleet-wide observability: each shard's [`Diagnostics`] plus the
/// fleet-level merge — histograms folded together *by metric name*
/// (log-bucketed snapshots merge exactly, so `histogram("dispatch_ns")`
/// is the latency distribution over every dispatch anywhere in the
/// fleet) and counters summed by name. Produced by
/// [`ShardRouter::fleet_diagnostics`], which — like
/// [`ShardRouter::cluster_stats`] — keeps working in a degraded fleet:
/// unreachable shards report `None` and are left out of the merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetDiagnostics {
    /// `(shard name, diagnostics)` per shard, in slot order; `None` when
    /// the shard is down or its diagnostics call failed (which marks it
    /// down). Event session ids here are *shard-local*.
    pub shards: Vec<(String, Option<Diagnostics>)>,
    /// Histogram snapshots merged by metric name over reachable shards,
    /// sorted by name.
    pub histograms: Vec<(String, HistSnapshot)>,
    /// Counters summed by name over reachable shards, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl FleetDiagnostics {
    /// Number of shards that did not report (down or failing).
    pub fn shards_down(&self) -> usize {
        self.shards.iter().filter(|(_, d)| d.is_none()).count()
    }

    /// The fleet-merged snapshot of the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// The fleet-summed reading of the counter named `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Fold one shard's diagnostics into the fleet-level name-keyed merge.
fn merge_diagnostics(
    hists: &mut BTreeMap<String, HistSnapshot>,
    counters: &mut BTreeMap<String, u64>,
    diag: &Diagnostics,
) {
    for (name, snap) in &diag.histograms {
        hists.entry(name.clone()).or_default().merge(snap);
    }
    for (name, value) in &diag.counters {
        let total = counters.entry(name.clone()).or_insert(0);
        *total = total.saturating_add(*value);
    }
}

fn add_cache(a: &mut CacheStats, b: &CacheStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.evictions += b.evictions;
    a.entries += b.entries;
    a.warm_loads += b.warm_loads;
}

/// Sum every field. The destructuring pattern is exhaustive on purpose
/// (no `..`): a field added to [`PersistStats`] does not compile until
/// it is listed here, so the fleet sum can never be silently partial.
fn add_persist(a: &mut PersistStats, b: &PersistStats) {
    macro_rules! sum {
        ($($field:ident),* $(,)?) => {{
            let PersistStats { $($field),* } = *b;
            $(a.$field += $field;)*
        }};
    }
    sum!(
        segments_loaded,
        segments_skipped,
        records_loaded,
        damaged_tails,
        snapshots_loaded,
        snapshots_skipped,
        beliefs_resident,
        log_write_errors,
        snapshot_write_errors,
        container_frames,
        container_chunks,
        container_hits,
        container_bytes_touched,
        container_skipped,
    );
}

/// True for errors that mean "this shard's link is broken", as opposed
/// to ordinary per-request failures a healthy shard can return. A server
/// hangs up after answering `Malformed`.
fn is_connection_failure(e: &ServiceError) -> bool {
    matches!(
        e,
        ServiceError::Transport(_)
            | ServiceError::VersionMismatch { .. }
            | ServiceError::Malformed(_)
    )
}

/// A shard-local id that does not fit the router's namespace: the shard
/// could not have been handed it by this router, so it is reported as a
/// transport-level inconsistency rather than silently aliased onto
/// another shard's range.
fn foreign_id(shard: &Shard, e: IdOverflow) -> ServiceError {
    ServiceError::Transport(format!("shard {:?} reported a foreign id: {e}", shard.name))
}

/// Remap the shard-local repository and session ids inside an error
/// from `shard` (at `slot`) into the router's namespace, so callers see
/// the ids they hold.
fn globalize_err(shard: &Shard, slot: usize, e: ServiceError) -> ServiceError {
    let session = |s, variant: fn(SessionId) -> ServiceError| {
        global_session(slot, s).map_or_else(|e| foreign_id(shard, e), variant)
    };
    match e {
        ServiceError::UnknownRepo(r) => {
            global_repo(slot, r).map_or_else(|e| foreign_id(shard, e), ServiceError::UnknownRepo)
        }
        ServiceError::UnknownSession(s) => session(s, ServiceError::UnknownSession),
        ServiceError::SessionRunning(s) => session(s, ServiceError::SessionRunning),
        other => other,
    }
}

/// A [`SearchService`] that shards repositories across N backend
/// services and routes every call to the owner — the deployment shape
/// where the corpus outgrows one machine's GPU and cache.
///
/// Existing `SearchService` callers work unchanged against a fleet:
/// [`repos`](SearchService::repos) scatter-gathers the shard catalogs
/// (ids namespaced, see the [module docs](self)), submit routes by the
/// spec's repository id, and session calls route by the session id's
/// slot bits. Per-session results are bit-identical to running the same
/// spec on the owning shard directly — the router moves calls, not
/// computation.
///
/// New repositories are *placed* with [`ShardRouter::place`]: rendezvous
/// hashing over the durable `(name, dataset fingerprint)` identity, so
/// the owner survives router restarts and shard-list reordering, and
/// adding or removing a shard relocates only the repositories it gains
/// or loses.
pub struct ShardRouter {
    /// Sorted by name; a shard's index here is its slot.
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shard_names())
            .finish()
    }
}

impl ShardRouter {
    /// A router over `shards` (`(name, service)` pairs). Names identify
    /// shards durably — placement and slot assignment depend only on the
    /// name *set*, never on the order given here.
    ///
    /// # Panics
    /// Panics on an empty list, more than `MAX_SHARDS` shards, or a
    /// duplicate name.
    pub fn new(shards: Vec<(String, ShardService)>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            shards.len() <= MAX_SHARDS,
            "at most {MAX_SHARDS} shards per router"
        );
        let mut shards: Vec<Shard> = shards
            .into_iter()
            .map(|(name, svc)| Shard {
                name,
                svc,
                down: Mutex::new(None),
            })
            .collect();
        // Slot = rank by name: stable under any input permutation.
        shards.sort_by(|a, b| a.name.cmp(&b.name));
        for pair in shards.windows(2) {
            if let [a, b] = pair {
                assert!(a.name != b.name, "duplicate shard name {:?}", a.name);
            }
        }
        ShardRouter { shards }
    }

    /// Shard names in slot order (sorted).
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.name.as_str()).collect()
    }

    /// The shard owning the repository identity
    /// `(repo_name, dataset_fingerprint)` — where a new repository of
    /// that identity should be registered. Rendezvous hashing over the
    /// shard names: deterministic, order-free, minimally disruptive
    /// under shard addition/removal.
    pub fn place(&self, repo_name: &str, dataset_fingerprint: u64) -> &str {
        let names = self.shard_names();
        let i = placement::place(&names, repo_name, dataset_fingerprint)
            // lint: allow(panic_audit, new() asserts a non-empty shard set)
            .expect("router has at least one shard");
        // lint: allow(panic_audit, place() returns a rank into the same shard list)
        &self.shards[i].name
    }

    /// The shard a namespaced repository id routes to, if its slot is
    /// valid.
    pub fn shard_of_repo(&self, id: RepoId) -> Option<&str> {
        let (slot, _) = split_repo(id);
        self.shards.get(slot).map(|s| s.name.as_str())
    }

    /// The shard a namespaced session id routes to, if its slot is
    /// valid.
    pub fn shard_of_session(&self, id: SessionId) -> Option<&str> {
        let (slot, _) = split_session(id);
        self.shards.get(slot).map(|s| s.name.as_str())
    }

    /// The scatter-gather catalog with its origin tagging intact: each
    /// shard's name alongside its repositories (ids namespaced). Fails
    /// with a typed error if any shard is unreachable — a merged catalog
    /// silently missing a shard's repositories would misinform placement
    /// decisions.
    pub fn repos_by_shard(&self) -> Result<Vec<(String, Vec<RepoInfo>)>, ServiceError> {
        let mut out = Vec::with_capacity(self.shards.len());
        for (slot, shard) in self.shards.iter().enumerate() {
            self.check_up(shard)?;
            let infos = self
                .observe(shard, shard.svc.repos())?
                .into_iter()
                .map(|info| self.globalize_repo_info(shard, slot, info))
                .collect::<Result<Vec<_>, _>>()?;
            out.push((shard.name.clone(), infos));
        }
        Ok(out)
    }

    /// Health of every shard, in slot order.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.shards
            .iter()
            .map(|s| {
                let cause = s.down.lock().expect("shard health poisoned").clone();
                ShardHealth {
                    name: s.name.clone(),
                    up: cause.is_none(),
                    cause,
                }
            })
            .collect()
    }

    /// Put a down-marked shard back in rotation (after repairing its
    /// backend, e.g. `RemoteClient::reconnect`). Returns false for an
    /// unknown name. Idempotent.
    pub fn revive(&self, name: &str) -> bool {
        match self.shards.iter().find(|s| s.name == name) {
            Some(shard) => {
                *shard.down.lock().expect("shard health poisoned") = None;
                true
            }
            None => false,
        }
    }

    /// Fleet-wide statistics, degraded-tolerant: per-shard stats plus
    /// their sums over every *reachable* shard. A shard failing its
    /// stats call is marked down and reported as `None` — observability
    /// must keep working exactly when part of the fleet does not.
    pub fn cluster_stats(&self) -> ClusterStats {
        let mut out = ClusterStats::default();
        for shard in &self.shards {
            let stats = match self.check_up(shard) {
                Ok(()) => self.observe(shard, shard.svc.stats()).ok(),
                Err(_) => None,
            };
            if let Some(s) = &stats {
                add_cache(&mut out.cache, &s.cache);
                if let Some(p) = &s.persist {
                    add_persist(out.persist.get_or_insert_with(PersistStats::default), p);
                }
                out.live_sessions += s.live_sessions;
            }
            out.shards.push((shard.name.clone(), stats));
        }
        out
    }

    /// Fleet-wide observability, degraded-tolerant: per-shard
    /// [`Diagnostics`] plus histograms merged and counters summed over
    /// every *reachable* shard. A shard failing its diagnostics call is
    /// marked down and reported as `None` — exactly the
    /// [`ShardRouter::cluster_stats`] contract, because observability
    /// must keep working exactly when part of the fleet does not.
    pub fn fleet_diagnostics(&self) -> FleetDiagnostics {
        let mut hists = BTreeMap::new();
        let mut counters = BTreeMap::new();
        let mut out = FleetDiagnostics::default();
        for shard in &self.shards {
            let diag = match self.check_up(shard) {
                Ok(()) => self.observe(shard, shard.svc.diagnostics()).ok(),
                Err(_) => None,
            };
            if let Some(d) = &diag {
                merge_diagnostics(&mut hists, &mut counters, d);
            }
            out.shards.push((shard.name.clone(), diag));
        }
        out.histograms = hists.into_iter().collect();
        out.counters = counters.into_iter().collect();
        out
    }

    // ---- routing internals ----

    /// Fail fast when the shard is marked down.
    fn check_up(&self, shard: &Shard) -> Result<(), ServiceError> {
        match &*shard.down.lock().expect("shard health poisoned") {
            Some(cause) => Err(ServiceError::ShardDown {
                shard: shard.name.clone(),
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Pass a shard call's result through health tracking: a
    /// connection-level failure marks the shard down and is rewritten to
    /// the typed [`ServiceError::ShardDown`]; anything else passes
    /// through untouched.
    fn observe<T>(&self, shard: &Shard, r: Result<T, ServiceError>) -> Result<T, ServiceError> {
        r.map_err(|e| {
            if is_connection_failure(&e) {
                let cause = e.to_string();
                *shard.down.lock().expect("shard health poisoned") = Some(cause.clone());
                ServiceError::ShardDown {
                    shard: shard.name.clone(),
                    cause,
                }
            } else {
                e
            }
        })
    }

    /// Namespace the ids inside a shard's catalog entry.
    fn globalize_repo_info(
        &self,
        shard: &Shard,
        slot: usize,
        mut info: RepoInfo,
    ) -> Result<RepoInfo, ServiceError> {
        info.id = global_repo(slot, info.id).map_err(|e| foreign_id(shard, e))?;
        Ok(info)
    }

    /// One routed call to the shard at `slot` (`missing` when no shard
    /// has that slot): fail fast if it is down, run the call, track
    /// health on the way out, and re-namespace any ids in the error.
    fn route<T>(
        &self,
        slot: usize,
        missing: ServiceError,
        call: impl FnOnce(&dyn SearchService) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let shard = self.shards.get(slot).ok_or(missing)?;
        self.check_up(shard)?;
        self.observe(shard, call(shard.svc.as_ref()))
            .map_err(|e| globalize_err(shard, slot, e))
    }

    /// [`ShardRouter::route`] for a call on the session `id`, made with
    /// its shard-local id.
    fn route_session<T>(
        &self,
        id: SessionId,
        call: impl FnOnce(&dyn SearchService, SessionId) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let (slot, local) = split_session(id);
        self.route(slot, ServiceError::UnknownSession(id), |svc| {
            call(svc, local)
        })
    }
}

impl SearchService for ShardRouter {
    /// The merged fleet catalog: every shard's repositories with
    /// namespaced ids, in id order (slot-major). See
    /// [`ShardRouter::repos_by_shard`] for the origin-tagged form.
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError> {
        let mut all: Vec<RepoInfo> = self
            .repos_by_shard()?
            .into_iter()
            .flat_map(|(_, infos)| infos)
            .collect();
        all.sort_by_key(|i| i.id);
        Ok(all)
    }

    fn submit(&self, spec: QuerySpec) -> Result<SessionId, ServiceError> {
        let (slot, repo) = split_repo(spec.repo);
        let missing = ServiceError::UnknownRepo(spec.repo);
        let session = self.route(slot, missing, |svc| svc.submit(QuerySpec { repo, ..spec }))?;
        // A shard-local id beyond the 48-bit namespace (an engine never
        // allocates one; a nested router's slot bits would) must not be
        // silently OR-merged into the slot — that would route every later
        // call for this session to the wrong shard.
        global_session(slot, session).map_err(|e| {
            ServiceError::Transport(format!(
                "{e} (the session runs on the shard but cannot be addressed through this router)"
            ))
        })
    }

    fn poll(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        self.route_session(id, |svc, local| svc.poll(local, cursor, window))
    }

    fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        self.route_session(id, |svc, local| svc.cancel(local))
    }

    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        self.route_session(id, |svc, local| svc.wait(local))
    }

    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        self.route_session(id, |svc, local| svc.forget(local))
    }

    /// Fleet-wide sums over every shard. Unlike
    /// [`ShardRouter::cluster_stats`], this is strict: an unreachable
    /// shard fails the call with its typed error, because a silent
    /// partial sum reads as "the fleet did less work than it did".
    fn stats(&self) -> Result<ServiceStats, ServiceError> {
        let mut out = ServiceStats::default();
        for shard in &self.shards {
            self.check_up(shard)?;
            let s = self.observe(shard, shard.svc.stats())?;
            add_cache(&mut out.cache, &s.cache);
            if let Some(p) = &s.persist {
                add_persist(out.persist.get_or_insert_with(PersistStats::default), p);
            }
            out.live_sessions += s.live_sessions;
        }
        Ok(out)
    }

    /// Fleet-merged diagnostics over every shard: histograms folded by
    /// metric name, counters summed, and flight events concatenated in
    /// slot order with their session ids re-namespaced into the
    /// router's id space (`u64::MAX` — unowned work — passes through
    /// untouched). Strict, like [`SearchService::stats`]: an
    /// unreachable shard fails the call with its typed error, because a
    /// silent partial merge reads as "the fleet's p99 is lower than it
    /// is". Use [`ShardRouter::fleet_diagnostics`] for the
    /// degraded-tolerant per-shard form.
    fn diagnostics(&self) -> Result<Diagnostics, ServiceError> {
        let mut hists = BTreeMap::new();
        let mut counters = BTreeMap::new();
        let mut events = Vec::new();
        for (slot, shard) in self.shards.iter().enumerate() {
            self.check_up(shard)?;
            let diag = self.observe(shard, shard.svc.diagnostics())?;
            merge_diagnostics(&mut hists, &mut counters, &diag);
            for mut event in diag.events {
                if event.session != NO_SESSION {
                    event.session = global_session(slot, SessionId(event.session))
                        .map_err(|e| foreign_id(shard, e))?
                        .0;
                }
                events.push(event);
            }
        }
        Ok(Diagnostics {
            histograms: hists.into_iter().collect(),
            counters: counters.into_iter().collect(),
            events,
        })
    }

    /// Fetch one trace from the shard that owns it. Trace ids derive
    /// bijectively from session ids, so the router recovers the
    /// namespaced session behind `trace`, routes to the owning slot,
    /// and asks that shard for the *shard-local* trace id. Returned
    /// spans are re-namespaced on the way out — session ids into the
    /// router's id space and trace ids back to the one requested — so
    /// the caller sees one coherent tree under the ids it holds. A
    /// trace whose slot does not exist returns empty, matching the
    /// "unknown trace" contract everywhere else.
    fn collect_trace(&self, trace: TraceId) -> Result<Vec<SpanRecord>, ServiceError> {
        let global = SessionId(trace.session());
        let (slot, local) = split_session(global);
        let Some(shard) = self.shards.get(slot) else {
            return Ok(Vec::new());
        };
        self.check_up(shard)?;
        let local_trace = TraceId::from_session(local.0);
        let spans = self.observe(shard, shard.svc.collect_trace(local_trace))?;
        spans
            .into_iter()
            .map(|mut span| {
                span.trace = trace;
                if span.session != NO_SESSION {
                    span.session = global_session(slot, SessionId(span.session))
                        .map_err(|e| foreign_id(shard, e))?
                        .0;
                }
                Ok(span)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_namespacing_round_trips() {
        for slot in [0usize, 1, 7, 255] {
            let r = global_repo(slot, RepoId(12345)).unwrap();
            assert_eq!(split_repo(r), (slot, RepoId(12345)));
            let s = global_session(slot, SessionId(1 << 40)).unwrap();
            assert_eq!(split_session(s), (slot, SessionId(1 << 40)));
        }
        // Slot 0 ids coincide with the shard-local ids (no offset).
        assert_eq!(global_repo(0, RepoId(3)), Ok(RepoId(3)));
        assert_eq!(global_session(0, SessionId(9)), Ok(SessionId(9)));
    }

    #[test]
    fn id_namespacing_rejects_out_of_range_values_at_the_boundary() {
        // Regression: these used to OR the local id straight into the
        // slot field, so a local id one past the boundary silently
        // corrupted the slot and routed to the wrong shard.
        assert!(global_repo(0, RepoId((1 << 24) - 1)).is_ok());
        assert_eq!(
            global_repo(0, RepoId(1 << 24)),
            Err(IdOverflow {
                kind: IdKind::Repo,
                slot: 0,
                local: 1 << 24,
            })
        );
        assert!(global_repo(255, RepoId(0)).is_ok());
        assert_eq!(
            global_repo(256, RepoId(0)),
            Err(IdOverflow {
                kind: IdKind::Repo,
                slot: 256,
                local: 0,
            })
        );
        assert!(global_session(0, SessionId((1 << 48) - 1)).is_ok());
        assert_eq!(
            global_session(0, SessionId(1 << 48)),
            Err(IdOverflow {
                kind: IdKind::Session,
                slot: 0,
                local: 1 << 48,
            })
        );
        assert!(global_session(65_535, SessionId(0)).is_ok());
        assert_eq!(
            global_session(65_536, SessionId(0)),
            Err(IdOverflow {
                kind: IdKind::Session,
                slot: 65_536,
                local: 0,
            })
        );
        // What the old OR-merge under slot 0 would have produced for
        // local id 2^24: an id that routes to slot 1 — another shard.
        let aliased = RepoId(1 << 24);
        assert_eq!(split_repo(aliased).0, 1, "the silent corruption");
        // The error formats with enough context to debug a misbehaving
        // backend.
        let msg = global_session(0, SessionId(u64::MAX))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("session id"), "{msg}");
        assert!(msg.contains("slot 0"), "{msg}");
    }

    #[test]
    fn cluster_stats_sums_are_empty_by_default() {
        let stats = ClusterStats::default();
        assert_eq!(stats.shards_down(), 0);
        assert_eq!(stats.cache, CacheStats::default());
        assert!(stats.persist.is_none());
    }
}
