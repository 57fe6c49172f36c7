//! What an engine does before it serves a query: open the durable store
//! ([`PersistShared::open`]) and register repositories
//! ([`Engine::register_repo`]).

use super::{Engine, EngineState};
use crate::cache::FrameCache;
use crate::obs::EngineObs;
use crate::service::RepoInfo;
use crate::session::RepoId;
use exsample_colstore::{ColumnarStore, CompactionReport, OpenError};
use exsample_detect::{Detection, NoiseModel, SimulatedDetector};
use exsample_obs::{Stage, NO_SESSION};
use exsample_persist::{
    dataset_fingerprint, scan_detections, BeliefStore, DetectionLog, LoadStats, PersistConfig,
    RepoCatalog,
};
use exsample_videosim::GroundTruth;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
pub(super) struct PersistShared {
    log: Arc<Mutex<DetectionLog>>,
    pub(super) beliefs: Mutex<BeliefStore>,
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
    container_hits: AtomicU64,
}

/// Damaged *contents* are skipped and counted; a persist directory that
/// cannot be created or listed at all leaves nothing to degrade to.
fn usable<T>(opened: std::io::Result<T>) -> T {
    // lint: allow(panic_audit, an unusable persist directory at engine startup is fatal by design)
    opened.expect("persist directory unusable")
}

impl PersistShared {
    /// Bring the durable store up, before any worker runs: fold the
    /// previous life's log into the container, map the container, open
    /// beliefs, catalog and log, and hang the log behind `cache` as its
    /// write-behind sink.
    pub(super) fn open(pc: &PersistConfig, obs: &Arc<EngineObs>, cache: &mut FrameCache) -> Self {
        // Before the log writer exists: fold the sealed segments into
        // the container (compaction sweeps crashed leftovers itself),
        // then map whatever container is live. Every failure here is
        // absorbed — the log stays authoritative, the engine
        // recomputes, and the next clean start folds what this one
        // could not.
        let chunk_frames = pc.columnar.unwrap_or_default().chunk_frames;
        let folded = {
            let mut span = obs.span(Stage::Compaction, NO_SESSION);
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
        let beliefs = usable(BeliefStore::open(pc));
        let mut catalog = usable(RepoCatalog::open(&pc.dir));
        let log = usable(DetectionLog::open(pc));
        // One pass over the segments compaction left behind — foreign
        // ones, or everything when it failed. Nothing read here enters
        // the cache (the container is the only warm read path); the
        // pass exists for the id reservation below and the counters.
        let mut max_artifact_repo: Option<u32> = container.as_ref().and_then(|c| c.max_repo());
        let mut detections_load = usable(scan_detections(&pc.dir, pc.fingerprint, |rec| {
            max_artifact_repo = max_artifact_repo.max(Some(rec.repo));
        }));
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
            let mut span = wb_obs.span(Stage::WriteBehind, NO_SESSION);
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
            container_hits: AtomicU64::new(0),
        }
    }

    /// The mapped container's copy of `(repo, frame)`, if it holds one —
    /// counted as a container hit.
    pub(super) fn warm(&self, repo: RepoId, frame: u64) -> Option<Vec<Detection>> {
        let dets = self.container.as_ref()?.get(repo.0, frame)?;
        self.container_hits.fetch_add(1, Ordering::Relaxed);
        Some(dets)
    }

    /// The counters behind [`Engine::persist_stats`].
    pub(super) fn stats(&self) -> PersistStats {
        let beliefs = self.beliefs.lock().expect("belief store poisoned");
        let snapshots = beliefs.load_stats();
        let container = self.container.as_ref();
        PersistStats {
            segments_loaded: self.detections_load.segments_loaded,
            segments_skipped: self.detections_load.segments_skipped,
            records_loaded: self.detections_load.records_loaded,
            damaged_tails: self.detections_load.damaged_tails,
            snapshots_loaded: snapshots.segments_loaded,
            snapshots_skipped: snapshots.segments_skipped,
            beliefs_resident: beliefs.len() as u64,
            snapshot_write_errors: beliefs.write_errors(),
            log_write_errors: self
                .log
                .lock()
                .expect("detection log poisoned")
                .write_errors(),
            container_frames: container.map_or(0, |c| c.frames_indexed()),
            container_chunks: container.map_or(0, |c| c.group_count() as u64),
            container_hits: self.container_hits.load(Ordering::Relaxed),
            container_bytes_touched: container.map_or(0, |c| c.bytes_touched()),
            container_skipped: self.container_skipped,
        }
    }
}

/// A registered repository: ground truth and one deterministic per-class
/// detector bank. Nothing here grows with the frame count — a session
/// prices its reads with a [`GopWalk`](exsample_store::GopWalk) of its
/// own, which needs only `gt.frames` and the engine's `gop_size`.
pub(super) struct RepoData {
    pub(super) gt: Arc<GroundTruth>,
    pub(super) detectors: Vec<SimulatedDetector>,
}

/// A repository slot in the engine state: catalog entry + live data.
pub(super) struct RepoEntry {
    pub(super) info: RepoInfo,
    /// Detector parameters the repository was built with. Re-registering
    /// the same identity with different parameters is rejected loudly:
    /// silently serving the original detectors would be wrong detections.
    noise: NoiseModel,
    det_seed: u64,
    pub(super) data: Arc<RepoData>,
}

impl EngineState {
    /// The id and detector parameters of the repository registered under
    /// the identity `(name, fingerprint)`, if there is one. `RepoInfo`
    /// carries the identity, so the catalog is its own index.
    fn registered(&self, name: &str, fingerprint: u64) -> Option<(RepoId, (NoiseModel, u64))> {
        self.repos
            .values()
            .find(|e| e.info.name == name && e.info.dataset_fingerprint == fingerprint)
            .map(|e| (e.info.id, (e.noise, e.det_seed)))
    }
}

impl Engine {
    /// Register a repository under a caller-supplied `name`. Builds the
    /// per-class detector bank (the noise stream of class `c` is seeded by
    /// `det_seed + c`, so detection output is a pure function of
    /// `(repo, frame)`) and nothing else: no storage is written, and the
    /// cost is the same for an hour of footage as for a thousand. What a
    /// session's reads cost is the GOP container's structure alone —
    /// seeks and keyframe walks, priced by each session's own
    /// [`GopWalk`](exsample_store::GopWalk) over `gt.frames` at
    /// [`EngineConfig::gop_size`](super::EngineConfig::gop_size).
    ///
    /// # Identity
    ///
    /// The repository's identity is `(name, dataset fingerprint)` — not
    /// its registration order. Registering the same identity twice
    /// returns the same [`RepoId`] (the repository is *not* rebuilt), and
    /// with [`EngineConfig::persist`](super::EngineConfig::persist) set
    /// the assignment is durable: a restarted engine resolves the identity
    /// to the id its persisted detections and belief snapshots were
    /// written under, regardless of the order repositories are
    /// re-registered in. Footage that changes under the same name is a
    /// *new* identity and gets a fresh id, so stale persisted data can
    /// never be served for it. The catalog of registered repositories is
    /// browsable via [`Engine::repos`].
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
        // The mismatch assert must run *after* the state guard drops, or
        // the panic would poison the engine mutex and turn into a
        // double-panic abort when Drop tries to lock it during unwind.
        let same_detectors = |(id, existing): (RepoId, (NoiseModel, u64))| {
            assert!(
                existing == (noise, det_seed),
                "repository {name:?} is already registered with different detector parameters"
            );
            id
        };
        let known = {
            let state = self.lock_state();
            state.registered(name, fingerprint)
        };
        if let Some(known) = known {
            return same_detectors(known);
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
        let frames = gt.frames;
        let classes = gt.num_classes() as u16;
        let data = Arc::new(RepoData { gt, detectors });
        let mut state = self.lock_state();
        // Raced registration of the same identity: first writer wins, the
        // duplicate build is discarded.
        if let Some(known) = state.registered(name, fingerprint) {
            drop(state);
            return same_detectors(known);
        }
        // The durable file write happens *after* the state lock drops:
        // workers need this lock between every quantum, and an fsync must
        // never stall them (same discipline as belief snapshots). A crash
        // in the window loses only the assignment record, which the
        // startup `reserve_past` safety net already tolerates.
        let (id, unsaved) = match &self.shared.persist {
            Some(p) => {
                let mut catalog = p.catalog.lock().expect("repo catalog poisoned");
                let (id, fresh) = catalog.assign(name, fingerprint);
                (RepoId(id), fresh.then_some(p))
            }
            None => (RepoId(state.next_repo), None),
        };
        state.next_repo = state.next_repo.max(id.0.saturating_add(1));
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
                data,
            },
        );
        drop(state);
        if let Some(p) = unsaved {
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
}
