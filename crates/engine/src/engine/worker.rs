//! Stepping. [`Worker::quantum`] is the engine's only stepping code —
//! *lease → step → publish or finalize → release* — called in a loop by
//! each worker thread ([`Worker::run`]) and once per
//! [`Engine::run_quantum`](super::Engine::run_quantum).
//!
//! A session's [`SessionCore`] is in exactly one place at a time: parked
//! in `EngineState::parked` between quanta, or owned by the [`Lease`] of
//! whoever steps it. Within a quantum each detector batch (§III-F) is one
//! [`Batch`] handed through [`Worker::draw_reserve`] → [`Worker::detect`]
//! → [`Worker::record`], every drawn frame carrying its own
//! [`FrameState`]: whose job a frame is, is data.
//!
//! A quantum settles its books once. What it measured is noted in the
//! worker's own [`Notes`] and what it paid the detector for in the
//! worker's own fill list; both are handed over when the quantum ends —
//! the fills to the detection log under one lock hold, the notes to
//! [`EngineObs::flush`](crate::obs::EngineObs::flush) — before anyone
//! hears of the quantum. Two workers stepping at once meet on no shared
//! histogram, ring slot, collector or log lock per frame.

use super::{lock_state, reap_expired, EngineState, RepoData, Shared, StateGuard};
use crate::cache::{CachedDetections, Lookup, MissGuard, PendingWait};
use crate::obs::Notes;
use crate::session::{
    DiscriminatorKind, Finished, Quantum, QuerySpec, RepoId, ResultEvent, SessionCell, SessionId,
    SessionStatus, TenantId, Watch,
};
use exsample_core::belief::ChunkStats;
use exsample_core::driver::{SearchStepper, SearchTrace};
use exsample_core::exsample::ExSample;
use exsample_core::policy::Feedback;
use exsample_detect::{
    dispatch_batch, Detection, Discriminator, OracleDiscriminator, TrackerDiscriminator,
};
use exsample_obs::Stage;
use exsample_stats::Rng64;
use exsample_store::{DecodeStats, GopWalk};
use exsample_videosim::{ClassId, InstanceId};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A running session's private state.
pub(super) struct SessionCore {
    repo_id: RepoId,
    repo: Arc<RepoData>,
    class: ClassId,
    policy: ExSample,
    rng: Rng64,
    stepper: SearchStepper,
    pub(super) discrim: Box<dyn Discriminator + Send>,
    /// Where this session's reads stand in the repository's GOP
    /// structure: what the next miss's decode costs.
    walk: GopWalk,
    /// What the quantum in flight produced, until it is published. It
    /// stays in the core while the session is stepped, so a quantum cut
    /// short by a panic still publishes what it had recorded.
    quantum: Quantum,
    /// Effective detector batch size (spec override or engine default).
    batch: usize,
    cell: Arc<SessionCell>,
    /// Owning tenant when the session came through an authenticated
    /// serving layer (`Engine::submit_tagged`).
    tenant: Option<TenantId>,
    /// Whether the session's trace still takes spans: it stops at its
    /// cap, and from then on the quantum's notes reach only histograms
    /// and ring.
    traced: bool,
}

impl SessionCore {
    /// The core of a freshly submitted session; `policy` is its sampler,
    /// warm-started already if it is going to be.
    pub(super) fn new(
        spec: &QuerySpec,
        repo: Arc<RepoData>,
        policy: ExSample,
        batch: u32,
        gop_size: u32,
        cell: Arc<SessionCell>,
        tenant: Option<TenantId>,
    ) -> Box<Self> {
        let discrim: Box<dyn Discriminator + Send> = match spec.discriminator {
            DiscriminatorKind::Oracle => Box::new(OracleDiscriminator::new()),
            DiscriminatorKind::Tracker { seed } => {
                Box::new(TrackerDiscriminator::new(repo.gt.clone(), seed))
            }
        };
        Box::new(SessionCore {
            walk: GopWalk::new(gop_size, repo.gt.frames),
            repo_id: spec.repo,
            class: spec.class,
            policy,
            rng: Rng64::new(spec.seed),
            stepper: SearchStepper::new(spec.stop, 0.0),
            discrim,
            repo,
            quantum: Quantum::default(),
            batch: batch.max(1) as usize,
            cell,
            tenant,
            traced: true,
        })
    }
}

/// A checked-out session. Whoever holds the lease *owns* the core, until
/// [`EngineState::checkin`] or [`Worker::finalize`]: there is no "leased"
/// flag to keep in step with where the core is.
struct Lease {
    id: SessionId,
    core: Box<SessionCore>,
}

impl EngineState {
    /// Admit a new session: runnable from now on, at `weight`.
    pub(super) fn admit(&mut self, id: SessionId, weight: u32, core: Box<SessionCore>) {
        self.scheduler.register(id, weight);
        self.parked.insert(id, core);
    }

    /// Lease the runnable session with the smallest virtual time. The
    /// scheduler's runnable entries and `parked`'s keys are one set (these
    /// three methods are the only writers of either), so a scheduled id
    /// finds its core.
    fn checkout(&mut self) -> Option<Lease> {
        let id = self.scheduler.lease_next()?;
        let core = self.parked.remove(&id)?;
        Some(Lease { id, core })
    }

    /// Return a lease: the session is runnable again, `charge_s` older.
    fn checkin(&mut self, lease: Lease, charge_s: f64) {
        self.scheduler.release(lease.id, charge_s);
        self.parked.insert(lease.id, lease.core);
    }
}

/// One drawn frame's detections, and what obtaining them cost.
struct Resolved {
    dets: CachedDetections,
    /// `Some` when this session ran the detector for the frame (a cache
    /// miss); `None` when the detections were free — resident, filled by
    /// another session, or read back from the container.
    paid: Option<Paid>,
}

struct Paid {
    /// io/decode seconds the frame cost.
    io_s: f64,
    /// First miss of its dispatch: recording it also bills one
    /// `CostModel::dispatch_s`.
    dispatch: bool,
}

/// Where one drawn frame's detections stand.
enum FrameState<'c> {
    Ready(Resolved),
    /// Reserved by this session: ours to compute, in *detect*.
    Mine(MissGuard<'c>),
    /// In flight in another session: waited for in *record*.
    Theirs(PendingWait),
}

impl<'c> From<Lookup<'c>> for FrameState<'c> {
    fn from(lookup: Lookup<'c>) -> Self {
        match lookup {
            Lookup::Hit(dets) => FrameState::Ready(Resolved { dets, paid: None }),
            Lookup::Miss(guard) => FrameState::Mine(guard),
            Lookup::Pending(wait) => FrameState::Theirs(wait),
        }
    }
}

/// A batch's frames in draw order, each with its state.
type Frames<'c> = VecDeque<(u64, FrameState<'c>)>;

/// One detector batch on its way through the three phases.
struct Batch<'c> {
    frames: Frames<'c>,
    /// When it was drawn: its assembly lasts until every frame's
    /// detections are in hand. `None` with recording off.
    drawn_at: Option<Instant>,
}

/// Pass every frame's state through `f` — in order, in place, and by
/// value, because redeeming a reservation or a wait consumes it.
fn rotate<'c>(frames: &mut Frames<'c>, mut f: impl FnMut(u64, FrameState<'c>) -> FrameState<'c>) {
    for _ in 0..frames.len() {
        if let Some((frame, state)) = frames.pop_front() {
            frames.push_back((frame, f(frame, state)));
        }
    }
}

/// What steps sessions: a worker thread for its lifetime, or one
/// `Engine::run_quantum` call. Everything but `shared` is scratch,
/// cleared (never shrunk) between uses.
pub(super) struct Worker<'a> {
    shared: &'a Shared,
    /// Watchers a publish moved out of a cell, fired once its lock drops.
    woken: Vec<Watch>,
    /// The sampler's draws, and the buffer behind [`Batch::frames`].
    drawn: Vec<u64>,
    frames: Frames<'a>,
    /// The frames of one dispatch, and the io seconds each cost.
    miss_frames: Vec<u64>,
    miss_io: Vec<f64>,
    /// Visible-instance scratch for detection runs.
    gt_scratch: Vec<InstanceId>,
    /// The query-class slice of one frame's detections.
    class_dets: Vec<Detection>,
    /// This quantum's occurrences, for [`EngineObs::flush`](crate::obs::EngineObs::flush).
    notes: Notes,
    /// This quantum's paid fills, for the detection log (persistent
    /// engines only): every frame it ran the detector on, once.
    fills: Vec<(u64, CachedDetections)>,
}

impl<'a> Worker<'a> {
    pub(super) fn new(shared: &'a Shared) -> Self {
        Worker {
            shared,
            woken: Vec::new(),
            drawn: Vec::new(),
            frames: Frames::new(),
            miss_frames: Vec::new(),
            miss_io: Vec::new(),
            gt_scratch: Vec::new(),
            class_dets: Vec::new(),
            notes: Notes::default(),
            fills: Vec::new(),
        }
    }

    /// A worker thread's life: quantum after quantum until the engine
    /// stops, parked on `work_cv` while nothing is runnable.
    pub(super) fn run(&mut self) {
        let shared = self.shared;
        let mut state = lock_state(shared);
        while !shared.stop.load(Ordering::Relaxed) {
            let (held, ran) = self.quantum(state);
            state = held;
            if !ran {
                state.idle_workers += 1;
                state = shared.work_cv.wait(state).expect("engine state poisoned");
                state.idle_workers -= 1;
            }
        }
    }

    /// One quantum; `false` when no session is runnable. The state lock
    /// comes in held and goes out held, so a worker thread moves from one
    /// quantum's release to the next lease under a single hold.
    ///
    /// A panic while stepping (a discriminator bug, torn storage) must
    /// not strand the session with its lease: it is finalized as
    /// [`SessionStatus::Cancelled`] with what it had recorded — waiters
    /// wake, the tenant's quota slot returns — and the flight recorder is
    /// dumped (the last few thousand structured events are exactly the
    /// context a post-mortem needs) before the panic proceeds. The torn
    /// quantum's books are settled first, so its fills are logged and
    /// its events are in that dump.
    pub(super) fn quantum(&mut self, mut state: StateGuard<'a>) -> (StateGuard<'a>, bool) {
        let obs = &self.shared.obs;
        let Some(mut lease) = state.checkout() else {
            return (state, false);
        };
        drop(state);
        // The lease span covers the session checkout: everything between
        // taking the core and being ready to release the lease.
        let lease_t0 = obs.start();
        let stepped = catch_unwind(AssertUnwindSafe(|| self.step(&mut lease)));
        if let Err(panic) = stepped {
            self.settle_books(&mut lease);
            drop(self.finalize(lease, SessionStatus::Cancelled));
            eprintln!(
                "exsample-engine: worker panicked; {}",
                obs.flight().render()
            );
            resume_unwind(panic);
        }
        if lease_t0.is_some() {
            let frames = lease.core.quantum.delta.frames;
            self.notes.note(Stage::Lease, lease_t0, frames);
            obs.frames_total.add(frames);
        }
        self.settle_books(&mut lease);
        let state = match lease.core.quantum.ended {
            None => self.publish(lease),
            Some(status) => self.finalize(lease, status),
        };
        (state, true)
    }

    /// Hand over what the quantum kept to itself: its paid fills to the
    /// detection log, its notes to histograms, ring and trace. Runs
    /// before anything else learns of the quantum.
    fn settle_books(&mut self, lease: &mut Lease) {
        let (shared, core) = (self.shared, &mut *lease.core);
        if let Some(persist) = &shared.persist {
            persist.append(core.repo_id, &mut self.fills, &shared.obs);
        }
        core.traced = shared.obs.flush(lease.id.0, core.traced, &mut self.notes);
    }

    /// The common end of a quantum: its events and ledger go into the
    /// session's cell without the state lock, only this session's waiters
    /// hear of it, and the lease is returned.
    fn publish(&mut self, lease: Lease) -> StateGuard<'a> {
        let (shared, core) = (self.shared, &lease.core);
        let (found, samples) = (core.stepper.found(), core.stepper.samples());
        let mut progress = core.cell.progress.lock().expect("session cell poisoned");
        progress.publish(&core.quantum, found, samples, None, &mut self.woken);
        drop(progress);
        self.woken.drain(..).for_each(Watch::fire);
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
        let mut state = lock_state(shared);
        state.checkin(lease, charge_s);
        // The session is runnable again; a parked worker may want it.
        if state.idle_workers > 0 {
            shared.work_cv.notify_one();
        }
        state
    }

    /// Finalization. Everything but what the report needs is freed
    /// first, with no lock held. Then the engine's books close — the
    /// scheduler entry, the tenant's quota slot, the in-memory belief
    /// snapshot — and the cell publishes the final report *under the same
    /// hold of the state lock*: whoever `wait` wakes finds all of it in
    /// place, and a worker thread goes on to its next lease (or parks)
    /// without letting go of the lock in between. Re-taking it would race
    /// the woken client's next `submit` once per session.
    fn finalize(&mut self, lease: Lease, status: SessionStatus) -> StateGuard<'a> {
        let (shared, id) = (self.shared, lease.id);
        let Retired {
            cell,
            tenant,
            quantum,
            trace,
            chunk_stats,
            belief_key,
        } = retire(lease.core);
        let (found, samples) = (trace.found(), trace.samples());
        let mut state = lock_state(shared);
        state.scheduler.deactivate(id);
        let finish_order = state.finished_sessions;
        state.finished_sessions += 1;
        // Release the tenant's quota slot the moment the session stops
        // running — not at forget/reap, which can be much later (or
        // never) and would wedge the tenant's admission.
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
            let tenant = tenant.map_or(0, |t| t.0).to_string();
            shared.obs.sessions_active.with(&tenant).sub(1);
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
        let finished = Finished {
            trace,
            chunk_stats,
            finish_order,
        };
        let mut progress = cell.progress.lock().expect("session cell poisoned");
        let done = Some((status, finished));
        progress.publish(&quantum, found, samples, done, &mut self.woken);
        drop(progress);
        self.woken.drain(..).for_each(Watch::fire);
        // The table's reference is the last one again, so a `forget`
        // moves the report out instead of copying it.
        drop(cell);
        if let Some(persist) = snapshot {
            drop(state);
            {
                let mut span = shared.obs.span(Stage::BeliefSnapshot, id.0);
                span.set_key(belief_key.2 as u64);
                persist
                    .beliefs
                    .lock()
                    .expect("belief store poisoned")
                    .persist_key(belief_key);
            }
            state = lock_state(shared);
        }
        state
    }

    /// Step the leased session for up to `quantum` frames, in detector
    /// batches of the session's batch size (§III-F): per batch, *draw +
    /// reserve*, *detect*, *record + publish*, back to back. Runs without
    /// the state lock; touches only the session's own core plus the
    /// shared cache, so a session's frame sequence and results are a pure
    /// function of its spec and batch size, independent of interleavings
    /// and of the hit/miss partition. With `batch = 1` the stepping,
    /// charging, and RNG consumption are bit-identical to per-frame
    /// execution.
    fn step(&mut self, lease: &mut Lease) {
        let out = &mut lease.core.quantum;
        out.events.clear();
        out.delta = Default::default();
        out.ended = None;
        let quantum = self.shared.config.quantum as usize;
        let mut stepped = 0usize;
        while stepped < quantum && lease.core.quantum.ended.is_none() {
            if lease.core.cell.cancel.load(Ordering::Relaxed) {
                lease.core.quantum.ended = Some(SessionStatus::Cancelled);
                break;
            }
            let want = lease.core.batch.min(quantum - stepped);
            let Some(mut batch) = self.draw_reserve(lease, want) else {
                lease.core.quantum.ended = Some(SessionStatus::Done);
                break;
            };
            self.detect(lease, &mut batch.frames);
            stepped += self.record(lease, batch);
        }
    }

    /// *Draw + reserve.* Up to `want` frames from the sampler with no
    /// intermediate feedback, then one `FrameCache::begin` per frame:
    /// hits are in hand at once, misses become this session's
    /// reservations, keys other sessions are computing become waits.
    /// `None` when the sampler has run dry.
    fn draw_reserve(&mut self, lease: &mut Lease, want: usize) -> Option<Batch<'a>> {
        let (shared, core) = (self.shared, &mut *lease.core);
        core.stepper
            .next_batch(&mut core.policy, &mut core.rng, want, &mut self.drawn);
        if self.drawn.is_empty() {
            return None;
        }
        let drawn_at = shared.obs.start();
        let mut frames = std::mem::take(&mut self.frames);
        let begin = |&frame| (frame, shared.cache.begin((core.repo_id, frame)).into());
        frames.extend(self.drawn.iter().map(begin));
        Some(Batch { frames, drawn_at })
    }

    /// *Detect.* Redeem every reservation among `frames`, with **no cache
    /// shard lock held** — detection never serializes unrelated sessions
    /// on a shard — and without touching sampler or stepper: the seam a
    /// fleet-level dispatch queue would cut at.
    ///
    /// **Container first** (lazy warm start): before paying any detector
    /// time, let the mapped columnar container answer. Only the touched
    /// chunks' columns are decoded (and only once per chunk, cached); a
    /// served frame is a warm hit — no miss, no io bill, nothing logged.
    ///
    /// **Then one dispatch** for every reservation left: price each
    /// frame's decode on the session's own [`GopWalk`], detect
    /// back-to-back, publish, and keep each fill for the log.
    /// The first miss carries the dispatch-overhead bill. The dispatch
    /// note covers all of it; its key is the miss count, so summing
    /// dispatch-event keys reproduces the engine's detector-invocation
    /// total.
    fn detect(&mut self, lease: &mut Lease, frames: &mut Frames<'a>) {
        if !frames.iter().any(|f| matches!(f.1, FrameState::Mine(_))) {
            return;
        }
        let (shared, core) = (self.shared, &mut *lease.core);
        let warm = |frame| shared.persist.as_ref()?.warm(core.repo_id, frame);
        let miss_frames = &mut self.miss_frames;
        miss_frames.clear();
        rotate(frames, |frame, state| match state {
            FrameState::Mine(guard) => match warm(frame) {
                Some(dets) => FrameState::Ready(Resolved {
                    dets: guard.fill_warm(dets),
                    paid: None,
                }),
                None => {
                    miss_frames.push(frame);
                    FrameState::Mine(guard)
                }
            },
            other => other,
        });
        if miss_frames.is_empty() {
            return;
        }
        let dispatched_at = shared.obs.start();
        self.miss_io.clear();
        for &frame in miss_frames.iter() {
            let mut io = DecodeStats::new();
            // The sampler draws below `gt.frames`, the walk's frame count,
            // so the walk refuses nothing — and a refused read is free.
            let _ = core.walk.read(frame, &mut io);
            self.miss_io.push(shared.config.cost_model.seconds(&io));
        }
        let banks = dispatch_batch(&core.repo.detectors, miss_frames, &mut self.gt_scratch);
        // The reservations left are `miss_frames`, in the same (draw)
        // order. Were the detector ever to return fewer banks than it was
        // given frames, the tail stays reserved and `settle` redeems it.
        let mut paid = banks.into_iter().zip(&self.miss_io);
        let mut dispatch = true;
        let mut fills = shared.persist.is_some().then_some(&mut self.fills);
        rotate(frames, |frame, state| match state {
            FrameState::Mine(guard) => match paid.next() {
                Some((dets, &io_s)) => {
                    let dets = guard.fill(dets);
                    if let Some(fills) = fills.as_deref_mut() {
                        fills.push((frame, dets.clone()));
                    }
                    FrameState::Ready(Resolved {
                        dets,
                        paid: Some(Paid {
                            io_s,
                            dispatch: std::mem::take(&mut dispatch),
                        }),
                    })
                }
                None => FrameState::Mine(guard),
            },
            other => other,
        });
        let dispatched = miss_frames.len() as u64;
        self.notes.note(Stage::Dispatch, dispatched_at, dispatched);
    }

    /// *Record + publish.* Wait for the frames other sessions have in
    /// flight — strictly *after* our own fills, so two sessions batching
    /// overlapping frames can never deadlock on each other — then replay
    /// discriminator feedback **in draw order**, charging the session and
    /// logging result events into its quantum (published to the cell when
    /// the quantum ends). Returns the number of frames recorded.
    ///
    /// When the stop condition fires mid-batch, the remaining drawn
    /// frames are discarded unrecorded — the speculative tail real
    /// batched inference wastes. Their detections stay in the shared
    /// cache (later sessions hit them for free) but are *not* billed to
    /// this session's ledger: the clock stops where the search stopped.
    fn record(&mut self, lease: &mut Lease, batch: Batch<'a>) -> usize {
        let Batch {
            mut frames,
            drawn_at,
        } = batch;
        if frames.iter().any(|f| !matches!(f.1, FrameState::Ready(_))) {
            rotate(&mut frames, |frame, state| {
                FrameState::Ready(self.settle(lease, frame, state))
            });
        }
        let drawn = frames.len() as u64;
        self.notes.note(Stage::BatchAssembly, drawn_at, drawn);
        let detect_frame_s = 1.0 / self.shared.config.detector_fps;
        let dispatch_s = self.shared.config.cost_model.dispatch_s;
        let mut recorded = 0usize;
        while let Some((frame, state)) = frames.pop_front() {
            let r = self.settle(lease, frame, state);
            let core = &mut *lease.core;
            self.class_dets.clear();
            let ours = r.dets.iter().filter(|d| d.class == core.class);
            self.class_dets.extend(ours.cloned());
            let obs = core.discrim.observe(frame, &self.class_dets);
            let fb = Feedback::new(obs.new_results, obs.matched_once);

            let out = &mut core.quantum;
            out.delta.frames += 1;
            let frame_cost = if let Some(paid) = r.paid {
                out.delta.detector_invocations += 1;
                out.delta.detect_s += detect_frame_s;
                out.delta.io_s += paid.io_s;
                let mut cost = detect_frame_s + paid.io_s;
                if paid.dispatch {
                    out.delta.dispatches += 1;
                    out.delta.dispatch_s += dispatch_s;
                    cost += dispatch_s;
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
            recorded += 1;
            if done {
                out.ended = Some(SessionStatus::Done);
                break;
            }
        }
        // A stop mid-batch leaves the unrecorded tail resolved; let go of
        // its cached detections rather than pinning them until the next
        // batch.
        frames.clear();
        self.frames = frames;
        recorded
    }

    /// Whatever state `frame` is in, end with its detections in hand.
    /// `Ready` just unwraps. A frame in flight elsewhere parks on the
    /// computing session; should that session abandon the entry (it
    /// panicked), the cache is asked again, and a key that has become
    /// ours is redeemed like any reservation — a batch of one. The wait
    /// note covers the key's whole resolution; its key is the frame
    /// index waited on.
    fn settle(&mut self, lease: &mut Lease, frame: u64, mut state: FrameState<'a>) -> Resolved {
        let shared = self.shared;
        let waited_at = match state {
            FrameState::Theirs(_) => shared.obs.start(),
            _ => None,
        };
        let key = (lease.core.repo_id, frame);
        let again = || FrameState::from(shared.cache.begin(key));
        let resolved = loop {
            state = match state {
                FrameState::Ready(resolved) => break resolved,
                FrameState::Theirs(wait) => match wait.wait() {
                    Some(dets) => break Resolved { dets, paid: None },
                    None => again(),
                },
                FrameState::Mine(guard) => {
                    let mut alone = Frames::from([(frame, FrameState::Mine(guard))]);
                    self.detect(lease, &mut alone);
                    alone.pop_front().map_or_else(again, |f| f.1)
                }
            };
        };
        self.notes.note(Stage::CacheWait, waited_at, frame);
        resolved
    }
}

/// What finalization keeps of a session's core.
struct Retired {
    cell: Arc<SessionCell>,
    tenant: Option<TenantId>,
    /// The last quantum, still to be published.
    quantum: Quantum,
    trace: SearchTrace,
    chunk_stats: Vec<ChunkStats>,
    /// `(repo, class, chunks)`: where the belief snapshot is filed.
    belief_key: (u32, u16, u32),
}

/// Reduce a finished session's core to its [`Retired`] parts. The rest —
/// sampler, discriminator, GOP walk — is freed on return, which
/// the caller arranges to be before it takes any lock.
fn retire(core: Box<SessionCore>) -> Retired {
    let core = *core;
    Retired {
        chunk_stats: core.policy.chunk_stats().to_vec(),
        belief_key: (
            core.repo_id.0,
            core.class.0,
            core.policy.chunking().num_chunks() as u32,
        ),
        trace: core.stepper.finish(),
        cell: core.cell,
        tenant: core.tenant,
        quantum: core.quantum,
    }
}
