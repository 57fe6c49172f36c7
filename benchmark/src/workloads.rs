//! The four workloads: their shapes, the seed-generated inputs (dataset +
//! op list), and the closed-loop load generator that runs one repetition
//! of an op list against the public APIs.
//!
//! Fixed work, not fixed time: a repetition always runs the whole op list
//! on a fresh engine, so every count it produces must repeat exactly.

use crate::spans::{Span, SpanLog};
use crate::sys::{move_to_first_cpu, process_cpu_s};
use crate::transport::{Counting, IoCounts, IoSnapshot};
use exsample::core::driver::StopCond;
use exsample::core::{Chunking, ExSample};
use exsample::detect::{NoiseModel, SimulatedDetector};
use exsample::engine::{
    dataset_fingerprint, detector_fingerprint, CacheStats, ColumnarConfig, Engine, EngineConfig,
    PersistConfig, QuerySpec, RepoId, SearchService, SessionId, SessionReport, SessionStatus,
};
use exsample::proto::RemoteClient;
use exsample::serve::{Reactor, ServeConfig, ServeHandle, ServeStats};
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Seed of every repository's simulated detector bank.
pub const DET_SEED: u64 = 7;
/// Engine workers, set explicitly so a run never depends on
/// `EXSAMPLE_THREADS` or the core count of the box.
pub const WORKERS: usize = 2;
/// Records between fsyncs of the detection log. The store has to live
/// inside the checkout, on a real disk, where the default of 64 makes the
/// cold phase a measurement of this VM's fsync latency (about 2 ms, 2,900
/// times a repetition, swinging 2x between runs). One sync per sealed
/// 4096-record segment keeps the timing on the program's own CPU and
/// syscall cost; the fsync *count* is reported per layer instead.
pub const LOG_FLUSH_EVERY: usize = 4096;
/// The name every workload registers its repository under.
pub const REPO_NAME: &str = "bench";

/// How a workload's sessions reach the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Client threads call the `Engine` directly.
    InProcess,
    /// Clients are `RemoteClient`s on loopback TCP to a `Reactor`.
    Remote,
    /// In-process with the durable store on: a cold phase, then a restart
    /// phase on the directory the cold phase wrote.
    Persist,
}

/// Everything that defines a workload apart from the seed.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Repository: frames, instances, mean duration, share of the
    /// timeline holding 95 % of the instances.
    pub frames: u64,
    pub instances: usize,
    pub duration: f64,
    pub frac95: f64,
    pub realistic_noise: bool,
    /// Query: distinct results to find, sampler chunks, detector batch.
    pub target: u64,
    pub chunks: usize,
    pub batch: u32,
    pub cache_capacity: usize,
    /// Load generator: `drivers` client threads (or connections), each
    /// running `waves` waves of `wave_size` concurrent sessions, streaming
    /// results in batches of at most `window` events.
    pub drivers: usize,
    pub waves: usize,
    pub wave_size: usize,
    pub window: Option<u32>,
    pub cores: Cores,
}

/// Where a workload's threads run. The workloads with real parallelism
/// use what the scheduler gives them. The two whose threads hand work to
/// each other one message at a time are placed by hand, because left to
/// itself the scheduler of this 2-core VM measures two things that are not
/// the program: where it happens to wake a worker (on the caller's core,
/// the caller loses a time slice of 3-4 ms; on the other, it does not),
/// and what the *host* charges to wake a halted virtual CPU (50-600 us,
/// drifting by the minute).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    /// Every thread on every core the process may use.
    All,
    /// The whole process on one core: every hand-over between client,
    /// reactor and worker is a context switch, never a cross-core wake-up.
    One,
    /// The engine on one core and the client threads on another: the
    /// client never competes with the worker it is waiting for. Both cores
    /// are kept from halting (`sys::IdleSpinners`), since every result is
    /// handed across them.
    ClientsApart,
}

impl Shape {
    pub fn sessions(&self) -> usize {
        self.drivers * self.waves * self.wave_size
    }

    /// The same workload with every size divided by ten (repository,
    /// result target, waves of sessions): every code path, about a
    /// hundredth of the work. The numbers it prints mean nothing.
    pub fn smoke(mut self) -> Shape {
        self.frames /= 10;
        self.instances /= 10;
        self.target /= 10;
        self.waves = (self.waves / 10).max(1);
        self
    }
}

pub const ALL: &[Shape] = &[
    Shape {
        name: "solo_manychunk",
        why: "One analyst, rare skewed objects, 1024 chunks: the O(M) Thompson draw dominates and the working set outgrows the cache, so sampler work shows and engine/wire work is nearly absent.",
        kind: Kind::InProcess,
        frames: 4_000_000,
        instances: 2_000,
        duration: 150.0,
        frac95: 1.0 / 16.0,
        realistic_noise: false,
        target: 1_000,
        chunks: 1024,
        batch: 1,
        cache_capacity: 65_536,
        drivers: 1,
        waves: 24,
        wave_size: 1,
        window: None,
        cores: Cores::ClientsApart,
    },
    Shape {
        name: "fleet_overlap",
        why: "1280 overlapping batched queries on one repository that fits the cache: the engine state lock, scheduler, cache hit path and batched dispatch do the work; the sampler (16 chunks) does little.",
        kind: Kind::InProcess,
        frames: 200_000,
        instances: 400,
        duration: 120.0,
        frac95: 0.15,
        realistic_noise: false,
        target: 300,
        chunks: 16,
        batch: 16,
        cache_capacity: 1 << 20,
        drivers: 2,
        waves: 20,
        wave_size: 32,
        window: Some(64),
        cores: Cores::All,
    },
    Shape {
        name: "remote_stream",
        why: "Remote clients streaming small result batches over loopback TCP through the reactor: wire codec, frame reassembly, reactor turns and Ack round-trips dominate; must not move for a sampler change.",
        kind: Kind::Remote,
        frames: 200_000,
        instances: 2_000,
        duration: 120.0,
        frac95: 0.15,
        realistic_noise: false,
        target: 500,
        chunks: 16,
        batch: 1,
        cache_capacity: 1 << 20,
        drivers: 2,
        waves: 1_000,
        wave_size: 1,
        window: Some(8),
        cores: Cores::One,
    },
    Shape {
        name: "persist_cycle",
        why: "Durable store used both ways: write-behind appends on every miss (cold phase), then compaction, container open and lazy reads (restart phase); a saving on one side that costs the other shows here.",
        kind: Kind::Persist,
        frames: 4_000_000,
        instances: 8_000,
        duration: 100.0,
        frac95: 0.25,
        realistic_noise: true,
        target: 3_000,
        chunks: 64,
        batch: 1,
        cache_capacity: 1 << 20,
        drivers: 1,
        waves: 1,
        wave_size: 32,
        window: Some(64),
        cores: Cores::All,
    },
];

/// Look a workload up by name.
pub fn shape(name: &str) -> Option<Shape> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// SplitMix64: decorrelates the streams derived from one `--seed`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The inputs of one run: the workload's repository and the op list
/// generated from `--seed`. The program under test only ever sees `gt`
/// and the `QuerySpec`s.
pub struct Plan {
    pub shape: Shape,
    pub dataset: DatasetSpec,
    pub data_seed: u64,
    pub gt: Arc<GroundTruth>,
    pub noise: NoiseModel,
    pub specs: Vec<QuerySpec>,
}

impl Plan {
    /// The workload's repository: a dataset spec and its generator seed.
    ///
    /// The repository is a fixture of the workload, not a function of
    /// `--seed`: how hard a corpus is to search (how its few hundred
    /// instances happen to fall across the chunks) moved `frames_per_result`
    /// by 10 % from one generated corpus to the next, which would drown the
    /// run-to-run comparisons the benchmark exists for. `--seed` picks the
    /// queries asked of it.
    pub fn dataset(shape: &Shape) -> (DatasetSpec, u64) {
        let tag = shape
            .name
            .bytes()
            .fold(0u64, |h, b| h.rotate_left(8) ^ u64::from(b));
        let spec = DatasetSpec::single_class(
            shape.frames,
            ClassSpec::new(
                "object",
                shape.instances,
                shape.duration,
                SkewSpec::CentralNormal {
                    frac95: shape.frac95,
                },
            ),
        );
        (spec, mix(tag))
    }

    /// The op list `seed` maps to: one spec per session, differing only in
    /// the sampler seed. A fresh engine assigns the first repository
    /// registered `RepoId(0)`, which [`bring_up`] asserts.
    pub fn op_list(shape: &Shape, seed: u64) -> Vec<QuerySpec> {
        (0..shape.sessions() as u64)
            .map(|i| {
                QuerySpec::new(RepoId(0), ClassId(0), StopCond::results(shape.target))
                    .chunks(shape.chunks)
                    .batch(shape.batch)
                    .seed(mix(mix(seed).wrapping_add(i)))
                    .warm_start(false)
            })
            .collect()
    }

    /// The repository, and the op list `seed` maps to.
    pub fn generate(shape: Shape, seed: u64) -> Plan {
        let (dataset, data_seed) = Plan::dataset(&shape);
        let gt = Arc::new(dataset.generate(data_seed));
        Plan {
            shape,
            dataset,
            data_seed,
            gt,
            noise: if shape.realistic_noise {
                NoiseModel::realistic()
            } else {
                NoiseModel::none()
            },
            specs: Plan::op_list(&shape, seed),
        }
    }

    pub fn engine_config(&self, persist_dir: Option<&Path>) -> EngineConfig {
        EngineConfig {
            workers: WORKERS,
            cache_capacity: self.shape.cache_capacity,
            persist: persist_dir.map(|dir| {
                PersistConfig::new(dir)
                    .flush_every(LOG_FLUSH_EVERY)
                    .fingerprint(
                        detector_fingerprint(&self.noise, DET_SEED) ^ dataset_fingerprint(&self.gt),
                    )
                    .columnar(ColumnarConfig::new())
            }),
            ..EngineConfig::default()
        }
    }

    /// A fresh engine with the repository registered.
    pub fn bring_up(&self, persist_dir: Option<&Path>) -> Engine {
        let engine = Engine::new(self.engine_config(persist_dir));
        let repo = engine.register_repo(REPO_NAME, self.gt.clone(), self.noise, DET_SEED);
        assert_eq!(repo, RepoId(0), "op list assumes the first repository id");
        engine
    }

    /// The sampler the engine builds for `spec` at submit.
    pub fn sampler(&self, spec: &QuerySpec) -> ExSample {
        let frames = self.gt.frames;
        ExSample::new(
            Chunking::even(frames, spec.chunks.min(frames as usize)),
            spec.config,
        )
    }

    /// The detector the engine's bank holds for `class` (its noise stream
    /// is seeded `det_seed + class`).
    pub fn detector(&self, class: ClassId) -> SimulatedDetector {
        SimulatedDetector::new(
            self.gt.clone(),
            class,
            self.noise,
            DET_SEED.wrapping_add(u64::from(class.0)),
        )
    }

    /// The slice of the op list driver `d` runs.
    fn driver_specs(&self, d: usize) -> &[QuerySpec] {
        let per = self.shape.waves * self.shape.wave_size;
        &self.specs[d * per..(d + 1) * per]
    }
}

/// What the client saw of one session (one *operation*).
#[derive(Debug, Clone)]
pub struct SessionRec {
    /// The client called `submit`.
    pub submit: Instant,
    pub first_result: Option<Instant>,
    pub end: Instant,
    pub events: u64,
    /// `None` when any call of the session failed.
    pub report: Option<SessionReport>,
}

impl SessionRec {
    /// Done, with at least `target` results: anything else is a failed
    /// operation (and counts as missing every latency figure).
    pub fn ok(&self, target: u64) -> bool {
        self.report
            .as_ref()
            .is_some_and(|r| r.status == SessionStatus::Done && r.trace.found() >= target)
    }

    /// `submit` called → first non-empty result batch in the client's
    /// hands.
    pub fn first_result_ms(&self) -> Option<f64> {
        self.first_result
            .map(|t| t.duration_since(self.submit).as_secs_f64() * 1e3)
    }

    pub fn session_ms(&self) -> f64 {
        self.end.duration_since(self.submit).as_secs_f64() * 1e3
    }
}

/// Span recording is optional: the untraced run keeps only the three
/// timestamps a `SessionRec` needs.
struct Tracer(Option<SpanLog>);

impl Tracer {
    fn open(&mut self, session: u64, start: Instant) -> Option<usize> {
        self.0
            .as_mut()
            .map(|log| log.open("session", session, start))
    }

    fn call(
        &mut self,
        name: &'static str,
        root: Option<usize>,
        session: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(log) = self.0.as_mut() {
            log.push(name, root, session, start, end);
        }
    }

    fn close(&mut self, root: Option<usize>, end: Instant) {
        if let (Some(log), Some(root)) = (self.0.as_mut(), root) {
            log.close(root, end);
        }
    }
}

/// Run `specs` against an in-process engine in waves of `wave_size`
/// concurrent sessions: submit the wave, then drain each session with
/// `poll_wait` (batches of at most `window` events), `wait` for its
/// report and `forget` it.
fn drive_in_process(
    engine: &Engine,
    specs: &[QuerySpec],
    wave_size: usize,
    window: Option<u32>,
    mut tracer: Tracer,
) -> (Vec<SessionRec>, Vec<Span>) {
    let mut recs = Vec::with_capacity(specs.len());
    for wave in specs.chunks(wave_size) {
        let mut live = Vec::new();
        for spec in wave {
            let t0 = Instant::now();
            let id = engine.submit(spec.clone()).ok();
            let t1 = Instant::now();
            let sid = id.map_or(u64::MAX, |i| i.0);
            let root = tracer.open(sid, t0);
            tracer.call("submit", root, sid, t0, t1);
            live.push((id, root, t0));
        }
        for (id, root, submit) in live {
            let mut rec = SessionRec {
                submit,
                first_result: None,
                end: submit,
                events: 0,
                report: None,
            };
            if let Some(id) = id {
                rec.report = drain_in_process(engine, id, window, root, &mut rec, &mut tracer);
            }
            rec.end = Instant::now();
            tracer.close(root, rec.end);
            recs.push(rec);
        }
    }
    (recs, tracer.0.map_or_else(Vec::new, SpanLog::into_spans))
}

fn drain_in_process(
    engine: &Engine,
    id: SessionId,
    window: Option<u32>,
    root: Option<usize>,
    rec: &mut SessionRec,
    tracer: &mut Tracer,
) -> Option<SessionReport> {
    let mut cursor = 0;
    loop {
        let t0 = Instant::now();
        let snap = engine.poll_wait(id, cursor, window).ok()?;
        let t1 = Instant::now();
        tracer.call("batch", root, id.0, t0, t1);
        if !snap.events.is_empty() && rec.first_result.is_none() {
            rec.first_result = Some(t1);
        }
        rec.events += snap.events.len() as u64;
        cursor = snap.next_cursor;
        // A finished session whose batch came back short of the window
        // has nothing left to stream.
        let short = window.is_none_or(|w| (snap.events.len() as u32) < w);
        if snap.status != SessionStatus::Running && short {
            break;
        }
    }
    let t0 = Instant::now();
    engine.wait(id).ok()?;
    let t1 = Instant::now();
    tracer.call("wait", root, id.0, t0, t1);
    let report = engine.forget(id).ok()?;
    tracer.call("forget", root, id.0, t1, Instant::now());
    Some(report)
}

/// The client end of one benchmark connection.
pub type Client = RemoteClient<Counting<TcpStream>>;

/// Dial `addr`, count every read and write, and handshake.
pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<(Client, Arc<IoCounts>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let (io, counts) = Counting::new(stream);
    let client = RemoteClient::connect(io).map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok((client, counts))
}

/// A served engine on loopback: engine, reactor thread, and connected
/// clients. Dropping the handle stops the reactor and joins its thread.
pub struct RemoteRig {
    pub engine: Arc<Engine>,
    pub handle: ServeHandle,
    pub addr: std::net::SocketAddr,
    pub clients: Vec<(Client, Arc<IoCounts>)>,
}

impl RemoteRig {
    /// Fresh engine with the repository registered, one reactor bound to
    /// an ephemeral loopback port, `connections` clients handshaken.
    pub fn bring_up(plan: &Plan, connections: usize) -> RemoteRig {
        let engine = Arc::new(plan.bring_up(None));
        let mut reactor =
            Reactor::new(engine.clone(), ServeConfig::default()).expect("create reactor");
        let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind loopback");
        let handle = reactor.spawn().expect("spawn reactor");
        let clients = (0..connections)
            .map(|_| connect(addr).expect("connect to reactor"))
            .collect();
        RemoteRig {
            engine,
            handle,
            addr,
            clients,
        }
    }
}

/// Run `specs` one after another over one connection:
/// `submit` → `stream(window)` → `wait` → `forget`.
fn drive_remote(
    client: &Client,
    specs: &[QuerySpec],
    window: u32,
    mut tracer: Tracer,
) -> (Vec<SessionRec>, Vec<Span>) {
    let mut recs = Vec::with_capacity(specs.len());
    for spec in specs {
        let t0 = Instant::now();
        let id = client.submit(spec.clone()).ok();
        let t1 = Instant::now();
        let sid = id.map_or(u64::MAX, |i| i.0);
        let root = tracer.open(sid, t0);
        tracer.call("submit", root, sid, t0, t1);
        let mut rec = SessionRec {
            submit: t0,
            first_result: None,
            end: t0,
            events: 0,
            report: None,
        };
        if let Some(id) = id {
            rec.report = (|| {
                // Each pushed batch is timed from the previous one (or the
                // submit reply), so the batch spans tile the stream.
                let mut last = t1;
                client
                    .stream(id, 0, window, |snap| {
                        let now = Instant::now();
                        tracer.call("batch", root, id.0, last, now);
                        last = now;
                        if !snap.events.is_empty() && rec.first_result.is_none() {
                            rec.first_result = Some(now);
                        }
                        rec.events += snap.events.len() as u64;
                    })
                    .ok()?;
                let t0 = Instant::now();
                client.wait(id).ok()?;
                let t1 = Instant::now();
                tracer.call("wait", root, id.0, t0, t1);
                let report = client.forget(id).ok()?;
                tracer.call("forget", root, id.0, t1, Instant::now());
                Some(report)
            })();
        }
        rec.end = Instant::now();
        tracer.close(root, rec.end);
        recs.push(rec);
    }
    (recs, tracer.0.map_or_else(Vec::new, SpanLog::into_spans))
}

/// Run `specs` to completion on `engine` without recording anything
/// (the layer probes' cold and replay phases). Returns the frames the
/// sessions processed; panics if a session fails, since a probe that did
/// not do its work would report a meaningless time.
pub fn drive_probe(engine: &Engine, specs: &[QuerySpec], wave_size: usize) -> u64 {
    let (recs, _) = drive_in_process(engine, specs, wave_size, Some(64), Tracer(None));
    recs.iter()
        .map(|r| {
            r.report
                .as_ref()
                .expect("probe session completes")
                .charges
                .frames
        })
        .sum()
}

/// [`drive_probe`] over a connection; returns the events streamed.
pub fn drive_remote_probe(client: &Client, specs: &[QuerySpec], window: u32) -> u64 {
    let (recs, _) = drive_remote(client, specs, window, Tracer(None));
    assert!(
        recs.iter().all(|r| r.report.is_some()),
        "probe session completes"
    );
    recs.iter().map(|r| r.events).sum()
}

/// The counts of one repetition. Fixed work: these must come out
/// identical in every repetition of a run, which is itself a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub frames: u64,
    pub found: u64,
    pub events: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub detector_invocations: u64,
    /// `persist_cycle` only: what the restart phase did.
    pub restart_invocations: u64,
    pub container_hits: u64,
}

/// Everything measured in one repetition.
#[derive(Default)]
pub struct Rep {
    /// Wall and process-CPU seconds of the op list (the cold phase on
    /// `persist_cycle`).
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `persist_cycle`: `Engine::new` on the populated directory → last
    /// replayed session done. Elsewhere: fresh engine (and, remote,
    /// reactor + connections) → ready, which is what restarting an
    /// in-memory engine costs before it can serve.
    pub restart_s: f64,
    pub counts: Counts,
    /// Sum of per-session `charges.dispatches`: depends on which session
    /// a shared miss was billed to, so it is not part of [`Counts`].
    pub dispatches: u64,
    pub sessions: Vec<SessionRec>,
    /// `persist_cycle`: the restart phase's sessions.
    pub restart_sessions: Vec<SessionRec>,
    /// `remote_stream`: reactor counters and client-side wire counts.
    pub serve: Option<ServeStats>,
    pub io: IoSnapshot,
    pub spans: Vec<Span>,
}

fn tally(engine: &Engine, sessions: &[SessionRec]) -> (Counts, u64) {
    let cache: CacheStats = engine.cache_stats();
    let reports = || sessions.iter().filter_map(|s| s.report.as_ref());
    (
        Counts {
            frames: reports().map(|r| r.charges.frames).sum(),
            found: reports().map(|r| r.trace.found()).sum(),
            events: sessions.iter().map(|s| s.events).sum(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            detector_invocations: engine.detector_invocations(),
            restart_invocations: 0,
            container_hits: 0,
        },
        reports().map(|r| r.charges.dispatches).sum(),
    )
}

/// Run the op list once on threads, one per driver; returns wall and CPU
/// seconds of the op list plus what each driver recorded.
fn timed<R: Send>(
    shape: &Shape,
    run: impl Fn(usize) -> (Vec<SessionRec>, R) + Sync,
) -> (f64, f64, Vec<SessionRec>, Vec<R>) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let results: Vec<(Vec<SessionRec>, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.drivers)
            .map(|d| {
                let run = &run;
                scope.spawn(move || {
                    if shape.cores == Cores::ClientsApart {
                        move_to_first_cpu().expect("move the client thread to its own core");
                    }
                    run(d)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let mut sessions = Vec::new();
    let mut extra = Vec::new();
    for (recs, r) in results {
        sessions.extend(recs);
        extra.push(r);
    }
    (wall_s, cpu_s, sessions, extra)
}

/// Bring the serving side up as a restart would and time it. A 10 ms
/// bring-up timed once is mostly scheduler noise, so a cheap one is
/// repeated (up to five times, or 0.3 s in all) and the fastest reported
/// (interference only ever adds time); the last instance is the one the
/// repetition runs on.
fn timed_bring_up<T>(bring_up: impl Fn() -> T) -> (T, f64) {
    let mut seconds = Vec::new();
    loop {
        let t0 = Instant::now();
        let up = bring_up();
        seconds.push(t0.elapsed().as_secs_f64());
        if seconds.len() >= 5 || seconds.iter().sum::<f64>() >= 0.3 {
            return (up, seconds.iter().copied().fold(f64::INFINITY, f64::min));
        }
    }
}

/// One repetition of `plan`'s op list. `epoch` is `Some` on the traced
/// run (spans count from it). `work_dir` is where `persist_cycle` keeps
/// its store; it is created fresh and removed again.
pub fn run_rep(plan: &Plan, epoch: Option<Instant>, work_dir: &Path) -> Rep {
    let shape = &plan.shape;
    let tracer = |lane: usize| Tracer(epoch.map(|e| SpanLog::new(e, lane as u32)));
    let drive = |engine: &Engine, first_lane: usize| {
        timed(shape, |d| {
            drive_in_process(
                engine,
                plan.driver_specs(d),
                shape.wave_size,
                shape.window,
                tracer(first_lane + d),
            )
        })
    };
    match shape.kind {
        Kind::InProcess => {
            let (engine, restart_s) = timed_bring_up(|| plan.bring_up(None));
            let (wall_s, cpu_s, sessions, spans) = drive(&engine, 0);
            let (counts, dispatches) = tally(&engine, &sessions);
            Rep {
                wall_s,
                cpu_s,
                restart_s,
                counts,
                dispatches,
                sessions,
                spans: crate::spans::merge(spans),
                ..Rep::default()
            }
        }
        Kind::Remote => {
            let (rig, restart_s) = timed_bring_up(|| RemoteRig::bring_up(plan, shape.drivers));
            let RemoteRig {
                engine,
                handle,
                clients,
                ..
            } = rig;
            let window = shape.window.expect("remote workloads stream with a window");
            let (wall_s, cpu_s, sessions, spans) = timed(shape, |d| {
                drive_remote(&clients[d].0, plan.driver_specs(d), window, tracer(d))
            });
            let (counts, dispatches) = tally(&engine, &sessions);
            let io = clients
                .iter()
                .fold(IoSnapshot::default(), |sum, (_, c)| sum.plus(c.snapshot()));
            let serve = Some(handle.stats());
            drop(clients);
            handle.shutdown();
            Rep {
                wall_s,
                cpu_s,
                restart_s,
                counts,
                dispatches,
                sessions,
                serve,
                io,
                spans: crate::spans::merge(spans),
                ..Rep::default()
            }
        }
        Kind::Persist => {
            let dir = fresh_dir(work_dir);
            // Cold phase: every miss runs the detector and is appended to
            // the log behind the cache.
            let engine = plan.bring_up(Some(&dir));
            let (wall_s, cpu_s, sessions, mut spans) = drive(&engine, 0);
            let (mut counts, dispatches) = tally(&engine, &sessions);
            drop(engine);
            // Restart phase: compaction + container open inside
            // `Engine::new`, then the same queries served from storage.
            let t0 = Instant::now();
            let engine = plan.bring_up(Some(&dir));
            let (_, _, restart_sessions, restart_spans) = drive(&engine, shape.drivers);
            let restart_s = t0.elapsed().as_secs_f64();
            spans.extend(restart_spans);
            counts.restart_invocations = engine.detector_invocations();
            counts.container_hits = engine.persist_stats().map_or(0, |p| p.container_hits);
            drop(engine);
            let _ = std::fs::remove_dir_all(&dir);
            Rep {
                wall_s,
                cpu_s,
                restart_s,
                counts,
                dispatches,
                sessions,
                restart_sessions,
                spans: crate::spans::merge(spans),
                ..Rep::default()
            }
        }
    }
}

/// An empty directory `work_dir/store-<pid>`.
pub fn fresh_dir(work_dir: &Path) -> PathBuf {
    let dir = work_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the persist work directory");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_op_list_different_seed_different() {
        for shape in ALL {
            let a = Plan::op_list(shape, 12);
            assert_eq!(a, Plan::op_list(shape, 12), "{}", shape.name);
            assert_ne!(a, Plan::op_list(shape, 13), "{}", shape.name);
            assert_eq!(a.len(), shape.sessions());
            // No two sessions of a run share a sampler seed.
            let mut seeds: Vec<u64> = a.iter().map(|s| s.seed).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), a.len(), "{}", shape.name);
        }
        // Each workload has its own repository.
        assert_ne!(Plan::dataset(&ALL[1]).1, Plan::dataset(&ALL[2]).1);
    }

    #[test]
    fn same_seed_same_repository() {
        let mut shape = ALL[1];
        shape.frames = 20_000;
        shape.instances = 40;
        let (spec, seed) = Plan::dataset(&shape);
        assert_eq!(
            dataset_fingerprint(&spec.generate(seed)),
            dataset_fingerprint(&spec.generate(seed))
        );
    }

    #[test]
    fn smoke_shapes_keep_every_workload_but_shrink_it() {
        for shape in ALL {
            let small = shape.smoke();
            assert!(small.sessions() >= 1 && small.sessions() <= shape.sessions());
            assert_eq!(small.frames * 10, shape.frames);
            // Still findable: fewer results asked for than instances exist.
            assert!(small.target >= 1 && (small.target as usize) < small.instances);
        }
    }
}
