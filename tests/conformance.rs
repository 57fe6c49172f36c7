//! The `SearchService` contract, held once for every deployment shape.
//!
//! A session's trace is a function of its `QuerySpec` alone, wherever the
//! engine runs: in-process, behind the blocking pump, behind the reactor
//! on TCP or a Unix socket, as shards of a mixed fleet, or restarted onto
//! its own persist directory. Each `#[test]` builds one shape and runs
//! every case against it and against a fresh in-process reference engine
//! with the same registrations:
//!
//! * `traces`: six callers, each on its own client, get the reference's
//!   traces, and the shape's counters add up to the reference's bill;
//! * `cursor`: windowed chains, past-end polls and wire streams re-read
//!   the reference's event log;
//! * `errors`: typed errors carry the caller's own ids;
//! * `observed`: diagnostics, and one causal span tree per session;
//! * `catalog`: every repository is listed, and every listed id accepted.
//!
//! The reference is the same build, so a change that moves traces on
//! purpose moves both sides and the suite keeps passing.

use exsample::cluster::ShardService;
use exsample::core::driver::StopCond;
use exsample::detect::NoiseModel;
use exsample::engine::{
    CacheStats, Engine, EngineConfig, PersistConfig, QuerySpec, RepoId, RepoInfo, ResultEvent,
    SearchService, ServiceError, SessionId, SessionReport, SessionSnapshot, SessionStatus,
};
use exsample::obs::{validate_spans, SpanId, Stage, TraceId};
use exsample::proto::{duplex, RemoteClient, SearchServer};
use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
// The reactor is epoll-backed: its shapes, the fleet included, are unix-only.
#[cfg(unix)]
use exsample::{
    cluster::{split_session, ShardRouter},
    engine::dataset_fingerprint,
    serve::{Reactor, ServeConfig},
};

/// `RemoteClient::stream` from cursor 0 with window 3.
type Stream = Box<dyn Fn(SessionId, &mut dyn FnMut(&SessionSnapshot)) -> SessionSnapshot>;

/// One caller's handle on a shape: its own service and, on a wire shape,
/// the same connection's stream call.
struct Caller {
    svc: ShardService,
    stream: Option<Stream>,
}

fn wire<T: Read + Write + Send + 'static>(client: RemoteClient<T>) -> Caller {
    let client = Arc::new(client);
    let streamer = client.clone();
    let stream = move |id, on_batch: &mut dyn FnMut(&SessionSnapshot)| {
        streamer
            .stream(id, 0, 3, on_batch)
            .expect("stream completes")
    };
    Caller {
        svc: client,
        stream: Some(Box::new(stream)),
    }
}

/// A deployment shape under test.
struct Shape<'a> {
    /// A fresh caller: wire shapes dial a new connection each time.
    connect: Box<dyn Fn() -> Caller + 'a>,
    /// The one engine behind a wire shape, whose own readings the wire
    /// answers must equal.
    behind: Option<Arc<Engine>>,
    /// Whether a session's polls cross a wire, and so leave `Stage::Poll`
    /// spans in its tree.
    wired: fn(SessionId) -> bool,
    /// An earlier life on the same persist directory paid the `traces`
    /// case's detector bill; the container serves it.
    warm: bool,
}

/// Three repositories of distinct footage, `cam-0..2`.
fn fixture() -> Vec<(String, Arc<GroundTruth>)> {
    let class = ClassSpec::new("car", 60, 120.0, SkewSpec::CentralNormal { frac95: 0.2 });
    let truth =
        |i: u64| Arc::new(DatasetSpec::single_class(20_000, class.clone()).generate(17 + i));
    (0..3).map(|i| (format!("cam-{i}"), truth(i))).collect()
}

fn engine(persist: Option<&Path>) -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        persist: persist.map(PersistConfig::new),
        ..EngineConfig::default()
    }))
}

/// An engine owning all three repositories.
fn full_engine(persist: Option<&Path>) -> Arc<Engine> {
    let engine = engine(persist);
    for (name, gt) in fixture() {
        engine.register_repo(&name, gt, NoiseModel::none(), 5);
    }
    engine
}

/// A per-process path under the test target's scratch directory.
fn scratch(name: &str) -> PathBuf {
    let path =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

fn repo_id(svc: &dyn SearchService, name: &str) -> RepoId {
    let catalog = svc.repos().expect("catalog");
    let info = catalog.into_iter().find(|r| r.name == name);
    info.expect("registered").id
}

/// Query `q` of six: two per repository, batch 1 and batch 8, cold
/// beliefs so that a warm life replays the same draws.
fn spec(svc: &dyn SearchService, q: u64) -> QuerySpec {
    QuerySpec::new(
        repo_id(svc, &format!("cam-{}", q % 3)),
        ClassId(0),
        StopCond::results(25),
    )
    .chunks(8)
    .seed(1000 + q)
    .batch(if q.is_multiple_of(2) { 1 } else { 8 })
    .warm_start(false)
}

/// The deterministic coordinates of a trace; charged seconds depend on
/// the cache and the schedule.
fn curve(report: &SessionReport) -> Vec<(u64, u64)> {
    let points = report.trace.points();
    points.iter().map(|p| (p.samples, p.found)).collect()
}

/// The deterministic fields of an event log.
fn log(events: &[ResultEvent]) -> Vec<(u64, u32, u64)> {
    events
        .iter()
        .map(|e| (e.frame, e.new_results, e.samples))
        .collect()
}

fn local(engine: Arc<Engine>, warm: bool) -> Shape<'static> {
    Shape {
        connect: Box::new(move || Caller {
            svc: engine.clone(),
            stream: None,
        }),
        behind: None,
        wired: |_| false,
        warm,
    }
}

/// An engine behind one reactor; `listen` binds it and says how to dial.
#[cfg(unix)]
fn reactor(listen: impl FnOnce(&mut Reactor) -> Box<dyn Fn() -> Caller>) -> Shape<'static> {
    let engine = full_engine(None);
    let mut reactor = Reactor::new(engine.clone(), ServeConfig::default()).expect("poller");
    let dial = listen(&mut reactor);
    let serving = reactor.spawn().expect("spawn reactor");
    Shape {
        connect: Box::new(move || {
            let _serving = &serving;
            dial()
        }),
        behind: Some(engine),
        wired: |_| true,
        warm: false,
    }
}

/// Runs every case against `shape`; returns the `traces` case's session
/// ids in query order.
fn conform(shape: &Shape) -> Vec<SessionId> {
    let reference = full_engine(None);
    let ids = traces(shape, &reference);
    cursor(shape, &reference, &ids);
    errors(shape);
    observed(shape, &ids);
    catalog(shape, &reference);
    ids.into_iter().map(|(id, _)| id).collect()
}

/// Six specs from six threads, each on its own client: the reference's
/// traces, and counters that add up to the reference's detector bill.
fn traces(shape: &Shape, reference: &Engine) -> Vec<(SessionId, SessionId)> {
    let want: Vec<SessionId> = (0..6)
        .map(|q| reference.submit(spec(reference, q)).expect("valid spec"))
        .collect();
    let callers: Vec<Caller> = (0..6).map(|_| (shape.connect)()).collect();
    let runs: Vec<(SessionId, SessionReport)> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..6)
            .zip(callers)
            .map(|(q, caller)| {
                s.spawn(move || {
                    let id = caller
                        .svc
                        .submit(spec(&*caller.svc, q))
                        .expect("valid spec");
                    (id, caller.svc.wait(id).expect("session completes"))
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("caller"))
            .collect()
    });
    for ((_, got), &ref_id) in runs.iter().zip(&want) {
        let want = reference.wait(ref_id).expect("session completes");
        assert_eq!(got.status, SessionStatus::Done);
        assert_eq!(got.status, want.status);
        assert_eq!(got.trace.samples(), want.trace.samples());
        assert_eq!(got.trace.found(), want.trace.found());
        assert_eq!(curve(got), curve(&want), "traces must be bit-identical");
        assert_eq!(got.chunk_stats.len(), want.chunk_stats.len());
        assert_eq!(got.charges.frames, want.charges.frames);
    }

    // A batch that stops mid-way looks its drawn tail up unbilled, so the
    // lookups match the reference's rather than the billed frames.
    let stats = (shape.connect)().svc.stats().expect("stats");
    let lookups = |c: CacheStats| c.hits + c.misses;
    assert_eq!(lookups(stats.cache), lookups(reference.cache_stats()));
    assert_eq!(stats.live_sessions, 6);
    let bill = reference.detector_invocations();
    if shape.warm {
        let persist = stats.persist.expect("a warm life persists");
        assert_eq!(stats.cache.misses, 0, "a warm life must not re-detect");
        assert_eq!(
            (stats.cache.warm_loads, persist.container_hits),
            (bill, bill)
        );
    } else {
        assert_eq!(stats.cache.misses, bill, "the shape paid another bill");
    }
    if let Some(engine) = &shape.behind {
        assert_eq!(stats, engine.service_stats(), "stats changed on the wire");
    }
    runs.into_iter().map(|(id, _)| id).zip(want).collect()
}

/// Windowed chains, past-end polls and wire streams re-read the
/// reference's event log of every session.
fn cursor(shape: &Shape, reference: &Engine, ids: &[(SessionId, SessionId)]) {
    let caller = (shape.connect)();
    let svc = &*caller.svc;
    for &(id, ref_id) in ids {
        let all = svc.poll(id, 0, None).expect("full log").events;
        let want = reference.poll(ref_id, 0).expect("full log").events;
        assert!(!all.is_empty());
        assert_eq!(log(&all), log(&want), "event logs must be identical");
        let (mut at, mut paged) = (0, Vec::new());
        loop {
            let snap = svc.poll(id, at, Some(2)).expect("windowed poll");
            assert!(snap.events.len() <= 2, "window exceeded");
            if snap.events.is_empty() {
                assert_eq!(snap.next_cursor, all.len() as u64);
                break;
            }
            at = snap.next_cursor;
            paged.extend(snap.events);
        }
        assert_eq!(paged, all);
        let past = svc.poll(id, u64::MAX, None).expect("past-end poll");
        assert!(past.events.is_empty());
        assert_eq!(past.next_cursor, all.len() as u64);
        let found: u64 = all.iter().map(|e| e.new_results as u64).sum();
        assert_eq!(found, past.found);

        if let Some(stream) = &caller.stream {
            let mut streamed = Vec::new();
            let last = stream(id, &mut |snap| {
                assert!(snap.events.len() <= 3, "window exceeded");
                streamed.extend_from_slice(&snap.events);
            });
            assert_ne!(last.status, SessionStatus::Running);
            assert_eq!(streamed, all, "stream and poll must carry one log");
        }
    }
}

/// Typed errors carrying the caller's own ids, and the cancel and forget
/// lifecycle.
fn errors(shape: &Shape) {
    let svc = &*(shape.connect)().svc;
    // Unknown ids in router slots 0 and 1 and past every slot: a fleet
    // must hand each back in the caller's namespace.
    for repo in [RepoId(42), RepoId((1 << 24) | 42), RepoId(57 << 24)] {
        let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(1));
        assert_eq!(svc.submit(spec), Err(ServiceError::UnknownRepo(repo)));
    }
    for id in [
        SessionId(404),
        SessionId(3 | (1 << 48)),
        SessionId(u64::MAX),
    ] {
        assert_eq!(svc.poll(id, 0, None), Err(ServiceError::UnknownSession(id)));
        assert_eq!(svc.wait(id).unwrap_err(), ServiceError::UnknownSession(id));
    }
    let repo = repo_id(svc, "cam-1");
    assert_eq!(
        svc.submit(QuerySpec::new(repo, ClassId(0), StopCond::results(1)).chunks(0)),
        Err(ServiceError::InvalidSpec("chunks must be positive".into()))
    );

    let busy = QuerySpec::new(repo, ClassId(0), StopCond::results(1_000_000)).seed(78);
    let busy = svc.submit(busy).expect("valid spec");
    // Unless the whole repository was swept before the call landed.
    if let Err(e) = svc.forget(busy) {
        assert_eq!(e, ServiceError::SessionRunning(busy));
        svc.cancel(busy).expect("cancel");
        svc.cancel(busy).expect("cancel is idempotent");
        let report = svc.wait(busy).expect("cancelled session reports");
        assert_ne!(report.status, SessionStatus::Running);
        let forgotten = svc.forget(busy).expect("forget a finished session");
        assert_eq!(forgotten.trace, report.trace);
        assert_eq!(
            svc.forget(busy).unwrap_err(),
            ServiceError::UnknownSession(busy)
        );
    }
}

/// Diagnostics, and each session's causal span tree.
fn observed(shape: &Shape, ids: &[(SessionId, SessionId)]) {
    let svc = &*(shape.connect)().svc;
    let diag = svc.diagnostics().expect("diagnostics");
    let dispatch = diag.histogram("dispatch_ns").expect("dispatch histogram");
    // A warm life's detector work was done by its first life.
    assert!(
        shape.warm || dispatch.total() > 0,
        "dispatches must be observed"
    );
    assert!(!diag.events.is_empty(), "flight events must be served");
    if let Some(engine) = &shape.behind {
        assert_eq!(
            Some(dispatch),
            engine.diagnostics().histogram("dispatch_ns")
        );
    }
    for &(id, _) in ids {
        let spans = svc
            .collect_trace(TraceId::from_session(id.0))
            .expect("trace");
        assert!(!spans.is_empty(), "a finished session must have a trace");
        validate_spans(&spans).expect("causal tree invariants");
        assert_eq!(
            (spans[0].id, spans[0].stage),
            (SpanId::ROOT, Stage::Session)
        );
        assert!(
            spans.iter().all(|s| s.session == id.0),
            "foreign session ids"
        );
        if (shape.wired)(id) {
            let polled = spans.iter().any(|s| s.stage == Stage::Poll);
            assert!(polled, "poll spans must join the session tree");
        }
    }
}

/// The catalog names every repository, and submit accepts each listed id.
fn catalog(shape: &Shape, reference: &Engine) {
    let svc = &*(shape.connect)().svc;
    let listed = svc.repos().expect("catalog");
    let footage = |infos: &[RepoInfo]| {
        let mut out: Vec<_> = infos
            .iter()
            .map(|r| (r.name.clone(), r.frames, r.classes, r.dataset_fingerprint))
            .collect();
        out.sort();
        out
    };
    assert_eq!(footage(&listed), footage(&reference.repos()));
    for info in &listed {
        let spec = QuerySpec::new(info.id, ClassId(0), StopCond::results(1)).chunks(4);
        let id = svc.submit(spec).expect("a listed id is accepted");
        assert_eq!(svc.wait(id).expect("report").status, SessionStatus::Done);
    }
}

#[test]
fn in_process() {
    conform(&local(full_engine(None), false));
}

#[test]
fn pump() {
    let engine = full_engine(None);
    let server = SearchServer::new(engine.clone());
    // The scope joins each connection's server thread, which ends when
    // its client drops, and re-raises any panic.
    std::thread::scope(|scope| {
        let server = &server;
        conform(&Shape {
            connect: Box::new(move || {
                let (client_io, server_io) = duplex();
                scope.spawn(move || server.serve_connection(server_io).expect("served"));
                wire(RemoteClient::connect(client_io).expect("handshake"))
            }),
            behind: Some(engine),
            wired: |_| true,
            warm: false,
        });
    });
}

#[cfg(unix)]
#[test]
fn reactor_tcp() {
    conform(&reactor(|reactor| {
        let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind");
        Box::new(move || wire(RemoteClient::connect_tcp(addr).expect("handshake")))
    }));
}

#[cfg(unix)]
#[test]
fn reactor_unix() {
    use std::os::unix::net::UnixStream;
    // `sun_path` holds 108 bytes: keep the name short.
    let socket = scratch("cf.sock");
    conform(&reactor(|reactor| {
        reactor.listen_unix(&socket).expect("bind");
        let socket = socket.clone();
        Box::new(move || {
            let stream = UnixStream::connect(&socket).expect("connect");
            wire(RemoteClient::connect(stream).expect("handshake"))
        })
    }));
    let _ = std::fs::remove_file(&socket);
}

/// Two in-process shards and one behind the TCP reactor; the remote one
/// sorts to slot 2.
#[cfg(unix)]
fn fleet_router(locals: &[Arc<Engine>], addr: std::net::SocketAddr) -> ShardRouter {
    let remote = RemoteClient::connect_tcp(addr).expect("handshake");
    ShardRouter::new(vec![
        ("shard-a".into(), locals[0].clone() as ShardService),
        ("shard-b".into(), locals[1].clone() as ShardService),
        ("shard-c".into(), Arc::new(remote) as ShardService),
    ])
}

#[cfg(unix)]
#[test]
fn fleet() {
    let locals = [engine(None), engine(None)];
    let remote = engine(None);
    let mut reactor = Reactor::new(remote.clone(), ServeConfig::default()).expect("poller");
    let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind");
    let _serving = reactor.spawn().expect("spawn reactor");
    let router = fleet_router(&locals, addr);
    let mut owners = Vec::new();
    for (name, gt) in fixture() {
        let owner = router.place(&name, dataset_fingerprint(&gt)).to_string();
        let engine = match owner.as_str() {
            "shard-a" => &locals[0],
            "shard-b" => &locals[1],
            _ => &remote,
        };
        engine.register_repo(&name, gt, NoiseModel::none(), 5);
        owners.push(owner);
    }
    let spread: std::collections::HashSet<_> = owners.iter().collect();
    assert!(spread.len() >= 2, "placement sent everything to one shard");
    assert!(
        owners.iter().any(|o| o == "shard-c"),
        "the wire carries no repository"
    );

    let shards = locals.clone();
    let ids = conform(&Shape {
        connect: Box::new(move || Caller {
            svc: Arc::new(fleet_router(&shards, addr)),
            stream: None,
        }),
        behind: None,
        wired: |id| split_session(id).0 == 2,
        warm: false,
    });
    for (q, id) in ids.into_iter().enumerate() {
        assert_eq!(router.shard_of_session(id), Some(owners[q % 3].as_str()));
    }
    let cluster = router.cluster_stats();
    assert_eq!(cluster.cache, router.stats().expect("all shards up").cache);
    assert_eq!((cluster.shards.len(), cluster.shards_down()), (3, 0));
}

#[test]
fn persistent() {
    let dir = scratch("conformance-persist");
    conform(&local(full_engine(Some(&dir)), false));
    conform(&local(full_engine(Some(&dir)), true));
    let _ = std::fs::remove_dir_all(&dir);
}
