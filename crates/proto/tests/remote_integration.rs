//! End-to-end protocol tests over in-memory duplex connections: several
//! concurrent remote clients against one server must behave exactly like
//! in-process sessions — identical traces, typed errors, clean version
//! rejection, and windowed streaming with cursor-ack backpressure.

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    Engine, EngineConfig, QuerySpec, RepoId, SearchService, ServiceError, SessionId, SessionStatus,
};
use exsample_proto::transport::DuplexStream;
use exsample_proto::{duplex, Framed, RemoteClient, SearchServer, PROTO_VERSION};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::Arc;

fn truth(frames: u64, instances: usize) -> Arc<GroundTruth> {
    Arc::new(
        DatasetSpec::single_class(
            frames,
            ClassSpec::new(
                "car",
                instances,
                200.0,
                SkewSpec::CentralNormal { frac95: 0.2 },
            ),
        )
        .generate(17),
    )
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        workers: 3,
        quantum: 8,
        ..EngineConfig::default()
    }))
}

/// Open one served connection: a server thread on one end of a duplex
/// pipe, a connected client on the other.
fn connect(server: &Arc<SearchServer>) -> RemoteClient<DuplexStream> {
    let (client_io, server_io) = duplex();
    let server = server.clone();
    std::thread::spawn(move || {
        let _ = server.serve_connection(server_io);
    });
    RemoteClient::connect(client_io).expect("handshake succeeds")
}

fn spec(repo: RepoId, seed: u64) -> QuerySpec {
    QuerySpec::new(repo, ClassId(0), StopCond::results(25))
        .chunks(8)
        .seed(seed)
}

#[test]
fn four_concurrent_remote_clients_match_in_process_sessions() {
    // Remote: four clients, each its own connection, streaming
    // concurrently against one shared engine.
    let remote_engine = engine();
    let repo = remote_engine.register_repo("shared-cam", truth(20_000, 60), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(remote_engine.clone()));
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let client = connect(&server);
            std::thread::spawn(move || {
                let catalog = client.repos().expect("catalog");
                let repo = catalog
                    .iter()
                    .find(|r| r.name == "shared-cam")
                    .expect("repo registered")
                    .id;
                let id = client.submit(spec(repo, 100 + i)).expect("valid spec");
                let mut streamed = 0u64;
                let mut batches = 0u64;
                let last = client
                    .stream(id, 0, 3, |snap| {
                        assert!(snap.events.len() <= 3, "window exceeded");
                        streamed += snap
                            .events
                            .iter()
                            .map(|e| e.new_results as u64)
                            .sum::<u64>();
                        batches += 1;
                    })
                    .expect("stream completes");
                assert_ne!(last.status, SessionStatus::Running);
                let report = client.wait(id).expect("report");
                assert_eq!(streamed, report.trace.found());
                assert!(batches >= report.trace.points().len() as u64 / 3);
                report
            })
        })
        .collect();
    let remote_reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // In-process reference: the same four specs on a fresh identical
    // engine, driven through the same `SearchService` trait.
    let local_engine = engine();
    let repo2 = local_engine.register_repo("shared-cam", truth(20_000, 60), NoiseModel::none(), 5);
    assert_eq!(repo2, repo);
    let svc: &dyn SearchService = &*local_engine;
    let ids: Vec<SessionId> = (0..4)
        .map(|i| svc.submit(spec(repo2, 100 + i)).expect("valid spec"))
        .collect();
    for (id, remote) in ids.into_iter().zip(&remote_reports) {
        let local = svc.wait(id).expect("report");
        assert_eq!(local.status, remote.status);
        assert_eq!(local.trace.samples(), remote.trace.samples());
        assert_eq!(local.trace.found(), remote.trace.found());
        // The discovery curve is identical point for point (seconds are
        // charged, cache-dependent quantities — compare the deterministic
        // coordinates).
        let curve = |r: &exsample_engine::SessionReport| {
            r.trace
                .points()
                .iter()
                .map(|p| (p.samples, p.found))
                .collect::<Vec<_>>()
        };
        assert_eq!(curve(&local), curve(remote));
        assert_eq!(local.chunk_stats.len(), remote.chunk_stats.len());
    }
    // Nor does the side of the socket change what the detector ran on.
    assert_eq!(
        local_engine.detector_invocations(),
        remote_engine.detector_invocations()
    );
}

#[test]
fn remote_poll_cursor_chain_matches_full_log() {
    let eng = engine();
    let repo = eng.register_repo("poll-cam", truth(20_000, 60), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(eng.clone()));
    let client = connect(&server);
    let id = client.submit(spec(repo, 9)).unwrap();
    client.wait(id).unwrap();
    let all = client.poll(id, 0, None).unwrap();
    assert!(!all.events.is_empty());
    // Windowed cursor chain re-reads the identical event sequence.
    let mut cursor = 0;
    let mut paged = Vec::new();
    loop {
        let snap = client.poll(id, cursor, Some(2)).unwrap();
        assert!(snap.events.len() <= 2);
        if snap.events.is_empty() {
            assert_eq!(snap.next_cursor, all.events.len() as u64);
            break;
        }
        cursor = snap.next_cursor;
        paged.extend(snap.events);
    }
    assert_eq!(paged, all.events);
    // Past-the-end cursor: empty snapshot, not an error (the documented
    // poll contract, preserved across the wire).
    let past = client.poll(id, u64::MAX, None).unwrap();
    assert!(past.events.is_empty());
    assert_eq!(past.next_cursor, all.events.len() as u64);
}

#[test]
fn remote_errors_are_typed_not_stringly() {
    let eng = engine();
    let repo = eng.register_repo("err-cam", truth(2_000, 10), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(eng.clone()));
    let client = connect(&server);

    assert_eq!(
        client.submit(spec(RepoId(42), 1)),
        Err(ServiceError::UnknownRepo(RepoId(42)))
    );
    assert_eq!(
        client.submit(spec(repo, 1).chunks(0)),
        Err(ServiceError::InvalidSpec("chunks must be positive".into()))
    );
    assert_eq!(
        client.poll(SessionId(404), 0, None),
        Err(ServiceError::UnknownSession(SessionId(404)))
    );
    assert_eq!(
        client.wait(SessionId(404)).unwrap_err(),
        ServiceError::UnknownSession(SessionId(404))
    );

    // Cancel + forget lifecycle over the wire.
    let id = client.submit(spec(repo, 2).chunks(4)).expect("valid spec");
    client.cancel(id).expect("cancel is idempotent and typed");
    let report = client.wait(id).expect("report after cancel");
    assert!(matches!(
        report.status,
        SessionStatus::Cancelled | SessionStatus::Done
    ));
    let forgotten = client.forget(id).expect("forget finished session");
    assert_eq!(forgotten.trace, report.trace);
    assert_eq!(
        client.forget(id).unwrap_err(),
        ServiceError::UnknownSession(id)
    );
}

#[test]
fn version_mismatch_is_rejected_cleanly_both_ways() {
    // An "old client" (version 0) against a current server: the server
    // announces its version and hangs up; the client sees exactly which
    // versions disagreed instead of a misparse.
    let eng = engine();
    let server = Arc::new(SearchServer::new(eng.clone()));
    let (client_io, server_io) = duplex();
    let srv = server.clone();
    let t = std::thread::spawn(move || srv.serve_connection(server_io));
    let mut old_client = Framed::new(client_io);
    let announced = old_client.handshake(0).expect("preamble exchange");
    assert_eq!(announced, PROTO_VERSION);
    // The server closed without serving: the next read is EOF, no frame
    // was ever interpreted under version skew.
    let err = old_client.recv().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    t.join().unwrap().expect("server side closes cleanly");

    // A current client against an "old server" (version 0): typed
    // rejection from connect().
    let (client_io, server_io) = duplex();
    let t = std::thread::spawn(move || {
        let mut old_server = Framed::new(server_io);
        old_server.handshake(0).expect("preamble exchange")
    });
    let err = RemoteClient::connect(client_io).unwrap_err();
    assert_eq!(
        err,
        ServiceError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: 0
        }
    );
    assert_eq!(t.join().unwrap(), PROTO_VERSION);

    // Garbage on the wire (not even our magic) is a transport error.
    let (client_io, mut server_io) = duplex();
    use std::io::Write;
    server_io.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    match RemoteClient::connect(client_io) {
        Err(ServiceError::Transport(why)) => assert!(why.contains("preamble")),
        other => panic!("expected transport error, got {other:?}"),
    }
}

#[test]
fn stats_travel_the_wire() {
    let eng = engine();
    let repo = eng.register_repo("stats-cam", truth(20_000, 60), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(eng.clone()));
    let client = connect(&server);
    let id = client.submit(spec(repo, 5)).unwrap();
    client.wait(id).unwrap();
    let remote = client.stats().expect("stats over the wire");
    // Nothing runs between the calls, so the remote answer must equal
    // the engine's own counters exactly.
    assert_eq!(remote, eng.service_stats());
    assert!(remote.cache.misses > 0);
    assert_eq!(remote.live_sessions, 1);
    assert!(remote.persist.is_none());
}

/// A transport that can be severed from the outside: reads and writes
/// fail with `ConnectionReset` once `broken` is set, and the peer is
/// EOF'd when it drops — the shape of a mid-stream network failure.
struct Breakable {
    inner: DuplexStream,
    broken: Arc<std::sync::atomic::AtomicBool>,
}

impl std::io::Read for Breakable {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.broken.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "link severed",
            ));
        }
        self.inner.read(buf)
    }
}

impl std::io::Write for Breakable {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.broken.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "link severed",
            ));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn reconnect_resumes_stream_after_transport_failure() {
    use exsample_engine::ResultEvent;
    use std::sync::atomic::{AtomicBool, Ordering};

    let eng = engine();
    let repo = eng.register_repo("resume-cam", truth(20_000, 60), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(eng.clone()));

    let serve = |io: DuplexStream| {
        let srv = server.clone();
        std::thread::spawn(move || {
            let _ = srv.serve_connection(io);
        });
    };

    // Connection 1, over a severable link.
    let (client_io, server_io) = duplex();
    serve(server_io);
    let broken = Arc::new(AtomicBool::new(false));
    let client = RemoteClient::connect(Breakable {
        inner: client_io,
        broken: broken.clone(),
    })
    .expect("handshake");
    let id = client.submit(spec(repo, 55)).expect("valid spec");

    // Cursor-indexed event log, written idempotently: a batch that was
    // delivered but unacknowledged before the failure is re-delivered on
    // resume and simply overwrites its own slots — no gaps, no
    // double-counting.
    let mut log: Vec<Option<ResultEvent>> = Vec::new();
    let mut record = |snap: &exsample_engine::SessionSnapshot| {
        let start = snap.next_cursor as usize - snap.events.len();
        if log.len() < snap.next_cursor as usize {
            log.resize(snap.next_cursor as usize, None);
        }
        for (i, e) in snap.events.iter().enumerate() {
            log[start + i] = Some(*e);
        }
    };

    // Sever the link after the third batch: the ack for it can never be
    // sent, so the stream call must fail with a transport error.
    let mut batches = 0;
    let mut delivered = 0u64;
    let err = client
        .stream(id, 0, 2, |snap| {
            record(snap);
            delivered = snap.next_cursor;
            batches += 1;
            if batches == 3 {
                broken.store(true, Ordering::Relaxed);
            }
        })
        .expect_err("severed link must surface as an error");
    assert!(matches!(err, ServiceError::Transport(_)), "got {err:?}");
    // Batch 3 was delivered but its ack never left: the acked cursor
    // trails what we saw by exactly that unacknowledged batch.
    let acked = client.last_acked(id);
    assert!(acked > 0, "two batches were acknowledged before the cut");
    assert!(
        acked < delivered,
        "the third batch's ack must not have been recorded"
    );

    // The session survived on the server; reconnect and resume from the
    // last acknowledged cursor.
    let (client_io, server_io) = duplex();
    serve(server_io);
    client
        .reconnect(Breakable {
            inner: client_io,
            broken: Arc::new(AtomicBool::new(false)),
        })
        .expect("re-handshake");
    let terminal = client
        .resume_stream(id, 2, |snap| record(snap))
        .expect("resumed stream completes");
    assert_ne!(terminal.status, SessionStatus::Running);

    // The stitched-together stream is identical to the session's full
    // event log: the failure moved bytes, not results.
    let full = client.poll(id, 0, None).expect("full log").events;
    let resumed: Vec<ResultEvent> = log
        .into_iter()
        .map(|e| e.expect("no gaps in the resumed stream"))
        .collect();
    assert_eq!(resumed, full);
    let report = client.wait(id).expect("final report");
    assert_eq!(
        resumed.iter().map(|e| e.new_results as u64).sum::<u64>(),
        report.trace.found()
    );
}

#[test]
fn subscription_streams_identical_events_to_polling() {
    let eng = engine();
    let repo = eng.register_repo("stream-cam", truth(20_000, 60), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(eng.clone()));
    let streamer = connect(&server);
    let id = streamer.submit(spec(repo, 77)).unwrap();
    let mut streamed = Vec::new();
    streamer
        .stream(id, 0, 4, |snap| streamed.extend(snap.events.clone()))
        .unwrap();
    let logged = streamer.poll(id, 0, None).unwrap();
    assert_eq!(streamed, logged.events);
    assert!(!streamed.is_empty());
}
