//! End-to-end protocol tests over in-memory duplex connections: clean
//! version rejection, and a stream that resumes without gaps after its
//! transport fails. What every `SearchService` must answer, the pump
//! included, is held by the workspace's `tests/conformance.rs`.

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    Engine, EngineConfig, QuerySpec, RepoId, SearchService, ServiceError, SessionStatus,
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

fn spec(repo: RepoId, seed: u64) -> QuerySpec {
    QuerySpec::new(repo, ClassId(0), StopCond::results(25))
        .chunks(8)
        .seed(seed)
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

/// The blocking pump flushes each pushed batch before it blocks in the
/// engine for the next: a subscriber receives its first batch while the
/// session is still running, though no second batch comes until the
/// session is cancelled.
#[test]
fn a_pump_subscriber_receives_its_first_batch_while_the_session_runs() {
    use std::time::Duration;
    let eng = engine();
    // One long instance on a long timeline: found within a few samples,
    // then nothing new to find for seconds of sampling.
    let footage = DatasetSpec::single_class(
        4_000_000,
        ClassSpec::new(
            "car",
            1,
            1_000_000.0,
            SkewSpec::CentralNormal { frac95: 0.2 },
        ),
    );
    let repo = eng.register_repo(
        "lone-cam",
        Arc::new(footage.generate(17)),
        NoiseModel::none(),
        5,
    );
    let id = eng
        .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(u64::MAX)).seed(3))
        .expect("valid spec");
    let (client_io, server_io) = duplex();
    let server = SearchServer::new(eng.clone());
    std::thread::spawn(move || server.serve_connection(server_io));
    let client = RemoteClient::connect(client_io).expect("handshake");
    let (first, received) = std::sync::mpsc::channel();
    let subscriber = std::thread::spawn(move || {
        client.stream(id, 0, 16, |snap| {
            let _ = first.send(snap.events.len());
        })
    });

    let arrived = received.recv_timeout(Duration::from_secs(30));
    let status = eng.poll(id, 0).expect("known session").status;
    eng.cancel(id).expect("known session");
    assert!(
        matches!(arrived, Ok(events) if events > 0),
        "no batch arrived while the session ran"
    );
    assert_eq!(status, SessionStatus::Running, "the first batch came late");
    let terminal = subscriber
        .join()
        .expect("subscriber thread")
        .expect("the stream ends with the session");
    assert_eq!(terminal.status, SessionStatus::Cancelled);
}
