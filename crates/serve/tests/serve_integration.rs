//! End-to-end tests of the reactor over real sockets: typed admission
//! rejections on surviving connections, retry-after honored by the
//! retrying client, tier-weighted scheduling, clean version rejection in
//! both directions, and the HTTP metrics listener. Trace identity,
//! cursors and streams over the reactor are held by the workspace's
//! `tests/conformance.rs`.

#![cfg(unix)]

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    Engine, EngineConfig, QuerySpec, RepoId, SearchService, ServiceError, SessionStatus,
};
use exsample_proto::{Framed, Message, RemoteClient, PROTO_VERSION};
use exsample_serve::{AdmissionConfig, AuthRegistry, Reactor, ServeConfig, ServeHandle, Tier};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

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

fn engine(workers: usize) -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        workers,
        quantum: 8,
        ..EngineConfig::default()
    }))
}

fn spec(repo: RepoId, seed: u64) -> QuerySpec {
    QuerySpec::new(repo, ClassId(0), StopCond::results(25))
        .chunks(8)
        .seed(seed)
}

/// Spin up a reactor on a loopback TCP port and return its address.
fn serve_tcp(engine: &Arc<Engine>, config: ServeConfig) -> (SocketAddr, ServeHandle) {
    let mut reactor = Reactor::new(engine.clone(), config).expect("poller");
    let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind");
    let handle = reactor.spawn().expect("spawn");
    (addr, handle)
}

#[test]
fn session_quota_is_a_typed_rejection_on_a_surviving_connection() {
    let eng = engine(2);
    let repo = eng.register_repo("quota-cam", truth(50_000, 30), NoiseModel::none(), 5);
    let config = ServeConfig {
        admission: AdmissionConfig {
            max_sessions_per_tenant: 1,
            retry_after_ms: 33,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let (addr, _handle) = serve_tcp(&eng, config);
    let client = RemoteClient::connect_tcp(addr).expect("tcp handshake");
    // Anonymous connections are tenant 0 — quotas apply to them too.
    // The blocker's target exceeds the repo's instances, so it keeps
    // running until cancelled.
    let slow = QuerySpec::new(repo, ClassId(0), StopCond::results(10_000))
        .chunks(32)
        .seed(1);
    let first = client.submit(slow.clone()).expect("first fits the quota");
    let err = client.submit(slow.clone()).expect_err("second must shed");
    assert_eq!(err, ServiceError::Overloaded { retry_after_ms: 33 });
    // The connection survived the rejection: requests keep working.
    assert!(!client.repos().expect("connection still serves").is_empty());
    client.cancel(first).expect("cancel");
    client.wait(first).expect("report");
    client
        .forget(first)
        .expect("forget releases the quota slot");
    client
        .submit(slow)
        .expect("quota slot released after the first session retired");
}

#[test]
fn retrying_client_honors_retry_after_and_eventually_lands() {
    let eng = engine(2);
    let repo = eng.register_repo("retry-cam", truth(200_000, 30), NoiseModel::none(), 5);
    let config = ServeConfig {
        admission: AdmissionConfig {
            max_queue_depth: 2,
            retry_after_ms: 20,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let (addr, handle) = serve_tcp(&eng, config);
    let client = RemoteClient::connect_tcp(addr).expect("tcp handshake");
    // Saturate the queue with sessions that cannot finish on their own
    // before being cancelled (the target exceeds what the repo holds,
    // so only frame exhaustion — a long sweep — would end them).
    let blocker = QuerySpec::new(repo, ClassId(0), StopCond::results(10_000))
        .chunks(32)
        .seed(2);
    let a = client.submit(blocker.clone()).expect("fills slot one");
    let b = client.submit(blocker.clone()).expect("fills slot two");
    assert!(matches!(
        client.submit(blocker.clone()),
        Err(ServiceError::Overloaded { retry_after_ms: 20 })
    ));
    // Free the queue from another thread while the retrying client backs
    // off; its bounded retry must then land.
    let unblock = std::thread::spawn({
        let client = RemoteClient::connect_tcp(addr).expect("second connection");
        move || {
            std::thread::sleep(Duration::from_millis(60));
            for id in [a, b] {
                let _ = client.cancel(id);
                let _ = client.wait(id);
                let _ = client.forget(id);
            }
        }
    });
    let landed = client
        .submit_with_retry(&spec(repo, 3), 200)
        .expect("retry lands once the queue drains");
    unblock.join().unwrap();
    client.cancel(landed).expect("cleanup");
    assert!(handle.stats().shed >= 1, "sheds are counted");
}

#[test]
fn tier_weights_skew_scheduler_leases_toward_paying_tenants() {
    // One worker, two tenants, identical heavy specs: the Enterprise
    // tenant's 16× weight must buy it visibly more detector leases.
    let eng = engine(1);
    // Big repo + near-full recall target: enough total work that the
    // free tenant's brief solo head start (it submits first, and runs
    // alone for one TCP round trip) is noise next to the weighted
    // concurrent phase.
    let repo = eng.register_repo("tier-cam", truth(200_000, 40), NoiseModel::none(), 5);
    let mut auth = AuthRegistry::new();
    auth.register("hobbyist", "tok-free", Tier::Free);
    auth.register("acme", "tok-ent", Tier::Enterprise);
    let (addr, _handle) = serve_tcp(
        &eng,
        ServeConfig {
            auth,
            ..ServeConfig::default()
        },
    );

    let free = RemoteClient::connect_tcp(addr).expect("free connection");
    assert_eq!(free.authenticate("tok-free").expect("free tenant").1, 1);
    let ent = RemoteClient::connect_tcp(addr).expect("ent connection");
    let (ent_tenant, ent_weight) = ent.authenticate("tok-ent").expect("ent tenant");
    assert_eq!(ent_weight, 16);
    assert_ne!(ent_tenant, 0);

    // Free submits FIRST (head start), both want the same large result
    // count; the weighted-fair scheduler must still finish Enterprise
    // far ahead.
    let heavy = |seed| {
        QuerySpec::new(repo, ClassId(0), StopCond::results(38))
            .chunks(16)
            .seed(seed)
    };
    let free_id = free.submit(heavy(5)).expect("free submit");
    let ent_id = ent.submit(heavy(6)).expect("ent submit");
    let ent_report = ent.wait(ent_id).expect("enterprise finishes");
    // At the moment Enterprise finished, cancel Free and compare work
    // done: 16:1 leases mean Free should have a small fraction of the
    // samples. Allow generous slack — assert strictly less than half.
    free.cancel(free_id).expect("cancel free");
    let free_report = free.wait(free_id).expect("free report");
    assert!(
        free_report.trace.samples() * 2 < ent_report.trace.samples(),
        "free tenant ({} samples) should trail enterprise ({} samples)",
        free_report.trace.samples(),
        ent_report.trace.samples()
    );
}

#[test]
fn unknown_token_is_unauthorized_and_the_connection_survives() {
    let eng = engine(2);
    let repo = eng.register_repo("auth-cam", truth(2_000, 10), NoiseModel::none(), 5);
    let mut auth = AuthRegistry::new();
    auth.register("acme", "tok-good", Tier::Pro);
    let config = ServeConfig {
        auth,
        admission: AdmissionConfig {
            require_auth: true,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let (addr, _handle) = serve_tcp(&eng, config);
    let client = RemoteClient::connect_tcp(addr).expect("tcp handshake");
    // Unauthenticated submit is rejected (require_auth), typed.
    match client.submit(spec(repo, 1)) {
        Err(ServiceError::Unauthorized(_)) => {}
        other => panic!("expected Unauthorized, got {other:?}"),
    }
    // Wrong token: typed rejection, connection still usable.
    match client.authenticate("tok-wrong") {
        Err(ServiceError::Unauthorized(_)) => {}
        other => panic!("expected Unauthorized, got {other:?}"),
    }
    // Right token on the same connection: welcome, and submits now land.
    let (tenant, weight) = client.authenticate("tok-good").expect("good token");
    assert_ne!(tenant, 0);
    assert_eq!(weight, 4);
    let id = client.submit(spec(repo, 1).chunks(4)).expect("authorized");
    client.wait(id).expect("report");
}

#[test]
fn connection_cap_sheds_with_a_parseable_typed_answer() {
    let eng = engine(2);
    let config = ServeConfig {
        admission: AdmissionConfig {
            max_connections: 1,
            retry_after_ms: 40,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let (addr, handle) = serve_tcp(&eng, config);
    let _first = RemoteClient::connect_tcp(addr).expect("first connection fits");
    // Wait for the first connection to be fully admitted (the reactor
    // accepts asynchronously).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().connections_active < 1 {
        assert!(std::time::Instant::now() < deadline, "first conn admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The second connection is shed — but with a typed answer on the
    // wire, not a silent slam: preamble, then Error(Overloaded), then
    // EOF. Read it passively with a raw framed transport.
    let raw = TcpStream::connect(addr).expect("tcp connect");
    let mut framed = Framed::new(raw);
    assert_eq!(
        framed.handshake(PROTO_VERSION).expect("preamble"),
        PROTO_VERSION
    );
    match framed.recv().expect("shed answer precedes the close") {
        Message::Error(ServiceError::Overloaded { retry_after_ms }) => {
            assert_eq!(retry_after_ms, 40)
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The server closes without ever reading our preamble, so the close
    // may arrive as a clean EOF or as a reset (RST on unread data) —
    // either way, the typed answer above already crossed.
    let err = framed.recv().expect_err("then the connection closes");
    assert!(
        matches!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
        ),
        "unexpected close kind: {err:?}"
    );
    assert!(handle.stats().shed >= 1);
}

#[test]
fn version_mismatch_rejects_cleanly_in_both_directions() {
    // A client one version behind (`PROTO_VERSION - 1`) against the
    // reactor: the server announces `PROTO_VERSION` and hangs up; no
    // frame is ever parsed under version skew.
    let eng = engine(2);
    let (addr, _handle) = serve_tcp(&eng, ServeConfig::default());
    let raw = TcpStream::connect(addr).expect("tcp connect");
    let mut old_client = Framed::new(raw);
    let announced = old_client
        .handshake(PROTO_VERSION - 1)
        .expect("preamble exchange");
    assert_eq!(announced, PROTO_VERSION);
    let err = old_client.recv().expect_err("server hangs up");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

    // A current client against a server one version behind
    // (`PROTO_VERSION - 1`): typed rejection from connect_tcp, naming
    // both versions.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let old_addr = listener.local_addr().expect("addr");
    let old_server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        Framed::new(stream)
            .handshake(PROTO_VERSION - 1)
            .expect("preamble exchange")
    });
    let err = RemoteClient::connect_tcp(old_addr).expect_err("mismatch");
    assert_eq!(
        err,
        ServiceError::VersionMismatch {
            ours: PROTO_VERSION,
            theirs: PROTO_VERSION - 1
        }
    );
    assert_eq!(old_server.join().unwrap(), PROTO_VERSION);
}

#[test]
fn unix_listener_serves_and_metrics_reach_render_text() {
    let eng = engine(2);
    let repo = eng.register_repo("unix-cam", truth(2_000, 10), NoiseModel::none(), 5);
    let socket = std::env::temp_dir().join(format!("exsample-serve-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut reactor = Reactor::new(eng.clone(), ServeConfig::default()).expect("poller");
    reactor.listen_unix(&socket).expect("bind unix");
    let metrics = reactor.listen_metrics_tcp("127.0.0.1:0").expect("bind");
    let handle = reactor.spawn().expect("spawn");
    let client =
        RemoteClient::connect(std::os::unix::net::UnixStream::connect(&socket).expect("connect"))
            .expect("handshake");
    let id = client.submit(spec(repo, 4).chunks(4)).expect("submit");
    client.wait(id).expect("report");
    assert!(handle.stats().accepted >= 1);

    // The serving metrics are ordinary registry citizens: visible in the
    // Prometheus rendering and in the diagnostics snapshot.
    let text = eng.obs().registry().render_text();
    assert!(text.contains("exsample_accepted_total"));
    assert!(text.contains("exsample_shed_total"));
    assert!(text.contains("exsample_connections_active"));
    assert!(text.contains("exsample_accept_ns"));
    assert!(text.contains("exsample_handshake_ns"));
    assert!(text.contains("exsample_turn_ns"));
    let diag = eng.diagnostics();
    assert!(diag.counters.iter().any(|(n, _)| n == "accepted_total"));
    assert!(diag
        .histograms
        .iter()
        .any(|(n, _)| n == "turn_ns" || n == "accept_ns"));

    // And over the plaintext HTTP listener, which answers raw outside
    // input: one request per connection, read to the close.
    let answers = [
        ("GET /healthz", "200 OK"),
        ("GET /nope", "404 Not Found"),
        ("POST /metrics", "405 Method Not Allowed"),
        ("GET /metrics", "200 OK"),
    ];
    for (request, status) in answers {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(metrics).expect("connect metrics listener");
        let request = format!("{request} HTTP/1.0\r\n\r\n");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let head = format!("HTTP/1.0 {status}\r\n");
        assert!(response.starts_with(&head), "{request}: {response}");
        if request.starts_with("GET /metrics") {
            let (_, body) = response.split_once("\r\n\r\n").expect("header/body split");
            assert!(body.contains("exsample_submits_total{tenant="), "{body}");
        }
    }
    let _ = std::fs::remove_file(&socket);
}

#[test]
fn half_open_handshake_is_dropped_and_the_reactor_keeps_serving() {
    use std::io::{Read, Write};

    let eng = engine(2);
    let repo = eng.register_repo("half-cam", truth(2_000, 10), NoiseModel::none(), 5);
    let config = ServeConfig {
        handshake_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let (addr, _handle) = serve_tcp(&eng, config);
    // Four preamble bytes, then silence: the reactor must drop the
    // connection at the deadline instead of retaining its buffers.
    let mut half_open = TcpStream::connect(addr).expect("connect");
    half_open.write_all(b"XSRP").expect("truncated preamble");
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut received = Vec::new();
    half_open
        .read_to_end(&mut received)
        .expect("reactor must hang up at the handshake deadline");
    assert_eq!(received.len(), 14, "exactly the server preamble");
    // And a well-formed client is still served afterwards.
    let client = RemoteClient::connect_tcp(addr).expect("handshake");
    let id = client.submit(spec(repo, 3).chunks(4)).expect("submit");
    assert_ne!(
        client.wait(id).expect("report").status,
        SessionStatus::Running
    );
}
