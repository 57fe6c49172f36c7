//! End-to-end distributed tracing across a two-shard fleet: one
//! in-process engine plus one behind the readiness-driven TCP reactor,
//! fronted by a `ShardRouter`.
//!
//! Each session's spans — submit, admission, dispatch, polls — are
//! recorded into a causal tree keyed by a trace id derived bijectively
//! from the session id. The client's poll frames carry a `TraceContext`
//! over protocol v7, so serve-layer spans on the remote shard join the
//! same tree as the engine's own spans. The router re-namespaces shard
//! session ids when collecting, the merged tree is validated against
//! the causal invariants, and one trace is exported as Chrome
//! trace-event JSON (load it at `chrome://tracing`). Then the remote
//! shard's diagnostics — latency histograms, counters and flight events
//! — are pulled back through its `RemoteClient`, and the reactor's
//! plaintext `/metrics` listener is scraped over raw HTTP for the
//! Prometheus-style exposition.
//!
//! ```text
//! cargo run --release --example traced_search
//! ```
//!
//! Every check is an assert; `tests/conformance.rs` holds the span-tree
//! and diagnostics contract for every deployment shape.

#[cfg(unix)]
fn main() {
    use exsample::cluster::{ShardRouter, ShardService};
    use exsample::core::driver::StopCond;
    use exsample::detect::NoiseModel;
    use exsample::engine::{Engine, EngineConfig, QuerySpec, SearchService};
    use exsample::obs::{chrome_trace_json, validate_json, validate_spans, SpanId, Stage, TraceId};
    use exsample::proto::RemoteClient;
    use exsample::serve::{Reactor, ServeConfig};
    use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    // Two repositories of distinct footage, one per shard.
    let footage = |seed: u64| -> Arc<GroundTruth> {
        Arc::new(
            DatasetSpec::single_class(
                60_000,
                ClassSpec::new("car", 90, 60.0, SkewSpec::CentralNormal { frac95: 0.15 }),
            )
            .generate(seed),
        )
    };

    // ---- shard A: in-process ----
    let local = Arc::new(Engine::new(EngineConfig::default()));
    local.register_repo("downtown", footage(2026), NoiseModel::none(), 7);

    // ---- shard B: behind the reactor, over real TCP ----
    let remote_engine = Arc::new(Engine::new(EngineConfig::default()));
    remote_engine.register_repo("harbor", footage(2027), NoiseModel::none(), 7);
    let mut reactor = Reactor::new(remote_engine.clone(), ServeConfig::default()).expect("poller");
    let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind xsrp");
    let metrics_addr = reactor
        .listen_metrics_tcp("127.0.0.1:0")
        .expect("bind metrics");
    let handle = reactor.spawn().expect("spawn reactor");
    println!("shard-b serving on {addr}, metrics on http://{metrics_addr}/metrics");

    let remote = Arc::new(RemoteClient::connect_tcp(addr).expect("protocol handshake"));
    let router = ShardRouter::new(vec![
        ("shard-a".into(), local.clone() as ShardService),
        ("shard-b".into(), remote.clone() as ShardService),
    ]);

    // ---- one query per shard, traced end to end ----
    let svc: &dyn SearchService = &router;
    let catalog = svc.repos().expect("fleet catalog");
    println!("\nsessions and their causal span trees:");
    let mut remote_spans = Vec::new();
    for name in ["downtown", "harbor"] {
        let repo = catalog
            .iter()
            .find(|r| r.name == name)
            .expect("repository registered")
            .id;
        let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(60))
            .chunks(16)
            .seed(42);
        let id = svc.submit(spec).expect("valid spec");
        let report = svc.wait(id).expect("session completes");
        // Fetch the result stream; over the wire each Poll frame
        // carries a TraceContext, so the serve layer's spans land in
        // this session's tree.
        let snap = svc.poll(id, 0, Some(32)).expect("events retained");
        assert!(!snap.events.is_empty(), "finished session has events");
        let shard = router.shard_of_session(id).expect("routed session");

        // The trace id is derived from the *global* session id; the
        // router maps it to the owning shard's namespace and back.
        let spans = svc
            .collect_trace(TraceId::from_session(id.0))
            .expect("shard reachable");
        assert!(!spans.is_empty(), "a finished session must have a trace");
        validate_spans(&spans).expect("causal tree invariants");
        let root = &spans[0];
        assert_eq!(root.id, SpanId::ROOT);
        assert_eq!(root.stage, Stage::Session);
        assert_eq!(root.session, id.0, "router re-namespaced the root");
        assert!(spans.iter().all(|s| s.session == id.0));
        println!(
            "  {name:<10} on {shard}: {:>3} found, {:>3} spans, root {} us",
            report.trace.found(),
            spans.len(),
            root.duration_ns / 1_000,
        );
        if shard == "shard-b" {
            // The wire-side proof: the client's polls carried a
            // TraceContext, so serve-layer spans joined the engine's
            // tree for this session across the TCP boundary.
            assert!(
                spans.iter().any(|s| s.stage == Stage::Poll),
                "remote poll spans must join the session tree"
            );
            remote_spans = spans;
        }
    }
    assert!(!remote_spans.is_empty(), "one session must land on shard-b");
    println!("trace validated: ok");
    println!("remote trace spans: {}", remote_spans.len());

    // ---- export the remote session's trace for chrome://tracing ----
    let json = chrome_trace_json(&remote_spans);
    validate_json(&json).expect("chrome trace JSON validates");
    let path = std::env::temp_dir().join(format!("exsample-trace-{}.json", std::process::id()));
    std::fs::write(&path, &json).expect("write trace file");
    println!(
        "\nchrome trace written: {} ({} bytes)",
        path.display(),
        json.len()
    );
    println!("chrome export: ok");

    // ---- the remote shard's diagnostics over the wire ----
    // Stats with the `detail` flag carry per-metric histogram snapshots;
    // the full exchange adds counters and the flight-event tail.
    let (stats, detail) = remote.stats_detailed().expect("detailed stats");
    let diag = remote.diagnostics().expect("diagnostics reply");
    let dispatch = diag.histogram("dispatch_ns").expect("dispatch histogram");
    println!(
        "\nshard-b: {} live sessions, cache {}, {} histograms in the detailed stats",
        stats.live_sessions,
        stats.cache,
        detail.len()
    );
    println!(
        "shard-b dispatch_ns over the wire: count {}, p50 {} ns, p99 {} ns; {} flight events",
        dispatch.total(),
        dispatch.quantile(0.5),
        dispatch.quantile(0.99),
        diag.events.len()
    );
    assert!(dispatch.total() > 0, "dispatches must be observed");
    assert_eq!(
        Some(dispatch),
        remote_engine.diagnostics().histogram("dispatch_ns"),
        "the wire round-trip must preserve the histogram exactly"
    );
    assert!(!detail.is_empty() && !diag.events.is_empty());

    // ---- scrape the reactor's metrics listener over raw HTTP ----
    let scrape = |path: &str| -> String {
        let mut stream = TcpStream::connect(metrics_addr).expect("connect metrics listener");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    };
    let health = scrape("/healthz");
    assert!(
        health.starts_with("HTTP/1.0 200 OK\r\n"),
        "healthz: {health}"
    );
    let response = scrape("/metrics");
    assert!(
        response.starts_with("HTTP/1.0 200 OK\r\n"),
        "metrics status line: {response}"
    );
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1;
    assert!(
        body.contains("exsample_submits_total{tenant="),
        "per-tenant submit counters must be exposed"
    );
    println!("\nper-tenant and dispatch series from the scrape:");
    let shown = |l: &&str| l.contains("{tenant=") || l.starts_with("exsample_dispatch_ns_");
    for line in body.lines().filter(shown) {
        println!("  {line}");
    }
    println!("metrics scrape: ok");

    println!(
        "\nserved {} connections, shed {} — every span above crossed a layer boundary and still \
         landed in one tree",
        handle.stats().accepted,
        handle.stats().shed
    );
}

#[cfg(not(unix))]
fn main() {
    eprintln!(
        "traced_search needs the epoll-backed reactor; tests/conformance.rs holds the same \
         span-tree contract over the duplex-pipe server"
    );
}
