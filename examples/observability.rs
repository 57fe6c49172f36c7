//! The engine's observability surface, end to end: latency histograms
//! and counters behind a Prometheus-style text exposition, the
//! flight recorder's structured event tail, and the protocol-v5
//! `Diagnostics` exchange that ships all of it across a socket.
//!
//! A batch of overlapping queries runs on an instrumented engine; the
//! same engine is then served over a Unix-domain socket and its
//! diagnostics are pulled back through `RemoteClient` — first as
//! per-metric histogram snapshots piggybacked on a detailed stats
//! request, then as the full `Diagnostics` reply (histograms, counters,
//! flight events).
//!
//! ```text
//! cargo run --release --example observability
//! ```
//!
//! Prints the metric exposition (CI asserts a nonzero
//! `exsample_dispatch_ns_count`) and a machine-readable
//! `remote diagnostics: ok` gate line.

#[cfg(unix)]
fn main() {
    use exsample::core::driver::StopCond;
    use exsample::detect::NoiseModel;
    use exsample::engine::{Engine, EngineConfig, QuerySpec, SearchService};
    use exsample::obs::NO_SESSION;
    use exsample::proto::RemoteClient;
    use exsample::serve::{Reactor, ServeConfig};
    use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    // An instrumented engine (`observe` is on by default).
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let gt = Arc::new(
        DatasetSpec::single_class(
            60_000,
            ClassSpec::new("car", 90, 60.0, SkewSpec::CentralNormal { frac95: 0.15 }),
        )
        .generate(2026),
    );
    let repo = engine.register_repo("downtown", gt, NoiseModel::none(), 7);

    // Overlapping queries: the second wave re-samples frames the first
    // computed, so the histograms cover dispatches, cache traffic, and
    // scheduler leases.
    let ids: Vec<_> = (0..6)
        .map(|q| {
            engine
                .submit(
                    QuerySpec::new(repo, ClassId(0), StopCond::results(60))
                        .chunks(16)
                        .seed(100 + q),
                )
                .expect("valid spec")
        })
        .collect();
    for &id in &ids {
        engine.wait(id).expect("session completes");
    }

    // ---- the metric exposition ----
    println!("== metrics (Prometheus text exposition) ==");
    print!("{}", engine.obs().registry().render_text());

    // ---- the flight recorder tail ----
    // The ring keeps the last 4096 events; the last two dozen are the
    // readable part of a post-mortem.
    println!("\n== flight recorder ==");
    let rendered = engine.obs().flight().render();
    let mut lines = rendered.lines();
    if let Some(header) = lines.next() {
        println!("{header}");
    }
    let events: Vec<&str> = lines.collect();
    for line in &events[events.len().saturating_sub(24)..] {
        println!("{line}");
    }

    // ---- the same surface over the wire (protocol v5) ----
    let socket = std::env::temp_dir().join(format!("exsample-obs-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut reactor = Reactor::new(engine.clone(), ServeConfig::default()).expect("poller");
    reactor.listen_unix(&socket).expect("bind unix socket");
    let _server = reactor.spawn().expect("spawn reactor");
    let client = RemoteClient::connect(UnixStream::connect(&socket).expect("connect"))
        .expect("protocol handshake");
    println!("\n== remote diagnostics over {} ==", socket.display());

    // Stats with the v5 `detail` flag: per-metric histogram snapshots
    // ride along with the service stats.
    let (stats, detail) = client.stats_detailed().expect("detailed stats");
    println!(
        "service stats: {} live sessions, cache {}",
        stats.live_sessions, stats.cache
    );
    println!(
        "detailed stats carried {} histogram snapshots",
        detail.len()
    );

    // The full diagnostics exchange: histograms, counters, and the
    // flight-event tail, wire-encoded and decoded back.
    let diag = client.diagnostics().expect("diagnostics reply");
    let local = engine.diagnostics();
    let dispatch_remote = diag.histogram("dispatch_ns").expect("dispatch histogram");
    let dispatch_local = local.histogram("dispatch_ns").expect("dispatch histogram");
    println!(
        "dispatch_ns over the wire: count {}, p50 {} ns, p99 {} ns",
        dispatch_remote.total(),
        dispatch_remote.quantile(0.5),
        dispatch_remote.quantile(0.99),
    );
    println!(
        "flight events over the wire: {} (sessions: {})",
        diag.events.len(),
        {
            let mut sessions: Vec<u64> = diag
                .events
                .iter()
                .map(|e| e.session)
                .filter(|&s| s != NO_SESSION)
                .collect();
            sessions.sort_unstable();
            sessions.dedup();
            sessions.len()
        }
    );

    assert!(dispatch_remote.total() > 0, "dispatches must be observed");
    assert_eq!(
        dispatch_remote, dispatch_local,
        "wire round-trip must preserve the histogram exactly"
    );
    assert!(
        !detail.is_empty(),
        "detailed stats must carry histogram snapshots"
    );
    assert!(!diag.events.is_empty(), "flight tail must cross the wire");
    println!("remote diagnostics: ok");
    let _ = std::fs::remove_file(&socket);
}

#[cfg(not(unix))]
fn main() {
    eprintln!("observability requires Unix-domain sockets; see crates/proto tests for the duplex-pipe variant");
}
