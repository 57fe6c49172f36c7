//! The engine as a network service: a `Reactor` listening on a
//! Unix-domain socket, queried by a `RemoteClient` that never touches
//! the engine in-process.
//!
//! The client discovers the repository through the service catalog (by
//! *name*, not registration order), submits a query, and streams result
//! batches pushed by the server under cursor-ack backpressure. The same
//! `QuerySpec` is then run in-process through the same `SearchService`
//! trait, and the traces must agree exactly: the wire changes where the
//! engine runs, not what it computes.
//!
//! ```text
//! cargo run --release --example remote_search
//! ```
//!
//! Prints machine-readable `streamed events:` / `remote found:` lines
//! (CI asserts the stream was nonempty and the traces identical).

#[cfg(unix)]
fn main() {
    use exsample::core::driver::StopCond;
    use exsample::detect::NoiseModel;
    use exsample::engine::{Engine, EngineConfig, QuerySpec, SearchService};
    use exsample::proto::RemoteClient;
    use exsample::serve::{Reactor, ServeConfig};
    use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    // One shared repository: rare objects clustered in a hot region.
    let gt = Arc::new(
        DatasetSpec::single_class(
            100_000,
            ClassSpec::new("car", 120, 60.0, SkewSpec::CentralNormal { frac95: 0.15 }),
        )
        .generate(2026),
    );

    // ---- server side ----
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine.register_repo("city-cam", gt, NoiseModel::none(), 7);
    let socket = std::env::temp_dir().join(format!("exsample-remote-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut reactor = Reactor::new(engine.clone(), ServeConfig::default()).expect("poller");
    reactor.listen_unix(&socket).expect("bind unix socket");
    let _server = reactor.spawn().expect("spawn reactor");
    println!("server listening on {}", socket.display());

    // ---- client side (wire protocol only from here on) ----
    let stream = UnixStream::connect(&socket).expect("connect");
    let client = RemoteClient::connect(stream).expect("protocol handshake");

    let catalog = client.repos().expect("repository catalog");
    println!("\nrepository catalog served to the client:");
    for info in &catalog {
        println!(
            "  {:?}  {:<10} {:>7} frames, {} classes, fingerprint {:016x}",
            info.id, info.name, info.frames, info.classes, info.dataset_fingerprint
        );
    }
    let repo = catalog
        .iter()
        .find(|r| r.name == "city-cam")
        .expect("repo registered under its name")
        .id;

    let spec = QuerySpec::new(repo, ClassId(0), StopCond::results(100))
        .chunks(32)
        .seed(11);
    let session = client.submit(spec.clone()).expect("valid spec");
    println!("\nsubmitted {session:?}; streaming batches (window = 8 events):");
    let mut streamed_events = 0u64;
    let mut batches = 0u64;
    client
        .stream(session, 0, 8, |snap| {
            batches += 1;
            streamed_events += snap.events.len() as u64;
            if let (Some(first), Some(last)) = (snap.events.first(), snap.events.last()) {
                println!(
                    "  batch {batches:>3}: {} events (frames {:>6}..{:>6})  {:>4} found after {:>6} samples",
                    snap.events.len(),
                    first.frame,
                    last.frame,
                    snap.found,
                    snap.samples
                );
            }
        })
        .expect("stream to completion");
    let remote = client.wait(session).expect("final report");

    // ---- the counterfactual: the same spec, in-process ----
    let svc: &dyn SearchService = &*engine;
    let local_id = svc.submit(spec).expect("valid spec");
    let local = svc.wait(local_id).expect("final report");

    println!("\nstreamed events: {streamed_events}");
    println!("streamed batches: {batches}");
    println!(
        "remote found: {} after {} samples",
        remote.trace.found(),
        remote.trace.samples()
    );
    println!(
        "local  found: {} after {} samples",
        local.trace.found(),
        local.trace.samples()
    );
    assert!(streamed_events > 0, "the stream must carry results");
    assert_eq!(remote.trace.found(), local.trace.found());
    assert_eq!(remote.trace.samples(), local.trace.samples());
    let curve = |t: &exsample::core::driver::SearchTrace| {
        t.points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        curve(&remote.trace),
        curve(&local.trace),
        "remote and in-process discovery curves must be identical"
    );
    println!(
        "\nremote and in-process traces are identical — the wire moved the engine, not the results"
    );
    let _ = std::fs::remove_file(&socket);
}

#[cfg(not(unix))]
fn main() {
    eprintln!("remote_search requires Unix-domain sockets; use the duplex-pipe tests instead");
}
