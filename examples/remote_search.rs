//! The engine as a network service: one `Reactor` listening on a
//! loopback TCP port and on a Unix-domain socket at once, queried by
//! `RemoteClient`s that never touch the engine in-process.
//!
//! Each client discovers the repository through the service catalog (by
//! *name*, not registration order), submits a query, and streams result
//! batches pushed by the server under cursor-ack backpressure. The same
//! `QuerySpec` then runs in-process through the same `SearchService`
//! trait, and the traces must agree exactly: the wire changes where the
//! engine runs, not what it computes. `tests/conformance.rs` holds that
//! contract for every deployment shape; this example shows it.
//!
//! ```text
//! cargo run --release --example remote_search
//! ```

#[cfg(unix)]
use exsample::{
    core::driver::StopCond,
    engine::{QuerySpec, RepoId, SearchService, SessionReport},
    proto::RemoteClient,
    videosim::ClassId,
};

/// The query every side runs.
#[cfg(unix)]
fn spec(repo: RepoId) -> QuerySpec {
    QuerySpec::new(repo, ClassId(0), StopCond::results(100))
        .chunks(32)
        .seed(11)
}

/// Find the repository by name, submit, and stream the results.
#[cfg(unix)]
fn search<T: std::io::Read + std::io::Write>(
    client: &RemoteClient<T>,
    label: &str,
) -> SessionReport {
    let catalog = client.repos().expect("repository catalog");
    let repo = catalog
        .iter()
        .find(|r| r.name == "city-cam")
        .expect("repo registered under its name");
    let session = client.submit(spec(repo.id)).expect("valid spec");
    println!(
        "\n{label}: {:?} {} ({} frames) -> {session:?}",
        repo.id, repo.name, repo.frames
    );
    let (mut events, mut batches) = (0, 0);
    client
        .stream(session, 0, 8, |snap| {
            batches += 1;
            events += snap.events.len();
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
    assert!(events > 0, "the stream must carry results");
    println!("{label}: {events} events streamed in {batches} batches");
    client.wait(session).expect("final report")
}

#[cfg(unix)]
fn main() {
    use exsample::detect::NoiseModel;
    use exsample::engine::{Engine, EngineConfig};
    use exsample::serve::{Reactor, ServeConfig};
    use exsample::videosim::{ClassSpec, DatasetSpec, SkewSpec};
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

    // ---- server side: one reactor thread, two listeners ----
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let repo = engine.register_repo("city-cam", gt, NoiseModel::none(), 7);
    let socket = std::env::temp_dir().join(format!("exsample-remote-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut reactor = Reactor::new(engine.clone(), ServeConfig::default()).expect("poller");
    let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind tcp");
    reactor.listen_unix(&socket).expect("bind unix socket");
    let handle = reactor.spawn().expect("spawn reactor");
    println!("reactor listening on {addr} and {}", socket.display());

    // ---- one client per transport (the wire protocol only), and the
    // counterfactual: the same spec in-process ----
    let tcp = RemoteClient::connect_tcp(addr).expect("handshake");
    let unix =
        RemoteClient::connect(UnixStream::connect(&socket).expect("connect")).expect("handshake");
    let svc: &dyn SearchService = &*engine;
    let local = svc.wait(svc.submit(spec(repo)).expect("valid spec"));
    let reports = [
        search(&tcp, "tcp"),
        search(&unix, "unix"),
        local.expect("report"),
    ];
    let curve = |r: &SessionReport| {
        let points = r.trace.points();
        points
            .iter()
            .map(|p| (p.samples, p.found))
            .collect::<Vec<_>>()
    };
    println!();
    for (label, report) in ["tcp", "unix", "in-process"].into_iter().zip(&reports) {
        let (found, samples) = (report.trace.found(), report.trace.samples());
        println!("{label:<10} found {found} after {samples} samples");
        assert_eq!(
            curve(report),
            curve(&reports[2]),
            "{label} and in-process differ"
        );
    }
    println!(
        "\nserved {} connections, shed {}; remote and in-process traces are identical — \
         the wire moved the engine, not the results",
        handle.stats().accepted,
        handle.stats().shed
    );
    let _ = std::fs::remove_file(&socket);
}

#[cfg(not(unix))]
fn main() {
    eprintln!(
        "remote_search needs the epoll-backed reactor; tests/conformance.rs holds the same \
         contract over the duplex-pipe server"
    );
}
