//! A three-shard search fleet behind one `SearchService`: two in-process
//! engines plus one engine across a Unix-domain socket, fronted by a
//! `ShardRouter`.
//!
//! Repositories are placed on shards by rendezvous hashing over their
//! durable `(name, dataset fingerprint)` identity; overlapping queries
//! are submitted through the router exactly as they would be against a
//! single engine. The same batch then runs on one engine owning all the
//! footage, and the traces must agree exactly: sharding moves queries
//! across machines, not results.
//!
//! ```text
//! cargo run --release --example cluster_search
//! ```
//!
//! The example asserts the fleet found results and the traces matched;
//! `tests/conformance.rs` holds that contract for a mixed fleet.

#[cfg(unix)]
fn main() {
    use exsample::cluster::{ShardRouter, ShardService};
    use exsample::core::driver::StopCond;
    use exsample::detect::NoiseModel;
    use exsample::engine::{dataset_fingerprint, Engine, EngineConfig, QuerySpec, SearchService};
    use exsample::proto::RemoteClient;
    use exsample::serve::{Reactor, ServeConfig};
    use exsample::videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    // Four repositories of distinct footage: rare objects clustered in
    // a hot region, so the two queries per repository overlap heavily.
    let footage = |seed: u64| -> Arc<GroundTruth> {
        Arc::new(
            DatasetSpec::single_class(
                60_000,
                ClassSpec::new("car", 90, 60.0, SkewSpec::CentralNormal { frac95: 0.15 }),
            )
            .generate(seed),
        )
    };
    let repos = [
        ("downtown", footage(2026)),
        ("harbor", footage(2027)),
        ("airport", footage(2028)),
        ("stadium", footage(2029)),
    ];

    // ---- the fleet: two in-process shards + one across a socket ----
    let local_a = Arc::new(Engine::new(EngineConfig::default()));
    let local_b = Arc::new(Engine::new(EngineConfig::default()));
    let remote_engine = Arc::new(Engine::new(EngineConfig::default()));
    let socket = std::env::temp_dir().join(format!("exsample-cluster-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut reactor = Reactor::new(remote_engine.clone(), ServeConfig::default()).expect("poller");
    reactor.listen_unix(&socket).expect("bind unix socket");
    let _server = reactor.spawn().expect("spawn reactor");
    let remote = Arc::new(
        RemoteClient::connect(UnixStream::connect(&socket).expect("connect"))
            .expect("protocol handshake"),
    );
    println!("shard-c serving over {}", socket.display());

    let router = ShardRouter::new(vec![
        ("shard-a".into(), local_a.clone() as ShardService),
        ("shard-b".into(), local_b.clone() as ShardService),
        ("shard-c".into(), remote as ShardService),
    ]);

    // Rendezvous placement: each repository registers on the shard that
    // owns its durable identity (the remote shard's engine is fed
    // through its local handle — the wire serves queries, not ingest).
    println!("\nrendezvous placement:");
    for (name, gt) in &repos {
        let owner = router.place(name, dataset_fingerprint(gt));
        println!("  {name:<10} -> {owner}");
        let engine = match owner {
            "shard-a" => &local_a,
            "shard-b" => &local_b,
            "shard-c" => &remote_engine,
            other => unreachable!("unknown shard {other}"),
        };
        engine.register_repo(name, gt.clone(), NoiseModel::none(), 7);
    }

    // The merged catalog, with origin-shard tagging.
    println!("\nfleet catalog (scatter-gathered):");
    for (shard, infos) in router.repos_by_shard().expect("all shards reachable") {
        for info in infos {
            println!(
                "  {:<8} {:?}  {:<10} {:>6} frames, fingerprint {:016x}",
                shard, info.id, info.name, info.frames, info.dataset_fingerprint
            );
        }
    }

    // ---- overlapping queries through the router ----
    let svc: &dyn SearchService = &router;
    let spec_for = |svc: &dyn SearchService, q: u64| {
        let (name, _) = &repos[(q % 4) as usize];
        let repo = svc
            .repos()
            .expect("catalog")
            .into_iter()
            .find(|r| &r.name == name)
            .expect("repository registered")
            .id;
        QuerySpec::new(repo, ClassId(0), StopCond::results(75))
            .chunks(16)
            .seed(100 + q)
    };
    let ids: Vec<_> = (0..8)
        .map(|q| svc.submit(spec_for(svc, q)).expect("valid spec"))
        .collect();
    println!(
        "\nsubmitted {} overlapping queries across the fleet:",
        ids.len()
    );
    let mut cluster_found = 0u64;
    let mut cluster_curves = Vec::new();
    for (q, id) in ids.into_iter().enumerate() {
        let report = svc.wait(id).expect("session completes");
        let shard = router.shard_of_session(id).expect("routed session");
        println!(
            "  query {q}: {:>3} found after {:>6} samples  ({id:?} on {shard})",
            report.trace.found(),
            report.trace.samples(),
        );
        cluster_found += report.trace.found();
        cluster_curves.push(
            report
                .trace
                .points()
                .iter()
                .map(|p| (p.samples, p.found))
                .collect::<Vec<_>>(),
        );
    }

    // Fleet-wide statistics, summed across all three shards.
    let stats = router.cluster_stats();
    println!("\nper-shard cache behaviour:");
    for (shard, s) in &stats.shards {
        match s {
            Some(s) => println!("  {shard:<8} {}", s.cache),
            None => println!("  {shard:<8} DOWN"),
        }
    }
    println!("fleet-wide: {}", stats.cache);
    println!("fleet live sessions: {}", stats.live_sessions);

    // ---- the counterfactual: one engine owning all the footage ----
    let single = Arc::new(Engine::new(EngineConfig::default()));
    for (name, gt) in &repos {
        single.register_repo(name, gt.clone(), NoiseModel::none(), 7);
    }
    let svc: &dyn SearchService = &*single;
    let ids: Vec<_> = (0..8)
        .map(|q| svc.submit(spec_for(svc, q)).expect("valid spec"))
        .collect();
    let mut single_found = 0u64;
    let mut single_curves = Vec::new();
    for id in ids {
        let report = svc.wait(id).expect("session completes");
        single_found += report.trace.found();
        single_curves.push(
            report
                .trace
                .points()
                .iter()
                .map(|p| (p.samples, p.found))
                .collect::<Vec<_>>(),
        );
    }

    println!("\ncluster found total: {cluster_found}");
    println!("single found total: {single_found}");
    println!(
        "fleet detector invocations: {} (single engine: {})",
        stats.cache.misses,
        single.detector_invocations()
    );
    assert!(cluster_found > 0, "the fleet must find results");
    assert_eq!(
        cluster_curves, single_curves,
        "cluster and single-engine discovery curves must be identical"
    );
    assert_eq!(
        stats.cache.misses,
        single.detector_invocations(),
        "a partitioned corpus must pay the same detector bill either way"
    );
    println!("identical traces: ok");
    println!("\nthe router moved queries across shards — not results");
    let _ = std::fs::remove_file(&socket);
}

#[cfg(not(unix))]
fn main() {
    eprintln!(
        "cluster_search requires Unix-domain sockets; tests/conformance.rs runs a mixed fleet \
         over TCP"
    );
}
