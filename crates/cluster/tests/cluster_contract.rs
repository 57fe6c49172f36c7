//! The cluster layer's own contract: catalogs merged with origin tags,
//! shard failures that are contained, reported and recoverable, and
//! placement that survives a restart. That a mixed fleet answers every
//! `SearchService` call like one big engine is held by the workspace's
//! `tests/conformance.rs`.

use exsample_cluster::{split_repo, split_session, ShardRouter, ShardService};
use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    dataset_fingerprint, Engine, EngineConfig, QuerySpec, RepoId, SearchService, ServiceError,
    SessionStatus,
};
use exsample_proto::transport::DuplexStream;
use exsample_proto::{duplex, RemoteClient, SearchServer};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn truth(frames: u64, instances: usize, seed: u64) -> Arc<GroundTruth> {
    Arc::new(
        DatasetSpec::single_class(
            frames,
            ClassSpec::new(
                "car",
                instances,
                120.0,
                SkewSpec::CentralNormal { frac95: 0.2 },
            ),
        )
        .generate(seed),
    )
}

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        ..EngineConfig::default()
    }))
}

/// A transport that can be severed from the outside: reads and writes
/// fail with `ConnectionReset` once `broken` is set.
struct Breakable {
    inner: DuplexStream,
    broken: Arc<AtomicBool>,
}

impl std::io::Read for Breakable {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.broken.load(Ordering::Relaxed) {
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
        if self.broken.load(Ordering::Relaxed) {
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

/// Spawn a server thread for one duplex connection to `server`.
fn serve(server: &Arc<SearchServer>, io: DuplexStream) {
    let srv = server.clone();
    std::thread::spawn(move || {
        let _ = srv.serve_connection(io);
    });
}

/// Resolve a repository's namespaced id through a service's catalog.
fn repo_by_name(svc: &dyn SearchService, name: &str) -> RepoId {
    svc.repos()
        .expect("catalog")
        .into_iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("repository {name:?} in catalog"))
        .id
}

/// The deterministic coordinates of a trace (seconds are charged,
/// scheduling-dependent quantities; samples/found are pure functions of
/// the spec).
fn curve(trace: &exsample_core::driver::SearchTrace) -> Vec<(u64, u64)> {
    trace
        .points()
        .iter()
        .map(|p| (p.samples, p.found))
        .collect()
}

#[test]
fn catalog_merges_with_origin_tagging() {
    let a = engine();
    let b = engine();
    a.register_repo("north", truth(5_000, 10, 1), NoiseModel::none(), 5);
    a.register_repo("south", truth(6_000, 12, 2), NoiseModel::none(), 5);
    b.register_repo("west", truth(7_000, 14, 3), NoiseModel::none(), 5);
    let router = ShardRouter::new(vec![
        // Given out of order on purpose: slots sort by name.
        ("s2".into(), b.clone() as ShardService),
        ("s1".into(), a.clone() as ShardService),
    ]);
    assert_eq!(router.shard_names(), ["s1", "s2"]);

    let merged = router.repos().expect("catalog");
    assert_eq!(merged.len(), 3);
    // Ids are namespaced and every repo routes back to its origin shard.
    for info in &merged {
        let (slot, local) = split_repo(info.id);
        let origin = router.shard_of_repo(info.id).expect("valid slot");
        match info.name.as_str() {
            "north" | "south" => {
                assert_eq!((slot, origin), (0, "s1"));
                assert_eq!(a.repos()[local.0 as usize].name, info.name);
            }
            "west" => {
                assert_eq!((slot, origin), (1, "s2"));
                assert_eq!(b.repos()[local.0 as usize].name, info.name);
            }
            other => panic!("unexpected repo {other:?}"),
        }
    }
    // The tagged form groups by shard, same ids.
    let tagged = router.repos_by_shard().expect("catalog");
    assert_eq!(tagged.len(), 2);
    assert_eq!(tagged[0].0, "s1");
    assert_eq!(tagged[0].1.len(), 2);
    assert_eq!(tagged[1].0, "s2");
    assert_eq!(tagged[1].1.len(), 1);
    let flattened: Vec<_> = tagged.into_iter().flat_map(|(_, i)| i).collect();
    assert_eq!(flattened, merged);
}

#[test]
fn shard_failure_is_typed_contained_and_revivable() {
    let healthy = engine();
    healthy.register_repo("steady-cam", truth(20_000, 60, 4), NoiseModel::none(), 5);

    let remote_engine = engine();
    remote_engine.register_repo("flaky-cam", truth(20_000, 60, 8), NoiseModel::none(), 5);
    let server = Arc::new(SearchServer::new(remote_engine.clone()));
    let (client_io, server_io) = duplex();
    serve(&server, server_io);
    let broken = Arc::new(AtomicBool::new(false));
    let remote = Arc::new(
        RemoteClient::connect(Breakable {
            inner: client_io,
            broken: broken.clone(),
        })
        .expect("handshake"),
    );

    let router = ShardRouter::new(vec![
        ("steady".into(), healthy.clone() as ShardService),
        ("flaky".into(), remote.clone() as ShardService),
    ]);
    let svc: &dyn SearchService = &router;

    // One session per shard, both submitted while everything is up.
    let steady_id = svc
        .submit(
            QuerySpec::new(
                repo_by_name(svc, "steady-cam"),
                ClassId(0),
                StopCond::results(15),
            )
            .seed(1),
        )
        .expect("valid spec");
    let flaky_repo = repo_by_name(svc, "flaky-cam");
    let flaky_id = svc
        .submit(QuerySpec::new(flaky_repo, ClassId(0), StopCond::results(15)).seed(2))
        .expect("valid spec");
    // Let the remote session finish server-side before the link dies:
    // sessions outlive connections.
    let flaky_report = svc.wait(flaky_id).expect("completes while link is up");

    // Sever the link. The next call routed to the flaky shard fails with
    // the *typed* error and marks it down; later calls fail fast.
    broken.store(true, Ordering::Relaxed);
    match svc.poll(flaky_id, 0, None).unwrap_err() {
        ServiceError::ShardDown { shard, cause } => {
            assert_eq!(shard, "flaky");
            assert!(!cause.is_empty());
        }
        other => panic!("expected ShardDown, got {other:?}"),
    }
    assert!(matches!(
        svc.submit(QuerySpec::new(flaky_repo, ClassId(0), StopCond::results(1))),
        Err(ServiceError::ShardDown { .. })
    ));
    let health = router.health();
    assert_eq!(health.len(), 2);
    assert!(health
        .iter()
        .any(|h| h.name == "flaky" && !h.up && h.cause.is_some()));
    assert!(health.iter().any(|h| h.name == "steady" && h.up));

    // The healthy shard is unaffected — its session completes — and the
    // degraded-tolerant stats still report it.
    let steady_report = svc.wait(steady_id).expect("healthy shard unaffected");
    assert_eq!(steady_report.status, SessionStatus::Done);
    let cluster = router.cluster_stats();
    assert_eq!(cluster.shards_down(), 1);
    assert!(cluster.cache.misses > 0, "healthy shard still reported");
    // The strict trait-level stats and the merged catalog are typed
    // errors, not panics or silent partials.
    assert!(matches!(svc.stats(), Err(ServiceError::ShardDown { .. })));
    assert!(matches!(svc.repos(), Err(ServiceError::ShardDown { .. })));

    // Repair the backend (fresh connection), revive the shard, and the
    // pre-failure session's report is still there: sessions survived the
    // dead link, the router survived the dead shard.
    let (client_io, server_io) = duplex();
    serve(&server, server_io);
    remote
        .reconnect(Breakable {
            inner: client_io,
            broken: Arc::new(AtomicBool::new(false)),
        })
        .expect("re-handshake");
    assert!(router.revive("flaky"));
    assert!(!router.revive("no-such-shard"));
    let revived = svc.wait(flaky_id).expect("session outlived the dead link");
    assert_eq!(curve(&revived.trace), curve(&flaky_report.trace));
    assert!(router.health().iter().all(|h| h.up));
    assert!(svc.repos().is_ok());
}

#[test]
fn placement_of_persisted_repo_survives_restart_with_permuted_shards() {
    let dir = std::env::temp_dir().join(format!(
        "exsample-cluster-placement-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let names = ["alpha", "beta", "gamma"];
    let gt = truth(20_000, 60, 33);
    let fingerprint = dataset_fingerprint(&gt);
    let owner = names[exsample_cluster::place(&names, "city-cam", fingerprint).unwrap()];

    // Engines keyed by shard name; the owner persists to `dir`.
    let build = |name: &str| -> Arc<Engine> {
        let mut config = EngineConfig {
            workers: 2,
            quantum: 8,
            ..EngineConfig::default()
        };
        if name == owner {
            config.persist = Some(exsample_persist::PersistConfig::new(&dir).fingerprint(7));
        }
        Arc::new(Engine::new(config))
    };
    let spec = |repo: RepoId| {
        QuerySpec::new(repo, ClassId(0), StopCond::results(12))
            .seed(5)
            .warm_start(false)
    };

    // First life: shards given in name order.
    let engines: Vec<Arc<Engine>> = names.iter().map(|n| build(n)).collect();
    let router = ShardRouter::new(
        names
            .iter()
            .zip(&engines)
            .map(|(n, e)| (n.to_string(), e.clone() as ShardService))
            .collect(),
    );
    assert_eq!(router.place("city-cam", fingerprint), owner);
    engines[names.iter().position(|n| *n == owner).unwrap()].register_repo(
        "city-cam",
        gt.clone(),
        NoiseModel::none(),
        5,
    );
    let repo = repo_by_name(&router, "city-cam");
    let id = router.submit(spec(repo)).expect("valid spec");
    let first = router.wait(id).expect("completes");
    let paid = router.stats().unwrap().cache.misses;
    assert!(paid > 0);
    drop(router);
    drop(engines); // flush the owner's detection log

    // Second life: same shard *set*, permuted list order, rebuilt
    // engines. Placement, the namespaced repo id, and the persisted
    // detections must all survive.
    let permuted = ["gamma", "alpha", "beta"];
    let engines: Vec<Arc<Engine>> = permuted.iter().map(|n| build(n)).collect();
    let router = ShardRouter::new(
        permuted
            .iter()
            .zip(&engines)
            .map(|(n, e)| (n.to_string(), e.clone() as ShardService))
            .collect(),
    );
    assert_eq!(
        router.place("city-cam", fingerprint),
        owner,
        "placement moved"
    );
    engines[permuted.iter().position(|n| *n == owner).unwrap()].register_repo(
        "city-cam",
        gt,
        NoiseModel::none(),
        5,
    );
    assert_eq!(
        repo_by_name(&router, "city-cam"),
        repo,
        "namespaced repo id changed across restart"
    );
    let id = router.submit(spec(repo)).expect("valid spec");
    let replay = router.wait(id).expect("completes");
    assert_eq!(curve(&replay.trace), curve(&first.trace));
    // Served entirely from the owner's container: the fleet paid zero
    // detector invocations for the replay, and the fleet-level sum shows
    // where the frames came from.
    let stats = router.stats().expect("all shards reachable");
    assert_eq!(stats.cache.misses, 0, "warm shard must not re-detect");
    assert!(stats.cache.hits > 0);
    let persist = stats.persist.expect("the owner persists");
    assert_eq!(persist.container_hits, paid);
    assert!(persist.container_frames > 0);
    let (slot, _) = split_session(id);
    assert_eq!(router.shard_names()[slot], owner);
    drop(router);
    let _ = std::fs::remove_dir_all(&dir);
}
