//! Stress of the engine's wake path: per-session progress cells, the
//! one-shot watches their parked callers leave, and `cancel` / `forget`
//! racing them.
//!
//! `THREADS` client threads run seed-drawn schedules of `poll_wait` /
//! `wait` / `cancel` / `forget` / `poll` over the same `SESSIONS`
//! sessions. Whatever the interleaving:
//!
//! * every blocking call returns — the whole schedule runs under a
//!   watchdog, and every session is finite, so a call still parked when
//!   the watchdog fires outlived its session's finish by that long;
//! * each consumer's stream of a session is a prefix of that session's
//!   one event log — every event exactly once, in order — and a consumer
//!   that saw the session end holds the whole log;
//! * a session is unknown only once a `forget` of it has been issued.
//!
//! The schedule is a pure function of the seed: a failure prints it, and
//! `EXSAMPLE_STRESS_SEED=<seed>` replays that schedule alone.

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    Engine, EngineConfig, QuerySpec, RepoId, ResultEvent, ServiceError, SessionId, SessionStatus,
};
use exsample_stats::Rng64;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: usize = 10;
const THREADS: usize = 6;
const STEPS: usize = 60;
const WATCHDOG: Duration = Duration::from_secs(60);

fn repository() -> Arc<GroundTruth> {
    Arc::new(
        DatasetSpec::single_class(
            30_000,
            ClassSpec::new("car", 80, 40.0, SkewSpec::CentralNormal { frac95: 0.2 }),
        )
        .generate(29),
    )
}

fn engine(truth: &Arc<GroundTruth>) -> (Arc<Engine>, RepoId) {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 3,
        quantum: 4,
        ..EngineConfig::default()
    }));
    let repo = engine.register_repo("stress-cam", truth.clone(), NoiseModel::none(), 5);
    (engine, repo)
}

/// Session `i` of schedule `seed`. Every third target is out of reach:
/// that session ends by cancellation or by exhausting the repository.
fn spec(repo: RepoId, seed: u64, i: usize) -> QuerySpec {
    let target = if i % 3 == 2 {
        u64::MAX
    } else {
        10 + 3 * i as u64
    };
    QuerySpec::new(repo, ClassId(0), StopCond::results(target))
        .chunks(8)
        .batch(1 + (i % 4) as u32)
        .seed(seed.wrapping_mul(1_000).wrapping_add(i as u64))
}

/// The part of an event that is a pure function of the session's spec:
/// its charged `seconds` depend on which of two overlapping sessions
/// happened to pay for a shared frame.
fn keys(events: &[ResultEvent]) -> Vec<(u64, u32, u64)> {
    events
        .iter()
        .map(|e| (e.frame, e.new_results, e.samples))
        .collect()
}

/// What one client thread saw of one session.
#[derive(Default)]
struct Seen {
    events: Vec<ResultEvent>,
    cursor: u64,
    /// A snapshot or report said the session was over and the log drained.
    ended: bool,
}

fn below(rng: &mut Rng64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// One client thread's schedule. Returns what it saw per session.
fn client(
    engine: &Engine,
    ids: &[SessionId],
    forgetting: &[AtomicBool],
    mut rng: Rng64,
) -> Vec<Seen> {
    let mut seen: Vec<Seen> = ids.iter().map(|_| Seen::default()).collect();
    // A session may be unknown only after some thread set out to forget it.
    let gone = |s: usize, e: ServiceError| {
        assert_eq!(e, ServiceError::UnknownSession(ids[s]));
        assert!(
            forgetting[s].load(Ordering::SeqCst),
            "session {s} vanished unforgotten"
        );
    };
    for _ in 0..STEPS {
        let s = below(&mut rng, ids.len() as u64) as usize;
        let id = ids[s];
        match below(&mut rng, 10) {
            // Stream the next batch, parking until there is one.
            0..=4 => {
                let window = 1 + below(&mut rng, 5) as u32;
                let blocking = below(&mut rng, 4) != 0;
                let me = &mut seen[s];
                let snap = if blocking {
                    engine.poll_wait(id, me.cursor, Some(window))
                } else {
                    engine.poll_window(id, me.cursor, Some(window))
                };
                match snap {
                    Ok(snap) => {
                        assert!(snap.events.len() as u32 <= window);
                        assert_eq!(snap.next_cursor, me.cursor + snap.events.len() as u64);
                        if blocking {
                            assert!(
                                !snap.events.is_empty() || snap.status != SessionStatus::Running,
                                "poll_wait returned with nothing to report"
                            );
                        }
                        me.ended |= snap.status != SessionStatus::Running
                            && (snap.events.len() as u32) < window;
                        me.cursor = snap.next_cursor;
                        me.events.extend(snap.events);
                    }
                    Err(e) => gone(s, e),
                }
            }
            5 | 6 => match engine.wait(id) {
                Ok(report) => assert_ne!(report.status, SessionStatus::Running),
                Err(e) => gone(s, e),
            },
            7 => {
                if let Err(e) = engine.cancel(id) {
                    gone(s, e);
                }
            }
            _ => {
                forgetting[s].store(true, Ordering::SeqCst);
                match engine.forget(id) {
                    Ok(report) => assert_ne!(report.status, SessionStatus::Running),
                    Err(ServiceError::SessionRunning(_)) => {}
                    Err(e) => gone(s, e),
                }
            }
        }
    }
    seen
}

fn stress(seed: u64) {
    let truth = repository();
    // The one event log each session can produce, from an undisturbed
    // run of the same specs (a trace is a pure function of its spec;
    // cancellation only cuts it short).
    let reference: Vec<Vec<(u64, u32, u64)>> = {
        let (engine, repo) = engine(&truth);
        let ids: Vec<SessionId> = (0..SESSIONS)
            .map(|i| engine.submit(spec(repo, seed, i)).expect("valid spec"))
            .collect();
        ids.iter()
            .map(|&id| {
                engine.wait(id).expect("session finishes");
                keys(&engine.poll(id, 0).expect("known session").events)
            })
            .collect()
    };

    let (engine, repo) = engine(&truth);
    let ids: Arc<Vec<SessionId>> = Arc::new(
        (0..SESSIONS)
            .map(|i| engine.submit(spec(repo, seed, i)).expect("valid spec"))
            .collect(),
    );
    let forgetting: Arc<Vec<AtomicBool>> =
        Arc::new((0..SESSIONS).map(|_| AtomicBool::new(false)).collect());
    let (done, finished) = channel();
    let clients: Vec<_> = (0..THREADS)
        .map(|t| {
            let (engine, ids, forgetting, done) = (
                engine.clone(),
                ids.clone(),
                forgetting.clone(),
                done.clone(),
            );
            let rng = Rng64::new(seed).fork(t as u64 + 1);
            std::thread::spawn(move || {
                let seen = client(&engine, &ids, &forgetting, rng);
                let _ = done.send((t, seen));
            })
        })
        .collect();
    drop(done);

    let mut reported = [false; THREADS];
    for _ in 0..THREADS {
        let (t, seen) = match finished.recv_timeout(WATCHDOG) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => panic!(
                "seed {seed}: a blocking call outlived the watchdog; finished threads: {reported:?}"
            ),
            // A client died of a failed assertion: its message is on
            // stderr, under this seed.
            Err(RecvTimeoutError::Disconnected) => panic!("seed {seed}: a client panicked"),
        };
        reported[t] = true;
        for (s, seen) in seen.iter().enumerate() {
            let log = &reference[s];
            assert!(
                seen.events.len() <= log.len() && keys(&seen.events) == log[..seen.events.len()],
                "seed {seed}: thread {t}'s stream of session {s} is not a prefix of its log"
            );
            assert_eq!(seen.cursor, seen.events.len() as u64);
            if seen.ended {
                // Over means drained: whoever else saw it end agrees, and
                // an uncancelled session's log is the reference, whole.
                if let Ok(all) = engine.poll(ids[s], 0) {
                    assert_eq!(seen.events, all.events, "seed {seed}: session {s}");
                }
            }
        }
    }
    for client in clients {
        client.join().expect("reported, so it did not panic");
    }
}

#[test]
fn blocking_calls_always_return_and_streams_are_exactly_once_in_order() {
    match std::env::var("EXSAMPLE_STRESS_SEED") {
        Ok(seed) => stress(seed.parse().expect("EXSAMPLE_STRESS_SEED is a u64")),
        Err(_) => (1..=4).for_each(stress),
    }
}
