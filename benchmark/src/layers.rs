//! Layer replays: each workspace crate timed from outside, through its
//! public functions, with the workload's own inputs — the frame sequence
//! its sessions sampled, the detections its detector produced, the
//! messages its results encode to, the log its misses wrote.
//!
//! These run after the timed part of a traced run and feed the per-layer
//! metrics and the waterfall. Nothing here is gated; it explains.

use crate::stats::{bench_ns, median, percentile};
use crate::sys::thread_cpu_s;
use crate::workloads::{
    connect, drive_probe, drive_remote_probe, fresh_dir, Client, Plan, RemoteRig, Rep, DET_SEED,
    REPO_NAME,
};
use exsample::cluster::{ShardRouter, ShardService};
use exsample::colstore::{compact, container_path, ColumnarStore};
use exsample::core::driver::{run_search_batched, SearchCost, StopCond};
use exsample::core::{ExSampleConfig, Feedback, SamplingPolicy};
use exsample::detect::{
    dispatch_batch, Detection, OracleDiscriminator, QueryOracle, SimulatedDetector,
};
use exsample::engine::{
    Engine, FrameCache, Lookup, QuerySpec, RepoId, Scheduler, SearchService, SessionId,
    SessionSnapshot,
};
use exsample::obs::{FlightRecorder, LatencyHistogram, SpanCollector, SpanId, Stage, TraceId};
use exsample::persist::{scan_detections, BeliefStore, DetectionLog};
use exsample::proto::{decode_message, duplex, encode_message, Framed, Message, SearchServer};
use exsample::serve::framebuf::FrameBuf;
use exsample::stats::dist::{Continuous, Gamma};
use exsample::stats::Rng64;
use exsample::store::{Container, ContainerWriter};
use exsample::videosim::ClassId;
use std::collections::HashSet;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Most recorded frames a per-frame replay walks (the sampler replay
/// always walks all of them: its frame count is a correctness check).
const REPLAY_FRAMES: usize = 200_000;
/// Most sessions of the op list the store and wire probes run.
const PROBE_SESSIONS: usize = 256;
/// Result target of the short sessions the call-cost probes submit: the
/// cost of a `submit` depends on the spec's chunk count, not its target.
const SHORT_TARGET: u64 = 50;

pub type Values = Vec<(&'static str, f64)>;

/// Iteration counts, divided by ten in `--smoke` runs.
#[derive(Clone, Copy)]
struct Scale(usize);

impl Scale {
    fn n(self, full: usize) -> usize {
        (full / self.0).max(8)
    }
}

/// What the sampler replay recorded: per session, the frames drawn and
/// the feedback each produced.
struct Recorded {
    sessions: Vec<Vec<(u64, Feedback)>>,
    frames: u64,
    first_result_frames: Vec<f64>,
}

impl Recorded {
    fn frame_seq(&self) -> Vec<u64> {
        self.sessions
            .iter()
            .flatten()
            .map(|(f, _)| *f)
            .take(REPLAY_FRAMES)
            .collect()
    }
}

fn detector(plan: &Plan) -> SimulatedDetector {
    plan.detector(ClassId(0))
}

/// Nanoseconds per item since `t0`, for a loop that handled `items`.
fn ns_per(t0: Instant, items: u64) -> f64 {
    t0.elapsed().as_nanos() as f64 / items.max(1) as f64
}

/// Microseconds since `t0`.
fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// The value recorded under `name` (0 when absent).
pub fn value(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, x)| *x)
}

/// Replay every session of the op list through the library driver
/// (`ExSample` + `QueryOracle`), recording what was drawn.
fn record(plan: &Plan) -> Recorded {
    let mut out = Recorded {
        sessions: Vec::with_capacity(plan.specs.len()),
        frames: 0,
        first_result_frames: Vec::new(),
    };
    for spec in &plan.specs {
        let mut oracle = QueryOracle::new(detector(plan), OracleDiscriminator::new());
        let mut seq = Vec::new();
        let mut process = |frame| {
            let fb = oracle.process(frame);
            seq.push((frame, fb));
            fb
        };
        let trace = run_search_batched(
            &mut plan.sampler(spec),
            &mut process,
            &SearchCost::per_sample(0.0),
            &spec.stop,
            &mut Rng64::new(spec.seed),
            spec.batch.unwrap_or(1) as usize,
        );
        out.frames += trace.samples();
        if let Some(p) = trace.points().first() {
            out.first_result_frames.push(p.samples as f64);
        }
        out.sessions.push(seq);
    }
    out
}

/// `core`, `detect`, `store`, `stats`: the per-frame path of a session,
/// one layer at a time.
fn frame_path(plan: &Plan, rec: &Recorded, scale: Scale) -> Values {
    let mut v = Values::new();

    // The sampler alone: the same searches with the recorded feedback
    // handed back, so no detector or discriminator time is inside.
    let t0 = Instant::now();
    for (spec, seq) in plan.specs.iter().zip(&rec.sessions) {
        let mut next = seq.iter();
        let mut canned = |_frame| next.next().map_or(Feedback::NONE, |(_, fb)| *fb);
        black_box(run_search_batched(
            &mut plan.sampler(spec),
            &mut canned,
            &SearchCost::per_sample(0.0),
            &spec.stop,
            &mut Rng64::new(spec.seed),
            spec.batch.unwrap_or(1) as usize,
        ));
    }
    v.push(("core.replay_ns_per_frame", ns_per(t0, rec.frames)));
    v.push((
        "core.frames_to_first_result",
        median(&rec.first_result_frames),
    ));

    // Draw cost depends on how far the chunk beliefs have diverged (a
    // fresh policy shares one belief across all chunks), so draws are
    // timed on a sampler that has first run one of the workload's own
    // searches at that chunk count.
    let searched = |chunks: usize| {
        let mut spec = plan.specs[0].clone();
        spec.chunks = chunks;
        let mut policy = plan.sampler(&spec);
        crate::run::library_search(plan, &spec, &mut policy);
        policy
    };
    let draws = |chunks: usize, n: usize| {
        let mut policy = searched(chunks);
        let mut rng = Rng64::new(1);
        bench_ns(5, n, || {
            black_box(policy.next_frame(&mut rng));
        })
    };
    v.push(("core.next_frame_ns_m1024", draws(1024, scale.n(4_000))));
    v.push(("core.next_frame_ns_m16", draws(16, scale.n(40_000))));
    {
        let mut policy = searched(16);
        let mut rng = Rng64::new(1);
        let mut out = Vec::with_capacity(16);
        let per_batch = bench_ns(5, scale.n(2_500), || {
            policy.next_batch(16, &mut rng, &mut out);
            black_box(&out);
        });
        v.push(("core.next_batch_ns_per_frame_b16", per_batch / 16.0));
    }
    {
        // Feedback for frames the policy really drew, results included.
        let spec = &plan.specs[0];
        let mut policy = plan.sampler(spec);
        let seq = &rec.sessions[0];
        let mut rng = Rng64::new(spec.seed);
        let drawn: Vec<u64> = (0..seq.len())
            .filter_map(|_| policy.next_frame(&mut rng))
            .collect();
        let t0 = Instant::now();
        for (frame, (_, fb)) in drawn.iter().zip(seq) {
            policy.feedback(*frame, *fb);
        }
        v.push(("core.feedback_ns", ns_per(t0, drawn.len() as u64)));
    }

    let frames = rec.frame_seq();
    {
        let mut oracle = QueryOracle::new(detector(plan), OracleDiscriminator::new());
        let t0 = Instant::now();
        for &f in &frames {
            black_box(oracle.process(f));
        }
        v.push(("detect.process_ns", ns_per(t0, frames.len() as u64)));
        let bank = [detector(plan)];
        let mut scratch = Vec::new();
        let t0 = Instant::now();
        for batch in frames.chunks(16) {
            black_box(dispatch_batch(&bank, batch, &mut scratch));
        }
        v.push((
            "detect.dispatch_batch_ns_per_frame_b16",
            ns_per(t0, frames.len() as u64),
        ));
    }
    {
        // The container the engine builds at registration: empty payloads,
        // GOP structure only.
        let mut writer = ContainerWriter::new(plan.engine_config(None).gop_size);
        for _ in 0..plan.gt.frames {
            writer.push_frame(&[]);
        }
        let mut container = Container::open(writer.finish()).expect("self-built container");
        let t0 = Instant::now();
        for &f in &frames {
            black_box(container.read_frame(f).expect("frame in range"));
        }
        v.push(("store.read_frame_ns", ns_per(t0, frames.len() as u64)));
    }
    {
        // Belief shapes as a session meets them: N1 + alpha0 over a few
        // observed N1, rate n + beta0.
        let prior = ExSampleConfig::default().prior;
        let beliefs: Vec<Gamma> = (0..8)
            .map(|k| {
                Gamma::new(
                    prior.alpha0 + f64::from(k % 4),
                    prior.beta0 + f64::from(k * 40),
                )
            })
            .collect();
        let mut rng = Rng64::new(2);
        let mut i = 0;
        v.push((
            "stats.gamma_sample_ns",
            bench_ns(5, scale.n(400_000), || {
                i = (i + 1) % beliefs.len();
                black_box(beliefs[i].sample(&mut rng));
            }),
        ));
    }
    v
}

/// `videosim` and `engine.register_repo_s`: what set-up is made of.
fn set_up_parts(plan: &Plan) -> Values {
    let generate: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(plan.dataset.generate(plan.data_seed));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let register: Vec<f64> = (0..3)
        .map(|_| {
            let engine = Engine::new(plan.engine_config(None));
            let t0 = Instant::now();
            engine.register_repo(REPO_NAME, plan.gt.clone(), plan.noise, DET_SEED);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    vec![
        ("videosim.generate_s", median(&generate)),
        ("engine.register_repo_s", median(&register)),
    ]
}

/// The op list's specs with a short result target.
fn short_specs(plan: &Plan, n: usize) -> Vec<QuerySpec> {
    plan.specs
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(i, s)| {
            let mut s = s.clone();
            s.stop = StopCond::results(plan.shape.target.min(SHORT_TARGET));
            // Distinct seeds even when the op list is shorter than `n`.
            s.seed = s.seed.wrapping_add(i as u64);
            s
        })
        .collect()
}

/// `engine`: the cost of each client-facing call and of the cache and
/// scheduler primitives a quantum is made of. Also `obs` (the probe
/// engine's registry and tracer are the ones rendered and collected).
fn engine_calls(plan: &Plan, rec: &Recorded, scale: Scale) -> Values {
    let mut v = Values::new();
    let engine = plan.bring_up(None);
    let specs = short_specs(plan, scale.n(640));
    let (mut submit, mut forget) = (Vec::new(), Vec::new());
    let mut finished = Vec::new();
    for spec in &specs {
        let spec = spec.clone();
        // The caller's own CPU time, not wall time: `submit` wakes a
        // worker, and where that worker shares the caller's core (the
        // pinned workloads) it takes the core for a time slice before the
        // call returns.
        let cpu0 = thread_cpu_s();
        let id = engine.submit(spec).expect("valid spec");
        submit.push((thread_cpu_s() - cpu0) * 1e6);
        engine.wait(id).expect("session finishes");
        finished.push(id);
    }
    let id = finished[0];
    v.push(("engine.submit_us", median(&submit)));
    v.push((
        "engine.poll_ns",
        bench_ns(5, scale.n(40_000), || {
            black_box(engine.poll(id, u64::MAX).expect("known session"));
        }),
    ));
    v.push((
        "engine.poll_wait_batch_us",
        bench_ns(5, scale.n(20_000), || {
            black_box(engine.poll_wait(id, 0, Some(64)).expect("known session"));
        }) / 1e3,
    ));
    let registry = engine.obs().registry().clone();
    v.push((
        "obs.render_text_us",
        bench_ns(5, scale.n(400), || {
            black_box(registry.render_text());
        }) / 1e3,
    ));
    let trace = TraceId::from_session(finished[finished.len() - 1].0);
    v.push((
        "obs.collect_trace_us",
        bench_ns(5, scale.n(4_000), || {
            black_box(engine.collect_trace(trace));
        }) / 1e3,
    ));
    for id in finished {
        let t0 = Instant::now();
        black_box(engine.forget(id).expect("finished session"));
        forget.push(us_since(t0));
    }
    v.push(("engine.forget_us", median(&forget)));
    drop(engine);

    // Cache primitives, on detector output the workload really produced.
    let bank = [detector(plan)];
    let mut scratch = Vec::new();
    let n = scale.n(65_536);
    let dets: Vec<Vec<Detection>> = rec
        .frame_seq()
        .iter()
        .cycle()
        .take(n)
        .map(|&f| exsample::detect::detect_frame(&bank, f, &mut scratch))
        .collect();
    let fill = |cache: &FrameCache, base: u64, dets: Vec<Vec<Detection>>| {
        let t0 = Instant::now();
        for (i, d) in dets.into_iter().enumerate() {
            match cache.begin((RepoId(0), base + i as u64)) {
                Lookup::Miss(guard) => {
                    black_box(guard.fill(d));
                }
                _ => unreachable!("keys are distinct and the cache is private"),
            }
        }
        ns_per(t0, n as u64)
    };
    let shards = plan.engine_config(None).cache_shards;
    let cache = FrameCache::new(n * 2, shards);
    v.push(("engine.cache_miss_fill_ns", fill(&cache, 0, dets.clone())));
    let mut key = 0u64;
    v.push((
        "engine.cache_hit_ns",
        bench_ns(5, n, || {
            key = (key + 7919) % n as u64;
            black_box(matches!(cache.begin((RepoId(0), key)), Lookup::Hit(_)));
        }),
    ));
    // The same fill into a cache already at capacity: every insert evicts.
    let small = FrameCache::new(n / 8, shards);
    fill(&small, 0, dets.clone());
    v.push(("engine.cache_evict_fill_ns", fill(&small, n as u64, dets)));

    let mut scheduler = Scheduler::new();
    for s in 0..64 {
        scheduler.register(SessionId(s), 1);
    }
    v.push((
        "engine.sched_lease_release_ns",
        bench_ns(5, scale.n(200_000), || {
            let id = scheduler.lease_next().expect("64 runnable sessions");
            scheduler.release(id, 0.05);
        }),
    ));
    v
}

/// `obs`: the recording primitives a quantum pays for.
fn obs_primitives(scale: Scale) -> Values {
    let hist = LatencyHistogram::new();
    let mut x = 1u64;
    let hist_ns = bench_ns(5, scale.n(2_000_000), || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        hist.record(x >> 40);
    });
    let flight = FlightRecorder::new(4096);
    let mut i = 0u64;
    let flight_ns = bench_ns(5, scale.n(1_000_000), || {
        i += 1;
        flight.record(i & 63, Stage::Dispatch, 1_000 + i, i);
    });
    // Spans go to open traces only, and a trace holds 4096 spans: spread
    // the records over enough traces that none fills up.
    let collector = SpanCollector::new(true);
    let per_batch = scale.n(100_000);
    let traces: Vec<TraceId> = (0..(5 * per_batch).div_ceil(4_000) as u64)
        .map(TraceId::from_session)
        .collect();
    for (s, t) in traces.iter().enumerate() {
        collector.open_root(*t, s as u64);
    }
    let mut k = 0usize;
    let span_ns = bench_ns(5, per_batch, || {
        k += 1;
        let s = k % traces.len();
        black_box(collector.record(
            traces[s],
            SpanId::ROOT,
            Stage::Dispatch,
            s as u64,
            1_000,
            16,
        ));
    });
    vec![
        ("obs.hist_record_ns", hist_ns),
        ("obs.flight_record_ns", flight_ns),
        ("obs.span_record_ns", span_ns),
    ]
}

fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_str().is_some_and(&keep))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy directory");
    for entry in std::fs::read_dir(from)
        .expect("list store directory")
        .flatten()
    {
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
        }
    }
}

/// How many times a `DetectionLog` that appended `records` records and
/// was then dropped called fsync: once per `flush_every` records within a
/// segment, once when a segment seals, once for an unsynced tail on drop.
pub fn log_fsyncs(records: u64, flush_every: u64, segment_records: u64) -> u64 {
    let per_segment = |n: u64| n / flush_every + u64::from(!n.is_multiple_of(flush_every));
    (records / segment_records) * per_segment(segment_records)
        + per_segment(records % segment_records)
}

/// `persist`, `colstore`, and the restart side of `engine`: a cold phase
/// with the durable store on, then every step of a restart on the
/// directory it wrote, one at a time.
fn store_cycle(plan: &Plan, work_dir: &Path, scale: Scale) -> Values {
    let mut v = Values::new();
    let dir = fresh_dir(work_dir);
    let config = plan.engine_config(Some(&dir));
    let persist = config.persist.clone().expect("persistence configured");
    let specs = &plan.specs[..plan.specs.len().min(scale.n(PROBE_SESSIONS))];

    let engine = plan.bring_up(Some(&dir));
    drive_probe(&engine, specs, plan.shape.wave_size.max(32));
    let records = engine.detector_invocations();
    drop(engine);

    let log_bytes = dir_bytes(&dir, |n| n.starts_with("seg-"));
    v.push((
        "persist.log_bytes_per_record",
        log_bytes as f64 / records.max(1) as f64,
    ));
    v.push((
        "persist.fsyncs",
        log_fsyncs(
            records,
            persist.flush_every as u64,
            persist.segment_records as u64,
        ) as f64,
    ));
    let mut logged: Vec<(u64, Vec<Detection>)> = Vec::new();
    let t0 = Instant::now();
    scan_detections(&dir, persist.fingerprint, |r| {
        logged.push((r.frame, r.dets))
    })
    .expect("scan the log the cold phase wrote");
    v.push((
        "persist.scan_mb_per_s",
        log_bytes as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    ));
    assert_eq!(logged.len() as u64, records, "every miss is in the log");

    // Write path alone: the same records appended to a fresh log.
    {
        let append_dir = dir.join("append");
        let mut cfg = persist.clone();
        cfg.dir = append_dir.clone();
        let mut log = DetectionLog::open(&cfg).expect("open a fresh log");
        let t0 = Instant::now();
        for (frame, dets) in &logged {
            log.append(0, *frame, dets);
        }
        drop(log);
        v.push(("persist.append_ns", ns_per(t0, logged.len() as u64)));
        let mut beliefs = BeliefStore::open(&cfg).expect("open a belief store");
        let stats = plan.sampler(&plan.specs[0]).chunk_stats().to_vec();
        let mut class = 0u16;
        v.push((
            "persist.belief_put_us",
            bench_ns(3, scale.n(100), || {
                class = class.wrapping_add(1);
                beliefs.put((0, class, stats.len() as u32), stats.clone());
            }) / 1e3,
        ));
        let _ = std::fs::remove_dir_all(&append_dir);
    }

    // Compaction and the container on their own, on a copy of the log.
    {
        let copy = dir.join("copy");
        copy_dir(&dir, &copy);
        let chunk_frames = persist.columnar.expect("columnar configured").chunk_frames;
        let t0 = Instant::now();
        let report = compact(&copy, persist.fingerprint, chunk_frames).expect("compaction");
        v.push(("colstore.compact_s", t0.elapsed().as_secs_f64()));
        v.push((
            "colstore.container_bytes_per_record",
            report.container_bytes as f64 / report.frames.max(1) as f64,
        ));
        let path = container_path(&copy);
        let open = || ColumnarStore::open(&path, persist.fingerprint).expect("open container");
        v.push((
            "colstore.open_ms",
            bench_ns(5, scale.n(50), || {
                black_box(open());
            }) / 1e6,
        ));
        let store = open();
        let present: HashSet<u64> = logged.iter().map(|(f, _)| *f).collect();
        let hits: Vec<u64> = logged.iter().map(|(f, _)| *f).take(REPLAY_FRAMES).collect();
        let absent: Vec<u64> = hits
            .iter()
            .map(|f| (f + 1) % plan.gt.frames)
            .filter(|f| !present.contains(f))
            .collect();
        // First pass decodes each touched group once; the timed pass is
        // the steady state a long-lived engine sees.
        for &f in &hits {
            black_box(store.get(0, f));
        }
        let time_gets = |frames: &[u64]| {
            let t0 = Instant::now();
            for &f in frames {
                black_box(store.get(0, f));
            }
            ns_per(t0, frames.len() as u64)
        };
        v.push(("colstore.get_hit_ns", time_gets(&hits)));
        v.push(("colstore.get_miss_ns", time_gets(&absent)));
        drop(store);
        let _ = std::fs::remove_dir_all(&copy);
    }

    // The engine's restart, step by step.
    let t0 = Instant::now();
    let engine = Engine::new(config.clone());
    v.push(("engine.new_compacting_s", t0.elapsed().as_secs_f64()));
    drop(engine);
    let t0 = Instant::now();
    let engine = Engine::new(config);
    v.push(("engine.new_reopen_s", t0.elapsed().as_secs_f64()));
    engine.register_repo(REPO_NAME, plan.gt.clone(), plan.noise, DET_SEED);
    let t0 = Instant::now();
    let frames = drive_probe(&engine, specs, plan.shape.wave_size.max(32));
    v.push((
        "engine.replay_frames_per_s",
        frames as f64 / t0.elapsed().as_secs_f64(),
    ));
    assert_eq!(
        engine.detector_invocations(),
        0,
        "replay is served from storage"
    );
    let stats = engine.persist_stats().expect("persistence on");
    let container_len = std::fs::metadata(container_path(&dir)).map_or(1, |m| m.len());
    v.push((
        "colstore.bytes_touched_frac",
        stats.container_bytes_touched as f64 / container_len as f64,
    ));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    v
}

/// The wire bytes of `msgs`, framed as a connection carries them.
fn framed_bytes(msgs: &[Message]) -> Vec<u8> {
    let mut buf = FrameBuf::new();
    for m in msgs {
        buf.queue(m).expect("message fits a frame");
    }
    let mut bytes = Vec::new();
    buf.write_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// `proto` and `serve` codecs, on the snapshots the workload's own result
/// events encode to.
fn codecs(plan: &Plan, window: u32, scale: Scale) -> Values {
    let mut v = Values::new();
    // One full-length session's events, cut into the batches a stream
    // with this window pushes.
    let engine = plan.bring_up(None);
    let id = engine.submit(plan.specs[0].clone()).expect("valid spec");
    engine.wait(id).expect("session finishes");
    let full = engine.poll(id, 0).expect("known session");
    drop(engine);
    let snapshots: Vec<Message> = full
        .events
        .chunks(window as usize)
        .map(|events| {
            Message::Snapshot(SessionSnapshot {
                events: events.to_vec(),
                ..full.clone()
            })
        })
        .collect();
    let encoded: Vec<Vec<u8>> = snapshots
        .iter()
        .map(|m| {
            let mut out = Vec::new();
            encode_message(m, &mut out);
            out
        })
        .collect();
    let total_bytes: usize = encoded.iter().map(Vec::len).sum();
    let rounds = scale.n(40_000).div_ceil(snapshots.len());
    let mut out = Vec::new();
    let enc = bench_ns(5, rounds, || {
        for m in &snapshots {
            out.clear();
            encode_message(m, &mut out);
            black_box(&out);
        }
    });
    let dec = bench_ns(5, rounds, || {
        for bytes in &encoded {
            black_box(decode_message(bytes).expect("own encoding decodes"));
        }
    });
    v.push(("proto.encode_snapshot_ns", enc / snapshots.len() as f64));
    v.push(("proto.decode_snapshot_ns", dec / snapshots.len() as f64));
    // MB/s over one encode plus one decode of the whole set.
    v.push((
        "proto.codec_mb_per_s",
        2.0 * total_bytes as f64 * 1e3 / (enc + dec),
    ));

    let submit = Message::Submit {
        spec: plan.specs[0].clone(),
        ctx: None,
    };
    let mut submit_bytes = Vec::new();
    encode_message(&submit, &mut submit_bytes);
    v.push((
        "proto.encode_submit_ns",
        bench_ns(5, scale.n(200_000), || {
            out.clear();
            encode_message(&submit, &mut out);
            black_box(&out);
        }),
    ));
    v.push((
        "proto.decode_submit_ns",
        bench_ns(5, scale.n(200_000), || {
            black_box(decode_message(&submit_bytes).expect("own encoding decodes"));
        }),
    ));

    let (a, b) = duplex();
    let (mut tx, mut rx) = (Framed::new(a), Framed::new(b));
    let mut i = 0;
    v.push((
        "proto.framed_roundtrip_us",
        bench_ns(5, scale.n(40_000), || {
            i = (i + 1) % snapshots.len();
            tx.send(&snapshots[i]).expect("send over duplex");
            black_box(rx.recv().expect("recv over duplex"));
        }) / 1e3,
    ));

    let wire = framed_bytes(&snapshots);
    let drain = |buf: &mut FrameBuf| {
        while let Some(m) = buf.next_frame().expect("own framing parses") {
            black_box(m);
        }
    };
    let whole = bench_ns(5, rounds, || {
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        drain(&mut buf);
    });
    let sliced = bench_ns(5, rounds, || {
        let mut buf = FrameBuf::new();
        for piece in wire.chunks(7) {
            buf.extend(piece);
            drain(&mut buf);
        }
    });
    v.push((
        "serve.framebuf_next_frame_ns",
        whole / snapshots.len() as f64,
    ));
    v.push((
        "serve.framebuf_reassembly_ns_7b",
        sliced / snapshots.len() as f64,
    ));
    v
}

fn poll_rtt_us_p50(client: &impl SearchService, id: SessionId, n: usize) -> f64 {
    let rtts: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            black_box(client.poll(id, u64::MAX, None).expect("known session"));
            us_since(t0)
        })
        .collect();
    percentile(&rtts, 0.5)
}

/// `serve` and the live side of `proto`: connections, round trips and
/// wire counts over loopback, through the reactor and (for comparison)
/// the thread-per-connection server.
fn wire(plan: &Plan, traced: &Rep, engine_poll_ns: f64, scale: Scale) -> Values {
    let mut v = Values::new();
    let rig = RemoteRig::bring_up(plan, 1);
    let client: &Client = &rig.clients[0].0;
    let window = plan.shape.window.unwrap_or(8);

    // Wire counts per session and event: the workload's own repetition
    // when it is remote, otherwise a probe of its first sessions.
    let (io, sessions, events, serve) = match traced.serve {
        Some(serve) => (
            traced.io,
            traced.sessions.len() as u64,
            traced.counts.events,
            serve,
        ),
        None => {
            let specs = &plan.specs[..plan.specs.len().min(scale.n(PROBE_SESSIONS))];
            let before = rig.clients[0].1.snapshot();
            let events = drive_remote_probe(client, specs, window);
            let io = rig.clients[0].1.snapshot().since(before);
            (io, specs.len() as u64, events, rig.handle.stats())
        }
    };
    v.push((
        "proto.bytes_per_event",
        (io.bytes_in + io.bytes_out) as f64 / events.max(1) as f64,
    ));
    v.push((
        "proto.reads_per_session",
        io.reads as f64 / sessions.max(1) as f64,
    ));
    v.push((
        "proto.writes_per_session",
        io.writes as f64 / sessions.max(1) as f64,
    ));
    v.push(("serve.accepted", serve.accepted as f64));
    v.push(("serve.sheds", serve.shed as f64));

    let handshakes: Vec<f64> = (0..scale.n(200))
        .map(|_| {
            let t0 = Instant::now();
            drop(black_box(connect(rig.addr).expect("connect to reactor")));
            us_since(t0)
        })
        .collect();
    v.push(("serve.connect_handshake_us", median(&handshakes)));

    let spec = short_specs(plan, 1).remove(0);
    let id = client.submit(spec.clone()).expect("valid spec");
    client.wait(id).expect("session finishes");
    let rtt = poll_rtt_us_p50(client, id, scale.n(20_000));
    v.push(("serve.poll_rtt_us_p50", rtt));
    v.push(("serve.hop_us", rtt - engine_poll_ns / 1e3));

    // The same poll through `SearchServer`, so both servers stay visible
    // until they are merged.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let server = SearchServer::new(rig.engine.clone());
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (stream, _) = listener.accept().expect("accept the probe connection");
            stream.set_nodelay(true).expect("set nodelay");
            // Ends when the client hangs up.
            let _ = server.serve_connection(stream);
        });
        let stream = TcpStream::connect(addr).expect("connect to thread server");
        stream.set_nodelay(true).expect("set nodelay");
        let threaded = exsample::proto::RemoteClient::connect(stream).expect("handshake");
        v.push((
            "proto.server_poll_rtt_us_p50",
            poll_rtt_us_p50(&threaded, id, scale.n(20_000)),
        ));
    });
    v
}

/// `cluster`: what the router adds on top of the shard it forwards to.
fn router(plan: &Plan, scale: Scale) -> Values {
    let engines: Vec<Arc<Engine>> = (0..2).map(|_| Arc::new(plan.bring_up(None))).collect();
    let shards = engines
        .iter()
        .zip(["shard-a", "shard-b"])
        .map(|(e, name)| (name.to_string(), e.clone() as ShardService))
        .collect();
    let router = ShardRouter::new(shards);
    let fingerprint = exsample::engine::dataset_fingerprint(&plan.gt);
    let place_ns = bench_ns(5, scale.n(200_000), || {
        black_box(router.place(REPO_NAME, fingerprint));
    });
    let repo = router.repos().expect("fleet catalog")[0].id;
    let specs = short_specs(plan, scale.n(320));
    // Direct and routed submits alternate, so drift in the box or the
    // allocator lands on both sides.
    let (mut direct_us, mut routed_us) = (Vec::new(), Vec::new());
    let (mut direct_id, mut routed_id) = (SessionId(0), SessionId(0));
    for (i, spec) in specs.iter().enumerate() {
        let routed = i % 2 == 1;
        let svc: &dyn SearchService = if routed { &router } else { engines[0].as_ref() };
        let mut spec = spec.clone();
        spec.repo = if routed { repo } else { RepoId(0) };
        let t0 = Instant::now();
        let id = svc.submit(spec).expect("valid spec");
        let us = us_since(t0);
        svc.wait(id).expect("session finishes");
        if routed {
            routed_us.push(us);
            routed_id = id;
        } else {
            direct_us.push(us);
            direct_id = id;
        }
    }
    let poll = |svc: &dyn SearchService, id: SessionId| {
        bench_ns(5, scale.n(40_000), || {
            black_box(svc.poll(id, u64::MAX, None).expect("known session"));
        })
    };
    vec![
        ("cluster.place_ns", place_ns),
        (
            "cluster.submit_overhead_us",
            median(&routed_us) - median(&direct_us),
        ),
        (
            "cluster.route_poll_ns",
            poll(&router, routed_id) - poll(engines[0].as_ref(), direct_id),
        ),
    ]
}

/// Every layer replay, in one list of `(metric, value)`.
///
/// Also returns whether the sampler replay reproduced the engine's frame
/// count exactly, which is a correctness check of the run.
pub fn replay_all(plan: &Plan, traced: &Rep, work_dir: &Path, smoke: bool) -> (Values, bool) {
    let scale = Scale(if smoke { 10 } else { 1 });
    let rec = record(plan);
    let frames_match = rec.frames == traced.counts.frames;
    let mut v = frame_path(plan, &rec, scale);
    v.extend(set_up_parts(plan));
    v.extend(engine_calls(plan, &rec, scale));
    v.extend(obs_primitives(scale));
    v.extend(store_cycle(plan, work_dir, scale));
    v.extend(codecs(plan, plan.shape.window.unwrap_or(8), scale));
    let engine_poll_ns = value(&v, "engine.poll_ns");
    v.extend(wire(plan, traced, engine_poll_ns, scale));
    v.extend(router(plan, scale));
    (v, frames_match)
}

#[cfg(test)]
mod tests {
    use super::log_fsyncs;

    #[test]
    fn fsync_count_follows_the_log_policy() {
        // flush_every 64, segments of 4096: 64 syncs per full segment
        // (the 64th coincides with the seal), tail synced on drop.
        assert_eq!(log_fsyncs(4096, 64, 4096), 64);
        assert_eq!(log_fsyncs(4096 + 65, 64, 4096), 64 + 2);
        assert_eq!(log_fsyncs(10, 64, 4096), 1);
        assert_eq!(log_fsyncs(0, 64, 4096), 0);
        // One sync per sealed segment when flush_every == segment size.
        assert_eq!(log_fsyncs(184_964, 4096, 4096), 46);
    }
}
