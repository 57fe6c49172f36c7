//! One workload run in this process: set-up, warm-up, timed repetitions,
//! checks, and the result line the driver reads.

use crate::json::Json;
use crate::layers;
use crate::spans::{self, Span};
use crate::spec::{self, Better};
use crate::stats::{median, near_best, percentile, Summary};
use crate::sys::peak_rss_mib;
use crate::workloads::{run_rep, Counts, Kind, Plan, RemoteRig, Rep, SessionRec, Shape};
use exsample::baselines::RandomPlusPolicy;
use exsample::core::driver::{run_search, SearchCost, SearchTrace};
use exsample::core::SamplingPolicy;
use exsample::detect::{OracleDiscriminator, QueryOracle};
use exsample::engine::{QuerySpec, SessionReport};
use exsample::stats::Rng64;
use std::path::PathBuf;
use std::time::Instant;

/// The whole set-up is repeated at least this often in one run, and a
/// cheap one until `SETUP_BUDGET_S` is spent; `setup_s` is the median.
const SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 100;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Most sessions whose random-sampling counterfactual is replayed.
const RANDOM_BASELINE_SESSIONS: usize = 48;

impl RunArgs {
    /// The shape this run uses: the workload's, or its smoke version.
    fn shape(&self) -> Shape {
        if self.smoke {
            self.shape.smoke()
        } else {
            self.shape
        }
    }
}

pub struct RunArgs {
    pub shape: Shape,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Scratch space for `persist_cycle`'s store; emptied after use.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// What a run hands back: the contract fields plus the detail the full
/// report and `compare` use.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// The line the driver parses: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, each metric exactly `value` and `unit`.
    pub fn contract_line(&self) -> String {
        Json::obj(self.head().into_iter().chain([(
            "metrics",
            Json::obj(self.metrics.iter().map(|(name, unit, s)| {
                (
                    *name,
                    Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(*unit))]),
                )
            })),
        )]))
        .to_string()
    }

    /// The same with min / median / max per metric, the repetition count
    /// and the notes, for the full report.
    pub fn detail(&self) -> Json {
        Json::obj(self.head().into_iter().chain([
            ("reps", Json::Num(self.reps as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, unit, s)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(s.value)),
                            ("unit", Json::str(*unit)),
                            ("min", Json::Num(s.min)),
                            ("median", Json::Num(s.median)),
                            ("max", Json::Num(s.max)),
                        ]),
                    )
                })),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ]))
    }

    fn head(&self) -> [(&'static str, Json); 3] {
        [
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
        ]
    }
}

/// The workload's inputs generated and its serving side brought up, once
/// or (`repeat`) several times; returns the plan and each set-up's seconds.
///
/// Set-up is everything before the warm-up repetition: dataset generation
/// from the seed, a fresh engine with the repository registered (and, on
/// `remote_stream`, the listener bound and the connections up).
fn set_up(shape: Shape, seed: u64, repeat: bool) -> (Plan, Vec<f64>) {
    let mut seconds = Vec::new();
    let mut plan = None;
    while seconds.is_empty()
        || repeat
            && seconds.len() < MAX_SETUPS
            && (seconds.len() < SETUPS || seconds.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(plan.take());
        let t0 = Instant::now();
        let p = Plan::generate(shape, seed);
        match shape.kind {
            Kind::Remote => drop(RemoteRig::bring_up(&p, shape.drivers)),
            Kind::InProcess | Kind::Persist => drop(p.bring_up(None)),
        }
        seconds.push(t0.elapsed().as_secs_f64());
        plan = Some(p);
    }
    (plan.expect("at least one set-up"), seconds)
}

fn ms_quantile(
    sessions: &[SessionRec],
    target: u64,
    p: f64,
    f: impl Fn(&SessionRec) -> Option<f64>,
) -> f64 {
    let values: Vec<f64> = sessions
        .iter()
        .filter(|s| s.ok(target))
        .filter_map(f)
        .collect();
    percentile(&values, p)
}

/// Frames a policy needs for `spec`'s stop condition, replayed through
/// the library driver with the detector bank the engine would build.
pub fn library_search(
    plan: &Plan,
    spec: &QuerySpec,
    policy: &mut dyn SamplingPolicy,
) -> SearchTrace {
    let mut oracle = QueryOracle::new(plan.detector(spec.class), OracleDiscriminator::new());
    let mut process = |frame| oracle.process(frame);
    run_search(
        policy,
        &mut process,
        &SearchCost::per_sample(0.0),
        &spec.stop,
        &mut Rng64::new(spec.seed),
    )
}

/// `savings_vs_random`: frames random+ sampling needs for the same stop
/// conditions and seeds ÷ frames ExSample needed in the engine, over an
/// evenly spaced subset of the op list.
fn savings_vs_random(plan: &Plan, sessions: &[SessionRec]) -> f64 {
    let stride = plan.specs.len().div_ceil(RANDOM_BASELINE_SESSIONS).max(1);
    let (mut random, mut ours) = (0u64, 0u64);
    for (spec, rec) in plan.specs.iter().zip(sessions).step_by(stride) {
        let Some(report) = rec.report.as_ref() else {
            continue;
        };
        let mut policy = RandomPlusPolicy::new(plan.gt.frames);
        random += library_search(plan, spec, &mut policy).samples();
        ours += report.charges.frames;
    }
    random as f64 / ours.max(1) as f64
}

/// Trace points `(samples, found)`, chunk beliefs `(N1 bits, n)`, frames.
type Fingerprint = (Vec<(u64, u64)>, Vec<(u64, u64)>, u64);

/// The schedule-independent part of a report: which frames produced
/// results when, and what the sampler believed at the end. (Charged
/// seconds and hit/miss attribution depend on what *other* sessions had
/// already cached, so they legitimately differ between deployments.)
fn fingerprint(report: &SessionReport) -> Fingerprint {
    (
        report
            .trace
            .points()
            .iter()
            .map(|p| (p.samples, p.found))
            .collect(),
        report
            .chunk_stats
            .iter()
            .map(|c| (c.n1.to_bits(), c.n))
            .collect(),
        report.charges.frames,
    )
}

fn same_outcome(a: &Option<SessionReport>, b: &Option<SessionReport>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => fingerprint(a) == fingerprint(b),
        _ => false,
    }
}

/// Collects failed checks as notes.
struct Checks<'a> {
    notes: &'a mut Vec<String>,
    ok: bool,
}

impl Checks<'_> {
    fn fail(&mut self, why: String) {
        self.notes.push(format!("CHECK FAILED: {why}"));
        self.ok = false;
    }
}

/// What every repetition must satisfy: the counts of repetition 0 (fixed
/// work repeats exactly), and on `persist_cycle` a restart phase served
/// entirely from storage with the cold phase's outcomes.
fn check_rep(plan: &Plan, i: usize, rep: &Rep, expected: &Counts, checks: &mut Checks) {
    let c = &rep.counts;
    if c != expected {
        checks.fail(format!(
            "counts differ between repetitions 0 and {i}: {expected:?} vs {c:?}"
        ));
    }
    if plan.shape.kind != Kind::Persist {
        return;
    }
    if c.restart_invocations != 0 {
        checks.fail(format!(
            "restart phase ran the detector {} times",
            c.restart_invocations
        ));
    }
    if c.container_hits != c.detector_invocations {
        checks.fail(format!(
            "container hits {} != cold invocations {}",
            c.container_hits, c.detector_invocations
        ));
    }
    let replay_matches = rep.sessions.len() == rep.restart_sessions.len()
        && rep
            .sessions
            .iter()
            .zip(&rep.restart_sessions)
            .all(|(a, b)| same_outcome(&a.report, &b.report));
    if !replay_matches {
        checks.fail("replayed traces differ from the cold ones".into());
    }
}

/// `remote_stream`: every 100th session of `rep` must match the same spec
/// run on a private in-process engine.
fn check_against_reference(plan: &Plan, rep: &Rep, checks: &mut Checks) {
    if plan.shape.kind != Kind::Remote {
        return;
    }
    let engine = plan.bring_up(None);
    for (i, (spec, rec)) in plan
        .specs
        .iter()
        .zip(&rep.sessions)
        .enumerate()
        .step_by(100)
    {
        let reference = engine
            .submit(spec.clone())
            .ok()
            .and_then(|id| engine.wait(id).ok());
        if !same_outcome(&reference, &rec.report) {
            checks.fail(format!(
                "remote session {i} differs from its in-process reference"
            ));
        }
    }
}

/// Sessions attempted and failed in `rep`.
fn operations(plan: &Plan, rep: &Rep) -> (u64, u64) {
    let sessions = || rep.sessions.iter().chain(&rep.restart_sessions);
    let failed = sessions().filter(|s| !s.ok(plan.shape.target)).count();
    (sessions().count() as u64, failed as u64)
}

/// What is kept of a timed repetition once it is over. The sessions and
/// their reports are dropped, so that `peak_rss_mb` is the program's peak
/// and not a count of how many repetitions fitted into `--seconds`.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    restart_s: f64,
    frames: u64,
    first_result_ms_p50: f64,
    session_ms_p50: f64,
}

impl Timed {
    fn of(rep: &Rep, target: u64) -> Timed {
        Timed {
            wall_s: rep.wall_s,
            cpu_s: rep.cpu_s,
            restart_s: rep.restart_s,
            frames: rep.counts.frames,
            first_result_ms_p50: ms_quantile(
                &rep.sessions,
                target,
                0.5,
                SessionRec::first_result_ms,
            ),
            session_ms_p50: ms_quantile(&rep.sessions, target, 0.5, |s| Some(s.session_ms())),
        }
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(args: &RunArgs) -> Outcome {
    let shape = args.shape();
    let (plan, setups) = set_up(shape, args.seed, !args.smoke);
    let mut notes = vec![format!(
        "{}: {} sessions/rep, repo {} frames, seed {}",
        shape.name,
        shape.sessions(),
        shape.frames,
        args.seed
    )];
    let mut checks = Checks {
        notes: &mut notes,
        ok: true,
    };

    // One untimed warm-up repetition (page cache, allocator, branch
    // predictors), then identical repetitions for `--seconds`: one more is
    // started while at least half of it still fits.
    let mut last = run_rep(&plan, None, &args.work_dir);
    let counts: Counts = last.counts;
    check_rep(&plan, 0, &last, &counts, &mut checks);
    let timed_from = Instant::now();
    let min_reps = if args.smoke { 2 } else { MIN_REPS };
    let mut timed: Vec<Timed> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut rep_s = 0.0;
    while timed.len() < min_reps
        || (!args.smoke && timed_from.elapsed().as_secs_f64() + rep_s / 2.0 < args.seconds)
    {
        drop(last);
        let rep_from = Instant::now();
        last = run_rep(&plan, None, &args.work_dir);
        rep_s = rep_from.elapsed().as_secs_f64();
        check_rep(&plan, timed.len() + 1, &last, &counts, &mut checks);
        let (a, f) = operations(&plan, &last);
        attempted += a;
        failed += f;
        timed.push(Timed::of(&last, shape.target));
    }
    check_against_reference(&plan, &last, &mut checks);
    let correct = checks.ok;

    let per_rep = |f: &dyn Fn(&Timed) -> f64| -> Vec<f64> { timed.iter().map(f).collect() };
    let value_of = |m: &spec::EndToEnd| -> Summary {
        let timing = |f: &dyn Fn(&Timed) -> f64| Summary::of(&per_rep(f));
        match m.name {
            "setup_s" => Summary::of(&setups),
            "frames_per_s" => timing(&|r| r.frames as f64 / r.wall_s),
            "cpu_us_per_frame" => timing(&|r| r.cpu_s * 1e6 / r.frames as f64),
            "first_result_ms_p50" => timing(&|r| r.first_result_ms_p50),
            "session_ms_p50" => timing(&|r| r.session_ms_p50),
            "restart_s" => timing(&|r| r.restart_s),
            "frames_per_result" => {
                Summary::single(counts.frames as f64 / counts.found.max(1) as f64)
            }
            "invocations_per_frame" => {
                Summary::single(counts.detector_invocations as f64 / counts.frames.max(1) as f64)
            }
            "savings_vs_random" => Summary::single(savings_vs_random(&plan, &last.sessions)),
            "peak_rss_mb" => Summary::single(peak_rss_mib()),
            other => unreachable!("end-to-end metric {other} has no definition"),
        }
    };
    let metrics = spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, value_of(m)))
        .collect();
    notes.push(format!("counts per repetition: {counts:?}"));
    notes.push(format!(
        "frames_per_s of each repetition: {:.0?}",
        per_rep(&|r| r.frames as f64 / r.wall_s)
    ));
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        reps: timed.len(),
        metrics,
        notes,
    }
}

/// One span name's durations in microseconds.
fn span_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// The traced run: one set-up, then untraced and traced repetitions
/// alternating (their difference is the tracing overhead), the layer
/// replays, and the waterfall. Prints every per-layer metric.
pub fn per_layer(args: &RunArgs) -> Outcome {
    let shape = args.shape();
    let (plan, _) = set_up(shape, args.seed, false);
    let mut notes = Vec::new();
    // Warm-up, then plain and traced repetitions in turn; the last one is
    // the traced repetition everything below reads.
    let mut reps = vec![run_rep(&plan, None, &args.work_dir)];
    let (mut plain_fps, mut traced_fps) = (Vec::new(), Vec::new());
    let fps = |r: &Rep| r.counts.frames as f64 / r.wall_s;
    for _ in 0..if args.smoke { 1 } else { 2 } {
        reps.push(run_rep(&plan, None, &args.work_dir));
        plain_fps.push(fps(&reps[reps.len() - 1]));
        reps.push(run_rep(&plan, Some(Instant::now()), &args.work_dir));
        traced_fps.push(fps(&reps[reps.len() - 1]));
    }
    let plain = near_best(&plain_fps, Better::Higher);
    let trace_overhead_frac = (plain - near_best(&traced_fps, Better::Higher)) / plain;
    let (mut attempted, mut failed) = (0, 0);
    let mut checks = Checks {
        notes: &mut notes,
        ok: true,
    };
    for (i, rep) in reps.iter().enumerate() {
        check_rep(&plan, i, rep, &reps[0].counts, &mut checks);
        if i > 0 {
            let (a, f) = operations(&plan, rep);
            attempted += a;
            failed += f;
        }
    }
    let rep = reps.last().expect("at least the warm-up repetition");
    check_against_reference(&plan, rep, &mut checks);
    let mut correct = checks.ok;

    // The span set must be a forest: parents resolve, children inside.
    if let Err(why) = spans::validate(&rep.spans) {
        notes.push(format!("CHECK FAILED: span set malformed: {why}"));
        correct = false;
    }
    let self_ns = spans::self_times(&rep.spans);
    let roots = || {
        rep.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_none())
    };
    let root_total: u64 = roots().map(|(_, s)| s.duration_ns()).sum();
    let root_self: u64 = roots().map(|(i, _)| self_ns[i]).sum();
    let session_ms: Vec<f64> = roots().map(|(_, s)| s.duration_ns() as f64 / 1e6).collect();
    let first_ms: Vec<f64> = rep
        .sessions
        .iter()
        .filter_map(SessionRec::first_result_ms)
        .collect();

    let (mut values, frames_match) = layers::replay_all(&plan, rep, &args.work_dir, args.smoke);
    if !frames_match {
        notes.push("CHECK FAILED: library replay frame count differs from the engine's".into());
        correct = false;
    }
    let layer = layers::value;
    // Per-frame waterfall in CPU time (wall time would halve on a
    // workload that keeps both workers busy): what is left after the
    // replayed layers is the engine's own work around them.
    let c = rep.counts;
    let cpu_ns_per_frame = rep.cpu_s * 1e9 / c.frames as f64;
    let miss_frac = c.detector_invocations as f64 / c.frames as f64;
    let core_ns = layer(&values, "core.replay_ns_per_frame");
    let detect_ns = layer(&values, "detect.process_ns");
    let store_ns = layer(&values, "store.read_frame_ns");
    let residual = cpu_ns_per_frame - core_ns - detect_ns - miss_frac * store_ns;
    values.extend([
        ("engine.residual_ns_per_frame", residual),
        ("engine.cache_hits", c.cache_hits as f64),
        ("engine.cache_misses", c.cache_misses as f64),
        ("engine.cache_evictions", c.cache_evictions as f64),
        ("engine.detector_invocations", c.detector_invocations as f64),
        ("engine.dispatches", rep.dispatches as f64),
        ("engine.events", c.events as f64),
        (
            "client.submit_rtt_us_p50",
            median(&span_us(&rep.spans, "submit")),
        ),
        (
            "client.batch_gap_us_p50",
            median(&span_us(&rep.spans, "batch")),
        ),
        (
            "client.wait_rtt_us_p50",
            median(&span_us(&rep.spans, "wait")),
        ),
        (
            "client.forget_rtt_us_p50",
            median(&span_us(&rep.spans, "forget")),
        ),
        ("client.session_ms_p90", percentile(&session_ms, 0.90)),
        ("client.session_ms_p99", percentile(&session_ms, 0.99)),
        ("client.first_result_ms_p99", percentile(&first_ms, 0.99)),
        (
            "client.self_time_frac",
            root_self as f64 / root_total.max(1) as f64,
        ),
        ("trace_overhead_frac", trace_overhead_frac),
    ]);

    notes.push(format!(
        "waterfall {} (CPU ns/frame, {} frames, {:.1}% misses): total {:.0} = core {:.0} + detect {:.0} + store {:.0} + engine residual {:.0}",
        shape.name,
        c.frames,
        miss_frac * 100.0,
        cpu_ns_per_frame,
        core_ns,
        detect_ns,
        miss_frac * store_ns,
        residual,
    ));
    notes.push(format!(
        "waterfall {} (per session, {} sessions, {} spans): session p50 {:.3} ms = submit {:.1} us + batches + wait {:.1} us + forget {:.1} us; {:.1}% of session time is outside any client call",
        shape.name,
        session_ms.len(),
        rep.spans.len(),
        median(&session_ms),
        layer(&values, "client.submit_rtt_us_p50"),
        layer(&values, "client.wait_rtt_us_p50"),
        layer(&values, "client.forget_rtt_us_p50"),
        layer(&values, "client.self_time_frac") * 100.0,
    ));
    let trace_file = args.out_dir.join(format!("trace-{}.json", shape.name));
    match std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&trace_file, spans::chrome_trace(&rep.spans).to_string()))
    {
        Ok(()) => notes.push(format!("spans written to {}", trace_file.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", trace_file.display())),
    }

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            assert!(
                values.iter().any(|(n, _)| *n == m.name),
                "per-layer metric {} was not measured",
                m.name
            );
            (m.name, m.unit, Summary::single(layer(&values, m.name)))
        })
        .collect();
    Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        reps: 1,
        metrics,
        notes,
    }
}
