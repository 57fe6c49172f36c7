//! The search driver — Algorithm 1's outer loop, policy-agnostic.
//!
//! `run_search` repeatedly asks a [`SamplingPolicy`] for a frame, hands it
//! to an oracle (detector + discriminator bundle), feeds the outcome back,
//! and records a [`SearchTrace`]: the `(samples, found, seconds)` curve
//! that every figure and table of the evaluation is computed from.
//!
//! The loop is factored through [`SearchStepper`], which exposes the same
//! state machine one batch at a time so external drivers (notably the
//! `exsample-engine` multi-query scheduler) can interleave many searches
//! and charge each its measured cost. The stepper also speaks the paper's
//! batched-inference mode (§III-F): [`SearchStepper::next_batch`] draws a
//! whole detector batch before any feedback, and [`run_search_batched`]
//! is the blocking loop over it — `run_search` itself is the `batch = 1`
//! special case.

use crate::policy::{Feedback, SamplingPolicy};
use crate::FrameIdx;
use exsample_stats::Rng64;

/// Linear cost model for a search: optional upfront seconds (e.g. a proxy
/// model's full scoring scan) plus constant seconds per processed frame
/// (detector + random-access decode).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCost {
    /// Charged before the first sample (BlazeIt-style scoring scans).
    pub upfront_s: f64,
    /// Charged per processed frame (the paper measures ≈ 1/20 s: detector
    /// bound).
    pub per_sample_s: f64,
}

impl SearchCost {
    /// Cost with no upfront component.
    pub fn per_sample(per_sample_s: f64) -> Self {
        SearchCost {
            upfront_s: 0.0,
            per_sample_s,
        }
    }

    /// Seconds elapsed after `samples` frames.
    pub fn seconds(&self, samples: u64) -> f64 {
        self.upfront_s + samples as f64 * self.per_sample_s
    }
}

/// When to stop a search.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StopCond {
    /// Stop once this many distinct results were found (the query's
    /// `LIMIT` clause).
    pub max_results: Option<u64>,
    /// Stop after this many processed frames.
    pub max_samples: Option<u64>,
    /// Stop once the cost model says this much time has elapsed.
    pub max_seconds: Option<f64>,
}

impl StopCond {
    /// Stop at a result limit.
    pub fn results(limit: u64) -> Self {
        StopCond {
            max_results: Some(limit),
            ..Default::default()
        }
    }

    /// Stop at a sample budget.
    pub fn samples(budget: u64) -> Self {
        StopCond {
            max_samples: Some(budget),
            ..Default::default()
        }
    }

    /// Stop at a time budget.
    pub fn seconds(budget: f64) -> Self {
        StopCond {
            max_seconds: Some(budget),
            ..Default::default()
        }
    }

    /// Combine with a sample budget.
    pub fn or_samples(mut self, budget: u64) -> Self {
        self.max_samples = Some(budget);
        self
    }

    fn done(&self, found: u64, samples: u64, seconds: f64) -> bool {
        self.max_results.is_some_and(|r| found >= r)
            || self.max_samples.is_some_and(|s| samples >= s)
            || self.max_seconds.is_some_and(|t| seconds >= t)
    }
}

/// One point on the discovery curve, recorded whenever `found` increases
/// (plus one final point at termination).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Frames processed so far.
    pub samples: u64,
    /// Distinct results found so far.
    pub found: u64,
    /// Modelled elapsed seconds.
    pub seconds: f64,
}

/// The recorded outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchTrace {
    points: Vec<TracePoint>,
    samples: u64,
    found: u64,
    seconds: f64,
    exhausted: bool,
}

impl SearchTrace {
    /// Reassemble a trace from its observable parts — the inverse of the
    /// accessors below, for deserialization layers (notably the
    /// `exsample-proto` wire codec) that move traces between processes.
    /// The caller is trusted to supply a consistent curve; nothing is
    /// recomputed or validated.
    pub fn from_parts(
        points: Vec<TracePoint>,
        samples: u64,
        found: u64,
        seconds: f64,
        exhausted: bool,
    ) -> Self {
        SearchTrace {
            points,
            samples,
            found,
            seconds,
            exhausted,
        }
    }

    /// Discovery-curve points (monotone in samples and found).
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Total frames processed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total distinct results found.
    pub fn found(&self) -> u64 {
        self.found
    }

    /// Total modelled seconds (including any upfront cost).
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// True if the policy ran out of frames before the stop condition hit.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Results found within the first `samples` frames.
    pub fn found_at_samples(&self, samples: u64) -> u64 {
        self.points
            .iter()
            .take_while(|p| p.samples <= samples)
            .map(|p| p.found)
            .max()
            .unwrap_or(0)
    }
}

/// Incremental form of the Algorithm 1 loop: one search, stepped one
/// batch at a time by an external caller.
///
/// [`run_search`] is a thin loop over this type. The multi-query engine
/// drives many steppers concurrently, interleaving their steps under a
/// scheduler instead of running each search to completion — which is why
/// the stepper, unlike `run_search`, takes elapsed seconds from the
/// caller: interleaved searches are charged their *actual* (cache- and
/// decode-aware) cost rather than a fixed per-sample constant.
///
/// Protocol per step: call [`SearchStepper::next_batch`] (a batch of 1 is
/// per-frame stepping); process each drawn frame in order (detector +
/// discriminator) and report its outcome via [`SearchStepper::record`].
/// When either method signals completion, call [`SearchStepper::finish`]
/// to obtain the final [`SearchTrace`].
#[derive(Debug, Clone)]
pub struct SearchStepper {
    stop: StopCond,
    trace: SearchTrace,
    done: bool,
}

impl SearchStepper {
    /// Start a search with `upfront_s` seconds already on the clock (a
    /// proxy scoring scan, for instance). The stepper may be born done if
    /// the stop condition is already met.
    pub fn new(stop: StopCond, upfront_s: f64) -> Self {
        let trace = SearchTrace {
            points: Vec::new(),
            samples: 0,
            found: 0,
            seconds: upfront_s,
            exhausted: false,
        };
        let done = stop.done(0, 0, trace.seconds);
        SearchStepper { stop, trace, done }
    }

    /// True once the stop condition fired or the policy ran out of frames.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Frames processed so far.
    pub fn samples(&self) -> u64 {
        self.trace.samples
    }

    /// Distinct results found so far.
    pub fn found(&self) -> u64 {
        self.trace.found
    }

    /// Seconds on the clock (as last reported to [`SearchStepper::record`]).
    pub fn seconds(&self) -> f64 {
        self.trace.seconds
    }

    /// Draw up to `batch` frames to process *before* seeing any of their
    /// outcomes — the paper's batched-inference mode (§III-F), where the
    /// sampler is granted a whole detector batch per decision so dispatch
    /// overhead amortizes the way real GPU inference does.
    ///
    /// `out` is cleared and filled with the drawn frames in draw order;
    /// the caller processes them and reports each outcome through
    /// [`SearchStepper::record`] *in that same order*, so batched traces
    /// are deterministic and `batch = 1` is bit-identical to the
    /// per-frame protocol. An empty `out` means the search was already
    /// done or the policy is exhausted (which marks the search done and
    /// the trace exhausted). A *short* batch is not yet exhaustion: the
    /// drawn frames are still processed, and the next call discovers the
    /// dry policy.
    pub fn next_batch(
        &mut self,
        policy: &mut dyn SamplingPolicy,
        rng: &mut Rng64,
        batch: usize,
        out: &mut Vec<FrameIdx>,
    ) {
        out.clear();
        if self.done {
            return;
        }
        policy.next_batch(batch, rng, out);
        if out.is_empty() {
            self.trace.exhausted = true;
            self.done = true;
        }
    }

    /// Report the outcome of processing `frame`: routes `fb` back to the
    /// policy, advances the sample count, sets the clock to `seconds_now`
    /// (absolute, not a delta), and evaluates the stop condition.
    /// Returns `true` when the search is finished.
    pub fn record(
        &mut self,
        policy: &mut dyn SamplingPolicy,
        frame: FrameIdx,
        fb: Feedback,
        seconds_now: f64,
    ) -> bool {
        policy.feedback(frame, fb);
        self.trace.samples += 1;
        self.trace.seconds = seconds_now;
        if fb.new_results > 0 {
            self.trace.found += fb.new_results as u64;
            self.trace.points.push(TracePoint {
                samples: self.trace.samples,
                found: self.trace.found,
                seconds: self.trace.seconds,
            });
        }
        if self
            .stop
            .done(self.trace.found, self.trace.samples, self.trace.seconds)
        {
            self.done = true;
        }
        self.done
    }

    /// Seal the trace (appends the terminal point) and return it.
    pub fn finish(mut self) -> SearchTrace {
        self.trace.points.push(TracePoint {
            samples: self.trace.samples,
            found: self.trace.found,
            seconds: self.trace.seconds,
        });
        self.trace
    }
}

/// Run a search to completion under a stop condition.
///
/// The `oracle` maps a frame index to the discriminator outcome for that
/// frame ([`Feedback`]); it is also where callers count what was actually
/// found (the driver trusts `fb.new_results`).
pub fn run_search<O>(
    policy: &mut dyn SamplingPolicy,
    oracle: &mut O,
    cost: &SearchCost,
    stop: &StopCond,
    rng: &mut Rng64,
) -> SearchTrace
where
    O: FnMut(FrameIdx) -> Feedback,
{
    run_search_batched(policy, oracle, cost, stop, rng, 1)
}

/// [`run_search`] in the paper's batched-inference mode (§III-F): frames
/// are drawn `batch` at a time with no intermediate feedback, processed,
/// and their outcomes replayed to the policy in draw order. `batch = 1`
/// is bit-identical to [`run_search`] (which delegates here). When the
/// stop condition fires mid-batch, the remaining drawn frames are
/// discarded unprocessed — the speculative draws real batched inference
/// wastes at the end of a search.
///
/// # Panics
/// Panics if `batch` is zero.
pub fn run_search_batched<O>(
    policy: &mut dyn SamplingPolicy,
    oracle: &mut O,
    cost: &SearchCost,
    stop: &StopCond,
    rng: &mut Rng64,
    batch: usize,
) -> SearchTrace
where
    O: FnMut(FrameIdx) -> Feedback,
{
    assert!(batch > 0, "batch must be positive");
    let mut stepper = SearchStepper::new(*stop, cost.seconds(0));
    let mut frames = Vec::with_capacity(batch);
    while !stepper.done() {
        stepper.next_batch(policy, rng, batch, &mut frames);
        for &frame in &frames {
            let fb = oracle(frame);
            let seconds = cost.seconds(stepper.samples() + 1);
            if stepper.record(policy, frame, fb, seconds) {
                break;
            }
        }
    }
    stepper.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunking::Chunking;
    use crate::exsample::{ExSample, ExSampleConfig};

    fn policy() -> ExSample {
        ExSample::new(Chunking::even(1000, 10), ExSampleConfig::default())
    }

    #[test]
    fn stops_at_result_limit() {
        let mut p = policy();
        let mut rng = Rng64::new(80);
        let mut oracle = |f: u64| {
            if f.is_multiple_of(10) {
                Feedback::new(1, 0)
            } else {
                Feedback::NONE
            }
        };
        let t = run_search(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(0.05),
            &StopCond::results(5),
            &mut rng,
        );
        assert_eq!(t.found(), 5);
        assert!(!t.exhausted());
        assert_eq!(t.seconds(), t.samples() as f64 * 0.05);
        let fifth = t.points().iter().find(|p| p.found >= 5).map(|p| p.samples);
        assert_eq!(fifth, Some(t.samples()));
    }

    #[test]
    fn stops_at_sample_budget() {
        let mut p = policy();
        let mut rng = Rng64::new(81);
        let mut oracle = |_f: u64| Feedback::NONE;
        let t = run_search(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(1.0),
            &StopCond::samples(17),
            &mut rng,
        );
        assert_eq!(t.samples(), 17);
        assert_eq!(t.found(), 0);
    }

    #[test]
    fn stops_at_time_budget_with_upfront_cost() {
        // Upfront cost alone exceeds the budget: zero samples taken. This
        // is exactly the proxy-scan pathology of Table I.
        let mut p = policy();
        let mut rng = Rng64::new(82);
        let mut oracle = |_f: u64| Feedback::new(1, 0);
        let cost = SearchCost {
            upfront_s: 100.0,
            per_sample_s: 0.05,
        };
        let t = run_search(
            &mut p,
            &mut oracle,
            &cost,
            &StopCond::seconds(50.0),
            &mut rng,
        );
        assert_eq!(t.samples(), 0);
        assert_eq!(t.found(), 0);
        assert_eq!(t.seconds(), 100.0);
    }

    #[test]
    fn exhaustion_reported() {
        let mut p = ExSample::new(Chunking::even(50, 5), ExSampleConfig::default());
        let mut rng = Rng64::new(83);
        let mut oracle = |_f: u64| Feedback::NONE;
        let t = run_search(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(1.0),
            &StopCond::results(1),
            &mut rng,
        );
        assert!(t.exhausted());
        assert_eq!(t.samples(), 50);
    }

    #[test]
    fn trace_points_are_monotone() {
        let mut p = policy();
        let mut rng = Rng64::new(84);
        let mut oracle = |f: u64| {
            if f.is_multiple_of(7) {
                Feedback::new(1, 0)
            } else {
                Feedback::NONE
            }
        };
        let t = run_search(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(0.01),
            &StopCond::results(30),
            &mut rng,
        );
        for w in t.points().windows(2) {
            assert!(w[0].samples <= w[1].samples);
            assert!(w[0].found <= w[1].found);
            assert!(w[0].seconds <= w[1].seconds);
        }
        assert_eq!(t.points().last().unwrap().found, t.found());
    }

    #[test]
    fn found_at_samples_interpolates() {
        let mut p = policy();
        let mut rng = Rng64::new(85);
        let mut oracle = |f: u64| {
            if f.is_multiple_of(3) {
                Feedback::new(1, 0)
            } else {
                Feedback::NONE
            }
        };
        let t = run_search(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(0.01),
            &StopCond::samples(100),
            &mut rng,
        );
        assert_eq!(t.found_at_samples(t.samples()), t.found());
        assert!(t.found_at_samples(10) <= t.found());
        assert_eq!(t.found_at_samples(0), 0);
    }

    #[test]
    fn stepper_matches_run_search_exactly() {
        // The incremental stepper must reproduce run_search bit-for-bit:
        // same frames, same trace points, same (exact) seconds.
        let oracle = |f: u64| {
            if f.is_multiple_of(9) {
                Feedback::new(1, 0)
            } else {
                Feedback::NONE
            }
        };
        let cost = SearchCost {
            upfront_s: 3.0,
            per_sample_s: 0.05,
        };
        let stop = StopCond::results(12).or_samples(400);

        let mut p1 = policy();
        let mut rng1 = Rng64::new(90);
        let mut o = oracle;
        let blocking = run_search(&mut p1, &mut o, &cost, &stop, &mut rng1);

        let mut p2 = policy();
        let mut rng2 = Rng64::new(90);
        let mut st = SearchStepper::new(stop, cost.seconds(0));
        let mut frames = Vec::new();
        while !st.done() {
            st.next_batch(&mut p2, &mut rng2, 1, &mut frames);
            let Some(&frame) = frames.first() else {
                break;
            };
            let fb = oracle(frame);
            let seconds = cost.seconds(st.samples() + 1);
            st.record(&mut p2, frame, fb, seconds);
        }
        let stepped = st.finish();
        assert_eq!(blocking, stepped);
    }

    #[test]
    fn stepper_born_done_when_stop_already_met() {
        let mut p = policy();
        let mut rng = Rng64::new(91);
        let mut st = SearchStepper::new(StopCond::seconds(10.0), 50.0);
        assert!(st.done());
        let mut frames = vec![7];
        st.next_batch(&mut p, &mut rng, 1, &mut frames);
        assert!(frames.is_empty());
        let t = st.finish();
        assert_eq!(t.samples(), 0);
        assert_eq!(t.seconds(), 50.0);
        assert_eq!(t.points().len(), 1);
    }

    #[test]
    fn stepper_reports_exhaustion() {
        let mut p = ExSample::new(Chunking::even(10, 2), ExSampleConfig::default());
        let mut rng = Rng64::new(92);
        let mut st = SearchStepper::new(StopCond::results(99), 0.0);
        let (mut steps, mut frames) = (0, Vec::new());
        loop {
            st.next_batch(&mut p, &mut rng, 1, &mut frames);
            let Some(&f) = frames.first() else {
                break;
            };
            steps += 1;
            st.record(&mut p, f, Feedback::NONE, steps as f64);
        }
        assert!(st.done());
        assert_eq!(st.samples(), 10);
        let t = st.finish();
        assert!(t.exhausted());
    }

    #[test]
    fn stepper_accepts_caller_supplied_clock() {
        // The engine charges variable per-frame costs (cache hits are
        // cheap); the stepper must stop on whatever clock it is told.
        let mut p = policy();
        let mut rng = Rng64::new(93);
        let mut st = SearchStepper::new(StopCond::seconds(1.0), 0.0);
        let mut clock = 0.0;
        let (mut frames, mut drawn) = (0, Vec::new());
        while !st.done() {
            st.next_batch(&mut p, &mut rng, 1, &mut drawn);
            let Some(&f) = drawn.first() else {
                break;
            };
            frames += 1;
            clock += if frames % 2 == 0 { 0.4 } else { 0.01 };
            st.record(&mut p, f, Feedback::NONE, clock);
        }
        assert!(st.seconds() >= 1.0);
        // Cumulative clock: .01, .41, .42, .82, .83, 1.23 — stops at 6.
        assert_eq!(frames, 6);
    }

    #[test]
    fn batched_run_at_batch_one_is_bit_identical_to_run_search() {
        let oracle = |f: u64| {
            if f.is_multiple_of(11) {
                Feedback::new(1, 0)
            } else {
                Feedback::NONE
            }
        };
        let cost = SearchCost::per_sample(0.05);
        let stop = StopCond::results(9).or_samples(300);
        let mut p1 = policy();
        let mut rng1 = Rng64::new(87);
        let mut o1 = oracle;
        let per_frame = run_search(&mut p1, &mut o1, &cost, &stop, &mut rng1);
        let mut p2 = policy();
        let mut rng2 = Rng64::new(87);
        let mut o2 = oracle;
        let batched = run_search_batched(&mut p2, &mut o2, &cost, &stop, &mut rng2, 1);
        assert_eq!(per_frame, batched);
    }

    #[test]
    fn batched_run_draws_without_repeats_and_stops_mid_batch() {
        // Every frame is a result, so an 8-frame batch overshoots the
        // limit mid-batch: the tail must be discarded, not recorded.
        let mut p = policy();
        let mut rng = Rng64::new(88);
        let mut seen = std::collections::HashSet::new();
        let mut oracle = |f: u64| {
            assert!(seen.insert(f), "frame {f} processed twice");
            Feedback::new(1, 0)
        };
        let t = run_search_batched(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(1.0),
            &StopCond::results(5),
            &mut rng,
            8,
        );
        assert_eq!(t.samples(), 5);
        assert_eq!(t.found(), 5);
        for w in t.points().windows(2) {
            assert!(w[0].samples <= w[1].samples);
            assert!(w[0].found <= w[1].found);
        }
    }

    #[test]
    fn stepper_next_batch_reports_exhaustion() {
        let mut p = ExSample::new(Chunking::even(10, 2), ExSampleConfig::default());
        let mut rng = Rng64::new(89);
        let mut st = SearchStepper::new(StopCond::results(99), 0.0);
        let mut frames = Vec::new();
        let mut processed = 0u64;
        loop {
            st.next_batch(&mut p, &mut rng, 4, &mut frames);
            if frames.is_empty() {
                break;
            }
            for &f in &frames {
                processed += 1;
                st.record(&mut p, f, Feedback::NONE, processed as f64);
            }
        }
        assert!(st.done());
        assert_eq!(st.samples(), 10);
        // Once done, further batch draws stay empty without touching the
        // policy.
        st.next_batch(&mut p, &mut rng, 4, &mut frames);
        assert!(frames.is_empty());
        assert!(st.finish().exhausted());
    }

    #[test]
    fn multiple_results_per_frame_counted() {
        let mut p = policy();
        let mut rng = Rng64::new(86);
        let mut oracle = |_f: u64| Feedback::new(3, 0);
        let t = run_search(
            &mut p,
            &mut oracle,
            &SearchCost::per_sample(1.0),
            &StopCond::results(7),
            &mut rng,
        );
        // 3 per frame: reaches >= 7 after 3 frames (9 found).
        assert_eq!(t.samples(), 3);
        assert_eq!(t.found(), 9);
    }
}
