//! The paper-fidelity gate.
//!
//! Savings rows: ExSample's savings over random sampling on table1's own
//! repositories, at three seeds, must land in every band of
//! `fig5::BANDS` — the same bands `fig5` checks at whatever scale it
//! runs. Calibration row: the Gamma belief the sampler draws from
//! (`BeliefPrior::default()`) must track the true expected reward on
//! Fig. 2's workload.
//!
//! The gate is itself tested: four broken samplers put in place of
//! table1's ExSample (three `Faulty` wrappers, and random+) must each
//! turn a named row red. Random sampling is the same in all of them, so
//! its medians are computed once per (query, seed) and shared.

use exsample_core::{Feedback, FrameIdx, SamplingPolicy};
use exsample_experiments::baselines::RandomPlusPolicy;
use exsample_experiments::fig2::{self, Fig2Config};
use exsample_experiments::fig5::BANDS;
use exsample_experiments::presets::dataset;
use exsample_experiments::runner::PolicyFactory;
use exsample_experiments::table1::{self, EvalConfig};
use exsample_experiments::Scale;
use exsample_stats::Rng64;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Gate seeds; 7 is `fig5 --quick`'s own.
const SEEDS: [u64; 3] = [7, 8, 9];

/// What the gate runs in place of table1's ExSample: a function of that
/// policy and the repository's frame count.
type Mutation = fn(Box<dyn SamplingPolicy>, u64) -> Box<dyn SamplingPolicy>;

/// Random's medians to each recall of one query.
type RandomMedians = [Option<f64>; 3];

/// Random's medians for `(dataset, class, seed)`, computed by whichever
/// test asks first; concurrent askers wait for that one computation.
fn random_medians_once(
    key: (&'static str, &'static str, u64),
    compute: impl FnOnce() -> RandomMedians,
) -> RandomMedians {
    type Slots = HashMap<(&'static str, &'static str, u64), Arc<OnceLock<RandomMedians>>>;
    static MEDIANS: OnceLock<Mutex<Slots>> = OnceLock::new();
    let slot = MEDIANS
        .get_or_init(Default::default)
        .lock()
        .expect("medians map poisoned")
        .entry(key)
        .or_default()
        .clone();
    *slot.get_or_init(compute)
}

/// Every miss of the band rows of `queries` (`(dataset, class)`), with
/// table1's ExSample put through `mutate`, at each of `seeds`.
fn savings_misses(
    queries: &[(&'static str, &'static str)],
    seeds: &[u64],
    mutate: Mutation,
) -> Vec<String> {
    let mut misses = Vec::new();
    for &(name, class) in queries {
        let d = dataset(name).expect("preset dataset");
        let (gt, ci) = (d.repository(), d.class_index(class).expect("preset class"));
        let spec = table1::exsample_policy(&d);
        let policy = |frames: u64| mutate(spec.build(frames), frames);
        for &seed in seeds {
            let cfg = EvalConfig {
                seed,
                ..EvalConfig::at_scale(Scale::Quick)
            };
            let random_s = random_medians_once((name, class, seed), || {
                table1::random_medians(&gt, ci, &cfg)
            });
            let e = table1::evaluate_against(&gt, &d, ci, &cfg, &policy, random_s);
            let rows = BANDS
                .iter()
                .filter(|b| (b.dataset, b.class) == (name, class));
            misses.extend(rows.filter_map(|b| b.miss(&e).map(|m| format!("seed {seed}: {m}"))));
        }
    }
    misses
}

fn unmutated(policy: Box<dyn SamplingPolicy>, _frames: u64) -> Box<dyn SamplingPolicy> {
    policy
}

#[test]
fn exsample_savings_land_in_every_band() {
    let mut queries: Vec<(&'static str, &'static str)> =
        BANDS.iter().map(|b| (b.dataset, b.class)).collect();
    queries.dedup();
    assert_eq!(queries.len(), 4);
    let misses = savings_misses(&queries, &SEEDS, unmutated);
    assert!(
        misses.is_empty(),
        "fidelity bands missed:\n{}",
        misses.join("\n")
    );
}

/// Fig. 2's mid-range cells at each gate seed: the belief's mean over the
/// true conditional mean of `R(n+1)` in `[0.91, 1.10]`, and the share of
/// true values inside the belief's 90 % interval in `[0.64, 0.97]` (ten
/// seeds read 0.957–1.049 and 0.725–0.888; each band is that range
/// widened by half its width on both sides).
#[test]
fn the_sampler_s_belief_is_calibrated() {
    for seed in SEEDS {
        let cells = fig2::run(&Fig2Config {
            instances: 500,
            runs: 800,
            checkpoints: vec![5_000, 20_000],
            n1_tolerance: 3,
            seed,
        });
        for c in &cells {
            let ratio = c.gamma_mean / c.actual_mean;
            assert!(
                (0.91..=1.10).contains(&ratio),
                "seed {seed}, n {}: mean ratio {ratio}",
                c.n
            );
            assert!(
                (0.64..=0.97).contains(&c.coverage),
                "seed {seed}, n {}: coverage {}",
                c.n,
                c.coverage
            );
        }
    }
}

/// A fault in how feedback reaches the sampler.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Feedback never arrives.
    Dropped,
    /// `new_results` and `matched_once` trade places.
    Swapped,
    /// Each outcome arrives this many frames late.
    Late(usize),
}

struct Faulty {
    inner: Box<dyn SamplingPolicy>,
    fault: Fault,
    queue: VecDeque<(FrameIdx, Feedback)>,
}

impl Faulty {
    fn wrap(inner: Box<dyn SamplingPolicy>, fault: Fault) -> Box<dyn SamplingPolicy> {
        let queue = VecDeque::new();
        Box::new(Faulty {
            inner,
            fault,
            queue,
        })
    }
}

impl SamplingPolicy for Faulty {
    fn next_frame(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        self.inner.next_frame(rng)
    }

    fn feedback(&mut self, frame: FrameIdx, fb: Feedback) {
        match self.fault {
            Fault::Dropped => {}
            Fault::Swapped => {
                let swapped = Feedback::new(fb.matched_once, fb.new_results);
                self.inner.feedback(frame, swapped)
            }
            Fault::Late(frames) => {
                self.queue.push_back((frame, fb));
                if self.queue.len() > frames {
                    let (frame, fb) = self.queue.pop_front().expect("non-empty");
                    self.inner.feedback(frame, fb);
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("{:?} {}", self.fault, self.inner.name())
    }
}

/// `mutate` run through the gate on `query`, at its first seed, turns
/// `row` red.
fn assert_caught(mutate: Mutation, query: (&'static str, &'static str), row: &str) {
    let misses = savings_misses(&[query], &SEEDS[..1], mutate);
    assert!(
        misses.iter().any(|m| m.contains(row)),
        "the gate passed a broken sampler on {row}; misses: {misses:?}"
    );
}

#[test]
fn dropped_feedback_fails_the_gate() {
    let mutate: Mutation = |p, _| Faulty::wrap(p, Fault::Dropped);
    assert_caught(
        mutate,
        ("dashcam", "bicycle"),
        "dashcam/bicycle @ recall 0.1",
    );
}

#[test]
fn swapped_feedback_counts_fail_the_gate() {
    let mutate: Mutation = |p, _| Faulty::wrap(p, Fault::Swapped);
    assert_caught(
        mutate,
        ("dashcam", "bicycle"),
        "dashcam/bicycle @ recall 0.1",
    );
}

#[test]
fn feedback_500_frames_late_fails_the_gate() {
    let mutate: Mutation = |p, _| Faulty::wrap(p, Fault::Late(500));
    assert_caught(
        mutate,
        ("night street", "person"),
        "night street/person @ recall 0.1",
    );
}

#[test]
fn random_plus_in_place_of_chunk_choice_fails_the_gate() {
    let mutate: Mutation = |_, frames| Box::new(RandomPlusPolicy::new(frames));
    assert_caught(
        mutate,
        ("night street", "person"),
        "night street/person @ recall 0.1",
    );
}
