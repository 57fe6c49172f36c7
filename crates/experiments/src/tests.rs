//! Unit tests of the evaluation's comparison points, [`crate::baselines`]
//! and [`crate::optimal`]. They sit in the crate-root test module, where
//! they ran when each was a crate of its own, so every test keeps its
//! path.

use crate::baselines::*;
use crate::optimal::*;
use exsample_core::chunking::Chunking;
use exsample_core::policy::{Feedback, SamplingPolicy};
use exsample_stats::Rng64;
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};

// Baseline policies.

fn drain(policy: &mut dyn SamplingPolicy, seed: u64) -> Vec<u64> {
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    while let Some(f) = policy.next_frame(&mut rng) {
        out.push(f);
    }
    out
}

fn assert_permutation(mut xs: Vec<u64>, n: u64) {
    assert_eq!(xs.len() as u64, n);
    xs.sort_unstable();
    assert_eq!(xs, (0..n).collect::<Vec<_>>());
}

#[test]
fn random_policy_is_permutation() {
    assert_permutation(drain(&mut RandomPolicy::new(500), 1), 500);
}

#[test]
fn random_plus_policy_is_permutation() {
    assert_permutation(drain(&mut RandomPlusPolicy::new(313), 2), 313);
}

#[test]
fn sequential_policy_visits_in_stride_order() {
    let mut p = SequentialPolicy::new(10, 3);
    let out = drain(&mut p, 3);
    assert_eq!(out, vec![0, 3, 6, 9, 1, 4, 7, 2, 5, 8]);
}

#[test]
fn sequential_policy_stride_one() {
    let out = drain(&mut SequentialPolicy::new(5, 1), 4);
    assert_eq!(out, vec![0, 1, 2, 3, 4]);
}

#[test]
fn sequential_policy_stride_larger_than_frames() {
    assert_permutation(drain(&mut SequentialPolicy::new(4, 100), 5), 4);
}

#[test]
fn proxy_policy_follows_score_order() {
    let order = vec![7, 3, 9, 1, 0, 2, 4, 5, 6, 8];
    let mut p = ProxyOrderPolicy::new(order.clone(), 0);
    assert_eq!(drain(&mut p, 6), order);
}

#[test]
fn proxy_policy_avoids_neighbours_then_drains() {
    // Frames 10 and 11 are adjacent; with window 2 the second must be
    // deferred behind 50.
    let order = vec![10, 11, 50];
    let mut p = ProxyOrderPolicy::new(order, 2);
    assert_eq!(drain(&mut p, 7), vec![10, 50, 11]);
}

#[test]
fn proxy_policy_window_edges() {
    let order = vec![100, 103, 104, 200];
    // window 3: 103 within 3 of 100 -> deferred; 104 within 3 of 100?
    // |104-100| = 4 > 3 -> emitted.
    let mut p = ProxyOrderPolicy::new(order, 3);
    assert_eq!(drain(&mut p, 8), vec![100, 104, 200, 103]);
}

#[test]
fn proxy_policy_remains_complete_permutation() {
    let order: Vec<u64> = (0..200).rev().collect();
    let mut p = ProxyOrderPolicy::new(order, 5);
    assert_permutation(drain(&mut p, 9), 200);
}

#[test]
#[should_panic(expected = "duplicate frame")]
fn proxy_policy_rejects_duplicate_order() {
    ProxyOrderPolicy::new(vec![1, 2, 1], 0);
}

#[test]
fn names() {
    assert_eq!(RandomPolicy::new(1).name(), "random");
    assert_eq!(RandomPlusPolicy::new(1).name(), "random+");
    assert_eq!(SequentialPolicy::new(1, 30).name(), "sequential(stride=30)");
    assert_eq!(ProxyOrderPolicy::new(vec![], 9).name(), "proxy-order(w=9)");
}

#[test]
fn random_policies_ignore_feedback() {
    let mut p = RandomPolicy::new(10);
    let mut rng = Rng64::new(11);
    let a = p.next_frame(&mut rng).unwrap();
    p.feedback(a, Feedback::new(5, 2));
    // No panic, no state change observable beyond the draw stream.
    assert!(p.next_frame(&mut rng).is_some());
}

// The optimal static allocation and the skew metric.

fn two_chunk_probs(p0: f64, p1: f64, count0: usize, count1: usize) -> ChunkProbs {
    let mut rows = Vec::new();
    for _ in 0..count0 {
        rows.push(vec![(0u32, p0)]);
    }
    for _ in 0..count1 {
        rows.push(vec![(1u32, p1)]);
    }
    ChunkProbs {
        num_chunks: 2,
        rows,
    }
}

#[test]
fn expected_found_closed_form() {
    // One instance with p=0.5 in chunk 0; uniform weights over 2
    // chunks -> effective p = 0.25; n = 2 -> 1 - 0.75^2 = 0.4375.
    let probs = two_chunk_probs(0.5, 0.0, 1, 0);
    let got = probs.expected_found(&[0.5, 0.5], 2);
    assert!((got - 0.4375).abs() < 1e-12, "got={got}");
}

#[test]
fn uniform_weights_match_uniform_helper() {
    let probs = two_chunk_probs(0.1, 0.2, 5, 7);
    let w = vec![0.5, 0.5];
    assert!((probs.expected_found(&w, 50) - probs.expected_found_uniform(50)).abs() < 1e-12);
}

#[test]
fn all_mass_one_chunk_gets_full_weight() {
    // All instances in chunk 0: optimum must put (almost) all weight
    // there.
    let probs = two_chunk_probs(0.01, 0.0, 20, 0);
    let w = optimal_weights(&probs, 100, SolveOpts::default());
    assert!(w[0] > 0.99, "w={w:?}");
    assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn symmetric_chunks_get_equal_weight() {
    let probs = two_chunk_probs(0.05, 0.05, 10, 10);
    let w = optimal_weights(&probs, 200, SolveOpts::default());
    assert!((w[0] - 0.5).abs() < 0.01, "w={w:?}");
}

#[test]
fn matches_brute_force_on_two_chunks() {
    // Asymmetric: chunk 0 has few long instances, chunk 1 many short.
    let probs = two_chunk_probs(0.2, 0.01, 3, 60);
    let n = 150;
    let solver = optimal_weights(&probs, n, SolveOpts::default());
    let f_solver = probs.expected_found(&solver, n);
    let mut best = 0.0f64;
    for i in 0..=1000 {
        let w0 = i as f64 / 1000.0;
        best = best.max(probs.expected_found(&[w0, 1.0 - w0], n));
    }
    assert!(
        f_solver >= best - 1e-3 * best,
        "solver={f_solver} brute={best}"
    );
}

#[test]
fn more_samples_shift_weight_toward_hard_chunk() {
    // With a tiny budget, the high-yield chunk dominates; with a huge
    // budget, it saturates and the optimum spreads to the rare chunk.
    let probs = two_chunk_probs(0.5, 0.001, 10, 10);
    let w_small = optimal_weights(&probs, 5, SolveOpts::default());
    let w_large = optimal_weights(&probs, 20_000, SolveOpts::default());
    assert!(
        w_small[0] > w_large[0],
        "small={w_small:?} large={w_large:?}"
    );
    assert!(w_large[1] > 0.9, "large={w_large:?}");
}

#[test]
fn optimal_beats_uniform_under_skew() {
    let probs = two_chunk_probs(0.02, 0.0005, 50, 50);
    for n in [10u64, 100, 1000] {
        let w = optimal_weights(&probs, n, SolveOpts::default());
        assert!(
            probs.expected_found(&w, n) >= probs.expected_found_uniform(n) - 1e-9,
            "n={n}"
        );
    }
}

#[test]
fn build_from_ground_truth() {
    let spec = DatasetSpec::single_class(1000, ClassSpec::new("car", 30, 40.0, SkewSpec::Uniform));
    let gt = spec.generate(3);
    let chunking = Chunking::even(1000, 10);
    let probs = ChunkProbs::build(&gt, ClassId(0), &chunking);
    assert_eq!(probs.num_instances(), 30);
    assert_eq!(probs.num_chunks(), 10);
    // Each row's total expected overlap equals duration / chunk_len
    // summed: with equal chunk lengths, sum of p over chunks = dur/100.
    for (inst, row) in gt.instances_of_class(ClassId(0)).zip(&probs.rows) {
        let sum: f64 = row.iter().map(|&(_, p)| p).sum();
        assert!(
            (sum - inst.duration as f64 / 100.0).abs() < 1e-9,
            "instance {:?}",
            inst.id
        );
        for &(_, p) in row {
            assert!(p > 0.0 && p <= 1.0);
        }
    }
}

#[test]
fn curve_is_monotone() {
    let probs = two_chunk_probs(0.05, 0.01, 10, 40);
    let pts = optimal_curve(&probs, &[1, 10, 100, 1000], SolveOpts::default());
    for w in pts.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-9);
    }
    assert!(pts.last().unwrap().1 <= 50.0 + 1e-9);
}

#[test]
fn skew_metric_uniform_is_one() {
    assert!((skew_metric(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
}

#[test]
fn skew_metric_concentrated() {
    // One of 8 chunks holds everything: k=1, S = 4.
    assert!((skew_metric(&[0, 80, 0, 0, 0, 0, 0, 0]) - 4.0).abs() < 1e-12);
    // Two of 8 chunks hold half each... k=1 covers half: S = 4.
    assert!((skew_metric(&[40, 40, 0, 0, 0, 0, 0, 0]) - 4.0).abs() < 1e-12);
}

#[test]
fn skew_metric_empty() {
    assert_eq!(skew_metric(&[]), 1.0);
    assert_eq!(skew_metric(&[0, 0, 0]), 1.0);
}

#[test]
fn chunk_counts_sum_to_instances() {
    let spec = DatasetSpec::single_class(
        10_000,
        ClassSpec::new("car", 100, 50.0, SkewSpec::CentralNormal { frac95: 0.1 }),
    );
    let gt = spec.generate(4);
    let chunking = Chunking::even(10_000, 20);
    let counts = chunk_instance_counts(&gt, ClassId(0), &chunking);
    assert_eq!(counts.iter().sum::<usize>(), 100);
    // Skewed placement: the busiest chunk holds far more than 1/20.
    assert!(*counts.iter().max().unwrap() > 15);
    let s = skew_metric(&counts);
    assert!(s > 2.0, "S={s}");
}
