//! Differential tests of the two-pass Thompson scorer against the
//! single-pass scorer it replaced (`ExSample::pick_thompson_reference`,
//! which exists only under `cfg(test)` — hence these are unit tests; the
//! cross-version side, traces pinned to what the single-pass code drew,
//! is `tests/proptest_screen.rs`).
//!
//! Two samplers are built alike, one is switched to the reference scorer,
//! and both are driven through the public entry points with equal seeds:
//! every frame, and the RNG state after every call, must agree. In debug
//! builds the scorer additionally asserts that each group it screened out
//! scores below the bar and each group it let win unscored scores above.

use super::*;
use proptest::prelude::*;

/// A sampler over `m` chunks of `per_chunk` frames and its reference twin.
fn twins(m: usize, per_chunk: u64, warm: Option<&[ChunkStats]>) -> (ExSample, ExSample) {
    let mut screened = ExSample::new(
        Chunking::even(m as u64 * per_chunk, m),
        ExSampleConfig::default(),
    );
    if let Some(stats) = warm {
        screened.import_stats(stats);
    }
    let mut reference = screened.clone();
    reference.reference_scorer = true;
    (screened, reference)
}

/// A belief state of the kind a search leaves behind: most chunks sit on
/// one of a few shared `(N1, n)` levels (large groups), the rest hold
/// statistics of their own (small groups).
fn clustered_beliefs(m: usize, levels: usize, loners: f64, rng: &mut Rng64) -> Vec<ChunkStats> {
    let random_stats = |rng: &mut Rng64| ChunkStats {
        n1: rng.u64_below(50) as f64,
        n: rng.u64_below(10_000),
    };
    let shared: Vec<ChunkStats> = (0..levels)
        .map(|i| {
            let mut s = random_stats(rng);
            if i % 2 == 0 {
                s.n1 = 0.0; // what most of a rare-object repository looks like
            }
            s
        })
        .collect();
    (0..m)
        .map(|_| {
            if rng.chance(loners) {
                random_stats(rng)
            } else {
                *rng.choose(&shared)
            }
        })
        .collect()
}

/// Sparse, frame-determined feedback, so beliefs keep diverging during a
/// run and both twins see the same outcomes.
fn outcome(frame: FrameIdx) -> Feedback {
    match (frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 23 {
        0 => Feedback::new(1, 0),
        1 => Feedback::new(0, 1),
        _ => Feedback::NONE,
    }
}

/// Drive both twins for `picks` picks, alternating 64 single steps (with
/// feedback after each) and a batch of 16 (feedback after the batch).
/// Returns the frames drawn.
fn run_twins(
    screened: &mut ExSample,
    reference: &mut ExSample,
    seed: u64,
    picks: usize,
) -> Vec<FrameIdx> {
    let mut rng_s = Rng64::new(seed);
    let mut rng_r = Rng64::new(seed);
    let (mut out_s, mut out_r) = (Vec::new(), Vec::new());
    let mut frames = Vec::new();
    while frames.len() < picks {
        for _ in 0..64 {
            let f = screened.next_frame(&mut rng_s);
            assert_eq!(f, reference.next_frame(&mut rng_r), "pick {}", frames.len());
            assert_eq!(rng_s, rng_r, "RNG diverged at pick {}", frames.len());
            let Some(f) = f else {
                return frames;
            };
            frames.push(f);
            screened.feedback(f, outcome(f));
            reference.feedback(f, outcome(f));
        }
        screened.next_batch(16, &mut rng_s, &mut out_s);
        reference.next_batch(16, &mut rng_r, &mut out_r);
        assert_eq!(out_s, out_r, "batch after pick {}", frames.len());
        assert_eq!(
            rng_s,
            rng_r,
            "RNG diverged in batch after pick {}",
            frames.len()
        );
        for &f in &out_s {
            screened.feedback(f, outcome(f));
            reference.feedback(f, outcome(f));
        }
        frames.extend_from_slice(&out_s);
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// 60 cases x 1,760 picks = 105,600 picks over random belief states.
    #[test]
    fn screened_picker_matches_reference(
        size in 0usize..3,
        levels in 1usize..7,
        loners in 0.0f64..0.12,
        warm: bool,
        seed: u64,
    ) {
        let m = [64, 1024, 1600][size];
        let beliefs = clustered_beliefs(m, levels, loners, &mut Rng64::new(seed ^ 0xBE11EF));
        let (mut screened, mut reference) = twins(m, 40, warm.then_some(&beliefs[..]));
        let frames = run_twins(&mut screened, &mut reference, seed, 1_760);
        prop_assert_eq!(frames.len(), 1_760);
        prop_assert_eq!(screened.chunk_stats(), reference.chunk_stats());
    }
}

#[test]
fn whole_search_at_m1024_draws_the_reference_sequence() {
    // To exhaustion, so that retirement and the shrinking of large groups
    // below the threshold are covered too.
    let (mut screened, mut reference) = twins(1024, 24, None);
    let frames = run_twins(&mut screened, &mut reference, 2024, usize::MAX);
    assert_eq!(frames.len(), 1024 * 24);
    assert_eq!(screened.active_chunks(), 0);
    assert_eq!(reference.active_chunks(), 0);
}

#[test]
fn near_ties_in_the_tail_are_settled_by_the_exact_quantile() {
    // One hot chunk, Gamma(1030.1, 100) with draws b = 10.3 ± 0.3, against
    // 99,999 untouched ones whose group maximum is F⁻¹(u), u = U^(1/99999),
    // of Gamma(0.1, 1). There 1 - F(b) is 2e-7 … 8e-7, so u lands within
    // the 1e-6 margin of F(b) in about one pick in seven and only the exact
    // quantile can say which side wins — the untouched group in about one
    // pick in twenty.
    let m = 100_000;
    let hot = 31_337;
    let mut beliefs = vec![ChunkStats::default(); m];
    beliefs[hot] = ChunkStats { n1: 1030.0, n: 99 };
    let (mut screened, mut reference) = twins(m, 10_000, Some(&beliefs));
    let (mut rng_s, mut rng_r) = (Rng64::new(7), Rng64::new(7));
    let (mut out_s, mut out_r) = (Vec::new(), Vec::new());
    // No feedback: the beliefs stay as constructed.
    screened.next_batch(4_000, &mut rng_s, &mut out_s);
    reference.next_batch(4_000, &mut rng_r, &mut out_r);
    assert_eq!(out_s, out_r);
    assert_eq!(rng_s, rng_r);
    let chunking = screened.chunking();
    let cold_wins = out_s
        .iter()
        .filter(|&&f| chunking.chunk_of(f) != hot)
        .count();
    assert!(
        (40..1_000).contains(&cold_wins),
        "cold group won {cold_wins} of 4000"
    );
}
