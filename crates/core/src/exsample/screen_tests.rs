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
//! — by a CDF evaluation, by a remembered one or by another group's floor —
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

const FRAMES_PER_RARE_CHUNK: u64 = 400;

/// Rare objects: one chunk in sixteen holds any, and there one frame in
/// eleven shows a new one. The other chunks climb `(0, n)` level by level
/// in large groups that keep their beliefs for hundreds of picks.
fn rare_outcome(frame: FrameIdx) -> Feedback {
    let hot = (frame / FRAMES_PER_RARE_CHUNK) % 16 == 5;
    if hot && (frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).is_multiple_of(11) {
        Feedback::new(1, 0)
    } else {
        Feedback::NONE
    }
}

fn run_twins(
    screened: &mut ExSample,
    reference: &mut ExSample,
    seed: u64,
    picks: usize,
) -> Vec<FrameIdx> {
    run_twins_on(screened, reference, seed, picks, outcome)
}

/// Drive both twins for `picks` picks, alternating 64 single steps (with
/// feedback after each) and a batch of 16 (feedback after the batch).
/// Returns the frames drawn.
fn run_twins_on(
    screened: &mut ExSample,
    reference: &mut ExSample,
    seed: u64,
    picks: usize,
    outcome: fn(FrameIdx) -> Feedback,
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

/// Large groups whose memo was filled under another `(N1, n)` than the
/// one the group id stands for now.
fn stale_memos(policy: &ExSample) -> usize {
    let groups = &policy.groups;
    policy
        .memos
        .iter()
        .enumerate()
        .filter(|&(gid, memo)| {
            groups.members[gid].len() >= GROUP_MAX_THRESHOLD
                && memo.key != groups.keys[gid]
                && !memo.points.is_empty()
        })
        .count()
}

#[test]
fn full_memos_keep_answering_over_a_long_rare_object_search() {
    let (mut screened, mut reference) = twins(1024, FRAMES_PER_RARE_CHUNK, None);
    let frames = run_twins_on(&mut screened, &mut reference, 31, 16_000, rare_outcome);
    assert_eq!(frames.len(), 16_000);
    let full = |p: &ExSample| {
        p.memos
            .iter()
            .filter(|m| m.points.len() == ScreenMemo::CAPACITY)
            .count()
    };
    assert!(full(&screened) > 0, "no memo reached its capacity");
    assert!(screened
        .memos
        .iter()
        .all(|m| m.points.len() <= ScreenMemo::CAPACITY
            && m.points.windows(2).all(|w| w[0].0 <= w[1].0)));

    // With full memos in play: still the reference's picks, and most
    // screens still answered from memory.
    let before = screened.scoring_work();
    let frames = run_twins_on(&mut screened, &mut reference, 32, 8_000, rare_outcome);
    assert_eq!(frames.len(), 8_000);
    assert!(full(&screened) > 0);
    let after = screened.scoring_work();
    let screens = after.large_groups - before.large_groups;
    let evaluated = after.cdf_evals - before.cdf_evals;
    assert!(screens > 8_000, "{screens} large groups screened");
    assert!(
        evaluated * 10 < screens,
        "{evaluated} CDF evaluations for {screens} screens"
    );
    assert_eq!(reference.scoring_work(), ScoringWork::default());
}

#[test]
fn a_recycled_group_id_does_not_inherit_the_memo() {
    // 96 chunks walk up the levels (0, 0), (0, 1), (0, 2), … together; a
    // level is a large group while at least 24 of them stand on it, drains
    // as they move on, and its group id goes to a level that forms later —
    // with the drained level's CDF points still in the memo at that index.
    // Only the key kept beside the points tells that they describe another
    // belief. With the comparison in `ScreenMemo::revalidate` deleted this
    // test fails (tried: the first stale screen drops a group that scores
    // above the bar — a debug assertion in debug builds, a pick that
    // differs from the reference's in release builds).
    let (mut screened, mut reference) = twins(96, 4_000, None);
    let (mut rng_s, mut rng_r) = (Rng64::new(5), Rng64::new(5));
    let mut stale = 0;
    for pick in 0..6_000 {
        stale += stale_memos(&screened);
        let f = screened.next_frame(&mut rng_s);
        assert_eq!(f, reference.next_frame(&mut rng_r), "pick {pick}");
        assert_eq!(rng_s, rng_r, "RNG diverged at pick {pick}");
        let f = f.expect("frames remain");
        // Chunks 0..8 pay off now and then: the small groups whose draws
        // are the bar the large ones are screened against.
        let fb = if f < 8 * 4_000 && f.is_multiple_of(3) {
            Feedback::new(1, 0)
        } else {
            Feedback::NONE
        };
        screened.feedback(f, fb);
        reference.feedback(f, fb);
    }
    assert!(stale >= 2, "only {stale} picks met a stale memo");
    assert_eq!(stale_memos(&screened), stale_memos(&screened.clone()));
}

#[test]
fn import_stats_mid_run_empties_what_it_invalidates() {
    let (mut screened, mut reference) = twins(1024, 40, None);
    run_twins(&mut screened, &mut reference, 41, 1_760);
    assert!(screened.memos.iter().any(|m| !m.points.is_empty()));
    // The same grouping under other beliefs, twice: the first import moves
    // every group to an id that was free, which frees the ids the memos
    // were filled under; the second moves large groups back onto those.
    for shift in [1_000, 2_000] {
        let beliefs: Vec<ChunkStats> = screened
            .chunk_stats()
            .iter()
            .map(|s| ChunkStats {
                n1: s.n1,
                n: s.n + shift,
            })
            .collect();
        screened.import_stats(&beliefs);
        reference.import_stats(&beliefs);
    }
    assert!(stale_memos(&screened) > 0, "no memo under a stale key");
    let frames = run_twins(&mut screened, &mut reference, 43, 1_760);
    assert_eq!(frames.len(), 1_760);
    assert_eq!(screened.chunk_stats(), reference.chunk_stats());
}

#[test]
fn a_clone_mid_run_continues_as_its_original() {
    let (mut original, mut reference) = twins(1024, 40, None);
    run_twins(&mut original, &mut reference, 51, 1_760);
    assert!(original.memos.iter().any(|m| !m.points.is_empty()));
    let mut copy = original.clone();
    let mut reference_of_copy = reference.clone();
    let a = run_twins(&mut original, &mut reference, 52, 1_760);
    let b = run_twins(&mut copy, &mut reference_of_copy, 52, 1_760);
    assert_eq!(a, b);
    // Same picks is what the reference guarantees either way; the copy
    // also took its memos along and did the same work.
    assert_eq!(original.scoring_work(), copy.scoring_work());
}
