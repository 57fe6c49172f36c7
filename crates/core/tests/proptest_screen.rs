//! The Thompson scorer from the outside: traces pinned across versions.
//!
//! `ExSample` decides the Thompson argmax over large chunk groups by
//! comparing in probability space and computes a Gamma quantile only when
//! that cannot settle it (see the `exsample` module docs). That must not
//! move a single draw. Inside the crate the two-pass scorer is compared
//! pick by pick with the single-pass scorer it replaced
//! (`src/exsample/screen_tests.rs`: the reference exists only under
//! `cfg(test)`, which an integration test cannot see). Here the same is
//! pinned through the public API: the fingerprints below were recorded from
//! the single-pass implementation, before the two-pass scorer existed, and
//! a sampler change that shifts the RNG stream or the argmax fails them.
//! The whole-search case also holds the scorer's work counters
//! (`ExSample::scoring_work`) under recorded ceilings.

use exsample_core::belief::ChunkStats;
use exsample_core::exsample::{ExSample, ExSampleConfig, ScoringWork};
use exsample_core::policy::{Feedback, SamplingPolicy};
use exsample_core::Chunking;
use exsample_stats::Rng64;

const FRAMES_PER_CHUNK: u64 = 40;

/// A belief state like the one a search leaves behind: two large groups of
/// untouched-looking chunks, a mid-sized group with one result, and one
/// chunk in nineteen with statistics of its own.
fn searched_beliefs(m: usize) -> Vec<ChunkStats> {
    (0..m)
        .map(|j| match j % 19 {
            0 => ChunkStats {
                n1: (j % 7) as f64,
                n: 30 + (j % 50) as u64,
            },
            1..=11 => ChunkStats { n1: 0.0, n: 12 },
            12..=16 => ChunkStats { n1: 0.0, n: 13 },
            _ => ChunkStats { n1: 1.0, n: 12 },
        })
        .collect()
}

fn sampler(m: usize, warm: bool) -> ExSample {
    let mut policy = ExSample::new(
        Chunking::even(m as u64 * FRAMES_PER_CHUNK, m),
        ExSampleConfig::default(),
    );
    if warm {
        policy.import_stats(&searched_beliefs(m));
    }
    policy
}

/// Skewed and frame-determined: the first eighth of the repository pays
/// off one frame in three, the rest one in sixty; every fifth result is
/// seen a second time later.
fn outcome(frame: u64, frames: u64) -> Feedback {
    let h = frame.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    let period = if frame < frames / 8 { 3 } else { 60 };
    match (h % period, h % 5) {
        (0, 0) => Feedback::new(1, 1),
        (0, _) => Feedback::new(1, 0),
        _ => Feedback::NONE,
    }
}

/// `(frames drawn, FNV-1a of the frame sequence, next RNG output)` of a
/// search of at most `picks` picks in batches of `batch`.
fn fingerprint(m: usize, warm: bool, batch: usize, picks: usize, seed: u64) -> (usize, u64, u64) {
    search(m, warm, batch, picks, seed).0
}

/// The fingerprint of a search and what scoring it took.
fn search(
    m: usize,
    warm: bool,
    batch: usize,
    picks: usize,
    seed: u64,
) -> ((usize, u64, u64), ScoringWork) {
    let mut policy = sampler(m, warm);
    let frames = policy.chunking().frames();
    let mut rng = Rng64::new(seed);
    let mut out = Vec::new();
    let (mut drawn, mut hash) = (0, 0xCBF2_9CE4_8422_2325u64);
    while drawn < picks {
        policy.next_batch(batch, &mut rng, &mut out);
        if out.is_empty() {
            break;
        }
        for &f in &out {
            hash = (hash ^ f).wrapping_mul(0x0000_0100_0000_01B3);
            policy.feedback(f, outcome(f, frames));
        }
        drawn += out.len();
    }
    ((drawn, hash, rng.next_u64()), policy.scoring_work())
}

/// `(chunks, warm start, batch, seed) -> fingerprint`, recorded at the
/// last commit whose scorer evaluated one quantile per large group.
#[allow(clippy::type_complexity)]
const RECORDED: &[((usize, bool, usize, u64), (usize, u64, u64))] = &[
    (
        (64, false, 1, 11),
        (2560, 0xdf72c1b62d6ea683, 0x03050e6093a33553),
    ),
    (
        (64, true, 16, 12),
        (2560, 0xbbebc1ce2935f2a3, 0xcb931183f34dad58),
    ),
    (
        (1024, false, 1, 13),
        (6000, 0xd11342cc9f683137, 0x7c502f6e17dfd82d),
    ),
    (
        (1024, false, 16, 14),
        (6000, 0x45aeb93fda872652, 0x8ee8245438f67b9e),
    ),
    (
        (1024, true, 1, 15),
        (6000, 0x27fcf10d4c705157, 0x99b976c2a977a176),
    ),
    (
        (1024, true, 16, 16),
        (6000, 0xa22899f4fa8a73a6, 0x3a9342f693b26a79),
    ),
    (
        (1600, false, 16, 17),
        (6000, 0x7575d535f67c0b06, 0xe2e7b9468be0be6a),
    ),
    (
        (1600, true, 1, 18),
        (6000, 0x6b573bced740bd0b, 0x627dbb1649299ebc),
    ),
];

#[test]
fn traces_are_those_of_the_single_pass_scorer() {
    let mut mismatches = Vec::new();
    for &((m, warm, batch, seed), want) in RECORDED {
        let got = fingerprint(m, warm, batch, 6_000, seed);
        if got != want {
            mismatches.push(format!(
                "(({m}, {warm}, {batch}, {seed}), ({}, {:#018x}, {:#018x})),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "traces moved; now:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn whole_search_at_m1024_is_the_recorded_sequence() {
    // To exhaustion: large groups shrink below the threshold and chunks
    // retire on the way.
    let (got, work) = search(1024, false, 1, usize::MAX, 2024);
    let want = (1024 * 40, 0x4625_cf55_7883_34f5, 0x2a4a_41c7_8cf9_8c28);
    assert_eq!(got, want, "{:#018x} {:#018x}", got.1, got.2);

    // The same search, held to a number of operations instead of a clock.
    // The scorer before the screen memo (PR 21), carrying these counters
    // in a scratch copy, took 1,760,963 Gamma draws, 355,950 CDF
    // evaluations and 32,303 quantiles for it; this one was recorded at
    // 9,033 and 6,397. The draws are the RNG stream and must not move at
    // all. The ceilings sit just above the recorded counts — more than ten
    // times under the old CDF count and under half the old quantile count —
    // so an edit that quietly stops the memo answering fails here.
    assert_eq!(work.picks, 1024 * 40);
    assert_eq!(work.gamma_draws, 1_760_963);
    assert!(work.cdf_evals <= 9_500, "{work:?}");
    assert!(work.quantile_evals <= 6_700, "{work:?}");
    assert!(work.boosts_evaluated < work.boost_draws / 4, "{work:?}");
}
