//! Within-chunk frame ordering: uniform random and stratified *random+*.
//!
//! Plain uniform sampling without replacement is unbiased but clumpy: in a
//! 1000-hour video it starts re-visiting the same hour after only ~30
//! draws (birthday effect). The paper's *random+* (§III-F) avoids this by
//! sampling "one random frame out of every hour, then one frame out of
//! every not-yet sampled half hour at random, and so on": a breadth-first
//! descent through a binary subdivision of the range, random within each
//! stratum and visiting each level's strata in random order. ExSample uses
//! random+ *inside* the chosen chunk; the experiments also evaluate it as
//! a standalone baseline over the whole dataset.

use crate::FrameIdx;
use exsample_stats::{FxHashSet, Rng64, UniformNoReplacement};
use std::sync::Arc;

/// A without-replacement frame stream over one contiguous range.
#[derive(Debug, Clone)]
pub(crate) enum WithinSampler {
    /// Plain uniform without replacement.
    Random(RandomWithin),
    /// Stratified random+ order.
    Stratified(StratifiedWithin),
    /// Descending external score order (the §VII fusion direction).
    Scored(ScoredWithin),
}

impl WithinSampler {
    /// Construct the chosen sampler kind over a frame range.
    pub(crate) fn new(kind: WithinKind, range: std::ops::Range<u64>) -> Self {
        match kind {
            WithinKind::Random => WithinSampler::Random(RandomWithin::new(range)),
            WithinKind::Stratified => WithinSampler::Stratified(StratifiedWithin::new(range)),
        }
    }

    /// Draw the next not-yet-returned frame, or `None` when exhausted.
    pub(crate) fn draw(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        match self {
            WithinSampler::Random(s) => s.draw(rng),
            WithinSampler::Stratified(s) => s.draw(rng),
            WithinSampler::Scored(s) => s.draw(),
        }
    }

    /// Frames not yet returned.
    pub(crate) fn remaining(&self) -> u64 {
        match self {
            WithinSampler::Random(s) => s.remaining(),
            WithinSampler::Stratified(s) => s.remaining(),
            WithinSampler::Scored(s) => s.remaining(),
        }
    }
}

/// Score-descending within-chunk order — the paper's §VII fusion sketch:
/// "the equations in section III remain valid even if sampling within a
/// chunk is non-uniform but based on a score". Chunk *selection* stays
/// adaptive (ExSample); within the chosen chunk, frames are processed from
/// the highest proxy score down.
///
/// Note that obtaining the scores still requires scoring the frames
/// (today: a scan); the paper leaves scan-free predictive scoring as
/// future work, so experiments using this sampler account the scan cost
/// separately.
#[derive(Debug, Clone)]
pub(crate) struct ScoredWithin {
    /// Frame ids of this range, sorted by descending score.
    order: Vec<FrameIdx>,
    pos: usize,
}

impl ScoredWithin {
    /// Build from global per-frame scores (indexed by frame id). Ties
    /// break toward earlier frames.
    ///
    /// # Panics
    /// Panics if the range exceeds the score table or a score is NaN.
    pub(crate) fn new(scores: &Arc<Vec<f32>>, range: std::ops::Range<u64>) -> Self {
        assert!(
            range.end as usize <= scores.len(),
            "score table too short for range {range:?}"
        );
        let mut order: Vec<FrameIdx> = range.collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .expect("scores must not be NaN")
                .then(a.cmp(&b))
        });
        ScoredWithin { order, pos: 0 }
    }

    /// Next frame in score order, or `None` when exhausted.
    pub(crate) fn draw(&mut self) -> Option<FrameIdx> {
        let f = self.order.get(self.pos).copied();
        if f.is_some() {
            self.pos += 1;
        }
        f
    }

    /// Frames not yet returned.
    pub(crate) fn remaining(&self) -> u64 {
        (self.order.len() - self.pos) as u64
    }
}

/// Which within-chunk sampler to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WithinKind {
    /// The paper's default for ExSample chunks (and the `random+`
    /// baseline).
    #[default]
    Stratified,
    /// Plain uniform — the `random` baseline, also used in the
    /// within-chunk ablation.
    Random,
}

impl WithinKind {
    /// Short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            WithinKind::Stratified => "random+",
            WithinKind::Random => "random",
        }
    }
}

/// Uniform sampling without replacement over `[lo, hi)` — a thin wrapper
/// around the sparse Fisher–Yates sampler.
#[derive(Debug, Clone)]
pub struct RandomWithin {
    lo: u64,
    inner: UniformNoReplacement,
}

impl RandomWithin {
    /// Sampler over the given range.
    pub fn new(range: std::ops::Range<u64>) -> Self {
        RandomWithin {
            lo: range.start,
            inner: UniformNoReplacement::new(range.end - range.start),
        }
    }

    /// Draw the next frame.
    pub fn draw(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        self.inner.next(rng).map(|off| self.lo + off)
    }

    /// Frames not yet returned.
    pub fn remaining(&self) -> u64 {
        self.inner.remaining()
    }
}

/// The *random+* stratified order over `[lo, hi)`.
///
/// Level `k` divides the range into `min(2^k, len)` strata. The sampler
/// visits the strata of the current level in a fresh random order, drawing
/// one uniformly random not-yet-sampled frame from each non-exhausted
/// stratum, then descends to the next level. Coverage guarantee: after the
/// level-`k` pass completes, every stratum of width `len/2^k` has been
/// sampled at least once (unless exhausted) — exactly the paper's
/// "every hour before any hour twice" property.
#[derive(Debug, Clone)]
pub struct StratifiedWithin {
    lo: u64,
    len: u64,
    sampled: FxHashSet<u64>,
    /// Current subdivision level; strata count is `min(2^level, len)`.
    level: u32,
    /// Shuffled stratum visit order for the current level.
    order: Vec<u64>,
    pos: usize,
}

impl StratifiedWithin {
    /// Maximum random probes per stratum before falling back to a linear
    /// scan for an unsampled frame.
    const PROBES: usize = 8;

    /// Sampler over the given range.
    pub fn new(range: std::ops::Range<u64>) -> Self {
        let len = range.end - range.start;
        StratifiedWithin {
            lo: range.start,
            len,
            sampled: FxHashSet::default(),
            level: 0,
            order: vec![0],
            pos: 0,
        }
    }

    fn strata(&self) -> u64 {
        if self.level >= 63 {
            self.len
        } else {
            (1u64 << self.level).min(self.len.max(1))
        }
    }

    fn stratum_bounds(&self, s: u64) -> (u64, u64) {
        let strata = self.strata();
        // Multiply-then-divide keeps strata within one frame of equal size.
        (s * self.len / strata, (s + 1) * self.len / strata)
    }

    fn advance_level(&mut self, rng: &mut Rng64) {
        if self.strata() < self.len {
            self.level += 1;
        }
        let strata = self.strata();
        self.order.clear();
        self.order.extend(0..strata);
        rng.shuffle(&mut self.order);
        self.pos = 0;
    }

    /// Frames not yet returned.
    pub fn remaining(&self) -> u64 {
        self.len - self.sampled.len() as u64
    }

    /// Draw the next frame in random+ order, or `None` when exhausted.
    pub fn draw(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        if self.remaining() == 0 {
            return None;
        }
        loop {
            if self.pos >= self.order.len() {
                self.advance_level(rng);
            }
            let s = self.order[self.pos];
            self.pos += 1;
            let (a, b) = self.stratum_bounds(s);
            if a >= b {
                continue; // degenerate stratum (len < strata)
            }
            // Random probes: cheap while the stratum is mostly unsampled.
            for _ in 0..Self::PROBES {
                let cand = rng.u64_range(a, b);
                if self.sampled.insert(cand) {
                    return Some(self.lo + cand);
                }
            }
            // Dense stratum: linear scan from a random start. Stratum sizes
            // shrink geometrically with the level, so this stays cheap.
            let span = b - a;
            let start = rng.u64_below(span);
            for k in 0..span {
                let cand = a + (start + k) % span;
                if self.sampled.insert(cand) {
                    return Some(self.lo + cand);
                }
            }
            // Stratum fully exhausted; move on.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: StratifiedWithin, rng: &mut Rng64) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(f) = s.draw(rng) {
            out.push(f);
        }
        out
    }

    #[test]
    fn stratified_is_a_permutation() {
        let mut rng = Rng64::new(60);
        let out = drain(StratifiedWithin::new(100..612), &mut rng);
        assert_eq!(out.len(), 512);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (100..612).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_covers_halves_before_repeats() {
        // After 2 draws, one draw must be in each half; after 4, one in
        // each quarter, etc. (coverage property of random+).
        let mut rng = Rng64::new(61);
        let mut s = StratifiedWithin::new(0..1024);
        let mut drawn = Vec::new();
        for _ in 0..16 {
            drawn.push(s.draw(&mut rng).unwrap());
        }
        // Levels: 1 draw at level 0, 2 at level 1, 4 at level 2, 8 at level 3.
        let after_level = |k: u32| 2u64.pow(k + 1) - 1;
        for k in 1..4u32 {
            let prefix = &drawn[..after_level(k) as usize];
            let strata = 2u64.pow(k);
            for st in 0..strata {
                let lo = st * 1024 / strata;
                let hi = (st + 1) * 1024 / strata;
                assert!(
                    prefix.iter().any(|&f| f >= lo && f < hi),
                    "level {k}: stratum {st} ({lo}..{hi}) not covered by {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn stratified_tiny_ranges() {
        let mut rng = Rng64::new(62);
        assert_eq!(drain(StratifiedWithin::new(5..6), &mut rng), vec![5]);
        let out = drain(StratifiedWithin::new(0..2), &mut rng);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
        let mut empty = StratifiedWithin::new(7..7);
        assert_eq!(empty.draw(&mut rng), None);
    }

    #[test]
    fn stratified_odd_sizes_exhaust() {
        for n in [3u64, 7, 17, 100, 257, 1000] {
            let mut rng = Rng64::new(63 + n);
            let out = drain(StratifiedWithin::new(0..n), &mut rng);
            assert_eq!(out.len() as u64, n, "n={n}");
            let mut sorted = out;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stratified_remaining_counts_down() {
        let mut rng = Rng64::new(64);
        let mut s = StratifiedWithin::new(0..50);
        assert_eq!(s.remaining(), 50);
        for i in 0..50 {
            s.draw(&mut rng).unwrap();
            assert_eq!(s.remaining(), 50 - i - 1);
        }
        assert_eq!(s.draw(&mut rng), None);
    }

    #[test]
    fn random_within_is_permutation() {
        let mut rng = Rng64::new(65);
        let mut s = RandomWithin::new(10..30);
        let mut out = Vec::new();
        while let Some(f) = s.draw(&mut rng) {
            out.push(f);
        }
        out.sort_unstable();
        assert_eq!(out, (10..30).collect::<Vec<_>>());
    }

    #[test]
    fn scored_within_follows_descending_scores() {
        let scores = Arc::new(vec![0.1f32, 0.9, 0.5, 0.9, 0.0]);
        let mut s = ScoredWithin::new(&scores, 0..5);
        assert_eq!(s.remaining(), 5);
        // Ties (frames 1 and 3 at 0.9) break toward the earlier frame.
        assert_eq!(s.draw(), Some(1));
        assert_eq!(s.draw(), Some(3));
        assert_eq!(s.draw(), Some(2));
        assert_eq!(s.draw(), Some(0));
        assert_eq!(s.draw(), Some(4));
        assert_eq!(s.draw(), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn scored_within_respects_subrange() {
        let scores = Arc::new((0..100).map(|i| i as f32).collect::<Vec<_>>());
        let mut s = ScoredWithin::new(&scores, 40..45);
        let drawn: Vec<u64> = std::iter::from_fn(|| s.draw()).collect();
        assert_eq!(drawn, vec![44, 43, 42, 41, 40]);
    }

    #[test]
    fn wrapper_dispatch() {
        let mut rng = Rng64::new(66);
        for kind in [WithinKind::Random, WithinKind::Stratified] {
            let mut s = WithinSampler::new(kind, 0..10);
            let mut seen = std::collections::HashSet::new();
            while let Some(f) = s.draw(&mut rng) {
                assert!(f < 10);
                assert!(seen.insert(f));
            }
            assert_eq!(seen.len(), 10);
            assert_eq!(s.remaining(), 0);
        }
    }

    #[test]
    fn stratified_early_draws_spread_better_than_random() {
        // Statistical smoke test of the motivation: with 32 draws over 32
        // strata, random+ covers all strata; uniform random typically
        // covers ~20.
        let mut rng = Rng64::new(67);
        let mut s = StratifiedWithin::new(0..32_768);
        let mut covered = std::collections::HashSet::new();
        for _ in 0..32 {
            // Skip the first draw (level 0) — count strata of the 32-wide
            // level regardless.
            let f = s.draw(&mut rng).unwrap();
            covered.insert(f / 1024);
        }
        assert!(covered.len() >= 24, "covered={}", covered.len());
    }
}
