//! The ExSample policy: Thompson sampling over per-chunk Good–Turing
//! beliefs (paper Algorithm 1).
//!
//! # Scaling to thousands of chunks
//!
//! A naive Thompson step draws one Gamma sample per chunk — 1600 draws per
//! processed frame on BDD-MOT-style per-clip chunkings, which dominates
//! the sampler's own cost. This implementation exploits that chunks with
//! identical statistics `(N1, n)` have *i.i.d.* beliefs: they are grouped,
//! and for a group of size `k >= GROUP_MAX_THRESHOLD` the maximum of `k`
//! i.i.d. draws is `F⁻¹(u)` with `u = U^(1/k)` — one uniform instead of
//! `k` Gamma draws; the winning chunk is then chosen uniformly within its
//! group (exact by exchangeability). Early in a search all `M` chunks share
//! the state `(0, 0)`; the cost grows only with the number of *distinct*
//! chunk states.
//!
//! The quantile `F⁻¹` is a Halley iteration over the incomplete gamma
//! function and costs as much as 50–70 Marsaglia–Tsang draws (2.0 µs
//! against 40 ns for a draw at shape 0.1 and 28 ns at shape ≥ 1; the
//! `gamma/inv_cdf` and `belief/prepared_draw/*` cases of `cargo bench -p
//! exsample-bench --bench micro` regenerate the ratio), so a searched
//! sampler at `M = 1024`, which holds about three large groups beside some
//! forty small ones, would spend three quarters of a step in three
//! quantiles if it scored each. Only the *argmax* is needed, and `F` is
//! non-decreasing, so the step is split in two passes:
//!
//! 1. **Draw.** Walk the groups in id order and consume the RNG: a small
//!    group draws each member from a belief prepared once for the group
//!    (`Gamma::prepare`) and the best draw so far, `b`, is kept; a large
//!    group only draws its `u`. A member's draw matters only if it is
//!    above `b`, which lets most draws at shape below 1 skip the `powf`
//!    that ends them (`PreparedGamma::sample_above`: 31 ns instead of 44).
//! 2. **Screen.** `F_g⁻¹(u_g) > b ⇔ u_g > F_g(b)`, so a large group is
//!    compared with `b` in probability space, on the cheapest rung of four
//!    that settles it:
//!    * **Bracket** (a binary search over at most 64 points). `F_g`
//!      depends on the group's `(N1, n)` alone, so every `(b, F_g(b))` an
//!      earlier pick computed still holds, and `F_g(b_lo) <= F_g(b) <=
//!      F_g(b_hi)` for the nearest remembered points either side of `b`:
//!      `u_g` below `F_g(b_lo)` puts the group out, `u_g` above `F_g(b_hi)`
//!      puts it ahead (`ScreenMemo`).
//!    * **CDF** (0.4 µs), only when `u_g` falls inside that bracket; the
//!      new point is remembered. If no group is left the small-group draw
//!      wins; if exactly one is left, ahead, it wins *without its score
//!      ever being computed*.
//!    * **Floor** (binary searches again), when two or more are left: the
//!      highest remembered point that one of them surely scores above is
//!      bracketed against the others, and if it puts them all out, that
//!      group wins unscored as well.
//!    * **Quantile** (2.0 µs), when that fails or `u_g` lies within
//!      `SCREEN_MARGIN` of `F_g(b)` — for the group with the highest
//!      floor, whose score then becomes the bar the others are screened
//!      against.
//!
//!    On the benchmark's `solo_manychunk` searches (`ExSample::scoring_work`
//!    counts them; `exsample_next_frame/searched_chunks/1024` of the micro
//!    bench prints the ratios) a pick screens 3.0 large groups, of which
//!    0.10 reach the CDF — 3.2 did before there was a memo —, about one
//!    pick in four reaches the floor and 0.02–0.03 quantiles are left of
//!    0.24. What remains of a step is its 55–60 draws.
//!
//! The chunk returned and the RNG state left behind are those of the
//! single walk that scored every large group (kept under `cfg(test)` as
//! `pick_thompson_reference` and compared pick by pick in
//! `exsample/screen_tests.rs`): pass 1 draws in the same order, a group is
//! only ever dropped when it provably scores below another, exact scores
//! are compared wherever that cannot be shown, and a tie goes to the
//! lowest group id, which is what "first strictly greater score in id
//! order" amounts to. The order in which survivors are scored is the only
//! thing a memo can change.

use crate::belief::{BeliefPrior, ChunkStats, Selector};
use crate::chunking::Chunking;
use crate::policy::{Feedback, SamplingPolicy};
use crate::within::{WithinKind, WithinSampler};
use crate::FrameIdx;
use exsample_stats::dist::Continuous;
use exsample_stats::{FxHashMap, Rng64};

/// Tunable parameters of [`ExSample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExSampleConfig {
    /// Gamma prior pseudo-counts (α0, β0). Paper default `(0.1, 1)`.
    pub prior: BeliefPrior,
    /// Chunk-selection rule. Paper default Thompson sampling.
    pub selector: Selector,
    /// Within-chunk frame order. Paper default random+ (stratified).
    pub within: WithinKind,
}

impl Default for ExSampleConfig {
    fn default() -> Self {
        ExSampleConfig {
            prior: BeliefPrior::default(),
            selector: Selector::Thompson,
            within: WithinKind::Stratified,
        }
    }
}

/// Sentinel group id for chunks that have been retired (exhausted).
const RETIRED: u32 = u32::MAX;

/// Chunks grouped by identical `(N1, n)` statistics.
///
/// Maintained incrementally: a feedback event moves exactly one chunk
/// between groups; exhaustion removes it. Group membership uses
/// swap-remove with back-pointers, so every operation is O(1).
#[derive(Debug, Clone)]
struct ChunkGroups {
    /// State key -> group id.
    map: FxHashMap<(u64, u64), u32>,
    /// Group id -> member chunk ids (unordered).
    members: Vec<Vec<u32>>,
    /// Group id -> state key (for map cleanup).
    keys: Vec<(u64, u64)>,
    /// Chunk id -> (group id, index within the group), or RETIRED.
    slot: Vec<(u32, u32)>,
    /// Recycled group ids.
    free: Vec<u32>,
    /// Number of non-retired chunks.
    active: usize,
}

impl ChunkGroups {
    fn state_key(s: &ChunkStats) -> (u64, u64) {
        (s.n1.to_bits(), s.n)
    }

    /// The statistics every member of group `gid` shares.
    fn stats(&self, gid: usize) -> ChunkStats {
        let (n1, n) = self.keys[gid];
        ChunkStats {
            n1: f64::from_bits(n1),
            n,
        }
    }

    fn new(m: usize) -> Self {
        let mut g = ChunkGroups {
            map: FxHashMap::default(),
            members: vec![(0..m as u32).collect()],
            keys: vec![Self::state_key(&ChunkStats::default())],
            slot: (0..m as u32).map(|i| (0u32, i)).collect(),
            free: Vec::new(),
            active: m,
        };
        g.map.insert(g.keys[0], 0);
        g
    }

    /// Detach a chunk from its current group (does not change `active`).
    fn detach(&mut self, chunk: u32) {
        let (gid, idx) = self.slot[chunk as usize];
        debug_assert_ne!(gid, RETIRED, "chunk already retired");
        let members = &mut self.members[gid as usize];
        members.swap_remove(idx as usize);
        if let Some(&moved) = members.get(idx as usize) {
            self.slot[moved as usize].1 = idx;
        }
        if members.is_empty() {
            self.map.remove(&self.keys[gid as usize]);
            self.free.push(gid);
        }
    }

    /// Attach a chunk to the group for `key`, creating it if necessary.
    fn attach(&mut self, chunk: u32, key: (u64, u64)) {
        let gid = match self.map.get(&key) {
            Some(&gid) => gid,
            None => {
                let gid = match self.free.pop() {
                    Some(gid) => {
                        self.keys[gid as usize] = key;
                        gid
                    }
                    None => {
                        self.members.push(Vec::new());
                        self.keys.push(key);
                        (self.members.len() - 1) as u32
                    }
                };
                self.map.insert(key, gid);
                gid
            }
        };
        let members = &mut self.members[gid as usize];
        members.push(chunk);
        self.slot[chunk as usize] = (gid, (members.len() - 1) as u32);
    }

    /// Move a chunk to the group matching its new statistics. No-op for
    /// retired chunks.
    fn update(&mut self, chunk: u32, stats: &ChunkStats) {
        if self.slot[chunk as usize].0 == RETIRED {
            return;
        }
        let key = Self::state_key(stats);
        if self.keys[self.slot[chunk as usize].0 as usize] == key {
            return;
        }
        self.detach(chunk);
        self.attach(chunk, key);
    }

    /// Permanently remove an exhausted chunk.
    fn retire(&mut self, chunk: u32) {
        if self.slot[chunk as usize].0 == RETIRED {
            return;
        }
        self.detach(chunk);
        self.slot[chunk as usize] = (RETIRED, 0);
        self.active -= 1;
    }
}

/// The adaptive chunk-based sampler.
///
/// Maintains `(N1_j, n_j)` per chunk; each [`SamplingPolicy::next_frame`]
/// call scores every non-exhausted chunk group, picks the argmax, and
/// draws a frame from that chunk's without-replacement random+ stream.
/// [`SamplingPolicy::feedback`] routes `(|d0|, |d1|)` to the sampled
/// chunk's statistics.
#[derive(Debug, Clone)]
pub struct ExSample {
    chunking: Chunking,
    config: ExSampleConfig,
    stats: Vec<ChunkStats>,
    within: Vec<WithinSampler>,
    groups: ChunkGroups,
    /// Total frames handed out (the global step counter `n`).
    steps: u64,
    /// Scratch of [`ExSample::pick_thompson`]: the large groups between
    /// its two passes. Kept to reuse the allocation; cleared at the start
    /// of every pick.
    pending: Vec<Pending>,
    /// What earlier screens learnt about each large group's CDF, indexed
    /// by group id; grown on demand, so a sampler that never holds a
    /// large group never allocates one.
    memos: Vec<ScreenMemo>,
    work: ScoringWork,
    /// Score with [`ExSample::pick_thompson_reference`] instead — the
    /// differential tests run one sampler each way.
    #[cfg(test)]
    reference_scorer: bool,
}

/// Group size from which the Thompson max is taken as the `U^(1/k)`
/// quantile instead of `k` individual draws.
///
/// A quantile costs 50–70 draws (module docs), not the ~30 this value was
/// chosen for, and since the CDF screen most large groups never pay for
/// one at all — both say the break-even is elsewhere. The value is frozen
/// all the same: it decides which groups consume one uniform and which `k`
/// Gamma draws, so moving it shifts the RNG stream and with it every trace,
/// and nothing yet tells a harmless shift from a broken sampler. Retune it
/// once the ROADMAP's paper-fidelity gates (estimator calibration, savings
/// over random at fixed recall) exist.
const GROUP_MAX_THRESHOLD: usize = 24;

/// How far `u` must lie from `F(b)` for the comparison in probability
/// space to stand in for comparing `F⁻¹(u)` with `b`; closer calls are
/// settled by the exact quantile. Two premises, both over every belief the
/// sampler can hold (`exsample-stats`, `tests/proptests.rs`): the computed
/// `F` inverts the computed `F⁻¹` to within 1e-8
/// (`gamma_cdf_inverts_quantile_on_sampler_domain`; measured worst case
/// 5e-14), and — since a remembered `F(b')` is compared with draws screened
/// against any other bar — it is non-decreasing between *arbitrary* points
/// to 1e-12, across the switch from series to continued fraction too
/// (`gamma_cdf_is_monotone_between_arbitrary_points`). 1e-6 leaves two
/// orders of magnitude. What it costs: where `b` lies so deep in a group's
/// tail that `F(b)` rounds to 1, any `u` above `1 - 1e-6` is a close call —
/// `k` in a million of that group's screens, five screens in ten thousand
/// on the benchmark's `solo_manychunk` searches.
const SCREEN_MARGIN: f64 = 1e-6;

/// Counts of what [`ExSample`]'s Thompson scorer has done, for tests and
/// benches that hold its cost to a number of operations instead of a
/// clock. Observation only: nothing reads them back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoringWork {
    /// Thompson steps taken.
    pub picks: u64,
    /// Non-empty chunk groups walked.
    pub groups: u64,
    /// Of those, groups of at least `GROUP_MAX_THRESHOLD` chunks.
    pub large_groups: u64,
    /// Gamma draws (one per member of every small group).
    pub gamma_draws: u64,
    /// Of those, draws at shape below 1, which end in a boost `U^(1/α)`.
    pub boost_draws: u64,
    /// Boosts that had to be evaluated; the rest could not have won.
    pub boosts_evaluated: u64,
    /// `Gamma::cdf` evaluations.
    pub cdf_evals: u64,
    /// `Gamma::inv_cdf` evaluations.
    pub quantile_evals: u64,
}

/// The argmax of a scoring pass: a concrete chunk (small Thompson groups
/// track their own best member) or "a uniform member of this group".
#[derive(Debug, Clone, Copy)]
enum Winner {
    Chunk(u32),
    Group(u32),
}

/// A large group between the two passes of [`ExSample::pick_thompson`].
#[derive(Debug, Clone, Copy)]
struct Pending {
    gid: u32,
    /// Where on its belief's CDF the group's Thompson maximum sits.
    u: f64,
    /// `u - F(b)` against the incumbent score `b` it was last screened
    /// against, or a lower bound of it where a remembered point settled the
    /// screen; infinite while there is no incumbent.
    lead: f64,
}

/// Points `(b, F(b))` of one large group's belief CDF that earlier screens
/// computed, sorted by `b`. `F` depends on the group's `(N1, n)` alone,
/// so the points hold for as long as the group id keeps its key — through
/// any number of picks, feedback events and membership changes.
#[derive(Debug, Clone, Default)]
struct ScreenMemo {
    /// The `(N1, n)` the points belong to. A group id is recycled, and
    /// `import_stats` can hand it another belief: a memo under another
    /// key is emptied before use.
    key: (u64, u64),
    points: Vec<(f64, f64)>,
}

/// What a [`ScreenMemo`] says about `u - F(b)` without evaluating `F`.
enum Bracket {
    /// `F(b) > u + SCREEN_MARGIN`: the group scores below `b`.
    Below,
    /// `F(b) < u - SCREEN_MARGIN`: the group scores above `b`, and
    /// `u - F(b)` is at least this.
    Ahead(f64),
    /// `b` lies between remembered points that `u` separates.
    Open,
}

impl ScreenMemo {
    /// Points remembered per group: 1 KiB for each group id that has held
    /// a large group, of which there are `M / GROUP_MAX_THRESHOLD` at a
    /// time. Counted on the benchmark's `solo_manychunk` shape (three
    /// seeds), 16 points leave 0.20–0.32 CDF evaluations per pick, 32
    /// leave 0.11–0.13, 64 leave 0.095–0.102, and 128 or 256 no fewer.
    const CAPACITY: usize = 64;

    /// Empty the memo unless it was filled under `key`.
    fn revalidate(&mut self, key: (u64, u64)) {
        if self.key != key {
            self.key = key;
            self.points.clear();
        }
    }

    /// Compare `u` with `F(b)` through the nearest remembered points on
    /// either side of `b`: `F` is non-decreasing, so `F(b_lo) <= F(b) <=
    /// F(b_hi)`.
    fn bracket(&self, b: f64, u: f64) -> Bracket {
        let above = self.points.partition_point(|&(x, _)| x <= b);
        if let Some(&(_, f)) = above.checked_sub(1).and_then(|lo| self.points.get(lo)) {
            if u - f < -SCREEN_MARGIN {
                return Bracket::Below;
            }
        }
        if let Some(&(_, f)) = self.points.get(above) {
            if u - f > SCREEN_MARGIN {
                return Bracket::Ahead(u - f);
            }
        }
        Bracket::Open
    }

    /// Remember `F(b) = f`. A full memo then forgets the point that says
    /// least — the one whose neighbours lie closest together in `F` — so
    /// its resolution follows the bars the search currently produces.
    fn remember(&mut self, b: f64, f: f64) {
        if self.points.capacity() == 0 {
            self.points.reserve_exact(Self::CAPACITY + 1);
        }
        let at = self.points.partition_point(|&(x, _)| x <= b);
        self.points.insert(at, (b, f));
        if self.points.len() > Self::CAPACITY {
            let gap = |w: &[(f64, f64)]| match w {
                [lo, _, hi] => hi.1 - lo.1,
                _ => f64::INFINITY,
            };
            let least = self
                .points
                .windows(3)
                .enumerate()
                .min_by(|(_, v), (_, w)| gap(v).total_cmp(&gap(w)))
                .map_or(0, |(i, _)| i + 1);
            self.points.remove(least);
        }
    }

    /// The largest remembered `b` that a group at `u` surely scores
    /// above: `F(b) < u - SCREEN_MARGIN`.
    fn floor(&self, u: f64) -> Option<f64> {
        let surely = |f: f64| u - f > SCREEN_MARGIN;
        let above = self.points.partition_point(|&(_, f)| surely(f));
        let &(b, f) = self.points.get(above.checked_sub(1)?)?;
        // The computed `F` may dip by an ulp between neighbours, which
        // leaves the partition point loose by one.
        surely(f).then_some(b)
    }
}

impl ExSample {
    /// Create a sampler over the given chunking.
    pub fn new(chunking: Chunking, config: ExSampleConfig) -> Self {
        let m = chunking.num_chunks();
        let within = (0..m)
            .map(|j| WithinSampler::new(config.within, chunking.range(j)))
            .collect();
        Self::from_parts(chunking, config, within)
    }

    /// Create a sampler with custom within-chunk streams — used by the
    /// §VII *fusion* variant ([`ExSample::fused`]) and available for
    /// experimentation with other orders.
    ///
    /// # Panics
    /// Panics if the number of samplers differs from the chunk count.
    pub fn from_parts(
        chunking: Chunking,
        config: ExSampleConfig,
        within: Vec<WithinSampler>,
    ) -> Self {
        let m = chunking.num_chunks();
        assert_eq!(within.len(), m, "one within-chunk sampler per chunk");
        ExSample {
            chunking,
            config,
            stats: vec![ChunkStats::default(); m],
            within,
            groups: ChunkGroups::new(m),
            steps: 0,
            pending: Vec::new(),
            memos: Vec::new(),
            work: ScoringWork::default(),
            #[cfg(test)]
            reference_scorer: false,
        }
    }

    /// The §VII fusion variant: adaptive (Thompson) chunk selection with
    /// *score-descending* order inside each chunk. `scores` is a global
    /// per-frame score table (e.g. from a proxy model); callers decide how
    /// to account for the cost of producing it.
    pub fn fused(
        chunking: Chunking,
        config: ExSampleConfig,
        scores: &std::sync::Arc<Vec<f32>>,
    ) -> Self {
        let within = (0..chunking.num_chunks())
            .map(|j| {
                WithinSampler::Scored(crate::within::ScoredWithin::new(scores, chunking.range(j)))
            })
            .collect();
        Self::from_parts(chunking, config, within)
    }

    /// The chunk partition this sampler operates on.
    pub fn chunking(&self) -> &Chunking {
        &self.chunking
    }

    /// Per-chunk statistics (index = chunk id). The export half of
    /// warm-starting: persist these and feed them to
    /// [`ExSample::import_stats`] on a later sampler over the same
    /// chunking.
    pub fn chunk_stats(&self) -> &[ChunkStats] {
        &self.stats
    }

    /// Warm-start: replace every chunk's `(N1, n)` statistics wholesale,
    /// e.g. with the final beliefs of an earlier search over the same
    /// repository (cross-session belief sharing). The imported values are
    /// adopted bit-for-bit — [`ExSample::chunk_stats`] returns exactly
    /// `stats` afterwards — and the scoring groups are rebuilt to match.
    /// Within-chunk sampling streams are *not* affected: the new search
    /// still visits frames without replacement from scratch; only its
    /// beliefs start informed instead of at the prior.
    ///
    /// # Panics
    /// Panics if `stats.len()` differs from the chunk count.
    pub fn import_stats(&mut self, stats: &[ChunkStats]) {
        assert_eq!(
            stats.len(),
            self.stats.len(),
            "imported statistics must cover every chunk"
        );
        for (j, s) in stats.iter().enumerate() {
            self.stats[j] = *s;
            self.groups.update(j as u32, s);
        }
    }

    /// Work the Thompson scorer has done since this sampler was created.
    pub fn scoring_work(&self) -> ScoringWork {
        self.work
    }

    /// Total frames handed out so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of chunks that still have frames left.
    pub fn active_chunks(&self) -> usize {
        self.groups.active
    }

    /// The de-facto sampling weights `n_j / n` ExSample has realized so
    /// far — comparable against the optimal offline weights of Eq. IV.1.
    pub fn realized_weights(&self) -> Vec<f64> {
        let n: u64 = self.stats.iter().map(|s| s.n).sum();
        if n == 0 {
            vec![1.0 / self.stats.len() as f64; self.stats.len()]
        } else {
            self.stats.iter().map(|s| s.n as f64 / n as f64).collect()
        }
    }

    /// Score all chunk groups and return the winning chunk id.
    fn pick_chunk(&mut self, rng: &mut Rng64) -> Option<u32> {
        if self.groups.active == 0 {
            return None;
        }
        let winner = match self.config.selector {
            #[cfg(test)]
            Selector::Thompson if self.reference_scorer => self.pick_thompson_reference(rng),
            Selector::Thompson => self.pick_thompson(rng),
            selector => self.pick_deterministic(selector, rng),
        };
        winner.map(|w| match w {
            Winner::Chunk(chunk) => chunk,
            Winner::Group(gid) => *rng.choose(&self.groups.members[gid as usize]),
        })
    }

    /// Bayes-UCB and greedy: every member of a group has the same score,
    /// so each group is scored once.
    fn pick_deterministic(&self, selector: Selector, rng: &mut Rng64) -> Option<Winner> {
        let mut best_score = f64::NEG_INFINITY;
        let mut best = None;
        for (gid, members) in self.groups.members.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let stats = self.groups.stats(gid);
            let s = selector.score(&self.config.prior, &stats, self.steps, rng);
            if s > best_score {
                best_score = s;
                best = Some(Winner::Group(gid as u32));
            }
        }
        best
    }

    /// The Thompson argmax over all groups, in two passes (module docs).
    fn pick_thompson(&mut self, rng: &mut Rng64) -> Option<Winner> {
        let Self {
            config,
            groups,
            pending,
            memos,
            work,
            ..
        } = self;
        let prior = config.prior;
        pending.clear();
        work.picks += 1;

        // Pass 1: everything that touches the RNG, in group-id order. The
        // incumbent is the best small-group draw; `best_at` is the group id
        // it was drawn at, which settles ties the way a single walk would.
        let mut best_score = f64::NEG_INFINITY;
        let mut best_at = u32::MAX;
        let mut best = None;
        for (gid, members) in groups.members.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            work.groups += 1;
            let k = members.len();
            if k >= GROUP_MAX_THRESHOLD {
                if memos.len() <= gid {
                    memos.resize_with(groups.members.len(), ScreenMemo::default);
                }
                memos[gid].revalidate(groups.keys[gid]);
                pending.push(Pending {
                    gid: gid as u32,
                    u: rng.f64_open().powf(1.0 / k as f64).min(1.0 - 1e-12),
                    lead: f64::INFINITY,
                });
            } else {
                // Only a draw above the incumbent matters, and most
                // cannot be: see `PreparedGamma::sample_above`.
                let draw = prior.belief(&groups.stats(gid)).prepare();
                for &chunk in members {
                    if let Some(s) = draw.sample_above(rng, best_score) {
                        best_score = s;
                        best_at = gid as u32;
                        best = Some(Winner::Chunk(chunk));
                    }
                }
                work.gamma_draws += k as u64;
                if draw.is_boosted() {
                    work.boost_draws += k as u64;
                    work.boosts_evaluated += draw.boosts_evaluated();
                }
            }
        }
        work.large_groups += pending.len() as u64;

        // Pass 2: no RNG. Screen the large groups against the incumbent in
        // probability space — through what earlier screens remembered
        // first — and compute a quantile only where that cannot settle the
        // argmax.
        let belief = |p: &Pending| prior.belief(&groups.stats(p.gid as usize));
        let mut rescreen = best.is_some();
        loop {
            if rescreen {
                pending.retain_mut(|p| {
                    let memo = &mut memos[p.gid as usize];
                    let keep = match memo.bracket(best_score, p.u) {
                        Bracket::Below => false,
                        Bracket::Ahead(lead) => {
                            p.lead = lead;
                            true
                        }
                        Bracket::Open => {
                            work.cdf_evals += 1;
                            let f = belief(p).cdf(best_score);
                            memo.remember(best_score, f);
                            p.lead = p.u - f;
                            p.lead >= -SCREEN_MARGIN
                        }
                    };
                    debug_assert!(
                        keep || belief(p).inv_cdf(p.u) < best_score,
                        "group {} screened out at u {:e} but scores above {best_score}",
                        p.gid,
                        p.u
                    );
                    keep
                });
                rescreen = false;
            }
            match pending.as_slice() {
                [] => break best,
                [only] if only.lead > SCREEN_MARGIN => {
                    debug_assert!(
                        belief(only).inv_cdf(only.u) > best_score,
                        "group {} won unscored at lead {:e} but scores below {best_score}",
                        only.gid,
                        only.lead
                    );
                    break Some(Winner::Group(only.gid));
                }
                _ => {}
            }
            // The likeliest winner: whoever surely scores above the highest
            // remembered point, or failing that is furthest ahead. Before
            // paying for its exact score, that point may already be out of
            // the others' reach.
            let mut next = 0;
            let mut floor = f64::NEG_INFINITY;
            for (i, p) in pending.iter().enumerate() {
                let f = memos[p.gid as usize]
                    .floor(p.u)
                    .unwrap_or(f64::NEG_INFINITY);
                if f > floor || (f == floor && p.lead > pending[next].lead) {
                    next = i;
                    floor = f;
                }
            }
            let p = pending.swap_remove(next);
            if floor > best_score {
                pending.retain(|q| {
                    let below = matches!(memos[q.gid as usize].bracket(floor, q.u), Bracket::Below);
                    debug_assert!(
                        !below || belief(q).inv_cdf(q.u) < belief(&p).inv_cdf(p.u),
                        "group {} dropped below floor {floor} of group {} but outscores it",
                        q.gid,
                        p.gid
                    );
                    !below
                });
                if pending.is_empty() {
                    debug_assert!(
                        belief(&p).inv_cdf(p.u) > best_score.max(floor),
                        "group {} won unscored on floor {floor} but scores below it",
                        p.gid
                    );
                    break Some(Winner::Group(p.gid));
                }
            }
            work.quantile_evals += 1;
            let s = belief(&p).inv_cdf(p.u);
            debug_assert!(
                p.lead <= SCREEN_MARGIN || s > best_score,
                "group {} at lead {:e} scores {s}, not above {best_score}",
                p.gid,
                p.lead
            );
            if s > best_score || (s == best_score && p.gid < best_at) {
                rescreen = s > best_score;
                best_score = s;
                best_at = p.gid;
                best = Some(Winner::Group(p.gid));
            }
        }
    }

    /// The single-pass scorer [`ExSample::pick_thompson`] replaced: one
    /// quantile per large group, compared as it is computed. Kept as the
    /// oracle of the differential tests; it must consume the RNG and break
    /// ties exactly as the two-pass scorer claims to.
    #[cfg(test)]
    fn pick_thompson_reference(&self, rng: &mut Rng64) -> Option<Winner> {
        let prior = &self.config.prior;
        let mut best_score = f64::NEG_INFINITY;
        let mut best = None;
        for (gid, members) in self.groups.members.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let stats = self.groups.stats(gid);
            let k = members.len();
            if k >= GROUP_MAX_THRESHOLD {
                // Max of k iid draws via one quantile evaluation.
                let u = rng.f64_open().powf(1.0 / k as f64).min(1.0 - 1e-12);
                let s = prior.belief(&stats).inv_cdf(u);
                if s > best_score {
                    best_score = s;
                    best = Some(Winner::Group(gid as u32));
                }
            } else {
                for &chunk in members {
                    let s = prior.thompson_draw(&stats, rng);
                    if s > best_score {
                        best_score = s;
                        best = Some(Winner::Chunk(chunk));
                    }
                }
            }
        }
        best
    }
}

impl SamplingPolicy for ExSample {
    fn next_frame(&mut self, rng: &mut Rng64) -> Option<FrameIdx> {
        loop {
            let j = self.pick_chunk(rng)?;
            match self.within[j as usize].draw(rng) {
                Some(frame) => {
                    self.steps += 1;
                    // Retire eagerly once the last frame is handed out so
                    // future picks never select an empty chunk.
                    if self.within[j as usize].remaining() == 0 {
                        self.groups.retire(j);
                    }
                    return Some(frame);
                }
                None => self.groups.retire(j),
            }
        }
    }

    fn feedback(&mut self, frame: FrameIdx, fb: Feedback) {
        let j = self.chunking.chunk_of(frame);
        self.stats[j].update(fb.new_results, fb.matched_once);
        self.groups.update(j as u32, &self.stats[j]);
    }

    /// The §III-F batched mode: `batch` Thompson draws with **no**
    /// intermediate feedback — every draw scores the chunk groups under
    /// the same beliefs, exactly as if the detector results were still in
    /// flight. Frames come from the same without-replacement within-chunk
    /// streams as [`SamplingPolicy::next_frame`], so at `batch = 1` the
    /// RNG consumption (and therefore the whole trace) is bit-identical
    /// to per-frame stepping, and exhausted chunks are retired eagerly so
    /// a draw never lands on an empty chunk. A frame can never appear
    /// twice in flight: chunks partition the frame range and each chunk's
    /// within-stream samples without replacement (asserted in debug
    /// builds, and enforced by the batch proptests).
    fn next_batch(&mut self, batch: usize, rng: &mut Rng64, out: &mut Vec<FrameIdx>) {
        out.clear();
        out.reserve(batch);
        while out.len() < batch {
            let Some(j) = self.pick_chunk(rng) else {
                break;
            };
            match self.within[j as usize].draw(rng) {
                Some(frame) => {
                    self.steps += 1;
                    if self.within[j as usize].remaining() == 0 {
                        self.groups.retire(j);
                    }
                    debug_assert!(!out.contains(&frame), "duplicate frame {frame} in batch");
                    out.push(frame);
                }
                None => self.groups.retire(j),
            }
        }
    }

    fn name(&self) -> String {
        format!(
            "exsample(M={},{},{})",
            self.chunking.num_chunks(),
            self.config.selector.name(),
            self.config.within.name()
        )
    }
}

#[cfg(test)]
mod screen_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belief::Selector;

    fn run_policy(policy: &mut ExSample, oracle: impl Fn(u64) -> Feedback, n: usize, seed: u64) {
        let mut rng = Rng64::new(seed);
        for _ in 0..n {
            let Some(f) = policy.next_frame(&mut rng) else {
                break;
            };
            policy.feedback(f, oracle(f));
        }
    }

    #[test]
    fn fused_variant_prioritizes_high_scores_within_chunks() {
        // Scores increase with the frame id inside each chunk; the fused
        // sampler must emit each chunk's frames in descending order.
        let scores = std::sync::Arc::new((0..100).map(|i| (i % 25) as f32).collect::<Vec<_>>());
        let mut p = ExSample::fused(Chunking::even(100, 4), ExSampleConfig::default(), &scores);
        let mut rng = Rng64::new(69);
        let mut last_in_chunk = [f32::INFINITY; 4];
        let mut seen = std::collections::HashSet::new();
        while let Some(f) = p.next_frame(&mut rng) {
            assert!(seen.insert(f));
            let chunk = (f / 25) as usize;
            let score = scores[f as usize];
            assert!(
                score <= last_in_chunk[chunk],
                "chunk {chunk} emitted score {score} after {}",
                last_in_chunk[chunk]
            );
            last_in_chunk[chunk] = score;
            p.feedback(f, Feedback::NONE);
        }
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn never_repeats_and_exhausts() {
        let mut p = ExSample::new(Chunking::even(500, 5), ExSampleConfig::default());
        let mut rng = Rng64::new(70);
        let mut seen = std::collections::HashSet::new();
        while let Some(f) = p.next_frame(&mut rng) {
            assert!(f < 500);
            assert!(seen.insert(f), "repeated frame {f}");
            p.feedback(f, Feedback::NONE);
        }
        assert_eq!(seen.len(), 500);
        assert_eq!(p.next_frame(&mut rng), None);
        assert_eq!(p.active_chunks(), 0);
    }

    #[test]
    fn concentrates_sampling_on_rewarding_chunk() {
        // Frames 0..100 are chunk 0 and pay off every time; the other nine
        // chunks never do. After a burn-in, chunk 0 must dominate.
        let mut p = ExSample::new(Chunking::even(1000, 10), ExSampleConfig::default());
        run_policy(
            &mut p,
            |f| {
                if f < 100 {
                    Feedback::new(1, 0)
                } else {
                    Feedback::NONE
                }
            },
            80, // chunk 0 has 100 frames; stop before exhausting it
            71,
        );
        let n0 = p.chunk_stats()[0].n;
        let rest: u64 = p.chunk_stats()[1..].iter().map(|s| s.n).sum();
        assert!(n0 > rest, "n0={n0} rest={rest}");
        let w = p.realized_weights();
        assert!(w[0] > 0.5, "weights={w:?}");
    }

    #[test]
    fn uniform_when_no_reward_anywhere() {
        let mut p = ExSample::new(Chunking::even(4000, 4), ExSampleConfig::default());
        run_policy(&mut p, |_| Feedback::NONE, 2000, 72);
        for s in p.chunk_stats() {
            // Each chunk ~500 of 2000 samples; allow generous slack.
            assert!((300..700).contains(&s.n), "stats={:?}", p.chunk_stats());
        }
    }

    #[test]
    fn grouped_path_matches_individual_path_statistically() {
        // Many identical chunks (quantile path) vs few (draw path): with no
        // rewards both must allocate uniformly.
        let mut p = ExSample::new(Chunking::even(6400, 64), ExSampleConfig::default());
        run_policy(&mut p, |_| Feedback::NONE, 3200, 73);
        let counts: Vec<u64> = p.chunk_stats().iter().map(|s| s.n).collect();
        let mean = 3200.0 / 64.0;
        for (j, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > mean * 0.3 && (c as f64) < mean * 2.5,
                "chunk {j}: {c} vs mean {mean}"
            );
        }
    }

    #[test]
    fn feedback_routes_to_correct_chunk() {
        let mut p = ExSample::new(Chunking::even(100, 4), ExSampleConfig::default());
        p.feedback(10, Feedback::new(2, 0)); // chunk 0
        p.feedback(30, Feedback::new(1, 1)); // chunk 1
        p.feedback(99, Feedback::new(0, 1)); // chunk 3
        assert_eq!(p.chunk_stats()[0].n1, 2.0);
        assert_eq!(p.chunk_stats()[0].n, 1);
        assert_eq!(p.chunk_stats()[1].n1, 0.0);
        assert_eq!(p.chunk_stats()[2], ChunkStats::default());
        assert_eq!(p.chunk_stats()[3].n, 1);
    }

    #[test]
    fn batch_mode_draws_distinct_frames() {
        let mut p = ExSample::new(Chunking::even(1000, 10), ExSampleConfig::default());
        let mut rng = Rng64::new(73);
        let mut out = Vec::new();
        p.next_batch(64, &mut rng, &mut out);
        assert_eq!(out.len(), 64);
        let set: std::collections::HashSet<u64> = out.iter().copied().collect();
        assert_eq!(set.len(), 64);
    }

    #[test]
    fn next_batch_of_one_matches_next_frame_bit_for_bit() {
        // The engine's batched stepping at batch = 1 must reproduce
        // per-frame traces exactly, which requires identical RNG
        // consumption between the two draw paths.
        let mk = || ExSample::new(Chunking::even(500, 8), ExSampleConfig::default());
        let mut a = mk();
        let mut rng_a = Rng64::new(101);
        let mut b = mk();
        let mut rng_b = Rng64::new(101);
        let mut out = Vec::new();
        for step in 0..=500 {
            let fa = a.next_frame(&mut rng_a);
            b.next_batch(1, &mut rng_b, &mut out);
            assert_eq!(fa, out.first().copied(), "step {step}");
            let Some(f) = fa else {
                break;
            };
            let r = if f % 7 == 0 {
                Feedback::new(1, 0)
            } else {
                Feedback::NONE
            };
            a.feedback(f, r);
            b.feedback(f, r);
        }
    }

    #[test]
    fn batches_drain_exhausted_chunks_cleanly() {
        // Chunks far smaller than the batch: every batch spans several
        // chunk retirements, and the union of batches must be exactly the
        // frame set, without repeats.
        let mut p = ExSample::new(Chunking::even(100, 25), ExSampleConfig::default());
        let mut rng = Rng64::new(102);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        loop {
            p.next_batch(16, &mut rng, &mut out);
            if out.is_empty() {
                break;
            }
            for &f in &out {
                assert!(seen.insert(f), "repeated frame {f}");
            }
            for &f in &out {
                p.feedback(f, Feedback::NONE);
            }
        }
        assert_eq!(seen.len(), 100);
        assert_eq!(p.active_chunks(), 0);
    }

    #[test]
    fn all_selectors_and_withins_work() {
        for selector in [Selector::Thompson, Selector::BayesUcb, Selector::Greedy] {
            for within in [WithinKind::Stratified, WithinKind::Random] {
                let cfg = ExSampleConfig {
                    prior: BeliefPrior::default(),
                    selector,
                    within,
                };
                let mut p = ExSample::new(Chunking::even(200, 4), cfg);
                let mut rng = Rng64::new(74);
                let mut seen = std::collections::HashSet::new();
                for _ in 0..200 {
                    let f = p.next_frame(&mut rng).expect("not exhausted yet");
                    assert!(seen.insert(f));
                    p.feedback(f, Feedback::NONE);
                }
                assert_eq!(p.next_frame(&mut rng), None, "{}", p.name());
            }
        }
    }

    #[test]
    fn single_chunk_is_just_within_sampler() {
        let mut p = ExSample::new(Chunking::single(64), ExSampleConfig::default());
        let mut rng = Rng64::new(75);
        let mut n = 0;
        while p.next_frame(&mut rng).is_some() {
            n += 1;
        }
        assert_eq!(n, 64);
    }

    #[test]
    fn name_reflects_config() {
        let p = ExSample::new(Chunking::even(10, 2), ExSampleConfig::default());
        assert_eq!(p.name(), "exsample(M=2,thompson,random+)");
    }

    #[test]
    fn steps_counts_draws() {
        let mut p = ExSample::new(Chunking::even(100, 2), ExSampleConfig::default());
        let mut rng = Rng64::new(76);
        for _ in 0..10 {
            p.next_frame(&mut rng);
        }
        assert_eq!(p.steps(), 10);
    }

    #[test]
    fn many_identical_chunks_still_explore_all() {
        // With 100 chunks in one group, every chunk must eventually be
        // sampled (the uniform-member selection must not starve anyone).
        let mut p = ExSample::new(Chunking::even(10_000, 100), ExSampleConfig::default());
        run_policy(&mut p, |_| Feedback::NONE, 2_000, 77);
        let unsampled = p.chunk_stats().iter().filter(|s| s.n == 0).count();
        assert_eq!(unsampled, 0, "{unsampled} chunks never sampled");
    }

    #[test]
    fn import_stats_is_bit_identical_and_rebuilds_groups() {
        let mut donor = ExSample::new(Chunking::even(1000, 10), ExSampleConfig::default());
        run_policy(
            &mut donor,
            |f| {
                if f < 100 {
                    Feedback::new(1, 0)
                } else {
                    Feedback::NONE
                }
            },
            80,
            95,
        );
        let exported = donor.chunk_stats().to_vec();
        assert!(exported.iter().any(|s| s.n1 > 0.0));

        let mut warm = ExSample::new(Chunking::even(1000, 10), ExSampleConfig::default());
        warm.import_stats(&exported);
        for (a, b) in warm.chunk_stats().iter().zip(&exported) {
            assert_eq!(a.n1.to_bits(), b.n1.to_bits());
            assert_eq!(a.n, b.n);
        }
        // Groups were rebuilt: the warm sampler immediately concentrates
        // on the donor's rewarding chunk instead of exploring uniformly.
        run_policy(&mut warm, |_| Feedback::NONE, 20, 96);
        let delta0 = warm.chunk_stats()[0].n - exported[0].n;
        let delta_rest: u64 = warm.chunk_stats()[1..]
            .iter()
            .zip(&exported[1..])
            .map(|(a, b)| a.n - b.n)
            .sum();
        assert!(delta0 > delta_rest, "chunk0 +{delta0}, rest +{delta_rest}");
        // All chunks are still sampleable: the import touched beliefs, not
        // within-chunk availability.
        assert_eq!(warm.active_chunks(), 10);
    }

    #[test]
    #[should_panic(expected = "every chunk")]
    fn import_stats_rejects_wrong_length() {
        let mut p = ExSample::new(Chunking::even(100, 4), ExSampleConfig::default());
        p.import_stats(&[ChunkStats::default(); 3]);
    }

    #[test]
    fn feedback_after_retirement_is_safe() {
        // Exhaust a tiny chunk, then feed back its last frame's outcome.
        let mut p = ExSample::new(
            Chunking::from_bounds(vec![0, 2, 100]),
            ExSampleConfig::default(),
        );
        let mut rng = Rng64::new(78);
        let mut last_small = None;
        for _ in 0..50 {
            let f = p.next_frame(&mut rng).unwrap();
            if f < 2 {
                last_small = Some(f);
            }
            p.feedback(f, Feedback::NONE);
        }
        // Chunk 0 (2 frames) long exhausted; feedback again must not panic
        // or corrupt groups.
        if let Some(f) = last_small {
            p.feedback(f, Feedback::new(1, 0));
        }
        while p.next_frame(&mut rng).is_some() {}
        assert_eq!(p.active_chunks(), 0);
    }
}
