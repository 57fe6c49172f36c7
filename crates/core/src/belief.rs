//! Per-chunk belief state and chunk-selection rules.
//!
//! The heart of the paper: chunk `j`'s expected number of *new* results
//! from one more sample is estimated by the Good–Turing style statistic
//! `R̂_j(n_j + 1) = N1_j / n_j` (Eq. III.1), whose sampling uncertainty is
//! modelled as `R_j ~ Gamma(α = N1_j + α0, β = n_j + β0)` (Eq. III.4).
//! The Gamma shape matches the estimator's mean `N1/n` and the variance
//! bound `Var[R̂] <= E[R̂]/n` (Eq. III.3), and stays well-defined through
//! `N1 = 0` thanks to the `α0 = 0.1, β0 = 1` prior.

use exsample_stats::dist::{Continuous, Gamma};
use exsample_stats::Rng64;

/// Sufficient statistics of one chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChunkStats {
    /// `N1`: number of distinct results seen **exactly once** so far in
    /// this chunk. Incremented by new results (`d0`), decremented when a
    /// result is matched for the second time (`d1`).
    pub n1: f64,
    /// `n`: number of frames sampled from this chunk.
    pub n: u64,
}

impl ChunkStats {
    /// Fold one frame's outcome into the statistics (Algorithm 1 lines
    /// 11-12). `N1` is clamped at zero: with a noisy discriminator a
    /// second match can occasionally arrive without its first having been
    /// credited here.
    pub(crate) fn update(&mut self, new_results: u32, matched_once: u32) {
        self.n1 = (self.n1 + new_results as f64 - matched_once as f64).max(0.0);
        self.n += 1;
    }
}

/// Prior pseudo-counts `(α0, β0)` added to `(N1, n)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefPrior {
    /// Added to the Gamma shape; keeps the belief sampleable at `N1 = 0`.
    pub alpha0: f64,
    /// Added to the Gamma rate; keeps the belief proper at `n = 0`.
    pub beta0: f64,
}

impl Default for BeliefPrior {
    /// The paper's values: `α0 = 0.1`, `β0 = 1` ("we did not observe a
    /// strong dependence on this value choice").
    fn default() -> Self {
        BeliefPrior {
            alpha0: 0.1,
            beta0: 1.0,
        }
    }
}

impl BeliefPrior {
    /// New prior.
    ///
    /// # Panics
    /// Panics unless both pseudo-counts are positive (the Gamma is not
    /// defined at zero).
    pub fn new(alpha0: f64, beta0: f64) -> Self {
        assert!(
            alpha0 > 0.0 && beta0 > 0.0,
            "prior pseudo-counts must be positive"
        );
        BeliefPrior { alpha0, beta0 }
    }

    /// The belief distribution for a chunk (Eq. III.4).
    pub fn belief(&self, s: &ChunkStats) -> Gamma {
        Gamma::new(s.n1 + self.alpha0, s.n as f64 + self.beta0)
    }

    /// Posterior-mean point estimate `(N1 + α0) / (n + β0)` — the smoothed
    /// version of Eq. III.1.
    pub fn point_estimate(&self, s: &ChunkStats) -> f64 {
        (s.n1 + self.alpha0) / (s.n as f64 + self.beta0)
    }

    /// One Thompson draw from the chunk's belief.
    pub(crate) fn thompson_draw(&self, s: &ChunkStats, rng: &mut Rng64) -> f64 {
        self.belief(s).sample(rng)
    }

    /// Bayes-UCB score: the `1 - 1/(t+1)` upper quantile of the belief
    /// (Kaufmann's index policy, referenced in paper §III-C as performing
    /// indistinguishably from Thompson sampling).
    pub(crate) fn bayes_ucb(&self, s: &ChunkStats, step: u64) -> f64 {
        let q = (1.0 - 1.0 / (step as f64 + 2.0)).min(0.999_999);
        self.belief(s).inv_cdf(q)
    }
}

/// Which chunk-selection rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selector {
    /// Thompson sampling over the Gamma beliefs (the paper's default).
    #[default]
    Thompson,
    /// Deterministic Bayes-UCB upper-quantile index.
    BayesUcb,
    /// Greedy argmax of the point estimate — the strawman §III-B warns
    /// about (gets stuck on early luck); kept for ablations.
    Greedy,
}

impl Selector {
    /// Score a chunk under this rule.
    pub fn score(&self, prior: &BeliefPrior, s: &ChunkStats, step: u64, rng: &mut Rng64) -> f64 {
        match self {
            Selector::Thompson => prior.thompson_draw(s, rng),
            Selector::BayesUcb => prior.bayes_ucb(s, step),
            Selector::Greedy => prior.point_estimate(s),
        }
    }

    /// Short identifier for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Selector::Thompson => "thompson",
            Selector::BayesUcb => "bayes-ucb",
            Selector::Greedy => "greedy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_tracks_n1_and_n() {
        let mut s = ChunkStats::default();
        s.update(2, 0); // two new results
        assert_eq!(s.n1, 2.0);
        assert_eq!(s.n, 1);
        s.update(1, 1); // one new, one seen again
        assert_eq!(s.n1, 2.0);
        assert_eq!(s.n, 2);
        s.update(0, 2); // two seen again
        assert_eq!(s.n1, 0.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    fn n1_clamped_at_zero() {
        let mut s = ChunkStats::default();
        s.update(0, 5);
        assert_eq!(s.n1, 0.0);
    }

    #[test]
    fn belief_mean_matches_point_estimate() {
        let prior = BeliefPrior::default();
        let s = ChunkStats { n1: 7.0, n: 100 };
        let g = prior.belief(&s);
        assert!((g.mean() - prior.point_estimate(&s)).abs() < 1e-12);
        // Mean ≈ N1/n for n >> prior.
        assert!((g.mean() - 0.07).abs() < 0.001);
    }

    #[test]
    fn belief_variance_matches_eq_iii_3_shape() {
        // Gamma(N1 + α0, n + β0), so Var = α/β² = mean/β ≈ E[R̂]/n: the
        // paper's variance bound.
        let prior = BeliefPrior::new(0.1, 1.0);
        let s = ChunkStats { n1: 10.0, n: 50 };
        let g = prior.belief(&s);
        assert_eq!(g, Gamma::new(10.0 + 0.1, 50.0 + 1.0));
        assert!((g.mean() - 10.1 / 51.0).abs() < 1e-12);
    }

    #[test]
    fn thompson_draws_positive_even_with_no_data() {
        let prior = BeliefPrior::default();
        let s = ChunkStats::default();
        let mut rng = Rng64::new(50);
        for _ in 0..1000 {
            let r = prior.thompson_draw(&s, &mut rng);
            assert!(r > 0.0 && r.is_finite());
        }
    }

    #[test]
    fn thompson_concentrates_with_evidence() {
        // A chunk with strong evidence of reward should usually outdraw a
        // chunk with strong evidence of none.
        let prior = BeliefPrior::default();
        let hot = ChunkStats { n1: 50.0, n: 100 };
        let cold = ChunkStats { n1: 0.0, n: 100 };
        let mut rng = Rng64::new(51);
        let wins = (0..2000)
            .filter(|_| prior.thompson_draw(&hot, &mut rng) > prior.thompson_draw(&cold, &mut rng))
            .count();
        assert!(wins > 1950, "wins={wins}");
    }

    #[test]
    fn bayes_ucb_is_above_mean_and_shrinks() {
        let prior = BeliefPrior::default();
        let s = ChunkStats { n1: 5.0, n: 20 };
        let early = prior.bayes_ucb(&s, 10);
        assert!(early > prior.point_estimate(&s));
        let s_more = ChunkStats { n1: 25.0, n: 100 };
        // Same mean, more data: the UCB relative inflation must shrink.
        let later = prior.bayes_ucb(&s_more, 10);
        let infl_early = early / prior.point_estimate(&s);
        let infl_later = later / prior.point_estimate(&s_more);
        assert!(infl_later < infl_early, "{infl_later} !< {infl_early}");
    }

    #[test]
    fn greedy_is_deterministic() {
        let prior = BeliefPrior::default();
        let s = ChunkStats { n1: 3.0, n: 9 };
        let mut rng = Rng64::new(52);
        let a = Selector::Greedy.score(&prior, &s, 0, &mut rng);
        let b = Selector::Greedy.score(&prior, &s, 5, &mut rng);
        assert_eq!(a, b);
        assert!((a - 3.1 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn selector_names() {
        assert_eq!(Selector::Thompson.name(), "thompson");
        assert_eq!(Selector::BayesUcb.name(), "bayes-ucb");
        assert_eq!(Selector::Greedy.name(), "greedy");
    }
}
