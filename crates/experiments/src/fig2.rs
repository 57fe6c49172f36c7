//! Figure 2: empirical validation of the Gamma belief (paper §III-D).
//!
//! The paper draws 1000 per-frame probabilities `p_i` from a heavily
//! skewed lognormal (`µ_p ≈ 3e-3`, `σ_p ≈ 8e-3`, `max p_i = 0.15`),
//! simulates random frame sampling, and asks: *given an observed pair
//! `(n, N1)`, how does the true distribution of `R(n+1)` compare to the
//! belief `Gamma(N1 + 0.1, n + 1)`?*
//!
//! Instead of tossing 1000 coins for each of 180k samples × 10k runs
//! (≈2×10¹² Bernoulli draws), we exploit that only each instance's first
//! and second appearance matter: both are sums of `Geometric(p_i)`
//! variables, so a run costs `2N` geometric draws and the quantities at a
//! checkpoint `n` are
//!
//! ```text
//!   N1(n)   = #{i : T1_i ≤ n < T2_i}
//!   R(n+1)  = Σ_i p_i · [T1_i > n]
//! ```
//!
//! which is distributionally *exact*, not an approximation.

use crate::report::Table;
use crate::Scale;
use exsample_core::{BeliefPrior, ChunkStats};
use exsample_stats::dist::{Continuous, Geometric, LogNormal};
use exsample_stats::{quantile, Rng64};

/// Configuration of the Figure 2 study.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Number of result instances (paper: 1000).
    pub instances: usize,
    /// Number of independent runs (paper: 10 000).
    pub runs: usize,
    /// Checkpoints `n` at which `(N1, R)` is recorded — the paper's six
    /// subplot positions.
    pub checkpoints: Vec<u64>,
    /// Tolerance around the conditioning `N1` value (runs whose `N1(n)`
    /// is within ± this of the cell's target are pooled).
    pub n1_tolerance: u64,
    /// Root seed.
    pub seed: u64,
}

impl Fig2Config {
    /// Paper-scale or reduced configuration.
    pub fn at_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Fig2Config {
                instances: 1000,
                runs: 10_000,
                checkpoints: vec![82, 100, 14_093, 120_911, 172_085, 179_601],
                n1_tolerance: 2,
                seed: 20_220_812,
            },
            Scale::Quick => Fig2Config {
                instances: 1000,
                runs: 1_000,
                checkpoints: vec![82, 100, 14_093, 120_911],
                n1_tolerance: 3,
                seed: 20_220_812,
            },
        }
    }
}

/// Statistics of one `(n, N1)` cell.
#[derive(Debug, Clone)]
pub struct Fig2Cell {
    /// Checkpoint `n`.
    pub n: u64,
    /// Conditioning value `N1` (the empirical median at this `n`).
    pub n1: u64,
    /// Number of pooled runs.
    pub pooled: usize,
    /// Mean of the true `R(n+1)` over pooled runs.
    pub actual_mean: f64,
    /// 5th / 95th percentiles of the true `R(n+1)`.
    pub actual_q05: f64,
    /// 95th percentile of true `R(n+1)`.
    pub actual_q95: f64,
    /// The point estimate `N1 / n` (Eq. III.1).
    pub point_estimate: f64,
    /// Mean of the belief `Gamma(N1+0.1, n+1)`.
    pub gamma_mean: f64,
    /// 5th / 95th percentile of the belief.
    pub gamma_q05: f64,
    /// 95th percentile of the belief.
    pub gamma_q95: f64,
    /// Fraction of true `R(n+1)` values inside the belief's [q05, q95].
    pub coverage: f64,
}

/// Generate the paper's skewed `p_i` population: lognormal with arithmetic
/// mean 3e-3 and sd 8e-3, clamped at 0.15.
pub(crate) fn generate_probabilities(instances: usize, rng: &mut Rng64) -> Vec<f64> {
    // cv = sd/mean = 8/3; sigma² = ln(1+cv²).
    let cv2 = (8.0f64 / 3.0).powi(2);
    let sigma = (1.0 + cv2).ln().sqrt();
    let dist = LogNormal::from_mean(3e-3, sigma);
    (0..instances)
        .map(|_| dist.sample(rng).clamp(1e-7, 0.15))
        .collect()
}

/// Run the Figure 2 study.
pub fn run(config: &Fig2Config) -> Vec<Fig2Cell> {
    let mut rng = Rng64::new(config.seed);
    let p = generate_probabilities(config.instances, &mut rng);
    let geoms: Vec<Geometric> = p.iter().map(|&pi| Geometric::new(pi)).collect();

    // tuples[c] collects (N1, R) at checkpoint c over runs.
    let mut tuples: Vec<Vec<(u64, f64)>> =
        vec![Vec::with_capacity(config.runs); config.checkpoints.len()];
    let root = Rng64::new(config.seed ^ 0x5eed);
    for run in 0..config.runs {
        let mut r = root.fork(run as u64);
        // First/second appearance times of each instance.
        let mut t1 = Vec::with_capacity(p.len());
        let mut t2 = Vec::with_capacity(p.len());
        for g in &geoms {
            let a = g.sample(&mut r);
            t1.push(a);
            t2.push(a + g.sample(&mut r));
        }
        for (c, &n) in config.checkpoints.iter().enumerate() {
            let mut n1 = 0u64;
            let mut rnext = 0.0f64;
            for i in 0..p.len() {
                if t1[i] <= n && n < t2[i] {
                    n1 += 1;
                }
                if t1[i] > n {
                    rnext += p[i];
                }
            }
            tuples[c].push((n1, rnext));
        }
    }

    config
        .checkpoints
        .iter()
        .enumerate()
        .map(|(c, &n)| {
            let cell = &tuples[c];
            // Condition on the median N1 at this n (the paper picks
            // specific observed pairs; the median is the densest cell).
            let mut n1s: Vec<f64> = cell.iter().map(|&(n1, _)| n1 as f64).collect();
            n1s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            let n1 = exsample_stats::quantile_of_sorted(&n1s, 0.5).round() as u64;
            let pooled: Vec<f64> = cell
                .iter()
                .filter(|&&(v, _)| v.abs_diff(n1) <= config.n1_tolerance)
                .map(|&(_, r)| r)
                .collect();
            let gamma = BeliefPrior::default().belief(&ChunkStats { n1: n1 as f64, n });
            let (gq05, gq95) = (gamma.inv_cdf(0.05), gamma.inv_cdf(0.95));
            // An empty cell reads 0 everywhere.
            let of_pooled = |f: &dyn Fn() -> f64| if pooled.is_empty() { 0.0 } else { f() };
            let len = pooled.len() as f64;
            Fig2Cell {
                n,
                n1,
                pooled: pooled.len(),
                actual_mean: of_pooled(&|| pooled.iter().sum::<f64>() / len),
                actual_q05: of_pooled(&|| quantile(&pooled, 0.05)),
                actual_q95: of_pooled(&|| quantile(&pooled, 0.95)),
                point_estimate: n1 as f64 / n as f64,
                gamma_mean: gamma.mean(),
                gamma_q05: gq05,
                gamma_q95: gq95,
                coverage: of_pooled(&|| {
                    pooled.iter().filter(|&&r| r >= gq05 && r <= gq95).count() as f64 / len
                }),
            }
        })
        .collect()
}

/// Render the cells as a markdown table.
pub fn to_table(cells: &[Fig2Cell]) -> Table {
    let mut t = Table::new(&[
        "n",
        "N1",
        "pooled",
        "actual mean R",
        "actual q05..q95",
        "N1/n (Eq III.1)",
        "Gamma mean",
        "Gamma q05..q95",
        "coverage",
    ]);
    for c in cells {
        t.row(vec![
            c.n.to_string(),
            c.n1.to_string(),
            c.pooled.to_string(),
            format!("{:.3e}", c.actual_mean),
            format!("{:.2e}..{:.2e}", c.actual_q05, c.actual_q95),
            format!("{:.3e}", c.point_estimate),
            format!("{:.3e}", c.gamma_mean),
            format!("{:.2e}..{:.2e}", c.gamma_q05, c.gamma_q95),
            format!("{:.0}%", c.coverage * 100.0),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_have_paper_moments() {
        let mut rng = Rng64::new(1);
        let p = generate_probabilities(200_000, &mut rng);
        let mean = p.iter().sum::<f64>() / p.len() as f64;
        assert!((mean / 3e-3 - 1.0).abs() < 0.1, "mean={mean}");
        assert!(p.iter().all(|&x| x <= 0.15 && x > 0.0));
        let max = p.iter().cloned().fold(0.0, f64::max);
        assert!(max > 0.05, "clamp region should be populated, max={max}");
    }

    #[test]
    fn mid_range_cells_fit_gamma_well() {
        // The paper's observation: for mid-range n the Gamma curve fits
        // the histogram very well. Quantitatively the belief *mean* tracks
        // the actual conditional mean closely; interval coverage sits a
        // little under nominal (the §III-D BDD-MOT check found the same:
        // the variance bound is a slight underestimate, ~80% coverage).
        let cfg = Fig2Config {
            instances: 500,
            runs: 800,
            checkpoints: vec![5_000, 20_000],
            n1_tolerance: 3,
            seed: 99,
        };
        let cells = run(&cfg);
        for c in &cells {
            assert!(c.pooled > 30, "cell n={} too thin ({})", c.n, c.pooled);
            assert!(
                c.coverage > 0.70,
                "n={} coverage={} gamma=[{},{}] actual mean={}",
                c.n,
                c.coverage,
                c.gamma_q05,
                c.gamma_q95,
                c.actual_mean
            );
            // The belief mean tracks the actual conditional mean tightly.
            let ratio = c.gamma_mean / c.actual_mean.max(1e-12);
            assert!(ratio > 0.85 && ratio < 1.2, "n={} ratio={ratio}", c.n);
        }
    }

    #[test]
    fn early_cells_overdisperse() {
        // "the Γ model has substantially more variance than the underlying
        // true distribution" for n <= 100: its 90% interval should be wider
        // than the empirical one.
        let cfg = Fig2Config {
            instances: 500,
            runs: 600,
            checkpoints: vec![82],
            n1_tolerance: 3,
            seed: 100,
        };
        let cells = run(&cfg);
        let c = &cells[0];
        let gamma_width = c.gamma_q95 - c.gamma_q05;
        let actual_width = c.actual_q95 - c.actual_q05;
        assert!(
            gamma_width > actual_width,
            "gamma {gamma_width} !> actual {actual_width}"
        );
        assert!(c.coverage > 0.9, "wide belief must cover: {}", c.coverage);
    }

    #[test]
    fn table_renders() {
        let cfg = Fig2Config {
            instances: 100,
            runs: 50,
            checkpoints: vec![100],
            n1_tolerance: 5,
            seed: 3,
        };
        let cells = run(&cfg);
        let t = to_table(&cells);
        assert_eq!(t.len(), 1);
        assert!(t.to_markdown().contains("Gamma"));
    }
}
