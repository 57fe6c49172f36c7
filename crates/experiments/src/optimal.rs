//! Optimal static chunk weights (paper Eq. IV.1) and skew diagnostics.
//!
//! Given per-instance, per-chunk conditional hit probabilities `p_ij`
//! (probability of seeing instance `i` when drawing one uniform frame from
//! chunk `j`), the best *fixed* allocation of `n` samples across chunks
//! solves
//!
//! ```text
//!   max_w  Σ_i 1 − (1 − p_i · w)^n    s.t.  w ≥ 0, Σ w = 1
//! ```
//!
//! The objective is concave in `w` (each term is a concave, increasing
//! function of the linear form `p_i · w`), so exponentiated-gradient
//! ascent over the simplex converges to the global optimum — this replaces
//! the paper's use of CVXPY. The resulting curves are the dashed
//! "optimal allocation" references of Figures 3 and 4, and an upper bound
//! on what ExSample can achieve.
//!
//! The module also computes the per-chunk instance histograms and the skew
//! metric `S` of Figure 6: `S = (M/2) / k`, where `k` is the minimum
//! number of chunks that jointly contain half the instances (`S = 1` means
//! no skew; large `S` means a few chunks hold most results).

use exsample_core::chunking::Chunking;
use exsample_videosim::{ClassId, GroundTruth};

/// Sparse per-instance chunk probabilities `p_ij`.
#[derive(Debug, Clone)]
pub struct ChunkProbs {
    pub(crate) num_chunks: usize,
    /// One row per instance: `(chunk, p)` pairs, `p` = overlap / chunk_len.
    pub(crate) rows: Vec<Vec<(u32, f64)>>,
}

impl ChunkProbs {
    /// Extract `p_ij` for one class from ground truth under a chunking.
    pub fn build(gt: &GroundTruth, class: ClassId, chunking: &Chunking) -> Self {
        assert_eq!(
            chunking.frames(),
            gt.frames,
            "chunking does not cover the dataset"
        );
        let rows = gt
            .instances_of_class(class)
            .map(|inst| {
                let mut row = Vec::new();
                let mut j = chunking.chunk_of(inst.start);
                loop {
                    let r = chunking.range(j);
                    let overlap = inst.end().min(r.end) - inst.start.max(r.start);
                    if overlap > 0 {
                        row.push((j as u32, overlap as f64 / chunking.len(j) as f64));
                    }
                    if inst.end() <= r.end {
                        break;
                    }
                    j += 1;
                }
                row
            })
            .collect();
        ChunkProbs {
            num_chunks: chunking.num_chunks(),
            rows,
        }
    }

    /// Number of chunks `M`.
    pub fn num_chunks(&self) -> usize {
        self.num_chunks
    }

    /// Number of instances `N`.
    pub(crate) fn num_instances(&self) -> usize {
        self.rows.len()
    }

    /// Per-sample hit probability of instance `i` under chunk weights `w`.
    fn hit_prob(&self, i: usize, w: &[f64]) -> f64 {
        self.rows[i]
            .iter()
            .map(|&(j, p)| w[j as usize] * p)
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Expected number of distinct instances found after `n` weighted
    /// samples: `Σ_i 1 − (1 − p_i·w)^n`.
    ///
    /// # Panics
    /// Panics if `w` has the wrong length.
    pub fn expected_found(&self, w: &[f64], n: u64) -> f64 {
        assert_eq!(w.len(), self.num_chunks, "weight vector length mismatch");
        (0..self.rows.len())
            .map(|i| {
                let p = self.hit_prob(i, w).min(1.0 - 1e-15);
                1.0 - (n as f64 * (-p).ln_1p()).exp()
            })
            .sum()
    }

    /// Expected found under uniform random sampling — the random-baseline
    /// reference curve (equal weights are optimal when chunks are
    /// homogeneous, §IV-A).
    pub fn expected_found_uniform(&self, n: u64) -> f64 {
        let w = vec![1.0 / self.num_chunks as f64; self.num_chunks];
        self.expected_found(&w, n)
    }

    /// Gradient of [`ChunkProbs::expected_found`] with respect to `w`.
    fn gradient(&self, w: &[f64], n: u64, grad: &mut [f64]) {
        grad.fill(0.0);
        let nf = n as f64;
        for row in &self.rows {
            let p: f64 = row
                .iter()
                .map(|&(j, pj)| w[j as usize] * pj)
                .sum::<f64>()
                .clamp(0.0, 1.0 - 1e-15);
            // d/dw_j [1-(1-p)^n] = n (1-p)^{n-1} p_ij
            let factor = nf * ((nf - 1.0) * (-p).ln_1p()).exp();
            for &(j, pj) in row {
                grad[j as usize] += factor * pj;
            }
        }
    }
}

/// Solver options for [`optimal_weights`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOpts {
    /// Maximum exponentiated-gradient iterations.
    pub max_iters: usize,
    /// Stop when the relative objective improvement falls below this.
    pub tol: f64,
    /// Step size applied to the max-normalized gradient.
    pub lr: f64,
}

impl Default for SolveOpts {
    fn default() -> Self {
        SolveOpts {
            max_iters: 400,
            tol: 1e-10,
            lr: 0.5,
        }
    }
}

/// Solve Eq. IV.1: the optimal static chunk weights for a budget of `n`
/// samples. Returns a simplex vector of length `M`.
pub fn optimal_weights(probs: &ChunkProbs, n: u64, opts: SolveOpts) -> Vec<f64> {
    let m = probs.num_chunks();
    let mut w = vec![1.0 / m as f64; m];
    if probs.num_instances() == 0 || m == 1 {
        return w;
    }
    let mut grad = vec![0.0; m];
    let mut best = probs.expected_found(&w, n);
    for _ in 0..opts.max_iters {
        probs.gradient(&w, n, &mut grad);
        let gmax = grad.iter().cloned().fold(0.0_f64, f64::max);
        if gmax <= 0.0 {
            break;
        }
        // Multiplicative (exponentiated-gradient) update on the simplex.
        let mut z = 0.0;
        for (wj, gj) in w.iter_mut().zip(&grad) {
            *wj *= (opts.lr * gj / gmax).exp();
            z += *wj;
        }
        for wj in w.iter_mut() {
            *wj /= z;
        }
        let obj = probs.expected_found(&w, n);
        if obj - best <= opts.tol * best.abs().max(1e-12) {
            break;
        }
        best = obj;
    }
    w
}

/// The "optimal allocation" reference curve: for each sample budget `n`,
/// the expected number of instances found if the weights had been chosen
/// optimally for that `n` (dashed lines in Figures 3 and 4).
pub(crate) fn optimal_curve(
    probs: &ChunkProbs,
    budgets: &[u64],
    opts: SolveOpts,
) -> Vec<(u64, f64)> {
    budgets
        .iter()
        .map(|&n| {
            let w = optimal_weights(probs, n, opts);
            (n, probs.expected_found(&w, n))
        })
        .collect()
}

/// Number of instances (counted at their midpoint frame) per chunk — the
/// bar heights of Figure 6.
pub(crate) fn chunk_instance_counts(
    gt: &GroundTruth,
    class: ClassId,
    chunking: &Chunking,
) -> Vec<usize> {
    let mut counts = vec![0usize; chunking.num_chunks()];
    for inst in gt.instances_of_class(class) {
        let mid = inst.start + inst.duration / 2;
        counts[chunking.chunk_of(mid.min(gt.frames - 1))] += 1;
    }
    counts
}

/// The skew metric `S` of Figure 6: `(M/2) / k` where `k` is the minimum
/// number of chunks covering at least half the instances. `S = 1` for a
/// uniform spread; `S = M/2` when one chunk holds everything.
///
/// Returns 1.0 for empty inputs.
pub(crate) fn skew_metric(chunk_counts: &[usize]) -> f64 {
    let total: usize = chunk_counts.iter().sum();
    let m = chunk_counts.len();
    if total == 0 || m == 0 {
        return 1.0;
    }
    let mut sorted: Vec<usize> = chunk_counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let half = total.div_ceil(2);
    let mut acc = 0usize;
    let mut k = 0usize;
    for c in sorted {
        acc += c;
        k += 1;
        if acc >= half {
            break;
        }
    }
    (m as f64 / 2.0) / k as f64
}
