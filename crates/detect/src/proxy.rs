//! Proxy-model simulation (BlazeIt-style frame scoring).
//!
//! Proxy approaches train a cheap specialized model per query, score
//! *every* frame of the dataset with it, then process frames through the
//! expensive detector in descending score order (§II-B). For limit
//! queries this means a full upfront scan at io+decode speed (~100 fps in
//! the paper's measurements) before the first result can be returned —
//! the overhead Table I charges against them.
//!
//! [`ProxyModel`] synthesizes per-frame scores whose correlation with the
//! presence of the target class is governed by a `fidelity` knob, so the
//! harness can study both a near-perfect proxy (the paper's generous
//! assumption) and degraded ones.

use exsample_stats::dist::Normal;
use exsample_stats::Rng64;
use exsample_videosim::{ClassId, FrameIdx, GroundTruth};

/// Per-frame proxy scores for one query class over one dataset.
#[derive(Debug, Clone)]
pub struct ProxyModel {
    scores: Vec<f32>,
}

impl ProxyModel {
    /// Score every frame. `fidelity ∈ (0, 1]` controls how well scores
    /// separate frames containing the class from empty ones: 1.0 is a
    /// perfect ranker; 0.5 is heavily degraded.
    ///
    /// # Panics
    /// Panics if `fidelity` is outside `(0, 1]`.
    pub fn build(gt: &GroundTruth, class: ClassId, fidelity: f64, seed: u64) -> Self {
        assert!(
            fidelity > 0.0 && fidelity <= 1.0,
            "fidelity must be in (0,1], got {fidelity}"
        );
        let mut rng = Rng64::new(seed);
        // Noise sd: 0 at fidelity 1, ~2 at fidelity 0.5.
        let sigma = 2.0 * (1.0 - fidelity) / fidelity.max(0.25);
        let mut scores = Vec::with_capacity(gt.frames as usize);
        let mut vis = Vec::new();
        for frame in 0..gt.frames {
            gt.visible_at(class, frame, &mut vis);
            let signal = if vis.is_empty() {
                0.0
            } else {
                1.0 + 0.1 * (vis.len() as f64).ln_1p()
            };
            let noise = if sigma > 0.0 {
                sigma * Normal::standard_sample(&mut rng)
            } else {
                0.0
            };
            scores.push((signal + noise) as f32);
        }
        ProxyModel { scores }
    }

    /// Score of one frame.
    pub fn score(&self, frame: FrameIdx) -> f32 {
        self.scores[frame as usize]
    }

    /// Frames ordered by descending score (ties broken by frame index) —
    /// the order a BlazeIt-style executor processes them in.
    pub fn descending_order(&self) -> Vec<FrameIdx> {
        let mut idx: Vec<u32> = (0..self.scores.len() as u32).collect();
        idx.sort_by(|&a, &b| {
            self.scores[b as usize]
                .partial_cmp(&self.scores[a as usize])
                .expect("scores are finite")
                .then(a.cmp(&b))
        });
        idx.into_iter().map(|i| i as u64).collect()
    }

    /// Seconds a full scoring scan takes at `score_fps` frames/second.
    pub fn scan_seconds(&self, score_fps: f64) -> f64 {
        assert!(score_fps > 0.0);
        self.scores.len() as f64 / score_fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_videosim::{ClassSpec, DatasetSpec, SkewSpec};

    fn truth() -> GroundTruth {
        DatasetSpec::single_class(50_000, ClassSpec::new("car", 80, 300.0, SkewSpec::Uniform))
            .generate(13)
    }

    #[test]
    fn perfect_fidelity_ranks_positives_first() {
        let gt = truth();
        let p = ProxyModel::build(&gt, ClassId(0), 1.0, 1);
        let order = p.descending_order();
        // Count positive frames.
        let mut vis = Vec::new();
        let positives = (0..gt.frames)
            .filter(|&f| {
                gt.visible_at(ClassId(0), f, &mut vis);
                !vis.is_empty()
            })
            .count();
        // The first `positives` frames of the order must all be positive.
        for &f in order.iter().take(positives) {
            gt.visible_at(ClassId(0), f, &mut vis);
            assert!(!vis.is_empty(), "frame {f} ranked high but empty");
        }
    }

    #[test]
    fn lower_fidelity_lowers_auc() {
        let gt = truth();
        // The AUC of the score ranking: the share of (positive, negative)
        // frame pairs it puts in the right order.
        let auc = |fidelity: f64| {
            let mut vis = Vec::new();
            let (mut negatives, mut positives, mut misordered) = (0u64, 0u64, 0u64);
            for f in ProxyModel::build(&gt, ClassId(0), fidelity, 3).descending_order() {
                gt.visible_at(ClassId(0), f, &mut vis);
                if vis.is_empty() {
                    negatives += 1;
                } else {
                    positives += 1;
                    misordered += negatives;
                }
            }
            1.0 - misordered as f64 / (positives * negatives) as f64
        };
        let (hi, lo) = (auc(0.95), auc(0.5));
        assert!(hi > lo, "hi={hi} lo={lo}");
        assert!(lo > 0.55, "even degraded proxies carry signal: {lo}");
    }

    #[test]
    fn descending_order_is_a_permutation() {
        let gt = truth();
        let p = ProxyModel::build(&gt, ClassId(0), 0.8, 5);
        let mut order = p.descending_order();
        assert_eq!(order.len() as u64, gt.frames);
        order.sort_unstable();
        assert!(order.windows(2).all(|w| w[0] + 1 == w[1]));
        assert_eq!(order[0], 0);
    }

    #[test]
    fn order_is_actually_descending() {
        let gt = truth();
        let p = ProxyModel::build(&gt, ClassId(0), 0.7, 6);
        let order = p.descending_order();
        for w in order.windows(2) {
            assert!(p.score(w[0]) >= p.score(w[1]));
        }
    }

    #[test]
    fn scan_seconds_scale_with_frames() {
        let gt = truth();
        let p = ProxyModel::build(&gt, ClassId(0), 1.0, 7);
        assert!((p.scan_seconds(100.0) - 500.0).abs() < 1e-9);
    }
}
