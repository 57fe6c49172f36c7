//! The simulated object detector.

use exsample_stats::dist::{Continuous, Normal, Poisson};
use exsample_stats::Rng64;
use exsample_videosim::{BBox, ClassId, FrameIdx, GroundTruth, InstanceId};
use std::sync::Arc;

/// One detection output by the detector for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detected box (with localization noise applied).
    pub bbox: BBox,
    /// Predicted class.
    pub class: ClassId,
    /// Detector confidence in `[0, 1]`.
    pub score: f32,
    /// Ground-truth identity — **evaluation only**. `None` marks a false
    /// positive. The discriminators that emulate real pipelines never read
    /// this except through the track-extension emulation (see
    /// [`crate::discrim`]); recall accounting reads it freely.
    pub truth: Option<InstanceId>,
}

/// Anything that maps a frame index to detections. ExSample treats this as
/// an expensive black box; cost is charged by the driver's cost model.
pub trait Detector {
    /// Run detection on one frame.
    fn detect(&mut self, frame: FrameIdx) -> Vec<Detection>;
    /// The object class this query's detector reports.
    fn class(&self) -> ClassId;
}

/// Detector imperfection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Base probability of missing a visible object regardless of size.
    pub miss_rate: f64,
    /// Extra miss probability for vanishingly small boxes; decays as
    /// `exp(-area / area_scale)`.
    pub small_box_extra_miss: f64,
    /// Box area (px²) at which the extra miss decays by `1/e`.
    pub area_scale: f64,
    /// Expected false positives per frame (Poisson).
    pub fp_rate: f64,
    /// Std-dev of Gaussian jitter added to box corners (px).
    pub jitter_px: f64,
}

impl NoiseModel {
    /// A perfect detector: every visible object, exact boxes, no false
    /// positives. Matches the paper's simulation sections.
    pub fn none() -> Self {
        NoiseModel {
            miss_rate: 0.0,
            small_box_extra_miss: 0.0,
            area_scale: 1.0,
            fp_rate: 0.0,
            jitter_px: 0.0,
        }
    }

    /// A plausible Faster-RCNN-like operating point: ~5% misses on large
    /// objects, substantial misses on tiny ones, occasional false
    /// positives, a few pixels of localization noise.
    pub fn realistic() -> Self {
        NoiseModel {
            miss_rate: 0.05,
            small_box_extra_miss: 0.6,
            area_scale: 2_000.0,
            fp_rate: 0.02,
            jitter_px: 2.0,
        }
    }

    /// Detection probability for a box of the given area.
    pub(crate) fn detect_probability(&self, area: f64) -> f64 {
        let extra = self.small_box_extra_miss * (-area / self.area_scale).exp();
        ((1.0 - self.miss_rate) * (1.0 - extra)).clamp(0.0, 1.0)
    }
}

/// Ground-truth-backed detector for a single query class.
///
/// Deterministic per `(seed, frame)`: repeated calls on the same frame
/// return identical detections, like a real (deterministic) network.
#[derive(Debug, Clone)]
pub struct SimulatedDetector {
    gt: Arc<GroundTruth>,
    class: ClassId,
    noise: NoiseModel,
    rng_root: Rng64,
    scratch: Vec<InstanceId>,
}

impl SimulatedDetector {
    /// Build a detector for one class of one dataset.
    pub fn new(gt: Arc<GroundTruth>, class: ClassId, noise: NoiseModel, seed: u64) -> Self {
        SimulatedDetector {
            gt,
            class,
            noise,
            rng_root: Rng64::new(seed),
            scratch: Vec::new(),
        }
    }

    /// Perfect detector (no noise).
    pub fn perfect(gt: Arc<GroundTruth>, class: ClassId) -> Self {
        SimulatedDetector::new(gt, class, NoiseModel::none(), 0)
    }

    /// Run detection on one frame through `&self` — identical output to
    /// [`Detector::detect`] (the per-frame noise stream depends only on
    /// `(seed, frame)`), but usable from shared references, which is what
    /// the engine's frame cache needs when many sessions share one
    /// detector. The caller supplies the scratch buffer the `&mut` path
    /// keeps internally.
    pub(crate) fn detect_with_scratch(
        &self,
        frame: FrameIdx,
        scratch: &mut Vec<InstanceId>,
    ) -> Vec<Detection> {
        // Per-frame deterministic stream: same frame -> same noise.
        let mut rng = self.rng_root.fork(frame);
        let gt = &self.gt;
        gt.visible_at(self.class, frame, scratch);
        let mut out = Vec::with_capacity(scratch.len());
        let jitter = if self.noise.jitter_px > 0.0 {
            Some(Normal::new(0.0, self.noise.jitter_px))
        } else {
            None
        };
        for &id in scratch.iter() {
            let inst = gt.instance(id);
            let bbox = inst
                .bbox_at(frame, gt.img_w, gt.img_h)
                .expect("instance reported visible");
            let p = self.noise.detect_probability(bbox.area() as f64);
            if !rng.chance(p) {
                continue;
            }
            let bbox = match &jitter {
                Some(j) => BBox::new(
                    bbox.x1 + j.sample(&mut rng) as f32,
                    bbox.y1 + j.sample(&mut rng) as f32,
                    bbox.x2 + j.sample(&mut rng) as f32,
                    bbox.y2 + j.sample(&mut rng) as f32,
                )
                .clamp_to(gt.img_w, gt.img_h),
                None => bbox,
            };
            out.push(Detection {
                bbox,
                class: self.class,
                score: 0.5 + 0.5 * rng.f64() as f32,
                truth: Some(id),
            });
        }
        if self.noise.fp_rate > 0.0 {
            let n_fp = Poisson::new(self.noise.fp_rate).sample(&mut rng);
            for _ in 0..n_fp {
                let w = 20.0 + 80.0 * rng.f64() as f32;
                let h = 20.0 + 60.0 * rng.f64() as f32;
                let cx = gt.img_w * rng.f64() as f32;
                let cy = gt.img_h * rng.f64() as f32;
                out.push(Detection {
                    bbox: BBox::from_center(cx, cy, w, h).clamp_to(gt.img_w, gt.img_h),
                    class: self.class,
                    score: 0.5 + 0.3 * rng.f64() as f32,
                    truth: None,
                });
            }
        }
        out
    }
}

/// Run a full per-class detector bank over one frame, concatenating each
/// class detector's output — the all-classes invocation whose result the
/// engine caches per `(repo, frame)`. Output order follows the bank
/// order, so it is deterministic for a fixed bank.
pub fn detect_frame(
    bank: &[SimulatedDetector],
    frame: FrameIdx,
    scratch: &mut Vec<InstanceId>,
) -> Vec<Detection> {
    let mut all = Vec::new();
    for det in bank {
        all.extend(det.detect_with_scratch(frame, scratch));
    }
    all
}

/// One batched detector **dispatch** (ExSample §III-F): run the bank over
/// `frames` back-to-back, the way a GPU processes one submitted batch.
/// Output order matches `frames`. Each frame's detections are identical
/// to a per-frame [`detect_frame`] call — batching changes *when* the
/// detector runs and what dispatch overhead is paid (priced by
/// `exsample_store::CostModel::dispatch_s`), never what it outputs.
pub fn dispatch_batch(
    bank: &[SimulatedDetector],
    frames: &[FrameIdx],
    scratch: &mut Vec<InstanceId>,
) -> Vec<Vec<Detection>> {
    frames
        .iter()
        .map(|&f| detect_frame(bank, f, scratch))
        .collect()
}

impl Detector for SimulatedDetector {
    fn detect(&mut self, frame: FrameIdx) -> Vec<Detection> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let out = self.detect_with_scratch(frame, &mut scratch);
        self.scratch = scratch;
        out
    }

    fn class(&self) -> ClassId {
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_videosim::geometry::greedy_iou_match;
    use exsample_videosim::{ClassSpec, DatasetSpec, SkewSpec};

    fn truth() -> Arc<GroundTruth> {
        let spec =
            DatasetSpec::single_class(10_000, ClassSpec::new("car", 100, 200.0, SkewSpec::Uniform));
        Arc::new(spec.generate(42))
    }

    #[test]
    fn perfect_detector_finds_exactly_the_visible() {
        let gt = truth();
        let mut det = SimulatedDetector::perfect(gt.clone(), ClassId(0));
        let mut expected = Vec::new();
        for frame in (0..10_000).step_by(397) {
            gt.visible_at(ClassId(0), frame, &mut expected);
            let dets = det.detect(frame);
            assert_eq!(dets.len(), expected.len(), "frame {frame}");
            let mut got: Vec<InstanceId> = dets.iter().map(|d| d.truth.unwrap()).collect();
            got.sort();
            expected.sort();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn detection_is_deterministic_per_frame() {
        let gt = truth();
        let mut det = SimulatedDetector::new(gt, ClassId(0), NoiseModel::realistic(), 9);
        let a = det.detect(5000);
        let b = det.detect(5000);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_path_matches_mut_path() {
        let gt = truth();
        let mut det = SimulatedDetector::new(gt, ClassId(0), NoiseModel::realistic(), 13);
        let mut scratch = Vec::new();
        for frame in (0..10_000u64).step_by(611) {
            let shared = det.detect_with_scratch(frame, &mut scratch);
            let owned = det.detect(frame);
            assert_eq!(shared, owned, "frame {frame}");
        }
    }

    #[test]
    fn dispatch_batch_matches_per_frame_detection() {
        // Batching is a cost/latency decision, never an output one: each
        // frame of a dispatch must equal its individual detection.
        let gt = truth();
        let bank = vec![SimulatedDetector::new(
            gt,
            ClassId(0),
            NoiseModel::realistic(),
            21,
        )];
        let frames: Vec<FrameIdx> = (0..10_000).step_by(1_237).collect();
        let mut scratch = Vec::new();
        let batched = dispatch_batch(&bank, &frames, &mut scratch);
        assert_eq!(batched.len(), frames.len());
        for (i, &frame) in frames.iter().enumerate() {
            assert_eq!(
                batched[i],
                detect_frame(&bank, frame, &mut scratch),
                "frame {frame}"
            );
        }
    }

    #[test]
    fn noise_misses_some_objects() {
        let gt = truth();
        let noise = NoiseModel {
            miss_rate: 0.5,
            ..NoiseModel::none()
        };
        let mut det = SimulatedDetector::new(gt.clone(), ClassId(0), noise, 10);
        let mut visible = 0usize;
        let mut detected = 0usize;
        let mut scratch = Vec::new();
        for frame in 0..10_000u64 {
            gt.visible_at(ClassId(0), frame, &mut scratch);
            visible += scratch.len();
            detected += det.detect(frame).len();
        }
        let rate = detected as f64 / visible as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate={rate}");
    }

    #[test]
    fn small_boxes_missed_more_often() {
        let n = NoiseModel::realistic();
        assert!(n.detect_probability(100.0) < n.detect_probability(50_000.0));
        assert!(n.detect_probability(1e9) > 0.94);
    }

    #[test]
    fn false_positives_marked_with_no_truth() {
        let gt = truth();
        let noise = NoiseModel {
            fp_rate: 2.0,
            ..NoiseModel::none()
        };
        let mut det = SimulatedDetector::new(gt, ClassId(0), noise, 11);
        let mut fp = 0usize;
        for frame in 0..2000u64 {
            fp += det
                .detect(frame)
                .iter()
                .filter(|d| d.truth.is_none())
                .count();
        }
        // ~2 per frame expected.
        assert!((3000..5000).contains(&fp), "fp={fp}");
    }

    #[test]
    fn jitter_moves_boxes_but_keeps_overlap() {
        let gt = truth();
        let mut clean = SimulatedDetector::perfect(gt.clone(), ClassId(0));
        let noise = NoiseModel {
            jitter_px: 4.0,
            ..NoiseModel::none()
        };
        let mut noisy = SimulatedDetector::new(gt, ClassId(0), noise, 12);
        // Find a frame with at least one detection.
        for frame in 0..10_000u64 {
            let a = clean.detect(frame);
            if a.is_empty() {
                continue;
            }
            let b = noisy.detect(frame);
            assert_eq!(a.len(), b.len());
            for (ca, cb) in a.iter().zip(&b) {
                let (pairs, _, _) = greedy_iou_match(&[ca.bbox], &[cb.bbox], 0.3);
                assert_eq!(pairs.len(), 1, "jitter destroyed the box");
            }
            return;
        }
        panic!("no visible instances found");
    }
}
