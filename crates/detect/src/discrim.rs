//! Discriminators: is a detection a *new* distinct object?
//!
//! The paper's discriminator (§II-B) runs a SORT-style IoU tracker
//! forwards and backwards through the video from each new detection,
//! computing the object's position in every frame where it was visible;
//! later detections that land on a tracked position are re-sightings.
//!
//! Two implementations:
//!
//! * [`OracleDiscriminator`] — uses ground-truth instance identity. This
//!   is what the paper's own simulation studies (§III-D, §IV) effectively
//!   do, and it isolates the sampling question from tracker quality.
//! * [`TrackerDiscriminator`] — emulates the real pipeline: each new
//!   detection spawns a track whose extent and per-frame boxes come from a
//!   forward/backward track extension (emulated via ground truth plus a
//!   persistent extension error), and future detections are matched by
//!   IoU against the predictions of live tracks. Detector jitter, false
//!   positives, and extension error produce exactly the duplicate/split
//!   mistakes real trackers make.

use crate::detector::Detection;
use exsample_stats::{FxHashMap, Rng64};
use exsample_videosim::geometry::greedy_iou_match;
use exsample_videosim::{BBox, FrameIdx, GroundTruth, InstanceId};
use std::sync::Arc;

/// Outcome of pushing one frame's detections through a discriminator —
/// the `d0` / `d1` sets of Algorithm 1.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiscrimOutcome {
    /// `|d0|`: detections that matched no previous result.
    pub new_results: u32,
    /// `|d1|`: detections whose result had been seen exactly once before.
    pub matched_once: u32,
    /// Ground-truth identity of each `d0` detection (None = spurious
    /// result caused by a false positive). Evaluation only.
    pub new_truths: Vec<Option<InstanceId>>,
}

/// Decides whether detections are new results or re-sightings.
pub trait Discriminator {
    /// Process one frame's detections; must be called at most once per
    /// frame (sampling is without replacement).
    fn observe(&mut self, frame: FrameIdx, dets: &[Detection]) -> DiscrimOutcome;

    /// Total results reported as new so far.
    fn results(&self) -> u64;
}

/// Ground-truth-identity discriminator (perfect matching).
///
/// False-positive detections carry no identity and are discarded — a
/// perfect discriminator knows they are not objects.
#[derive(Debug, Default, Clone)]
pub struct OracleDiscriminator {
    seen: FxHashMap<InstanceId, u32>,
    results: u64,
}

impl OracleDiscriminator {
    /// Fresh discriminator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Discriminator for OracleDiscriminator {
    fn observe(&mut self, _frame: FrameIdx, dets: &[Detection]) -> DiscrimOutcome {
        let mut out = DiscrimOutcome::default();
        for det in dets {
            let Some(id) = det.truth else { continue };
            let count = self.seen.entry(id).or_insert(0);
            *count += 1;
            match *count {
                1 => {
                    out.new_results += 1;
                    out.new_truths.push(Some(id));
                    self.results += 1;
                }
                2 => out.matched_once += 1,
                _ => {}
            }
        }
        out
    }

    fn results(&self) -> u64 {
        self.results
    }
}

/// A track held by the [`TrackerDiscriminator`].
#[derive(Debug, Clone)]
struct Track {
    /// Frames the (extended) track covers.
    start: FrameIdx,
    end: FrameIdx,
    /// Underlying instance (None for tracks spawned by false positives).
    truth: Option<InstanceId>,
    /// Persistent extension error: the tracker's boxes are offset from the
    /// true ones by this amount (models drift of the forward/backward
    /// pass).
    drift: (f32, f32),
    /// Anchor box for truth-less tracks (held static over the window).
    anchor: BBox,
    /// Number of detections matched to this track (including the one that
    /// created it).
    support: u32,
}

/// SORT-style IoU-matching discriminator with emulated track extension.
#[derive(Debug, Clone)]
pub struct TrackerDiscriminator {
    gt: Arc<GroundTruth>,
    /// Minimum IoU between a detection and a track prediction to match.
    iou_threshold: f32,
    /// Std-dev of per-track extension drift (px).
    drift_px: f64,
    /// Half-width (frames) of the window a false-positive track covers.
    fp_halfwidth: u64,
    tracks: Vec<Track>,
    rng: Rng64,
    results: u64,
}

impl TrackerDiscriminator {
    /// New tracker-based discriminator over a dataset.
    pub fn new(gt: Arc<GroundTruth>, seed: u64) -> Self {
        TrackerDiscriminator {
            gt,
            iou_threshold: 0.25,
            drift_px: 2.0,
            fp_halfwidth: 30,
            tracks: Vec::new(),
            rng: Rng64::new(seed),
            results: 0,
        }
    }

    /// Predicted box of a track at `frame`, if the track covers it.
    fn predict(&self, track: &Track, frame: FrameIdx) -> Option<BBox> {
        if frame < track.start || frame >= track.end {
            return None;
        }
        let boxed = match track.truth {
            Some(id) => self
                .gt
                .instance(id)
                .bbox_at(frame, self.gt.img_w, self.gt.img_h)?,
            None => track.anchor,
        };
        Some(boxed.translated(track.drift.0, track.drift.1))
    }

    fn spawn_track(&mut self, frame: FrameIdx, det: &Detection) {
        let drift = (
            (self.drift_px * norm_sample(&mut self.rng)) as f32,
            (self.drift_px * norm_sample(&mut self.rng)) as f32,
        );
        let track = match det.truth {
            Some(id) => {
                let inst = self.gt.instance(id);
                Track {
                    start: inst.start,
                    end: inst.end(),
                    truth: Some(id),
                    drift,
                    anchor: det.bbox,
                    support: 1,
                }
            }
            None => Track {
                start: frame.saturating_sub(self.fp_halfwidth),
                end: frame + self.fp_halfwidth,
                truth: None,
                drift: (0.0, 0.0),
                anchor: det.bbox,
                support: 1,
            },
        };
        self.tracks.push(track);
    }
}

fn norm_sample(rng: &mut Rng64) -> f64 {
    exsample_stats::dist::Normal::standard_sample(rng)
}

impl Discriminator for TrackerDiscriminator {
    fn observe(&mut self, frame: FrameIdx, dets: &[Detection]) -> DiscrimOutcome {
        // Predictions of all tracks alive at this frame.
        let mut live: Vec<usize> = Vec::new();
        let mut predicted: Vec<BBox> = Vec::new();
        for (i, t) in self.tracks.iter().enumerate() {
            if let Some(b) = self.predict(t, frame) {
                live.push(i);
                predicted.push(b);
            }
        }
        let det_boxes: Vec<BBox> = dets.iter().map(|d| d.bbox).collect();
        let (pairs, unmatched_dets, _) =
            greedy_iou_match(&det_boxes, &predicted, self.iou_threshold);

        let mut out = DiscrimOutcome::default();
        for (_det_i, pred_i, _) in &pairs {
            let track = &mut self.tracks[live[*pred_i]];
            track.support += 1;
            if track.support == 2 {
                out.matched_once += 1;
            }
        }
        for det_i in unmatched_dets {
            let det = &dets[det_i];
            self.spawn_track(frame, det);
            out.new_results += 1;
            out.new_truths.push(det.truth);
            self.results += 1;
        }
        out
    }

    fn results(&self) -> u64 {
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{Detector, NoiseModel, SimulatedDetector};
    use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};

    fn truth() -> Arc<GroundTruth> {
        let spec =
            DatasetSpec::single_class(20_000, ClassSpec::new("car", 60, 400.0, SkewSpec::Uniform));
        Arc::new(spec.generate(77))
    }

    fn det(gt: &Arc<GroundTruth>, id: u32) -> Detection {
        let inst = gt.instance(InstanceId(id));
        let frame = inst.start;
        Detection {
            bbox: inst.bbox_at(frame, gt.img_w, gt.img_h).unwrap(),
            class: ClassId(0),
            score: 1.0,
            truth: Some(InstanceId(id)),
        }
    }

    #[test]
    fn oracle_counts_d0_and_d1() {
        let gt = truth();
        let mut d = OracleDiscriminator::new();
        let a = det(&gt, 0);
        let b = det(&gt, 1);
        let o1 = d.observe(10, &[a.clone(), b.clone()]);
        assert_eq!(o1.new_results, 2);
        assert_eq!(o1.matched_once, 0);
        let o2 = d.observe(11, std::slice::from_ref(&a));
        assert_eq!(o2.new_results, 0);
        assert_eq!(o2.matched_once, 1);
        let o3 = d.observe(12, &[a]);
        assert_eq!(o3.new_results, 0);
        assert_eq!(o3.matched_once, 0); // third sighting is not d1
        assert_eq!(d.results(), 2);
    }

    #[test]
    fn oracle_ignores_false_positives() {
        let gt = truth();
        let mut d = OracleDiscriminator::new();
        let fp = Detection {
            bbox: BBox::new(0.0, 0.0, 10.0, 10.0),
            class: ClassId(0),
            score: 0.9,
            truth: None,
        };
        let o = d.observe(5, &[fp]);
        assert_eq!(o.new_results, 0);
        assert_eq!(d.results(), 0);
        let _ = gt;
    }

    #[test]
    fn tracker_matches_resighting_of_same_instance() {
        let gt = truth();
        let mut d = TrackerDiscriminator::new(gt.clone(), 1);
        d.drift_px = 0.0;
        let inst = gt.instance(InstanceId(3));
        let f1 = inst.start;
        let f2 = inst.start + inst.duration / 2;
        let mk = |f: FrameIdx| Detection {
            bbox: inst.bbox_at(f, gt.img_w, gt.img_h).unwrap(),
            class: ClassId(0),
            score: 1.0,
            truth: Some(InstanceId(3)),
        };
        let o1 = d.observe(f1, &[mk(f1)]);
        assert_eq!(o1.new_results, 1);
        let o2 = d.observe(f2, &[mk(f2)]);
        assert_eq!(o2.new_results, 0, "re-sighting must match the track");
        assert_eq!(o2.matched_once, 1);
        assert_eq!(d.results(), 1);
        assert_eq!(d.tracks.len(), 1);
    }

    #[test]
    fn tracker_separates_distinct_instances() {
        let gt = truth();
        let mut d = TrackerDiscriminator::new(gt.clone(), 2);
        let o = d.observe(gt.instance(InstanceId(0)).start, &[det(&gt, 0)]);
        assert_eq!(o.new_results, 1);
        // A different instance somewhere else must open a second track.
        let o2 = d.observe(gt.instance(InstanceId(1)).start, &[det(&gt, 1)]);
        assert_eq!(o2.new_results, 1);
        assert_eq!(d.tracks.len(), 2);
    }

    #[test]
    fn tracker_agrees_with_oracle_on_clean_data() {
        // With a perfect detector and zero drift the tracker should report
        // (nearly) identical d0/d1 streams to the oracle.
        let gt = truth();
        let mut detector = SimulatedDetector::perfect(gt.clone(), ClassId(0));
        let mut oracle = OracleDiscriminator::new();
        let mut tracker = TrackerDiscriminator::new(gt.clone(), 3);
        tracker.drift_px = 0.0;
        let mut rng = Rng64::new(4);
        let mut frames: Vec<u64> = (0..20_000).collect();
        rng.shuffle(&mut frames);
        for &f in frames.iter().take(3000) {
            let dets = detector.detect(f);
            let a = oracle.observe(f, &dets);
            let b = tracker.observe(f, &dets);
            assert_eq!(a.new_results, b.new_results, "frame {f}");
            assert_eq!(a.matched_once, b.matched_once, "frame {f}");
        }
        assert_eq!(oracle.results(), tracker.results());
    }

    #[test]
    fn tracker_spawns_track_for_false_positive() {
        let gt = truth();
        let mut d = TrackerDiscriminator::new(gt, 5);
        let fp = Detection {
            bbox: BBox::new(100.0, 100.0, 160.0, 140.0),
            class: ClassId(0),
            score: 0.8,
            truth: None,
        };
        let o = d.observe(1000, std::slice::from_ref(&fp));
        assert_eq!(o.new_results, 1);
        assert_eq!(o.new_truths, vec![None]);
        // Same spurious box a few frames later: matched, not duplicated.
        let o2 = d.observe(1010, &[fp]);
        assert_eq!(o2.new_results, 0);
        assert_eq!(o2.matched_once, 1);
    }

    #[test]
    fn tracker_with_noise_makes_bounded_errors() {
        // Under realistic noise the tracker inflates the distinct-result
        // count through (a) false-positive detections — bounded by the
        // detector's fp_rate — and (b) track splits, which should stay
        // around one duplicate per instance at a ~15% sampling rate.
        let gt = truth();
        let noise = NoiseModel::realistic();
        let mut detector = SimulatedDetector::new(gt.clone(), ClassId(0), noise, 6);
        let mut tracker = TrackerDiscriminator::new(gt.clone(), 7);
        let mut rng = Rng64::new(8);
        let mut frames: Vec<u64> = (0..20_000).collect();
        rng.shuffle(&mut frames);
        let samples = 3000usize;
        let mut true_found = std::collections::HashSet::new();
        let mut spurious = 0u64;
        for &f in frames.iter().take(samples) {
            let dets = detector.detect(f);
            let o = tracker.observe(f, &dets);
            for t in &o.new_truths {
                match t {
                    Some(id) => {
                        true_found.insert(*id);
                    }
                    None => spurious += 1,
                }
            }
        }
        let reported = tracker.results();
        let distinct = true_found.len() as u64;
        assert!(reported >= distinct);
        // False positives arrive at ~fp_rate per frame.
        let fp_budget = (noise.fp_rate * samples as f64 * 1.8 + 10.0) as u64;
        assert!(
            spurious <= fp_budget,
            "spurious={spurious} budget={fp_budget}"
        );
        // Track splits: about one duplicate per instance at this rate.
        let duplicates = reported - spurious - distinct;
        assert!(
            duplicates as f64 <= distinct as f64 * 1.5 + 20.0,
            "duplicates={duplicates} distinct={distinct}"
        );
    }
}
