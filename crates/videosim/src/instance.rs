//! Object instances, trajectories, and dataset ground truth.

use crate::geometry::BBox;
use crate::index::IntervalIndex;
use crate::FrameIdx;

/// Identifier of a distinct object instance within a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Identifier of an object class (e.g. "traffic light") within a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u16);

/// Linear-motion box trajectory with exponential size change, clamped to
/// the image. Real tracks are of course more complex, but the
/// discriminator only needs *locally* smooth motion — which is exactly
/// what its constant-velocity model assumes, plus noise injected by the
/// detector simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trajectory {
    /// Centre position at the first visible frame.
    pub cx0: f32,
    /// Centre position at the first visible frame.
    pub cy0: f32,
    /// Centre velocity in pixels per frame.
    pub vx: f32,
    /// Centre velocity in pixels per frame.
    pub vy: f32,
    /// Box width at the first visible frame.
    pub w0: f32,
    /// Box height at the first visible frame.
    pub h0: f32,
    /// Per-frame multiplicative size growth (1.0 = constant size).
    pub growth: f32,
}

impl Trajectory {
    /// Box at `dt` frames after the instance became visible.
    pub fn bbox_at(&self, dt: u64, img_w: f32, img_h: f32) -> BBox {
        let t = dt as f32;
        let scale = self.growth.powf(t).clamp(0.05, 20.0);
        BBox::from_center(
            self.cx0 + self.vx * t,
            self.cy0 + self.vy * t,
            self.w0 * scale,
            self.h0 * scale,
        )
        .clamp_to(img_w, img_h)
    }
}

/// One distinct object: a class, a contiguous visibility interval, and a
/// box trajectory.
///
/// `duration / total_frames` is the per-frame hit probability `p_i` from
/// the paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instance {
    /// Stable identifier (index into [`GroundTruth::instances`]).
    pub id: InstanceId,
    /// Object class.
    pub class: ClassId,
    /// First frame (inclusive) in which the object is visible.
    pub start: FrameIdx,
    /// Number of consecutive visible frames (>= 1).
    pub duration: u64,
    /// Box motion while visible.
    pub trajectory: Trajectory,
}

impl Instance {
    /// One-past-the-last visible frame.
    pub fn end(&self) -> FrameIdx {
        self.start + self.duration
    }

    /// Whether the instance is visible in global frame `f`.
    pub fn visible_at(&self, f: FrameIdx) -> bool {
        f >= self.start && f < self.end()
    }

    /// Box in global frame `f`, or `None` if not visible there.
    pub fn bbox_at(&self, f: FrameIdx, img_w: f32, img_h: f32) -> Option<BBox> {
        if self.visible_at(f) {
            Some(self.trajectory.bbox_at(f - self.start, img_w, img_h))
        } else {
            None
        }
    }

    /// Per-frame hit probability under uniform sampling of `total` frames.
    pub fn hit_probability(&self, total: u64) -> f64 {
        self.duration as f64 / total as f64
    }
}

/// Complete ground truth of a synthetic dataset: every instance, plus
/// per-class interval indexes for fast frame queries.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Total number of frames in the repository.
    pub frames: u64,
    /// Image width in pixels.
    pub img_w: f32,
    /// Image height in pixels.
    pub img_h: f32,
    /// Class names, indexed by `ClassId`.
    class_names: Vec<String>,
    /// All instances, sorted by id.
    instances: Vec<Instance>,
    /// Per-class interval index over instance visibility spans.
    class_index: Vec<IntervalIndex>,
}

impl GroundTruth {
    /// Assemble ground truth from parts. Instance ids must equal their
    /// index position.
    ///
    /// # Panics
    /// Panics if an instance id is out of order, its class is unknown, or
    /// its interval exceeds the dataset.
    pub fn new(
        frames: u64,
        img_w: f32,
        img_h: f32,
        class_names: Vec<String>,
        instances: Vec<Instance>,
    ) -> Self {
        for (i, inst) in instances.iter().enumerate() {
            assert_eq!(
                inst.id.0 as usize, i,
                "instance ids must be dense and ordered"
            );
            assert!(
                (inst.class.0 as usize) < class_names.len(),
                "instance {} has unknown class {:?}",
                i,
                inst.class
            );
            assert!(inst.duration >= 1, "instance {i} has zero duration");
            assert!(
                inst.end() <= frames,
                "instance {i} extends past the dataset"
            );
        }
        let class_index = (0..class_names.len())
            .map(|c| {
                IntervalIndex::build(
                    frames,
                    instances
                        .iter()
                        .filter(|inst| inst.class.0 as usize == c)
                        .map(|inst| (inst.id.0, inst.start, inst.end())),
                )
            })
            .collect();
        GroundTruth {
            frames,
            img_w,
            img_h,
            class_names,
            instances,
            class_index,
        }
    }

    /// All instances (every class).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Look up an instance by id.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.0 as usize]
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Name of a class.
    pub fn class_name(&self, c: ClassId) -> &str {
        &self.class_names[c.0 as usize]
    }

    /// Number of distinct instances of a class — the denominator of recall.
    pub fn class_count(&self, c: ClassId) -> usize {
        self.class_index[c.0 as usize].num_intervals()
    }

    /// Instances of class `c` visible in frame `f`, as instance ids.
    pub fn visible_at(&self, c: ClassId, f: FrameIdx, out: &mut Vec<InstanceId>) {
        out.clear();
        self.class_index[c.0 as usize].stab(f, |id| out.push(InstanceId(id)));
    }

    /// Iterate over instances of one class.
    pub fn instances_of_class(&self, c: ClassId) -> impl Iterator<Item = &Instance> {
        self.instances.iter().filter(move |i| i.class == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traj() -> Trajectory {
        Trajectory {
            cx0: 100.0,
            cy0: 100.0,
            vx: 1.0,
            vy: 0.5,
            w0: 40.0,
            h0: 20.0,
            growth: 1.0,
        }
    }

    fn tiny_truth() -> GroundTruth {
        let instances = vec![
            Instance {
                id: InstanceId(0),
                class: ClassId(0),
                start: 10,
                duration: 5,
                trajectory: traj(),
            },
            Instance {
                id: InstanceId(1),
                class: ClassId(0),
                start: 12,
                duration: 10,
                trajectory: traj(),
            },
            Instance {
                id: InstanceId(2),
                class: ClassId(1),
                start: 0,
                duration: 100,
                trajectory: traj(),
            },
        ];
        GroundTruth::new(
            100,
            1920.0,
            1080.0,
            vec!["car".into(), "person".into()],
            instances,
        )
    }

    #[test]
    fn visibility_interval_is_half_open() {
        let t = tiny_truth();
        let i = t.instance(InstanceId(0));
        assert!(!i.visible_at(9));
        assert!(i.visible_at(10));
        assert!(i.visible_at(14));
        assert!(!i.visible_at(15));
    }

    #[test]
    fn visible_at_filters_by_class() {
        let t = tiny_truth();
        let mut out = Vec::new();
        t.visible_at(ClassId(0), 12, &mut out);
        out.sort();
        assert_eq!(out, vec![InstanceId(0), InstanceId(1)]);
        t.visible_at(ClassId(1), 12, &mut out);
        assert_eq!(out, vec![InstanceId(2)]);
        t.visible_at(ClassId(0), 50, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn class_lookup() {
        let t = tiny_truth();
        assert_eq!(t.class_name(ClassId(0)), "car");
        assert_eq!(t.class_count(ClassId(0)), 2);
        assert_eq!(t.class_count(ClassId(1)), 1);
    }

    #[test]
    fn expected_visible_sums_probabilities() {
        // The expected number of visible instances in a random frame.
        let t = tiny_truth();
        let expected_visible = |c| -> f64 {
            let p = t.instances_of_class(c).map(|i| i.hit_probability(t.frames));
            p.sum()
        };
        assert!((expected_visible(ClassId(0)) - 15.0 / 100.0).abs() < 1e-12);
        assert!((expected_visible(ClassId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trajectory_moves_linearly() {
        let tr = traj();
        let b0 = tr.bbox_at(0, 1920.0, 1080.0);
        let b10 = tr.bbox_at(10, 1920.0, 1080.0);
        assert!((b10.x1 - b0.x1 - 10.0).abs() < 1e-3);
        assert!((b10.y1 - b0.y1 - 5.0).abs() < 1e-3);
    }

    #[test]
    fn trajectory_growth_changes_size() {
        let mut tr = traj();
        tr.growth = 1.02;
        let b0 = tr.bbox_at(0, 1920.0, 1080.0);
        let b50 = tr.bbox_at(50, 1920.0, 1080.0);
        assert!(b50.area() > b0.area() * 2.0);
    }

    #[test]
    fn bbox_at_respects_visibility() {
        let t = tiny_truth();
        let i = t.instance(InstanceId(0));
        assert!(i.bbox_at(9, 1920.0, 1080.0).is_none());
        assert!(i.bbox_at(10, 1920.0, 1080.0).is_some());
    }

    #[test]
    #[should_panic(expected = "extends past the dataset")]
    fn rejects_out_of_range_instance() {
        let instances = vec![Instance {
            id: InstanceId(0),
            class: ClassId(0),
            start: 95,
            duration: 10,
            trajectory: traj(),
        }];
        GroundTruth::new(100, 1920.0, 1080.0, vec!["car".into()], instances);
    }
}
