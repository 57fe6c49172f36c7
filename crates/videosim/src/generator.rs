//! Synthetic dataset generation.
//!
//! Reproduces the statistical structure the paper's evaluation depends on:
//!
//! * **Instance counts** per class (`N`),
//! * **Durations** drawn from a LogNormal with a target mean (Fig. 3 uses
//!   means of 14/100/700/4900 frames; Fig. 2 uses a heavily skewed
//!   lognormal over per-frame probabilities),
//! * **Placement skew**: uniform, central-normal ("95% of the instances
//!   appear in the center 1/4, 1/32, 1/256 of the frames", §IV-B), or
//!   hot-spots (what real datasets like dashcam/bicycle exhibit, Fig. 6).

use crate::instance::{ClassId, GroundTruth, Instance, InstanceId, Trajectory};
use crate::repo::VideoRepo;
use exsample_stats::dist::{Continuous, LogNormal, Normal};
use exsample_stats::Rng64;

/// How instance start positions are spread along the timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum SkewSpec {
    /// Uniform placement — no skew (Fig. 3, left column).
    Uniform,
    /// Normal placement centred mid-dataset with 95% of instances within
    /// the central `frac95` fraction of the timeline (Fig. 3 columns 2-4
    /// use 1/4, 1/32, 1/256).
    CentralNormal {
        /// Fraction of the timeline containing 95% of instances.
        frac95: f64,
    },
    /// A fraction `mass` of instances cluster into `spots` random
    /// hot-spots of width `width_frac` (fraction of the timeline); the
    /// rest are uniform. Matches the chunk histograms of Fig. 6.
    HotSpots {
        /// Number of hot-spots.
        spots: usize,
        /// Fraction of instances that land in a hot-spot.
        mass: f64,
        /// Width of each hot-spot as a fraction of the timeline.
        width_frac: f64,
    },
}

/// How instance durations (in frames) are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum DurationSpec {
    /// Every instance lasts exactly this many frames.
    Fixed(u64),
    /// LogNormal durations with the given arithmetic mean and log-space
    /// sigma (the paper's generator; sigma ≈ 1 gives the ~50..5000 spread
    /// quoted for mean 700).
    LogNormalMean {
        /// Target arithmetic mean duration in frames.
        mean: f64,
        /// Log-space standard deviation.
        sigma: f64,
    },
}

impl DurationSpec {
    fn sample(&self, rng: &mut Rng64, max: u64) -> u64 {
        let d = match *self {
            DurationSpec::Fixed(d) => d,
            DurationSpec::LogNormalMean { mean, sigma } => {
                LogNormal::from_mean(mean, sigma).sample(rng).round() as u64
            }
        };
        d.clamp(1, max.max(1))
    }
}

/// One object class to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Class name ("traffic light", "boat", ...).
    pub name: String,
    /// Number of distinct instances `N`.
    pub count: usize,
    /// Duration distribution.
    pub duration: DurationSpec,
    /// Start-position skew.
    pub skew: SkewSpec,
    /// Mean box size (width, height) in pixels.
    pub mean_box: (f32, f32),
}

impl ClassSpec {
    /// Convenience constructor with a lognormal duration and the given
    /// skew.
    pub fn new(name: &str, count: usize, mean_duration: f64, skew: SkewSpec) -> Self {
        ClassSpec {
            name: name.to_string(),
            count,
            duration: DurationSpec::LogNormalMean {
                mean: mean_duration,
                sigma: 1.0,
            },
            skew,
            mean_box: (80.0, 60.0),
        }
    }
}

/// Full dataset specification.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Total frames in the repository.
    pub frames: u64,
    /// Frame rate (used to convert chunk durations).
    pub fps: f64,
    /// Image width in pixels.
    pub img_w: f32,
    /// Image height in pixels.
    pub img_h: f32,
    /// If set, the repository consists of equal clips of this many frames
    /// and instances never span a clip boundary (BDD-style).
    pub clip_frames: Option<u64>,
    /// Classes to generate.
    pub classes: Vec<ClassSpec>,
}

impl DatasetSpec {
    /// Single-class spec with default image geometry — the common case in
    /// tests and the Figure 3 simulations.
    pub fn single_class(frames: u64, class: ClassSpec) -> Self {
        DatasetSpec {
            frames,
            fps: 30.0,
            img_w: 1920.0,
            img_h: 1080.0,
            clip_frames: None,
            classes: vec![class],
        }
    }

    /// The clip layout implied by this spec.
    pub fn repo(&self) -> VideoRepo {
        match self.clip_frames {
            Some(len) => {
                let n = self.frames.div_ceil(len);
                let mut clips = Vec::with_capacity(n as usize);
                let mut left = self.frames;
                let mut i = 0;
                while left > 0 {
                    let f = left.min(len);
                    clips.push(crate::repo::Clip {
                        name: format!("clip{i:05}"),
                        frames: f,
                        fps: self.fps,
                    });
                    left -= f;
                    i += 1;
                }
                VideoRepo::new(clips)
            }
            None => VideoRepo::new(vec![crate::repo::Clip {
                name: "video".into(),
                frames: self.frames,
                fps: self.fps,
            }]),
        }
    }

    /// Generate the ground truth deterministically from a seed.
    pub fn generate(&self, seed: u64) -> GroundTruth {
        let root = Rng64::new(seed);
        let mut instances = Vec::new();
        let mut names = Vec::with_capacity(self.classes.len());
        for (ci, class) in self.classes.iter().enumerate() {
            names.push(class.name.clone());
            let mut rng = root.fork(ci as u64 + 1);
            let placer = Placer::new(&class.skew, &mut rng);
            for _ in 0..class.count {
                let inst = self.generate_instance(
                    InstanceId(instances.len() as u32),
                    ClassId(ci as u16),
                    class,
                    &placer,
                    &mut rng,
                );
                instances.push(inst);
            }
        }
        GroundTruth::new(self.frames, self.img_w, self.img_h, names, instances)
    }

    fn generate_instance(
        &self,
        id: InstanceId,
        class_id: ClassId,
        class: &ClassSpec,
        placer: &Placer,
        rng: &mut Rng64,
    ) -> Instance {
        let max_dur = self.clip_frames.unwrap_or(self.frames);
        let duration = class.duration.sample(rng, max_dur);
        let start = match self.clip_frames {
            None => {
                let span = self.frames - duration; // duration <= frames
                (placer.position(rng) * (span as f64 + 1.0)) as u64
            }
            Some(len) => {
                // Choose the clip through the skew spec, then place the
                // instance uniformly inside it so it never crosses clips.
                let n_clips = self.frames.div_ceil(len);
                let clip = ((placer.position(rng) * n_clips as f64) as u64).min(n_clips - 1);
                let clip_start = clip * len;
                let clip_len = len.min(self.frames - clip_start);
                let dur = duration.min(clip_len);
                let span = clip_len - dur;
                clip_start
                    + if span == 0 {
                        0
                    } else {
                        rng.u64_below(span + 1)
                    }
            }
        };
        let duration = duration.min(self.frames - start);
        Instance {
            id,
            class: class_id,
            start,
            duration,
            trajectory: self.random_trajectory(class, rng),
        }
    }

    fn random_trajectory(&self, class: &ClassSpec, rng: &mut Rng64) -> Trajectory {
        let size_jitter = LogNormal::new(0.0, 0.35);
        let vel = Normal::new(0.0, 1.5);
        Trajectory {
            cx0: self.img_w * (0.1 + 0.8 * rng.f64() as f32),
            cy0: self.img_h * (0.1 + 0.8 * rng.f64() as f32),
            vx: vel.sample(rng) as f32,
            vy: (vel.sample(rng) * 0.4) as f32,
            w0: class.mean_box.0 * size_jitter.sample(rng) as f32,
            h0: class.mean_box.1 * size_jitter.sample(rng) as f32,
            growth: 1.0 + Normal::new(0.0, 0.001).sample(rng) as f32,
        }
    }
}

/// Start-position sampler materialized from a [`SkewSpec`] (hot-spot
/// centres are drawn once and reused for every instance of the class).
struct Placer {
    kind: PlacerKind,
}

enum PlacerKind {
    Uniform,
    CentralNormal {
        sd: f64,
    },
    HotSpots {
        centers: Vec<f64>,
        mass: f64,
        sd: f64,
    },
}

impl Placer {
    fn new(spec: &SkewSpec, rng: &mut Rng64) -> Self {
        let kind = match *spec {
            SkewSpec::Uniform => PlacerKind::Uniform,
            SkewSpec::CentralNormal { frac95 } => {
                assert!(
                    frac95 > 0.0 && frac95 <= 1.0,
                    "frac95 out of range: {frac95}"
                );
                // 95% of a normal lies within +-1.96 sd.
                PlacerKind::CentralNormal {
                    sd: frac95 / (2.0 * 1.96),
                }
            }
            SkewSpec::HotSpots {
                spots,
                mass,
                width_frac,
            } => {
                assert!(spots > 0, "need at least one hot-spot");
                assert!((0.0..=1.0).contains(&mass), "mass out of range: {mass}");
                assert!(width_frac > 0.0, "width_frac must be positive");
                let centers = (0..spots).map(|_| rng.f64()).collect();
                PlacerKind::HotSpots {
                    centers,
                    mass,
                    sd: width_frac / (2.0 * 1.96),
                }
            }
        };
        Placer { kind }
    }

    /// Relative position in `[0, 1)`.
    fn position(&self, rng: &mut Rng64) -> f64 {
        match &self.kind {
            PlacerKind::Uniform => rng.f64(),
            PlacerKind::CentralNormal { sd } => loop {
                let x = 0.5 + sd * Normal::standard_sample(rng);
                if (0.0..1.0).contains(&x) {
                    return x;
                }
            },
            PlacerKind::HotSpots { centers, mass, sd } => {
                if rng.f64() < *mass {
                    loop {
                        let c = *rng.choose(centers);
                        let x = c + sd * Normal::standard_sample(rng);
                        if (0.0..1.0).contains(&x) {
                            return x;
                        }
                    }
                } else {
                    rng.f64()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_with(skew: SkewSpec, count: usize) -> DatasetSpec {
        DatasetSpec::single_class(100_000, ClassSpec::new("car", count, 50.0, skew))
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = spec_with(SkewSpec::Uniform, 200);
        let a = spec.generate(7);
        let b = spec.generate(7);
        assert_eq!(a.instances(), b.instances());
        let c = spec.generate(8);
        assert_ne!(a.instances(), c.instances());
    }

    #[test]
    fn instance_count_and_bounds() {
        let spec = spec_with(SkewSpec::Uniform, 500);
        let gt = spec.generate(1);
        assert_eq!(gt.instances().len(), 500);
        for inst in gt.instances() {
            assert!(inst.duration >= 1);
            assert!(inst.end() <= spec.frames);
        }
    }

    #[test]
    fn central_normal_concentrates_mass() {
        let spec = spec_with(SkewSpec::CentralNormal { frac95: 1.0 / 32.0 }, 2000);
        let gt = spec.generate(2);
        let lo = (spec.frames as f64 * (0.5 - 1.0 / 64.0)) as u64;
        let hi = (spec.frames as f64 * (0.5 + 1.0 / 64.0)) as u64;
        let inside = gt
            .instances()
            .iter()
            .filter(|i| i.start >= lo && i.start < hi)
            .count();
        // ~95% expected inside the central 1/32.
        assert!(inside > 1800, "inside={inside}");
    }

    #[test]
    fn uniform_spreads_mass() {
        let spec = spec_with(SkewSpec::Uniform, 2000);
        let gt = spec.generate(3);
        let mid = gt
            .instances()
            .iter()
            .filter(|i| i.start >= spec.frames / 4 && i.start < 3 * spec.frames / 4)
            .count();
        // Half the timeline should hold about half the instances.
        assert!((800..1200).contains(&mid), "mid={mid}");
    }

    #[test]
    fn hotspots_create_dense_regions() {
        let spec = spec_with(
            SkewSpec::HotSpots {
                spots: 2,
                mass: 0.9,
                width_frac: 0.01,
            },
            2000,
        );
        let gt = spec.generate(4);
        // Count instances per 1% bucket; the top two buckets should hold a
        // large share of all instances.
        let mut buckets = vec![0usize; 100];
        for i in gt.instances() {
            buckets[((i.start as f64 / spec.frames as f64) * 100.0) as usize] += 1;
        }
        buckets.sort_unstable_by(|a, b| b.cmp(a));
        let top4: usize = buckets[..4].iter().sum();
        assert!(top4 > 1200, "top4={top4}");
    }

    #[test]
    fn lognormal_durations_have_target_mean() {
        let spec = DatasetSpec::single_class(
            10_000_000,
            ClassSpec::new("car", 5000, 700.0, SkewSpec::Uniform),
        );
        let gt = spec.generate(5);
        let mean: f64 = gt
            .instances()
            .iter()
            .map(|i| i.duration as f64)
            .sum::<f64>()
            / gt.instances().len() as f64;
        assert!((mean / 700.0 - 1.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn clip_confined_instances() {
        let spec = DatasetSpec {
            frames: 10_000,
            fps: 30.0,
            img_w: 1280.0,
            img_h: 720.0,
            clip_frames: Some(200),
            classes: vec![ClassSpec::new("bike", 300, 500.0, SkewSpec::Uniform)],
        };
        let gt = spec.generate(6);
        for inst in gt.instances() {
            let clip = inst.start / 200;
            assert!(
                inst.end() <= (clip + 1) * 200,
                "instance {:?} spans clips: {}..{}",
                inst.id,
                inst.start,
                inst.end()
            );
        }
    }

    #[test]
    fn repo_layout_matches_spec() {
        let spec = DatasetSpec {
            frames: 1050,
            fps: 30.0,
            img_w: 1280.0,
            img_h: 720.0,
            clip_frames: Some(200),
            classes: vec![],
        };
        let repo = spec.repo();
        let clips = repo.chunking_per_clip();
        assert_eq!(clips.frames(), 1050);
        assert_eq!(clips.num_chunks(), 6);
        assert_eq!(clips.range(5).end - clips.range(5).start, 50);
    }

    #[test]
    fn multi_class_ids_are_dense() {
        let spec = DatasetSpec {
            frames: 50_000,
            fps: 30.0,
            img_w: 1920.0,
            img_h: 1080.0,
            clip_frames: None,
            classes: vec![
                ClassSpec::new("car", 100, 80.0, SkewSpec::Uniform),
                ClassSpec::new("bike", 50, 40.0, SkewSpec::Uniform),
            ],
        };
        let gt = spec.generate(9);
        assert_eq!(gt.instances().len(), 150);
        assert_eq!(gt.class_count(ClassId(0)), 100);
        assert_eq!(gt.class_count(ClassId(1)), 50);
        assert_eq!(gt.class_name(ClassId(1)), "bike");
    }
}
