//! The six evaluation datasets, calibrated to the paper.
//!
//! We cannot ship BDD / dashcam / amsterdam / archie / night-street video,
//! so each dataset is synthesized with the statistical structure the paper
//! reports. Calibration sources:
//!
//! * **Frame counts** — Table I's proxy-scan column is "bound by
//!   io+decode" at ≈100 fps, so `frames = scan_seconds × 100`
//!   (e.g. dashcam 2h54m → 1.044M frames, consistent with the stated
//!   "over 1.1 million video frames").
//! * **Chunk layout** — 20-minute chunks for dashcam (≈29 chunks), ≈60
//!   chunks for the three static-camera datasets, one chunk per clip for
//!   BDD-1k (1000) and BDD-MOT (1600 clips × 200 frames).
//! * **Instance counts** — Figure 6 gives exact counts for five queries
//!   (dashcam/bicycle 249, bdd1k/motor 509, night-street/person 2078,
//!   archie/car 33546, amsterdam/boat 588); the remaining counts are
//!   plausible values for the content.
//! * **Mean durations** — from Table I's 90%-recall times via the random
//!   sampling model `0.9 = 1 − E[exp(−n90·D/F)]` with `D` lognormal
//!   (σ = 1). For a fixed duration this gives `dur = F·ln(10)/(20 fps ·
//!   t90)`; the lognormal tail (short-lived instances dominate the 90%
//!   mark) requires scaling the mean by ×2.82, found by solving
//!   `E[exp(-ln(10)·k·Y)] = 0.1` for `Y ~ LN(mean 1, σ 1)`.
//! * **Skew** — qualitative levels matched to Figure 6's `S` metric
//!   (archie/car and amsterdam/boat nearly uniform, dashcam/bicycle
//!   extreme, etc.).

use exsample_core::Chunking;
use exsample_videosim::{ClassSpec, DatasetSpec, DurationSpec, SkewSpec};

/// Detector throughput the paper measures for query execution
/// ("ExSample processes frames at a rate of 20 frames per second, bound by
/// the object detector throughput").
pub const DETECT_FPS: f64 = 20.0;

/// Proxy scoring throughput ("100 frames per second, bound by io+decode").
pub const SCORE_FPS: f64 = 100.0;

/// Qualitative placement-skew levels mapped onto generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewLevel {
    /// Uniform spread (archie/car, amsterdam/boat).
    None,
    /// Mild clustering.
    Low,
    /// Moderate clustering.
    Medium,
    /// Strong clustering (most savings winners in Fig. 5).
    High,
    /// Nearly everything in one region (dashcam/bicycle, S ≈ M/2).
    Extreme,
}

impl SkewLevel {
    /// Concrete generator spec for this level.
    pub fn spec(&self) -> SkewSpec {
        match self {
            SkewLevel::None => SkewSpec::Uniform,
            SkewLevel::Low => SkewSpec::HotSpots {
                spots: 8,
                mass: 0.3,
                width_frac: 0.03,
            },
            SkewLevel::Medium => SkewSpec::HotSpots {
                spots: 6,
                mass: 0.6,
                width_frac: 0.02,
            },
            SkewLevel::High => SkewSpec::HotSpots {
                spots: 4,
                mass: 0.7,
                width_frac: 0.015,
            },
            SkewLevel::Extreme => SkewSpec::HotSpots {
                spots: 1,
                mass: 0.9,
                width_frac: 0.008,
            },
        }
    }
}

/// One query class of an evaluation dataset.
#[derive(Debug, Clone)]
pub struct QueryClass {
    /// Class name as in Table I.
    pub name: &'static str,
    /// Number of distinct instances `N`.
    pub count: usize,
    /// Mean visible duration in frames.
    pub mean_duration: f64,
    /// Placement skew level.
    pub skew: SkewLevel,
}

/// How a dataset is chunked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkScheme {
    /// Split into this many equal chunks (static cameras, dashcam).
    Count(usize),
    /// One chunk per clip (BDD).
    PerClip,
}

/// One of the six evaluation datasets.
#[derive(Debug, Clone)]
pub struct EvalDataset {
    /// Dataset name as in Table I.
    pub name: &'static str,
    /// Total frames (from the proxy-scan calibration).
    pub frames: u64,
    /// Frame rate.
    pub fps: f64,
    /// Clip length for per-clip datasets.
    pub clip_frames: Option<u64>,
    /// Chunking scheme.
    pub chunks: ChunkScheme,
    /// Query classes.
    pub classes: Vec<QueryClass>,
}

/// Typical box size per class name (pixels), for detector realism.
fn mean_box(name: &str) -> (f32, f32) {
    match name {
        "person" | "pedestrian" | "rider" => (45.0, 110.0),
        "traffic light" => (28.0, 60.0),
        "traffic sign" | "stop sign" => (40.0, 40.0),
        "fire hydrant" => (35.0, 55.0),
        "bicycle" | "bike" | "motorcycle" | "motor" => (70.0, 60.0),
        "dog" => (60.0, 45.0),
        "boat" => (160.0, 70.0),
        "bus" | "truck" | "trailer" | "train" => (140.0, 100.0),
        _ => (110.0, 80.0), // car and friends
    }
}

impl EvalDataset {
    /// The generator spec for this dataset.
    pub fn dataset_spec(&self) -> DatasetSpec {
        DatasetSpec {
            frames: self.frames,
            fps: self.fps,
            img_w: 1920.0,
            img_h: 1080.0,
            clip_frames: self.clip_frames,
            classes: self
                .classes
                .iter()
                .map(|q| ClassSpec {
                    name: q.name.to_string(),
                    count: q.count,
                    duration: DurationSpec::LogNormalMean {
                        mean: q.mean_duration,
                        sigma: 1.0,
                    },
                    skew: q.skew.spec(),
                    mean_box: mean_box(q.name),
                })
                .collect(),
        }
    }

    /// The chunking used for ExSample on this dataset.
    pub fn chunking(&self) -> Chunking {
        match self.chunks {
            ChunkScheme::Count(m) => Chunking::even(self.frames, m),
            ChunkScheme::PerClip => self.dataset_spec().repo().chunking_per_clip(),
        }
    }

    /// Seconds a proxy model needs to score every frame.
    pub fn proxy_scan_seconds(&self) -> f64 {
        self.frames as f64 / SCORE_FPS
    }

    /// Look up a class index by name.
    pub fn class_index(&self, name: &str) -> Option<usize> {
        self.classes.iter().position(|c| c.name == name)
    }
}

/// All six evaluation datasets of §V-A.
pub fn all_datasets() -> Vec<EvalDataset> {
    use SkewLevel::*;
    vec![
        EvalDataset {
            // 1000 random BDD clips, <1 min each; forced per-clip chunks.
            name: "BDD 1k",
            frames: 324_000,
            fps: 30.0,
            clip_frames: Some(324),
            chunks: ChunkScheme::PerClip,
            classes: vec![
                QueryClass {
                    name: "bike",
                    count: 400,
                    mean_duration: 42.9,
                    skew: High,
                },
                QueryClass {
                    name: "bus",
                    count: 600,
                    mean_duration: 35.8,
                    skew: Medium,
                },
                QueryClass {
                    name: "motor",
                    count: 509,
                    mean_duration: 38.1,
                    skew: High,
                },
                QueryClass {
                    name: "person",
                    count: 5000,
                    mean_duration: 48.8,
                    skew: Medium,
                },
                QueryClass {
                    name: "rider",
                    count: 350,
                    mean_duration: 38.9,
                    skew: High,
                },
                QueryClass {
                    name: "traffic light",
                    count: 4000,
                    mean_duration: 35.0,
                    skew: Low,
                },
                QueryClass {
                    name: "traffic sign",
                    count: 6000,
                    mean_duration: 30.2,
                    skew: Low,
                },
                QueryClass {
                    name: "truck",
                    count: 2000,
                    mean_duration: 35.0,
                    skew: Medium,
                },
            ],
        },
        EvalDataset {
            // 1600 clips of ~200 frames.
            name: "BDD MOT",
            frames: 320_000,
            fps: 30.0,
            clip_frames: Some(200),
            chunks: ChunkScheme::PerClip,
            classes: vec![
                QueryClass {
                    name: "bicycle",
                    count: 200,
                    mean_duration: 49.1,
                    skew: High,
                },
                QueryClass {
                    name: "bus",
                    count: 400,
                    mean_duration: 82.1,
                    skew: Medium,
                },
                QueryClass {
                    name: "car",
                    count: 15_000,
                    mean_duration: 57.2,
                    skew: Low,
                },
                QueryClass {
                    name: "motorcycle",
                    count: 150,
                    mean_duration: 44.0,
                    skew: High,
                },
                QueryClass {
                    name: "pedestrian",
                    count: 6000,
                    mean_duration: 71.6,
                    skew: Medium,
                },
                QueryClass {
                    name: "rider",
                    count: 280,
                    mean_duration: 52.5,
                    skew: High,
                },
                QueryClass {
                    name: "trailer",
                    count: 80,
                    mean_duration: 45.4,
                    skew: High,
                },
                QueryClass {
                    name: "train",
                    count: 30,
                    mean_duration: 53.9,
                    skew: Extreme,
                },
                QueryClass {
                    name: "truck",
                    count: 1800,
                    mean_duration: 83.5,
                    skew: Medium,
                },
            ],
        },
        EvalDataset {
            // 20 hours of fixed camera over a canal.
            name: "amsterdam",
            frames: 3_540_000,
            fps: 49.2,
            clip_frames: Option::None,
            chunks: ChunkScheme::Count(60),
            classes: vec![
                QueryClass {
                    name: "bicycle",
                    count: 3000,
                    mean_duration: 490.7,
                    skew: Medium,
                },
                QueryClass {
                    name: "boat",
                    count: 588,
                    mean_duration: 4794.0,
                    skew: None,
                },
                QueryClass {
                    name: "car",
                    count: 6000,
                    mean_duration: 812.2,
                    skew: Low,
                },
                QueryClass {
                    name: "dog",
                    count: 180,
                    mean_duration: 174.8,
                    skew: Medium,
                },
                QueryClass {
                    name: "motorcycle",
                    count: 130,
                    mean_duration: 138.2,
                    skew: High,
                },
                QueryClass {
                    name: "person",
                    count: 8000,
                    mean_duration: 885.5,
                    skew: Low,
                },
                QueryClass {
                    name: "truck",
                    count: 700,
                    mean_duration: 490.7,
                    skew: Medium,
                },
            ],
        },
        EvalDataset {
            name: "archie",
            frames: 3_534_000,
            fps: 49.1,
            clip_frames: Option::None,
            chunks: ChunkScheme::Count(60),
            classes: vec![
                QueryClass {
                    name: "bicycle",
                    count: 1200,
                    mean_duration: 445.6,
                    skew: Medium,
                },
                QueryClass {
                    name: "bus",
                    count: 450,
                    mean_duration: 329.9,
                    skew: Medium,
                },
                QueryClass {
                    name: "car",
                    count: 33_546,
                    mean_duration: 1807.6,
                    skew: None,
                },
                QueryClass {
                    name: "motorcycle",
                    count: 160,
                    mean_duration: 163.6,
                    skew: High,
                },
                QueryClass {
                    name: "person",
                    count: 9000,
                    mean_duration: 383.5,
                    skew: Low,
                },
                QueryClass {
                    name: "truck",
                    count: 600,
                    mean_duration: 236.9,
                    skew: Medium,
                },
            ],
        },
        EvalDataset {
            // ~10 hours of drives split into 20-minute chunks.
            name: "dashcam",
            frames: 1_044_000,
            fps: 30.0,
            clip_frames: Option::None,
            chunks: ChunkScheme::Count(29),
            classes: vec![
                QueryClass {
                    name: "bicycle",
                    count: 249,
                    mean_duration: 94.2,
                    skew: Extreme,
                },
                QueryClass {
                    name: "bus",
                    count: 400,
                    mean_duration: 31.9,
                    skew: Medium,
                },
                QueryClass {
                    name: "fire hydrant",
                    count: 350,
                    mean_duration: 75.3,
                    skew: Medium,
                },
                QueryClass {
                    name: "person",
                    count: 2500,
                    mean_duration: 83.2,
                    skew: Medium,
                },
                QueryClass {
                    name: "stop sign",
                    count: 800,
                    mean_duration: 38.4,
                    skew: High,
                },
                QueryClass {
                    name: "traffic light",
                    count: 1500,
                    mean_duration: 69.7,
                    skew: High,
                },
                QueryClass {
                    name: "truck",
                    count: 900,
                    mean_duration: 31.9,
                    skew: Low,
                },
            ],
        },
        EvalDataset {
            name: "night street",
            frames: 2_880_000,
            fps: 40.0,
            clip_frames: Option::None,
            chunks: ChunkScheme::Count(60),
            classes: vec![
                QueryClass {
                    name: "bus",
                    count: 300,
                    mean_duration: 298.9,
                    skew: Medium,
                },
                QueryClass {
                    name: "car",
                    count: 12_000,
                    mean_duration: 1415.6,
                    skew: Low,
                },
                QueryClass {
                    name: "dog",
                    count: 60,
                    mean_duration: 71.1,
                    skew: High,
                },
                QueryClass {
                    name: "motorcycle",
                    count: 25,
                    mean_duration: 34.7,
                    skew: Extreme,
                },
                QueryClass {
                    name: "person",
                    count: 2078,
                    mean_duration: 1037.8,
                    skew: Medium,
                },
                QueryClass {
                    name: "truck",
                    count: 500,
                    mean_duration: 242.5,
                    skew: Medium,
                },
            ],
        },
    ]
}

/// Look up one dataset by name.
pub fn dataset(name: &str) -> Option<EvalDataset> {
    all_datasets().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_datasets_43_queries() {
        let ds = all_datasets();
        assert_eq!(ds.len(), 6);
        let total: usize = ds.iter().map(|d| d.classes.len()).sum();
        assert_eq!(total, 43, "Table I has 43 dataset/class rows");
    }

    #[test]
    fn proxy_scan_times_match_table_1() {
        // Table I scan column: BDD 1k 54m, BDD MOT 53m, amsterdam 9h50m,
        // archie 9h49m, dashcam 2h54m, night street 8h.
        let expect = [
            ("BDD 1k", 54.0 * 60.0),
            ("BDD MOT", 53.0 * 60.0),
            ("amsterdam", 9.0 * 3600.0 + 50.0 * 60.0),
            ("archie", 9.0 * 3600.0 + 49.0 * 60.0),
            ("dashcam", 2.0 * 3600.0 + 54.0 * 60.0),
            ("night street", 8.0 * 3600.0),
        ];
        for (name, secs) in expect {
            let d = dataset(name).unwrap();
            let got = d.proxy_scan_seconds();
            assert!(
                (got / secs - 1.0).abs() < 0.02,
                "{name}: got {got}, expected {secs}"
            );
        }
    }

    #[test]
    fn figure6_instance_counts_respected() {
        assert_eq!(
            dataset("dashcam").unwrap().classes
                [dataset("dashcam").unwrap().class_index("bicycle").unwrap()]
            .count,
            249
        );
        let bdd = dataset("BDD 1k").unwrap();
        assert_eq!(bdd.classes[bdd.class_index("motor").unwrap()].count, 509);
        let ns = dataset("night street").unwrap();
        assert_eq!(ns.classes[ns.class_index("person").unwrap()].count, 2078);
        let ar = dataset("archie").unwrap();
        assert_eq!(ar.classes[ar.class_index("car").unwrap()].count, 33_546);
        let am = dataset("amsterdam").unwrap();
        assert_eq!(am.classes[am.class_index("boat").unwrap()].count, 588);
    }

    #[test]
    fn chunk_layouts() {
        assert_eq!(dataset("dashcam").unwrap().chunking().num_chunks(), 29);
        assert_eq!(dataset("BDD 1k").unwrap().chunking().num_chunks(), 1000);
        assert_eq!(dataset("BDD MOT").unwrap().chunking().num_chunks(), 1600);
        assert_eq!(dataset("amsterdam").unwrap().chunking().num_chunks(), 60);
    }

    #[test]
    fn generation_small_smoke() {
        // Generate one of the small datasets end to end and sanity-check
        // instance counts per class.
        let d = dataset("BDD MOT").unwrap();
        let gt = d.dataset_spec().generate(1);
        assert_eq!(gt.frames, d.frames);
        for (i, c) in d.classes.iter().enumerate() {
            assert_eq!(
                gt.class_count(exsample_videosim::ClassId(i as u16)),
                c.count,
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn unknown_dataset_is_none() {
        assert!(dataset("kitti").is_none());
    }
}
