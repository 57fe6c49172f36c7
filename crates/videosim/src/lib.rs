//! Synthetic video repository substrate.
//!
//! The ExSample paper evaluates on real dashcam and fixed-camera footage.
//! The algorithm, however, never consumes pixels — every decision is driven
//! by *which distinct object instances are visible in a sampled frame* and
//! by the costs of decoding/detecting. This crate reproduces exactly that
//! statistical structure:
//!
//! * [`geometry`] — image-plane boxes and IoU, used by the simulated
//!   detector and the SORT-style discriminator.
//! * [`instance`] — object instances with a visibility interval and a
//!   box trajectory (`p_i` in the paper is `duration_i / frames`).
//! * [`index`] — a bucketed interval index answering "which instances are
//!   visible in frame `f`" in O(overlap) time; this is the inner loop of
//!   every experiment.
//! * `generator` — dataset synthesis: instance counts, lognormal
//!   durations, and placement skew (uniform / central-normal as in
//!   Figure 3 / hot-spots as observed in the real datasets of Figure 6).
//! * [`repo`] — the clip/file layout of a repository and its chunkings
//!   (fixed-duration chunks for long videos, one-chunk-per-clip for
//!   BDD-style datasets).

#![warn(missing_docs)]

mod generator;
pub mod geometry;
pub mod index;
pub mod instance;
pub mod repo;

pub use exsample_core::chunking::Chunking;
pub use generator::{ClassSpec, DatasetSpec, DurationSpec, SkewSpec};
pub use geometry::BBox;
pub use instance::{ClassId, GroundTruth, InstanceId};

/// Global frame index within a repository (all clips concatenated).
pub type FrameIdx = u64;
