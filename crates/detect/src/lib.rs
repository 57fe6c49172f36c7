//! Simulated detection stack: detector, discriminator, proxy scorer.
//!
//! The paper treats the object detector as "a black box with a costly
//! runtime" (§II-A) and builds two components on top of it:
//!
//! * a **discriminator** that decides whether a detection is a new
//!   distinct object or a re-sighting — implemented as a SORT-style IoU
//!   tracker run forward/backward through the video (§II-B);
//! * optionally a **proxy model** that cheaply scores every frame, the
//!   core of BlazeIt-style baselines (§II-B, §V-B).
//!
//! This crate reproduces all three against the synthetic ground truth of
//! `exsample-videosim`:
//!
//! * [`detector`] — [`detector::SimulatedDetector`] returns the true boxes
//!   visible in a frame, degraded by a configurable [`detector::NoiseModel`]
//!   (size-dependent misses, false positives, box jitter).
//! * [`discrim`] — [`discrim::OracleDiscriminator`] (exact instance
//!   identity, as in the paper's simulation studies) and
//!   [`discrim::TrackerDiscriminator`] (IoU matching against tracks
//!   extended through the video, as in the paper's real-data pipeline).
//! * [`proxy`] — per-frame scores with tunable fidelity plus the
//!   descending-score frame order BlazeIt processes.
//! * [`oracle`] — [`oracle::QueryOracle`] bundles detector + discriminator
//!   into the `FnMut(FrameIdx) -> Feedback` closure the core driver
//!   consumes, while tracking *true* distinct recall for evaluation.

#![warn(missing_docs)]

pub mod detector;
pub mod discrim;
pub mod oracle;
pub mod proxy;

pub use detector::{detect_frame, dispatch_batch, Detection, NoiseModel, SimulatedDetector};
pub use discrim::{Discriminator, OracleDiscriminator, TrackerDiscriminator};
pub use oracle::QueryOracle;
pub use proxy::ProxyModel;
