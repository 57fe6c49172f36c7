//! ExSample: chunk-based adaptive sampling for distinct-object search.
//!
//! This crate implements the contribution of *"ExSample: Efficient
//! Searches on Video Repositories through Adaptive Sampling"* (ICDE 2022)
//! as a reusable, video-agnostic library. The algorithm treats temporal
//! chunks of a frame range as bandit arms:
//!
//! 1. each chunk `j` keeps `N1[j]` (results seen exactly once) and `n[j]`
//!    (frames sampled) — see [`belief`];
//! 2. the future-reward estimate `R̂_j = N1_j / n_j` (Eq. III.1) is wrapped
//!    in a `Gamma(N1_j + α0, n_j + β0)` belief (Eq. III.4) and chunks are
//!    chosen by Thompson sampling (or Bayes-UCB / greedy) — see
//!    [`exsample`];
//! 3. within the chosen chunk, frames are drawn without replacement using
//!    the stratified *random+* order (§III-F) — see [`within`];
//! 4. the driver loop (Algorithm 1) feeds detector/discriminator outcomes
//!    back as [`Feedback`] — see [`driver`].
//!
//! The crate is deliberately independent of any video machinery: a frame
//! is a `u64` index, and the caller supplies an oracle that turns a frame
//! index into "how many new / once-matched results did this frame yield".
//! The companion crates provide simulated detectors, discriminators, and
//! synthetic repositories.
//!
//! # Quick start
//!
//! ```
//! use exsample_core::{
//!     chunking::Chunking,
//!     driver::{run_search, SearchCost, StopCond},
//!     exsample::{ExSample, ExSampleConfig},
//!     Feedback,
//! };
//! use exsample_stats::Rng64;
//!
//! // 1000 frames in 10 chunks; objects hide in frames 500..520.
//! let chunking = Chunking::even(1000, 10);
//! let mut policy = ExSample::new(chunking, ExSampleConfig::default());
//! let mut rng = Rng64::new(7);
//! let mut oracle = |frame: u64| {
//!     if (500..520).contains(&frame) {
//!         Feedback { new_results: 1, matched_once: 0 }
//!     } else {
//!         Feedback::NONE
//!     }
//! };
//! let trace = run_search(
//!     &mut policy,
//!     &mut oracle,
//!     &SearchCost::per_sample(0.05),
//!     &StopCond::results(5),
//!     &mut rng,
//! );
//! assert!(trace.found() >= 5);
//! ```

#![warn(missing_docs)]

pub mod belief;
pub mod chunking;
pub mod driver;
pub mod exsample;
pub mod policy;
pub mod threads;
pub mod within;

pub use belief::{BeliefPrior, ChunkStats, Selector};
pub use chunking::Chunking;
pub use driver::{run_search, SearchCost, SearchStepper, SearchTrace, StopCond, TracePoint};
pub use exsample::{ExSample, ExSampleConfig};
pub use policy::{Feedback, SamplingPolicy};
pub use threads::default_threads;
pub use within::{RandomWithin, ScoredWithin, StratifiedWithin, WithinKind, WithinSampler};

/// Global frame index. Policies hand these out; oracles consume them.
pub type FrameIdx = u64;
