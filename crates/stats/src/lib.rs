//! Statistical foundations for the ExSample reproduction.
//!
//! This crate provides everything probabilistic that the rest of the
//! workspace builds on:
//!
//! * [`rng::Rng64`] — a small, fast, splittable xoshiro256++ PRNG with
//!   deterministic seeding, so every experiment in the repository is
//!   reproducible from a single `u64` seed.
//! * [`special`] — special functions (log-gamma, error function,
//!   regularized incomplete gamma and its inverse) used by the Gamma
//!   belief distribution at the core of ExSample's Thompson sampling and
//!   by the Bayes-UCB variant, which needs Gamma quantiles.
//! * [`dist`] — random variate generators and densities: Uniform,
//!   Exponential, Normal, LogNormal, Gamma, Poisson, Geometric.
//!   The paper's simulations draw instance durations from LogNormal
//!   distributions and model `N1(n)` as Poisson; the sampler itself draws
//!   from Gamma posteriors.
//! * [`moments`] — quantiles, used for the 25–75% envelopes in Figures 3
//!   and 4, and the geometric mean of the savings figures.
//! * [`hash`] — an Fx-style hasher plus map/set aliases for hot
//!   integer-keyed lookups (per the Rust perf-book guidance).
//! * [`sample`] — sparse Fisher–Yates uniform sampling *without
//!   replacement*, the primitive behind the random baseline.

#![warn(missing_docs)]

pub mod dist;
pub mod hash;
pub mod moments;
pub mod rng;
pub mod sample;
pub mod special;

pub use dist::{Exponential, Gamma, Geometric, LogNormal, Normal, Poisson, Uniform};
pub use hash::{FxHashMap, FxHashSet};
pub use moments::{quantile, quantile_of_sorted};
pub use rng::Rng64;
pub use sample::UniformNoReplacement;
