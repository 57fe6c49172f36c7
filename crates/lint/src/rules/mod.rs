//! The rule implementations. Each rule lives in its own module with an
//! injectable entry point (so fixture self-tests can drive it) and a
//! `pub const` rule name used in findings and allow annotations.

pub mod budget;
pub mod lock;
pub mod metrics;
pub mod orphan_pub;
pub mod panic;
pub mod retired;
pub mod wire;
