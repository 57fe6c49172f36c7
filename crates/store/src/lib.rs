//! GOP-packed video container with random-access decode cost accounting.
//!
//! The paper (§V-A) achieves fast random-access frame decoding by
//! re-encoding video "to insert keyframes every 20 frames" and reading it
//! through the Hwang library. This crate models that storage layer
//! faithfully at the container level:
//!
//! * frames are stored in **groups of pictures (GOPs)**; only the first
//!   frame of a GOP is independently decodable,
//! * reading frame `f` requires seeking to its GOP and decoding every
//!   frame from the keyframe up to `f` — the cost asymmetry that makes the
//!   GOP size a real knob (tiny GOPs inflate storage, huge GOPs inflate
//!   random reads),
//! * an explicit frame/GOP index enables O(1) lookup, and each GOP is
//!   checksummed (CRC-32) so corruption is detected on read,
//! * the file is one buffer from the first pushed frame to the last read:
//!   [`ContainerWriter`] builds it in place, [`Container::open`] takes it
//!   whole and checks header, trailer and index against each other, and
//!   [`Container::read_frame`] lends out slices of it.
//!
//! Every read is tallied into [`DecodeStats`], which a [`CostModel`]
//! converts into seconds; the evaluation harness uses this to charge the
//! "io+decode" costs the paper reports (scoring at ~100 fps is io+decode
//! bound, detection at ~20 fps is GPU bound). How a read moves the tally
//! is stated once, in [`GopWalk`], which holds no bytes: the container
//! reads through one, and the engine prices a repository's reads with
//! one alone — decode cost is structural, not content-bound.
//!
//! The container's on-disk conventions (magic/version headers,
//! little-endian integers, CRC-32 checksums) are factored out in
//! [`framing`] so sibling crates persisting other artifacts — notably
//! `exsample-persist`'s detection log — share one format vocabulary.
//! [`crc::crc32`] is also the checksum of every wire frame and every
//! columnar-container section, which makes it the hottest function in
//! this crate; it is slice-by-8 over compile-time tables.

#![warn(missing_docs)]

pub mod cost;
pub mod crc;
pub mod format;
pub mod framing;
pub mod le;

pub use cost::{CostModel, DecodeStats, GopWalk};
pub use format::{Container, ContainerWriter, StoreError};
