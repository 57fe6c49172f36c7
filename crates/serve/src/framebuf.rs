//! The frame codec, under its historical path: [`FrameBuf`] lives in
//! `exsample-proto` ([`exsample_proto::framebuf`]), beside the
//! [`Connection`](exsample_proto::Connection) both servers drive.

pub use exsample_proto::framebuf::{FrameBuf, ReadOutcome};
