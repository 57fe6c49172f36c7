//! Memory-mapped columnar detection store.
//!
//! The detection log (`exsample-persist`) is the right *write* path —
//! append-only, crash-safe, cheap per miss — but the wrong *read* shape:
//! replaying it is linear, O(total detections) per engine per restart,
//! so no engine does. This crate is the durable detections' read path. A
//! [`compact()`] pass folds sealed log segments into one immutable,
//! self-describing columnar container ([`mod@format`]): varint-delta frame-id
//! columns and raw-bit score columns grouped by `(repo, chunk)`, fronted
//! by a per-chunk temporal index. A warm start then maps the file
//! ([`ColumnarStore::open`]) and reads the header plus index — a few KiB —
//! and pays column I/O only for chunks a query actually touches.
//!
//! Division of labor with the log:
//!
//! * the **log** is authoritative and takes every new write;
//! * the **container** is a compacted, verified snapshot of sealed
//!   segments — replaced atomically, never mutated;
//! * compaction deletes only segments whose content the verified
//!   container provably holds; a crash anywhere leaves a correct (at
//!   worst duplicated, never lossy) combined state.
//!
//! Because the container is immutable and read via `mmap`, any number of
//! engines on one host share a single page-cache copy of the columns —
//! zero-copy, no per-engine heap duplication.

#![warn(missing_docs)]

pub mod compact;
pub mod format;
pub mod mmap;
pub mod varint;

pub use compact::{
    compact, compact_with_kill, container_path, sweep_orphans, CompactError, CompactionReport,
    KillPoint,
};
pub use format::{
    build_container, decode_group, encode_group, ColumnarStore, DecodedGroup, GroupSummary,
    IndexEntry, OpenError, CONTAINER_NAME, FORMAT_VERSION, HEADER_LEN, MAGIC, TMP_SUFFIX,
};
pub use mmap::MappedFile;
