//! Durable detection store: the detection log, its compacted container,
//! belief snapshots and the repository catalog.
//!
//! ExSample's whole economy is *seconds of detector per distinct result* —
//! yet the engine's in-memory `FrameCache` and per-chunk beliefs evaporate
//! on every restart, so a production deployment re-pays yesterday's GPU
//! bill each morning. This crate makes both durable:
//!
//! * [`DetectionLog`] — an append-only, segmented, CRC-checksummed log of
//!   full detector output per `(repo, frame)`: the write path. The engine
//!   appends every frame it ran the detector on, in one batch per
//!   quantum, when the quantum ends (write-behind).
//! * [`container`] — the read path. At the next start
//!   [`container::compact`] folds the sealed segments into one immutable
//!   columnar file: varint-delta frame-id columns and raw-bit score
//!   columns grouped by `(repo, chunk)`, fronted by a per-chunk index.
//!   Its scan ([`container::fold_log`]) is the start's one pass over the
//!   log, and its [`LoadStats`] are what the engine reports. The
//!   engine maps it ([`container::ColumnarStore::open`]), reads the header
//!   and the index — a few KiB — and pays column I/O only for the chunks
//!   a query touches, answering previously-detected frames without a
//!   single detector invocation. (Replaying the log instead would cost
//!   O(total detections) per engine per restart.)
//! * [`BeliefStore`] — compact snapshots of per-chunk
//!   [`ChunkStats`](exsample_core::belief::ChunkStats), written when a
//!   search finishes. A new query over an already-explored repository
//!   warm-starts its Gamma beliefs **bit-identically** to what the prior
//!   search had learned, instead of starting from the prior.
//! * [`RepoCatalog`] — stable repository identity: a caller-supplied name
//!   plus dataset fingerprint resolves to the same `u32` id across
//!   restarts and registration orders, so the artifacts above can never
//!   be silently remapped onto the wrong footage.
//!
//! The log is authoritative and takes every new write; the container is
//! a compacted, verified snapshot of sealed segments, replaced atomically
//! and never mutated. Compaction deletes only the segments the verified
//! container provably holds, so a crash anywhere leaves a correct (at
//! worst duplicated, never lossy) combined state.
//!
//! The three artifacts besides the container reuse `exsample-store`'s
//! on-disk conventions ([`framing`](exsample_store::framing)):
//! magic/version headers, little-endian integers, CRC-32 record
//! checksums; the container has a sectioned header of its own over the
//! same codec and CRC. Every segment header and the container header
//! carry a detector **fingerprint** ([`detector_fingerprint`]); after a
//! detector upgrade the stale files are skipped — counted and logged,
//! never an error — which is the invalidation story: no migration
//! tooling, just recompute-and-overwrite.
//!
//! Failure philosophy: persistence is an optimization, never a
//! correctness dependency. Damaged data costs recomputation; writer IO
//! errors disable the writer and are counted; nothing in the search path
//! can fail because a disk did.

#![warn(missing_docs)]

pub mod beliefs;
pub mod catalog;
pub mod codec;
pub mod container;
pub mod log;
mod mmap;
mod varint;

pub use beliefs::BeliefStore;
pub use catalog::{CatalogEntry, RepoCatalog};
pub use codec::{BeliefSnapshot, CodecError};
pub use log::{scan_detections, sealed_segments, DetectionLog, LoadStats};

use exsample_detect::NoiseModel;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Shape of the columnar [`container`] every persistent engine folds its
/// log into, carried inside [`PersistConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnarConfig {
    /// Frames per temporal index chunk in the container. Independent of
    /// any query's chunking: smaller chunks mean finer-grained warm-start
    /// I/O, larger chunks mean a smaller index.
    pub chunk_frames: u64,
}

impl ColumnarConfig {
    /// Default: 4096-frame chunks.
    pub fn new() -> Self {
        ColumnarConfig { chunk_frames: 4096 }
    }

    /// Set the temporal chunk width (frames).
    pub fn chunk_frames(mut self, frames: u64) -> Self {
        self.chunk_frames = frames.max(1);
        self
    }
}

impl Default for ColumnarConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Where and how to persist detections and beliefs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistConfig {
    /// Directory holding segments and snapshots (created if missing).
    pub dir: PathBuf,
    /// Records between fsyncs of the detection log. Smaller bounds data
    /// loss on crash; larger amortizes the sync.
    pub flush_every: usize,
    /// Records per segment before rotating to a new file.
    pub segment_records: usize,
    /// Fingerprint of the detector configuration (see
    /// [`detector_fingerprint`]). Segments and snapshots written under a
    /// different fingerprint are invalidated (skipped) at load.
    pub fingerprint: u64,
    /// Container chunk width; `None` = [`ColumnarConfig::new()`]. It
    /// selects nothing — every persistent engine compacts into and reads
    /// from the container — and is an `Option` only until the benchmark,
    /// which reads it as one, is re-baselined.
    pub columnar: Option<ColumnarConfig>,
}

impl PersistConfig {
    /// Config with default flush interval (64) and segment capacity
    /// (4096), a zero fingerprint, and the default container chunk width.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            flush_every: 64,
            segment_records: 4096,
            fingerprint: 0,
            columnar: None,
        }
    }

    /// Set the detector fingerprint.
    pub fn fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// Set the fsync interval (records).
    pub fn flush_every(mut self, records: usize) -> Self {
        self.flush_every = records;
        self
    }

    /// Set the segment rotation capacity (records).
    pub fn segment_records(mut self, records: usize) -> Self {
        self.segment_records = records;
        self
    }

    /// Set the container chunk width.
    pub fn columnar(mut self, cfg: ColumnarConfig) -> Self {
        self.columnar = Some(cfg);
        self
    }
}

/// Fingerprint of a detector configuration: any change to the noise model
/// or the detector seed (a "model upgrade" in the simulation) yields a
/// different value, invalidating previously persisted output.
///
/// Persisted detections are keyed by repository *registration index*, so
/// the detector fingerprint alone does not protect against the same index
/// meaning different footage across restarts. Fold each registered
/// repository's [`dataset_fingerprint`] into the [`PersistConfig`]
/// fingerprint too (e.g. XOR or sequential hashing, in registration
/// order): a changed or re-ordered dataset then invalidates the store
/// instead of silently serving another repository's detections.
pub fn detector_fingerprint(noise: &NoiseModel, det_seed: u64) -> u64 {
    let mut h = exsample_stats::hash::FxHasher::default();
    for bits in [
        noise.miss_rate.to_bits(),
        noise.small_box_extra_miss.to_bits(),
        noise.area_scale.to_bits(),
        noise.fp_rate.to_bits(),
        noise.jitter_px.to_bits(),
        det_seed,
    ] {
        bits.hash(&mut h);
    }
    // Salt so an all-defaults configuration is not fingerprint 0 (the
    // PersistConfig default, which would mask "forgot to set it" bugs).
    0x5EED_u64.hash(&mut h);
    h.finish()
}

/// Structural identity of a ground-truth dataset: frame count, image
/// geometry, classes, and every instance's `(class, start, duration)`.
/// Two repositories with different footage hash differently, so folding
/// this into the persist fingerprint invalidates the store when a
/// registration index stops meaning the same video (see
/// [`detector_fingerprint`]).
pub fn dataset_fingerprint(gt: &exsample_videosim::GroundTruth) -> u64 {
    let mut h = exsample_stats::hash::FxHasher::default();
    gt.frames.hash(&mut h);
    gt.img_w.to_bits().hash(&mut h);
    gt.img_h.to_bits().hash(&mut h);
    gt.num_classes().hash(&mut h);
    gt.instances().len().hash(&mut h);
    for inst in gt.instances() {
        inst.class.0.hash(&mut h);
        inst.start.hash(&mut h);
        inst.duration.hash(&mut h);
    }
    h.finish()
}

/// Replace `path` with `bytes` atomically: write `<path>.tmp`, `fsync`
/// it, rename it over `path`. The bytes are durable before the rename can
/// replace the previous good file, so a crash leaves either the old file
/// or the complete new one — never a torn live file (an orphaned `.tmp`
/// is swept by the file's owner at open).
fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut f = fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = detector_fingerprint(&NoiseModel::none(), 1);
        assert_eq!(base, detector_fingerprint(&NoiseModel::none(), 1));
        assert_ne!(base, detector_fingerprint(&NoiseModel::none(), 2));
        assert_ne!(base, detector_fingerprint(&NoiseModel::realistic(), 1));
        let mut tweaked = NoiseModel::none();
        tweaked.jitter_px = 0.5;
        assert_ne!(base, detector_fingerprint(&tweaked, 1));
        assert_ne!(base, 0);
    }

    #[test]
    fn dataset_fingerprint_distinguishes_footage() {
        use exsample_videosim::{ClassSpec, DatasetSpec, SkewSpec};
        let gen = |frames, seed| {
            DatasetSpec::single_class(frames, ClassSpec::new("car", 20, 40.0, SkewSpec::Uniform))
                .generate(seed)
        };
        let a = dataset_fingerprint(&gen(5_000, 1));
        assert_eq!(a, dataset_fingerprint(&gen(5_000, 1)));
        assert_ne!(a, dataset_fingerprint(&gen(5_000, 2)));
        assert_ne!(a, dataset_fingerprint(&gen(6_000, 1)));
    }

    #[test]
    fn config_builders() {
        let c = PersistConfig::new("/tmp/x")
            .fingerprint(9)
            .flush_every(10)
            .segment_records(20);
        assert_eq!(c.dir, PathBuf::from("/tmp/x"));
        assert_eq!(
            (c.flush_every, c.segment_records, c.fingerprint),
            (10, 20, 9)
        );
    }
}
