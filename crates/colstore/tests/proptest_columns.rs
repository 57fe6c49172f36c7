//! Property tests for the columnar container codec: bytewise round-trip
//! identity of the varint columns (NaN score bit patterns included),
//! full-container build→open→read identity, and rejection (never silent
//! acceptance) of truncation and single-byte corruption through the
//! section CRCs.

use exsample_colstore::{
    build_container, decode_group, encode_group, ColumnarStore, OpenError, HEADER_LEN,
};
use exsample_detect::Detection;
use exsample_videosim::{BBox, ClassId, InstanceId};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Expand case words into a deterministic `(repo, frame) → detections`
/// record map (duplicates collapse via the map).
fn make_records(keys: &[u64], repos: u32, span: u64) -> BTreeMap<(u32, u64), Vec<Detection>> {
    let mut records = BTreeMap::new();
    for &word in keys {
        let repo = (word % u64::from(repos)) as u32;
        let frame = (word >> 8) % span;
        records.insert((repo, frame), vec![make_det(word.rotate_left(13))]);
    }
    records
}

/// Deterministically expand a case word into a detection. The score is
/// raw `f32` bits — NaNs, infinities, subnormals, `-0.0` all occur and
/// must survive the column round trip bit-exactly.
fn make_det(word: u64) -> Detection {
    let f = |shift: u64| ((word >> shift) & 0xFFFF) as f32 * 0.125 - 1000.0;
    Detection {
        bbox: BBox {
            x1: f(0),
            y1: f(8),
            x2: f(16),
            y2: f(24),
        },
        class: ClassId((word >> 40) as u16),
        score: f32::from_bits((word >> 17) as u32),
        truth: if word & 1 == 0 {
            None
        } else {
            Some(InstanceId((word >> 5) as u32))
        },
    }
}

/// Build a sorted, unique `(frame, detections)` group from case input.
fn make_group(frames: &[u64], words: &[u64]) -> Vec<(u64, Vec<Detection>)> {
    let unique: BTreeSet<u64> = frames.iter().copied().collect();
    unique
        .into_iter()
        .map(|f| {
            let dets = words
                .iter()
                .take((f as usize % words.len().max(1)).max(1).min(words.len()))
                .map(|&w| make_det(w ^ f))
                .collect();
            (f, dets)
        })
        .collect()
}

fn unique_tmp_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "exsample-colstore-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Bit-exact detection comparison (`==` on `f32` treats NaN as unequal,
/// which would mask a perfectly preserved NaN payload).
fn same_bits(a: &Detection, b: &Detection) -> bool {
    a.bbox.x1.to_bits() == b.bbox.x1.to_bits()
        && a.bbox.y1.to_bits() == b.bbox.y1.to_bits()
        && a.bbox.x2.to_bits() == b.bbox.x2.to_bits()
        && a.bbox.y2.to_bits() == b.bbox.y2.to_bits()
        && a.class == b.class
        && a.score.to_bits() == b.score.to_bits()
        && a.truth == b.truth
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode → re-encode reproduces the exact bytes: the
    /// strongest identity the columns can have, and NaN-safe for free.
    #[test]
    fn group_columns_round_trip_bytewise(
        frames in prop::collection::vec(0u64..1_000_000, 1..40),
        words in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        let group = make_group(&frames, &words);
        let mut bytes = Vec::new();
        let summary = encode_group(&group, &mut bytes);
        let decoded = decode_group(&bytes).expect("own encoding decodes");
        prop_assert_eq!(decoded.frames().len(), group.len());
        prop_assert_eq!(summary.frames as usize, group.len());
        for ((frame, dets), decoded_frame) in group.iter().zip(decoded.frames()) {
            prop_assert_eq!(frame, decoded_frame);
            let got = decoded.get(*frame).expect("frame present");
            prop_assert_eq!(got.len(), dets.len());
            for (a, b) in got.iter().zip(dets) {
                prop_assert!(same_bits(a, b), "detection bits changed");
            }
        }
        let reencoded: Vec<(u64, Vec<Detection>)> = decoded
            .iter()
            .map(|(f, d)| (f, d.to_vec()))
            .collect();
        let mut bytes2 = Vec::new();
        encode_group(&reencoded, &mut bytes2);
        prop_assert_eq!(bytes, bytes2, "re-encode is not bytewise identical");
    }

    /// A full container round-trips through the mmap reader: every
    /// `(repo, frame)` reads back bit-identically, nothing extra appears.
    #[test]
    fn container_build_open_read_identity(
        keys in prop::collection::vec(any::<u64>(), 1..60),
        words in prop::collection::vec(any::<u64>(), 1..8),
        chunk_frames in 1u64..10_000,
        fingerprint in any::<u64>(),
    ) {
        let mut records = make_records(&keys, 4, 100_000);
        for ((repo, frame), dets) in records.iter_mut() {
            *dets = words
                .iter()
                .map(|&w| make_det(w ^ *frame ^ u64::from(*repo)))
                .collect();
        }
        let bytes = build_container(&records, fingerprint, chunk_frames).expect("build");
        let dir = unique_tmp_dir();
        let path = dir.join("detections.xsc");
        std::fs::write(&path, &bytes).expect("write container");
        let store = ColumnarStore::open(&path, fingerprint).expect("open own container");
        prop_assert_eq!(store.frames_indexed(), records.len() as u64);
        // Reads are lazy: opening consults the header and chunk index only;
        // a column group is counted once, when a frame in it is first read.
        let at_open = store.bytes_touched();
        prop_assert!(at_open < bytes.len() as u64, "open read column data");
        let (&(repo, frame), _) = records.iter().next().expect("at least one record");
        store.get(repo, frame);
        let one_group = store.bytes_touched();
        prop_assert!(one_group > at_open);
        store.get(repo, frame);
        prop_assert_eq!(store.bytes_touched(), one_group);
        for ((repo, frame), dets) in &records {
            let got = store.get(*repo, *frame).expect("recorded frame");
            prop_assert_eq!(got.len(), dets.len());
            for (a, b) in got.iter().zip(dets) {
                prop_assert!(same_bits(a, b), "container altered a detection");
            }
        }
        // Unrecorded neighbours miss rather than alias.
        let probes: Vec<(u32, u64)> = records.keys().take(8).copied().collect();
        for (repo, frame) in probes {
            if !records.contains_key(&(repo, frame + 1)) {
                prop_assert_eq!(store.get(repo, frame + 1), None);
            }
        }
        prop_assert_eq!(store.damaged_groups(), 0);
        prop_assert!(store.bytes_touched() <= bytes.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the container anywhere is detected at open (the header
    /// and index are length- and CRC-guarded), or — if only column data
    /// is lost — at first touch of an affected group; a truncated file
    /// never serves altered detections.
    #[test]
    fn truncation_never_serves_silently(
        keys in prop::collection::vec(any::<u64>(), 1..30),
        cut in any::<prop::sample::Index>(),
    ) {
        let records = make_records(&keys, 3, 50_000);
        let bytes = build_container(&records, 7, 512).expect("build");
        let cut = cut.index(bytes.len()); // strictly shorter
        let dir = unique_tmp_dir();
        let path = dir.join("detections.xsc");
        std::fs::write(&path, &bytes[..cut]).expect("write truncated");
        match ColumnarStore::open(&path, 7) {
            Err(_) => {} // rejected outright: fine
            Ok(store) => {
                // Open can only succeed when header + full index survived,
                // i.e. only column data was cut. Every surviving read must
                // be pristine; reads into the lost suffix must miss.
                prop_assert!(cut >= HEADER_LEN);
                let mut served = 0u64;
                for ((repo, frame), dets) in &records {
                    if let Some(got) = store.get(*repo, *frame) {
                        prop_assert_eq!(got.len(), dets.len());
                        for (a, b) in got.iter().zip(dets) {
                            prop_assert!(same_bits(a, b));
                        }
                        served += 1;
                    }
                }
                prop_assert!(
                    served < records.len() as u64 || cut >= bytes.len(),
                    "cut at {cut} of {} lost no data", bytes.len()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Any single-byte flip anywhere in the container is caught by the
    /// header CRC, the index CRC, or a group CRC: reads after the flip
    /// are refused (open error or per-chunk miss), never silently wrong.
    #[test]
    fn any_single_byte_flip_is_never_served_silently(
        keys in prop::collection::vec(any::<u64>(), 1..30),
        victim in any::<prop::sample::Index>(),
        flip in 1u32..256,
    ) {
        let records = make_records(&keys, 3, 50_000);
        let bytes = build_container(&records, 7, 512).expect("build");
        let mut flipped = bytes.clone();
        let idx = victim.index(flipped.len());
        flipped[idx] ^= flip as u8;
        let dir = unique_tmp_dir();
        let path = dir.join("detections.xsc");
        std::fs::write(&path, &flipped).expect("write flipped");
        match ColumnarStore::open(&path, 7) {
            Err(OpenError::Io(e)) => panic!("unexpected io error: {e}"),
            Err(_) => {} // header/index damage rejects the whole file
            Ok(store) => {
                // Data-section damage: the flipped group's CRC fails on
                // touch, everything else reads back pristine.
                let mut missed = 0u64;
                for ((repo, frame), dets) in &records {
                    match store.get(*repo, *frame) {
                        None => missed += 1,
                        Some(got) => {
                            prop_assert_eq!(got.len(), dets.len());
                            for (a, b) in got.iter().zip(dets) {
                                prop_assert!(
                                    same_bits(a, b),
                                    "flip at {} served altered data", idx
                                );
                            }
                        }
                    }
                }
                prop_assert!(missed > 0, "flip at {idx} went unnoticed");
                prop_assert!(store.damaged_groups() > 0);
                // The eager full check also notices.
                prop_assert!(store.verify().is_err());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
