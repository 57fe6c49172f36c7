//! Property tests for the persisted bytes: encode→decode identity of the
//! log's detection and belief payloads and of the container's varint
//! columns (NaN score bit patterns included), full-container
//! build→open→read identity, and detection (never silent acceptance) of
//! truncation and single-byte corruption anywhere in a log segment or a
//! container, and compaction's merge against a first-write-wins map.

use exsample_core::belief::ChunkStats;
use exsample_detect::Detection;
use exsample_persist::codec::{
    decode_beliefs, decode_detections, encode_beliefs, encode_detections, BeliefSnapshot,
};
use exsample_persist::container::{
    build_container, compact, container_path, decode_group, encode_group, ColumnarStore, OpenError,
    HEADER_LEN,
};
use exsample_persist::{scan_detections, DetectionLog, PersistConfig};
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

/// Append one log record per case word through a fresh [`DetectionLog`]
/// (rolling a segment every `segment_records`), and fold the same words
/// into `reference` first-write-wins. Keys are drawn from a small space,
/// so a key repeats within a segment, across segments and across calls,
/// each time with other detections.
fn log_words(
    cfg: &PersistConfig,
    words: &[u64],
    reference: &mut BTreeMap<(u32, u64), Vec<Detection>>,
) {
    let mut log = DetectionLog::open(cfg).expect("open log");
    for &word in words {
        let key = ((word % 3) as u32, (word >> 8) % 24);
        let dets: Vec<Detection> = (0..(word >> 4) % 3).map(|k| make_det(word ^ k)).collect();
        log.append(key.0, key.1, &dets);
        reference.entry(key).or_insert(dets);
    }
    assert_eq!(log.write_errors(), 0);
}

fn unique_tmp_dir() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "exsample-persist-prop-{}-{}",
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

/// [`same_bits`] over two frames' detections.
fn same_dets(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_bits(a, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn detections_encode_decode_identity(
        repo in 0u32..16,
        frame in any::<u64>(),
        words in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let dets: Vec<Detection> = words.iter().map(|&w| make_det(w)).collect();
        let mut buf = Vec::new();
        encode_detections(repo, frame, &dets, &mut buf);
        let rec = decode_detections(&buf).expect("valid payload");
        prop_assert_eq!(rec.repo, repo);
        prop_assert_eq!(rec.frame, frame);
        prop_assert!(same_dets(&rec.dets, &dets), "detection bits changed");
    }

    #[test]
    fn truncated_detection_payload_never_decodes(
        words in prop::collection::vec(any::<u64>(), 1..20),
        cut in any::<prop::sample::Index>(),
    ) {
        let dets: Vec<Detection> = words.iter().map(|&w| make_det(w)).collect();
        let mut buf = Vec::new();
        encode_detections(1, 2, &dets, &mut buf);
        let cut = cut.index(buf.len()); // strictly shorter than the whole
        prop_assert!(decode_detections(&buf[..cut]).is_err(), "cut={cut}");
    }

    #[test]
    fn beliefs_encode_decode_is_bit_identity(
        repo in 0u32..8,
        class in 0u32..4,
        raw in prop::collection::vec(any::<u64>(), 2..128),
    ) {
        // n1 from raw bits: exercises NaN, infinities, subnormals, -0.0 —
        // the codec must reproduce all of them exactly.
        let stats: Vec<ChunkStats> = raw
            .chunks_exact(2)
            .map(|pair| ChunkStats { n1: f64::from_bits(pair[0]), n: pair[1] })
            .collect();
        let snap = BeliefSnapshot { repo, class: class as u16, stats };
        let mut buf = Vec::new();
        encode_beliefs(&snap, &mut buf);
        let got = decode_beliefs(&buf).expect("valid payload");
        prop_assert_eq!(got.repo, snap.repo);
        prop_assert_eq!(got.class, snap.class);
        prop_assert_eq!(got.stats.len(), snap.stats.len());
        for (a, b) in got.stats.iter().zip(&snap.stats) {
            prop_assert_eq!(a.n1.to_bits(), b.n1.to_bits());
            prop_assert_eq!(a.n, b.n);
        }
    }

    #[test]
    fn any_single_byte_flip_in_a_segment_is_never_served_silently(
        frames in prop::collection::vec(any::<u64>(), 1..12),
        words in prop::collection::vec(any::<u64>(), 1..12),
        victim in any::<prop::sample::Index>(),
        flip in 1u32..256,
    ) {
        // Write a real segment through the log...
        let dir = unique_tmp_dir();
        let cfg = PersistConfig::new(&dir).fingerprint(42);
        let mut log = DetectionLog::open(&cfg).expect("open log");
        let per_frame: Vec<Vec<Detection>> = frames
            .iter()
            .map(|&f| words.iter().map(|&w| make_det(w ^ f)).collect())
            .collect();
        for (i, dets) in per_frame.iter().enumerate() {
            log.append(0, frames[i], dets);
        }
        drop(log);
        // ...flip one byte anywhere in it (header included)...
        let seg = dir.join("seg-000000.xsd");
        let mut raw = std::fs::read(&seg).expect("segment written");
        let idx = victim.index(raw.len());
        raw[idx] ^= flip as u8;
        std::fs::write(&seg, &raw).expect("rewrite");
        // ...and re-scan: every surviving record must be pristine.
        let mut seen = 0u64;
        let stats = scan_detections(&dir, 42, |rec| {
            let i = frames.iter().position(|&f| f == rec.frame);
            if let Some(i) = i {
                if same_dets(&rec.dets, &per_frame[i]) {
                    seen += 1;
                    return;
                }
            }
            panic!("altered record served: frame {}", rec.frame);
        })
        .expect("scan never errors on damage");
        prop_assert_eq!(stats.records_loaded, seen);
        // Every byte of the file is covered by the header check or a
        // record checksum, so the flip must be noticed somewhere...
        prop_assert!(
            stats.segments_skipped + stats.damaged_tails >= 1,
            "flip at {idx} went unnoticed"
        );
        // ...and must cost at least the record it landed in.
        prop_assert!(stats.records_loaded < frames.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

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
            prop_assert!(same_dets(got, dets), "detection bits changed");
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
            prop_assert!(same_dets(got, dets), "container altered a detection");
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
                        prop_assert!(same_dets(got, dets));
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
                        Some(got) => prop_assert!(
                            same_dets(got, dets),
                            "flip at {} served altered data", idx
                        ),
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

    /// Compaction keeps each `(repo, frame)`'s first write — segments in
    /// order, then the prior container — and writes exactly the bytes
    /// `build_container` writes over that first-write-wins map.
    #[test]
    fn compaction_merge_matches_first_write_wins_reference(
        old in prop::collection::vec(any::<u64>(), 0..40),
        new in prop::collection::vec(any::<u64>(), 1..60),
        segment_records in 1usize..8,
        chunk_frames in 1u64..32,
    ) {
        let dir = unique_tmp_dir();
        let cfg = PersistConfig::new(&dir).fingerprint(9).segment_records(segment_records);
        // A prior container holding the first life's writes, if any.
        let mut prior = BTreeMap::new();
        if !old.is_empty() {
            log_words(&cfg, &old, &mut prior);
            compact(&dir, 9, chunk_frames).expect("first compaction");
        }
        // The second life's writes come first; the prior container only
        // fills keys they left open.
        let mut reference = BTreeMap::new();
        log_words(&cfg, &new, &mut reference);
        for (key, dets) in prior {
            reference.entry(key).or_insert(dets);
        }
        let report = compact(&dir, 9, chunk_frames).expect("second compaction");
        prop_assert!(report.rewritten);
        prop_assert_eq!(report.frames, reference.len() as u64);
        let written = std::fs::read(container_path(&dir)).expect("container written");
        let expected = build_container(&reference, 9, chunk_frames).expect("build reference");
        prop_assert!(written == expected, "compaction wrote other bytes than the reference");
        std::fs::remove_dir_all(&dir).ok();
    }
}
