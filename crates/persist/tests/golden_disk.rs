//! Golden vectors for every file the crate writes: detection-record and
//! belief-snapshot payloads, a log segment, a belief snapshot, the
//! repository catalog, and the columnar container (header, chunk index
//! and column groups). The hex was generated with the hand-written
//! encoders (the commit before the field-list codec); a codec that moves
//! a field in both directions at once passes every round-trip test and
//! fails here.

use exsample_core::belief::ChunkStats;
use exsample_detect::Detection;
use exsample_persist::codec::{
    decode_beliefs, decode_detections, encode_beliefs, encode_detections, BeliefSnapshot,
};
use exsample_persist::container::{build_container, ColumnarStore, HEADER_LEN};
use exsample_persist::{
    scan_detections, BeliefStore, CatalogEntry, DetectionLog, PersistConfig, RepoCatalog,
};
use exsample_videosim::{BBox, ClassId, InstanceId};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "exsample-persist-golden-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One detection with ground truth, one without; the second score is a
/// NaN with a payload, which only a bitwise encoding preserves.
fn dets() -> Vec<Detection> {
    vec![
        Detection {
            bbox: BBox {
                x1: 0.5,
                y1: 1.25,
                x2: 10.0,
                y2: 42.0,
            },
            class: ClassId(2),
            score: 0.875,
            truth: Some(InstanceId(u32::MAX)),
        },
        Detection {
            bbox: BBox {
                x1: -0.0,
                y1: 0.0,
                x2: 1.0,
                y2: 2.0,
            },
            class: ClassId(0xBEEF),
            score: f32::from_bits(0x7FC0_1234),
            truth: None,
        },
    ]
}

fn beliefs() -> BeliefSnapshot {
    BeliefSnapshot {
        repo: 5,
        class: 2,
        stats: vec![
            ChunkStats { n1: 0.0, n: 0 },
            ChunkStats {
                n1: 0.1 + 0.2,
                n: u64::MAX,
            },
            ChunkStats { n1: -0.0, n: 17 },
        ],
    }
}

/// repo 3 | frame 99 999 | count 2 | detection with truth | without.
const DETECTION_RECORD: &str =
    "030000009f86010000000000020000000000003f0000a03f000020410000284202000000603f01ff\
     ffffff00000080000000000000803f00000040efbe3412c07f00";
/// repo 5 | class 2 | chunks 3 | 3 × (n1 bits, n).
const BELIEF_SNAPSHOT: &str =
    "0500000002000300000000000000000000000000000000000000343333333333d33fffffffffffff\
     ffff00000000000000801100000000000000";
/// `seg-000000.xsd`: "XSDL" v1 header under fingerprint 0xABCD, one
/// framed [`DETECTION_RECORD`].
const LOG_SEGMENT: &str =
    "5853444c0100cdab0000000000004200000086b25d76030000009f86010000000000020000000000\
     003f0000a03f000020410000284202000000603f01ffffffff00000080000000000000803f000000\
     40efbe3412c07f00";
/// `beliefs-r5-c2-m3.xsb`: "XSBL" v1 header, one framed
/// [`BELIEF_SNAPSHOT`].
const BELIEF_FILE: &str =
    "5853424c0100cdab0000000000003a000000e3427b89050000000200030000000000000000000000\
     0000000000000000343333333333d33fffffffffffffffff00000000000000801100000000000000";
/// `repos.xsr`: "XSRC" v1 header (fingerprint slot unused), one framed
/// entry `id 0 | dataset fingerprint | name`.
const CATALOG_FILE: &str =
    "58535243010000000000000000002a0000007f37374d0000000088776655443322111a000000c39c\
     62657277616368756e67736b616d6572612d3320f09f8ea5";

#[test]
fn detection_record_with_and_without_truth() {
    let mut out = Vec::new();
    encode_detections(3, 99_999, &dets(), &mut out);
    assert_eq!(hex(&out), DETECTION_RECORD);

    let golden = unhex(DETECTION_RECORD);
    let rec = decode_detections(&golden).expect("golden record");
    assert_eq!((rec.repo, rec.frame), (3, 99_999));
    // NaN != NaN: compare the decoded detections through their bits.
    let mut again = Vec::new();
    encode_detections(rec.repo, rec.frame, &rec.dets, &mut again);
    assert_eq!(again, golden);
    assert_eq!(format!("{:?}", rec.dets), format!("{:?}", dets()));
    for cut in 0..golden.len() {
        assert!(decode_detections(&golden[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn belief_snapshot_payload() {
    let mut out = Vec::new();
    encode_beliefs(&beliefs(), &mut out);
    assert_eq!(hex(&out), BELIEF_SNAPSHOT);

    let golden = unhex(BELIEF_SNAPSHOT);
    let snap = decode_beliefs(&golden).expect("golden snapshot");
    assert_eq!(format!("{snap:?}"), format!("{:?}", beliefs()));
    let bits = |s: &BeliefSnapshot| -> Vec<(u64, u64)> {
        s.stats.iter().map(|c| (c.n1.to_bits(), c.n)).collect()
    };
    assert_eq!(bits(&snap), bits(&beliefs()));
    for cut in 0..golden.len() {
        assert!(decode_beliefs(&golden[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn log_segment_file() {
    let dir = tmp_dir("log");
    let cfg = PersistConfig::new(&dir).fingerprint(0xABCD);
    let mut log = DetectionLog::open(&cfg).expect("open log");
    log.append(3, 99_999, &dets());
    drop(log);
    let path = dir.join("seg-000000.xsd");
    assert_eq!(hex(&fs::read(&path).expect("segment")), LOG_SEGMENT);

    fs::write(&path, unhex(LOG_SEGMENT)).expect("write golden");
    let mut seen = Vec::new();
    let stats = scan_detections(&dir, 0xABCD, |rec| seen.push(rec)).expect("scan");
    assert_eq!((stats.segments_loaded, stats.records_loaded), (1, 1));
    assert_eq!((seen[0].repo, seen[0].frame), (3, 99_999));
    assert_eq!(format!("{:?}", seen[0].dets), format!("{:?}", dets()));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn belief_snapshot_file() {
    let dir = tmp_dir("beliefs");
    let cfg = PersistConfig::new(&dir).fingerprint(0xABCD);
    let mut store = BeliefStore::open(&cfg).expect("open store");
    let snap = beliefs();
    store.put(snap.key(), snap.stats.clone());
    drop(store);
    let path = dir.join("beliefs-r5-c2-m3.xsb");
    assert_eq!(hex(&fs::read(&path).expect("snapshot")), BELIEF_FILE);

    fs::write(&path, unhex(BELIEF_FILE)).expect("write golden");
    let store = BeliefStore::open(&cfg).expect("reopen");
    let got = store.get(snap.key()).expect("golden snapshot loads");
    assert_eq!(format!("{got:?}"), format!("{:?}", snap.stats));
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn catalog_file_with_one_entry() {
    let dir = tmp_dir("catalog");
    let name = "Überwachungskamera-3 🎥";
    let mut cat = RepoCatalog::open(&dir).expect("open catalog");
    assert_eq!(cat.resolve(name, 0x1122_3344_5566_7788), 0);
    drop(cat);
    let path = dir.join("repos.xsr");
    assert_eq!(hex(&fs::read(&path).expect("catalog")), CATALOG_FILE);

    fs::write(&path, unhex(CATALOG_FILE)).expect("write golden");
    let cat = RepoCatalog::open(&dir).expect("reopen");
    assert_eq!(
        cat.entries(),
        [CatalogEntry {
            id: 0,
            dataset_fingerprint: 0x1122_3344_5566_7788,
            name: name.to_string(),
        }]
    );
    fs::remove_dir_all(&dir).expect("cleanup");
}

fn det(x: f32, score: f32, truth: Option<u32>) -> Detection {
    Detection {
        bbox: BBox {
            x1: x,
            y1: 1.25,
            x2: x + 10.0,
            y2: 42.0,
        },
        class: ClassId(2),
        score,
        truth: truth.map(InstanceId),
    }
}

/// Repo 0 has frames 5 and 6 in chunk 0 (frame 6 with no detections);
/// repo 1 has frame 1000 in chunk 1 of 512-frame chunks, scored NaN.
fn records() -> BTreeMap<(u32, u64), Vec<Detection>> {
    BTreeMap::from([
        (
            (0, 5),
            vec![det(0.5, 0.875, Some(7)), det(-0.0, 0.25, None)],
        ),
        ((0, 6), vec![]),
        (
            (1, 1000),
            vec![det(3.0, f32::from_bits(0x7FC0_1234), Some(u32::MAX))],
        ),
    ])
}

/// 96-byte header | 2 × 64-byte index entries | 2 column groups.
const CONTAINER: &str =
    "5853435301006000efbefecacefaedfe000200000000000002000000600000000000000080000000\
     00000000413cfafde0000000000000006300000000000000e3df39742e9317510000000000000000\
     00000000000000000000000000000000000000000000000000000000000000003e00000000000000\
     794577ff0200000002000000050000000000000006000000000000000000603f000000000000f23f\
     01000000010000003e00000000000000250000000000000048f49c7a0100000001000000e8030000\
     00000000e803000000000000000080ff000000000000000002020205010202000a808080fb038080\
     80f4032a0000003f0000a03f000028410000284202000107000000000000800000a03f0000204100\
     002842020000010102e807010105b4a480fe0717000040400000a03f0000504100002842020001ff\
     ffffff";

#[test]
fn container_of_two_groups() {
    let built = build_container(&records(), 0xFEED_FACE_CAFE_BEEF, 512).expect("build");
    assert_eq!(hex(&built), CONTAINER);

    let dir = tmp_dir("container");
    fs::create_dir_all(&dir).expect("create dir");
    let path = dir.join("detections.xsc");
    fs::write(&path, unhex(CONTAINER)).expect("write golden");
    let store = ColumnarStore::open(&path, 0xFEED_FACE_CAFE_BEEF).expect("golden container");
    store.verify().expect("golden container verifies");
    assert_eq!(store.chunk_frames(), 512);
    assert_eq!(store.group_count(), 2);
    assert_eq!(store.bytes_touched(), (HEADER_LEN + 2 * 64) as u64);
    for ((repo, frame), dets) in records() {
        let got = store.get(repo, frame).expect("recorded frame");
        assert_eq!(format!("{got:?}"), format!("{dets:?}"));
        let bits = |d: &[Detection]| -> Vec<u32> { d.iter().map(|d| d.score.to_bits()).collect() };
        assert_eq!(bits(got), bits(&dets));
    }
    let [first] = store.chunk_summaries(0)[..] else {
        panic!("repo 0 has one group");
    };
    assert_eq!(
        (
            first.chunk,
            first.frames,
            first.dets,
            first.min_frame,
            first.max_frame
        ),
        (0, 2, 2, 5, 6)
    );
    assert_eq!((first.max_score, first.score_sum), (0.875, 1.125));
    let [second] = store.chunk_summaries(1)[..] else {
        panic!("repo 1 has one group");
    };
    assert_eq!(
        (
            second.chunk,
            second.frames,
            second.dets,
            second.min_frame,
            second.max_frame
        ),
        (1, 1, 1, 1000, 1000)
    );
    assert_eq!(
        (second.max_score, second.score_sum),
        (f32::NEG_INFINITY, 0.0)
    );
    fs::remove_dir_all(&dir).expect("cleanup");
}
