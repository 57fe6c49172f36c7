//! Golden vector for the columnar container: header, chunk index and
//! column groups of two `(repo, chunk)` groups. The hex was generated
//! with the hand-written writer (the commit before the field-list
//! codec); a codec that moves a field in both directions at once passes
//! every round-trip test and fails here.

use exsample_colstore::{build_container, ColumnarStore, HEADER_LEN};
use exsample_detect::Detection;
use exsample_videosim::{BBox, ClassId, InstanceId};
use std::collections::BTreeMap;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
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

    let golden = unhex(CONTAINER);
    let path = std::env::temp_dir().join(format!(
        "exsample-colstore-golden-{}.xsc",
        std::process::id()
    ));
    std::fs::write(&path, &golden).expect("write golden");
    let store = ColumnarStore::open(&path, 0xFEED_FACE_CAFE_BEEF).expect("golden container");
    store.verify().expect("golden container verifies");
    assert_eq!(store.chunk_frames(), 512);
    assert_eq!(store.group_count(), 2);
    assert_eq!(store.bytes_touched(), (HEADER_LEN + 2 * 64) as u64);
    for ((repo, frame), dets) in records() {
        let got = store.get(repo, frame).expect("recorded frame");
        assert_eq!(format!("{got:?}"), format!("{dets:?}"));
        let bits = |d: &[Detection]| -> Vec<u32> { d.iter().map(|d| d.score.to_bits()).collect() };
        assert_eq!(bits(&got), bits(&dets));
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
    std::fs::remove_file(&path).expect("cleanup");
}
