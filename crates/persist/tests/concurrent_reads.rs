//! Readers racing to a container group's first touch: the group is
//! decoded once, so its bytes count once in `bytes_touched` and its
//! damage once in `damaged_groups`, however many threads read it at once.
//! The compactor's carry-forward visit touches no group at all.

use exsample_detect::Detection;
use exsample_persist::container::{build_container, ColumnarStore, HEADER_LEN, INDEX_ENTRY_LEN};
use exsample_videosim::{BBox, ClassId, InstanceId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;

const FINGERPRINT: u64 = 0xBEEF;
const CHUNK_FRAMES: u64 = 4096;
const READERS: usize = 4;
/// Fresh stores per case: each round is one more chance for the racing
/// first touches to overlap.
const ROUNDS: usize = 16;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Two chunks of repo 0, each with thousands of frames, so one group's
/// decode is long enough for the readers' first touches to overlap.
fn records() -> BTreeMap<(u32, u64), Vec<Detection>> {
    (0..2 * CHUNK_FRAMES)
        .step_by(2)
        .map(|frame| {
            let dets = (0..3)
                .map(|k| Detection {
                    bbox: BBox::new(frame as f32, k as f32, frame as f32 + 8.0, k as f32 + 8.0),
                    class: ClassId(k),
                    score: (frame % 97) as f32 / 97.0,
                    truth: Some(InstanceId(frame as u32)),
                })
                .collect();
            ((0, frame), dets)
        })
        .collect()
}

/// `READERS` threads, released together, each read every recorded frame
/// of chunk 0; returns how many of those reads were served.
fn race_chunk_zero(store: &ColumnarStore, records: &BTreeMap<(u32, u64), Vec<Detection>>) -> usize {
    let frames: Vec<u64> = records
        .keys()
        .map(|&(_, frame)| frame)
        .filter(|frame| frame / CHUNK_FRAMES == 0)
        .collect();
    let start = Barrier::new(READERS);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    frames
                        .iter()
                        .filter(|&&frame| store.get(0, frame).is_some())
                        .count()
                })
            })
            .collect();
        readers
            .into_iter()
            .map(|r| r.join().expect("reader panicked"))
            .sum()
    })
}

#[test]
fn racing_first_touches_count_a_group_once() {
    let records = records();
    let bytes = build_container(&records, FINGERPRINT, CHUNK_FRAMES).expect("build");
    let path = scratch_dir("concurrent-reads-clean").join("detections.xsc");
    std::fs::write(&path, &bytes).expect("write container");
    for _ in 0..ROUNDS {
        let store = ColumnarStore::open(&path, FINGERPRINT).expect("open container");
        let chunk0 = store.chunk_summaries(0)[0];
        assert_eq!(chunk0.chunk, 0);
        let at_open = store.bytes_touched();
        let served = race_chunk_zero(&store, &records);
        assert_eq!(served, READERS * chunk0.frames as usize);
        assert_eq!(store.bytes_touched(), at_open + chunk0.len);
        assert_eq!(store.damaged_groups(), 0);
    }
}

#[test]
fn racing_first_touches_count_a_damaged_group_once() {
    let records = records();
    let mut bytes = build_container(&records, FINGERPRINT, CHUNK_FRAMES).expect("build");
    let dir = scratch_dir("concurrent-reads-damaged");
    let path = dir.join("detections.xsc");
    // Flip one byte in the middle of chunk 0's columns: the header and
    // index stay intact, so the store opens and the group fails its CRC.
    let clean = dir.join("clean.xsc");
    std::fs::write(&clean, &bytes).expect("write container");
    let chunk0 = ColumnarStore::open(&clean, FINGERPRINT)
        .expect("open container")
        .chunk_summaries(0)[0];
    let data_off = HEADER_LEN + 2 * INDEX_ENTRY_LEN;
    bytes[data_off + (chunk0.off + chunk0.len / 2) as usize] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write damaged container");
    for _ in 0..ROUNDS {
        let store = ColumnarStore::open(&path, FINGERPRINT).expect("index intact");
        assert_eq!(store.group_count(), 2);
        let at_open = store.bytes_touched();
        assert_eq!(race_chunk_zero(&store, &records), 0);
        assert_eq!(store.damaged_groups(), 1);
        assert_eq!(store.bytes_touched(), at_open + chunk0.len);
    }
}

#[test]
fn carry_forward_leaves_every_group_untouched() {
    let records = records();
    let bytes = build_container(&records, FINGERPRINT, CHUNK_FRAMES).expect("build");
    let path = scratch_dir("concurrent-reads-carry-forward").join("detections.xsc");
    std::fs::write(&path, &bytes).expect("write container");
    let store = ColumnarStore::open(&path, FINGERPRINT).expect("open container");
    let at_open = store.bytes_touched();
    let mut visited = BTreeMap::new();
    let skipped = store.for_each_frame(|repo, frame, dets| {
        visited.insert((repo, frame), dets.to_vec());
    });
    assert_eq!((skipped, &visited), (0, &records));
    assert_eq!(
        store.bytes_touched(),
        at_open,
        "carry-forward left groups decoded behind it"
    );
    // The first read after it decodes chunk 0's group, and counts it once.
    let chunk0 = store.chunk_summaries(0)[0];
    for &(_, frame) in records.keys().take(2) {
        assert_eq!(store.get(0, frame), Some(&records[&(0, frame)][..]));
    }
    assert_eq!(store.bytes_touched(), at_open + chunk0.len);
}
