//! The decode tally and the writer's bytes, pinned to constants recorded
//! from the commit before the in-place writer and the borrowing reader.
//!
//! [`DecodeStats`](exsample_store::DecodeStats) prices `io_s`, so a reader
//! that counts a seek or a decoded frame at a different point changes
//! every charged second and every scheduler decision downstream without
//! failing a round-trip test. The constants below were printed by this
//! file's own code running against the old `Vec<Bytes>` reader (with
//! `Bytes::from(..)` around what `open` takes and `.to_vec()` on what
//! `finish` returns, and nothing else changed); they are not derived
//! from the implementation under test.

use exsample_store::{Container, ContainerWriter, StoreError};

const FRAMES: u64 = 1_003;
const GOP: u32 = 20;
/// `ContainerWriter`'s header: magic, version, gop_size, frame_count.
const HEADER_LEN: usize = 18;

/// Variable-length payload derived from the frame index (10..=40 bytes).
fn frame_payload(i: u64) -> Vec<u8> {
    let len = 10 + (i * 7 % 31) as usize;
    (0..len)
        .map(|j| ((i as usize * 131 + j * 17) % 253) as u8)
        .collect()
}

fn container_bytes(frames: u64, gop: u32) -> Vec<u8> {
    let mut w = ContainerWriter::new(gop);
    for i in 0..frames {
        w.push_frame(&frame_payload(i));
    }
    w.finish()
}

fn read(c: &mut Container, frame: u64) -> Vec<u8> {
    c.read_frame(frame).unwrap().to_vec()
}

/// The five counters, in declaration order.
fn tally(c: &Container) -> [u64; 5] {
    let s = c.stats();
    [
        s.seeks,
        s.gops_fetched,
        s.bytes_fetched,
        s.frames_decoded,
        s.frames_returned,
    ]
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn random_reads_tally_is_the_parents() {
    let mut c = Container::open(container_bytes(FRAMES, GOP)).unwrap();
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..2_000 {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let f = (s >> 33) % FRAMES;
        assert_eq!(read(&mut c, f), frame_payload(f).as_slice());
    }
    assert_eq!(tally(&c), [1_957, 1_957, 1_130_113, 20_381, 2_000]);
}

#[test]
fn sequential_pass_tally_is_the_parents() {
    let mut c = Container::open(container_bytes(FRAMES, GOP)).unwrap();
    for f in 0..FRAMES {
        assert_eq!(read(&mut c, f), frame_payload(f).as_slice());
    }
    assert_eq!(tally(&c), [51, 51, 29_059, 1_003, 1_003]);
}

#[test]
fn corrupt_gop_is_charged_and_leaves_the_cached_gop_served() {
    let mut raw = container_bytes(FRAMES, GOP);
    // First payload byte of frame 100 (GOP 5): past every earlier frame's
    // length prefix and bytes, and past its own prefix.
    let victim = HEADER_LEN + (0..100).map(|i| 4 + frame_payload(i).len()).sum::<usize>() + 4;
    raw[victim] ^= 0x40;
    let mut c = Container::open(raw).unwrap();

    assert_eq!(read(&mut c, 47), frame_payload(47).as_slice());
    assert_eq!(tally(&c), [1, 1, 576, 8, 1]);

    assert_eq!(c.read_frame(109), Err(StoreError::CorruptGop { gop: 5 }));
    // The failed fetch is charged (seek, GOP, bytes) but decodes and
    // returns nothing.
    assert_eq!(tally(&c), [2, 2, 1_182, 8, 1]);

    // GOP 2 is still the cached one: no new seek, and only the two frames
    // past the earlier walk are decoded.
    assert_eq!(read(&mut c, 49), frame_payload(49).as_slice());
    assert_eq!(tally(&c), [2, 2, 1_182, 10, 2]);
}

#[test]
fn writer_output_is_byte_identical_to_the_parents() {
    // (frames, gop_size, byte length, FNV-1a 64 of the bytes).
    const GRID: [(u64, u32, usize, u64); 18] = [
        (0, 1, 34, 0x849FF419AE9BD235),
        (0, 7, 34, 0x85EC936A8B589FCB),
        (0, 20, 34, 0x319C51BE3F527E84),
        (1, 1, 72, 0xAC7B1E16F636F7D8),
        (1, 7, 72, 0x17E7ECD5F6D683D6),
        (1, 20, 72, 0x9F970B669A2A8FF5),
        (19, 1, 1023, 0x382C3A8B145BF885),
        (19, 7, 639, 0xF805EB3FBE0B5C7A),
        (19, 20, 591, 0xAB42C3D3DA1389E3),
        (20, 1, 1070, 0x0078BE2D8B07C74C),
        (20, 7, 662, 0x71C901C29C641986),
        (20, 20, 614, 0x7972E043387D70E0),
        (21, 1, 1124, 0x1F7DF6939CC10E00),
        (21, 7, 692, 0x8D5B5DC311C430BC),
        (21, 20, 668, 0xAFD6E1B8F5F16D22),
        (103, 1, 5472, 0x71447E9B93185A8E),
        (103, 7, 3360, 0x74A4BF9CF73F279C),
        (103, 20, 3144, 0x9D61693915D3FFC3),
    ];
    for (frames, gop, len, hash) in GRID {
        let bytes = container_bytes(frames, gop);
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (len, hash),
            "{frames} frames at gop_size {gop}"
        );
    }
}

#[test]
fn a_reader_taken_after_reads_starts_cold() {
    let mut opened = Container::open(container_bytes(FRAMES, GOP)).unwrap();
    for f in [59, 41, 900] {
        opened.read_frame(f).unwrap();
    }
    let before = tally(&opened);
    let mut reader = opened.reader();
    assert_eq!(tally(&reader), [0; 5]);
    // Frame 900 is in the GOP `opened` has cached; the reader pays the
    // seek and the keyframe walk itself.
    assert_eq!(read(&mut reader, 900), frame_payload(900).as_slice());
    assert_eq!(tally(&reader)[..2], [1, 1]);
    assert_eq!(tally(&reader)[3..], [1, 1]);
    assert_eq!(tally(&opened), before);
}
