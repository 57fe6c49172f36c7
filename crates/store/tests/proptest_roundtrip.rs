//! Property tests: the container round-trips arbitrary frame sequences
//! under arbitrary GOP sizes and read orders, and its cost accounting
//! matches first principles.

use exsample_store::{Container, ContainerWriter, StoreError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_arbitrary_frames(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..80),
        gop in 1u32..25,
    ) {
        let mut w = ContainerWriter::new(gop);
        for f in &frames {
            w.push_frame(f);
        }
        let mut c = Container::open(w.finish()).unwrap();
        prop_assert_eq!(c.frame_count(), frames.len() as u64);
        for (i, f) in frames.iter().enumerate() {
            let got = c.read_frame(i as u64).unwrap();
            prop_assert_eq!(got, f.as_slice());
        }
    }

    #[test]
    fn random_read_order_still_correct(
        n in 1u64..120,
        gop in 1u32..17,
        order_seed in any::<u64>(),
    ) {
        let mut w = ContainerWriter::new(gop);
        for i in 0..n {
            w.push_frame(&i.to_le_bytes());
        }
        let mut c = Container::open(w.finish()).unwrap();
        // Deterministic pseudo-random read order derived from the seed.
        let mut order: Vec<u64> = (0..n).collect();
        let mut s = order_seed | 1;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (s >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for &f in &order {
            let got = c.read_frame(f).unwrap();
            let want = f.to_le_bytes();
            prop_assert_eq!(got, want.as_slice());
        }
        // Each frame returned exactly once; decode amplification bounded by
        // half a GOP walk per read in the worst case plus cache effects.
        prop_assert_eq!(c.stats().frames_returned, n);
        prop_assert!(c.stats().frames_decoded <= n * gop as u64);
    }

    #[test]
    fn sequential_scan_has_unit_amplification(
        n in 1u64..200,
        gop in 1u32..33,
    ) {
        let mut w = ContainerWriter::new(gop);
        for i in 0..n {
            w.push_frame(&[i as u8]);
        }
        let mut c = Container::open(w.finish()).unwrap();
        for i in 0..n {
            c.read_frame(i).unwrap();
        }
        prop_assert_eq!(c.stats().frames_decoded, n);
        prop_assert_eq!(c.stats().seeks as usize, c.gop_count());
    }

    #[test]
    fn any_single_byte_corruption_is_rejected_or_isolated(
        n in 4u64..40,
        gop in 2u32..8,
        victim in any::<prop::sample::Index>(),
    ) {
        let frame = |i: u64| vec![i as u8; 16];
        let mut w = ContainerWriter::new(gop);
        for i in 0..n {
            w.push_frame(&frame(i));
        }
        let mut raw = w.finish();
        // Any byte of the file: header, payload, index or trailer.
        let idx = victim.index(raw.len());
        raw[idx] ^= 0x5A;
        if let Err(what) = rejected_or_isolated(raw, n, frame) {
            prop_assert!(false, "byte {idx}: {what}");
        }
    }
}

/// A damaged file is refused by `open`, or every read below the frame
/// count it now claims is pristine data or an error — never a panic,
/// never altered bytes, never a frame that was not written.
fn rejected_or_isolated(
    raw: Vec<u8>,
    frames: u64,
    frame: impl Fn(u64) -> Vec<u8>,
) -> Result<(), String> {
    let Ok(mut c) = Container::open(raw) else {
        return Ok(()); // structural damage detected at open
    };
    for i in 0..c.frame_count() {
        match c.read_frame(i) {
            Ok(_) if i >= frames => return Err(format!("frame {i} of {frames} appeared")),
            Ok(data) if data != frame(i) => return Err(format!("frame {i} altered")),
            Ok(_) | Err(StoreError::CorruptGop { .. } | StoreError::Malformed(_)) => {}
            Err(e) => return Err(format!("frame {i}: unexpected {e:?}")),
        }
    }
    Ok(())
}

/// The property above, exhaustively on one small file: every byte, four
/// masks. The header's 18 bytes and the trailer's 16 are a few percent
/// of a file, so random victims alone rarely land on them.
#[test]
fn every_byte_of_a_small_container_is_covered() {
    let frame = |i: u64| vec![i as u8 ^ 0xA5; 9];
    let mut w = ContainerWriter::new(4);
    for i in 0..10 {
        w.push_frame(&frame(i));
    }
    let pristine = w.finish();
    for idx in 0..pristine.len() {
        for mask in [0x01, 0x5A, 0x80, 0xFF] {
            let mut raw = pristine.clone();
            raw[idx] ^= mask;
            if let Err(what) = rejected_or_isolated(raw, 10, frame) {
                panic!("byte {idx} ^ {mask:#x}: {what}");
            }
        }
    }
}
