//! A [`GopWalk`] on its own is the tally of the container it stands in
//! for: every read through an empty-payload [`Container`] and through a
//! walk over the same shape moves [`DecodeStats`] identically — seeks,
//! GOP fetches, bytes, keyframe walks and returns — and both refuse the
//! same frames. The engine prices a repository's reads with the walk
//! alone, so a difference here is a change to every charged `io_s`.

use exsample_store::{Container, ContainerWriter, DecodeStats, GopWalk};
use proptest::prelude::*;

fn empty_payload_container(gop: u32, frames: u64) -> Container {
    let mut w = ContainerWriter::new(gop);
    for _ in 0..frames {
        w.push_frame(&[]);
    }
    Container::open(w.finish()).unwrap()
}

/// Sequential, backwards, then pseudo-random reads each made `1 + repeats`
/// times in a row, then one past the end — every pattern the walk has to
/// agree on.
fn read_order(frames: u64, seed: u64, repeats: usize) -> Vec<u64> {
    let mut order: Vec<u64> = (0..frames).collect();
    order.extend((0..frames).rev());
    let mut s = seed | 1;
    for _ in 0..2 * frames {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let f = (s >> 33) % frames;
        order.extend(std::iter::repeat_n(f, 1 + repeats));
    }
    order.push(frames);
    order
}

/// Reads `order` through both and compares the tallies after every read.
fn assert_walk_is_the_containers_tally(gop: u32, frames: u64, order: &[u64]) {
    let mut container = empty_payload_container(gop, frames);
    let mut walk = GopWalk::new(gop, frames);
    let mut tally = DecodeStats::new();
    for (n, &f) in order.iter().enumerate() {
        let read = container
            .read_frame(f)
            .map(|bytes| assert!(bytes.is_empty()));
        assert_eq!(walk.read(f, &mut tally), read, "read {n} (frame {f})");
        assert_eq!(
            &tally,
            container.stats(),
            "read {n} (frame {f}) at gop {gop}, {frames} frames"
        );
    }
}

#[test]
fn every_pattern_at_gop_1_7_20_with_a_partial_last_gop() {
    // 7 * 3 + 4 and 20 * 3 + 11: the last GOP is partial, so its fetch
    // is fewer bytes than the others'.
    for (gop, frames) in [(1, 13), (7, 25), (20, 71), (7, 7), (20, 1)] {
        assert_walk_is_the_containers_tally(gop, frames, &read_order(frames, 0x5EED, 1));
    }
}

#[test]
fn an_empty_repository_refuses_every_frame_and_charges_nothing() {
    assert_walk_is_the_containers_tally(20, 0, &[0, 1, 20]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn walk_and_container_tally_alike_after_every_read(
        gop in prop::sample::select(vec![1u32, 7, 20]),
        full_gops in 0u64..6,
        tail in 1u64..20,
        seed in any::<u64>(),
        repeats in 0usize..3,
    ) {
        // At gop 1 every GOP is full; otherwise `tail % gop` is the
        // partial last GOP, when it is not zero.
        let frames = full_gops * gop as u64 + tail % gop as u64 + u64::from(gop == 1);
        assert_walk_is_the_containers_tally(gop, frames, &read_order(frames, seed, repeats));
    }
}
