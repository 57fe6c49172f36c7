//! Rendezvous (highest-random-weight) placement of repository
//! identities onto shards.
//!
//! Every placement decision hashes the *durable* repository identity —
//! the `(name, dataset fingerprint)` pair that also keys the persist
//! layer's catalog — against each shard's *name*. The shard with the
//! highest score owns the repository. Because nothing but those strings
//! enters the hash, placement has exactly the properties a restartable
//! fleet needs:
//!
//! * **deterministic** — any router anywhere computes the same owner;
//! * **order-free** — permuting the shard list changes nothing;
//! * **minimally disruptive** — adding a shard moves only the
//!   repositories whose new highest score it is, and removing one moves
//!   only the repositories it owned (each to its runner-up shard).
//!   Nothing else shuffles, so warm caches and persisted detections stay
//!   where they are.

use exsample_stats::hash::FxHasher;
use std::hash::Hasher;

/// SplitMix64 finalizer: full-avalanche scrambling of a raw hash so that
/// near-identical inputs ("shard-1"/"shard-2") produce uncorrelated
/// scores — the property the rendezvous argmax needs for balance.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The rendezvous score of one `(shard, repository identity)` pair.
/// Pure function of its arguments; the owning shard is the one with the
/// highest score (ties broken by shard name, see [`place`]).
pub(crate) fn rendezvous_score(shard: &str, repo_name: &str, dataset_fingerprint: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write(shard.as_bytes());
    // Domain separator: ("ab","c") and ("a","bc") must not collide.
    h.write_u8(0xFF);
    h.write(repo_name.as_bytes());
    h.write_u64(dataset_fingerprint);
    mix(h.finish())
}

/// The index (into `shards`, in the given order) of the shard owning the
/// repository identity `(repo_name, dataset_fingerprint)`: the highest
/// `rendezvous_score`, ties broken by the lexicographically greatest
/// shard name so the choice is a pure function of the shard *set*.
/// `None` only for an empty shard list.
pub fn place<S: AsRef<str>>(
    shards: &[S],
    repo_name: &str,
    dataset_fingerprint: u64,
) -> Option<usize> {
    shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let name = s.as_ref();
            (
                rendezvous_score(name, repo_name, dataset_fingerprint),
                name,
                i,
            )
        })
        .max_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
        .map(|(_, _, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_deterministic_and_input_sensitive() {
        let s = rendezvous_score("shard-a", "cam-1", 42);
        assert_eq!(s, rendezvous_score("shard-a", "cam-1", 42));
        assert_ne!(s, rendezvous_score("shard-b", "cam-1", 42));
        assert_ne!(s, rendezvous_score("shard-a", "cam-2", 42));
        assert_ne!(s, rendezvous_score("shard-a", "cam-1", 43));
    }

    #[test]
    fn domain_separation_between_shard_and_repo_names() {
        assert_ne!(
            rendezvous_score("ab", "c", 0),
            rendezvous_score("a", "bc", 0)
        );
    }

    #[test]
    fn place_is_order_free() {
        let a = ["alpha", "beta", "gamma"];
        let b = ["gamma", "alpha", "beta"];
        for j in 0..200u64 {
            let name = format!("repo-{j}");
            let ia = place(&a, &name, j ^ 0xABCD).unwrap();
            let ib = place(&b, &name, j ^ 0xABCD).unwrap();
            assert_eq!(a[ia], b[ib], "owner must not depend on list order");
        }
    }

    #[test]
    fn empty_shard_list_has_no_placement() {
        assert_eq!(place(&[] as &[&str], "cam", 1), None);
    }
}
