//! A small, fast, deterministic PRNG.
//!
//! We implement **xoshiro256++** (Blackman & Vigna) seeded through
//! SplitMix64. Compared to taking `rand::rngs::SmallRng` directly this
//! gives us (a) a stable algorithm across dependency upgrades — important
//! because EXPERIMENTS.md records numbers tied to seeds — and (b) cheap
//! *stream splitting* ([`Rng64::fork`]) so replicate experiment runs can be
//! launched in parallel with independent, reproducible streams.

/// Deterministic 64-bit PRNG (xoshiro256++).
///
/// Not cryptographically secure; statistical quality is more than adequate
/// for Monte-Carlo simulation (passes BigCrush in the reference tests of
/// the algorithm's authors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng64 {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is
    /// valid; the state is expanded through SplitMix64 so similar seeds
    /// yield unrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Derive an independent child stream. Deterministic: forking the same
    /// parent state with the same `stream` id always yields the same child.
    /// The parent is not advanced.
    pub fn fork(&self, stream: u64) -> Self {
        // Mix the stream id into a fresh SplitMix64 chain keyed by the
        // parent state so children of different parents never collide.
        let mut sm = self.s[0]
            .rotate_left(7)
            .wrapping_add(self.s[1].rotate_left(21))
            .wrapping_add(self.s[2].wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ self.s[3]
            ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng64 { s }
    }

    /// Next raw 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the *open* interval `(0, 1)`. Useful when the value
    /// feeds a logarithm.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        loop {
            let u = self.f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Unbiased uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below: bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub(crate) fn usize_below(&mut self, bound: usize) -> usize {
        self.u64_below(bound as u64) as usize
    }

    /// Uniform integer in the inclusive-exclusive range `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "u64_range: empty range {lo}..{hi}");
        lo + self.u64_below(hi - lo)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.usize_below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose: empty slice");
        &xs[self.usize_below(xs.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng64::new(0);
        // SplitMix expansion means an all-zero logical seed still produces a
        // non-degenerate state.
        let vals: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = Rng64::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn u64_below_respects_bound_and_is_roughly_uniform() {
        let mut r = Rng64::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = r.u64_below(10);
            assert!(v < 10);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn u64_below_one_is_zero() {
        let mut r = Rng64::new(3);
        for _ in 0..100 {
            assert_eq!(r.u64_below(1), 0);
        }
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let parent = Rng64::new(5);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        let mut c1b = parent.fork(0);
        let a: Vec<u64> = (0..16).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..16).map(|_| c2.next_u64()).collect();
        let a2: Vec<u64> = (0..16).map(|_| c1b.next_u64()).collect();
        assert_eq!(a, a2, "same stream id must reproduce");
        assert_ne!(a, b, "different stream ids must differ");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng64::new(13);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn u64_range_bounds() {
        let mut r = Rng64::new(17);
        for _ in 0..1000 {
            let v = r.u64_range(100, 110);
            assert!((100..110).contains(&v));
        }
    }
}
