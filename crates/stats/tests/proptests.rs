//! Property-based tests for the statistical foundations.

use exsample_stats::dist::{Continuous, Exponential, Gamma, Geometric, LogNormal, Normal, Uniform};
use exsample_stats::special::{inv_reg_lower_gamma, ln_gamma, reg_lower_gamma, reg_upper_gamma};
use exsample_stats::{quantile, Rng64, UniformNoReplacement};
use proptest::prelude::*;

proptest! {
    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.05f64..200.0) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn incomplete_gamma_partition_of_unity(a in 0.05f64..300.0, x in 0.0f64..500.0) {
        let s = reg_lower_gamma(a, x) + reg_upper_gamma(a, x);
        prop_assert!((s - 1.0).abs() < 1e-9, "a={a} x={x} s={s}");
    }

    #[test]
    fn incomplete_gamma_monotone(a in 0.05f64..100.0, x in 0.0f64..100.0, dx in 0.001f64..10.0) {
        prop_assert!(reg_lower_gamma(a, x + dx) >= reg_lower_gamma(a, x) - 1e-12);
    }

    #[test]
    fn gamma_quantile_round_trip(a in 0.1f64..150.0, p in 0.0005f64..0.9995) {
        let x = inv_reg_lower_gamma(a, p);
        let p2 = reg_lower_gamma(a, x);
        prop_assert!((p2 - p).abs() < 1e-5, "a={a} p={p} x={x} p2={p2}");
    }

    #[test]
    fn gamma_sampling_within_analytic_quantiles(shape in 0.1f64..20.0, rate in 0.1f64..10.0, seed: u64) {
        let d = Gamma::new(shape, rate);
        let mut rng = Rng64::new(seed);
        // 200 samples must straddle wide quantiles with overwhelming probability.
        let lo = d.inv_cdf(1e-9);
        let hi = d.inv_cdf(1.0 - 1e-12);
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite() && x > 0.0);
            prop_assert!(x >= lo * 0.5 && x <= hi * 2.0 + 1.0, "x={x} outside [{lo},{hi}]");
        }
    }

    #[test]
    fn normal_cdf_monotone_and_symmetric(mu in -10.0f64..10.0, sigma in 0.1f64..10.0, x in -30.0f64..30.0) {
        let d = Normal::new(mu, sigma);
        prop_assert!(d.cdf(x) <= d.cdf(x + 0.5) + 1e-12);
        let z = x - mu;
        let s = d.cdf(mu + z) + d.cdf(mu - z);
        prop_assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn continuous_quantile_round_trips(p in 0.001f64..0.999) {
        let dists: Vec<Box<dyn Continuous>> = vec![
            Box::new(Uniform::new(-2.0, 5.0)),
            Box::new(Exponential::new(0.7)),
            Box::new(Normal::new(1.0, 2.0)),
            Box::new(LogNormal::new(0.2, 0.9)),
            Box::new(Gamma::new(2.2, 1.3)),
        ];
        for d in &dists {
            let x = d.inv_cdf(p);
            prop_assert!((d.cdf(x) - p).abs() < 1e-5);
        }
    }

    #[test]
    fn geometric_is_at_least_one(p in 0.0001f64..1.0, seed: u64) {
        let d = Geometric::new(p);
        let mut rng = Rng64::new(seed);
        for _ in 0..100 {
            prop_assert!(d.sample(&mut rng) >= 1);
        }
    }

    #[test]
    fn quantile_between_min_and_max(xs in prop::collection::vec(-1e6f64..1e6, 1..200), q in 0.0f64..1.0) {
        let v = quantile(&xs, q);
        let mn = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= mn - 1e-9 && v <= mx + 1e-9);
    }

    #[test]
    fn no_replacement_sampler_is_permutation_prefix(n in 1u64..2000, k in 0usize..500, seed: u64) {
        let k = k.min(n as usize);
        let mut s = UniformNoReplacement::new(n);
        let mut rng = Rng64::new(seed);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..k {
            let v = s.next(&mut rng).expect("should not exhaust early");
            prop_assert!(v < n);
            prop_assert!(seen.insert(v), "duplicate draw {v}");
        }
        prop_assert_eq!(s.remaining(), n - k as u64);
    }

    #[test]
    fn rng_fork_deterministic(seed: u64, stream: u64) {
        let parent = Rng64::new(seed);
        let mut a = parent.fork(stream);
        let mut b = parent.fork(stream);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// What the sampler's CDF screen rests on (`exsample-core`,
    /// `SCREEN_MARGIN = 1e-6`): over the beliefs it can hold — shape
    /// `N1 + α0 ∈ [0.1, 200]`, any rate — and the probabilities it asks
    /// for — `U^(1/k)` with `24 <= k <= 10⁵`, clamped at `1 - 1e-12` —
    /// `cdf` inverts `inv_cdf` to 1e-8 and is monotone around the
    /// quantile, so `u < cdf(b) - 1e-6` proves `inv_cdf(u) < b`.
    #[test]
    fn gamma_cdf_inverts_quantile_on_sampler_domain(
        shape in 0.1f64..200.0,
        n in 0u64..10_000_000,
        // ln k, so that small and large groups are tried equally often.
        ln_k in 3.1781f64..11.5130,
        u in 0.0f64..1.0,
        step in 0.0f64..1e-3,
    ) {
        let d = Gamma::new(shape, n as f64 + 1.0);
        // u = 0 stands in for the smallest draw `f64_open` can return; a
        // twentieth of the cases sit on the clamp.
        let p = if u > 0.95 {
            1.0 - 1e-12
        } else {
            u.max(f64::EPSILON / 2.0).powf(1.0 / ln_k.exp()).min(1.0 - 1e-12)
        };
        let x = d.inv_cdf(p);
        prop_assert!(x > 0.0 && x.is_finite(), "shape={shape} n={n} p={p} x={x}");
        let back = d.cdf(x);
        prop_assert!((back - p).abs() <= 1e-8, "shape={shape} n={n} p={p} x={x} back={back}");
        prop_assert!(d.cdf(x * (1.0 + step)) >= back, "not monotone above x={x}");
        prop_assert!(d.cdf(x * (1.0 - step)) <= back, "not monotone below x={x}");
    }

    /// What the sampler's screen *memo* rests on: a CDF value computed at
    /// one bar is compared with draws screened against any other bar, so
    /// `cdf` must be non-decreasing between arbitrary points, not only
    /// next to a quantile — including pairs that straddle the switch from
    /// the series to the continued fraction at `rate · x = shape + 1`.
    #[test]
    fn gamma_cdf_is_monotone_between_arbitrary_points(
        shape in 0.1f64..200.0,
        n in 0u64..10_000_000,
        // Both points as multiples of the switch point, log-uniform over
        // 1e-6 … 1e3; `straddle` forces one to each side of it.
        ln_a in -13.8f64..6.9,
        ln_b in -13.8f64..6.9,
        straddle: bool,
    ) {
        let d = Gamma::new(shape, n as f64 + 1.0);
        let switch = (shape + 1.0) / (n as f64 + 1.0);
        let (a, b) = if straddle {
            (-ln_a.abs(), ln_b.abs())
        } else {
            (ln_a.min(ln_b), ln_a.max(ln_b))
        };
        let (x, y) = (switch * a.exp(), switch * b.exp());
        prop_assert!(x <= y);
        let (fx, fy) = (d.cdf(x), d.cdf(y));
        prop_assert!((0.0..=1.0).contains(&fx) && (0.0..=1.0).contains(&fy));
        prop_assert!(fy >= fx - 1e-12, "shape={shape} n={n} F({x})={fx} > F({y})={fy}");
    }

    /// The prepared draw is `Gamma::sample`: same bits, same RNG state,
    /// over the shapes the sampler holds and well below (0.1 is its prior,
    /// 1.0 the edge between the boosted and the plain draw).
    #[test]
    fn prepared_draw_is_gamma_sample(
        pick in 0usize..6,
        any_shape in 0.01f64..200.0,
        ln_rate in -7.0f64..17.0,
        seed: u64,
    ) {
        let shape = [0.1, 1.0, 0.01, any_shape, any_shape, any_shape][pick];
        let d = Gamma::new(shape, ln_rate.exp());
        let prepared = d.prepare();
        let (mut plain, mut again) = (Rng64::new(seed), Rng64::new(seed));
        for _ in 0..8 {
            prop_assert_eq!(d.sample(&mut plain).to_bits(), prepared.sample(&mut again).to_bits());
            prop_assert_eq!(&plain, &again);
        }
    }

    /// `sample_above` is the full draw compared with the bar: `Some(s)`
    /// exactly when `s > bar`, the same `s`, the same RNG state either
    /// way — for bars far below, an ulp either side of, exactly at and far
    /// above the draw, and the bars a running maximum starts from.
    #[test]
    fn gamma_sample_above_is_the_full_draw_compared(
        pick in 0usize..6,
        any_shape in 0.01f64..200.0,
        ln_rate in -7.0f64..17.0,
        seed: u64,
    ) {
        let shape = [0.1, 1.0, 0.01, any_shape, any_shape, any_shape][pick];
        let prepared = Gamma::new(shape, ln_rate.exp()).prepare();
        let mut rng = Rng64::new(seed);
        for _ in 0..4 {
            let before = rng.clone();
            let s = prepared.sample(&mut rng);
            let bars = [
                f64::NEG_INFINITY,
                0.0,
                s * 1e-6,
                s * 0.5,
                s * (1.0 - 1e-9),
                s * (1.0 - 1e-12),
                // One ulp below; a draw can underflow to zero at shape 0.01.
                if s > 0.0 { f64::from_bits(s.to_bits() - 1) } else { -f64::MIN_POSITIVE },
                s,
                f64::from_bits(s.to_bits() + 1),
                s * (1.0 + 1e-12),
                s * (1.0 + 1e-9),
                s * 2.0,
                s * 1e6,
                f64::INFINITY,
            ];
            for bar in bars {
                let mut again = before.clone();
                let got = prepared.sample_above(&mut again, bar);
                prop_assert_eq!(got.map(f64::to_bits), (s > bar).then_some(s.to_bits()), "shape={} s={} bar={}", shape, s, bar);
                prop_assert_eq!(&again, &rng);
            }
        }
    }
}

/// `(seed, shape, rate, bits of the third draw, next RNG output)`, recorded
/// from `Gamma::sample` at the last commit where it ran its own
/// Marsaglia–Tsang loop (PR 21): the prepared form must be that sampler
/// across versions, not only equal to itself.
const GAMMA_DRAWS: &[(u64, f64, f64, u64, u64)] = &[
    (1, 0.01, 1.0, 0x2a1cd2803015a778, 0x28065aa8f428a8bb),
    (2, 0.1, 1.0, 0x3f91bdb237faa684, 0xacc4d85db8169545),
    (3, 0.1, 421.0, 0x3dea24467f04d5a4, 0x5abf41e04a504eed),
    (4, 0.1, 10000000.0, 0x3e2705a4ea4a590a, 0x9c680a3a33d3da1e),
    (5, 0.35, 0.25, 0x401d60e8bc1305eb, 0xbc49957f69cd7a00),
    (6, 0.999, 3.0, 0x3fe5c5e0393f30a5, 0xff8370e280c39708),
    (7, 1.0, 1.0, 0x3fff8baecdb9e486, 0xcae4e13a01e20963),
    (8, 1.0, 57.0, 0x3f57df0f00109a04, 0xb476d66a3afb3ddb),
    (9, 1.1, 13.0, 0x3fc0fee5c52672e7, 0xacc06b9105d15f6c),
    (10, 2.1, 41.0, 0x3fa90cfb0f8c6bc8, 0x22d17ae08322e3e8),
    (11, 7.1, 101.0, 0x3fbb4b0ee7256434, 0x5d18724415dcfcbf),
    (12, 33.1, 5000.0, 0x3f7f229353bf5b1b, 0x3c1c129c4a104901),
    (13, 100.1, 2.5, 0x40436fa8abf41adb, 0x247e838714a9ac46),
    (14, 200.0, 0.001, 0x410a0613335bb32e, 0x031749315d14dda6),
    (15, 0.5, 9.0, 0x3fb89380bfd9937b, 0xfda46989f8cd154c),
];

#[test]
fn gamma_draws_are_the_recorded_ones() {
    type Draw = fn(&Gamma, &mut Rng64) -> f64;
    let forms: [(&str, Draw); 3] = [
        ("Gamma::sample", |d, rng| d.sample(rng)),
        ("prepared sample", |d, rng| d.prepare().sample(rng)),
        ("prepared sample_above", |d, rng| {
            let draw = d.prepare().sample_above(rng, f64::NEG_INFINITY);
            draw.expect("every draw is above -inf")
        }),
    ];
    for &(seed, shape, rate, bits, next) in GAMMA_DRAWS {
        let d = Gamma::new(shape, rate);
        for (form, draw) in forms {
            let mut rng = Rng64::new(seed);
            draw(&d, &mut rng);
            draw(&d, &mut rng);
            let third = draw(&d, &mut rng);
            assert_eq!(
                (third.to_bits(), rng.next_u64()),
                (bits, next),
                "{form} at seed {seed}, shape {shape}, rate {rate}: {:#018x}",
                third.to_bits()
            );
        }
    }
}
