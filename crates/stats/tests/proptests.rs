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
}
