//! Random variate generators and distribution functions.
//!
//! Everything is parameterized the way the paper uses it: [`Gamma`] is
//! shape/rate (so the belief `Gamma(N1 + α0, n + β0)` has mean
//! `(N1+α0)/(n+β0)`), [`Geometric`] counts the trial of the first success
//! (support `{1, 2, ...}` — "samples until the instance is first seen"),
//! and [`LogNormal::from_mean`] matches a target *arithmetic* mean, which
//! is how the duration and `p_i` populations are calibrated.
//!
//! All continuous distributions implement the object-safe [`Continuous`]
//! trait (sample / cdf / quantile); the discrete ones ([`Poisson`],
//! [`Geometric`]) expose inherent `sample` methods with integer outputs.

use crate::rng::Rng64;
use crate::special::{erfc, inv_reg_lower_gamma, reg_lower_gamma};
use std::cell::Cell;

/// A continuous distribution: sampling, CDF, and quantile function.
pub trait Continuous {
    /// Draw one variate.
    fn sample(&self, rng: &mut Rng64) -> f64;
    /// `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;
    /// The quantile function `F⁻¹(p)` for `p` in `(0, 1)`.
    fn inv_cdf(&self, p: f64) -> f64;
}

/// Uniform distribution on `[a, b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    /// Uniform on `[a, b)`.
    ///
    /// # Panics
    /// Panics unless `a < b`.
    pub fn new(a: f64, b: f64) -> Self {
        assert!(a < b, "Uniform: empty support [{a}, {b})");
        Uniform { a, b }
    }
}

impl Continuous for Uniform {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.a + rng.f64() * (self.b - self.a)
    }

    fn cdf(&self, x: f64) -> f64 {
        ((x - self.a) / (self.b - self.a)).clamp(0.0, 1.0)
    }

    fn inv_cdf(&self, p: f64) -> f64 {
        self.a + p.clamp(0.0, 1.0) * (self.b - self.a)
    }
}

/// Exponential distribution with rate `lambda`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Exponential with rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics unless `lambda > 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0,
            "Exponential: rate must be positive, got {lambda}"
        );
        Exponential { lambda }
    }
}

impl Continuous for Exponential {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        -rng.f64_open().ln() / self.lambda
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.lambda * x).exp_m1()
        }
    }

    fn inv_cdf(&self, p: f64) -> f64 {
        -(-p.clamp(0.0, 1.0 - 1e-16)).ln_1p() / self.lambda
    }
}

/// Normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Normal with mean `mu` and standard deviation `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma > 0.0, "Normal: sigma must be positive, got {sigma}");
        Normal { mu, sigma }
    }

    /// One standard-normal draw (Marsaglia polar method).
    pub fn standard_sample(rng: &mut Rng64) -> f64 {
        loop {
            let u = 2.0 * rng.f64() - 1.0;
            let v = 2.0 * rng.f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Standard-normal CDF `Φ(z)`.
    pub(crate) fn standard_cdf(z: f64) -> f64 {
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }

    /// Standard-normal quantile `Φ⁻¹(p)` (Acklam's rational approximation
    /// with one Newton refinement; relative error well below 1e-9).
    #[allow(clippy::excessive_precision)] // Acklam's published coefficients, kept verbatim
    pub(crate) fn standard_inv_cdf(p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "standard_inv_cdf: p={p}");
        if p <= 0.0 {
            return f64::NEG_INFINITY;
        }
        if p >= 1.0 {
            return f64::INFINITY;
        }
        const A: [f64; 6] = [
            -3.969683028665376e+01,
            2.209460984245205e+02,
            -2.759285104469687e+02,
            1.383577518672690e+02,
            -3.066479806614716e+01,
            2.506628277459239e+00,
        ];
        const B: [f64; 5] = [
            -5.447609879822406e+01,
            1.615858368580409e+02,
            -1.556989798598866e+02,
            6.680131188771972e+01,
            -1.328068155288572e+01,
        ];
        const C: [f64; 6] = [
            -7.784894002430293e-03,
            -3.223964580411365e-01,
            -2.400758277161838e+00,
            -2.549732539343734e+00,
            4.374664141464968e+00,
            2.938163982698783e+00,
        ];
        const D: [f64; 4] = [
            7.784695709041462e-03,
            3.224671290700398e-01,
            2.445134137142996e+00,
            3.754408661907416e+00,
        ];
        const P_LOW: f64 = 0.02425;
        let x = if p < P_LOW {
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            let q = p - 0.5;
            let r = q * q;
            (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
                / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
        } else {
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        };
        // Two Newton steps against the CDF (which is erfc-based and only
        // ~1e-7 accurate itself; the quantile converges to its inverse).
        let mut x = x;
        for _ in 0..2 {
            let e = Self::standard_cdf(x) - p;
            let pdf = (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt();
            if pdf > 0.0 {
                x -= e / pdf;
            }
        }
        x
    }
}

impl Continuous for Normal {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }

    fn cdf(&self, x: f64) -> f64 {
        Self::standard_cdf((x - self.mu) / self.sigma)
    }

    fn inv_cdf(&self, p: f64) -> f64 {
        self.mu + self.sigma * Self::standard_inv_cdf(p)
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Log-normal whose logarithm has mean `mu` and sd `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma > 0.0,
            "LogNormal: sigma must be positive, got {sigma}"
        );
        LogNormal { mu, sigma }
    }

    /// Log-normal with the given *arithmetic* mean `E[X] = mean` and log-sd
    /// `sigma` (so `mu = ln(mean) - sigma²/2`).
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `sigma > 0`.
    pub fn from_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean > 0.0, "LogNormal: mean must be positive, got {mean}");
        LogNormal::new(mean.ln() - 0.5 * sigma * sigma, sigma)
    }
}

impl Continuous for LogNormal {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        (self.mu + self.sigma * Normal::standard_sample(rng)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            Normal::standard_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn inv_cdf(&self, p: f64) -> f64 {
        (self.mu + self.sigma * Normal::standard_inv_cdf(p)).exp()
    }
}

/// Gamma distribution in **shape/rate** form: mean `shape/rate`, variance
/// `shape/rate²` — the parameterization of the paper's Eq. III.4 belief.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    rate: f64,
}

impl Gamma {
    /// Gamma with the given shape `α` and rate `β`.
    ///
    /// # Panics
    /// Panics unless both are positive.
    pub fn new(shape: f64, rate: f64) -> Self {
        assert!(
            shape > 0.0 && rate > 0.0,
            "Gamma: shape and rate must be positive, got ({shape}, {rate})"
        );
        Gamma { shape, rate }
    }

    /// Mean `α/β`.
    pub fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    /// The constants a draw needs, computed once: worth it wherever one
    /// distribution is drawn from repeatedly (a Thompson step draws every
    /// member of a chunk group from the same belief).
    pub fn prepare(&self) -> PreparedGamma {
        // Below shape 1, Gamma(α) = Gamma(α+1) · U^(1/α) (the boost).
        let (mt_shape, boost) = if self.shape >= 1.0 {
            (self.shape, None)
        } else {
            let exponent = 1.0 / self.shape;
            let squarings = (exponent.log2() as u32).min(Boost::MAX_SQUARINGS);
            (
                self.shape + 1.0,
                Some(Boost {
                    exponent,
                    squarings,
                }),
            )
        };
        let d = mt_shape - 1.0 / 3.0;
        PreparedGamma {
            d,
            c: 1.0 / (9.0 * d).sqrt(),
            boost,
            rate: self.rate,
            boosts_evaluated: Cell::new(0),
        }
    }
}

/// The factor `U^(1/α)` that takes a `Gamma(α + 1)` draw to `Gamma(α)`.
#[derive(Debug, Clone, Copy)]
struct Boost {
    /// `1/α > 1`.
    exponent: f64,
    /// `U` squared this often is `U^(2^squarings) >= U^(1/α)`: what the
    /// boost can be at most, for a few multiplications instead of a `powf`.
    squarings: u32,
}

impl Boost {
    /// Keeps the squaring loop short at absurdly small shapes, and the
    /// rounding it accumulates (2^16 ulps) far inside [`Boost::SLACK`].
    const MAX_SQUARINGS: u32 = 16;

    /// Relative distance a draw's upper bound must keep below the bar to
    /// settle the draw. It stands for every rounding between the bound and
    /// the draw it bounds: the squarings, `powf`'s last place, two
    /// products and a quotient — 1e-11 at worst.
    const SLACK: f64 = 1e-9;

    /// Below this a product may be subnormal and round with a large
    /// relative error; such a bar is not screened against.
    const NORMAL: f64 = 1e-290;

    /// Whether `mt · u^(1/α) / rate`, computed as [`PreparedGamma::sample`]
    /// computes it, is surely not above `bar`.
    fn cannot_reach(&self, mt: f64, u: f64, rate: f64, bar: f64) -> bool {
        let mut most = u;
        for _ in 0..self.squarings {
            most *= most;
        }
        let reach = bar * rate * (1.0 - Self::SLACK);
        reach > Self::NORMAL && mt * most <= reach
    }
}

/// [`Gamma`] ready to be drawn from ([`Gamma::prepare`]): Marsaglia–Tsang,
/// with the boost below shape 1. Both draw methods consume the same random
/// numbers and, where both return a value, return the same value.
#[derive(Debug, Clone)]
pub struct PreparedGamma {
    /// Marsaglia–Tsang's `d = α − 1/3` and `c = 1/sqrt(9d)`, at the
    /// boosted shape `α + 1` if `α < 1`.
    d: f64,
    c: f64,
    boost: Option<Boost>,
    rate: f64,
    /// How many boosts [`PreparedGamma::sample_above`] had to evaluate.
    boosts_evaluated: Cell<u64>,
}

impl PreparedGamma {
    /// The rejection loop: one unit-rate draw at shape `d + 1/3 >= 1`.
    fn marsaglia_tsang(&self, rng: &mut Rng64) -> f64 {
        let (d, c) = (self.d, self.c);
        loop {
            let x = Normal::standard_sample(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u = rng.f64_open();
            if u < 1.0 - 0.0331 * x * x * x * x {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }

    /// Draw one variate.
    pub fn sample(&self, rng: &mut Rng64) -> f64 {
        let mt = self.marsaglia_tsang(rng);
        let unit = match self.boost {
            None => mt,
            Some(boost) => mt * rng.f64_open().powf(boost.exponent),
        };
        unit / self.rate
    }

    /// Draw one variate and return it if it is strictly above `bar`.
    ///
    /// Consumes exactly what [`PreparedGamma::sample`] consumes and returns
    /// `Some` of exactly what it returns, or `None` where that is not above
    /// `bar`. The point is the boost's `powf`, a third of a draw at shape
    /// below 1: the uniform is always drawn, but `U^(1/α)` is evaluated
    /// only if a cheap upper bound of the draw reaches the bar. A caller
    /// that keeps a running maximum — the bar rises, most draws stay far
    /// below it — skips nearly all of them.
    pub fn sample_above(&self, rng: &mut Rng64, bar: f64) -> Option<f64> {
        let mt = self.marsaglia_tsang(rng);
        let s = match self.boost {
            None => mt / self.rate,
            Some(boost) => {
                let u = rng.f64_open();
                if boost.cannot_reach(mt, u, self.rate, bar) {
                    return None;
                }
                self.boosts_evaluated.set(self.boosts_evaluated.get() + 1);
                mt * u.powf(boost.exponent) / self.rate
            }
        };
        (s > bar).then_some(s)
    }

    /// Whether draws are boosted (shape below 1).
    pub fn is_boosted(&self) -> bool {
        self.boost.is_some()
    }

    /// Boosts [`PreparedGamma::sample_above`] evaluated so far; the rest of
    /// its boosted draws were settled by the bar.
    pub fn boosts_evaluated(&self) -> u64 {
        self.boosts_evaluated.get()
    }
}

impl Continuous for Gamma {
    fn sample(&self, rng: &mut Rng64) -> f64 {
        self.prepare().sample(rng)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape, self.rate * x)
        }
    }

    fn inv_cdf(&self, p: f64) -> f64 {
        inv_reg_lower_gamma(self.shape, p) / self.rate
    }
}

/// Poisson distribution (counts per frame, false-positive arrivals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    rate: f64,
}

impl Poisson {
    /// Poisson with the given mean `rate >= 0`.
    ///
    /// # Panics
    /// Panics if `rate` is negative or non-finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "Poisson: bad rate {rate}");
        Poisson { rate }
    }

    /// Draw one count. Uses Knuth's product method in chunks of rate ≤ 16
    /// (Poisson additivity keeps this exact for any rate without
    /// `exp(-rate)` underflow).
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        let mut remaining = self.rate;
        let mut total = 0u64;
        while remaining > 0.0 {
            let lambda = remaining.min(16.0);
            remaining -= lambda;
            let limit = (-lambda).exp();
            let mut prod = rng.f64();
            while prod > limit {
                total += 1;
                prod *= rng.f64();
            }
        }
        total
    }
}

/// Geometric distribution: the 1-based trial index of the first success
/// ("how many samples until this instance is first hit").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Geometric with per-trial success probability `p` in `(0, 1]`.
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "Geometric: p must be in (0, 1], got {p}"
        );
        Geometric { p }
    }

    /// Draw one trial count (always `>= 1`) by CDF inversion.
    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u = rng.f64_open();
        // ceil(ln(u) / ln(1-p)), clamped to >= 1 against rounding.
        let k = (u.ln() / (1.0 - self.p).ln()).ceil();
        if k < 1.0 {
            1
        } else if k >= u64::MAX as f64 {
            u64::MAX
        } else {
            k as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(mut draw: impl FnMut(&mut Rng64) -> f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = Rng64::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| draw(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn uniform_basic() {
        let d = Uniform::new(-2.0, 5.0);
        assert_eq!(d.cdf(-3.0), 0.0);
        assert_eq!(d.cdf(6.0), 1.0);
        assert!((d.inv_cdf(0.5) - 1.5).abs() < 1e-12);
        let (m, _) = moments(|r| d.sample(r), 20_000, 1);
        assert!((m - 1.5).abs() < 0.05);
    }

    #[test]
    fn exponential_round_trip() {
        let d = Exponential::new(0.7);
        for p in [0.01, 0.3, 0.9, 0.999] {
            assert!((d.cdf(d.inv_cdf(p)) - p).abs() < 1e-10);
        }
        let (m, _) = moments(|r| d.sample(r), 40_000, 2);
        assert!((m - 1.0 / 0.7).abs() < 0.03, "mean={m}");
    }

    #[test]
    fn normal_cdf_and_quantile() {
        // Φ(0) = 0.5, Φ(1.96) ≈ 0.975 (the underlying erfc is ~1e-7
        // accurate, so tolerances are set against that).
        assert!((Normal::standard_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((Normal::standard_cdf(1.959964) - 0.975).abs() < 1e-6);
        for p in [1e-6, 0.001, 0.3, 0.5, 0.9, 0.999999] {
            let z = Normal::standard_inv_cdf(p);
            assert!((Normal::standard_cdf(z) - p).abs() < 1e-7, "p={p}");
        }
        let d = Normal::new(1.0, 2.0);
        assert!((d.inv_cdf(0.5) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn normal_sample_moments() {
        let d = Normal::new(-3.0, 0.5);
        let (m, v) = moments(|r| d.sample(r), 60_000, 3);
        assert!((m + 3.0).abs() < 0.02, "mean={m}");
        assert!((v - 0.25).abs() < 0.02, "var={v}");
    }

    #[test]
    fn lognormal_from_mean_matches_arithmetic_mean() {
        let d = LogNormal::from_mean(3e-3, 1.2);
        let (m, _) = moments(|r| d.sample(r), 200_000, 4);
        assert!((m - 3e-3).abs() < 3e-4, "mean={m}");
    }

    #[test]
    fn gamma_mean_variance_and_quantiles() {
        let d = Gamma::new(7.1, 101.0);
        assert!((d.mean() - 7.1 / 101.0).abs() < 1e-15);

        for p in [0.01, 0.5, 0.99] {
            assert!((d.cdf(d.inv_cdf(p)) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn gamma_sampling_moments_both_regimes() {
        for shape in [0.3f64, 4.5] {
            let d = Gamma::new(shape, 2.0);
            let (m, v) = moments(|r| d.sample(r), 120_000, 5);
            assert!((m - d.mean()).abs() < 0.02, "shape={shape} mean={m}");
            assert!((v - shape / 4.0).abs() < 0.05, "shape={shape} var={v}");
        }
    }

    #[test]
    fn poisson_small_and_large_rates() {
        for rate in [0.02f64, 2.0, 45.0] {
            let d = Poisson::new(rate);
            let (m, v) = moments(|r| d.sample(r) as f64, 60_000, 7);
            assert!((m - rate).abs() < 0.1 + rate * 0.03, "rate={rate} mean={m}");
            assert!((v - rate).abs() < 0.2 + rate * 0.08, "rate={rate} var={v}");
        }
        assert_eq!(Poisson::new(0.0).sample(&mut Rng64::new(8)), 0);
    }

    #[test]
    fn geometric_support_and_mean() {
        let d = Geometric::new(0.01);
        let mut rng = Rng64::new(9);
        let mut sum = 0.0;
        for _ in 0..50_000 {
            let k = d.sample(&mut rng);
            assert!(k >= 1);
            sum += k as f64;
        }
        let mean = sum / 50_000.0;
        assert!((mean - 100.0).abs() < 2.5, "mean={mean}");
        assert_eq!(Geometric::new(1.0).sample(&mut rng), 1);
    }

    #[test]
    fn continuous_objects_are_boxable() {
        let dists: Vec<Box<dyn Continuous>> = vec![
            Box::new(Uniform::new(0.0, 1.0)),
            Box::new(Exponential::new(1.0)),
            Box::new(Normal::new(0.0, 1.0)),
            Box::new(LogNormal::new(0.0, 1.0)),
            Box::new(Gamma::new(2.0, 3.0)),
        ];
        let mut rng = Rng64::new(11);
        for d in &dists {
            let x = d.sample(&mut rng);
            assert!(x.is_finite());
            let p = d.cdf(x);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
