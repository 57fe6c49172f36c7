//! Special functions needed by the Gamma/Poisson machinery.
//!
//! Implementations follow the classical Lanczos / series / continued-
//! fraction forms (cf. Numerical Recipes §6) with accuracy comfortably
//! beyond what Monte-Carlo experiments resolve (~1e-10 relative for
//! `ln_gamma`, ~1e-8 for the incomplete gamma family).

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Lanczos approximation (g = 7, 9 coefficients).
#[allow(clippy::excessive_precision)] // published Lanczos coefficients, kept verbatim
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma: x must be positive, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln(n!)` via `ln_gamma`.
pub fn ln_factorial(n: u64) -> f64 {
    ln_gamma(n as f64 + 1.0)
}

/// Error function `erf(x)`, accurate to ~1.2e-7 (sufficient for CDF work;
/// the inverse-normal path uses its own rational approximation).
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function `erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev fit from Numerical Recipes `erfcc`.
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

const GAMMA_EPS: f64 = 1e-14;
const MAX_ITER: usize = 400;

/// Regularized lower incomplete gamma `P(a, x) = γ(a,x)/Γ(a)` for
/// `a > 0, x >= 0`. `P` is the CDF of a Gamma(shape `a`, rate 1) variable.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma: a must be positive, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma: x must be non-negative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    reg_lower_gamma_with(a, x, ln_gamma(a))
}

/// `P(a, x)` for `x > 0` given `gln = ln Γ(a)`, so that a caller evaluating
/// `P` repeatedly at one shape (the Halley iteration of
/// [`inv_reg_lower_gamma`]) pays for the Lanczos sum once.
fn reg_lower_gamma_with(a: f64, x: f64, gln: f64) -> f64 {
    if x < a + 1.0 {
        gamma_series(a, x, gln)
    } else {
        1.0 - gamma_contfrac(a, x, gln)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)`.
pub fn reg_upper_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_upper_gamma: a must be positive, got {a}");
    assert!(x >= 0.0, "reg_upper_gamma: x must be non-negative, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    let gln = ln_gamma(a);
    if x < a + 1.0 {
        1.0 - gamma_series(a, x, gln)
    } else {
        gamma_contfrac(a, x, gln)
    }
}

/// Series representation of `P(a,x)`, converges fast for `x < a+1`;
/// `gln = ln Γ(a)`.
fn gamma_series(a: f64, x: f64, gln: f64) -> f64 {
    let mut ap = a;
    let mut del = 1.0 / a;
    let mut sum = del;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * GAMMA_EPS {
            break;
        }
    }
    let ln_term = -x + a * x.ln() - gln;
    (sum * ln_term.exp()).clamp(0.0, 1.0)
}

/// Continued-fraction representation of `Q(a,x)` (modified Lentz),
/// converges fast for `x >= a+1`; `gln = ln Γ(a)`.
fn gamma_contfrac(a: f64, x: f64, gln: f64) -> f64 {
    const FPMIN: f64 = f64::MIN_POSITIVE / f64::EPSILON;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < GAMMA_EPS {
            break;
        }
    }
    let ln_term = -x + a * x.ln() - gln;
    (h * ln_term.exp()).clamp(0.0, 1.0)
}

/// Inverse of the regularized lower incomplete gamma: returns `x` such that
/// `P(a, x) = p`, for `a > 0` and `p ∈ [0, 1)`.
///
/// This is the quantile function of Gamma(shape `a`, rate 1); Bayes-UCB
/// evaluates it every step. Follows Numerical Recipes `invgammp`: a
/// Wilson–Hilferty (or small-`a` asymptotic) initial guess refined by
/// Halley's method.
pub fn inv_reg_lower_gamma(a: f64, p: f64) -> f64 {
    assert!(a > 0.0, "inv_reg_lower_gamma: a must be positive, got {a}");
    assert!(
        (0.0..1.0).contains(&p),
        "inv_reg_lower_gamma: p must be in [0,1), got {p}"
    );
    if p == 0.0 {
        return 0.0;
    }
    let gln = ln_gamma(a);
    let a1 = a - 1.0;
    let lna1 = if a > 1.0 { a1.ln() } else { 0.0 };
    let afac = if a > 1.0 {
        (a1 * (lna1 - 1.0) - gln).exp()
    } else {
        0.0
    };

    let mut x;
    if a > 1.0 {
        // Wilson–Hilferty starting point (NR `invgammp`): `z` approximates
        // the lower-tail normal deviate of min(p, 1-p) and the sign dance
        // below orients it for the requested tail.
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut z = (2.307_53 + t * 0.270_61) / (1.0 + t * (0.992_29 + t * 0.044_81)) - t;
        if p < 0.5 {
            z = -z;
        }
        x = (a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * a.sqrt())).powi(3)).max(1e-3);
    } else {
        let t = 1.0 - a * (0.253 + a * 0.12);
        if p < t {
            x = (p / t).powf(1.0 / a);
        } else {
            x = 1.0 - ((p - t) / (1.0 - t)).ln();
        }
    }

    for _ in 0..24 {
        if x <= 0.0 {
            return 0.0;
        }
        let err = reg_lower_gamma_with(a, x, gln) - p;
        let t = if a > 1.0 {
            afac * (-(x - a1) + a1 * (x.ln() - lna1)).exp()
        } else {
            (-x + a1 * x.ln() - gln).exp()
        };
        if t == 0.0 {
            break;
        }
        let u = err / t;
        // Halley correction. The second-order term is only capped from
        // above (NR form): for large |u| it *grows* with u and damps the
        // step, which is what keeps the iteration from diverging when the
        // initial guess sits in a region of negligible density.
        let dx = u / (1.0 - 0.5 * (u * (a1 / x - 1.0)).min(1.0));
        x -= dx;
        if x <= 0.0 {
            x = 0.5 * (x + dx); // halve the step back into the domain
        }
        if dx.abs() < 1e-11 * x {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(3)=2, Γ(4)=6, Γ(0.5)=sqrt(pi)
        assert!(close(ln_gamma(1.0), 0.0, 1e-12));
        assert!(close(ln_gamma(2.0), 0.0, 1e-12));
        assert!(close(ln_gamma(3.0), 2.0f64.ln(), 1e-12));
        assert!(close(ln_gamma(4.0), 6.0f64.ln(), 1e-12));
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-12
        ));
        assert!(close(ln_gamma(10.0), 362_880.0f64.ln(), 1e-12));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.1, 0.7, 1.3, 2.5, 7.9, 33.3, 120.0] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!(close(lhs, rhs, 1e-11), "x={x}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(close(erf(0.0), 0.0, 1e-7));
        assert!(close(erf(1.0), 0.842_700_79, 1e-6));
        assert!(close(erf(-1.0), -0.842_700_79, 1e-6));
        assert!(close(erf(2.0), 0.995_322_27, 1e-6));
        assert!((erf(6.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[-3.0, -1.0, -0.2, 0.0, 0.4, 1.7, 3.2] {
            assert!(close(erfc(x) + erfc(-x), 2.0, 1e-7));
        }
    }

    #[test]
    fn incomplete_gamma_known_values() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert!(close(reg_lower_gamma(1.0, x), 1.0 - (-x).exp(), 1e-10));
        }
        // P(a, 0) = 0, limit to 1 for large x.
        assert_eq!(reg_lower_gamma(3.0, 0.0), 0.0);
        assert!(reg_lower_gamma(3.0, 100.0) > 1.0 - 1e-12);
        // Chi-square(2k)/2 check: P(2, 2) ≈ 0.59399415
        assert!(close(reg_lower_gamma(2.0, 2.0), 0.593_994_150, 1e-8));
    }

    #[test]
    fn p_plus_q_is_one() {
        for &a in &[0.1, 0.5, 1.0, 2.5, 10.0, 100.0] {
            for &x in &[0.01, 0.3, 1.0, 2.0, 8.0, 90.0, 150.0] {
                let s = reg_lower_gamma(a, x) + reg_upper_gamma(a, x);
                assert!(close(s, 1.0, 1e-10), "a={a} x={x} s={s}");
            }
        }
    }

    #[test]
    fn p_is_monotone_in_x() {
        for &a in &[0.2, 1.0, 3.5, 42.0] {
            let mut prev = 0.0;
            for i in 1..200 {
                let x = i as f64 * 0.5;
                let p = reg_lower_gamma(a, x);
                assert!(p >= prev - 1e-12, "a={a} x={x}");
                prev = p;
            }
        }
    }

    #[test]
    fn inverse_round_trips() {
        for &a in &[0.1, 0.5, 1.0, 2.0, 7.7, 50.0, 400.0] {
            for &p in &[1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999_999] {
                let x = inv_reg_lower_gamma(a, p);
                let p2 = reg_lower_gamma(a, x);
                assert!((p2 - p).abs() < 1e-6, "a={a} p={p} -> x={x} -> p2={p2}");
            }
        }
    }

    #[test]
    fn inverse_edge_cases() {
        assert_eq!(inv_reg_lower_gamma(2.0, 0.0), 0.0);
        // Median of Gamma(1,1) is ln 2.
        assert!(close(
            inv_reg_lower_gamma(1.0, 0.5),
            std::f64::consts::LN_2,
            1e-8
        ));
    }
}
