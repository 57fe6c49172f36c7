//! Descriptive statistics: quantiles and the geometric mean.
//!
//! Used throughout the evaluation harness for the median trajectories and
//! 25–75% bands of Figures 3 and 4 and for the geometric-mean savings
//! number quoted in the abstract.

/// Linear-interpolation quantile of an (unsorted) sample.
/// Sorts a copy; use [`quantile_of_sorted`] in loops.
///
/// # Panics
/// Panics if `xs` is empty, contains NaN, or `q` is outside `[0,1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    quantile_of_sorted(&sorted, q)
}

/// Linear-interpolation quantile of an ascending-sorted sample
/// (type-7 / the default of R and NumPy).
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0,1]`.
pub fn quantile_of_sorted(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range: {q}");
    if xs.len() == 1 {
        return xs[0];
    }
    let h = q * (xs.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo])
    }
}

/// Geometric mean of strictly positive values.
///
/// The paper's headline "1.9× average savings" is a geometric mean across
/// all queries (§V-C).
///
/// # Panics
/// Panics if `xs` is empty or any value is not strictly positive.
pub fn geometric_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geometric_mean of empty sample");
    let s: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geometric_mean requires positive values, got {x}");
            x.ln()
        })
        .sum();
    (s / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_basics() {
        let xs = [3.0, 1.0, 2.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert!((quantile(&xs, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert!((quantile(&xs, 0.3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile(&[42.0], 0.99), 42.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.9]) - 1.9).abs() < 1e-12);
    }
}
