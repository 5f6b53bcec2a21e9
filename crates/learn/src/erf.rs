//! Error function and Gaussian CDF.
//!
//! `std` does not expose `erf`, and the workspace deliberately avoids a
//! `libm` dependency, so we use the Abramowitz & Stegun 7.1.26 rational
//! approximation (max absolute error 1.5 × 10⁻⁷ — far below anything the
//! threshold optimization can notice).

/// Error function, |error| ≤ 1.5e-7.
pub(crate) fn erf(x: f64) -> f64 {
    const A1: f64 = 0.254829592;
    const A2: f64 = -0.284496736;
    const A3: f64 = 1.421413741;
    const A4: f64 = -1.453152027;
    const A5: f64 = 1.061405429;
    const P: f64 = 0.3275911;

    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// CDF of `N(mean, sd²)` evaluated at `x`.
pub(crate) fn normal_cdf(x: f64, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd > 0.0, "standard deviation must be positive");
    0.5 * (1.0 + erf((x - mean) / (sd * std::f64::consts::SQRT_2)))
}

/// PDF of `N(mean, sd²)` evaluated at `x`.
pub(crate) fn normal_pdf(x: f64, mean: f64, sd: f64) -> f64 {
    debug_assert!(sd > 0.0, "standard deviation must be positive");
    let z = (x - mean) / sd;
    (-0.5 * z * z).exp() / (sd * (2.0 * std::f64::consts::PI).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from tables.
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in 0..100 {
            let x = i as f64 * 0.1;
            assert!((erf(x) + erf(-x)).abs() < 1e-12, "x = {x}");
            assert!(erf(x) <= 1.0 && erf(x) >= -1.0);
        }
    }

    #[test]
    fn normal_cdf_basics() {
        assert!((normal_cdf(0.0, 0.0, 1.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96, 0.0, 1.0) - 0.975).abs() < 1e-3);
        assert!(normal_cdf(-8.0, 0.0, 1.0) < 1e-9);
        assert!(normal_cdf(8.0, 0.0, 1.0) > 1.0 - 1e-9);
    }

    #[test]
    fn normal_cdf_is_monotone() {
        let mut prev = 0.0;
        for i in -50..50 {
            let v = normal_cdf(i as f64 * 0.2, 1.0, 3.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn normal_pdf_peaks_at_mean() {
        let peak = normal_pdf(2.0, 2.0, 0.5);
        assert!(normal_pdf(1.5, 2.0, 0.5) < peak);
        assert!(normal_pdf(2.5, 2.0, 0.5) < peak);
        assert!((peak - 1.0 / (0.5 * (2.0 * std::f64::consts::PI).sqrt())).abs() < 1e-12);
    }
}
