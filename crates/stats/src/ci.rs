//! Confidence intervals for estimated means and variances.
//!
//! Mismatch characterisation estimates sigmas from finite device-pair
//! populations; the chi-square interval says how much a fitted `A_VT`
//! can be trusted. The chi-square quantile uses the Wilson–Hilferty cube
//! approximation (relative error < 1 % for ν ≥ 3), which is ample for
//! sample-size planning.

use crate::normal::{inv_phi, InvalidProbabilityError};

/// Approximate chi-square quantile with `nu` degrees of freedom at
/// probability `p` (Wilson–Hilferty).
///
/// # Errors
///
/// Returns [`InvalidProbabilityError`] if `p` is not strictly inside
/// `(0, 1)`.
///
/// # Panics
///
/// Panics if `nu` is zero.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_stats::InvalidProbabilityError> {
/// use ctsdac_stats::ci::chi_square_quantile;
///
/// // χ²₁₀ median ≈ 9.34.
/// let q = chi_square_quantile(10, 0.5)?;
/// assert!((q - 9.34).abs() < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn chi_square_quantile(nu: u64, p: f64) -> Result<f64, InvalidProbabilityError> {
    assert!(nu > 0, "zero degrees of freedom");
    let z = inv_phi(p)?;
    let n = nu as f64;
    let a = 2.0 / (9.0 * n);
    let cube = 1.0 - a + z * a.sqrt();
    Ok(n * cube * cube * cube)
}

/// Two-sided confidence interval for a standard deviation estimated from
/// `n` samples: `(lo, hi)` such that the true σ lies inside with
/// probability `confidence`.
///
/// # Errors
///
/// Returns [`InvalidProbabilityError`] if `confidence` is not strictly
/// inside `(0, 1)`.
///
/// # Panics
///
/// Panics if `n < 2` or `sd` is not positive and finite.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_stats::InvalidProbabilityError> {
/// use ctsdac_stats::ci::sigma_confidence_interval;
///
/// // 200 device pairs: sigma known to about ±10 %.
/// let (lo, hi) = sigma_confidence_interval(0.01, 200, 0.95)?;
/// assert!(lo > 0.009 && hi < 0.0112);
/// # Ok(())
/// # }
/// ```
pub fn sigma_confidence_interval(
    sd: f64,
    n: u64,
    confidence: f64,
) -> Result<(f64, f64), InvalidProbabilityError> {
    assert!(n >= 2, "need at least two samples");
    assert!(sd.is_finite() && sd > 0.0, "invalid sd {sd}");
    let alpha = 1.0 - confidence;
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(InvalidProbabilityError { p: confidence });
    }
    let nu = n - 1;
    let q_hi = chi_square_quantile(nu, 1.0 - alpha / 2.0)?;
    let q_lo = chi_square_quantile(nu, alpha / 2.0)?;
    let var = sd * sd * nu as f64;
    Ok(((var / q_hi).sqrt(), (var / q_lo).sqrt()))
}

/// Number of samples needed so the estimated sigma's relative half-width
/// is at most `rel_halfwidth` at the given confidence — sample-size
/// planning for a matching characterisation run.
///
/// Uses the large-sample normal approximation `σ(ŝ)/σ ≈ 1/√(2n)`.
///
/// # Errors
///
/// Returns [`InvalidProbabilityError`] for an invalid confidence.
///
/// # Panics
///
/// Panics if `rel_halfwidth` is not inside `(0, 1)`.
pub fn samples_for_sigma_accuracy(
    rel_halfwidth: f64,
    confidence: f64,
) -> Result<u64, InvalidProbabilityError> {
    assert!(
        rel_halfwidth > 0.0 && rel_halfwidth < 1.0,
        "invalid half-width {rel_halfwidth}"
    );
    let z = inv_phi(0.5 + confidence / 2.0)?;
    Ok(((z / rel_halfwidth).powi(2) / 2.0).ceil() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chi_square_reference_quantiles() {
        // (nu, p, value) from standard tables.
        let cases = [
            (10u64, 0.95, 18.31),
            (10, 0.05, 3.94),
            (30, 0.975, 46.98),
            (100, 0.5, 99.33),
        ];
        for (nu, p, want) in cases {
            let got = chi_square_quantile(nu, p).expect("valid p");
            assert!(
                ((got - want) / want).abs() < 0.01,
                "chi2({nu}, {p}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn sigma_interval_contains_the_estimate() {
        let (lo, hi) = sigma_confidence_interval(2.0, 50, 0.95).expect("valid");
        assert!(lo < 2.0 && 2.0 < hi);
        assert!(lo > 1.5 && hi < 2.7);
    }

    #[test]
    fn interval_shrinks_with_samples() {
        let (lo_s, hi_s) = sigma_confidence_interval(1.0, 20, 0.95).expect("valid");
        let (lo_l, hi_l) = sigma_confidence_interval(1.0, 2000, 0.95).expect("valid");
        assert!(hi_l - lo_l < (hi_s - lo_s) / 5.0);
    }

    #[test]
    fn sample_planning_round_trip() {
        // Plan for ±5 % at 95 %, then confirm the interval is ~±5 %.
        let n = samples_for_sigma_accuracy(0.05, 0.95).expect("valid");
        let (lo, hi) = sigma_confidence_interval(1.0, n, 0.95).expect("valid");
        assert!(lo > 0.93 && hi < 1.08, "[{lo}, {hi}] with n = {n}");
    }

    #[test]
    fn monte_carlo_coverage_of_sigma_interval() {
        use crate::sample::seeded_rng;
        use crate::NormalSampler;
        let mut rng = seeded_rng(42);
        let mut sampler = NormalSampler::new();
        let n = 40usize;
        let trials = 400;
        let mut covered = 0;
        for _ in 0..trials {
            let data: Vec<f64> = (0..n).map(|_| sampler.sample(&mut rng)).collect();
            let mean = data.iter().sum::<f64>() / n as f64;
            let sd =
                (data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64).sqrt();
            let (lo, hi) = sigma_confidence_interval(sd, n as u64, 0.95).expect("valid");
            if lo <= 1.0 && 1.0 <= hi {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            (coverage - 0.95).abs() < 0.04,
            "coverage = {coverage} (want ~0.95)"
        );
    }

    #[test]
    #[should_panic(expected = "at least two samples")]
    fn one_sample_rejected() {
        let _ = sigma_confidence_interval(1.0, 1, 0.95);
    }
}
