//! Extraction of Pelgrom matching constants from measured mismatch data.
//!
//! The paper's flow *consumes* `A_VT` and `A_β` ("the matching data
//! provided by the manufacturer"); this module solves the inverse problem a
//! designer faces when only silicon measurements exist: given per-geometry
//! current-mismatch sigmas at known overdrives, least-squares fit the two
//! constants through the model
//!
//! ```text
//! σ²(ΔI/I) = A_β²·(1/WL) + A_VT²·(4/(V_ov²·WL))
//! ```
//!
//! which is linear in `(A_β², A_VT²)` — a 2×2 normal-equation solve.

use core::fmt;

/// One mismatch measurement: device geometry, bias, and the observed
/// relative current sigma.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchSample {
    /// Gate area `W·L` in m².
    pub wl: f64,
    /// Overdrive voltage in V.
    pub vov: f64,
    /// Measured σ(ΔI/I) (dimensionless).
    pub sigma_id_rel: f64,
}

/// Fitted Pelgrom constants with the fit quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PelgromFit {
    /// Fitted `A_VT` in V·m.
    pub a_vt: f64,
    /// Fitted `A_β` in m.
    pub a_beta: f64,
    /// Root-mean-square relative residual of σ² over the samples.
    pub rms_residual_rel: f64,
}

impl fmt::Display for PelgromFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "A_VT = {:.2} mV.um, A_beta = {:.2} %.um (rms residual {:.1} %)",
            self.a_vt * 1e9,
            self.a_beta * 1e8,
            self.rms_residual_rel * 100.0
        )
    }
}

/// Error returned when the sample set cannot determine both constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractPelgromError {
    /// Fewer than two samples were provided.
    TooFewSamples,
    /// The regressors are (numerically) collinear — e.g. all samples share
    /// one overdrive, which cannot separate `A_VT` from `A_β`.
    Degenerate,
    /// The least-squares solution has a negative squared constant — the
    /// data contradicts the Pelgrom model.
    NegativeVariance,
}

impl fmt::Display for ExtractPelgromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractPelgromError::TooFewSamples => write!(f, "need at least two samples"),
            ExtractPelgromError::Degenerate => {
                write!(
                    f,
                    "samples cannot separate A_VT from A_beta (vary the overdrive)"
                )
            }
            ExtractPelgromError::NegativeVariance => {
                write!(f, "fit produced a negative squared matching constant")
            }
        }
    }
}

impl std::error::Error for ExtractPelgromError {}

/// Fits `(A_VT, A_β)` to the samples by linear least squares on σ².
///
/// # Errors
///
/// See [`ExtractPelgromError`].
///
/// # Examples
///
/// ```
/// use ctsdac_process::extract::{extract_pelgrom, MismatchSample};
/// use ctsdac_process::{Pelgrom, Technology};
///
/// // Synthesise "measurements" from known constants and recover them.
/// let p = Pelgrom::new(&Technology::c035().nmos);
/// let samples: Vec<MismatchSample> = [(1e-12, 0.2), (4e-12, 0.4), (16e-12, 0.8)]
///     .iter()
///     .map(|&(wl, vov)| MismatchSample { wl, vov, sigma_id_rel: p.sigma_id_rel(wl, vov) })
///     .collect();
/// let fit = extract_pelgrom(&samples).expect("well-posed");
/// assert!((fit.a_vt - 9.5e-9).abs() / 9.5e-9 < 1e-6);
/// ```
pub fn extract_pelgrom(samples: &[MismatchSample]) -> Result<PelgromFit, ExtractPelgromError> {
    if samples.len() < 2 {
        return Err(ExtractPelgromError::TooFewSamples);
    }
    // Regressors: x1 = 1/WL (for A_β²), x2 = 4/(V_ov²·WL) (for A_VT²);
    // response y = σ². Normal equations for [a, b] = [A_β², A_VT²].
    let (mut s11, mut s12, mut s22, mut sy1, mut sy2) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in samples {
        assert!(s.wl > 0.0 && s.vov > 0.0, "invalid sample {s:?}");
        let x1 = 1.0 / s.wl;
        let x2 = 4.0 / (s.vov * s.vov * s.wl);
        let y = s.sigma_id_rel * s.sigma_id_rel;
        s11 += x1 * x1;
        s12 += x1 * x2;
        s22 += x2 * x2;
        sy1 += x1 * y;
        sy2 += x2 * y;
    }
    let det = s11 * s22 - s12 * s12;
    if det.abs() < 1e-12 * s11 * s22 {
        return Err(ExtractPelgromError::Degenerate);
    }
    let a_beta_sq = (sy1 * s22 - sy2 * s12) / det;
    let a_vt_sq = (s11 * sy2 - s12 * sy1) / det;
    if a_beta_sq < 0.0 || a_vt_sq < 0.0 {
        return Err(ExtractPelgromError::NegativeVariance);
    }
    // Fit quality: relative residual of σ² per sample.
    let mut sum_sq = 0.0;
    for s in samples {
        let x1 = 1.0 / s.wl;
        let x2 = 4.0 / (s.vov * s.vov * s.wl);
        let y = s.sigma_id_rel * s.sigma_id_rel;
        let model = a_beta_sq * x1 + a_vt_sq * x2;
        if y > 0.0 {
            let rel = (model - y) / y;
            sum_sq += rel * rel;
        }
    }
    Ok(PelgromFit {
        a_vt: a_vt_sq.sqrt(),
        a_beta: a_beta_sq.sqrt(),
        rms_residual_rel: (sum_sq / samples.len() as f64).sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::Pelgrom;
    use crate::technology::Technology;
    use ctsdac_stats::sample::seeded_rng;
    use ctsdac_stats::NormalSampler;

    fn truth() -> Pelgrom {
        Pelgrom::new(&Technology::c035().nmos)
    }

    fn synth_samples(geometries: &[(f64, f64)]) -> Vec<MismatchSample> {
        let p = truth();
        geometries
            .iter()
            .map(|&(wl, vov)| MismatchSample {
                wl,
                vov,
                sigma_id_rel: p.sigma_id_rel(wl, vov),
            })
            .collect()
    }

    #[test]
    fn exact_data_recovers_exact_constants() {
        let samples = synth_samples(&[
            (0.5e-12, 0.15),
            (1e-12, 0.3),
            (2e-12, 0.5),
            (8e-12, 0.8),
            (20e-12, 1.0),
        ]);
        let fit = extract_pelgrom(&samples).expect("well-posed");
        assert!((fit.a_vt - 9.5e-9).abs() / 9.5e-9 < 1e-9, "{fit}");
        assert!((fit.a_beta - 1.9e-8).abs() / 1.9e-8 < 1e-9, "{fit}");
        assert!(fit.rms_residual_rel < 1e-9);
    }

    #[test]
    fn noisy_data_recovers_constants_within_tolerance() {
        // Each σ estimated from "N = 200 device pairs": relative error of a
        // sigma estimate is ~1/√(2N) ≈ 5 %.
        let p = truth();
        let mut rng = seeded_rng(8);
        let mut sampler = NormalSampler::new();
        let samples: Vec<MismatchSample> = [
            (0.5e-12, 0.15),
            (1e-12, 0.3),
            (2e-12, 0.5),
            (4e-12, 0.2),
            (8e-12, 0.8),
            (20e-12, 1.0),
            (50e-12, 0.4),
            // β only dominates the mismatch above V_ov ≈ 1.4 V in this
            // technology, so A_β extraction needs large-overdrive samples.
            (10e-12, 1.5),
            (30e-12, 1.8),
        ]
        .iter()
        .map(|&(wl, vov)| MismatchSample {
            wl,
            vov,
            sigma_id_rel: p.sigma_id_rel(wl, vov) * (1.0 + 0.05 * sampler.sample(&mut rng)),
        })
        .collect();
        let fit = extract_pelgrom(&samples).expect("well-posed");
        assert!((fit.a_vt - 9.5e-9).abs() / 9.5e-9 < 0.2, "{fit}");
        // A_VT is the constant the sizing needs; A_β stays weakly observable
        // even with the high-V_ov points, so a factor-2 band is realistic.
        assert!((fit.a_beta - 1.9e-8).abs() / 1.9e-8 < 1.0, "{fit}");
    }

    #[test]
    fn single_overdrive_is_degenerate() {
        // With one V_ov the two regressors are proportional.
        let samples = synth_samples(&[(1e-12, 0.5), (4e-12, 0.5), (9e-12, 0.5)]);
        assert_eq!(
            extract_pelgrom(&samples),
            Err(ExtractPelgromError::Degenerate)
        );
    }

    #[test]
    fn too_few_samples_rejected() {
        let samples = synth_samples(&[(1e-12, 0.5)]);
        assert_eq!(
            extract_pelgrom(&samples),
            Err(ExtractPelgromError::TooFewSamples)
        );
    }

    #[test]
    fn round_trip_through_sizing() {
        // Extracted constants drive the same sizing as the originals.
        let samples = synth_samples(&[(1e-12, 0.2), (4e-12, 0.5), (16e-12, 0.9)]);
        let fit = extract_pelgrom(&samples).expect("well-posed");
        let fitted = Pelgrom::from_constants(fit.a_vt, fit.a_beta);
        let wl_true = truth().required_area(0.5, 2.63e-3);
        let wl_fit = fitted.required_area(0.5, 2.63e-3);
        assert!(((wl_fit - wl_true) / wl_true).abs() < 1e-6);
    }
}
