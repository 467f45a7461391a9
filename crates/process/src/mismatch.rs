//! Pelgrom mismatch model and the paper's inverse sizing relation (eq. (2)).
//!
//! Random (fast-gradient) mismatch of two identically drawn transistors
//! follows Pelgrom's law: `σ(ΔV_T) = A_VT/√(WL)` and
//! `σ(Δβ/β) = A_β/√(WL)`. For a current source biased at overdrive `V_ov`
//! the two combine into
//!
//! ```text
//! σ²(ΔI/I) = (A_β² + 4·A_VT²/V_ov²) / (W·L)
//! ```
//!
//! The paper inverts this to obtain the minimum gate area that meets the
//! INL-driven current-accuracy target (eq. (2)), one of the two equations
//! that fully determine the CS transistor.

use crate::technology::DeviceParams;
use ctsdac_stats::rng::Rng;
use ctsdac_stats::NormalSampler;

/// Pelgrom mismatch calculator for one device flavour.
///
/// # Examples
///
/// ```
/// use ctsdac_process::{Technology, Pelgrom};
///
/// let tech = Technology::c035();
/// let p = Pelgrom::new(&tech.nmos);
/// // A 1 µm × 1 µm device has σ(VT) = A_VT = 9.5 mV.
/// assert!((p.sigma_vt(1e-12) - 9.5e-3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pelgrom {
    a_vt: f64,
    a_beta: f64,
}

impl Pelgrom {
    /// Builds the calculator from a device's matching constants.
    pub fn new(params: &DeviceParams) -> Self {
        Self {
            a_vt: params.a_vt,
            a_beta: params.a_beta,
        }
    }

    /// Builds the calculator from raw constants (`A_VT` in V·m, `A_β` in m).
    ///
    /// # Panics
    ///
    /// Panics if either constant is negative or non-finite.
    pub fn from_constants(a_vt: f64, a_beta: f64) -> Self {
        assert!(a_vt.is_finite() && a_vt >= 0.0, "invalid A_VT {a_vt}");
        assert!(
            a_beta.is_finite() && a_beta >= 0.0,
            "invalid A_beta {a_beta}"
        );
        Self { a_vt, a_beta }
    }

    /// Threshold-voltage mismatch σ(ΔV_T) for gate area `wl` (m²).
    ///
    /// # Panics
    ///
    /// Panics if `wl` is not finite and strictly positive.
    pub fn sigma_vt(&self, wl: f64) -> f64 {
        assert!(wl.is_finite() && wl > 0.0, "invalid gate area {wl}");
        self.a_vt / wl.sqrt()
    }

    /// Relative gain mismatch σ(Δβ/β) for gate area `wl` (m²).
    ///
    /// # Panics
    ///
    /// Panics if `wl` is not finite and strictly positive.
    pub fn sigma_beta_rel(&self, wl: f64) -> f64 {
        assert!(wl.is_finite() && wl > 0.0, "invalid gate area {wl}");
        self.a_beta / wl.sqrt()
    }

    /// Relative current mismatch σ(ΔI/I) of a saturated current source at
    /// overdrive `vov`:
    /// `σ²(ΔI/I) = σ²(Δβ/β) + (2/V_ov)²·σ²(ΔV_T)`.
    ///
    /// # Panics
    ///
    /// Panics if `wl` or `vov` is not finite and strictly positive.
    pub fn sigma_id_rel(&self, wl: f64, vov: f64) -> f64 {
        assert!(vov.is_finite() && vov > 0.0, "invalid overdrive {vov}");
        let sb = self.sigma_beta_rel(wl);
        let svt = self.sigma_vt(wl);
        (sb * sb + (2.0 * svt / vov).powi(2)).sqrt()
    }

    /// Minimum gate area `W·L` such that `σ(ΔI/I) ≤ sigma_rel` at overdrive
    /// `vov` — the paper's eq. (2) area relation:
    /// `(W·L)_min = (A_β² + 4·A_VT²/V_ov²) / σ²(ΔI/I)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_rel` or `vov` is not finite and strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctsdac_process::{Technology, Pelgrom};
    ///
    /// let p = Pelgrom::new(&Technology::c035().nmos);
    /// let wl = p.required_area(0.5, 2.63e-3);
    /// // Forward check: the area indeed meets the target.
    /// assert!(p.sigma_id_rel(wl, 0.5) <= 2.63e-3 * (1.0 + 1e-12));
    /// ```
    pub fn required_area(&self, vov: f64, sigma_rel: f64) -> f64 {
        assert!(vov.is_finite() && vov > 0.0, "invalid overdrive {vov}");
        assert!(
            sigma_rel.is_finite() && sigma_rel > 0.0,
            "invalid sigma target {sigma_rel}"
        );
        (self.a_beta * self.a_beta + 4.0 * self.a_vt * self.a_vt / (vov * vov))
            / (sigma_rel * sigma_rel)
    }

    /// Draws one mismatch realisation for a device of gate area `wl`.
    pub fn draw<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        sampler: &mut NormalSampler,
        wl: f64,
    ) -> MismatchDraw {
        MismatchDraw {
            delta_vt: self.sigma_vt(wl) * sampler.sample(rng),
            delta_beta_rel: self.sigma_beta_rel(wl) * sampler.sample(rng),
        }
    }
}

/// One sampled mismatch realisation of a device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MismatchDraw {
    /// Threshold-voltage deviation ΔV_T in V.
    pub delta_vt: f64,
    /// Relative gain deviation Δβ/β (dimensionless).
    pub delta_beta_rel: f64,
}

impl MismatchDraw {
    /// Relative current error of a saturated source at overdrive `vov`
    /// under this realisation (first-order):
    /// `ΔI/I = Δβ/β − 2·ΔV_T/V_ov`.
    ///
    /// # Panics
    ///
    /// Panics if `vov` is not finite and strictly positive.
    pub fn delta_id_rel(&self, vov: f64) -> f64 {
        assert!(vov.is_finite() && vov > 0.0, "invalid overdrive {vov}");
        self.delta_beta_rel - 2.0 * self.delta_vt / vov
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technology::Technology;
    use ctsdac_stats::sample::seeded_rng;
    use ctsdac_stats::Summary;

    fn pelgrom() -> Pelgrom {
        Pelgrom::new(&Technology::c035().nmos)
    }

    #[test]
    fn sigma_scales_inverse_sqrt_area() {
        let p = pelgrom();
        let s1 = p.sigma_vt(1e-12);
        let s4 = p.sigma_vt(4e-12);
        assert!((s1 / s4 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn required_area_is_exact_inverse() {
        let p = pelgrom();
        for &vov in &[0.1, 0.3, 0.5, 1.0] {
            for &target in &[1e-3, 2.63e-3, 1e-2] {
                let wl = p.required_area(vov, target);
                let achieved = p.sigma_id_rel(wl, vov);
                assert!(
                    ((achieved - target) / target).abs() < 1e-12,
                    "vov = {vov}, target = {target}: achieved {achieved}"
                );
            }
        }
    }

    #[test]
    fn larger_overdrive_needs_less_area() {
        // The V_T term dominates at small overdrive, so area shrinks as V_ov
        // grows — the driving force behind the paper's push for the largest
        // feasible V_OD,CS.
        let p = pelgrom();
        let a_small = p.required_area(0.2, 2.63e-3);
        let a_large = p.required_area(0.8, 2.63e-3);
        assert!(a_small > a_large * 2.0);
    }

    #[test]
    fn twelve_bit_sizing_magnitude() {
        // Sanity: the 12-bit/99.7 % spec (sigma = 0.263 %) at V_ov = 0.5 V
        // needs a gate area of a few hundred µm² in 0.35 µm CMOS.
        let p = pelgrom();
        let wl = p.required_area(0.5, 2.63e-3);
        let wl_um2 = wl * 1e12;
        assert!(
            wl_um2 > 100.0 && wl_um2 < 1000.0,
            "unexpected area {wl_um2} um^2"
        );
    }

    #[test]
    fn draw_statistics_match_model() {
        let p = pelgrom();
        let wl = 25e-12; // 5 µm × 5 µm
        let mut rng = seeded_rng(42);
        let mut sampler = NormalSampler::new();
        let n = 50_000;
        let vts: Summary = (0..n)
            .map(|_| p.draw(&mut rng, &mut sampler, wl).delta_vt)
            .collect();
        assert!(vts.mean().abs() < 5e-5);
        let expected = p.sigma_vt(wl);
        assert!(
            ((vts.std_dev() - expected) / expected).abs() < 0.02,
            "sd = {}, expected {expected}",
            vts.std_dev()
        );
    }

    #[test]
    fn delta_id_rel_combines_linearly() {
        let d = MismatchDraw {
            delta_vt: 5e-3,
            delta_beta_rel: 0.01,
        };
        let e = d.delta_id_rel(0.5);
        assert!((e - (0.01 - 2.0 * 5e-3 / 0.5)).abs() < 1e-15);
    }

    #[test]
    fn sampled_current_error_sigma_matches_formula() {
        let p = pelgrom();
        let wl = 100e-12;
        let vov = 0.4;
        let mut rng = seeded_rng(7);
        let mut sampler = NormalSampler::new();
        let errors: Summary = (0..50_000)
            .map(|_| p.draw(&mut rng, &mut sampler, wl).delta_id_rel(vov))
            .collect();
        let expected = p.sigma_id_rel(wl, vov);
        assert!(
            ((errors.std_dev() - expected) / expected).abs() < 0.02,
            "sd = {}, expected {expected}",
            errors.std_dev()
        );
    }

    #[test]
    #[should_panic(expected = "invalid gate area")]
    fn zero_area_rejected() {
        let _ = pelgrom().sigma_vt(0.0);
    }
}
