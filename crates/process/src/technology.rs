//! Technology description: the per-process constants every model in the
//! workspace consumes.
//!
//! The paper targets "a 0.35 µm CMOS process" without publishing the foundry
//! deck, so [`Technology::c035`] carries public-literature values for that
//! node (see `DESIGN.md`, substitution table). Every constant can be
//! overridden through the builder-style `with_*` methods, which keeps the
//! methodology parametric in the technology, as the paper requires for
//! porting it to "other models ... provided that the process matching
//! parameters are available".

use core::fmt;

/// Parameters of one device flavour (NMOS or PMOS).
///
/// All values SI. `kp` is the gain factor `K' = µ·C_ox` of the square-law
/// current equation `I_D = ½·K'·(W/L)·V_ov²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Gain factor `K' = µ·C_ox` in A/V².
    pub kp: f64,
    /// Zero-bias threshold voltage magnitude in V.
    pub vt0: f64,
    /// Channel-length-modulation coefficient expressed as the
    /// length-independent product `λ·L` in m/V; `λ(L) = lambda_l / L`.
    pub lambda_l: f64,
    /// Body-effect coefficient `γ` in √V.
    pub gamma: f64,
    /// Surface potential `2·φ_F` in V.
    pub phi2f: f64,
    /// Pelgrom threshold-matching constant `A_VT` in V·m.
    pub a_vt: f64,
    /// Pelgrom gain-matching constant `A_β` in m (relative mismatch · m).
    pub a_beta: f64,
}

/// A CMOS technology: supply, geometry limits, capacitances, matching.
///
/// Obtain one from [`Technology::c035`] and customise with the `with_*`
/// methods:
///
/// ```
/// use ctsdac_process::Technology;
///
/// let tech = Technology::c035().with_vdd(3.0);
/// assert_eq!(tech.vdd, 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Nominal supply voltage in V.
    pub vdd: f64,
    /// Minimum drawn channel length in m.
    pub l_min: f64,
    /// Minimum drawn channel width in m.
    pub w_min: f64,
    /// Gate-oxide capacitance per unit area in F/m².
    pub cox: f64,
    /// Gate-drain/source overlap capacitance per unit width in F/m.
    pub c_overlap: f64,
    /// Junction (area) capacitance in F/m².
    pub cj: f64,
    /// Junction sidewall capacitance in F/m.
    pub cjsw: f64,
    /// Source/drain diffusion extent in m (sets junction area `W·l_diff`).
    pub l_diff: f64,
    /// Relative 1-σ tolerance of the (external or on-chip) load resistor.
    pub sigma_rl_rel: f64,
    /// NMOS device parameters.
    pub nmos: DeviceParams,
    /// PMOS device parameters.
    pub pmos: DeviceParams,
}

impl Technology {
    /// Generic 0.35 µm CMOS technology — the node of the paper's design.
    ///
    /// Values are typical published numbers for a 3.3 V, 0.35 µm process:
    /// t_ox ≈ 7.6 nm ⇒ C_ox ≈ 4.54 fF/µm², K'ₙ ≈ 175 µA/V²,
    /// V_Tn ≈ 0.55 V, A_VT ≈ 9.5 mV·µm, A_β ≈ 1.9 %·µm.
    pub fn c035() -> Self {
        Self {
            vdd: 3.3,
            l_min: 0.35e-6,
            w_min: 0.4e-6,
            cox: 4.54e-3,
            c_overlap: 0.25e-9,
            cj: 0.9e-3,
            cjsw: 0.28e-9,
            l_diff: 0.85e-6,
            sigma_rl_rel: 0.01,
            nmos: DeviceParams {
                kp: 175e-6,
                vt0: 0.55,
                lambda_l: 0.06e-6,
                gamma: 0.58,
                phi2f: 0.85,
                a_vt: 9.5e-9,
                a_beta: 1.9e-8,
            },
            pmos: DeviceParams {
                kp: 58e-6,
                vt0: 0.70,
                lambda_l: 0.09e-6,
                gamma: 0.45,
                phi2f: 0.85,
                a_vt: 14.0e-9,
                a_beta: 2.4e-8,
            },
        }
    }

    /// Replaces the supply voltage.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is not finite and positive.
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        assert!(vdd.is_finite() && vdd > 0.0, "invalid supply {vdd}");
        self.vdd = vdd;
        self
    }

    /// Replaces the NMOS parameters.
    pub fn with_nmos(mut self, params: DeviceParams) -> Self {
        self.nmos = params;
        self
    }

    /// Replaces the PMOS parameters.
    pub fn with_pmos(mut self, params: DeviceParams) -> Self {
        self.pmos = params;
        self
    }

    /// Replaces the load-resistor relative tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn with_sigma_rl_rel(mut self, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid sigma {sigma}");
        self.sigma_rl_rel = sigma;
        self
    }

    /// Replaces the NMOS Pelgrom matching constants (`A_VT` in V·m, `A_β`
    /// in m).
    ///
    /// # Panics
    ///
    /// Panics if either constant is negative or non-finite.
    pub fn with_nmos_matching(mut self, a_vt: f64, a_beta: f64) -> Self {
        assert!(a_vt.is_finite() && a_vt >= 0.0, "invalid A_VT {a_vt}");
        assert!(
            a_beta.is_finite() && a_beta >= 0.0,
            "invalid A_beta {a_beta}"
        );
        self.nmos.a_vt = a_vt;
        self.nmos.a_beta = a_beta;
        self
    }

    /// Returns the technology re-evaluated at junction temperature
    /// `temp_k`: mobility scales as `(T/300)^{-1.5}` and threshold drops
    /// ~2 mV/K — the standard first-order temperature model. Matching
    /// constants and capacitances are temperature-independent.
    ///
    /// # Panics
    ///
    /// Panics if `temp_k` is outside `150..=500` K (outside the model's
    /// validity).
    pub fn at_temperature(&self, temp_k: f64) -> Self {
        assert!(
            (150.0..=500.0).contains(&temp_k),
            "temperature {temp_k} K outside model validity"
        );
        let mobility = (temp_k / 300.0).powf(-1.5);
        let dvt = -2e-3 * (temp_k - 300.0);
        let mut out = *self;
        out.nmos.kp = self.nmos.kp * mobility;
        out.nmos.vt0 = self.nmos.vt0 + dvt;
        out.pmos.kp = self.pmos.kp * mobility;
        out.pmos.vt0 = self.pmos.vt0 + dvt;
        out
    }

    /// Parameters for the requested device flavour.
    pub fn device(&self, kind: crate::mosfet::MosType) -> &DeviceParams {
        match kind {
            crate::mosfet::MosType::Nmos => &self.nmos,
            crate::mosfet::MosType::Pmos => &self.pmos,
        }
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::c035()
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CMOS Lmin={:.2}um Vdd={:.2}V K'n={:.0}uA/V2 VTn={:.2}V A_VT={:.1}mV.um",
            self.l_min * 1e6,
            self.vdd,
            self.nmos.kp * 1e6,
            self.nmos.vt0,
            self.nmos.a_vt * 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosType;

    #[test]
    fn c035_defaults_are_sane() {
        let t = Technology::c035();
        assert_eq!(t.vdd, 3.3);
        assert!(t.l_min < t.w_min * 2.0);
        assert!(t.nmos.kp > t.pmos.kp, "NMOS must be faster than PMOS");
        assert!(t.nmos.vt0 > 0.0 && t.nmos.vt0 < 1.0);
        // A_VT of 9.5 mV·µm in SI:
        assert!((t.nmos.a_vt - 9.5e-9).abs() < 1e-12);
    }

    #[test]
    fn builder_methods_replace_fields() {
        let t = Technology::c035()
            .with_vdd(2.5)
            .with_sigma_rl_rel(0.02)
            .with_nmos_matching(8.0e-9, 1.5e-8);
        assert_eq!(t.vdd, 2.5);
        assert_eq!(t.sigma_rl_rel, 0.02);
        assert_eq!(t.nmos.a_vt, 8.0e-9);
        assert_eq!(t.nmos.a_beta, 1.5e-8);
    }

    #[test]
    fn device_lookup_selects_flavour() {
        let t = Technology::c035();
        assert_eq!(t.device(MosType::Nmos).vt0, t.nmos.vt0);
        assert_eq!(t.device(MosType::Pmos).vt0, t.pmos.vt0);
    }

    #[test]
    #[should_panic(expected = "invalid supply")]
    fn negative_vdd_rejected() {
        let _ = Technology::c035().with_vdd(-1.0);
    }

    #[test]
    fn hot_silicon_is_slower_with_lower_threshold() {
        let t = Technology::c035();
        let hot = t.at_temperature(400.0);
        assert!(hot.nmos.kp < t.nmos.kp);
        assert!(hot.nmos.vt0 < t.nmos.vt0);
        // ~2 mV/K over 100 K.
        assert!((t.nmos.vt0 - hot.nmos.vt0 - 0.2).abs() < 1e-12);
        // Matching constants unchanged.
        assert_eq!(hot.nmos.a_vt, t.nmos.a_vt);
    }

    #[test]
    fn room_temperature_is_identity() {
        let t = Technology::c035();
        let same = t.at_temperature(300.0);
        assert!((same.nmos.kp - t.nmos.kp).abs() < 1e-18);
        assert_eq!(same.nmos.vt0, t.nmos.vt0);
    }

    #[test]
    #[should_panic(expected = "outside model validity")]
    fn cryogenic_rejected() {
        let _ = Technology::c035().at_temperature(4.0);
    }

    #[test]
    fn display_mentions_node() {
        let s = Technology::c035().to_string();
        assert!(s.contains("0.35um"), "display = {s}");
    }
}
