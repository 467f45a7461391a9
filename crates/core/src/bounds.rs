//! Statistical variances of the gate-voltage bounds (paper eq. (6), (7),
//! (12)).
//!
//! Process variation turns each bound of eq. (3) into a Gaussian random
//! variable. The variances are propagated from the underlying mismatch
//! sources — the OCR of the paper garbles parts of eq. (6)–(7), so the
//! expressions here are re-derived from first principles; the derivation is
//! spelled out term by term below and cross-checked by Monte Carlo in the
//! test suite.
//!
//! Sources of variation for the *worst-case LSB cell* (the paper: "the LSB
//! current cell is the worst case (its area is the smallest of all the
//! current sources)"):
//!
//! * `δV_T` of each device (Pelgrom `A_VT/√(WL)`);
//! * `δβ/β` of each device (Pelgrom `A_β/√(WL)`) — shifts the overdrive a
//!   fixed current needs by `δV_ov = −(V_ov/2)·δβ/β`;
//! * the cell current error caused by `δV_T` of the CS inside the mirror:
//!   `δI/I = −2·δV_T,CS/V_ov,CS`, which shifts *every* overdrive coherently
//!   by `δV_ov,i = (V_ov,i/2)·δI/I`;
//! * the load-resistor tolerance and the averaged full-scale current error,
//!   which move the minimum output voltage and hence the *upper* bound
//!   (`V_up = V_DD − I_FS·R_L + V_T,SW`).

use crate::sizing::CsSizing;
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::cell::{CellTopology, SizedCell};
use ctsdac_process::Pelgrom;

/// Standard deviations of the two switch-gate bounds of the simple cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundSigmas {
    /// σ of the upper bound (`V_out,min + V_T,SW`) in V — paper eq. (6).
    pub upper: f64,
    /// σ of the lower bound (`ΣV_OD + V_T,SW`) in V — paper eq. (7).
    pub lower: f64,
}

impl BoundSigmas {
    /// Largest of the two sigmas (the combination the paper uses in
    /// eq. (9)).
    pub fn max(&self) -> f64 {
        self.upper.max(self.lower)
    }

    /// Root-sum-square combination (ablation alternative to [`Self::max`]).
    pub fn rss(&self) -> f64 {
        self.upper.hypot(self.lower)
    }
}

impl fmt::Display for BoundSigmas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sigma_up = {:.2} mV, sigma_lo = {:.2} mV",
            self.upper * 1e3,
            self.lower * 1e3
        )
    }
}

/// Standard deviations of the four gate-voltage bounds of the cascoded cell
/// (paper eq. (12)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascodeBoundSigmas {
    /// σ of the switch-gate upper bound in V.
    pub sw_upper: f64,
    /// σ of the switch-gate lower bound in V.
    pub sw_lower: f64,
    /// σ of the cascode-gate upper bound in V.
    pub cas_upper: f64,
    /// σ of the cascode-gate lower bound in V.
    pub cas_lower: f64,
}

impl CascodeBoundSigmas {
    /// Largest of the four sigmas (the paper's eq. (11) combination).
    pub fn max(&self) -> f64 {
        self.sw_upper
            .max(self.sw_lower)
            .max(self.cas_upper)
            .max(self.cas_lower)
    }

    /// Root-sum-square of the four sigmas (ablation alternative).
    pub fn rss(&self) -> f64 {
        (self.sw_upper.powi(2)
            + self.sw_lower.powi(2)
            + self.cas_upper.powi(2)
            + self.cas_lower.powi(2))
        .sqrt()
    }
}

impl fmt::Display for CascodeBoundSigmas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sw [{:.2}, {:.2}] mV, cas [{:.2}, {:.2}] mV",
            self.sw_lower * 1e3,
            self.sw_upper * 1e3,
            self.cas_lower * 1e3,
            self.cas_upper * 1e3
        )
    }
}

/// σ² of a device threshold, `A_VT²/(WL)`.
fn var_vt(pelgrom: &Pelgrom, wl: f64) -> f64 {
    let s = pelgrom.sigma_vt(wl);
    s * s
}

/// One device's own share of the bound variances: its overdrive, its
/// threshold variance `σ²(V_T)` and the β-mismatch variance of its
/// overdrive at fixed current, `(V_ov/2 · σ(β)/β)²`.
///
/// Every term depends on that device's overdrive and gate area alone, so a
/// grid search tabulates one `DeviceTerms` per axis value and combines
/// them per point with [`cascoded_bound_sigmas_from_terms`]. The only
/// cross-device coupling is the coherent current error from the CS
/// threshold inside the mirror, `δI/I = −2·δV_T,CS/V_ov,CS`, which moves
/// each overdrive by `(V_ov/2)·δI/I`; the combining functions apply it
/// through the ratios `V_ov/V_ov,CS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceTerms {
    /// Design overdrive of the device in V.
    pub vov: f64,
    /// `σ²(V_T)` of the device in V².
    pub var_vt: f64,
    /// σ² of the device overdrive from its own β mismatch, in V².
    pub var_beta: f64,
}

impl DeviceTerms {
    /// The terms of a device of gate area `wl` (m²) at overdrive `vov`.
    ///
    /// # Panics
    ///
    /// Panics if `wl` is not finite and strictly positive.
    pub fn new(pelgrom: &Pelgrom, vov: f64, wl: f64) -> Self {
        let s_beta = pelgrom.sigma_beta_rel(wl);
        Self {
            vov,
            var_vt: var_vt(pelgrom, wl),
            var_beta: (0.5 * vov * s_beta).powi(2),
        }
    }

    /// Sensitivity of this overdrive to `δV_T,CS`:
    /// `δV_ov = (V_ov/2)·(−2·δV_T,CS/V_ov,CS)`.
    fn sens_vt_cs(&self, vov_cs: f64) -> f64 {
        -self.vov / vov_cs
    }
}

/// The part of the switch upper-bound variance that the CS device sets:
/// the full-scale current error (2ⁿ units average their mismatch) plus the
/// load-resistor tolerance, both scaled by the swing. The switch threshold
/// term is added by the combining functions.
///
/// # Panics
///
/// Panics if `wl_cs` or `vov_cs` is not finite and strictly positive.
pub fn full_scale_variance(spec: &DacSpec, pelgrom: &Pelgrom, wl_cs: f64, vov_cs: f64) -> f64 {
    let sigma_i_fs_rel =
        pelgrom.sigma_id_rel(wl_cs, vov_cs) / (spec.lsb_unit_count() as f64).sqrt();
    let swing = spec.env.v_swing;
    (swing * sigma_i_fs_rel).powi(2) + (swing * spec.tech.sigma_rl_rel).powi(2)
}

/// Bound sigmas of a *simple-topology* LSB cell (paper eq. (6)–(7)).
///
/// # Panics
///
/// Panics if `cell` is not the simple topology.
///
/// # Examples
///
/// ```
/// use ctsdac_core::bounds::simple_bound_sigmas;
/// use ctsdac_core::sizing::build_simple_cell;
/// use ctsdac_core::DacSpec;
///
/// let spec = DacSpec::paper_12bit();
/// let cell = build_simple_cell(&spec, 0.5, 0.6, 1);
/// let s = simple_bound_sigmas(&spec, &cell);
/// // Both sigmas are millivolt-scale: far below the 0.5 V legacy margin.
/// assert!(s.max() > 1e-3 && s.max() < 0.1);
/// ```
pub fn simple_bound_sigmas(spec: &DacSpec, cell: &SizedCell) -> BoundSigmas {
    assert_eq!(
        cell.topology(),
        CellTopology::Simple,
        "simple_bound_sigmas needs the simple topology"
    );
    simple_bound_sigmas_from_geometry(
        spec,
        cell.cs().area(),
        cell.sw().area(),
        cell.vov_cs(),
        cell.vov_sw(),
    )
}

/// [`simple_bound_sigmas`] from the raw gate areas and overdrives — the
/// lane-sweep variant for callers that have the sized devices (or just
/// their geometry) in hand without assembling a [`SizedCell`].
/// Bit-identical to [`simple_bound_sigmas`] on the corresponding cell.
pub fn simple_bound_sigmas_from_geometry(
    spec: &DacSpec,
    wl_cs: f64,
    wl_sw: f64,
    vov_cs: f64,
    vov_sw: f64,
) -> BoundSigmas {
    let pelgrom = Pelgrom::new(&spec.tech.nmos);
    let cs = DeviceTerms::new(&pelgrom, vov_cs, wl_cs);
    let sw = DeviceTerms::new(&pelgrom, vov_sw, wl_sw);

    // --- Upper bound: V_DD − I_FS·R_L + V_T,SW (eq. (6)) ---
    let var_upper = full_scale_variance(spec, &pelgrom, wl_cs, vov_cs) + sw.var_vt;

    // --- Lower bound: V_OD,CS + V_OD,SW + V_T,SW (eq. (7)) ---
    // The two overdrives respond coherently to δV_T,CS; sum sensitivities
    // before squaring.
    let sens_total = cs.sens_vt_cs(vov_cs) + sw.sens_vt_cs(vov_cs);
    let var_lower = cs.var_beta + sw.var_beta + sens_total * sens_total * cs.var_vt + sw.var_vt;

    BoundSigmas {
        upper: var_upper.sqrt(),
        lower: var_lower.sqrt(),
    }
}

/// Bound sigmas of a *cascoded-topology* LSB cell (paper eq. (12)).
///
/// # Panics
///
/// Panics if `cell` is not the cascoded topology.
pub fn cascoded_bound_sigmas(spec: &DacSpec, cell: &SizedCell) -> CascodeBoundSigmas {
    assert_eq!(
        cell.topology(),
        CellTopology::Cascoded,
        "cascoded_bound_sigmas needs the cascoded topology"
    );
    let pelgrom = Pelgrom::new(&spec.tech.nmos);
    let (Some(cas), Some(vov_cas)) = (cell.cas(), cell.vov_cas()) else {
        // Unreachable after the topology assert (a cascoded cell always
        // carries its CAS device); NaN sigmas poison every downstream
        // comparison into "infeasible" rather than panicking.
        return CascodeBoundSigmas {
            sw_upper: f64::NAN,
            sw_lower: f64::NAN,
            cas_upper: f64::NAN,
            cas_lower: f64::NAN,
        };
    };
    let wl_cs = cell.cs().area();
    cascoded_bound_sigmas_from_terms(
        &DeviceTerms::new(&pelgrom, cell.vov_cs(), wl_cs),
        &DeviceTerms::new(&pelgrom, vov_cas, cas.area()),
        &DeviceTerms::new(&pelgrom, cell.vov_sw(), cell.sw().area()),
        full_scale_variance(spec, &pelgrom, wl_cs, cell.vov_cs()),
    )
}

/// The eq. (12) combination of per-device terms into the four cascoded
/// bound sigmas — the one copy of the cascoded physics, shared by
/// [`cascoded_bound_sigmas`] and the table-driven volume search in
/// [`crate::cascode`], which is therefore bit-identical to the per-cell
/// path by construction. `var_full_scale` is
/// [`full_scale_variance`] of the CS device.
pub fn cascoded_bound_sigmas_from_terms(
    cs: &DeviceTerms,
    cas: &DeviceTerms,
    sw: &DeviceTerms,
    var_full_scale: f64,
) -> CascodeBoundSigmas {
    let s_cs = cs.sens_vt_cs(cs.vov);
    let s_cas = cas.sens_vt_cs(cs.vov);
    let s_sw = sw.sens_vt_cs(cs.vov);

    // SW upper: V_DD − I_FS·R_L + V_T,SW — as in the simple cell.
    let var_sw_upper = var_full_scale + sw.var_vt;

    // SW lower: V_OD,CS + V_OD,CAS + V_OD,SW + V_T,SW.
    let sens = s_cs + s_cas + s_sw;
    let var_sw_lower =
        cs.var_beta + cas.var_beta + sw.var_beta + sens * sens * cs.var_vt + sw.var_vt;

    // CAS lower: V_OD,CS + V_T,CAS + V_OD,CAS.
    let sens_cl = s_cs + s_cas;
    let var_cas_lower = cs.var_beta + cas.var_beta + sens_cl * sens_cl * cs.var_vt + cas.var_vt;

    // CAS upper: V_B + V_T,CAS with V_B = V_gSW − V_T,SW − V_OD,SW
    // (the switch gate is externally set, hence noiseless).
    let var_cas_upper = sw.var_vt + sw.var_beta + s_sw * s_sw * cs.var_vt + cas.var_vt;

    CascodeBoundSigmas {
        sw_upper: var_sw_upper.sqrt(),
        sw_lower: var_sw_lower.sqrt(),
        cas_upper: var_cas_upper.sqrt(),
        cas_lower: var_cas_lower.sqrt(),
    }
}

/// Convenience: bound sigmas of the worst-case (LSB) cell built at the given
/// overdrives for the simple topology.
pub fn lsb_bound_sigmas(spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> BoundSigmas {
    let cell = crate::sizing::build_simple_cell(spec, vov_cs, vov_sw, 1);
    simple_bound_sigmas(spec, &cell)
}

/// Sanity helper exposing the CS sizing the bounds are computed against.
pub fn lsb_cs_sizing(spec: &DacSpec, vov_cs: f64) -> CsSizing {
    CsSizing::for_spec(spec, vov_cs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizing::{build_cascoded_cell, build_simple_cell};
    use ctsdac_process::Pelgrom;
    use ctsdac_stats::sample::seeded_rng;
    use ctsdac_stats::{NormalSampler, Summary};

    #[test]
    fn sigmas_are_millivolt_scale() {
        let spec = DacSpec::paper_12bit();
        let s = lsb_bound_sigmas(&spec, 0.5, 0.6);
        // With A_VT ≈ 9.5 mV·µm and a ~1 µm² min-length switch, the switch
        // V_T term dominates: both sigmas land between 1 and 50 mV.
        assert!(s.upper > 1e-3 && s.upper < 0.05, "{s}");
        assert!(s.lower > 1e-3 && s.lower < 0.05, "{s}");
    }

    #[test]
    fn statistical_margin_is_far_below_half_volt() {
        // The headline claim: 2·S·σ_max ≪ 0.5 V.
        let spec = DacSpec::paper_12bit();
        let s = lsb_bound_sigmas(&spec, 0.5, 0.6);
        let s_factor = ctsdac_stats::inv_phi(spec.inl_yield.powf(0.25)).expect("valid");
        let margin = 2.0 * s_factor * s.max();
        assert!(margin < 0.25, "margin = {margin} V");
        assert!(margin > 0.01, "margin suspiciously small: {margin} V");
    }

    #[test]
    fn upper_sigma_includes_load_tolerance() {
        let spec = DacSpec::paper_12bit();
        let mut no_rl = spec;
        no_rl.tech = spec.tech.with_sigma_rl_rel(0.0);
        let with_rl = lsb_bound_sigmas(&spec, 0.5, 0.6);
        let without = lsb_bound_sigmas(&no_rl, 0.5, 0.6);
        assert!(with_rl.upper > without.upper);
        // Lower bound does not involve the load at all.
        assert!((with_rl.lower - without.lower).abs() < 1e-15);
    }

    #[test]
    fn rss_exceeds_max() {
        let spec = DacSpec::paper_12bit();
        let s = lsb_bound_sigmas(&spec, 0.5, 0.6);
        assert!(s.rss() >= s.max());
        assert!(s.rss() <= s.upper + s.lower);
    }

    #[test]
    fn cascode_has_four_positive_sigmas() {
        let spec = DacSpec::paper_12bit();
        let cell = build_cascoded_cell(&spec, 0.4, 0.3, 0.5, 1);
        let s = cascoded_bound_sigmas(&spec, &cell);
        for (name, v) in [
            ("sw_upper", s.sw_upper),
            ("sw_lower", s.sw_lower),
            ("cas_upper", s.cas_upper),
            ("cas_lower", s.cas_lower),
        ] {
            assert!(v > 1e-4 && v < 0.1, "{name} = {v}");
        }
        assert!(s.max() >= s.sw_upper);
    }

    #[test]
    #[should_panic(expected = "needs the simple topology")]
    fn simple_sigmas_reject_cascoded_cell() {
        let spec = DacSpec::paper_12bit();
        let cell = build_cascoded_cell(&spec, 0.4, 0.3, 0.5, 1);
        let _ = simple_bound_sigmas(&spec, &cell);
    }

    /// Monte-Carlo cross-check of the analytic lower-bound variance: draw
    /// device mismatches, recompute the bound, compare sigma.
    #[test]
    fn lower_bound_sigma_matches_monte_carlo() {
        let spec = DacSpec::paper_12bit();
        let vov_cs = 0.5;
        let vov_sw = 0.6;
        let cell = build_simple_cell(&spec, vov_cs, vov_sw, 1);
        let analytic = simple_bound_sigmas(&spec, &cell).lower;

        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let wl_cs = cell.cs().area();
        let wl_sw = cell.sw().area();
        let mut rng = seeded_rng(2024);
        let mut sampler = NormalSampler::new();
        let samples: Summary = (0..60_000)
            .map(|_| {
                let d_cs = pelgrom.draw(&mut rng, &mut sampler, wl_cs);
                let d_sw = pelgrom.draw(&mut rng, &mut sampler, wl_sw);
                // Current error from the CS threshold in the mirror:
                let di_rel = -2.0 * d_cs.delta_vt / vov_cs;
                // Overdrive shifts: β of the device itself + coherent δI/I.
                let dvov_cs = 0.5 * vov_cs * (di_rel - d_cs.delta_beta_rel);
                let dvov_sw = 0.5 * vov_sw * (di_rel - d_sw.delta_beta_rel);
                dvov_cs + dvov_sw + d_sw.delta_vt
            })
            .collect();
        let mc = samples.std_dev();
        assert!(
            ((mc - analytic) / analytic).abs() < 0.03,
            "MC sigma {mc}, analytic {analytic}"
        );
    }

    /// Monte-Carlo cross-check of the cascoded SW lower-bound variance
    /// (the eq. (12) expression with three coherent overdrive terms).
    #[test]
    fn cascoded_sw_lower_sigma_matches_monte_carlo() {
        let spec = DacSpec::paper_12bit();
        let (vov_cs, vov_cas, vov_sw) = (0.4, 0.3, 0.5);
        let cell = build_cascoded_cell(&spec, vov_cs, vov_cas, vov_sw, 1);
        let analytic = cascoded_bound_sigmas(&spec, &cell).sw_lower;

        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let wl_cs = cell.cs().area();
        let wl_cas = cell.cas().expect("cascode").area();
        let wl_sw = cell.sw().area();
        let mut rng = seeded_rng(777);
        let mut sampler = NormalSampler::new();
        let samples: Summary = (0..60_000)
            .map(|_| {
                let d_cs = pelgrom.draw(&mut rng, &mut sampler, wl_cs);
                let d_cas = pelgrom.draw(&mut rng, &mut sampler, wl_cas);
                let d_sw = pelgrom.draw(&mut rng, &mut sampler, wl_sw);
                let di_rel = -2.0 * d_cs.delta_vt / vov_cs;
                let dvov_cs = 0.5 * vov_cs * (di_rel - d_cs.delta_beta_rel);
                let dvov_cas = 0.5 * vov_cas * (di_rel - d_cas.delta_beta_rel);
                let dvov_sw = 0.5 * vov_sw * (di_rel - d_sw.delta_beta_rel);
                dvov_cs + dvov_cas + dvov_sw + d_sw.delta_vt
            })
            .collect();
        let mc = samples.std_dev();
        assert!(
            ((mc - analytic) / analytic).abs() < 0.03,
            "MC sigma {mc}, analytic {analytic}"
        );
    }

    /// Monte-Carlo cross-check of the cascode-gate lower bound
    /// (`V_OD,CS + V_T,CAS + V_OD,CAS`).
    #[test]
    fn cascoded_cas_lower_sigma_matches_monte_carlo() {
        let spec = DacSpec::paper_12bit();
        let (vov_cs, vov_cas, vov_sw) = (0.4, 0.3, 0.5);
        let cell = build_cascoded_cell(&spec, vov_cs, vov_cas, vov_sw, 1);
        let analytic = cascoded_bound_sigmas(&spec, &cell).cas_lower;

        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let wl_cs = cell.cs().area();
        let wl_cas = cell.cas().expect("cascode").area();
        let mut rng = seeded_rng(778);
        let mut sampler = NormalSampler::new();
        let samples: Summary = (0..60_000)
            .map(|_| {
                let d_cs = pelgrom.draw(&mut rng, &mut sampler, wl_cs);
                let d_cas = pelgrom.draw(&mut rng, &mut sampler, wl_cas);
                let di_rel = -2.0 * d_cs.delta_vt / vov_cs;
                let dvov_cs = 0.5 * vov_cs * (di_rel - d_cs.delta_beta_rel);
                let dvov_cas = 0.5 * vov_cas * (di_rel - d_cas.delta_beta_rel);
                dvov_cs + dvov_cas + d_cas.delta_vt
            })
            .collect();
        let mc = samples.std_dev();
        assert!(
            ((mc - analytic) / analytic).abs() < 0.03,
            "MC sigma {mc}, analytic {analytic}"
        );
    }

    /// Monte-Carlo cross-check of the upper-bound variance.
    #[test]
    fn upper_bound_sigma_matches_monte_carlo() {
        let spec = DacSpec::paper_12bit();
        let cell = build_simple_cell(&spec, 0.5, 0.6, 1);
        let analytic = simple_bound_sigmas(&spec, &cell).upper;

        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let wl_cs = cell.cs().area();
        let wl_sw = cell.sw().area();
        let sigma_fs = pelgrom.sigma_id_rel(wl_cs, 0.5) / (4096f64).sqrt();
        let mut rng = seeded_rng(99);
        let mut sampler = NormalSampler::new();
        let swing = spec.env.v_swing;
        let samples: Summary = (0..60_000)
            .map(|_| {
                let d_sw = pelgrom.draw(&mut rng, &mut sampler, wl_sw);
                let di = sampler.sample(&mut rng) * sigma_fs;
                let drl = sampler.sample(&mut rng) * spec.tech.sigma_rl_rel;
                -swing * (di + drl) + d_sw.delta_vt
            })
            .collect();
        let mc = samples.std_dev();
        assert!(
            ((mc - analytic) / analytic).abs() < 0.03,
            "MC sigma {mc}, analytic {analytic}"
        );
    }
}
