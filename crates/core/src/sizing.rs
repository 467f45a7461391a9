//! CS transistor sizing from the mismatch budget (paper eq. (2)) and
//! construction of fully sized cells.
//!
//! Two independent constraints pin the CS geometry completely:
//!
//! * the mismatch budget fixes the gate *area*:
//!   `(W·L)_CS = (A_β² + 4·A_VT²/V_ov²) / σ²(I/I)`;
//! * the square law fixes the *aspect ratio* at the chosen overdrive:
//!   `(W/L)_CS = 2·I / (K'·V_ov²)`.
//!
//! "The same aspect ratio can be obtained for different areas W·L, except
//! for the CS transistor, because the usual INL-mismatch specification
//! eliminates one degree of freedom" (§2). The switch (and cascode) keep
//! minimum length and take the width their overdrive dictates.

use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::cell::SizedCell;
use ctsdac_process::mosfet::aspect_for_current;
use ctsdac_process::Pelgrom;

/// The sized CS transistor of the LSB unit source.
///
/// # Examples
///
/// ```
/// use ctsdac_core::{CsSizing, DacSpec};
///
/// let spec = DacSpec::paper_12bit();
/// let cs = CsSizing::for_spec(&spec, 0.5);
/// // 12-bit at 99.7 % yield needs a few hundred µm² of CS gate area.
/// assert!(cs.area() * 1e12 > 100.0 && cs.area() * 1e12 < 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsSizing {
    w: f64,
    l: f64,
    vov: f64,
    sigma_target: f64,
}

impl CsSizing {
    /// Sizes the LSB-unit CS transistor for `spec` at overdrive `vov_cs`
    /// (paper eq. (2)).
    ///
    /// # Panics
    ///
    /// Panics if `vov_cs` is not finite and strictly positive.
    pub fn for_spec(spec: &DacSpec, vov_cs: f64) -> Self {
        assert!(
            vov_cs.is_finite() && vov_cs > 0.0,
            "invalid overdrive {vov_cs}"
        );
        let sigma = spec.sigma_unit_spec();
        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let wl = pelgrom.required_area(vov_cs, sigma);
        let aspect = aspect_for_current(&spec.tech.nmos, spec.i_lsb(), vov_cs);
        Self {
            w: (wl * aspect).sqrt(),
            l: (wl / aspect).sqrt(),
            vov: vov_cs,
            sigma_target: sigma,
        }
    }

    /// Channel width in m.
    pub fn w(&self) -> f64 {
        self.w
    }

    /// Channel length in m.
    pub fn l(&self) -> f64 {
        self.l
    }

    /// Gate area `W·L` in m².
    pub fn area(&self) -> f64 {
        self.w * self.l
    }

    /// Aspect ratio `W/L`.
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }

    /// Design overdrive in V.
    pub fn vov(&self) -> f64 {
        self.vov
    }

    /// The σ(I)/I target the area was derived from.
    pub fn sigma_target(&self) -> f64 {
        self.sigma_target
    }
}

impl fmt::Display for CsSizing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CS {:.2} x {:.2} um (Vov = {:.2} V, sigma = {:.3}%)",
            self.w * 1e6,
            self.l * 1e6,
            self.vov,
            self.sigma_target * 100.0
        )
    }
}

/// Builds a simple-topology cell of the given LSB `weight` (1 for the LSB
/// cell, `2^b` for a unary cell). The CS is `weight` parallel LSB units
/// (same L, width scaled), matching the sub-unit layout style of §4.
///
/// # Panics
///
/// Panics if `weight == 0` or the overdrives are invalid.
pub fn build_simple_cell(spec: &DacSpec, vov_cs: f64, vov_sw: f64, weight: u64) -> SizedCell {
    assert!(weight > 0, "cell weight must be at least 1");
    let unit = CsSizing::for_spec(spec, vov_cs);
    let k = weight as f64;
    SizedCell::simple_from_overdrives(
        &spec.tech,
        spec.i_lsb() * k,
        vov_cs,
        vov_sw,
        unit.area() * k, // k parallel units: area × k, aspect × k ⇒ W × k, L unchanged
        None,
    )
}

/// Builds a simple-topology cell from an already-computed LSB CS sizing —
/// the hot-loop variant of [`build_simple_cell`]. The CS sizing depends on
/// `vov_cs` only, so one [`CsSizing`] serves a whole sweep row of switch
/// overdrives. Bit-identical to [`build_simple_cell`] when `unit` is
/// `CsSizing::for_spec(spec, vov_cs)`.
///
/// # Panics
///
/// Panics if `weight == 0` or `vov_sw` is invalid.
pub fn build_simple_cell_with_unit(
    spec: &DacSpec,
    unit: &CsSizing,
    vov_sw: f64,
    weight: u64,
) -> SizedCell {
    assert!(weight > 0, "cell weight must be at least 1");
    let k = weight as f64;
    SizedCell::simple_from_overdrives(
        &spec.tech,
        spec.i_lsb() * k,
        unit.vov(),
        vov_sw,
        unit.area() * k,
        None,
    )
}

/// Sizes the CS device of a weight-`weight` simple cell from an
/// already-computed LSB CS sizing. The geometry depends only on
/// `(vov_cs, weight)`, so lane-batched sweep rows compute it once per row
/// per weight and assemble per-point cells with
/// [`build_simple_cell_with_cs`]. Bit-identical to the CS device inside
/// [`build_simple_cell_with_unit`] at the same arguments.
///
/// # Panics
///
/// Panics if `weight == 0`.
pub fn sized_cs_with_unit(
    spec: &DacSpec,
    unit: &CsSizing,
    weight: u64,
) -> ctsdac_process::mosfet::Mosfet {
    assert!(weight > 0, "cell weight must be at least 1");
    let k = weight as f64;
    SizedCell::sized_cs_device(&spec.tech, spec.i_lsb() * k, unit.vov(), unit.area() * k)
}

/// Assembles a simple cell around a row-constant CS device from
/// [`sized_cs_with_unit`] — the lane-kernel variant of
/// [`build_simple_cell_with_unit`], bit-identical to it when `cs` was sized
/// for the same `(spec, unit, weight)` triple.
///
/// # Panics
///
/// Panics if `weight == 0` or `vov_sw` is invalid.
pub fn build_simple_cell_with_cs(
    spec: &DacSpec,
    unit: &CsSizing,
    cs: &ctsdac_process::mosfet::Mosfet,
    vov_sw: f64,
    weight: u64,
) -> SizedCell {
    assert!(weight > 0, "cell weight must be at least 1");
    let k = weight as f64;
    SizedCell::simple_from_cs_device(&spec.tech, spec.i_lsb() * k, *cs, unit.vov(), vov_sw)
}

/// Sizes the switch device of a weight-`weight` simple cell. The geometry
/// depends only on `(vov_sw, weight)`, so lane-batched sweeps compute it
/// once per grid *column* per weight and assemble per-point cells with
/// [`build_simple_cell_with_devices`]. Bit-identical to the switch inside
/// [`build_simple_cell_with_unit`] at the same arguments.
///
/// # Panics
///
/// Panics if `weight == 0` or `vov_sw` is invalid.
pub fn sized_sw_with_weight(
    spec: &DacSpec,
    vov_sw: f64,
    weight: u64,
) -> ctsdac_process::mosfet::Mosfet {
    assert!(weight > 0, "cell weight must be at least 1");
    let k = weight as f64;
    SizedCell::sized_sw_device(&spec.tech, spec.i_lsb() * k, vov_sw)
}

/// Assembles a simple cell from a row-constant CS device and a
/// column-constant switch device — pure struct assembly, bit-identical to
/// [`build_simple_cell_with_unit`] when both devices were sized for the
/// same `(spec, unit, vov_sw, weight)`.
///
/// # Panics
///
/// Panics if `weight == 0`.
pub fn build_simple_cell_with_devices(
    spec: &DacSpec,
    unit: &CsSizing,
    cs: &ctsdac_process::mosfet::Mosfet,
    sw: &ctsdac_process::mosfet::Mosfet,
    vov_sw: f64,
    weight: u64,
) -> SizedCell {
    assert!(weight > 0, "cell weight must be at least 1");
    let k = weight as f64;
    SizedCell::simple_from_devices(&spec.tech, spec.i_lsb() * k, *cs, *sw, unit.vov(), vov_sw)
}

/// Total analog gate area from an already-built weight-1 LSB cell — the
/// hot-loop variant of [`total_analog_area_simple`], for callers that have
/// the LSB cell in hand anyway (e.g. for the statistical margin sigmas).
/// Bit-identical to [`total_analog_area_simple`] at the same overdrives.
pub fn total_analog_area_from_lsb(spec: &DacSpec, lsb_cell: &SizedCell) -> f64 {
    let units = (spec.lsb_unit_count() - 1) as f64;
    units * lsb_cell.total_area()
}

/// Total analog gate area from the weight-1 LSB device gate areas alone —
/// the lane-sweep variant of [`total_analog_area_from_lsb`] for callers
/// that never assemble the LSB [`SizedCell`]. The sum replicates
/// [`SizedCell::total_area`] on a simple (cascode-free) cell term by term,
/// so it is bit-identical to the cell-based form.
pub fn total_analog_area_from_geometry(spec: &DacSpec, wl_cs: f64, wl_sw: f64) -> f64 {
    let units = (spec.lsb_unit_count() - 1) as f64;
    units * (wl_cs + 2.0 * wl_sw + 0.0)
}

/// [`total_analog_area_cascoded`] from the weight-1 LSB device gate areas
/// alone — the table-driven volume search's variant. The sum replicates
/// [`SizedCell::total_area`] on a cascoded cell term by term, so it is
/// bit-identical to the cell-based form.
pub fn total_analog_area_cascoded_from_geometry(
    spec: &DacSpec,
    wl_cs: f64,
    wl_cas: f64,
    wl_sw: f64,
) -> f64 {
    let units = (spec.lsb_unit_count() - 1) as f64;
    units * (wl_cs + 2.0 * wl_sw + wl_cas)
}

/// Builds a cascoded-topology cell of the given LSB `weight`.
///
/// # Panics
///
/// Panics if `weight == 0` or the overdrives are invalid.
pub fn build_cascoded_cell(
    spec: &DacSpec,
    vov_cs: f64,
    vov_cas: f64,
    vov_sw: f64,
    weight: u64,
) -> SizedCell {
    assert!(weight > 0, "cell weight must be at least 1");
    let unit = CsSizing::for_spec(spec, vov_cs);
    let k = weight as f64;
    SizedCell::cascoded_from_overdrives(
        &spec.tech,
        spec.i_lsb() * k,
        vov_cs,
        vov_cas,
        vov_sw,
        unit.area() * k,
        None,
        None,
    )
}

/// Total analog gate area of the converter for a simple-topology sizing:
/// the sum over all `2ⁿ − 1` LSB equivalents of CS plus switch area.
///
/// Used as the area objective of the paper's Fig. 3 exploration.
pub fn total_analog_area_simple(spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> f64 {
    let lsb_cell = build_simple_cell(spec, vov_cs, vov_sw, 1);
    let units = (spec.lsb_unit_count() - 1) as f64;
    // CS area scales exactly with the unit count; the switch area scales
    // with current (width) at fixed length, so also linearly.
    units * lsb_cell.total_area()
}

/// Total analog gate area for a cascoded-topology sizing.
pub fn total_analog_area_cascoded(
    spec: &DacSpec,
    vov_cs: f64,
    vov_cas: f64,
    vov_sw: f64,
) -> f64 {
    let lsb_cell = build_cascoded_cell(spec, vov_cs, vov_cas, vov_sw, 1);
    let units = (spec.lsb_unit_count() - 1) as f64;
    units * lsb_cell.total_area()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_process::Pelgrom;

    #[test]
    fn sizing_meets_sigma_target() {
        let spec = DacSpec::paper_12bit();
        let cs = CsSizing::for_spec(&spec, 0.5);
        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let achieved = pelgrom.sigma_id_rel(cs.area(), 0.5);
        assert!(
            ((achieved - cs.sigma_target()) / cs.sigma_target()).abs() < 1e-9,
            "achieved {achieved}, target {}",
            cs.sigma_target()
        );
    }

    #[test]
    fn sizing_conducts_lsb_current() {
        let spec = DacSpec::paper_12bit();
        let cs = CsSizing::for_spec(&spec, 0.5);
        // I = ½ K' (W/L) Vov²
        let i = 0.5 * spec.tech.nmos.kp * cs.aspect() * 0.25;
        assert!(((i - spec.i_lsb()) / spec.i_lsb()).abs() < 1e-9);
    }

    #[test]
    fn cs_is_long_and_narrow_for_high_resolution() {
        // A 12-bit LSB source in 0.35 µm is a long device: the tiny current
        // wants W/L ≪ 1 while matching wants hundreds of µm².
        let spec = DacSpec::paper_12bit();
        let cs = CsSizing::for_spec(&spec, 0.5);
        assert!(cs.aspect() < 1.0, "aspect = {}", cs.aspect());
        assert!(cs.l() > cs.w());
    }

    #[test]
    fn higher_overdrive_shrinks_cs_area() {
        let spec = DacSpec::paper_12bit();
        let lo = CsSizing::for_spec(&spec, 0.2);
        let hi = CsSizing::for_spec(&spec, 0.8);
        assert!(lo.area() > hi.area());
    }

    #[test]
    fn weighted_cell_is_parallel_units() {
        let spec = DacSpec::paper_12bit();
        let unit = build_simple_cell(&spec, 0.5, 0.6, 1);
        let unary = build_simple_cell(&spec, 0.5, 0.6, 16);
        // Same length, 16× width, 16× current.
        assert!((unary.cs().l() - unit.cs().l()).abs() / unit.cs().l() < 1e-9);
        assert!((unary.cs().w() / unit.cs().w() - 16.0).abs() < 1e-9);
        assert!((unary.i_unit() / unit.i_unit() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn unary_cell_mismatch_improves_with_weight() {
        // 16 parallel units average their errors: σ_rel drops by √16 = 4.
        let spec = DacSpec::paper_12bit();
        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let unit = build_simple_cell(&spec, 0.5, 0.6, 1);
        let unary = build_simple_cell(&spec, 0.5, 0.6, 16);
        let s_unit = pelgrom.sigma_id_rel(unit.cs().area(), 0.5);
        let s_unary = pelgrom.sigma_id_rel(unary.cs().area(), 0.5);
        assert!((s_unit / s_unary - 4.0).abs() < 1e-6);
    }

    #[test]
    fn total_area_scales_with_resolution() {
        let base = DacSpec::paper_12bit();
        let s10 = DacSpec::new(10, 4, 0.997, base.env, base.tech);
        let s12 = base;
        let a10 = total_analog_area_simple(&s10, 0.5, 0.6);
        let a12 = total_analog_area_simple(&s12, 0.5, 0.6);
        // Two more bits: 4× the units *and* 4× the per-unit area (tighter
        // sigma) minus the 4× smaller unit current in the aspect — net
        // strictly larger.
        assert!(a12 > 4.0 * a10, "a12 = {a12}, a10 = {a10}");
    }

    #[test]
    fn geometry_area_is_bit_identical_to_cell_area() {
        let spec = DacSpec::paper_12bit();
        for (vov_cs, vov_sw) in [(0.3, 0.4), (0.5, 0.6), (1.1, 0.9)] {
            let lsb = build_simple_cell(&spec, vov_cs, vov_sw, 1);
            assert_eq!(
                total_analog_area_from_lsb(&spec, &lsb).to_bits(),
                total_analog_area_from_geometry(&spec, lsb.cs().area(), lsb.sw().area())
                    .to_bits(),
            );
        }
    }

    #[test]
    fn cascoded_geometry_area_is_bit_identical_to_cell_area() {
        let spec = DacSpec::paper_12bit();
        for (cs, cas, sw) in [(0.3, 0.2, 0.4), (0.5, 0.45, 0.6), (1.1, 0.1, 0.9)] {
            let lsb = build_cascoded_cell(&spec, cs, cas, sw, 1);
            let wl_cas = lsb.cas().map_or(f64::NAN, |c| c.area());
            assert_eq!(
                total_analog_area_cascoded(&spec, cs, cas, sw).to_bits(),
                total_analog_area_cascoded_from_geometry(
                    &spec,
                    lsb.cs().area(),
                    wl_cas,
                    lsb.sw().area()
                )
                .to_bits(),
            );
        }
    }

    #[test]
    fn cascoded_cell_builder_works() {
        let spec = DacSpec::paper_12bit();
        let cell = build_cascoded_cell(&spec, 0.4, 0.3, 0.5, 16);
        assert!(cell.cas().is_some());
        assert!((cell.i_unit() - spec.i_unary()).abs() / spec.i_unary() < 1e-9);
    }

    #[test]
    fn hoisted_cs_build_is_bit_identical_to_the_direct_build() {
        // The lane kernel assembles cells from a row-constant CS device;
        // that path must reproduce the direct builder field for field.
        let spec = DacSpec::paper_12bit();
        let unit = CsSizing::for_spec(&spec, 0.42);
        for weight in [1u64, 16] {
            let cs = sized_cs_with_unit(&spec, &unit, weight);
            for vov_sw in [0.2, 0.45, 0.7] {
                let hoisted = build_simple_cell_with_cs(&spec, &unit, &cs, vov_sw, weight);
                let direct = build_simple_cell_with_unit(&spec, &unit, vov_sw, weight);
                assert_eq!(hoisted, direct);
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight must be at least 1")]
    fn zero_weight_rejected() {
        let spec = DacSpec::paper_12bit();
        let _ = build_simple_cell(&spec, 0.5, 0.6, 0);
    }
}
