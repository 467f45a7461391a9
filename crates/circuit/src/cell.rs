//! Current-cell description: environment and sized devices.
//!
//! The cell is the NMOS stack of the paper's Fig. 2: a current-source (CS)
//! transistor at the bottom, an optional cascode (CAS), and a differential
//! switch (SW) pair on top whose drains connect through the load resistors
//! to `V_DD`. The output therefore swings *downwards* from `V_DD` by
//! `I·R_L`, and the minimum output voltage `V_out,min = V_DD − V_swing` is
//! the headroom budget the overdrives must fit into (paper eq. (4)).

use core::fmt;
use ctsdac_process::capacitance::DeviceCaps;
use ctsdac_process::mosfet::{aspect_for_current, Mosfet};
use ctsdac_process::Technology;

/// Electrical environment shared by every cell of the converter.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::CellEnvironment;
///
/// let env = CellEnvironment::paper_12bit();
/// assert_eq!(env.vdd, 3.3);
/// assert!((env.v_out_min() - 2.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellEnvironment {
    /// Supply voltage in V.
    pub vdd: f64,
    /// Full-scale single-ended output swing `I_FS·R_L` in V (the paper's
    /// `V_o`).
    pub v_swing: f64,
    /// Load resistance per output in Ω.
    pub rl: f64,
    /// Load capacitance at the output node in F.
    pub c_load: f64,
    /// Interconnect capacitance at the internal node (between switch & latch
    /// array and current-source array) in F.
    pub c_int: f64,
}

impl CellEnvironment {
    /// The environment of the paper's 12-bit design (§3): `V_DD` = 3.3 V,
    /// `V_o` = 1 V, `R_L` = 50 Ω, `C_int` = 100 fF, `C_L` = 2 pF (assumed —
    /// the OCR of the paper lost the digit; see `DESIGN.md`).
    pub fn paper_12bit() -> Self {
        Self {
            vdd: 3.3,
            v_swing: 1.0,
            rl: 50.0,
            c_load: 2e-12,
            c_int: 100e-15,
        }
    }

    /// Minimum voltage reached by the output node, `V_DD − V_swing`.
    pub fn v_out_min(&self) -> f64 {
        self.vdd - self.v_swing
    }

    /// Full-scale output current `V_swing / R_L`.
    pub fn full_scale_current(&self) -> f64 {
        self.v_swing / self.rl
    }

    /// Unit (LSB) current for an `n`-bit converter.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 24`.
    pub fn lsb_current(&self, n: u32) -> f64 {
        assert!((1..=24).contains(&n), "unsupported resolution {n}");
        self.full_scale_current() / (1u64 << n) as f64
    }

    /// Replaces the load capacitance.
    ///
    /// # Panics
    ///
    /// Panics if `c_load` is negative or non-finite.
    pub fn with_c_load(mut self, c_load: f64) -> Self {
        assert!(c_load.is_finite() && c_load >= 0.0, "invalid C_L {c_load}");
        self.c_load = c_load;
        self
    }
}

impl Default for CellEnvironment {
    fn default() -> Self {
        Self::paper_12bit()
    }
}

/// Which of the paper's Fig. 2 topologies the cell uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTopology {
    /// Fig. 2(a): CS + switch pair.
    Simple,
    /// Fig. 2(b): CS + cascode + switch pair.
    Cascoded,
}

impl fmt::Display for CellTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellTopology::Simple => write!(f, "CS+SW"),
            CellTopology::Cascoded => write!(f, "CS+CAS+SW"),
        }
    }
}

/// A fully sized current cell: devices, overdrives, and cell current.
///
/// Construct with [`SizedCell::simple_from_overdrives`] or
/// [`SizedCell::cascoded_from_overdrives`], which apply the paper's sizing
/// recipe: the CS gate area comes from the mismatch spec (supplied as
/// `cs_area`, already computed by the methodology crate), while SW and CAS
/// take minimum length ("to maximize the switching speed", §2) and the width
/// their overdrive dictates.
#[derive(Debug, Clone, PartialEq)]
pub struct SizedCell {
    topology: CellTopology,
    cs: Mosfet,
    sw: Mosfet,
    cas: Option<Mosfet>,
    i_unit: f64,
    vov_cs: f64,
    vov_sw: f64,
    vov_cas: Option<f64>,
    tech: Technology,
}

impl SizedCell {
    /// Builds a simple (Fig. 2(a)) cell.
    ///
    /// * `i_unit` — cell current in A.
    /// * `vov_cs`, `vov_sw` — overdrive voltages in V.
    /// * `cs_area` — CS gate area `W·L` in m² (from the mismatch spec).
    /// * `sw_length` — switch channel length; `None` means minimum length.
    ///
    /// # Panics
    ///
    /// Panics if any electrical argument is non-positive or non-finite.
    pub fn simple_from_overdrives(
        tech: &Technology,
        i_unit: f64,
        vov_cs: f64,
        vov_sw: f64,
        cs_area: f64,
        sw_length: Option<f64>,
    ) -> Self {
        let cs = size_device(tech, i_unit, vov_cs, Some(cs_area), None);
        let sw = size_device(tech, i_unit, vov_sw, None, sw_length);
        Self {
            topology: CellTopology::Simple,
            cs,
            sw,
            cas: None,
            i_unit,
            vov_cs,
            vov_sw,
            vov_cas: None,
            tech: *tech,
        }
    }

    /// Sizes just the CS device of a simple cell — the piece of
    /// [`SizedCell::simple_from_overdrives`] that depends only on
    /// `(i_unit, vov_cs, cs_area)`. Sweep kernels hoist this out of their
    /// per-point loop (the CS geometry is constant along a grid row) and
    /// assemble the full cell with [`SizedCell::simple_from_cs_device`].
    ///
    /// # Panics
    ///
    /// Panics if any argument is non-positive or non-finite.
    pub fn sized_cs_device(tech: &Technology, i_unit: f64, vov_cs: f64, cs_area: f64) -> Mosfet {
        size_device(tech, i_unit, vov_cs, Some(cs_area), None)
    }

    /// Assembles a simple cell from a pre-sized CS device plus a freshly
    /// sized minimum-length switch. When `cs` comes from
    /// [`SizedCell::sized_cs_device`] with the same `(i_unit, vov_cs)` pair,
    /// the result is field-for-field bit-identical to
    /// [`SizedCell::simple_from_overdrives`] — the constructor merely skips
    /// re-deriving the row-constant geometry.
    ///
    /// # Panics
    ///
    /// Panics if `i_unit` or `vov_sw` is non-positive or non-finite.
    pub fn simple_from_cs_device(
        tech: &Technology,
        i_unit: f64,
        cs: Mosfet,
        vov_cs: f64,
        vov_sw: f64,
    ) -> Self {
        let sw = size_device(tech, i_unit, vov_sw, None, None);
        Self::simple_from_devices(tech, i_unit, cs, sw, vov_cs, vov_sw)
    }

    /// Sizes just the minimum-length switch of a simple cell — the piece of
    /// [`SizedCell::simple_from_overdrives`] that depends only on
    /// `(i_unit, vov_sw)`. Sweep kernels hoist this per grid *column* (the
    /// switch geometry is constant down a column for a given cell weight)
    /// and assemble per-point cells with [`SizedCell::simple_from_devices`].
    ///
    /// # Panics
    ///
    /// Panics if `i_unit` or `vov_sw` is non-positive or non-finite.
    pub fn sized_sw_device(tech: &Technology, i_unit: f64, vov_sw: f64) -> Mosfet {
        size_device(tech, i_unit, vov_sw, None, None)
    }

    /// Assembles a simple cell from pre-sized CS and switch devices. When
    /// the devices come from [`SizedCell::sized_cs_device`] /
    /// [`SizedCell::sized_sw_device`] with the same `(i_unit, vov_cs,
    /// vov_sw)` triple, the result is field-for-field bit-identical to
    /// [`SizedCell::simple_from_overdrives`] — pure struct assembly, no
    /// sizing arithmetic at all.
    pub fn simple_from_devices(
        tech: &Technology,
        i_unit: f64,
        cs: Mosfet,
        sw: Mosfet,
        vov_cs: f64,
        vov_sw: f64,
    ) -> Self {
        Self {
            topology: CellTopology::Simple,
            cs,
            sw,
            cas: None,
            i_unit,
            vov_cs,
            vov_sw,
            vov_cas: None,
            tech: *tech,
        }
    }

    /// Builds a cascoded (Fig. 2(b)) cell. The cascode takes minimum length
    /// ("to minimise the CAS transistor area ... and the parasitic
    /// capacitance at the source of the switch", §2.2) unless `cas_length`
    /// is given.
    ///
    /// # Panics
    ///
    /// Panics if any electrical argument is non-positive or non-finite.
    #[allow(clippy::too_many_arguments)]
    pub fn cascoded_from_overdrives(
        tech: &Technology,
        i_unit: f64,
        vov_cs: f64,
        vov_cas: f64,
        vov_sw: f64,
        cs_area: f64,
        sw_length: Option<f64>,
        cas_length: Option<f64>,
    ) -> Self {
        let cs = size_device(tech, i_unit, vov_cs, Some(cs_area), None);
        let cas = size_device(tech, i_unit, vov_cas, None, cas_length);
        let sw = size_device(tech, i_unit, vov_sw, None, sw_length);
        Self::cascoded_from_devices(tech, i_unit, cs, cas, sw, vov_cs, vov_cas, vov_sw)
    }

    /// Assembles a cascoded cell from pre-sized CS, cascode and switch
    /// devices — the cascoded twin of [`SizedCell::simple_from_devices`].
    /// The cascode and the switch of a minimum-length cell are both sized
    /// by [`SizedCell::sized_sw_device`] (each depends only on its own
    /// overdrive), the CS by [`SizedCell::sized_cs_device`]. With devices
    /// from those two constructors at the same `(i_unit, vov_*)` values the
    /// result is field-for-field bit-identical to
    /// [`SizedCell::cascoded_from_overdrives`] with default lengths.
    #[allow(clippy::too_many_arguments)]
    pub fn cascoded_from_devices(
        tech: &Technology,
        i_unit: f64,
        cs: Mosfet,
        cas: Mosfet,
        sw: Mosfet,
        vov_cs: f64,
        vov_cas: f64,
        vov_sw: f64,
    ) -> Self {
        Self {
            topology: CellTopology::Cascoded,
            cs,
            sw,
            cas: Some(cas),
            i_unit,
            vov_cs,
            vov_sw,
            vov_cas: Some(vov_cas),
            tech: *tech,
        }
    }

    /// Cell topology.
    pub fn topology(&self) -> CellTopology {
        self.topology
    }

    /// The current-source transistor.
    pub fn cs(&self) -> &Mosfet {
        &self.cs
    }

    /// One switch transistor of the differential pair.
    pub fn sw(&self) -> &Mosfet {
        &self.sw
    }

    /// The cascode transistor, if the topology has one.
    pub fn cas(&self) -> Option<&Mosfet> {
        self.cas.as_ref()
    }

    /// Cell current in A.
    pub fn i_unit(&self) -> f64 {
        self.i_unit
    }

    /// CS overdrive voltage in V.
    pub fn vov_cs(&self) -> f64 {
        self.vov_cs
    }

    /// Switch overdrive voltage in V.
    pub fn vov_sw(&self) -> f64 {
        self.vov_sw
    }

    /// Cascode overdrive voltage in V, if present.
    pub fn vov_cas(&self) -> Option<f64> {
        self.vov_cas
    }

    /// The technology the cell was sized in.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Sum of the overdrives that must fit inside `V_out,min`
    /// (left-hand side of the paper's eq. (4)/(11)).
    pub fn overdrive_sum(&self) -> f64 {
        self.vov_cs + self.vov_sw + self.vov_cas.unwrap_or(0.0)
    }

    /// True if the overdrive budget fits the headroom *with no margin*
    /// (paper eq. (4) and its cascoded analogue).
    pub fn is_feasible(&self, env: &CellEnvironment) -> bool {
        self.overdrive_sum() <= env.v_out_min()
    }

    /// Total active gate area of the cell: CS + both switches + cascode.
    pub fn total_area(&self) -> f64 {
        self.cs.area()
            + 2.0 * self.sw.area()
            + self.cas.as_ref().map_or(0.0, |c| c.area())
    }

    /// Parasitics of the CS device.
    pub fn cs_caps(&self) -> DeviceCaps {
        DeviceCaps::of(&self.tech, &self.cs)
    }

    /// Parasitics of one switch device.
    pub fn sw_caps(&self) -> DeviceCaps {
        DeviceCaps::of(&self.tech, &self.sw)
    }

    /// Parasitics of the cascode device, if present.
    pub fn cas_caps(&self) -> Option<DeviceCaps> {
        self.cas.as_ref().map(|c| DeviceCaps::of(&self.tech, c))
    }
}

impl fmt::Display for SizedCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cell @ {:.3} uA: CS {:.2}x{:.2} um, SW {:.2}x{:.2} um",
            self.topology,
            self.i_unit * 1e6,
            self.cs.w() * 1e6,
            self.cs.l() * 1e6,
            self.sw.w() * 1e6,
            self.sw.l() * 1e6
        )?;
        if let Some(cas) = &self.cas {
            write!(f, ", CAS {:.2}x{:.2} um", cas.w() * 1e6, cas.l() * 1e6)?;
        }
        Ok(())
    }
}

/// Sizes one NMOS of the cell from its current and overdrive.
///
/// * With `area` given (the CS case): `W·L` is fixed by mismatch and `W/L`
///   by the current, so `W = √(WL·(W/L))`, `L = √(WL/(W/L))`.
/// * Without `area` (SW / CAS): `L` is the supplied or minimum length and
///   `W = (W/L)·L`, clamped to the technology's minimum width.
fn size_device(
    tech: &Technology,
    i_unit: f64,
    vov: f64,
    area: Option<f64>,
    length: Option<f64>,
) -> Mosfet {
    assert!(i_unit.is_finite() && i_unit > 0.0, "invalid current {i_unit}");
    assert!(vov.is_finite() && vov > 0.0, "invalid overdrive {vov}");
    let aspect = aspect_for_current(&tech.nmos, i_unit, vov);
    match area {
        Some(wl) => {
            assert!(wl.is_finite() && wl > 0.0, "invalid gate area {wl}");
            let w = (wl * aspect).sqrt();
            let l = (wl / aspect).sqrt();
            Mosfet::nmos(tech, w.max(tech.w_min), l.max(tech.l_min))
        }
        None => {
            let l = length.unwrap_or(tech.l_min);
            assert!(l.is_finite() && l > 0.0, "invalid length {l}");
            let w = (aspect * l).max(tech.w_min);
            Mosfet::nmos(tech, w, l)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> CellEnvironment {
        CellEnvironment::paper_12bit()
    }

    #[test]
    fn paper_environment_constants() {
        let e = env();
        assert_eq!(e.rl, 50.0);
        assert!((e.full_scale_current() - 20e-3).abs() < 1e-12);
        // 12-bit LSB current: 20 mA / 4096 ≈ 4.88 µA.
        assert!((e.lsb_current(12) - 4.8828e-6).abs() < 1e-9);
    }

    #[test]
    fn simple_cell_respects_area_and_aspect() {
        let tech = Technology::c035();
        let cell =
            SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        let cs = cell.cs();
        assert!((cs.area() - 400e-12).abs() / 400e-12 < 1e-9);
        // Aspect ratio must reproduce the current at the requested overdrive.
        assert!((cs.id_saturation(0.5) - 78.1e-6).abs() / 78.1e-6 < 1e-9);
    }

    #[test]
    fn switch_takes_minimum_length_by_default() {
        let tech = Technology::c035();
        let cell =
            SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        assert_eq!(cell.sw().l(), tech.l_min);
        assert!((cell.sw().id_saturation(0.6) - 78.1e-6).abs() / 78.1e-6 < 1e-9
            || cell.sw().w() == tech.w_min);
    }

    #[test]
    fn cascoded_cell_has_three_devices() {
        let tech = Technology::c035();
        let cell = SizedCell::cascoded_from_overdrives(
            &tech, 78.1e-6, 0.4, 0.3, 0.5, 400e-12, None, None,
        );
        assert_eq!(cell.topology(), CellTopology::Cascoded);
        assert!(cell.cas().is_some());
        assert!((cell.overdrive_sum() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn cascoded_cell_from_presized_devices_is_bit_identical() {
        let tech = Technology::c035();
        let (i, cs, cas, sw) = (78.1e-6, 0.4, 0.3, 0.5);
        let direct =
            SizedCell::cascoded_from_overdrives(&tech, i, cs, cas, sw, 400e-12, None, None);
        let assembled = SizedCell::cascoded_from_devices(
            &tech,
            i,
            SizedCell::sized_cs_device(&tech, i, cs, 400e-12),
            SizedCell::sized_sw_device(&tech, i, cas),
            SizedCell::sized_sw_device(&tech, i, sw),
            cs,
            cas,
            sw,
        );
        assert_eq!(assembled, direct);
    }

    #[test]
    fn feasibility_matches_eq4() {
        let tech = Technology::c035();
        let e = env(); // V_out,min = 2.3 V
        let ok = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 1.0, 1.0, 400e-12, None);
        assert!(ok.is_feasible(&e));
        let bad =
            SizedCell::simple_from_overdrives(&tech, 78.1e-6, 1.5, 1.0, 400e-12, None);
        assert!(!bad.is_feasible(&e));
    }

    #[test]
    fn total_area_counts_both_switches() {
        let tech = Technology::c035();
        let cell =
            SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        let expected = cell.cs().area() + 2.0 * cell.sw().area();
        assert!((cell.total_area() - expected).abs() < 1e-24);
    }

    #[test]
    fn tiny_current_clamps_to_minimum_width() {
        let tech = Technology::c035();
        // A 10 nA cell at high overdrive would want a sub-minimum switch.
        let cell = SizedCell::simple_from_overdrives(&tech, 10e-9, 0.3, 0.8, 1e-12, None);
        assert!(cell.sw().w() >= tech.w_min);
    }

    #[test]
    #[should_panic(expected = "invalid overdrive")]
    fn zero_overdrive_rejected() {
        let tech = Technology::c035();
        let _ = SizedCell::simple_from_overdrives(&tech, 1e-6, 0.0, 0.5, 1e-12, None);
    }

    #[test]
    fn display_mentions_topology() {
        let tech = Technology::c035();
        let cell =
            SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        assert!(cell.to_string().contains("CS+SW"));
    }

    #[test]
    #[should_panic(expected = "unsupported resolution")]
    fn lsb_current_rejects_zero_bits() {
        let _ = env().lsb_current(0);
    }
}
