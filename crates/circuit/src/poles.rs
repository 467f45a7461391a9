//! The two-pole small-signal model of the paper's eq. (13).
//!
//! Settling of the current cell is approximated by two real poles:
//!
//! * `p₁ = 1/(2π·R_L·(C_L + C_drain,tot))` — the output node, loaded by the
//!   external capacitance plus the drain junctions of *every* switch
//!   connected to that output (so it scales with total switch width);
//! * `p₂ = (g_m,SW + g_mb,SW)/(2π·(C_drain,CS + C_GS,SW + C_int))` — the
//!   internal node, discharged through the switch source.
//!
//! The slower pole dominates the settling time; both frequencies are
//! functions of the two (three) overdrive voltages only, which is what makes
//! the paper's design-space pictures (Fig. 3 lower) possible.

use crate::bias::{BiasError, OptimumBias};
use crate::cell::{CellEnvironment, CellTopology, SizedCell};
use core::fmt;

/// The two pole frequencies, in Hz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoPoles {
    /// Output-node pole in Hz.
    pub p1_hz: f64,
    /// Internal-node pole in Hz (for the cascoded cell, the slower of the
    /// two internal nodes).
    pub p2_hz: f64,
}

impl TwoPoles {
    /// The slower (dominant) pole frequency.
    pub fn dominant_hz(&self) -> f64 {
        self.p1_hz.min(self.p2_hz)
    }

    /// Time constant of the dominant pole, `τ = 1/(2π·p)`.
    pub fn dominant_tau(&self) -> f64 {
        1.0 / (2.0 * core::f64::consts::PI * self.dominant_hz())
    }

    /// Time constants `(τ₁, τ₂)` of both poles.
    pub fn taus(&self) -> (f64, f64) {
        let two_pi = 2.0 * core::f64::consts::PI;
        (1.0 / (two_pi * self.p1_hz), 1.0 / (two_pi * self.p2_hz))
    }

    /// True when both time constants are finite and strictly positive —
    /// the precondition of the settling solvers, which panic otherwise.
    pub fn has_valid_taus(&self) -> bool {
        let (t1, t2) = self.taus();
        t1.is_finite() && t1 > 0.0 && t2.is_finite() && t2 > 0.0
    }
}

impl fmt::Display for TwoPoles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p1 = {:.3} MHz, p2 = {:.3} MHz",
            self.p1_hz / 1e6,
            self.p2_hz / 1e6
        )
    }
}

/// Pole model of a sized cell inside the full converter.
///
/// `n_cells_at_output` is the number of switch drains hanging on one output
/// line — for the paper's segmented 12-bit DAC that is the 255 unary cells
/// plus the binary cells, i.e. every cell contributes one switch drain per
/// output polarity.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::cell::{CellEnvironment, SizedCell};
/// use ctsdac_circuit::poles::PoleModel;
/// use ctsdac_process::Technology;
///
/// let tech = Technology::c035();
/// let env = CellEnvironment::paper_12bit();
/// let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
/// let poles = PoleModel::new(259).poles(&cell, &env)?;
/// assert!(poles.p1_hz > 1e6 && poles.p2_hz > 1e6);
/// # Ok::<(), ctsdac_circuit::bias::BiasError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoleModel {
    n_cells_at_output: usize,
}

impl PoleModel {
    /// Creates the model for a converter with `n_cells_at_output` switch
    /// drains per output node.
    ///
    /// # Panics
    ///
    /// Panics if `n_cells_at_output == 0`.
    pub fn new(n_cells_at_output: usize) -> Self {
        assert!(n_cells_at_output > 0, "at least one cell drives the output");
        Self { n_cells_at_output }
    }

    /// Number of switch drains per output node.
    pub fn n_cells_at_output(&self) -> usize {
        self.n_cells_at_output
    }

    /// Evaluates eq. (13) for the given cell.
    ///
    /// # Errors
    ///
    /// [`BiasError::Infeasible`] if the cell is infeasible in `env` (the
    /// bias point would not exist); [`BiasError::MissingCascode`] for an
    /// inconsistently built cascoded cell.
    pub fn poles(&self, cell: &SizedCell, env: &CellEnvironment) -> Result<TwoPoles, BiasError> {
        let opt = OptimumBias::of(cell, env)?;
        self.poles_with_bias(cell, env, &opt)
    }

    /// Evaluates eq. (13) with an already-computed optimum bias, so hot
    /// loops that need both the bias point and the poles solve the bias
    /// fixed point once. `opt` must be the [`OptimumBias::of`] result for
    /// the same `(cell, env)` pair.
    ///
    /// # Errors
    ///
    /// [`BiasError::MissingCascode`] for an inconsistently built cascoded
    /// cell.
    pub fn poles_with_bias(
        &self,
        cell: &SizedCell,
        env: &CellEnvironment,
        opt: &OptimumBias,
    ) -> Result<TwoPoles, BiasError> {
        let two_pi = 2.0 * core::f64::consts::PI;
        let sw_caps = cell.sw_caps();
        // Output node: load + every switch drain junction (+ overlap).
        let c_drain_tot = self.n_cells_at_output as f64 * (sw_caps.cdb + sw_caps.cgd);
        let p1 = 1.0 / (two_pi * env.rl * (env.c_load + c_drain_tot));

        let id = cell.i_unit();
        let gm_sw = cell.sw().gm(id, cell.vov_sw())
            + cell.sw().gmb(id, cell.vov_sw(), opt.v_node_b.max(0.0));
        let p2 = match cell.topology() {
            CellTopology::Simple => {
                let c_int_node = cell.cs_caps().cdb + sw_caps.cgs + env.c_int;
                gm_sw / (two_pi * c_int_node)
            }
            CellTopology::Cascoded => {
                let (Some(cas), Some(cas_caps), Some(vov_cas)) =
                    (cell.cas(), cell.cas_caps(), cell.vov_cas())
                else {
                    return Err(BiasError::MissingCascode);
                };
                // Node B (cascode drain / switch source): discharged by the
                // switch; carries the array interconnect.
                let c_node_b = cas_caps.cdb + sw_caps.cgs + env.c_int;
                let p_node_b = gm_sw / (two_pi * c_node_b);
                // Node A (CS drain / cascode source): discharged by the
                // cascode.
                let gm_cas = cas.gm(id, vov_cas) + cas.gmb(id, vov_cas, opt.v_node_a.max(0.0));
                let c_node_a = cell.cs_caps().cdb + cas_caps.cgs;
                let p_node_a = gm_cas / (two_pi * c_node_a);
                p_node_b.min(p_node_a)
            }
        };
        Ok(TwoPoles {
            p1_hz: p1,
            p2_hz: p2,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_process::Technology;

    fn paper_cell(vov_cs: f64, vov_sw: f64) -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, vov_cs, vov_sw, 400e-12, None);
        (cell, env)
    }

    #[test]
    fn pole_frequencies_are_physical() {
        let (cell, env) = paper_cell(0.5, 0.6);
        let poles = PoleModel::new(259).poles(&cell, &env).expect("feasible");
        // p1 with 2 pF into 50 Ω is ~1.6 GHz before drain loading; with the
        // drains somewhat lower. Both poles must land between 10 MHz and
        // 100 GHz for any sane sizing.
        assert!(poles.p1_hz > 1e7 && poles.p1_hz < 1e11, "{poles}");
        assert!(poles.p2_hz > 1e7 && poles.p2_hz < 1e12, "{poles}");
    }

    #[test]
    fn p1_upper_bound_is_rc_of_load_alone() {
        let (cell, env) = paper_cell(0.5, 0.6);
        let poles = PoleModel::new(259).poles(&cell, &env).expect("feasible");
        let rc_only = 1.0 / (2.0 * core::f64::consts::PI * env.rl * env.c_load);
        assert!(poles.p1_hz < rc_only);
    }

    #[test]
    fn more_cells_slow_the_output_pole() {
        let (cell, env) = paper_cell(0.5, 0.6);
        let few = PoleModel::new(16).poles(&cell, &env).expect("feasible");
        let many = PoleModel::new(4096).poles(&cell, &env).expect("feasible");
        assert!(many.p1_hz < few.p1_hz);
        // The internal pole is per-cell and must not change.
        assert!((many.p2_hz - few.p2_hz).abs() / few.p2_hz < 1e-12);
    }

    #[test]
    fn higher_switch_overdrive_speeds_internal_pole() {
        // Larger V_OD,SW means a smaller switch (less C_GS) but lower gm at
        // fixed current (gm = 2I/Vov)... the paper's trade-off. With C_int
        // dominating, gm wins: check the direction with C_int large.
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let slow = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.9, 400e-12, None);
        let fast = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.3, 400e-12, None);
        let model = PoleModel::new(259);
        let p_slow = model.poles(&slow, &env).expect("feasible").p2_hz;
        let p_fast = model.poles(&fast, &env).expect("feasible").p2_hz;
        assert!(
            p_fast > p_slow,
            "gm-dominated regime: lower V_OD,SW should be faster ({p_fast} vs {p_slow})"
        );
    }

    #[test]
    fn dominant_pole_and_tau_are_consistent() {
        let (cell, env) = paper_cell(0.5, 0.6);
        let poles = PoleModel::new(259).poles(&cell, &env).expect("feasible");
        let tau = poles.dominant_tau();
        assert!((tau * 2.0 * core::f64::consts::PI * poles.dominant_hz() - 1.0).abs() < 1e-12);
        let (t1, t2) = poles.taus();
        assert!((tau - t1.max(t2)).abs() < 1e-18);
    }

    #[test]
    fn cascoded_cell_has_two_internal_nodes() {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cascoded =
            SizedCell::cascoded_from_overdrives(&tech, 78.1e-6, 0.4, 0.3, 0.5, 400e-12, None, None);
        let poles = PoleModel::new(259)
            .poles(&cascoded, &env)
            .expect("feasible");
        assert!(poles.p2_hz.is_finite() && poles.p2_hz > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_cells_rejected() {
        let _ = PoleModel::new(0);
    }
}
