//! Gate-voltage bounds and optimum bias points (paper eq. (3), (5), (10)).
//!
//! For the ON switch of the simple cell the gate voltage `V_g` must satisfy
//! the two-sided condition of eq. (3):
//!
//! ```text
//! V_OD,CS + V_OD,SW + V_T,SW  ≤  V_g  ≤  V_out,min + V_T,SW
//! ```
//!
//! (lower bound: CS stays saturated; upper bound: SW stays saturated at the
//! lowest output voltage). A solution exists iff
//! `V_OD,CS + V_OD,SW ≤ V_out,min` — eq. (4). The optimum, eq. (5), places
//! the gate mid-way so the slack splits evenly between the two devices,
//! maximising the DC output impedance. The cascoded cell stacks one more
//! device and splits the slack in thirds (eq. (10)), giving *four* bounds.
//!
//! The threshold voltage used in the bounds includes body effect evaluated
//! at the optimum node voltage (a fixed point solved iteratively); because
//! the *same* `V_T` enters both bounds of a device, the bound *spacing* —
//! the quantity the statistical condition constrains — is exactly the
//! paper's expression.
//!
//! Every entry point is fallible: an infeasible cell (eq. (4) violated), a
//! topology mismatch, or a cascoded cell missing its CAS device yields a
//! typed [`BiasError`] carrying the numbers needed for a one-line
//! diagnostic, instead of a panic.

use crate::cell::{CellEnvironment, CellTopology, SizedCell};
use core::fmt;

/// Diagnostic payload for an eq. (4) violation: the cell's overdrives do
/// not fit in the output headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfeasibleCellError {
    /// Sum of the stack's overdrive voltages, `ΣV_OD` (V).
    pub overdrive_sum: f64,
    /// Available headroom `V_out,min` (V).
    pub headroom: f64,
}

impl InfeasibleCellError {
    /// How far past feasibility the cell sits (V, positive).
    pub fn deficit(&self) -> f64 {
        self.overdrive_sum - self.headroom
    }
}

impl fmt::Display for InfeasibleCellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell overdrive sum {:.3} V exceeds headroom {:.3} V (eq. (4) violated by {:.3} V)",
            self.overdrive_sum,
            self.headroom,
            self.deficit()
        )
    }
}

impl std::error::Error for InfeasibleCellError {}

/// Error computing a bias point or gate bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiasError {
    /// The entry point was called with a cell of the wrong topology.
    WrongTopology {
        /// Topology the entry point requires.
        expected: CellTopology,
        /// Topology of the cell actually passed.
        found: CellTopology,
    },
    /// The cell violates eq. (4): no gate voltage keeps the stack saturated.
    Infeasible(InfeasibleCellError),
    /// A cell reporting the cascoded topology lacks its CAS device or
    /// overdrive (inconsistent construction).
    MissingCascode,
}

impl fmt::Display for BiasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BiasError::WrongTopology { expected, found } => {
                write!(
                    f,
                    "bias query for the {found} topology (requires {expected})"
                )
            }
            BiasError::Infeasible(e) => e.fmt(f),
            BiasError::MissingCascode => {
                write!(f, "cascoded cell is missing its cascode device")
            }
        }
    }
}

impl std::error::Error for BiasError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BiasError::Infeasible(e) => Some(e),
            _ => None,
        }
    }
}

/// Checks eq. (4) for `cell` in `env`, building the diagnostic on failure.
fn check_feasible(cell: &SizedCell, env: &CellEnvironment) -> Result<(), BiasError> {
    if cell.is_feasible(env) {
        Ok(())
    } else {
        Err(BiasError::Infeasible(InfeasibleCellError {
            overdrive_sum: cell.overdrive_sum(),
            headroom: env.v_out_min(),
        }))
    }
}

/// A two-sided bound on one gate voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateBounds {
    /// Lower admissible gate voltage in V.
    pub lower: f64,
    /// Upper admissible gate voltage in V.
    pub upper: f64,
}

impl GateBounds {
    /// Slack between the bounds; negative means infeasible.
    pub fn spacing(&self) -> f64 {
        self.upper - self.lower
    }

    /// True if a gate voltage exists (eq. (4) satisfied for this device).
    pub fn is_feasible(&self) -> bool {
        self.spacing() >= 0.0
    }

    /// Midpoint of the bounds.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// True if `v` lies inside the bounds.
    pub fn contains(&self, v: f64) -> bool {
        (self.lower..=self.upper).contains(&v)
    }
}

impl fmt::Display for GateBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4} V, {:.4} V]", self.lower, self.upper)
    }
}

/// The optimum bias point of a cell: node voltages and gate voltages.
///
/// For the simple cell the slack `s = V_out,min − ΣV_OD` splits in halves
/// (eq. (5)); for the cascoded cell in thirds (eq. (10)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimumBias {
    /// Voltage at the CS drain (node A) in V.
    pub v_node_a: f64,
    /// Voltage at the switch source (node B) in V. For the simple topology
    /// this equals `v_node_a`.
    pub v_node_b: f64,
    /// CS gate voltage in V.
    pub v_gate_cs: f64,
    /// Cascode gate voltage in V (`None` for the simple topology).
    pub v_gate_cas: Option<f64>,
    /// Switch ON gate voltage in V.
    pub v_gate_sw: f64,
}

impl OptimumBias {
    /// Computes the optimum bias of `cell` in `env`.
    ///
    /// # Errors
    ///
    /// [`BiasError::Infeasible`] if the cell violates eq. (4)
    /// (`ΣV_OD > V_out,min`); [`BiasError::MissingCascode`] if a cascoded
    /// cell lacks its CAS device.
    pub fn of(cell: &SizedCell, env: &CellEnvironment) -> Result<Self, BiasError> {
        check_feasible(cell, env)?;
        let slack = env.v_out_min() - cell.overdrive_sum();
        match cell.topology() {
            CellTopology::Simple => {
                let v_a = cell.vov_cs() + 0.5 * slack;
                let vt_sw = cell.sw().vt(v_a);
                Ok(Self {
                    v_node_a: v_a,
                    v_node_b: v_a,
                    v_gate_cs: cell.cs().vt(0.0) + cell.vov_cs(),
                    v_gate_cas: None,
                    v_gate_sw: v_a + vt_sw + cell.vov_sw(),
                })
            }
            CellTopology::Cascoded => {
                let (Some(vov_cas), Some(cas)) = (cell.vov_cas(), cell.cas()) else {
                    return Err(BiasError::MissingCascode);
                };
                let v_a = cell.vov_cs() + slack / 3.0;
                let v_b = v_a + vov_cas + slack / 3.0;
                let vt_cas = cas.vt(v_a);
                let vt_sw = cell.sw().vt(v_b);
                Ok(Self {
                    v_node_a: v_a,
                    v_node_b: v_b,
                    v_gate_cs: cell.cs().vt(0.0) + cell.vov_cs(),
                    v_gate_cas: Some(v_a + vt_cas + vov_cas),
                    v_gate_sw: v_b + vt_sw + cell.vov_sw(),
                })
            }
        }
    }
}

/// Gate-voltage bounds for the switch of a simple cell (paper eq. (3)).
///
/// The threshold is evaluated with body effect at the optimum node voltage,
/// so the bound spacing is exactly `V_out,min − V_OD,CS − V_OD,SW`. The
/// bounds are returned even for an infeasible cell (negative spacing), so
/// sweeps can probe the infeasible region; only a topology mismatch errors.
///
/// # Errors
///
/// [`BiasError::WrongTopology`] if the cell is not the simple topology.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::bias::sw_gate_bounds_simple;
/// use ctsdac_circuit::cell::{CellEnvironment, SizedCell};
/// use ctsdac_process::Technology;
///
/// let tech = Technology::c035();
/// let env = CellEnvironment::paper_12bit();
/// let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.6, 0.7, 400e-12, None);
/// let b = sw_gate_bounds_simple(&cell, &env)?;
/// assert!((b.spacing() - (env.v_out_min() - 1.3)).abs() < 1e-12);
/// # Ok::<(), ctsdac_circuit::bias::BiasError>(())
/// ```
pub fn sw_gate_bounds_simple(
    cell: &SizedCell,
    env: &CellEnvironment,
) -> Result<GateBounds, BiasError> {
    if cell.topology() != CellTopology::Simple {
        return Err(BiasError::WrongTopology {
            expected: CellTopology::Simple,
            found: cell.topology(),
        });
    }
    // Body-effect reference: the node voltage at the feasible midpoint, or
    // the clamped minimum if the cell is infeasible (still well defined, so
    // sweeps can probe the infeasible region and see negative spacing).
    let slack = env.v_out_min() - cell.overdrive_sum();
    let v_a = cell.vov_cs() + 0.5 * slack.max(0.0);
    let vt_sw = cell.sw().vt(v_a.max(0.0));
    Ok(GateBounds {
        lower: cell.vov_cs() + cell.vov_sw() + vt_sw,
        upper: env.v_out_min() + vt_sw,
    })
}

/// The four gate-voltage bounds of the cascoded cell: `(cas, sw)`.
///
/// Bound structure (stack CS → CAS → SW, nodes A and B):
///
/// * CAS gate: `V_OD,CS + V_T,CAS + V_OD,CAS ≤ V_gCAS ≤ V_B + V_T,CAS`
/// * SW gate: `ΣV_OD + V_T,SW ≤ V_gSW ≤ V_out,min + V_T,SW`
///
/// with `V_B` taken at the optimum (thirds) bias. Like the simple variant,
/// infeasible cells still get (negative-spacing) bounds.
///
/// # Errors
///
/// [`BiasError::WrongTopology`] if the cell is not cascoded;
/// [`BiasError::MissingCascode`] if it lacks its CAS device.
pub fn cascoded_gate_bounds(
    cell: &SizedCell,
    env: &CellEnvironment,
) -> Result<(GateBounds, GateBounds), BiasError> {
    if cell.topology() != CellTopology::Cascoded {
        return Err(BiasError::WrongTopology {
            expected: CellTopology::Cascoded,
            found: cell.topology(),
        });
    }
    let (Some(vov_cas), Some(cas)) = (cell.vov_cas(), cell.cas()) else {
        return Err(BiasError::MissingCascode);
    };
    let slack = env.v_out_min() - cell.overdrive_sum();
    let s3 = slack.max(0.0) / 3.0;
    let v_a = cell.vov_cs() + s3;
    let v_b = v_a + vov_cas + s3;
    let vt_cas = cas.vt(v_a.max(0.0));
    let vt_sw = cell.sw().vt(v_b.max(0.0));
    let cas_bounds = GateBounds {
        lower: cell.vov_cs() + vt_cas + vov_cas,
        upper: v_b + vt_cas,
    };
    let sw_bounds = GateBounds {
        lower: cell.overdrive_sum() + vt_sw,
        upper: env.v_out_min() + vt_sw,
    };
    Ok((cas_bounds, sw_bounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_process::Technology;

    fn simple_cell(vov_cs: f64, vov_sw: f64) -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, vov_cs, vov_sw, 400e-12, None);
        (cell, env)
    }

    fn cascoded_cell(vov_cs: f64, vov_cas: f64, vov_sw: f64) -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell = SizedCell::cascoded_from_overdrives(
            &tech, 78.1e-6, vov_cs, vov_cas, vov_sw, 400e-12, None, None,
        );
        (cell, env)
    }

    #[test]
    fn simple_bounds_spacing_is_eq4_slack() {
        let (cell, env) = simple_cell(0.8, 0.9);
        let b = sw_gate_bounds_simple(&cell, &env).expect("simple");
        // V_out,min = 2.3, sum = 1.7 → spacing 0.6.
        assert!((b.spacing() - 0.6).abs() < 1e-12);
        assert!(b.is_feasible());
    }

    #[test]
    fn infeasible_cell_has_negative_spacing() {
        let (cell, env) = simple_cell(1.5, 1.0);
        let b = sw_gate_bounds_simple(&cell, &env).expect("simple");
        assert!(b.spacing() < 0.0);
        assert!(!b.is_feasible());
    }

    #[test]
    fn optimum_gate_is_bounds_midpoint_for_simple_cell() {
        let (cell, env) = simple_cell(0.7, 0.8);
        let b = sw_gate_bounds_simple(&cell, &env).expect("simple");
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        assert!(
            (opt.v_gate_sw - b.midpoint()).abs() < 1e-12,
            "optimum {} vs midpoint {}",
            opt.v_gate_sw,
            b.midpoint()
        );
    }

    #[test]
    fn optimum_node_voltages_split_slack_evenly() {
        let (cell, env) = simple_cell(0.6, 0.7);
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        // CS margin = V_A − V_OD,CS, SW margin = V_out,min − V_A − V_OD,SW.
        let cs_margin = opt.v_node_a - cell.vov_cs();
        let sw_margin = env.v_out_min() - opt.v_node_a - cell.vov_sw();
        assert!((cs_margin - sw_margin).abs() < 1e-12);
        assert!(cs_margin > 0.0);
    }

    #[test]
    fn cascoded_optimum_splits_slack_in_thirds() {
        let (cell, env) = cascoded_cell(0.4, 0.3, 0.5);
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let s = env.v_out_min() - cell.overdrive_sum();
        let m_cs = opt.v_node_a - cell.vov_cs();
        let m_cas = opt.v_node_b - opt.v_node_a - cell.vov_cas().expect("cas");
        let m_sw = env.v_out_min() - opt.v_node_b - cell.vov_sw();
        for (name, m) in [("cs", m_cs), ("cas", m_cas), ("sw", m_sw)] {
            assert!((m - s / 3.0).abs() < 1e-12, "{name} margin {m} != s/3");
        }
    }

    #[test]
    fn cascoded_bounds_margins_match_thirds_rule() {
        let (cell, env) = cascoded_cell(0.4, 0.3, 0.5);
        let (cas_b, sw_b) = cascoded_gate_bounds(&cell, &env).expect("cascoded");
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let s3 = (env.v_out_min() - cell.overdrive_sum()) / 3.0;
        let g_cas = opt.v_gate_cas.expect("cascoded bias");
        // CAS gate sits s/3 above its lower bound and s/3 below its upper.
        assert!((g_cas - cas_b.lower - s3).abs() < 1e-12);
        assert!((cas_b.upper - g_cas - s3).abs() < 1e-12);
        // SW gate sits s/3 below its upper bound, 2s/3 above its lower.
        assert!((sw_b.upper - opt.v_gate_sw - s3).abs() < 1e-12);
        assert!((opt.v_gate_sw - sw_b.lower - 2.0 * s3).abs() < 1e-12);
    }

    #[test]
    fn cascoded_feasibility_is_eq11_without_margin() {
        let (cell, env) = cascoded_cell(1.0, 0.7, 0.7);
        // Sum = 2.4 > 2.3 → infeasible.
        assert!(!cell.is_feasible(&env));
        let (cas_b, sw_b) = cascoded_gate_bounds(&cell, &env).expect("cascoded");
        assert!(!cas_b.is_feasible() || !sw_b.is_feasible());
    }

    #[test]
    fn optimum_bias_rejects_infeasible_cell_with_diagnostics() {
        let (cell, env) = simple_cell(1.5, 1.0);
        let err = OptimumBias::of(&cell, &env).expect_err("2.5 V of overdrive in 2.3 V");
        let BiasError::Infeasible(info) = err else {
            panic!("expected Infeasible, got {err:?}");
        };
        assert!((info.overdrive_sum - 2.5).abs() < 1e-12);
        assert!((info.headroom - env.v_out_min()).abs() < 1e-12);
        assert!(info.deficit() > 0.0);
        assert!(err.to_string().contains("exceeds headroom"));
    }

    #[test]
    fn wrong_topology_bounds_are_typed_errors() {
        let (simple, env) = simple_cell(0.5, 0.6);
        let (cascoded, _) = cascoded_cell(0.4, 0.3, 0.5);
        assert!(matches!(
            sw_gate_bounds_simple(&cascoded, &env),
            Err(BiasError::WrongTopology {
                expected: CellTopology::Simple,
                found: CellTopology::Cascoded,
            })
        ));
        assert!(matches!(
            cascoded_gate_bounds(&simple, &env),
            Err(BiasError::WrongTopology {
                expected: CellTopology::Cascoded,
                found: CellTopology::Simple,
            })
        ));
    }

    #[test]
    fn bounds_contains_and_midpoint() {
        let b = GateBounds {
            lower: 1.0,
            upper: 2.0,
        };
        assert!(b.contains(1.5));
        assert!(!b.contains(2.1));
        assert_eq!(b.midpoint(), 1.5);
    }

    #[test]
    fn body_effect_raises_switch_gate_above_simple_sum() {
        // The switch threshold at a raised source node exceeds V_T0, so the
        // gate voltage must exceed the naive V_T0-based estimate.
        let (cell, env) = simple_cell(0.6, 0.7);
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let naive = opt.v_node_a + cell.sw().params().vt0 + cell.vov_sw();
        assert!(opt.v_gate_sw > naive);
    }

    #[test]
    fn bias_error_display_is_one_line() {
        for err in [
            BiasError::MissingCascode,
            BiasError::WrongTopology {
                expected: CellTopology::Simple,
                found: CellTopology::Cascoded,
            },
            BiasError::Infeasible(InfeasibleCellError {
                overdrive_sum: 2.5,
                headroom: 2.3,
            }),
        ] {
            let s = err.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{s:?}");
        }
    }
}
