//! The complete design flow of the paper's §2–§3 as one orchestrated call.
//!
//! `architecture → topology selection → constrained sizing → dynamic
//! verification → corner check`, producing a structured [`DesignReport`].
//! This is the API a downstream user adopts; every stage delegates to the
//! modules that implement the individual equations.

use crate::cascode::CascodeSpace;
use crate::corners::{verify_corners_simple, CornerCheck};
use crate::explore::{DesignSpace, ExploreError, Objective, SweepError};
use crate::saturation::SaturationCondition;
use crate::sizing::{build_cascoded_cell, build_simple_cell};
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::cell::{CellTopology, SizedCell};
use ctsdac_circuit::impedance::{required_output_impedance, rout_at_optimum};
use ctsdac_circuit::poles::{PoleModel, TwoPoles};
use ctsdac_circuit::settling::settling_time_two_pole;
use ctsdac_obs as obs;
use ctsdac_runtime::{ExecPolicy, RuntimeError, Supervised};

/// How the flow picks the cell topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyChoice {
    /// Decide from the output-impedance requirement (the paper's §3 logic).
    /// DC impedance does not discriminate (a high-resolution CS is long and
    /// has a tiny λ); the binding check is at signal frequency where the
    /// internal-node capacitance shunts `r_o,CS` — the simple cell must
    /// still clear the requirement at 1 MHz, else a cascode is added.
    #[default]
    Auto,
    /// Force the simple CS+SW cell.
    Simple,
    /// Force the cascoded cell.
    Cascoded,
}

/// Options of the design flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOptions {
    /// Optimisation objective over the admissible design space.
    pub objective: Objective,
    /// Topology selection policy.
    pub topology: TopologyChoice,
    /// The saturation condition restricting the space (the paper's
    /// contribution is [`SaturationCondition::Statistical`]).
    pub condition: SaturationCondition,
    /// Grid resolution per overdrive axis.
    pub grid: usize,
    /// Intended update rate, used for the settling verdict, S/s.
    pub f_update: f64,
    /// Accepted and ignored, so callers that set it keep building: the
    /// simple-topology search is always the exact best-first search of
    /// [`DesignSpace::optimize`].
    pub adaptive: bool,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            objective: Objective::MinArea,
            topology: TopologyChoice::Auto,
            condition: SaturationCondition::Statistical,
            grid: 16,
            f_update: 400e6,
            adaptive: false,
        }
    }
}

/// The structured outcome of the flow.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// The specification designed to.
    pub spec: DacSpec,
    /// Topology chosen (and why, in `topology_reason`).
    pub topology: CellTopology,
    /// Human-readable topology rationale.
    pub topology_reason: String,
    /// Chosen overdrives `(cs, cas_or_zero, sw)` in V.
    pub overdrives: (f64, f64, f64),
    /// The sized unary cell.
    pub unary_cell: SizedCell,
    /// The sized LSB cell.
    pub lsb_cell: SizedCell,
    /// Total analog gate area in m².
    pub total_area: f64,
    /// Saturation margin charged by the condition at the optimum, V.
    pub margin: f64,
    /// Pole model of the unary cell.
    pub poles: TwoPoles,
    /// Half-LSB settling time, s.
    pub settling_s: f64,
    /// DC output impedance of the unary cell, Ω.
    pub rout_dc: f64,
    /// DC impedance requirement per LSB source, Ω.
    pub rout_required: f64,
    /// Corner checks (simple-topology overdrive inflation model).
    pub corners: Vec<CornerCheck>,
}

impl DesignReport {
    /// True if the design settles within one update period.
    pub fn meets_update_rate(&self, f_update: f64) -> bool {
        self.settling_s <= 1.0 / f_update
    }

    /// True if every corner keeps the budget.
    pub fn all_corners_pass(&self) -> bool {
        self.corners.iter().all(|c| c.passes())
    }

    /// Renders the report as markdown (for logs and the CLI).
    pub fn to_markdown(&self) -> String {
        use core::fmt::Write as _;
        let mut s = String::new();
        // Writing to a `String` cannot fail; the results are discarded.
        let _ = writeln!(s, "# Design report\n");
        let _ = writeln!(s, "* spec: {}", self.spec);
        let _ = writeln!(
            s,
            "* topology: {} — {}",
            self.topology, self.topology_reason
        );
        let _ = writeln!(
            s,
            "* overdrives: CS {:.2} V, CAS {:.2} V, SW {:.2} V (margin {:.0} mV)",
            self.overdrives.0,
            self.overdrives.1,
            self.overdrives.2,
            self.margin * 1e3
        );
        let _ = writeln!(s, "* unary cell: {}", self.unary_cell);
        let _ = writeln!(s, "* LSB cell: {}", self.lsb_cell);
        let _ = writeln!(
            s,
            "* total analog area: {:.1} kum2",
            self.total_area * 1e12 / 1e3
        );
        let _ = writeln!(s, "* poles: {}", self.poles);
        let _ = writeln!(
            s,
            "* settling to 0.5 LSB: {:.2} ns (max {:.0} MS/s)",
            self.settling_s * 1e9,
            1e-6 / self.settling_s
        );
        let _ = writeln!(
            s,
            "* output impedance: {:.2e} Ohm (requirement {:.2e} Ohm/LSB)",
            self.rout_dc, self.rout_required
        );
        let _ = writeln!(s, "* corners:");
        for c in &self.corners {
            let _ = writeln!(s, "    * {c}");
        }
        s
    }
}

impl fmt::Display for DesignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Error returned when the flow finds no admissible design point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmptyDesignSpaceError {
    /// The condition whose admissible set was empty.
    pub condition: String,
}

impl fmt::Display for EmptyDesignSpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no admissible design point under {}", self.condition)
    }
}

impl std::error::Error for EmptyDesignSpaceError {}

/// Failure modes of the orchestrated flow.
///
/// The split mirrors [`ExploreError`]: an empty design space means the
/// spec/grid admits nothing (relax the spec); a numerical failure means a
/// candidate existed but its evaluation broke down (inspect the solver).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// The admissible region is empty at the requested grid.
    EmptyDesignSpace(EmptyDesignSpaceError),
    /// A bias/pole/impedance evaluation failed on the chosen design.
    Numerical {
        /// What failed, as a one-line diagnostic.
        detail: String,
    },
    /// The supervised runtime failed while exploring the design space
    /// (retry exhaustion, cancellation, or checkpoint-journal trouble).
    Supervision(RuntimeError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDesignSpace(e) => write!(f, "{e}"),
            Self::Numerical { detail } => write!(f, "numerical failure: {detail}"),
            Self::Supervision(e) => write!(f, "supervision failure: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::EmptyDesignSpace(e) => Some(e),
            Self::Numerical { .. } => None,
            Self::Supervision(e) => Some(e),
        }
    }
}

impl From<RuntimeError> for FlowError {
    fn from(e: RuntimeError) -> Self {
        Self::Supervision(e)
    }
}

/// Runs the complete flow: [`run_flow_supervised`] under
/// [`ExecPolicy::sequential`], whose one-job pool runs every chunk on the
/// calling thread.
///
/// An armed `pool.chunk` failpoint in the process-global registry (e.g.
/// from `CTSDAC_FAILPOINTS`) fires here as on any supervised run.
///
/// # Errors
///
/// [`FlowError::EmptyDesignSpace`] if the admissible region is empty at
/// the requested grid; [`FlowError::Numerical`] if the chosen design fails
/// to evaluate (bias, pole, or impedance analysis);
/// [`FlowError::Supervision`] if a chunk of the simple-topology search
/// still fails after its retries.
pub fn run_flow(spec: &DacSpec, options: &FlowOptions) -> Result<DesignReport, FlowError> {
    run_flow_supervised(spec, options, &ExecPolicy::sequential()).map(|s| s.value)
}

/// Returns a typed cancellation error once the policy's cancel token has
/// fired or its deadline has expired. Checked at every stage boundary of
/// [`run_flow_supervised`] so the inline stages (topology probe, cascode
/// search, report assembly) respect a request-level deadline just like the
/// pooled sweep does between chunks.
fn check_cancelled(policy: &ExecPolicy) -> Result<(), FlowError> {
    if policy.pool.cancel.is_cancelled() {
        return Err(FlowError::Supervision(RuntimeError::Cancelled {
            done: 0,
            total: 0,
        }));
    }
    Ok(())
}

/// The design flow, with the simple-topology design-space search run
/// under runtime supervision (retry, deadline, checkpoint-resume — all
/// per `policy`).
///
/// The simple-topology path runs the best-first optimum search
/// ([`DesignSpace::optimize_supervised`]) with grid rows as pool chunks
/// and one DC solve on the winner. At one job the rows run in order on
/// the calling thread; at more they run on worker threads. The design is
/// bit-identical for any job count and across resume. The cascoded volume
/// search is compact (pure arithmetic over the grid, no solver in the
/// loop) and runs inline; the returned supervision record is then empty.
/// `options.adaptive` is ignored.
///
/// # Errors
///
/// As [`run_flow`], including a typed [`RuntimeError::Cancelled`] when
/// the policy's cancel token fires or its deadline expires between
/// stages.
pub fn run_flow_supervised(
    spec: &DacSpec,
    options: &FlowOptions,
    policy: &ExecPolicy,
) -> Result<Supervised<DesignReport>, FlowError> {
    let _span = obs::span("flow.run");
    check_cancelled(policy)?;
    let (topology, topology_reason, rout_required) = choose_topology(spec, options);
    check_cancelled(policy)?;

    let empty = || {
        FlowError::EmptyDesignSpace(EmptyDesignSpaceError {
            condition: options.condition.to_string(),
        })
    };
    let (overdrives, total_area, supervision) = match topology {
        CellTopology::Simple => {
            let space = DesignSpace::new(spec, options.condition).with_grid(options.grid);
            let out = space
                .optimize_supervised(options.objective, f64::INFINITY, policy)
                .map_err(|e| match e {
                    SweepError::Explore(ExploreError::EmptyFeasibleRegion { .. }) => empty(),
                    SweepError::Explore(e) => FlowError::Numerical {
                        detail: e.to_string(),
                    },
                    SweepError::Runtime(e) => FlowError::Supervision(e),
                })?;
            let p = out.value;
            ((p.vov_cs, 0.0, p.vov_sw), p.total_area, out.map(|_| ()))
        }
        CellTopology::Cascoded => {
            let space = CascodeSpace::new(spec, options.condition).with_grid(options.grid);
            let p = match options.objective {
                Objective::MinArea => space.min_area_point(),
                _ => space.max_speed_point(),
            }
            .ok_or_else(empty)?;
            (
                (p.vov_cs, p.vov_cas, p.vov_sw),
                p.total_area,
                Supervised {
                    value: (),
                    faults: Vec::new(),
                    restored: 0,
                    computed: 0,
                    dropped: 0,
                },
            )
        }
    };

    check_cancelled(policy)?;
    let report = assemble_report(
        spec,
        options,
        topology,
        topology_reason,
        rout_required,
        overdrives,
        total_area,
    )?;
    Ok(supervision.map(|()| report))
}

/// Topology selection (§3 logic).
fn choose_topology(spec: &DacSpec, options: &FlowOptions) -> (CellTopology, String, f64) {
    let _span = obs::span("flow.choose_topology");
    let rout_required = required_output_impedance(spec.n_bits, spec.env.rl, 0.25);
    let (topology, topology_reason) = match options.topology {
        TopologyChoice::Simple => (CellTopology::Simple, "forced by options".to_string()),
        TopologyChoice::Cascoded => (CellTopology::Cascoded, "forced by options".to_string()),
        TopologyChoice::Auto => {
            // Probe a representative simple LSB cell at 1 MHz, where the
            // internal-node capacitance already shunts the CS r_o.
            let probe = build_simple_cell(spec, 0.5, 0.6, 1);
            // A probe failure (no bias point in this environment) does not
            // abort the flow: the conservative cascoded topology is used.
            let rout =
                ctsdac_circuit::impedance::rout_at_frequency(&probe, &spec.env, 1e6).unwrap_or(0.0);
            if rout > rout_required {
                (
                    CellTopology::Simple,
                    format!(
                        "simple cell impedance at 1 MHz ({rout:.2e} Ohm) clears the \
                         requirement ({rout_required:.2e} Ohm)"
                    ),
                )
            } else {
                (
                    CellTopology::Cascoded,
                    format!(
                        "simple cell impedance at 1 MHz ({rout:.2e} Ohm) misses the \
                         requirement ({rout_required:.2e} Ohm); cascode added \
                         (the paper's §3 decision)"
                    ),
                )
            }
        }
    };
    (topology, topology_reason, rout_required)
}

/// Sizes the cells at the chosen overdrives and runs the dynamic
/// verification + corner stages — the flow's tail.
fn assemble_report(
    spec: &DacSpec,
    options: &FlowOptions,
    topology: CellTopology,
    topology_reason: String,
    rout_required: f64,
    overdrives: (f64, f64, f64),
    total_area: f64,
) -> Result<DesignReport, FlowError> {
    let _span = obs::span("flow.assemble_report");
    let (lsb_cell, unary_cell, margin) = match topology {
        CellTopology::Simple => (
            build_simple_cell(spec, overdrives.0, overdrives.2, 1),
            build_simple_cell(spec, overdrives.0, overdrives.2, spec.unary_weight()),
            options
                .condition
                .margin_simple(spec, overdrives.0, overdrives.2),
        ),
        CellTopology::Cascoded => (
            build_cascoded_cell(spec, overdrives.0, overdrives.1, overdrives.2, 1),
            build_cascoded_cell(
                spec,
                overdrives.0,
                overdrives.1,
                overdrives.2,
                spec.unary_weight(),
            ),
            options
                .condition
                .margin_cascoded(spec, overdrives.0, overdrives.1, overdrives.2),
        ),
    };

    // --- Dynamic verification ---
    let poles = PoleModel::new(spec.cells_at_output())
        .poles(&unary_cell, &spec.env)
        .map_err(|e| FlowError::Numerical {
            detail: format!("pole model of the sized unary cell: {e}"),
        })?;
    if !poles.has_valid_taus() {
        return Err(FlowError::Numerical {
            detail: format!(
                "pole model of the sized unary cell: degenerate time constants ({poles})"
            ),
        });
    }
    let settling_s = settling_time_two_pole(&poles, spec.n_bits);
    let rout_dc = rout_at_optimum(&unary_cell, &spec.env).map_err(|e| FlowError::Numerical {
        detail: format!("output impedance of the sized unary cell: {e}"),
    })?;

    // --- Corner check (overdrive-inflation model on the CS/SW pair) ---
    let corners = verify_corners_simple(
        spec,
        options.condition,
        overdrives.0 + overdrives.1,
        overdrives.2,
    );

    Ok(DesignReport {
        spec: *spec,
        topology,
        topology_reason,
        overdrives,
        unary_cell,
        lsb_cell,
        total_area,
        margin,
        poles,
        settling_s,
        rout_dc,
        rout_required,
        corners,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_circuit::cell::CellEnvironment;
    use ctsdac_process::Technology;

    #[test]
    fn twelve_bit_auto_flow_chooses_cascode_and_meets_400msps() {
        let spec = DacSpec::paper_12bit();
        let options = FlowOptions {
            objective: Objective::MaxSpeed,
            grid: 10,
            ..FlowOptions::default()
        };
        let report = run_flow(&spec, &options).expect("feasible");
        assert_eq!(report.topology, CellTopology::Cascoded);
        assert!(
            report.meets_update_rate(400e6),
            "settling {:.2} ns",
            report.settling_s * 1e9
        );
        assert!(report.rout_dc * 16.0 > report.rout_required);
    }

    #[test]
    fn eight_bit_auto_flow_keeps_the_simple_cell() {
        let base = DacSpec::paper_12bit();
        let spec = DacSpec::new(
            8,
            3,
            0.99,
            CellEnvironment::paper_12bit(),
            Technology::c035(),
        );
        let _ = base;
        let report = run_flow(&spec, &FlowOptions::default()).expect("feasible");
        assert_eq!(
            report.topology,
            CellTopology::Simple,
            "{}",
            report.topology_reason
        );
    }

    #[test]
    fn min_area_flow_beats_legacy_condition() {
        let spec = DacSpec::paper_12bit();
        let stat = run_flow(
            &spec,
            &FlowOptions {
                topology: TopologyChoice::Simple,
                grid: 20,
                ..FlowOptions::default()
            },
        )
        .expect("feasible");
        let legacy = run_flow(
            &spec,
            &FlowOptions {
                topology: TopologyChoice::Simple,
                condition: SaturationCondition::legacy(),
                grid: 20,
                ..FlowOptions::default()
            },
        )
        .expect("feasible");
        assert!(stat.total_area < legacy.total_area);
    }

    /// A load capacitance that makes the output pole's time constant NaN
    /// or infinite must tag the affected points as numerical failures —
    /// the sweep, the optimum search and the flow all return typed errors
    /// instead of panicking inside the settling solve. A zero load is not
    /// degenerate: the switch drains keep the output time constant
    /// positive, so it sizes a (faster) design.
    #[test]
    fn degenerate_load_capacitance_is_a_typed_numerical_failure() {
        use crate::explore::{DesignSpace, ExploreError, InfeasibleReason, Objective};
        let spec_with = |c_load: f64| {
            let mut env = CellEnvironment::paper_12bit();
            env.c_load = c_load;
            DacSpec::new(12, 4, 0.997, env, Technology::c035())
        };
        let flow = |spec: &DacSpec, topology| {
            let options = FlowOptions {
                topology,
                grid: 8,
                ..FlowOptions::default()
            };
            run_flow(spec, &options)
        };
        for c_load in [f64::NAN, f64::INFINITY] {
            let spec = spec_with(c_load);
            let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(8);
            let reasons: Vec<_> = space.sweep_grid().iter_points().map(|p| p.reason).collect();
            assert!(
                reasons.iter().all(Option::is_some)
                    && reasons.contains(&Some(InfeasibleReason::NumericalFailure)),
                "c_load = {c_load}: no point is feasible, bias points fail numerically"
            );
            for objective in [Objective::MinArea, Objective::MaxSpeed] {
                match space.optimize(objective) {
                    Err(ExploreError::NumericalFailure { failed, .. }) => assert!(failed > 0),
                    other => panic!("c_load = {c_load}, {objective:?}: got {other:?}"),
                }
            }
            for topology in [TopologyChoice::Simple, TopologyChoice::Auto] {
                match flow(&spec, topology) {
                    Err(FlowError::Numerical { .. }) => {}
                    other => panic!("c_load = {c_load}, {topology:?}: got {other:?}"),
                }
            }
        }
        let unloaded = spec_with(0.0);
        for topology in [TopologyChoice::Simple, TopologyChoice::Auto] {
            let report = flow(&unloaded, topology).expect("a zero load still sizes");
            let loaded = flow(&DacSpec::paper_12bit(), topology).expect("paper design");
            assert!(report.settling_s.is_finite() && report.settling_s < loaded.settling_s);
        }
    }

    #[test]
    fn report_markdown_is_complete() {
        let spec = DacSpec::paper_12bit();
        let report = run_flow(
            &spec,
            &FlowOptions {
                grid: 8,
                ..Default::default()
            },
        )
        .expect("feasible");
        let md = report.to_markdown();
        for needle in [
            "# Design report",
            "topology",
            "overdrives",
            "settling",
            "corners",
            "output impedance",
        ] {
            assert!(md.contains(needle), "missing {needle} in:\n{md}");
        }
    }

    #[test]
    fn forced_topology_is_respected() {
        let spec = DacSpec::paper_12bit();
        let simple = run_flow(
            &spec,
            &FlowOptions {
                topology: TopologyChoice::Simple,
                grid: 8,
                ..Default::default()
            },
        )
        .expect("feasible");
        assert_eq!(simple.topology, CellTopology::Simple);
        let cascoded = run_flow(
            &spec,
            &FlowOptions {
                topology: TopologyChoice::Cascoded,
                grid: 8,
                ..Default::default()
            },
        )
        .expect("feasible");
        assert_eq!(cascoded.topology, CellTopology::Cascoded);
        assert!(cascoded.rout_dc > simple.rout_dc);
    }

    #[test]
    fn supervised_flow_matches_sequential_bitwise() {
        let spec = DacSpec::paper_12bit();
        let options = FlowOptions {
            topology: TopologyChoice::Simple,
            grid: 12,
            ..Default::default()
        };
        let seq = run_flow(&spec, &options).expect("feasible");
        for jobs in [1, 4] {
            let sup = run_flow_supervised(&spec, &options, &ExecPolicy::with_jobs(jobs))
                .expect("feasible");
            assert_eq!(sup.value.overdrives.0.to_bits(), seq.overdrives.0.to_bits());
            assert_eq!(sup.value.overdrives.2.to_bits(), seq.overdrives.2.to_bits());
            assert_eq!(sup.value.total_area.to_bits(), seq.total_area.to_bits());
            assert_eq!(sup.computed, options.grid as u64);
            assert!(sup.faults.is_empty());
        }
    }

    #[test]
    fn adaptive_option_is_an_alias_of_the_exact_search() {
        let spec = DacSpec::paper_12bit();
        let exact = FlowOptions {
            topology: TopologyChoice::Simple,
            grid: 20,
            ..Default::default()
        };
        let alias = FlowOptions {
            adaptive: true,
            ..exact
        };
        let e = run_flow(&spec, &exact).expect("feasible");
        let a = run_flow(&spec, &alias).expect("feasible");
        assert_eq!(a.overdrives.0.to_bits(), e.overdrives.0.to_bits());
        assert_eq!(a.overdrives.2.to_bits(), e.overdrives.2.to_bits());
        assert_eq!(a.total_area.to_bits(), e.total_area.to_bits());
        let sup = run_flow_supervised(&spec, &alias, &ExecPolicy::with_jobs(4)).expect("feasible");
        assert_eq!(sup.value.total_area.to_bits(), e.total_area.to_bits());
        assert_eq!(
            sup.computed, exact.grid as u64,
            "the alias runs on the pool"
        );
    }

    #[test]
    fn supervised_flow_on_cascode_runs_inline_with_empty_supervision() {
        let spec = DacSpec::paper_12bit();
        let options = FlowOptions {
            topology: TopologyChoice::Cascoded,
            grid: 8,
            ..Default::default()
        };
        let seq = run_flow(&spec, &options).expect("feasible");
        let sup =
            run_flow_supervised(&spec, &options, &ExecPolicy::with_jobs(4)).expect("feasible");
        assert_eq!(sup.value.total_area.to_bits(), seq.total_area.to_bits());
        assert_eq!(sup.computed + sup.restored, 0);
        assert!(sup.faults.is_empty());
    }

    #[test]
    fn cancelled_token_aborts_every_supervised_path() {
        use ctsdac_runtime::CancelToken;
        let spec = DacSpec::paper_12bit();
        for topology in [TopologyChoice::Simple, TopologyChoice::Cascoded] {
            let options = FlowOptions {
                topology,
                grid: 8,
                ..Default::default()
            };
            let policy = ExecPolicy::sequential();
            policy.pool.cancel.cancel();
            let err = run_flow_supervised(&spec, &options, &policy)
                .expect_err("pre-cancelled token must abort");
            assert!(
                matches!(err, FlowError::Supervision(RuntimeError::Cancelled { .. })),
                "{err}"
            );
        }
        // An already-expired deadline token behaves the same.
        let mut policy = ExecPolicy::sequential();
        policy.pool.cancel = CancelToken::expiring_in(std::time::Duration::ZERO);
        let err = run_flow_supervised(
            &spec,
            &FlowOptions {
                grid: 8,
                ..Default::default()
            },
            &policy,
        )
        .expect_err("expired deadline must abort");
        assert!(matches!(err, FlowError::Supervision(_)), "{err}");
    }

    #[test]
    fn lsb_and_unary_cells_are_consistent() {
        let spec = DacSpec::paper_12bit();
        let report = run_flow(
            &spec,
            &FlowOptions {
                grid: 8,
                ..Default::default()
            },
        )
        .expect("feasible");
        let ratio = report.unary_cell.i_unit() / report.lsb_cell.i_unit();
        assert!((ratio - 16.0).abs() < 1e-9);
    }
}
