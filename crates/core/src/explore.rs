//! Design-space exploration over the overdrive plane (the paper's Fig. 3).
//!
//! "In the proposed sizing procedure the whole range of possible CS and SW
//! overdrive voltages that verify (4) is explored including process
//! variations" (§2.1). Each admissible `(V_OD,CS, V_OD,SW)` pair fully
//! determines the cell — CS geometry from the mismatch spec, switch from
//! minimum length — so every optimisation metric (total area, pole
//! frequencies, output impedance, settling time) becomes a function on this
//! plane, and optimising is a grid search along/inside the constraint.
//!
//! # Hot path
//!
//! The optimum search runs on every simple-cell flow and sizing request,
//! so both production kernels are organised for throughput without giving
//! up determinism:
//!
//! * spec-level invariants (the yield deviate, headroom, segmentation
//!   constants) are hoisted out of the per-point loop; the CS devices — a
//!   function of `V_OD,CS` only — are sized once per grid row, and the
//!   switch devices — a function of `V_OD,SW` only — once per search, in a
//!   column table shared by every row (sequential and supervised alike);
//! * each evaluated point solves the optimum bias fixed point once,
//!   sharing it between the pole model and the output-impedance
//!   evaluation; this metric chain exists once and serves every kernel;
//! * the optimum ([`DesignSpace::optimize`] and its constrained and
//!   supervised forms) is a best-first search. A closed-form pass scores
//!   every point of a row without a DC solve (the area objective is
//!   geometry only); the row's candidates are then visited in descending
//!   (score, column) order until one is feasible within the settling
//!   bound. The best row winner — later row on ties, the dense scan's
//!   rule — is *DC-verified* once by the Newton solver of
//!   `ctsdac_circuit::dc`, the analogue of the paper's SPICE check of the
//!   chosen design. The result is bit-identical to selecting over the
//!   dense sweep;
//! * the dense sweep ([`DesignSpace::sweep`], Fig. 3, the Pareto front)
//!   DC-verifies every point with a bias point: a row defers its solves
//!   and batches them through the lane-wide kernel (`solve_simple_lanes`,
//!   [`SweepMode::Lanes`]), which returns the scalar cold solver's bits;
//!   single points ([`DesignSpace::evaluate`]) call the scalar solver;
//! * chunks are grid rows, so sweeps and optima are bit-identical for any
//!   `--jobs` count; dense results land in a flat struct-of-arrays
//!   [`DesignGrid`].
//!
//! [`SweepMode::Reference`], the pre-optimization kernel, is the one
//! oracle: it agrees with the production sweep to solver tolerance, and
//! its optimum is still a dense scan.

use crate::saturation::SaturationCondition;
use crate::sizing::{
    build_simple_cell, build_simple_cell_with_devices, build_simple_cell_with_unit,
    sized_cs_with_unit, sized_sw_with_weight, total_analog_area_from_geometry,
    total_analog_area_from_lsb, total_analog_area_simple, CsSizing,
};
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::bias::OptimumBias;
use ctsdac_circuit::cell::SizedCell;
use ctsdac_circuit::dc::{solve_simple, solve_simple_lanes, solve_simple_reference};
use ctsdac_circuit::impedance::{rout_at_optimum, rout_at_optimum_with_bias};
use ctsdac_circuit::poles::{PoleModel, TwoPoles};
use ctsdac_circuit::settling::{settling_time_two_pole, settling_time_two_pole_bisect};
use ctsdac_obs as obs;
use ctsdac_runtime::{
    decode_f64, encode_f64, run_journaled, ChunkCtx, ExecPolicy, JournalMeta, RuntimeError,
    Supervised,
};

/// Why a grid point is excluded from the feasible set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfeasibleReason {
    /// The saturation condition (eq. (4) plus margins) rejects the pair.
    ConstraintViolated,
    /// The overdrives exhaust the headroom: no nominal bias point exists.
    NoBiasPoint,
    /// The point passed the constraints but a metric evaluation failed
    /// numerically (bias solve error or non-finite figure of merit).
    NumericalFailure,
}

impl fmt::Display for InfeasibleReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ConstraintViolated => write!(f, "saturation condition violated"),
            Self::NoBiasPoint => write!(f, "no bias point (headroom exhausted)"),
            Self::NumericalFailure => write!(f, "numerical failure"),
        }
    }
}

/// Failure modes of a design-space optimisation.
///
/// Distinguishing an *empty feasible region* (the spec is simply too hard
/// for this grid/range) from a *numerical failure* (candidate points
/// existed but their evaluation broke down) lets callers react differently:
/// relax the spec in the first case, inspect the solver in the second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreError {
    /// No grid point satisfies the constraints (saturation condition,
    /// headroom, and any settling bound).
    EmptyFeasibleRegion {
        /// Number of grid points evaluated.
        evaluated: usize,
    },
    /// Candidate points existed but every one failed numerically.
    NumericalFailure {
        /// Number of grid points whose evaluation failed.
        failed: usize,
        /// Number of grid points evaluated.
        evaluated: usize,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyFeasibleRegion { evaluated } => write!(
                f,
                "empty feasible region: none of the {evaluated} grid points \
                 satisfies the saturation condition, headroom, and settling bound"
            ),
            Self::NumericalFailure { failed, evaluated } => write!(
                f,
                "numerical failure: {failed} of {evaluated} grid points failed \
                 to evaluate and no feasible point remains"
            ),
        }
    }
}

impl std::error::Error for ExploreError {}

/// Failure of a *supervised* sweep: either the exploration itself (domain
/// error) or the runtime supervising it (retry exhaustion, cancellation,
/// journal trouble).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The exploration failed for a domain reason.
    Explore(ExploreError),
    /// The supervised runtime failed.
    Runtime(RuntimeError),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Explore(e) => write!(f, "{e}"),
            Self::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Explore(e) => Some(e),
            Self::Runtime(e) => Some(e),
        }
    }
}

impl From<ExploreError> for SweepError {
    fn from(e: ExploreError) -> Self {
        Self::Explore(e)
    }
}

impl From<RuntimeError> for SweepError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

/// One evaluated design point of the overdrive plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// CS overdrive in V.
    pub vov_cs: f64,
    /// Switch overdrive in V.
    pub vov_sw: f64,
    /// Whether the saturation condition admits this point.
    pub feasible: bool,
    /// Why the point is infeasible (`None` when `feasible`).
    pub reason: Option<InfeasibleReason>,
    /// Total analog gate area of the converter in m².
    pub total_area: f64,
    /// Slower pole frequency of eq. (13) in Hz (the speed objective of
    /// Fig. 3 lower).
    pub min_pole_hz: f64,
    /// Half-LSB settling time from the two-pole model, in s.
    pub settling_s: f64,
    /// DC output impedance of the unary cell at the optimum bias, in Ω.
    pub rout: f64,
    /// Output current of the unary cell as verified by the Newton DC solver
    /// at the optimum bias, in A. Filled for every point of a dense sweep
    /// and for the chosen point of an optimum search; zero when no bias
    /// point exists or the solve failed. Informational only — it never
    /// changes `feasible` or the choice of optimum.
    pub dc_i_out: f64,
    /// True when the DC solver confirmed every device of the unary cell in
    /// saturation at the optimum bias. Informational only.
    pub dc_saturated: bool,
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(Vov_CS = {:.3} V, Vov_SW = {:.3} V): area = {:.1} kum2, f_min = {:.1} MHz, ts = {:.2} ns{}",
            self.vov_cs,
            self.vov_sw,
            self.total_area * 1e12 / 1e3,
            self.min_pole_hz / 1e6,
            self.settling_s * 1e9,
            if self.feasible { "" } else { " [infeasible]" }
        )
    }
}

/// Optimisation objective over the admissible region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimise the total analog area (the matching-driven objective).
    MinArea,
    /// Maximise the slower pole frequency (minimise settling time) — the
    /// "maximum speed" point of Fig. 3 lower.
    MaxSpeed,
    /// Maximise the DC output impedance of the unary cell.
    MaxImpedance,
}

/// Which point kernel a sweep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// The production kernel. Rows run the closed-form metric chain per
    /// point with the CS devices hoisted per row and the switch devices per
    /// sweep; dense rows batch their deferred DC solves through the
    /// lane-wide Newton kernel (`solve_simple_lanes`) in fixed-width
    /// groups, and optimum searches run the best-first row pass. Single
    /// points ([`DesignSpace::evaluate`]) run the scalar cold kernel. All
    /// produce the same bits in every [`DesignPoint`] field and the same
    /// solver counters, by the lane kernel's scalar-equivalence contract.
    #[default]
    Lanes,
    /// The pre-optimization baseline and the one oracle: central-difference
    /// Jacobians, fixed-depth bisection settling, no fixed-point polish,
    /// and no memoization — every point recomputes its sizing, margin, and
    /// bias from scratch, and the optimum is a scan of the dense sweep.
    /// Agrees with [`SweepMode::Lanes`] to solver tolerance but not
    /// bitwise; kept as a cross-check and as `sweep_bench`'s baseline.
    Reference,
}

impl fmt::Display for SweepMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepMode::Lanes => write!(f, "lanes"),
            SweepMode::Reference => write!(f, "reference"),
        }
    }
}

/// Lane width of [`SweepMode::Lanes`] row batches. Eight `f64` lanes span
/// two AVX-512 / four SSE2 vectors — wide enough to keep the branch-free
/// pre-solve fully vectorized, narrow enough that one straggler lane
/// wastes little masked work. The certified widths (4 and 8) are both
/// exercised by the lane-differential tests; the production kernel uses 8.
const LANE_W: usize = 8;

/// Aggregate DC-solver effort of one sweep — the side channel for solver
/// diagnostics, kept out of [`DesignPoint`] so the journaled payloads carry
/// only the design results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Number of DC solves attempted (one per point with a bias point).
    pub dc_solves: u64,
    /// Total Newton iterations across all solves (including polish).
    pub dc_iterations: u64,
    /// Solves that failed (the point keeps zeroed DC fields).
    pub dc_failures: u64,
}

impl SweepStats {
    /// Mean Newton iterations per attempted DC solve.
    pub fn iterations_per_solve(&self) -> f64 {
        if self.dc_solves == 0 {
            return 0.0;
        }
        self.dc_iterations as f64 / self.dc_solves as f64
    }
}

/// Flat struct-of-arrays storage of an evaluated sweep: one allocation per
/// column instead of building intermediate per-point rows, and columnar
/// scans (`pareto_front`) that only touch two or three metrics out of
/// nine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesignGrid {
    vov_cs: Vec<f64>,
    vov_sw: Vec<f64>,
    reason: Vec<Option<InfeasibleReason>>,
    total_area: Vec<f64>,
    min_pole_hz: Vec<f64>,
    settling_s: Vec<f64>,
    rout: Vec<f64>,
    dc_i_out: Vec<f64>,
    dc_saturated: Vec<bool>,
}

impl DesignGrid {
    /// An empty grid with room for `n` points per column.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            vov_cs: Vec::with_capacity(n),
            vov_sw: Vec::with_capacity(n),
            reason: Vec::with_capacity(n),
            total_area: Vec::with_capacity(n),
            min_pole_hz: Vec::with_capacity(n),
            settling_s: Vec::with_capacity(n),
            rout: Vec::with_capacity(n),
            dc_i_out: Vec::with_capacity(n),
            dc_saturated: Vec::with_capacity(n),
        }
    }

    /// Appends one evaluated point.
    pub fn push(&mut self, p: DesignPoint) {
        self.vov_cs.push(p.vov_cs);
        self.vov_sw.push(p.vov_sw);
        self.reason.push(p.reason);
        self.total_area.push(p.total_area);
        self.min_pole_hz.push(p.min_pole_hz);
        self.settling_s.push(p.settling_s);
        self.rout.push(p.rout);
        self.dc_i_out.push(p.dc_i_out);
        self.dc_saturated.push(p.dc_saturated);
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.vov_cs.len()
    }

    /// True when no point is stored.
    pub fn is_empty(&self) -> bool {
        self.vov_cs.is_empty()
    }

    /// Reassembles point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn point(&self, i: usize) -> DesignPoint {
        DesignPoint {
            vov_cs: self.vov_cs[i],
            vov_sw: self.vov_sw[i],
            feasible: self.reason[i].is_none(),
            reason: self.reason[i],
            total_area: self.total_area[i],
            min_pole_hz: self.min_pole_hz[i],
            settling_s: self.settling_s[i],
            rout: self.rout[i],
            dc_i_out: self.dc_i_out[i],
            dc_saturated: self.dc_saturated[i],
        }
    }

    /// Iterates the stored points in insertion (row-major) order.
    pub fn iter_points(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.len()).map(|i| self.point(i))
    }

    /// Converts to a row-major point vector.
    pub fn into_points(self) -> Vec<DesignPoint> {
        (0..self.len()).map(|i| self.point(i)).collect()
    }
}

/// Grid explorer over the simple-topology overdrive plane.
///
/// # Examples
///
/// ```
/// use ctsdac_core::explore::{DesignSpace, Objective};
/// use ctsdac_core::saturation::SaturationCondition;
/// use ctsdac_core::DacSpec;
///
/// let spec = DacSpec::paper_12bit();
/// let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(24);
/// let fast = space.optimize(Objective::MaxSpeed)?;
/// assert!(fast.min_pole_hz > 1e7);
/// # Ok::<(), ctsdac_core::explore::ExploreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DesignSpace {
    spec: DacSpec,
    condition: SaturationCondition,
    grid: usize,
    vov_min: f64,
    vov_max: f64,
    mode: SweepMode,
}

impl DesignSpace {
    /// Creates an explorer with a default 32×32 grid over
    /// `[0.05 V, V_out,min]` per axis, in [`SweepMode::Lanes`].
    pub fn new(spec: &DacSpec, condition: SaturationCondition) -> Self {
        Self {
            spec: *spec,
            condition,
            grid: 32,
            vov_min: 0.05,
            vov_max: spec.env.v_out_min(),
            mode: SweepMode::Lanes,
        }
    }

    /// Selects the point kernel (see [`SweepMode`]).
    pub fn with_mode(mut self, mode: SweepMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active sweep mode.
    pub fn mode(&self) -> SweepMode {
        self.mode
    }

    /// Sets the grid resolution per axis; values below 2 are clamped to 2
    /// (one point per axis end).
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid.max(2);
        self
    }

    /// Sets the overdrive sweep range. The bounds are sanitised rather than
    /// trusted: non-finite values are ignored, the lower bound is clamped
    /// to at least 1 mV, and the upper bound to at least 1 mV above the
    /// lower.
    pub fn with_range(mut self, vov_min: f64, vov_max: f64) -> Self {
        if vov_min.is_finite() {
            self.vov_min = vov_min.max(1e-3);
        }
        if vov_max.is_finite() {
            self.vov_max = vov_max.max(self.vov_min + 1e-3);
        } else {
            self.vov_max = self.vov_max.max(self.vov_min + 1e-3);
        }
        self
    }

    /// The grid coordinates of one axis. Empty when the range does not
    /// rise from `vov_min` (the default upper bound `V_out,min` is at or
    /// below the 0.05 V floor): no pair of positive overdrives fits under
    /// the headroom then, and every search reports an empty region.
    pub fn axis(&self) -> Vec<f64> {
        if self.vov_max <= self.vov_min {
            return Vec::new();
        }
        (0..self.grid)
            .map(|i| {
                self.vov_min + (self.vov_max - self.vov_min) * i as f64 / (self.grid - 1) as f64
            })
            .collect()
    }

    /// Evaluates one design point (feasible or not — infeasible points are
    /// still evaluated so constraint maps can be drawn). A point whose
    /// metric evaluation fails numerically is kept in the sweep but tagged
    /// [`InfeasibleReason::NumericalFailure`] instead of carrying fabricated
    /// figures of merit.
    ///
    /// Single-point entry: the scalar cold kernel, bit-identical to the
    /// corresponding dense-sweep point (the lane kernel returns the scalar
    /// solver's bits).
    pub fn evaluate(&self, vov_cs: f64, vov_sw: f64) -> DesignPoint {
        let mut stats = SweepStats::default();
        if self.mode == SweepMode::Reference {
            return self.evaluate_reference(vov_cs, vov_sw, &mut stats);
        }
        let unit = CsSizing::for_spec(&self.spec, vov_cs);
        self.evaluate_in(&SweepCtx::new(self), &unit, vov_sw, &mut stats)
    }

    /// The scalar cold point kernel. `unit` is the CS sizing (a function of
    /// `vov_cs` only).
    fn evaluate_in(
        &self,
        ctx: &SweepCtx,
        unit: &CsSizing,
        vov_sw: f64,
        stats: &mut SweepStats,
    ) -> DesignPoint {
        obs::incr(obs::Counter::SweepPoints);
        let spec = &self.spec;
        let vov_cs = unit.vov();
        // One weight-1 LSB cell serves both the statistical margin sigmas
        // and the total-area objective.
        let lsb_cell = build_simple_cell_with_unit(spec, unit, vov_sw, 1);
        let admits =
            self.condition
                .admits_simple_prepared(spec, &lsb_cell, ctx.s_factor, vov_cs, vov_sw);
        // The bias point must also exist for the *nominal* devices.
        let has_bias = vov_cs + vov_sw < ctx.v_out_min;
        let mut metrics = None;
        let mut dc = (0.0, false);
        if has_bias {
            let cell = build_simple_cell_with_unit(spec, unit, vov_sw, ctx.unary_weight);
            let (v_gate_sw, m) = ctx.metric_chain(spec, &cell);
            metrics = m;
            // DC verification. Informational — a solver failure keeps the
            // closed-form feasibility verdict, it does not retag the point.
            if let Some(v_gate_sw) = v_gate_sw {
                stats.dc_solves += 1;
                match solve_simple(&cell, &spec.env, v_gate_sw) {
                    Ok(op) => {
                        stats.dc_iterations += op.iterations as u64;
                        dc = (op.i_out, op.all_saturated());
                    }
                    Err(_) => stats.dc_failures += 1,
                }
            }
        }
        let total_area = total_analog_area_from_lsb(spec, &lsb_cell);
        let mut p = closed_form_point(vov_cs, vov_sw, admits, has_bias, total_area, metrics);
        (p.dc_i_out, p.dc_saturated) = dc;
        p
    }

    /// The pre-optimization point kernel, kept verbatim as the baseline:
    /// per-point sizing/margin/bias recomputation, cold central-difference
    /// DC solve, fixed-depth bisection settling. Agrees with
    /// [`Self::evaluate_in`] to solver tolerance.
    fn evaluate_reference(&self, vov_cs: f64, vov_sw: f64, stats: &mut SweepStats) -> DesignPoint {
        obs::incr(obs::Counter::SweepPoints);
        let spec = &self.spec;
        let admits = self.condition.admits_simple(spec, vov_cs, vov_sw);
        let has_bias = vov_cs + vov_sw < spec.env.v_out_min();
        let mut reason = if !admits {
            Some(InfeasibleReason::ConstraintViolated)
        } else if !has_bias {
            Some(InfeasibleReason::NoBiasPoint)
        } else {
            None
        };
        let cell = build_simple_cell(spec, vov_cs, vov_sw, spec.unary_weight());
        let total_area = total_analog_area_simple(spec, vov_cs, vov_sw);
        let mut metrics = (0.0, f64::INFINITY, 0.0);
        let mut dc = (0.0, false);
        if has_bias {
            let poles = PoleModel::new(spec.cells_at_output())
                .poles(&cell, &spec.env)
                .ok()
                .filter(TwoPoles::has_valid_taus);
            let rout = rout_at_optimum(&cell, &spec.env);
            let mut failed = true;
            if let (Some(p), Ok(r)) = (poles, rout) {
                let f_min = p.dominant_hz();
                let ts = settling_time_two_pole_bisect(&p, spec.n_bits);
                if f_min.is_finite() && f_min > 0.0 && ts.is_finite() && r.is_finite() {
                    metrics = (f_min, ts, r);
                    failed = false;
                }
            }
            if let Ok(opt) = OptimumBias::of(&cell, &spec.env) {
                stats.dc_solves += 1;
                match solve_simple_reference(&cell, &spec.env, opt.v_gate_sw) {
                    Ok(op) => {
                        stats.dc_iterations += op.iterations as u64;
                        dc = (op.i_out, op.all_saturated());
                    }
                    Err(_) => stats.dc_failures += 1,
                }
            }
            if failed && reason.is_none() {
                reason = Some(InfeasibleReason::NumericalFailure);
            }
        }
        let (min_pole_hz, settling_s, rout) = metrics;
        let (dc_i_out, dc_saturated) = dc;
        DesignPoint {
            vov_cs,
            vov_sw,
            feasible: reason.is_none(),
            reason,
            total_area,
            min_pole_hz,
            settling_s,
            rout,
            dc_i_out,
            dc_saturated,
        }
    }

    /// Evaluates one grid row (fixed `vov_cs`, all `vov_sw` values of the
    /// axis) in the active mode; `cols` is the sweep's switch table. Shared
    /// verbatim by the sequential and supervised sweeps so they stay
    /// bit-identical.
    fn evaluate_row<const W: usize>(
        &self,
        vov_cs: f64,
        axis: &[f64],
        cols: &SwColumns,
        stats: &mut SweepStats,
    ) -> Vec<DesignPoint> {
        match self.mode {
            SweepMode::Lanes => self.evaluate_row_lanes::<W>(vov_cs, axis, cols, stats),
            SweepMode::Reference => axis
                .iter()
                .map(|&vov_sw| self.evaluate_reference(vov_cs, vov_sw, stats))
                .collect(),
        }
    }

    /// The [`SweepMode::Lanes`] dense row kernel. Phase A walks the row's
    /// closed-form metric chain per point through [`RowKernel`] and defers
    /// every DC solve; phase B batches the deferred solves through the
    /// lane-wide Newton kernel in groups of `W`.
    ///
    /// Every [`DesignPoint`] is bit-identical to the scalar
    /// [`Self::evaluate_in`] result: the hoisted cell assembly reproduces
    /// the direct builder's bits, feasibility/metrics never depend on the
    /// DC solve, and the lane kernel certifies bit- and counter-equality
    /// with the scalar cold solver. `SweepStats` totals are therefore
    /// independent of both `W` and the job count (rows are chunks).
    fn evaluate_row_lanes<const W: usize>(
        &self,
        vov_cs: f64,
        axis: &[f64],
        cols: &SwColumns,
        stats: &mut SweepStats,
    ) -> Vec<DesignPoint> {
        let kernel = RowKernel::new(self, vov_cs, axis, cols);
        let mut row = Vec::with_capacity(axis.len());
        // Deferred DC work, SoA: target row index, unary cell, gate voltage.
        let mut dc_idx: Vec<usize> = Vec::with_capacity(axis.len());
        let mut dc_cells: Vec<SizedCell> = Vec::with_capacity(axis.len());
        let mut dc_gates: Vec<f64> = Vec::with_capacity(axis.len());
        for j in 0..axis.len() {
            let mut metrics = None;
            if kernel.has_bias(j) {
                let (cell, v_gate_sw, m) = kernel.chain(j);
                metrics = m;
                if let Some(v_gate_sw) = v_gate_sw {
                    dc_idx.push(j);
                    dc_cells.push(cell);
                    dc_gates.push(v_gate_sw);
                }
            }
            row.push(kernel.point(j, kernel.admits(j), metrics));
        }
        // Phase B: lane-batched DC verification, informational only.
        for (k, result) in solve_simple_lanes::<W>(&dc_cells, &self.spec.env, &dc_gates)
            .into_iter()
            .enumerate()
        {
            stats.dc_solves += 1;
            match result {
                Ok(op) => {
                    stats.dc_iterations += op.iterations as u64;
                    row[dc_idx[k]].dc_i_out = op.i_out;
                    row[dc_idx[k]].dc_saturated = op.all_saturated();
                }
                Err(_) => stats.dc_failures += 1,
            }
        }
        row
    }

    /// Test-and-certification entry: the dense sweep at an explicit lane
    /// width (ignored in [`SweepMode::Reference`]). The production width is
    /// [`LANE_W`]; the lane-differential suite runs this at 4 and 8 to
    /// prove results and counters are width-invariant.
    #[doc(hidden)]
    pub fn sweep_with_stats_lane_width<const W: usize>(&self) -> (DesignGrid, SweepStats) {
        let _span = obs::span("core.sweep.dense");
        let axis = self.axis();
        let cols = SwColumns::build(&self.spec, &axis);
        let mut grid = DesignGrid::with_capacity(axis.len() * axis.len());
        let mut stats = SweepStats::default();
        for &vov_cs in &axis {
            for p in self.evaluate_row::<W>(vov_cs, &axis, &cols, &mut stats) {
                grid.push(p);
            }
        }
        (grid, stats)
    }

    /// Evaluates the full grid, row-major in `vov_cs` then `vov_sw`.
    pub fn sweep(&self) -> Vec<DesignPoint> {
        self.sweep_grid().into_points()
    }

    /// [`DesignSpace::sweep`] into struct-of-arrays storage.
    pub fn sweep_grid(&self) -> DesignGrid {
        self.sweep_with_stats().0
    }

    /// [`DesignSpace::sweep_grid`] plus the DC-solver effort counters.
    pub fn sweep_with_stats(&self) -> (DesignGrid, SweepStats) {
        self.sweep_with_stats_lane_width::<LANE_W>()
    }

    /// Best feasible point under `objective`.
    ///
    /// # Errors
    ///
    /// [`ExploreError::EmptyFeasibleRegion`] when no grid point is
    /// admissible at this resolution; [`ExploreError::NumericalFailure`]
    /// when candidates existed but every one failed to evaluate.
    pub fn optimize(&self, objective: Objective) -> Result<DesignPoint, ExploreError> {
        self.optimize_constrained(objective, f64::INFINITY)
    }

    /// Best feasible point under `objective` among those settling within
    /// `max_settling` seconds — the practical formulation of the paper's
    /// trade: minimise area *subject to* the 400 MS/s settling target.
    /// A non-positive bound admits nothing and reports an empty region.
    ///
    /// In [`SweepMode::Lanes`] this is the best-first search of the module
    /// docs, with one DC solve on the winner; its result, errors included,
    /// is bit-identical to a scan of the dense sweep, which
    /// [`SweepMode::Reference`] still runs.
    ///
    /// # Errors
    ///
    /// As [`DesignSpace::optimize`].
    pub fn optimize_constrained(
        &self,
        objective: Objective,
        max_settling: f64,
    ) -> Result<DesignPoint, ExploreError> {
        if self.mode == SweepMode::Reference {
            return select_best(self.sweep_grid().iter_points(), objective, max_settling);
        }
        let _span = obs::span("core.optimum.search");
        let axis = self.axis();
        let cols = SwColumns::build(&self.spec, &axis);
        let rows: Vec<RowBest> = axis
            .iter()
            .map(|&vov_cs| {
                self.scan_row(vov_cs, &axis, &cols, objective)
                    .best(objective, max_settling)
            })
            .collect();
        self.verified_winner(&rows, objective, axis.len())
    }

    /// Closed-form pass of one row for the optimum search: every column's
    /// area, and the points with a bias point scored under `objective`. A
    /// min-area row defers even the admission test to the visit; the speed
    /// and impedance scores run the metric chain on admissible points.
    fn scan_row<'a>(
        &'a self,
        vov_cs: f64,
        axis: &'a [f64],
        cols: &'a SwColumns,
        objective: Objective,
    ) -> RowScan<'a> {
        let kernel = RowKernel::new(self, vov_cs, axis, cols);
        let areas: Vec<f64> = (0..axis.len()).map(|j| kernel.area(j)).collect();
        let mut cands = Vec::new();
        for (j, &area) in areas.iter().enumerate() {
            if !kernel.has_bias(j) {
                continue;
            }
            cands.push(match objective {
                Objective::MinArea => (-area, j, None),
                _ if !kernel.admits(j) => continue,
                _ => match kernel.chain(j).2 {
                    Some(m) => (
                        score(&kernel.point(j, true, Some(m)), objective),
                        j,
                        Some(m),
                    ),
                    // A failing chain can never win: it sorts last, and
                    // fails again (and is counted) if the visit reaches it.
                    None => (f64::NEG_INFINITY, j, None),
                },
            });
        }
        RowScan {
            kernel,
            areas,
            cands,
        }
    }

    /// The best row winner, picked by `select_best` (ties go to the later
    /// row) and DC-verified by one scalar Newton solve — or the error
    /// `select_best` would report over the `g²` points of the dense sweep.
    fn verified_winner(
        &self,
        rows: &[RowBest],
        objective: Objective,
        g: usize,
    ) -> Result<DesignPoint, ExploreError> {
        let winners = rows.iter().filter_map(|r| r.best);
        let mut p = select_best(winners, objective, f64::INFINITY).map_err(|_| {
            let failed = rows.iter().map(|r| r.failed).sum();
            let evaluated = g * g;
            if failed > 0 {
                ExploreError::NumericalFailure { failed, evaluated }
            } else {
                ExploreError::EmptyFeasibleRegion { evaluated }
            }
        })?;
        // The scalar cold solve on the directly built cell: the bits the
        // dense sweep's lane kernel stores for this point.
        let unit = CsSizing::for_spec(&self.spec, p.vov_cs);
        let cell =
            build_simple_cell_with_unit(&self.spec, &unit, p.vov_sw, self.spec.unary_weight());
        if let Ok(opt) = OptimumBias::of(&cell, &self.spec.env) {
            if let Ok(op) = solve_simple(&cell, &self.spec.env, opt.v_gate_sw) {
                p.dc_i_out = op.i_out;
                p.dc_saturated = op.all_saturated();
            }
        }
        Ok(p)
    }

    /// The area–speed Pareto front of the admissible region: feasible
    /// points not dominated in (smaller area, faster dominant pole) by any
    /// other, sorted by ascending area. The ends of the front are the
    /// min-area and max-speed optima; everything between is the menu the
    /// designer actually chooses from.
    pub fn pareto_front(&self) -> Vec<DesignPoint> {
        pareto_of_grid(&self.sweep_grid())
    }

    /// Digest of everything that determines sweep results, used as the
    /// checkpoint journal identity: resuming with a different spec, grid,
    /// range or condition is rejected instead of splicing wrong results.
    fn params_digest(&self) -> String {
        // The mode is part of the identity: the reference kernel differs
        // from the lanes kernel in the last bits, so the two must not
        // splice into one journal.
        format!(
            "cond={:?};grid={};vov=[{},{}];mode={:?};spec={:?}",
            self.condition,
            self.grid,
            encode_f64(self.vov_min),
            encode_f64(self.vov_max),
            self.mode,
            self.spec
        )
    }

    /// [`DesignSpace::sweep`] under runtime supervision: grid rows are the
    /// chunks (one per `vov_cs`), evaluated by the worker pool with panic
    /// isolation, retry, optional deadline, and checkpoint-resume per
    /// `policy`. Row results are assembled in row order, so the sweep is
    /// bit-identical to the sequential one for any job count and across
    /// resume.
    ///
    /// # Errors
    ///
    /// [`SweepError::Runtime`] when supervision fails (retry exhaustion,
    /// cancellation, journal error).
    pub fn sweep_supervised(
        &self,
        policy: &ExecPolicy,
    ) -> Result<Supervised<Vec<DesignPoint>>, SweepError> {
        let _span = obs::span("core.sweep.supervised");
        let axis = self.axis();
        // One switch table for every chunk, exactly as the dense sweep.
        let cols = SwColumns::build(&self.spec, &axis);
        let meta = JournalMeta {
            kind: "sweep".into(),
            seed: 0,
            chunks: axis.len() as u64,
            params: self.params_digest(),
        };
        let out = run_journaled(policy, &meta, decode_row, encode_row, |ctx| {
            let vov_cs = axis[ctx.chunk as usize];
            // The row kernel is shared with the sequential sweep and a
            // row depends on nothing outside itself, so any job count
            // produces identical bits. Per-row solver stats stay local:
            // the journaled payload carries only the design points.
            let mut row_stats = SweepStats::default();
            let row = self.evaluate_row::<LANE_W>(vov_cs, &axis, &cols, &mut row_stats);
            ctx.add_units(row.len() as u64);
            check_row_areas(ctx, vov_cs, &axis, row.iter().map(|p| p.total_area))?;
            Ok(row)
        })?;
        Ok(out.map(|rows| rows.into_iter().flatten().collect()))
    }

    /// [`DesignSpace::optimize_constrained`] under runtime supervision: grid
    /// rows are the chunks, each journaling only its winner and failure
    /// count (journal kind `"optimum"`, identity bound to the objective and
    /// settling bound) and publishing the winner's score to the progress
    /// gauge. Bit-identical to the sequential search for any job count and
    /// across resume. [`SweepMode::Reference`] scans its supervised sweep.
    ///
    /// # Errors
    ///
    /// [`SweepError::Runtime`] when supervision fails;
    /// [`SweepError::Explore`] when the search succeeds but admits no
    /// feasible point.
    pub fn optimize_supervised(
        &self,
        objective: Objective,
        max_settling: f64,
        policy: &ExecPolicy,
    ) -> Result<Supervised<DesignPoint>, SweepError> {
        if self.mode == SweepMode::Reference {
            let out = self.sweep_supervised(policy)?;
            let best = select_best(out.value.iter().copied(), objective, max_settling)?;
            return Ok(out.map(|_| best));
        }
        let _span = obs::span("core.optimum.search");
        let axis = self.axis();
        let cols = SwColumns::build(&self.spec, &axis);
        let meta = JournalMeta {
            kind: "optimum".into(),
            seed: 0,
            chunks: axis.len() as u64,
            params: format!(
                "{};objective={objective:?};max_settling={}",
                self.params_digest(),
                encode_f64(max_settling)
            ),
        };
        let out = run_journaled(policy, &meta, decode_row_best, encode_row_best, |ctx| {
            let vov_cs = axis[ctx.chunk as usize];
            let scan = self.scan_row(vov_cs, &axis, &cols, objective);
            ctx.add_units(axis.len() as u64);
            check_row_areas(ctx, vov_cs, &axis, scan.areas.iter().copied())?;
            let row = scan.best(objective, max_settling);
            if let Some(p) = &row.best {
                ctx.publish_gauge(score(p, objective), f64::max);
            }
            Ok(row)
        })?;
        let best = self.verified_winner(&out.value, objective, axis.len())?;
        Ok(out.map(|_| best))
    }

    /// [`DesignSpace::pareto_front`] over a supervised sweep.
    ///
    /// # Errors
    ///
    /// [`SweepError::Runtime`] when supervision fails.
    pub fn pareto_front_supervised(
        &self,
        policy: &ExecPolicy,
    ) -> Result<Supervised<Vec<DesignPoint>>, SweepError> {
        Ok(self.sweep_supervised(policy)?.map(|pts| {
            let mut grid = DesignGrid::with_capacity(pts.len());
            pts.into_iter().for_each(|p| grid.push(p));
            pareto_of_grid(&grid)
        }))
    }

    /// The constraint curve: for each grid `vov_cs`, the largest admissible
    /// `vov_sw` (the paper's Fig. 3 upper). Points with no admissible switch
    /// overdrive are omitted.
    pub fn constraint_curve(&self) -> Vec<(f64, f64)> {
        self.axis()
            .into_iter()
            .filter_map(|vov_cs| {
                self.condition
                    .max_vov_sw(&self.spec, vov_cs)
                    .map(|max_sw| (vov_cs, max_sw))
            })
            .collect()
    }

    /// The spec this explorer is bound to.
    pub fn spec(&self) -> &DacSpec {
        &self.spec
    }

    /// The saturation condition in use.
    pub fn condition(&self) -> SaturationCondition {
        self.condition
    }
}

/// Spec-level invariants hoisted out of the per-point sweep loop. Each
/// field is a pure function of the spec, so caching is bit-neutral.
struct SweepCtx {
    s_factor: f64,
    v_out_min: f64,
    unary_weight: u64,
    cells_at_output: usize,
}

impl SweepCtx {
    fn new(space: &DesignSpace) -> Self {
        Self {
            s_factor: SaturationCondition::s_factor(&space.spec),
            v_out_min: space.spec.env.v_out_min(),
            unary_weight: space.spec.unary_weight(),
            cells_at_output: space.spec.cells_at_output(),
        }
    }

    /// The metric chain of one unary cell, shared by every production
    /// kernel: optimum bias, then poles and output impedance at that bias,
    /// then settling. Returns the bias point's switch gate voltage (for the
    /// DC solve) and the metrics, each `None` when it fails.
    fn metric_chain(&self, spec: &DacSpec, cell: &SizedCell) -> (Option<f64>, Option<Metrics>) {
        let Ok(opt) = OptimumBias::of(cell, &spec.env) else {
            return (None, None);
        };
        // A NaN, zero or infinite time constant (e.g. from a NaN or infinite
        // load) fails the chain here, not the settling solve's precondition.
        let poles = PoleModel::new(self.cells_at_output)
            .poles_with_bias(cell, &spec.env, &opt)
            .ok()
            .filter(TwoPoles::has_valid_taus);
        let rout = rout_at_optimum_with_bias(cell, &spec.env, &opt);
        let mut metrics = None;
        if let (Some(p), Ok(r)) = (poles, rout) {
            let f_min = p.dominant_hz();
            let ts = settling_time_two_pole(&p, spec.n_bits);
            if f_min.is_finite() && f_min > 0.0 && ts.is_finite() && r.is_finite() {
                metrics = Some((f_min, ts, r));
            }
        }
        (Some(opt.v_gate_sw), metrics)
    }
}

/// `(min_pole_hz, settling_s, rout)` of a point whose metric chain
/// succeeded.
type Metrics = (f64, f64, f64);

/// Assembles a point without DC fields. A failed (`None`) chain retags a
/// candidate as a numerical failure; a point the constraints already
/// exclude keeps its constraint-side reason.
fn closed_form_point(
    vov_cs: f64,
    vov_sw: f64,
    admits: bool,
    has_bias: bool,
    total_area: f64,
    metrics: Option<Metrics>,
) -> DesignPoint {
    let reason = if !admits {
        Some(InfeasibleReason::ConstraintViolated)
    } else if !has_bias {
        Some(InfeasibleReason::NoBiasPoint)
    } else if metrics.is_none() {
        Some(InfeasibleReason::NumericalFailure)
    } else {
        None
    };
    let (min_pole_hz, settling_s, rout) = metrics.unwrap_or((0.0, f64::INFINITY, 0.0));
    DesignPoint {
        vov_cs,
        vov_sw,
        feasible: reason.is_none(),
        reason,
        total_area,
        min_pole_hz,
        settling_s,
        rout,
        dc_i_out: 0.0,
        dc_saturated: false,
    }
}

/// Row-constant state of the [`SweepMode::Lanes`] row kernels: the CS
/// devices hoisted out of the column loop and the sweep's switch table.
/// The LSB cell never materializes: admission and area reduce to the
/// weight-1 gate areas (bit-identical geometry forms).
struct RowKernel<'a> {
    space: &'a DesignSpace,
    ctx: SweepCtx,
    axis: &'a [f64],
    cols: &'a SwColumns,
    unit: CsSizing,
    wl_cs: f64,
    cs_unary: ctsdac_process::mosfet::Mosfet,
}

impl<'a> RowKernel<'a> {
    fn new(space: &'a DesignSpace, vov_cs: f64, axis: &'a [f64], cols: &'a SwColumns) -> Self {
        let ctx = SweepCtx::new(space);
        let unit = CsSizing::for_spec(&space.spec, vov_cs);
        // One batched count per row: totals stay jobs- and W-invariant.
        obs::count(obs::Counter::SweepPoints, axis.len() as u64);
        Self {
            wl_cs: sized_cs_with_unit(&space.spec, &unit, 1).area(),
            cs_unary: sized_cs_with_unit(&space.spec, &unit, ctx.unary_weight),
            space,
            ctx,
            axis,
            cols,
            unit,
        }
    }

    /// The saturation condition at column `j` (the statistical margin's
    /// sigmas from the LSB device gate areas).
    fn admits(&self, j: usize) -> bool {
        self.space.condition.admits_simple_geometry(
            &self.space.spec,
            self.wl_cs,
            self.cols.lsb[j].area(),
            self.ctx.s_factor,
            self.unit.vov(),
            self.axis[j],
        )
    }

    /// Whether the nominal devices of column `j` have a bias point.
    fn has_bias(&self, j: usize) -> bool {
        self.unit.vov() + self.axis[j] < self.ctx.v_out_min
    }

    fn area(&self, j: usize) -> f64 {
        total_analog_area_from_geometry(&self.space.spec, self.wl_cs, self.cols.lsb[j].area())
    }

    /// The unary cell of column `j` and its metric chain.
    fn chain(&self, j: usize) -> (SizedCell, Option<f64>, Option<Metrics>) {
        let cell = build_simple_cell_with_devices(
            &self.space.spec,
            &self.unit,
            &self.cs_unary,
            &self.cols.unary[j],
            self.axis[j],
            self.ctx.unary_weight,
        );
        let (v_gate_sw, metrics) = self.ctx.metric_chain(&self.space.spec, &cell);
        (cell, v_gate_sw, metrics)
    }

    /// The point of column `j` without DC fields (see
    /// [`closed_form_point`]); `admits` is [`Self::admits`] or known.
    fn point(&self, j: usize, admits: bool, metrics: Option<Metrics>) -> DesignPoint {
        let (vov_cs, vov_sw) = (self.unit.vov(), self.axis[j]);
        closed_form_point(
            vov_cs,
            vov_sw,
            admits,
            self.has_bias(j),
            self.area(j),
            metrics,
        )
    }
}

/// One row after the optimum search's closed-form pass
/// ([`DesignSpace::scan_row`]).
struct RowScan<'a> {
    kernel: RowKernel<'a>,
    /// Total area of every column.
    areas: Vec<f64>,
    /// `(score, column, metrics)` of every point to visit. `None` metrics
    /// mark an entry whose admission test and chain run at the visit.
    cands: Vec<(f64, usize, Option<Metrics>)>,
}

/// A row's contribution to the optimum: its winner, if any (without DC
/// fields), and the failures `select_best` would count on the way.
struct RowBest {
    best: Option<DesignPoint>,
    failed: usize,
}

impl RowScan<'_> {
    /// The best-first pass: candidates in descending (score, column)
    /// order — `select_best`'s tie rule — until the first one that is
    /// admissible and that `select_best` accepts (feasible after its
    /// metric chain, settling within `max_settling`, finite score).
    /// Skipped points `select_best` counts as failed count here too.
    fn best(mut self, objective: Objective, max_settling: f64) -> RowBest {
        self.cands
            .sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(b.1.cmp(&a.1)));
        let mut failed = 0;
        for &(_, j, metrics) in &self.cands {
            let metrics = match metrics {
                Some(m) => Some(m),
                None if !self.kernel.admits(j) => continue,
                None => self.kernel.chain(j).2,
            };
            // `select_best` on the single point applies its own rule.
            match select_best(
                [self.kernel.point(j, true, metrics)],
                objective,
                max_settling,
            ) {
                Ok(p) => {
                    return RowBest {
                        best: Some(p),
                        failed,
                    }
                }
                Err(ExploreError::NumericalFailure { .. }) => failed += 1,
                Err(ExploreError::EmptyFeasibleRegion { .. }) => {}
            }
        }
        RowBest { best: None, failed }
    }
}

/// Column-constant switch devices of a lanes sweep: the switch geometry
/// depends only on `(vov_sw, weight)`, so one table, built once per sweep,
/// serves every grid row.
struct SwColumns {
    lsb: Vec<ctsdac_process::mosfet::Mosfet>,
    unary: Vec<ctsdac_process::mosfet::Mosfet>,
}

impl SwColumns {
    fn build(spec: &DacSpec, axis: &[f64]) -> Self {
        let unary_weight = spec.unary_weight();
        Self {
            lsb: axis
                .iter()
                .map(|&v| sized_sw_with_weight(spec, v, 1))
                .collect(),
            unary: axis
                .iter()
                .map(|&v| sized_sw_with_weight(spec, v, unary_weight))
                .collect(),
        }
    }
}

/// Fails a supervised row chunk (so the pool retries it) on a non-finite
/// area anywhere in the row; an injected `nan@` fault poisons the first.
fn check_row_areas(
    ctx: &ChunkCtx<'_>,
    vov_cs: f64,
    axis: &[f64],
    areas: impl Iterator<Item = f64>,
) -> Result<(), String> {
    let poisoned = ctx.injected_nan();
    for (j, area) in areas.enumerate() {
        if (poisoned && j == 0) || !area.is_finite() {
            return Err(format!(
                "non-finite area at ({vov_cs:.3} V, {:.3} V)",
                axis[j]
            ));
        }
    }
    Ok(())
}

fn score(p: &DesignPoint, objective: Objective) -> f64 {
    match objective {
        Objective::MinArea => -p.total_area,
        Objective::MaxSpeed => p.min_pole_hz,
        Objective::MaxImpedance => p.rout,
    }
}

/// Best feasible point of an evaluated sweep: the feasible point with the
/// highest finite score among those settling within `max_settling`, ties
/// going to the later point. The [`SweepMode::Reference`] optimum, and the
/// rule the best-first search reproduces bit for bit (the optimum
/// differential suite holds it to this function over the dense sweep).
#[doc(hidden)]
pub fn select_best(
    pts: impl IntoIterator<Item = DesignPoint>,
    objective: Objective,
    max_settling: f64,
) -> Result<DesignPoint, ExploreError> {
    let mut evaluated = 0usize;
    let mut failed = 0usize;
    let mut best: Option<DesignPoint> = None;
    for p in pts {
        evaluated += 1;
        if p.reason == Some(InfeasibleReason::NumericalFailure) {
            failed += 1;
            continue;
        }
        if !p.feasible || p.settling_s > max_settling {
            continue;
        }
        let k = score(&p, objective);
        if !k.is_finite() {
            failed += 1;
            continue;
        }
        // `total_cmp` gives a total order even on non-finite scores;
        // ties keep the later grid point, matching `Iterator::max_by`.
        let better = match &best {
            Some(b) => !k.total_cmp(&score(b, objective)).is_lt(),
            None => true,
        };
        if better {
            best = Some(p);
        }
    }
    match best {
        Some(p) => Ok(p),
        None if failed > 0 => Err(ExploreError::NumericalFailure { failed, evaluated }),
        None => Err(ExploreError::EmptyFeasibleRegion { evaluated }),
    }
}

/// Area–speed Pareto front of an evaluated sweep, shared by the
/// sequential and supervised front builders: sorts feasible *indices* by
/// the area column and materialises only the surviving front points, so
/// no intermediate point vector is allocated.
fn pareto_of_grid(grid: &DesignGrid) -> Vec<DesignPoint> {
    let mut idx: Vec<usize> = (0..grid.len())
        .filter(|&i| grid.reason[i].is_none())
        .collect();
    idx.sort_by(|&a, &b| grid.total_area[a].total_cmp(&grid.total_area[b]));
    let mut front: Vec<DesignPoint> = Vec::new();
    let mut best_speed = f64::NEG_INFINITY;
    for i in idx {
        if grid.min_pole_hz[i] > best_speed {
            best_speed = grid.min_pole_hz[i];
            front.push(grid.point(i));
        }
    }
    front
}

fn reason_code(reason: Option<InfeasibleReason>) -> &'static str {
    match reason {
        None => "-",
        Some(InfeasibleReason::ConstraintViolated) => "c",
        Some(InfeasibleReason::NoBiasPoint) => "b",
        Some(InfeasibleReason::NumericalFailure) => "n",
    }
}

fn encode_point(p: &DesignPoint) -> String {
    format!(
        "{}:{}:{}:{}:{}:{}:{}:{}:{}",
        encode_f64(p.vov_cs),
        encode_f64(p.vov_sw),
        reason_code(p.reason),
        encode_f64(p.total_area),
        encode_f64(p.min_pole_hz),
        encode_f64(p.settling_s),
        encode_f64(p.rout),
        encode_f64(p.dc_i_out),
        if p.dc_saturated { "1" } else { "0" }
    )
}

fn decode_point(s: &str) -> Option<DesignPoint> {
    let mut fields = s.split(':');
    let vov_cs = decode_f64(fields.next()?)?;
    let vov_sw = decode_f64(fields.next()?)?;
    let reason = match fields.next()? {
        "-" => None,
        "c" => Some(InfeasibleReason::ConstraintViolated),
        "b" => Some(InfeasibleReason::NoBiasPoint),
        "n" => Some(InfeasibleReason::NumericalFailure),
        _ => return None,
    };
    let total_area = decode_f64(fields.next()?)?;
    let min_pole_hz = decode_f64(fields.next()?)?;
    let settling_s = decode_f64(fields.next()?)?;
    let rout = decode_f64(fields.next()?)?;
    let dc_i_out = decode_f64(fields.next()?)?;
    let dc_saturated = match fields.next()? {
        "1" => true,
        "0" => false,
        _ => return None,
    };
    if fields.next().is_some() {
        return None;
    }
    Some(DesignPoint {
        vov_cs,
        vov_sw,
        feasible: reason.is_none(),
        reason,
        total_area,
        min_pole_hz,
        settling_s,
        rout,
        dc_i_out,
        dc_saturated,
    })
}

#[allow(
    clippy::ptr_arg,
    reason = "passed by name as the journal encoder of `Vec<DesignPoint>` row results"
)]
fn encode_row(row: &Vec<DesignPoint>) -> String {
    row.iter().map(encode_point).collect::<Vec<_>>().join(";")
}

fn decode_row(s: &str) -> Option<Vec<DesignPoint>> {
    s.split(';').map(decode_point).collect()
}

/// Journal payload of an optimum row: `failed;point`, with `-` for a row
/// that has no winner.
fn encode_row_best(row: &RowBest) -> String {
    let best = row.best.as_ref().map_or("-".into(), encode_point);
    format!("{};{best}", row.failed)
}

fn decode_row_best(s: &str) -> Option<RowBest> {
    let (failed, best) = s.split_once(';')?;
    let best = if best == "-" {
        None
    } else {
        Some(decode_point(best)?)
    };
    Some(RowBest {
        failed: failed.parse().ok()?,
        best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(cond: SaturationCondition) -> DesignSpace {
        DesignSpace::new(&DacSpec::paper_12bit(), cond).with_grid(20)
    }

    #[test]
    fn sweep_covers_grid() {
        let s = space(SaturationCondition::Exact);
        let pts = s.sweep();
        assert_eq!(pts.len(), 400);
        assert!(pts.iter().any(|p| p.feasible));
        assert!(pts.iter().any(|p| !p.feasible));
    }

    #[test]
    fn min_area_hugs_the_constraint() {
        // The area objective decreases with both overdrives, so the optimum
        // must sit at the admissible boundary, not in the interior.
        let s = space(SaturationCondition::Statistical);
        let best = s.optimize(Objective::MinArea).expect("feasible region");
        // Pushing either overdrive one grid step further must break
        // feasibility or leave the grid.
        let step = (s.vov_max - s.vov_min) / 19.0;
        let bumped = s.evaluate(best.vov_cs + step, best.vov_sw);
        assert!(
            !bumped.feasible || bumped.vov_cs > s.vov_max,
            "optimum not on the boundary: {best}"
        );
    }

    #[test]
    fn statistical_space_yields_smaller_area_than_legacy() {
        // The paper's headline: removing the arbitrary margin saves area.
        let stat = space(SaturationCondition::Statistical)
            .optimize(Objective::MinArea)
            .expect("feasible");
        let legacy = space(SaturationCondition::legacy())
            .optimize(Objective::MinArea)
            .expect("feasible");
        assert!(
            stat.total_area < legacy.total_area,
            "statistical {:.3e} >= legacy {:.3e}",
            stat.total_area,
            legacy.total_area
        );
    }

    #[test]
    fn max_speed_point_differs_from_min_area_point() {
        let s = space(SaturationCondition::Statistical);
        let fast = s.optimize(Objective::MaxSpeed).expect("feasible");
        let small = s.optimize(Objective::MinArea).expect("feasible");
        // They are distinct optima in general (Fig. 3 lower shows both).
        assert!(
            fast.min_pole_hz >= small.min_pole_hz,
            "speed optimum slower than area optimum"
        );
    }

    #[test]
    fn constraint_curves_are_ordered() {
        // At every vov_cs: exact ≥ statistical ≥ legacy.
        let spec = DacSpec::paper_12bit();
        let exact = DesignSpace::new(&spec, SaturationCondition::Exact).with_grid(12);
        let stat = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(12);
        let legacy = DesignSpace::new(&spec, SaturationCondition::legacy()).with_grid(12);
        let (ce, cs, cl) = (
            exact.constraint_curve(),
            stat.constraint_curve(),
            legacy.constraint_curve(),
        );
        for ((e, s), l) in ce.iter().zip(&cs).zip(&cl) {
            assert!(e.1 >= s.1 - 1e-9, "exact below statistical at {}", e.0);
            assert!(s.1 >= l.1 - 1e-9, "statistical below legacy at {}", s.0);
        }
    }

    #[test]
    fn pareto_front_is_monotone_and_spans_the_optima() {
        let s = space(SaturationCondition::Statistical);
        let front = s.pareto_front();
        assert!(front.len() >= 2, "degenerate front");
        // Monotone: area ascends, speed ascends.
        for w in front.windows(2) {
            assert!(w[1].total_area > w[0].total_area);
            assert!(w[1].min_pole_hz > w[0].min_pole_hz);
        }
        let min_area = s.optimize(Objective::MinArea).expect("feasible");
        let max_speed = s.optimize(Objective::MaxSpeed).expect("feasible");
        let first = front.first().expect("non-empty");
        let last = front.last().expect("non-empty");
        assert!((first.total_area - min_area.total_area).abs() < 1e-18);
        assert!((last.min_pole_hz - max_speed.min_pole_hz).abs() < 1.0);
    }

    #[test]
    fn pareto_points_are_not_dominated() {
        let s = space(SaturationCondition::Statistical);
        let front = s.pareto_front();
        let all: Vec<DesignPoint> = s.sweep().into_iter().filter(|p| p.feasible).collect();
        for f in &front {
            let dominated = all.iter().any(|p| {
                p.total_area < f.total_area - 1e-18 && p.min_pole_hz > f.min_pole_hz + 1e-9
            });
            assert!(!dominated, "dominated front point {f}");
        }
    }

    #[test]
    fn settling_constraint_trades_area_for_speed() {
        let s = space(SaturationCondition::Statistical);
        let unconstrained = s.optimize(Objective::MinArea).expect("feasible");
        // Require settling at 400 MS/s.
        let constrained = s
            .optimize_constrained(Objective::MinArea, 2.5e-9)
            .expect("a fast-enough point exists");
        assert!(constrained.settling_s <= 2.5e-9);
        assert!(
            constrained.total_area >= unconstrained.total_area,
            "constraint cannot shrink the optimum"
        );
        // An impossible bound empties the set with a typed error.
        assert_eq!(
            s.optimize_constrained(Objective::MinArea, 1e-12),
            Err(ExploreError::EmptyFeasibleRegion { evaluated: 400 })
        );
    }

    #[test]
    fn evaluate_marks_oversized_points_infeasible() {
        let s = space(SaturationCondition::Exact);
        let p = s.evaluate(1.5, 1.5);
        assert!(!p.feasible);
        assert!(p.settling_s.is_infinite());
        assert_eq!(p.reason, Some(InfeasibleReason::ConstraintViolated));
    }

    #[test]
    fn feasible_points_carry_no_reason() {
        let s = space(SaturationCondition::Statistical);
        let best = s.optimize(Objective::MinArea).expect("feasible region");
        assert!(best.feasible);
        assert_eq!(best.reason, None);
    }

    #[test]
    fn out_of_headroom_range_reports_empty_region() {
        // A sweep range entirely above the headroom has no feasible point;
        // the failure must be the typed empty-region error, not a panic.
        let s = space(SaturationCondition::Exact).with_range(2.0, 3.0);
        match s.optimize(Objective::MinArea) {
            Err(ExploreError::EmptyFeasibleRegion { evaluated }) => {
                assert_eq!(evaluated, 400);
            }
            other => panic!("expected empty region, got {other:?}"),
        }
    }

    #[test]
    fn explore_error_display_is_one_line() {
        let e = ExploreError::EmptyFeasibleRegion { evaluated: 64 };
        assert!(!format!("{e}").contains('\n'));
        let e = ExploreError::NumericalFailure {
            failed: 3,
            evaluated: 64,
        };
        let msg = format!("{e}");
        assert!(msg.contains('3') && msg.contains("64"), "{msg}");
    }

    #[test]
    fn supervised_sweep_matches_sequential_bitwise() {
        let s = space(SaturationCondition::Statistical);
        let sequential = s.sweep();
        for jobs in [1, 4] {
            let supervised = s
                .sweep_supervised(&ExecPolicy::with_jobs(jobs))
                .expect("supervised sweep");
            assert_eq!(supervised.value, sequential, "jobs = {jobs}");
        }
    }

    #[test]
    fn supervised_optimum_matches_sequential_under_faults() {
        use ctsdac_failpoint::Registry;
        let s = space(SaturationCondition::Statistical);
        let sequential = s.optimize(Objective::MinArea).expect("feasible");
        let mut policy = ExecPolicy::with_jobs(4);
        policy.pool.failpoints =
            Some(Registry::armed("panic@pool.chunk[1]:1,nan@pool.chunk[7]:1", 0).expect("spec"));
        let supervised = s
            .optimize_supervised(Objective::MinArea, f64::INFINITY, &policy)
            .expect("supervised optimum");
        assert_eq!(supervised.value, sequential);
        assert_eq!(supervised.faults.len(), 2);
        // The gauge carries the best objective score (negated area).
        let gauge = policy.pool.gauge.get().expect("gauge published");
        assert_eq!(gauge, -sequential.total_area);
    }

    #[test]
    fn supervised_sweep_resumes_from_corrupted_journal() {
        use ctsdac_runtime::truncate_tail;
        let dir = std::env::temp_dir().join("ctsdac-core-explore-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("sweep.jsonl");
        std::fs::remove_file(&path).ok();
        let s = space(SaturationCondition::Statistical);
        let sequential = s.sweep();
        s.sweep_supervised(&ExecPolicy::with_jobs(2).checkpoint_at(&path))
            .expect("journaled sweep");
        truncate_tail(&path, 11).expect("corrupt the tail");
        let resumed = s
            .sweep_supervised(&ExecPolicy::with_jobs(4).checkpoint_at(&path).resuming())
            .expect("resumed sweep");
        assert_eq!(resumed.value, sequential);
        assert!(resumed.restored > 0, "resume must reuse journal rows");
        assert!(resumed.dropped >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn supervised_pareto_front_matches_sequential() {
        let s = space(SaturationCondition::Statistical);
        let front = s
            .pareto_front_supervised(&ExecPolicy::with_jobs(3))
            .expect("supervised front");
        assert_eq!(front.value, s.pareto_front());
    }

    #[test]
    fn design_point_codec_round_trips_bitwise() {
        let s = space(SaturationCondition::Statistical);
        for p in [
            s.evaluate(0.3, 0.4),
            s.evaluate(1.5, 1.5),
            s.evaluate(0.05, 0.05),
        ] {
            let enc = encode_point(&p);
            let back = decode_point(&enc).expect("decodes");
            assert_eq!(back, p);
            assert_eq!(back.settling_s.to_bits(), p.settling_s.to_bits());
        }
        for bad in [
            "",
            "x",
            "0000000000000000:0:-:0:0:0:0",
            // A well-formed *7-field* line from a pre-DC-verification
            // journal must be dropped, not half-decoded.
            "0000000000000000:0000000000000000:-:0000000000000000:0000000000000000:\
             0000000000000000:0000000000000000",
        ] {
            assert_eq!(decode_point(bad), None, "accepted {bad:?}");
        }
        let enc = encode_point(&s.evaluate(0.3, 0.4));
        assert_eq!(
            decode_point(&format!("{enc}:00")),
            None,
            "extra field accepted"
        );
        // Optimum journal rows: a winner plus a failure count, or none.
        for (best, failed) in [(Some(s.evaluate(0.3, 0.4)), 2), (None, 0)] {
            let back = decode_row_best(&encode_row_best(&RowBest { best, failed }));
            let back = back.expect("decodes");
            assert_eq!((back.best, back.failed), (best, failed));
        }
        for bad in ["", "-", "x;-", "1;", "1;x", &enc] {
            assert!(decode_row_best(bad).is_none(), "accepted {bad:?}");
        }
    }

    #[test]
    fn lanes_sweep_is_bit_identical_to_the_scalar_kernel() {
        // The dense sweep against `evaluate` mapped over the same lattice:
        // every point and the summed solver effort must match bit for bit.
        let s = space(SaturationCondition::Statistical).with_grid(10);
        assert_eq!(s.mode(), SweepMode::Lanes, "production default");
        let (grid, ls) = s.sweep_with_stats();
        let axis = s.axis();
        let ctx = SweepCtx::new(&s);
        let mut scalar = SweepStats::default();
        for (i, &vov_cs) in axis.iter().enumerate() {
            let unit = CsSizing::for_spec(s.spec(), vov_cs);
            for (j, &vov_sw) in axis.iter().enumerate() {
                let p = s.evaluate_in(&ctx, &unit, vov_sw, &mut scalar);
                let q = grid.point(i * axis.len() + j);
                assert_eq!(p.dc_i_out.to_bits(), q.dc_i_out.to_bits(), "at ({i}, {j})");
                assert_eq!(p.rout.to_bits(), q.rout.to_bits());
                assert_eq!(p.settling_s.to_bits(), q.settling_s.to_bits());
                assert_eq!(p.total_area.to_bits(), q.total_area.to_bits());
                assert_eq!(p, q, "at ({i}, {j})");
            }
        }
        assert_eq!(ls, scalar, "lane and scalar solver effort differ");
        assert!(
            ls.iterations_per_solve() < 12.0,
            "iteration blow-up: {ls:?}"
        );
    }

    #[test]
    fn lane_width_does_not_change_results_or_counters() {
        // Lane-width invariance of both the stored points and the solver
        // effort counters: W = 1 (pure scalar order), 4 and 8.
        let lanes = space(SaturationCondition::Statistical).with_grid(10);
        let (g8, s8) = lanes.sweep_with_stats_lane_width::<8>();
        let (g4, s4) = lanes.sweep_with_stats_lane_width::<4>();
        let (g1, s1) = lanes.sweep_with_stats_lane_width::<1>();
        assert_eq!(s8, s4, "stats differ between W=8 and W=4");
        assert_eq!(s8, s1, "stats differ between W=8 and W=1");
        assert_eq!(g8, g4);
        assert_eq!(g8, g1);
        // The production entry uses LANE_W and must match too.
        let (gp, sp) = lanes.sweep_with_stats();
        assert_eq!(sp, s8);
        assert_eq!(gp, g8);
    }

    #[test]
    fn reference_sweep_agrees_with_lanes_kernel() {
        let lanes = space(SaturationCondition::Statistical).with_grid(8);
        let reference = lanes.clone().with_mode(SweepMode::Reference);
        let (lg, _) = lanes.sweep_with_stats();
        let (rg, rs) = reference.sweep_with_stats();
        assert!(rs.dc_solves > 0);
        for (a, b) in lg.iter_points().zip(rg.iter_points()) {
            // Closed-form metrics are the same arithmetic in both kernels.
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.total_area.to_bits(), b.total_area.to_bits());
            assert_eq!(a.min_pole_hz.to_bits(), b.min_pole_hz.to_bits());
            // The DC solution only agrees to solver tolerance (different
            // Jacobian, no polish).
            if a.dc_i_out != 0.0 {
                assert!(
                    ((a.dc_i_out - b.dc_i_out) / a.dc_i_out).abs() < 1e-6,
                    "dc mismatch at ({}, {}): {} vs {}",
                    a.vov_cs,
                    a.vov_sw,
                    a.dc_i_out,
                    b.dc_i_out
                );
                assert_eq!(a.dc_saturated, b.dc_saturated);
            }
        }
    }

    #[test]
    fn dc_verification_confirms_unary_current() {
        let s = space(SaturationCondition::Statistical);
        let p = s.evaluate(0.2, 0.3);
        assert!(p.feasible, "{p}");
        assert!(
            p.dc_saturated,
            "devices should saturate well inside the region"
        );
        let i_unary = s.spec().i_unary();
        assert!(
            ((p.dc_i_out - i_unary) / i_unary).abs() < 0.3,
            "solver current {} far from nominal {}",
            p.dc_i_out,
            i_unary
        );
        // Points without a bias point carry zeroed DC fields.
        let q = s.evaluate(1.5, 1.5);
        assert_eq!(q.dc_i_out, 0.0);
        assert!(!q.dc_saturated);
    }

    #[test]
    fn design_grid_matches_point_sweep() {
        let s = space(SaturationCondition::Statistical).with_grid(6);
        let (grid, _) = s.sweep_with_stats();
        let pts = s.sweep();
        assert_eq!(grid.len(), pts.len());
        assert!(!grid.is_empty());
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(grid.point(i), *p);
            assert_eq!(grid.point(i).total_area.to_bits(), p.total_area.to_bits());
        }
        let collected: Vec<DesignPoint> = grid.iter_points().collect();
        assert_eq!(collected, pts);
        assert_eq!(grid.into_points(), pts);
    }

    #[test]
    fn best_first_ties_go_to_the_later_column() {
        // Exact score ties within a row are rare on real grids, so force
        // one: the visit order must then fall back to the later column,
        // `select_best`'s tie rule.
        let s = space(SaturationCondition::Statistical);
        let axis = s.axis();
        let cols = SwColumns::build(&s.spec, &axis);
        let mut scan = s.scan_row(axis[3], &axis, &cols, Objective::MaxSpeed);
        let mut last = None;
        for c in scan.cands.iter_mut().filter(|c| c.2.is_some()) {
            c.0 = 1.0;
            last = last.max(Some(c.1));
        }
        assert!(scan.cands.len() >= 2, "row too small to tie");
        let row = scan.best(Objective::MaxSpeed, f64::INFINITY);
        assert_eq!(row.best.map(|p| p.vov_sw), last.map(|j| axis[j]));
    }

    #[test]
    fn headroom_at_or_below_the_axis_floor_is_an_empty_region() {
        // A swing that leaves V_out,min at or below the 0.05 V floor: the
        // axis is empty and every search reports an empty region instead
        // of sizing a device at a negative overdrive.
        let empty = ExploreError::EmptyFeasibleRegion { evaluated: 0 };
        for swing in [3.25, 3.4] {
            let mut spec = DacSpec::paper_12bit();
            spec.env.v_swing = swing;
            assert!(spec.env.v_out_min() <= 0.05, "swing {swing}");
            let s = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(6);
            assert!(s.axis().is_empty());
            assert_eq!(s.optimize(Objective::MinArea), Err(empty));
            for jobs in [1, 2] {
                let sup = s.optimize_supervised(
                    Objective::MinArea,
                    f64::INFINITY,
                    &ExecPolicy::with_jobs(jobs),
                );
                assert_eq!(sup.map(|o| o.value), Err(SweepError::Explore(empty)));
            }
        }
    }

    #[test]
    fn axis_spans_requested_range() {
        let s = space(SaturationCondition::Exact).with_range(0.1, 1.0);
        let axis = s.axis();
        assert_eq!(axis.first().copied(), Some(0.1));
        assert!((axis.last().copied().expect("non-empty") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_grid_is_clamped() {
        let s = space(SaturationCondition::Exact).with_grid(1);
        assert_eq!(s.axis().len(), 2);
    }

    #[test]
    fn bogus_range_is_sanitised() {
        let s = space(SaturationCondition::Exact).with_range(-1.0, f64::NAN);
        let axis = s.axis();
        assert!(axis.iter().all(|v| v.is_finite()));
        assert!(axis.first().copied() >= Some(1e-3));
        assert!(axis.last() > axis.first());
    }
}
