//! Nonlinear DC operating-point solver for the current-cell stack.
//!
//! The bias module ([`crate::bias`]) uses the paper's closed-form
//! square-law-in-saturation expressions. This module solves the *full* DC
//! network — square-law devices in whichever region the node voltages put
//! them, the resistive load, and Kirchhoff's current law at the internal
//! nodes — and is the in-repo stand-in for a SPICE `.op`. It is used to
//! verify that:
//!
//! * at the optimum bias every device really operates in saturation;
//! * driving the switch gate outside the eq. (3) bounds really pushes a
//!   device into triode;
//! * the cell current really is the programmed one.
//!
//! # Retry ladder
//!
//! The solver never panics on a pathological network; it walks a staged
//! fallback ladder and reports, in the returned [`OperatingPoint`] or
//! [`SolveDcError`], which stage produced the answer:
//!
//! 1. [`SolveStage::FullNewton`] — undamped Newton with an essentially
//!    unconstrained step; quadratic convergence on well-behaved cells.
//! 2. [`SolveStage::DampedNewton`] — damped Newton with step continuation:
//!    progressively stronger damping and tighter per-iteration voltage-step
//!    clamps, trading speed for a larger basin of attraction.
//! 3. [`SolveStage::Bisection`] — nested bounded bisection on the supply
//!    interval `[0, V_DD]`, exploiting the monotonicity of each KCL
//!    residual in its own node voltage. Derivative-free and immune to the
//!    Jacobian degeneracies that stall Newton (e.g. every device cut off).
//!
//! A residual that goes NaN/∞ (e.g. `R_L = 0`) aborts the stage
//! immediately and is reported as [`SolveDcError::NonFiniteResidual`]
//! instead of iterating on garbage.
//!
//! # Jacobians and the fixed-point polish
//!
//! The Newton stages use region-dispatched *analytic* Jacobians
//! ([`device_current_and_partials`] mirrors the square-law model's piecewise
//! branches exactly); the original central-difference Jacobian is retained
//! as [`central_difference_jacobian`] for the reference solvers
//! ([`solve_simple_reference`]) and the cross-check tests.
//!
//! Every solve starts cold. The analytic path seeds the ladder with a
//! branch-free saturation pre-solve, and every accepted analytic solution
//! is polished to the bitwise fixed point of the undamped analytic-Newton
//! map ([`polish`]). The reported answer therefore does not depend on the
//! start or on the stage that converged, which is what lets the lane-wide
//! kernel ([`solve_simple_lanes`]) reorder the work and still return the
//! scalar [`solve_simple`] bits.

use crate::cell::{CellEnvironment, CellTopology, SizedCell};
use core::fmt;
use ctsdac_obs as obs;
use ctsdac_process::mosfet::{Mosfet, Region};

/// Which stage of the retry ladder produced (or failed to produce) the
/// solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStage {
    /// Undamped Newton iteration.
    FullNewton,
    /// Damped Newton with step-clamped continuation.
    DampedNewton,
    /// Nested monotone bisection on `[0, V_DD]`.
    Bisection,
}

impl fmt::Display for SolveStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStage::FullNewton => write!(f, "full Newton"),
            SolveStage::DampedNewton => write!(f, "damped Newton"),
            SolveStage::Bisection => write!(f, "bounded bisection"),
        }
    }
}

/// A solved DC operating point of the cell with the switch ON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Voltage at the CS drain (node A).
    pub v_node_a: f64,
    /// Voltage at the cascode drain / switch source (node B; equals
    /// `v_node_a` for the simple topology).
    pub v_node_b: f64,
    /// Output node voltage.
    pub v_out: f64,
    /// Current delivered to the load.
    pub i_out: f64,
    /// Region of the CS device.
    pub region_cs: Region,
    /// Region of the cascode device (`None` for the simple topology).
    pub region_cas: Option<Region>,
    /// Region of the ON switch.
    pub region_sw: Region,
    /// Ladder stage that converged.
    pub stage: SolveStage,
    /// Total iterations spent across all attempted stages.
    pub iterations: usize,
    /// KCL residual (A) at the accepted solution.
    pub residual: f64,
}

impl OperatingPoint {
    /// True if every device of the cell sits in saturation.
    pub fn all_saturated(&self) -> bool {
        self.region_cs == Region::Saturation
            && self.region_sw == Region::Saturation
            && self.region_cas.is_none_or(|r| r == Region::Saturation)
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VA = {:.3} V, VB = {:.3} V, Vout = {:.3} V, I = {:.2} uA, CS {} / SW {}",
            self.v_node_a,
            self.v_node_b,
            self.v_out,
            self.i_out * 1e6,
            self.region_cs,
            self.region_sw
        )?;
        if let Some(r) = self.region_cas {
            write!(f, " / CAS {r}")?;
        }
        write!(f, " [{}, {} iters]", self.stage, self.iterations)
    }
}

/// Error returned when every stage of the retry ladder fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveDcError {
    /// The solver was called with a cell of the wrong topology.
    WrongTopology {
        /// Topology the entry point requires.
        expected: CellTopology,
        /// Topology of the cell actually passed.
        found: CellTopology,
    },
    /// A KCL residual evaluated to NaN or ±∞ (degenerate environment,
    /// e.g. `R_L = 0`); iterating further would be meaningless.
    NonFiniteResidual {
        /// Stage at which the non-finite residual was (last) observed.
        stage: SolveStage,
        /// Total iterations spent before giving up.
        iterations: usize,
    },
    /// All ladder stages were exhausted without meeting the tolerance.
    DidNotConverge {
        /// Best (smallest) residual KCL error (A) seen across stages.
        residual: f64,
        /// Total iterations spent across all stages.
        iterations: usize,
    },
}

impl fmt::Display for SolveDcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveDcError::WrongTopology { expected, found } => write!(
                f,
                "dc solve called with the {found} topology (requires {expected})"
            ),
            SolveDcError::NonFiniteResidual { stage, iterations } => write!(
                f,
                "dc residual became non-finite during {stage} after {iterations} iterations \
                 (degenerate environment?)"
            ),
            SolveDcError::DidNotConverge {
                residual,
                iterations,
            } => write!(
                f,
                "dc solve did not converge after {iterations} iterations across all stages \
                 (best residual {residual:.3e} A)"
            ),
        }
    }
}

impl std::error::Error for SolveDcError {}

/// Drain current of a device for arbitrary terminal voltages (source at
/// `vs`, bulk at 0).
fn device_current(m: &Mosfet, vg: f64, vd: f64, vs: f64) -> f64 {
    let vgs = vg - vs;
    let vds = (vd - vs).max(0.0);
    let vsb = vs.max(0.0);
    m.id(vgs, vds, vsb)
}

/// Drain current and its partial derivatives `(∂I/∂V_g, ∂I/∂V_d, ∂I/∂V_s)`
/// for arbitrary terminal voltages (source at `vs`, bulk at 0).
///
/// The region dispatch and clamping mirror [`device_current`] /
/// [`Mosfet::id`] exactly, so these are the derivatives of the *implemented*
/// piecewise model; at region boundaries the one-sided derivative of the
/// active branch is used (the kinks are measure-zero and Newton only needs
/// a descent-quality Jacobian there).
///
/// Chain rule, with `V_ds = max(V_d − V_s, 0)`, `V_sb = max(V_s, 0)`,
/// `V_T(V_sb) = V_T0 + γ(√(2φ_F + V_sb) − √(2φ_F))` and
/// `V_ov = (V_g − V_s) − V_T`:
///
/// ```text
/// ∂I/∂V_g = ∂I/∂V_ov
/// ∂I/∂V_d = ∂I/∂V_ds · [V_d > V_s]
/// ∂I/∂V_s = ∂I/∂V_ov · (−1 − ∂V_T/∂V_sb · [V_s > 0]) − ∂I/∂V_ds · [V_d > V_s]
/// ```
fn device_current_and_partials(m: &Mosfet, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64, f64) {
    let p = m.params();
    let kp_a = p.kp * m.aspect();
    let lambda = m.lambda();

    let vds_raw = vd - vs;
    let vds = vds_raw.max(0.0);
    let dvds_dvd = if vds_raw > 0.0 { 1.0 } else { 0.0 };
    let vsb = vs.max(0.0);
    let dvsb_dvs = if vs > 0.0 { 1.0 } else { 0.0 };

    let vt = p.vt0 + p.gamma * ((p.phi2f + vsb).sqrt() - p.phi2f.sqrt());
    let dvt_dvsb = p.gamma / (2.0 * (p.phi2f + vsb).sqrt());
    let vov = (vg - vs) - vt;
    let dvov_dvs = -1.0 - dvt_dvsb * dvsb_dvs;

    let (id, did_dvov, did_dvds) = if vov <= 0.0 {
        // Cutoff.
        (0.0, 0.0, 0.0)
    } else if vds < vov {
        // Triode: I = K'(W/L)(V_ov·V_ds − V_ds²/2).
        (
            kp_a * (vov * vds - 0.5 * vds * vds),
            kp_a * vds,
            kp_a * (vov - vds),
        )
    } else {
        // Saturation: I = ½K'(W/L)V_ov²(1 + λV_ds).
        let clm = 1.0 + lambda * vds;
        (
            0.5 * kp_a * vov * vov * clm,
            kp_a * vov * clm,
            0.5 * kp_a * vov * vov * lambda,
        )
    };

    (
        id,
        did_dvov,
        did_dvds * dvds_dvd,
        did_dvov * dvov_dvs - did_dvds * dvds_dvd,
    )
}

/// Outcome of one Newton stage.
enum StageResult<const N: usize> {
    Converged {
        x: [f64; N],
        iterations: usize,
        residual: f64,
        /// The fused `(residual, Jacobian)` evaluated at `x` by the final
        /// convergence check (fused path only). Handing it to the polish
        /// phase saves its otherwise-identical first evaluation.
        rj: Option<([f64; N], [[f64; N]; N])>,
    },
    NonFinite {
        iterations: usize,
    },
    Stalled {
        iterations: usize,
        residual: f64,
    },
}

/// Gaussian elimination with partial pivoting; `None` when the matrix is
/// numerically singular.
fn solve_linear<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> Option<[f64; N]> {
    for col in 0..N {
        let mut piv = col;
        for row in col + 1..N {
            if a[row][col].abs() > a[piv][col].abs() {
                piv = row;
            }
        }
        // A NaN pivot compares as `None` and is singular too.
        if a[piv][col].abs().partial_cmp(&1e-30) != Some(core::cmp::Ordering::Greater) {
            return None;
        }
        a.swap(col, piv);
        b.swap(col, piv);
        let pivot = a[col];
        for row in col + 1..N {
            let k = a[row][col] / pivot[col];
            for (x, p) in a[row][col..].iter_mut().zip(&pivot[col..]) {
                *x -= k * p;
            }
            b[row] -= k * b[col];
        }
    }
    let mut x = [0.0; N];
    for row in (0..N).rev() {
        let mut s = b[row];
        for c in row + 1..N {
            s -= a[row][c] * x[c];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

/// Max-norm of a residual vector; any non-finite component (NaN or ±∞)
/// collapses to `+∞` so the norm itself reports the degeneracy (a plain
/// `max` fold would silently drop NaN components).
fn residual_norm<const N: usize>(r: &[f64; N]) -> f64 {
    r.iter().fold(0.0f64, |m, v| {
        if v.is_finite() {
            m.max(v.abs())
        } else {
            f64::INFINITY
        }
    })
}

/// Central-difference numerical Jacobian of `f` at `x` (step `1e-7` V).
///
/// This was the production Jacobian before the analytic partials landed; it
/// is kept as the reference implementation for the cross-check tests and
/// the [`solve_simple_reference`] baseline solver.
pub fn central_difference_jacobian<const N: usize>(
    f: &dyn Fn(&[f64; N]) -> [f64; N],
    x: &[f64; N],
) -> [[f64; N]; N] {
    let mut j = [[0.0f64; N]; N];
    let h = 1e-7;
    for col in 0..N {
        let mut xp = *x;
        let mut xm = *x;
        xp[col] += h;
        xm[col] -= h;
        let fp = f(&xp);
        let fm = f(&xm);
        for row in 0..N {
            j[row][col] = (fp[row] - fm[row]) / (2.0 * h);
        }
    }
    j
}

/// One stage of (possibly damped) Newton iteration with per-step voltage
/// clamp and box projection onto `[0, vdd]^N`. `fj` supplies the residual
/// and the analytic Jacobian fused in one pass (one device-model
/// evaluation per device per iteration); `None` evaluates `f` alone and
/// falls back to [`central_difference_jacobian`], preserving the exact
/// evaluation pattern of the reference solvers.
#[allow(clippy::too_many_arguments)]
fn newton_stage<const N: usize, F, FJ>(
    f: &F,
    fj: Option<&FJ>,
    mut x: [f64; N],
    vdd: f64,
    tol: f64,
    damping: f64,
    step_clamp: f64,
    max_iter: usize,
) -> StageResult<N>
where
    F: Fn(&[f64; N]) -> [f64; N],
    FJ: Fn(&[f64; N]) -> ([f64; N], [[f64; N]; N]),
{
    let mut best = f64::INFINITY;
    for iter in 0..max_iter {
        // The fused path computes the Jacobian unconditionally; it is only
        // dead on the final (converged) iteration, which is cheaper than
        // re-evaluating every device separately on all the others.
        let (r, j_fused) = match fj {
            Some(fj) => {
                let (r, j) = fj(&x);
                (r, Some(j))
            }
            None => (f(&x), None),
        };
        let res = residual_norm(&r);
        if !res.is_finite() {
            return StageResult::NonFinite { iterations: iter };
        }
        if res < tol {
            return StageResult::Converged {
                x,
                iterations: iter,
                residual: res,
                rj: j_fused.map(|j| (r, j)),
            };
        }
        best = best.min(res);
        let j = match j_fused {
            Some(j) => j,
            None => central_difference_jacobian(f, &x),
        };
        let dx = match solve_linear(j, r) {
            Some(dx) => dx,
            // Degenerate Jacobian (e.g. every device cut off): fall back to
            // damped relaxation along the residual signs.
            None => {
                let mut d = [0.0f64; N];
                for (di, ri) in d.iter_mut().zip(&r) {
                    *di = ri.signum() * 1e-3;
                }
                d
            }
        };
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi = (*xi - damping * di.clamp(-step_clamp, step_clamp)).clamp(0.0, vdd);
        }
    }
    StageResult::Stalled {
        iterations: max_iter,
        residual: best,
    }
}

/// Newton ladder shared by both topologies: one undamped stage, then two
/// damped continuation stages with progressively tighter step clamps.
const NEWTON_LADDER: [(SolveStage, f64, f64, usize); 3] = [
    (SolveStage::FullNewton, 1.0, 1e3, 80),
    (SolveStage::DampedNewton, 0.9, 0.2, 200),
    (SolveStage::DampedNewton, 0.5, 0.05, 400),
];

/// Number of halvings per bisection level; 60 puts the voltage interval at
/// `V_DD·2⁻⁶⁰`, i.e. below one ulp of any practical supply.
const BISECT_STEPS: usize = 60;

/// Iteration budget for the post-convergence polish phase.
const POLISH_MAX: usize = 32;

/// True if `a`'s bit pattern sorts lexicographically below `b`'s.
fn lex_bits_below<const N: usize>(a: &[f64; N], b: &[f64; N]) -> bool {
    for (ai, bi) in a.iter().zip(b) {
        match ai.to_bits().cmp(&bi.to_bits()) {
            core::cmp::Ordering::Less => return true,
            core::cmp::Ordering::Greater => return false,
            core::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// Polishes an already-converged iterate to the *bitwise* fixed point of
/// the undamped analytic-Newton map `x ↦ clamp(x − J(x)⁻¹f(x), [0, vdd])`.
///
/// This is the determinism anchor of the solver: a converged iterate
/// obtained from *any* starting point (pre-solve start, legacy start, any
/// ladder rung, bisection) lies in the quadratic-convergence basin of the
/// root, where the Newton map contracts every iterate onto the same bit
/// pattern within a couple of steps. Accepting only settled fixed points therefore makes
/// the reported solution independent of the path that found it.
///
/// Returns `(x, polish_iterations, residual_at_x)` when the trajectory
/// settles on a fixed point or a 2-cycle (the cycle member with the
/// smaller max-residual is picked; ties break on the lexicographically
/// smaller bit pattern — both rules depend only on the cycle, not the
/// entry path). Returns `None` when the trajectory fails to settle within
/// [`POLISH_MAX`] steps or a residual goes non-finite; the caller then
/// keeps its pre-polish answer.
fn polish<const N: usize, FJ>(
    fj: &FJ,
    mut x: [f64; N],
    vdd: f64,
    mut first: Option<([f64; N], [[f64; N]; N])>,
) -> Option<([f64; N], usize, f64)>
where
    FJ: Fn(&[f64; N]) -> ([f64; N], [[f64; N]; N]),
{
    let mut prev: Option<[f64; N]> = None;
    for iter in 0..POLISH_MAX {
        // `first` is the caller's fused evaluation at the entry iterate —
        // bitwise what `fj(&x)` would recompute here.
        let (r, j) = match first.take() {
            Some(rj) => rj,
            None => fj(&x),
        };
        let res = residual_norm(&r);
        if !res.is_finite() {
            return None;
        }
        let Some(dx) = solve_linear(j, r) else {
            // Singular Jacobian at the root (e.g. every device cut off):
            // the iterate cannot move; it is its own fixed point.
            return Some((x, iter, res));
        };
        let mut next = x;
        for (xi, di) in next.iter_mut().zip(&dx) {
            *xi = (*xi - di).clamp(0.0, vdd);
        }
        if next == x {
            return Some((x, iter + 1, res));
        }
        if prev == Some(next) {
            // 2-cycle between `next` and `x` (typically straddling a region
            // boundary): pick one member by rules that depend only on the
            // cycle itself.
            let (r_next, _) = fj(&next);
            let res_next = residual_norm(&r_next);
            if !res_next.is_finite() {
                return None;
            }
            let take_next = if res_next != res {
                res_next < res
            } else {
                lex_bits_below(&next, &x)
            };
            return if take_next {
                Some((next, iter + 1, res_next))
            } else {
                Some((x, iter + 1, res))
            };
        }
        prev = Some(x);
        x = next;
    }
    None
}

/// Bisects a non-increasing scalar residual on `[0, vdd]`; `Err(())` on a
/// non-finite evaluation.
fn bisect_decreasing(f: &mut dyn FnMut(f64) -> Result<f64, ()>, vdd: f64) -> Result<f64, ()> {
    let (mut lo, mut hi) = (0.0f64, vdd);
    for _ in 0..BISECT_STEPS {
        let mid = 0.5 * (lo + hi);
        let v = f(mid)?;
        if !v.is_finite() {
            return Err(());
        }
        if v > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Convergence tolerance on the KCL residual.
fn tolerance(cell: &SizedCell) -> f64 {
    1e-15 + 1e-9 * cell.i_unit()
}

/// Polishes a converged `(stage, x, iterations, residual)` outcome when an
/// analytic Jacobian is available, keeping the pre-polish answer when the
/// trajectory fails to settle below tolerance.
fn polish_outcome<const N: usize, FJ>(
    fj: Option<&FJ>,
    vdd: f64,
    tol: f64,
    outcome: (SolveStage, [f64; N], usize, f64),
    first: Option<([f64; N], [[f64; N]; N])>,
) -> (SolveStage, [f64; N], usize, f64)
where
    FJ: Fn(&[f64; N]) -> ([f64; N], [[f64; N]; N]),
{
    let (stage, x, iterations, residual) = outcome;
    let Some(fj) = fj else {
        return (stage, x, iterations, residual);
    };
    match polish(fj, x, vdd, first) {
        Some((xp, extra, res)) if res < tol => (stage, xp, iterations + extra, res),
        _ => (stage, x, iterations, residual),
    }
}

/// Runs the Newton ladder, then falls back to `bisect`, and assembles the
/// final outcome with accumulated diagnostics. Converged solutions are
/// polished to the Newton fixed point when the fused residual/Jacobian
/// `fj` is available (see [`polish`]).
fn run_ladder<const N: usize, F, FJ, B>(
    residuals: &F,
    fj: Option<&FJ>,
    x0: [f64; N],
    vdd: f64,
    tol: f64,
    bisect: &mut B,
) -> Result<(SolveStage, [f64; N], usize, f64), SolveDcError>
where
    F: Fn(&[f64; N]) -> [f64; N],
    FJ: Fn(&[f64; N]) -> ([f64; N], [[f64; N]; N]),
    B: FnMut() -> Result<[f64; N], ()>,
{
    let mut total = 0usize;
    let mut best = f64::INFINITY;
    let mut saw_non_finite = false;
    for &(stage, damping, clamp, max_iter) in &NEWTON_LADDER {
        match newton_stage(residuals, fj, x0, vdd, tol, damping, clamp, max_iter) {
            StageResult::Converged {
                x,
                iterations,
                residual,
                rj,
            } => {
                let outcome = (stage, x, total + iterations, residual);
                return Ok(polish_outcome(fj, vdd, tol, outcome, rj));
            }
            StageResult::NonFinite { iterations } => {
                saw_non_finite = true;
                total += iterations;
            }
            StageResult::Stalled {
                iterations,
                residual,
            } => {
                total += iterations;
                best = best.min(residual);
            }
        }
    }
    match bisect() {
        Ok(x) => {
            total += BISECT_STEPS;
            let r = residuals(&x);
            let res = residual_norm(&r);
            if res < tol {
                let outcome = (SolveStage::Bisection, x, total, res);
                Ok(polish_outcome(fj, vdd, tol, outcome, None))
            } else if !res.is_finite() || saw_non_finite {
                Err(SolveDcError::NonFiniteResidual {
                    stage: SolveStage::Bisection,
                    iterations: total,
                })
            } else {
                Err(SolveDcError::DidNotConverge {
                    residual: best.min(res),
                    iterations: total,
                })
            }
        }
        Err(()) => Err(SolveDcError::NonFiniteResidual {
            stage: SolveStage::Bisection,
            iterations: total,
        }),
    }
}

/// Jacobian strategy for the Newton stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JacobianMode {
    /// Region-dispatched closed-form partials (the production hot path;
    /// converged solutions are additionally polished to the Newton fixed
    /// point).
    #[default]
    Analytic,
    /// Central-difference numerical Jacobian — the pre-optimization
    /// behaviour, kept as the reference baseline (no polish phase).
    CentralDifference,
}

/// Feed the observability registry from a finished solve: one solve
/// event, the iteration count/histogram, and the outcome class (ladder
/// escalation past full Newton, or failure). All counters are
/// deterministic — they depend only on the cell and environment, never on
/// scheduling.
fn observe_dc(
    result: Result<OperatingPoint, SolveDcError>,
) -> Result<OperatingPoint, SolveDcError> {
    obs::incr(obs::Counter::DcSolves);
    match &result {
        Ok(op) => {
            obs::count(obs::Counter::DcIterations, op.iterations as u64);
            obs::record(obs::HistogramId::DcIterationsPerSolve, op.iterations as u64);
            if op.stage != SolveStage::FullNewton {
                obs::incr(obs::Counter::DcEscalations);
            }
        }
        Err(_) => obs::incr(obs::Counter::DcFailures),
    }
    result
}

/// KCL residuals of the simple cell at `x = [v_a, v_out]` — the single
/// definition shared by the scalar solvers and the lane kernel
/// ([`solve_simple_lanes`]), so both paths evaluate bit-identical
/// arithmetic.
#[inline]
fn simple_residuals(
    cs: &Mosfet,
    sw: &Mosfet,
    env: &CellEnvironment,
    v_gate_cs: f64,
    v_gate_sw: f64,
    x: &[f64; 2],
) -> [f64; 2] {
    let [v_a, v_out] = *x;
    let i_cs = device_current(cs, v_gate_cs, v_a, 0.0);
    let i_sw = device_current(sw, v_gate_sw, v_out, v_a);
    let i_load = (env.vdd - v_out) / env.rl;
    [i_sw - i_cs, i_load - i_sw]
}

/// Analytic Jacobian of [`simple_residuals`] at `x`.
///
/// The production paths use the fused [`simple_residuals_and_jacobian`];
/// this unfused form is retained as the reference for the bitwise fusion
/// cross-check test.
#[cfg(test)]
#[inline]
fn simple_jacobian(
    cs: &Mosfet,
    sw: &Mosfet,
    env: &CellEnvironment,
    v_gate_cs: f64,
    v_gate_sw: f64,
    x: &[f64; 2],
) -> [[f64; 2]; 2] {
    let [v_a, v_out] = *x;
    let (_, _, cs_dvd, _) = device_current_and_partials(cs, v_gate_cs, v_a, 0.0);
    let (_, _, sw_dvd, sw_dvs) = device_current_and_partials(sw, v_gate_sw, v_out, v_a);
    [[sw_dvs - cs_dvd, sw_dvd], [-sw_dvs, -1.0 / env.rl - sw_dvd]]
}

/// [`simple_residuals`] and [`simple_jacobian`] fused into one pass: each
/// device is evaluated once via [`device_current_and_partials`], whose
/// current channel mirrors [`device_current`] bitwise, so the residual
/// component is bit-identical to [`simple_residuals`] while the device
/// models are walked half as often per Newton iteration.
#[inline]
fn simple_residuals_and_jacobian(
    cs: &Mosfet,
    sw: &Mosfet,
    env: &CellEnvironment,
    v_gate_cs: f64,
    v_gate_sw: f64,
    x: &[f64; 2],
) -> ([f64; 2], [[f64; 2]; 2]) {
    let [v_a, v_out] = *x;
    let (i_cs, _, cs_dvd, _) = device_current_and_partials(cs, v_gate_cs, v_a, 0.0);
    let (i_sw, _, sw_dvd, sw_dvs) = device_current_and_partials(sw, v_gate_sw, v_out, v_a);
    let i_load = (env.vdd - v_out) / env.rl;
    (
        [i_sw - i_cs, i_load - i_sw],
        [[sw_dvs - cs_dvd, sw_dvd], [-sw_dvs, -1.0 / env.rl - sw_dvd]],
    )
}

/// Assembles the reported [`OperatingPoint`] of a simple-cell solve from an
/// accepted iterate; shared by the scalar path and the lane kernel.
#[inline]
#[allow(
    clippy::too_many_arguments,
    reason = "the solve's inputs and accepted iterate, passed by value from two call sites"
)]
fn assemble_simple_op(
    cs: &Mosfet,
    sw: &Mosfet,
    env: &CellEnvironment,
    v_gate_cs: f64,
    v_gate_sw: f64,
    stage: SolveStage,
    x: [f64; 2],
    iterations: usize,
    residual: f64,
) -> OperatingPoint {
    let [v_a, v_out] = x;
    OperatingPoint {
        v_node_a: v_a,
        v_node_b: v_a,
        v_out,
        i_out: (env.vdd - v_out) / env.rl,
        region_cs: cs.region(v_gate_cs, v_a, 0.0),
        region_cas: None,
        region_sw: sw.region(v_gate_sw - v_a, (v_out - v_a).max(0.0), v_a.max(0.0)),
        stage,
        iterations,
        residual,
    }
}

/// Newton depth of the branch-free saturation pre-solve. Eight steps drive
/// a well-behaved cell all the way to the smooth-model root (quadratic
/// convergence from the closed-form start needs ~5; the margin absorbs
/// clamped first steps), so the subsequent full-model stage usually accepts
/// the start after a single residual check and the polish phase only has to
/// settle the last few ulp.
const PRESOLVE_STEPS: usize = 8;

/// Branch-free fixed-depth Newton on the *both-devices-saturated* smooth
/// model, used to sharpen the analytic cold start.
///
/// Over the admissible design region both devices sit in saturation, where
/// the network reduces to two smooth equations: the CS current
/// `½K'ₐV_ov,CS²(1 + λ·v_a)` (with `V_SB = 0` the threshold is exactly
/// `V_T0`, so the overdrive is the cell's nominal one), the switch current
/// with body effect folded into the effective overdrive
/// `V_g,SW − v_a − V_T(v_a)`, and the resistive load line. The 2×2 Newton
/// step is solved by Cramer's rule with no pivoting, no region dispatch and
/// a fixed iteration count, so the whole pre-solve vectorizes across lanes.
///
/// This only *seeds* the full ladder — the accepted solution is still the
/// polish fixed point of the full piecewise model, so the answer is
/// bit-identical to one started from the legacy closed-form guess. A
/// non-finite iterate (degenerate environment, hard-off switch) falls back
/// to the legacy start `fallback`.
fn saturation_presolve(
    cs: &Mosfet,
    sw: &Mosfet,
    env: &CellEnvironment,
    vov_cs: f64,
    v_gate_sw: f64,
    fallback: [f64; 2],
) -> [f64; 2] {
    let sp = sw.params();
    let i_cs0 = 0.5 * cs.params().kp * cs.aspect() * vov_cs * vov_cs;
    let lambda_cs = cs.lambda();
    let k_sw = 0.5 * sp.kp * sw.aspect();
    let lambda_sw = sw.lambda();
    let g_load = 1.0 / env.rl;
    let sqrt_phi = sp.phi2f.sqrt();
    let [mut v_a, mut v_out] = fallback;
    for _ in 0..PRESOLVE_STEPS {
        let sq = (sp.phi2f + v_a.max(0.0)).sqrt();
        let vt_sw = sp.vt0 + sp.gamma * (sq - sqrt_phi);
        let dvt_dva = sp.gamma / (2.0 * sq);
        let vov_sw = v_gate_sw - v_a - vt_sw;
        let clm_sw = 1.0 + lambda_sw * (v_out - v_a);
        let i_cs = i_cs0 * (1.0 + lambda_cs * v_a);
        let i_sw = k_sw * vov_sw * vov_sw * clm_sw;
        let f0 = i_sw - i_cs;
        let f1 = (env.vdd - v_out) * g_load - i_sw;
        // ∂I_SW/∂v_a folds the source, threshold and CLM dependencies.
        let disw_dva =
            -k_sw * (2.0 * vov_sw * (1.0 + dvt_dva) * clm_sw + vov_sw * vov_sw * lambda_sw);
        let disw_dvo = k_sw * vov_sw * vov_sw * lambda_sw;
        let j00 = disw_dva - i_cs0 * lambda_cs;
        let j01 = disw_dvo;
        let j10 = -disw_dva;
        let j11 = -g_load - disw_dvo;
        let det = j00 * j11 - j01 * j10;
        // Cramer's rule; a tiny determinant produces a huge step that the
        // clamp absorbs, so no pivot branch is needed.
        let da = (f0 * j11 - j01 * f1) / det;
        let dv = (j00 * f1 - f0 * j10) / det;
        v_a = (v_a - da.clamp(-1.0, 1.0)).clamp(0.0, env.vdd);
        v_out = (v_out - dv.clamp(-1.0, 1.0)).clamp(0.0, env.vdd);
    }
    if v_a.is_finite() && v_out.is_finite() {
        [v_a, v_out]
    } else {
        fallback
    }
}

/// The legacy closed-form cold start: switch source at the square-law node
/// estimate, output on the nominal load line.
#[inline]
fn legacy_cold_start(cell: &SizedCell, env: &CellEnvironment, v_gate_sw: f64) -> [f64; 2] {
    [
        (v_gate_sw - cell.sw().params().vt0 - cell.vov_sw()).clamp(0.0, env.vdd),
        (env.vdd - cell.i_unit() * env.rl).clamp(0.0, env.vdd),
    ]
}

/// Shared implementation of the simple-cell solve; see [`solve_simple`] /
/// [`solve_simple_reference`].
fn solve_simple_impl(
    cell: &SizedCell,
    env: &CellEnvironment,
    v_gate_sw: f64,
    mode: JacobianMode,
) -> Result<OperatingPoint, SolveDcError> {
    if cell.topology() != CellTopology::Simple {
        return Err(SolveDcError::WrongTopology {
            expected: CellTopology::Simple,
            found: cell.topology(),
        });
    }
    let cs = cell.cs();
    let sw = cell.sw();
    let v_gate_cs = cs.params().vt0 + cell.vov_cs();
    let tol = tolerance(cell);

    // Unknowns x = [v_a, v_out].
    // KCL at node A: CS pulls down, switch feeds in.
    // KCL at output: load feeds in, switch pulls down.
    let residuals = |x: &[f64; 2]| simple_residuals(cs, sw, env, v_gate_cs, v_gate_sw, x);
    let fused = |x: &[f64; 2]| simple_residuals_and_jacobian(cs, sw, env, v_gate_cs, v_gate_sw, x);
    let fj = match mode {
        JacobianMode::Analytic => Some(&fused),
        JacobianMode::CentralDifference => None,
    };

    // The analytic path sharpens the legacy closed-form start with the
    // branch-free saturation pre-solve; the reference path keeps the
    // pre-optimization start verbatim. Either way the accepted solution is
    // the polish fixed point, so only the iteration diagnostics differ.
    let x_legacy = legacy_cold_start(cell, env, v_gate_sw);
    let x0 = match mode {
        JacobianMode::Analytic => {
            saturation_presolve(cs, sw, env, cell.vov_cs(), v_gate_sw, x_legacy)
        }
        JacobianMode::CentralDifference => x_legacy,
    };

    // Stage-3 fallback: each residual is monotone non-increasing in its own
    // node voltage (raising v_out starves the load and feeds the switch;
    // raising v_a starves the switch source and feeds the CS drain), so the
    // 2-D root nests two 1-D bisections.
    let mut bisect = || -> Result<[f64; 2], ()> {
        let v_out_for = |v_a: f64| -> Result<f64, ()> {
            bisect_decreasing(&mut |v_out| Ok(residuals(&[v_a, v_out])[1]), env.vdd)
        };
        let v_a = bisect_decreasing(
            &mut |v_a| {
                let v_out = v_out_for(v_a)?;
                Ok(residuals(&[v_a, v_out])[0])
            },
            env.vdd,
        )?;
        Ok([v_a, v_out_for(v_a)?])
    };

    let (stage, x, iterations, residual) =
        run_ladder(&residuals, fj, x0, env.vdd, tol, &mut bisect)?;
    Ok(assemble_simple_op(
        cs, sw, env, v_gate_cs, v_gate_sw, stage, x, iterations, residual,
    ))
}

/// Solves the DC operating point of the simple cell with the switch gate at
/// `v_gate_sw` and the CS gate at its nominal `V_T0 + V_ov,CS`.
///
/// Unknowns: node A and the output node; equations: KCL at both.
///
/// # Errors
///
/// * [`SolveDcError::WrongTopology`] if the cell is not the simple topology;
/// * [`SolveDcError::NonFiniteResidual`] on a degenerate environment
///   (e.g. `R_L = 0`);
/// * [`SolveDcError::DidNotConverge`] if every ladder stage stalls.
pub fn solve_simple(
    cell: &SizedCell,
    env: &CellEnvironment,
    v_gate_sw: f64,
) -> Result<OperatingPoint, SolveDcError> {
    observe_dc(solve_simple_impl(
        cell,
        env,
        v_gate_sw,
        JacobianMode::Analytic,
    ))
}

/// [`solve_simple`] with the pre-optimization central-difference Jacobian
/// and no fixed-point polish — the reference baseline used by the
/// cross-check tests and `sweep_bench`'s cold-start measurement.
///
/// # Errors
///
/// Same taxonomy as [`solve_simple`].
pub fn solve_simple_reference(
    cell: &SizedCell,
    env: &CellEnvironment,
    v_gate_sw: f64,
) -> Result<OperatingPoint, SolveDcError> {
    observe_dc(solve_simple_impl(
        cell,
        env,
        v_gate_sw,
        JacobianMode::CentralDifference,
    ))
}

/// Stage-1 outcome of one lane of the lane-wide Newton kernel.
#[derive(Clone, Copy)]
enum LaneOutcome {
    /// The lane-wide undamped stage converged; polish + assembly follow.
    /// `rj` is the fused evaluation at the converged iterate, handed to
    /// the polish phase exactly as the scalar stage does.
    Converged {
        iterations: usize,
        residual: f64,
        rj: ([f64; 2], [[f64; 2]; 2]),
    },
    /// The lane stalled or went non-finite within the first rung: it
    /// re-runs the full scalar ladder from the same start, which is bit-
    /// and counter-identical to a plain scalar call (the scalar path walks
    /// the very same first rung before escalating).
    Fallback,
}

/// Solves a batch of simple-cell operating points with a lane-wide Newton
/// kernel: fixed-width `[f64; W]` structure-of-arrays node-voltage rows,
/// per-lane convergence masks, and scalar fallback for stragglers.
///
/// Each result is **bit-identical** to the corresponding scalar
/// [`solve_simple`] call, including the `stage`/`iterations` diagnostics
/// and the observability counters:
///
/// * the lane-wide pre-solve and first Newton rung perform exactly the
///   scalar per-lane arithmetic, merely reordered iteration-major — lanes
///   never exchange data, so a frozen (converged) lane's values cannot
///   leak into a live one;
/// * a lane that converges on the first rung is polished to the same
///   Newton fixed point the scalar path accepts;
/// * a lane that stalls re-enters the scalar ladder from the top, which
///   first re-walks the identical first rung before escalating.
///
/// Inputs longer than `W` are processed in groups of `W`; the remainder
/// group simply runs with fewer live lanes, so every `len % W` is exact.
///
/// # Panics
///
/// Panics if `W == 0` or the slice lengths differ.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::cell::{CellEnvironment, SizedCell};
/// use ctsdac_circuit::dc::{solve_simple, solve_simple_lanes};
/// use ctsdac_process::Technology;
///
/// let tech = Technology::c035();
/// let env = CellEnvironment::paper_12bit();
/// let cells: Vec<SizedCell> = [0.4, 0.5, 0.6]
///     .iter()
///     .map(|&vov| SizedCell::simple_from_overdrives(&tech, 78.1e-6, vov, 0.3, 400e-12, None))
///     .collect();
/// let gates = vec![1.8; cells.len()];
/// for (lane, cell) in solve_simple_lanes::<4>(&cells, &env, &gates)
///     .into_iter()
///     .zip(&cells)
/// {
///     assert_eq!(lane.unwrap(), solve_simple(cell, &env, 1.8).unwrap());
/// }
/// ```
pub fn solve_simple_lanes<const W: usize>(
    cells: &[SizedCell],
    env: &CellEnvironment,
    v_gates: &[f64],
) -> Vec<Result<OperatingPoint, SolveDcError>> {
    assert!(W > 0, "lane width must be positive");
    assert_eq!(cells.len(), v_gates.len(), "one gate voltage per cell");
    let mut out = Vec::with_capacity(cells.len());
    let mut start = 0;
    while start < cells.len() {
        let n = W.min(cells.len() - start);
        solve_simple_lane_group::<W>(
            &cells[start..start + n],
            env,
            &v_gates[start..start + n],
            &mut out,
        );
        start += n;
    }
    out
}

/// One group of up to `W` lanes of [`solve_simple_lanes`].
fn solve_simple_lane_group<const W: usize>(
    cells: &[SizedCell],
    env: &CellEnvironment,
    v_gates: &[f64],
    out: &mut Vec<Result<OperatingPoint, SolveDcError>>,
) {
    let n = cells.len();
    debug_assert!(n <= W && n == v_gates.len());
    // SoA lane state: one fixed-width row per node voltage.
    let mut va = [0.0f64; W];
    let mut vo = [0.0f64; W];
    let mut active = [false; W];
    let mut outcome = [LaneOutcome::Fallback; W];
    let mut v_gate_cs = [0.0f64; W];
    let mut tol = [0.0f64; W];
    let mut wrong_topology = [false; W];

    // Per-lane smooth-model constants for the SoA pre-solve. Dummy lanes
    // (inactive or wrong topology) get benign finite values so the
    // branch-free loop below never manufactures NaN traffic; their results
    // are masked out and never read.
    let mut i_cs0 = [1.0f64; W];
    let mut lambda_cs = [0.0f64; W];
    let mut k_sw = [1.0f64; W];
    let mut lambda_sw = [0.0f64; W];
    let mut vt0_sw = [0.0f64; W];
    let mut gamma_sw = [0.0f64; W];
    let mut phi2f_sw = [1.0f64; W];
    let mut sqrt_phi = [1.0f64; W];
    let mut vg_sw = [1.0f64; W];
    let mut fb_a = [0.0f64; W];
    let mut fb_o = [0.0f64; W];
    let g_load = 1.0 / env.rl;

    let mut live = 0usize;
    for l in 0..n {
        let cell = &cells[l];
        if cell.topology() != CellTopology::Simple {
            wrong_topology[l] = true;
            continue;
        }
        v_gate_cs[l] = cell.cs().params().vt0 + cell.vov_cs();
        tol[l] = tolerance(cell);
        let (cs, sw) = (cell.cs(), cell.sw());
        let sp = sw.params();
        i_cs0[l] = 0.5 * cs.params().kp * cs.aspect() * cell.vov_cs() * cell.vov_cs();
        lambda_cs[l] = cs.lambda();
        k_sw[l] = 0.5 * sp.kp * sw.aspect();
        lambda_sw[l] = sw.lambda();
        vt0_sw[l] = sp.vt0;
        gamma_sw[l] = sp.gamma;
        phi2f_sw[l] = sp.phi2f;
        sqrt_phi[l] = sp.phi2f.sqrt();
        vg_sw[l] = v_gates[l];
        let fb = legacy_cold_start(cell, env, v_gates[l]);
        fb_a[l] = fb[0];
        fb_o[l] = fb[1];
        va[l] = fb[0];
        vo[l] = fb[1];
        active[l] = true;
        live += 1;
    }

    // Lane-wide saturation pre-solve: iteration-major over the SoA rows,
    // each lane running exactly the [`saturation_presolve`] arithmetic (the
    // inner loop is branch-free, so the compiler vectorizes it).
    for _ in 0..PRESOLVE_STEPS {
        for l in 0..W {
            let sq = (phi2f_sw[l] + va[l].max(0.0)).sqrt();
            let vt_sw = vt0_sw[l] + gamma_sw[l] * (sq - sqrt_phi[l]);
            let dvt_dva = gamma_sw[l] / (2.0 * sq);
            let vov_sw = vg_sw[l] - va[l] - vt_sw;
            let clm_sw = 1.0 + lambda_sw[l] * (vo[l] - va[l]);
            let i_cs = i_cs0[l] * (1.0 + lambda_cs[l] * va[l]);
            let i_sw = k_sw[l] * vov_sw * vov_sw * clm_sw;
            let f0 = i_sw - i_cs;
            let f1 = (env.vdd - vo[l]) * g_load - i_sw;
            let disw_dva = -k_sw[l]
                * (2.0 * vov_sw * (1.0 + dvt_dva) * clm_sw + vov_sw * vov_sw * lambda_sw[l]);
            let disw_dvo = k_sw[l] * vov_sw * vov_sw * lambda_sw[l];
            let j00 = disw_dva - i_cs0[l] * lambda_cs[l];
            let j01 = disw_dvo;
            let j10 = -disw_dva;
            let j11 = -g_load - disw_dvo;
            let det = j00 * j11 - j01 * j10;
            let da = (f0 * j11 - j01 * f1) / det;
            let dv = (j00 * f1 - f0 * j10) / det;
            va[l] = (va[l] - da.clamp(-1.0, 1.0)).clamp(0.0, env.vdd);
            vo[l] = (vo[l] - dv.clamp(-1.0, 1.0)).clamp(0.0, env.vdd);
        }
    }
    for l in 0..n {
        if active[l] && !(va[l].is_finite() && vo[l].is_finite()) {
            va[l] = fb_a[l];
            vo[l] = fb_o[l];
        }
    }

    // Lane-wide undamped Newton: elementwise identical to the scalar
    // first rung of [`NEWTON_LADDER`], reordered iteration-major. A lane
    // freezes the moment it converges or goes non-finite; frozen lanes are
    // skipped entirely, so no diverged lane's value can contaminate a
    // converged one.
    let (_, damping, clamp, max_iter) = NEWTON_LADDER[0];
    for iter in 0..max_iter {
        if live == 0 {
            break;
        }
        for l in 0..n {
            if !active[l] {
                continue;
            }
            let cell = &cells[l];
            let x = [va[l], vo[l]];
            // Fused residual + Jacobian, exactly as the scalar stage: the
            // Jacobian is dead on a converging lane's final iteration, but
            // every live iteration walks each device model only once.
            let (r, j) = simple_residuals_and_jacobian(
                cell.cs(),
                cell.sw(),
                env,
                v_gate_cs[l],
                v_gates[l],
                &x,
            );
            let res = residual_norm(&r);
            if !res.is_finite() {
                active[l] = false;
                live -= 1;
                continue;
            }
            if res < tol[l] {
                active[l] = false;
                live -= 1;
                outcome[l] = LaneOutcome::Converged {
                    iterations: iter,
                    residual: res,
                    rj: (r, j),
                };
                continue;
            }
            let dx = match solve_linear(j, r) {
                Some(dx) => dx,
                None => [r[0].signum() * 1e-3, r[1].signum() * 1e-3],
            };
            va[l] = (va[l] - damping * dx[0].clamp(-clamp, clamp)).clamp(0.0, env.vdd);
            vo[l] = (vo[l] - damping * dx[1].clamp(-clamp, clamp)).clamp(0.0, env.vdd);
        }
    }

    for l in 0..n {
        let result = if wrong_topology[l] {
            Err(SolveDcError::WrongTopology {
                expected: CellTopology::Simple,
                found: cells[l].topology(),
            })
        } else {
            match outcome[l] {
                LaneOutcome::Converged {
                    iterations,
                    residual,
                    rj,
                } => {
                    let cell = &cells[l];
                    let fused = |x: &[f64; 2]| {
                        simple_residuals_and_jacobian(
                            cell.cs(),
                            cell.sw(),
                            env,
                            v_gate_cs[l],
                            v_gates[l],
                            x,
                        )
                    };
                    let polished = polish_outcome(
                        Some(&fused),
                        env.vdd,
                        tol[l],
                        (SolveStage::FullNewton, [va[l], vo[l]], iterations, residual),
                        Some(rj),
                    );
                    let (stage, x, iterations, residual) = polished;
                    Ok(assemble_simple_op(
                        cell.cs(),
                        cell.sw(),
                        env,
                        v_gate_cs[l],
                        v_gates[l],
                        stage,
                        x,
                        iterations,
                        residual,
                    ))
                }
                LaneOutcome::Fallback => {
                    solve_simple_impl(&cells[l], env, v_gates[l], JacobianMode::Analytic)
                }
            }
        };
        out.push(observe_dc(result));
    }
}

/// Solves the DC operating point of the cascoded cell with the given gate
/// voltages (CS gate at its nominal `V_T0 + V_ov,CS`).
///
/// Unknowns: node A (CS drain / CAS source), node B (CAS drain / SW
/// source) and the output; equations: KCL at all three.
///
/// # Errors
///
/// Same taxonomy as [`solve_simple`]; [`SolveDcError::WrongTopology`] if the
/// cell is not cascoded (or lacks its CAS device).
pub fn solve_cascoded(
    cell: &SizedCell,
    env: &CellEnvironment,
    v_gate_cas: f64,
    v_gate_sw: f64,
) -> Result<OperatingPoint, SolveDcError> {
    observe_dc(solve_cascoded_impl(cell, env, v_gate_cas, v_gate_sw))
}

fn solve_cascoded_impl(
    cell: &SizedCell,
    env: &CellEnvironment,
    v_gate_cas: f64,
    v_gate_sw: f64,
) -> Result<OperatingPoint, SolveDcError> {
    if cell.topology() != CellTopology::Cascoded {
        return Err(SolveDcError::WrongTopology {
            expected: CellTopology::Cascoded,
            found: cell.topology(),
        });
    }
    let (Some(cas), Some(vov_cas)) = (cell.cas(), cell.vov_cas()) else {
        return Err(SolveDcError::WrongTopology {
            expected: CellTopology::Cascoded,
            found: cell.topology(),
        });
    };
    let cs = cell.cs();
    let sw = cell.sw();
    let v_gate_cs = cs.params().vt0 + cell.vov_cs();
    let tol = tolerance(cell);

    let residuals = |x: &[f64; 3]| -> [f64; 3] {
        let [v_a, v_b, v_out] = *x;
        let i_cs = device_current(cs, v_gate_cs, v_a, 0.0);
        let i_cas = device_current(cas, v_gate_cas, v_b, v_a);
        let i_sw = device_current(sw, v_gate_sw, v_out, v_b);
        let i_load = (env.vdd - v_out) / env.rl;
        [i_cas - i_cs, i_sw - i_cas, i_load - i_sw]
    };
    // Fused residual + Jacobian: one partials evaluation per device, with
    // the current channel bit-identical to `residuals` above.
    let fused = |x: &[f64; 3]| -> ([f64; 3], [[f64; 3]; 3]) {
        let [v_a, v_b, v_out] = *x;
        let (i_cs, _, cs_dvd, _) = device_current_and_partials(cs, v_gate_cs, v_a, 0.0);
        let (i_cas, _, cas_dvd, cas_dvs) = device_current_and_partials(cas, v_gate_cas, v_b, v_a);
        let (i_sw, _, sw_dvd, sw_dvs) = device_current_and_partials(sw, v_gate_sw, v_out, v_b);
        let i_load = (env.vdd - v_out) / env.rl;
        (
            [i_cas - i_cs, i_sw - i_cas, i_load - i_sw],
            [
                [cas_dvs - cs_dvd, cas_dvd, 0.0],
                [-cas_dvs, sw_dvs - cas_dvd, sw_dvd],
                [0.0, -sw_dvs, -1.0 / env.rl - sw_dvd],
            ],
        )
    };
    let fj = Some(&fused);

    let x0 = [
        (v_gate_cas - cas.params().vt0 - vov_cas).clamp(0.0, env.vdd),
        (v_gate_sw - sw.params().vt0 - cell.vov_sw()).clamp(0.0, env.vdd),
        (env.vdd - cell.i_unit() * env.rl).clamp(0.0, env.vdd),
    ];

    // Stage-3 fallback: three nested monotone bisections (outer node A, mid
    // node B, inner output node), by the same monotonicity argument as the
    // simple cell applied per stacked device.
    let mut bisect = || -> Result<[f64; 3], ()> {
        let v_out_for = |v_a: f64, v_b: f64| -> Result<f64, ()> {
            bisect_decreasing(&mut |v_out| Ok(residuals(&[v_a, v_b, v_out])[2]), env.vdd)
        };
        let v_b_for = |v_a: f64| -> Result<f64, ()> {
            bisect_decreasing(
                &mut |v_b| {
                    let v_out = v_out_for(v_a, v_b)?;
                    Ok(residuals(&[v_a, v_b, v_out])[1])
                },
                env.vdd,
            )
        };
        let v_a = bisect_decreasing(
            &mut |v_a| {
                let v_b = v_b_for(v_a)?;
                let v_out = v_out_for(v_a, v_b)?;
                Ok(residuals(&[v_a, v_b, v_out])[0])
            },
            env.vdd,
        )?;
        let v_b = v_b_for(v_a)?;
        Ok([v_a, v_b, v_out_for(v_a, v_b)?])
    };

    let (stage, [v_a, v_b, v_out], iterations, residual) =
        run_ladder(&residuals, fj, x0, env.vdd, tol, &mut bisect)?;
    Ok(OperatingPoint {
        v_node_a: v_a,
        v_node_b: v_b,
        v_out,
        i_out: (env.vdd - v_out) / env.rl,
        region_cs: cs.region(v_gate_cs, v_a, 0.0),
        region_cas: Some(cas.region(v_gate_cas - v_a, (v_b - v_a).max(0.0), v_a.max(0.0))),
        region_sw: sw.region(v_gate_sw - v_b, (v_out - v_b).max(0.0), v_b.max(0.0)),
        stage,
        iterations,
        residual,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::{sw_gate_bounds_simple, OptimumBias};
    use ctsdac_process::Technology;

    #[test]
    fn solve_linear_rejects_singular_and_nan_pivots() {
        assert_eq!(
            solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]),
            Some([1.0, 2.0])
        );
        assert_eq!(solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]), None);
        assert_eq!(
            solve_linear([[f64::NAN, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            None
        );
    }

    fn cell_and_env() -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        // A single unary cell's worth of current so the load drop is small
        // (one cell alone barely moves a 50 Ω load).
        let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        (cell, env)
    }

    #[test]
    fn fused_residuals_and_jacobian_match_unfused_bitwise() {
        // The fused evaluation must reproduce the unfused residuals and
        // Jacobian bit-for-bit at every operating region (cutoff, triode,
        // saturation and their boundaries), otherwise the lane kernel and
        // the scalar solvers would drift apart.
        let (cell, env) = cell_and_env();
        let (cs, sw) = (cell.cs(), cell.sw());
        let v_gate_cs = cs.params().vt0 + cell.vov_cs();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let fractions = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        for fa in fractions {
            for fo in fractions {
                let x = [fa * env.vdd, fo * env.vdd];
                let r = simple_residuals(cs, sw, &env, v_gate_cs, opt.v_gate_sw, &x);
                let j = simple_jacobian(cs, sw, &env, v_gate_cs, opt.v_gate_sw, &x);
                let (rf, jf) =
                    simple_residuals_and_jacobian(cs, sw, &env, v_gate_cs, opt.v_gate_sw, &x);
                for k in 0..2 {
                    assert_eq!(r[k].to_bits(), rf[k].to_bits(), "residual {k} at {x:?}");
                    for c in 0..2 {
                        assert_eq!(
                            j[k][c].to_bits(),
                            jf[k][c].to_bits(),
                            "jacobian [{k}][{c}] at {x:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn optimum_bias_is_fully_saturated() {
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
        assert!(op.all_saturated(), "{op}");
    }

    #[test]
    fn solved_current_matches_programmed_current() {
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
        // CLM makes the real current a few percent above the nominal.
        let rel = (op.i_out - cell.i_unit()) / cell.i_unit();
        assert!(rel > -0.02 && rel < 0.25, "current error {rel}");
    }

    #[test]
    fn solved_node_voltage_matches_analytic_bias() {
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
        // The source-follower estimate of node A should agree within the
        // body-effect/CLM modelling error.
        assert!(
            (op.v_node_a - opt.v_node_a).abs() < 0.1,
            "solver VA {} vs analytic {}",
            op.v_node_a,
            opt.v_node_a
        );
    }

    #[test]
    fn gate_above_upper_bound_pushes_switch_toward_triode() {
        let (cell, env) = cell_and_env();
        let bounds = sw_gate_bounds_simple(&cell, &env).expect("simple");
        // Drive the gate well above the upper bound; since the single-cell
        // load drop is tiny the output stays near VDD, so emulate the
        // worst-case output (full-scale) with a big load instead.
        let heavy_env = CellEnvironment {
            rl: env.v_swing / cell.i_unit(), // this one cell swings 1 V
            ..env
        };
        let op = solve_simple(&cell, &heavy_env, bounds.upper + 0.6).expect("converges");
        assert_eq!(op.region_sw, Region::Triode, "{op}");
    }

    #[test]
    fn gate_below_lower_bound_pushes_cs_toward_triode() {
        let (cell, env) = cell_and_env();
        let bounds = sw_gate_bounds_simple(&cell, &env).expect("simple");
        let op = solve_simple(&cell, &env, bounds.lower - 0.4).expect("converges");
        assert_eq!(op.region_cs, Region::Triode, "{op}");
    }

    #[test]
    fn kcl_is_satisfied_at_solution() {
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
        let cs = cell.cs();
        let sw = cell.sw();
        let v_gate_cs = cs.params().vt0 + cell.vov_cs();
        let i_cs = device_current(cs, v_gate_cs, op.v_node_a, 0.0);
        let i_sw = device_current(sw, opt.v_gate_sw, op.v_out, op.v_node_a);
        let i_load = (env.vdd - op.v_out) / env.rl;
        assert!((i_cs - i_sw).abs() < 1e-9 * cell.i_unit().max(1e-12) + 1e-12);
        assert!((i_load - i_sw).abs() < 1e-9 * cell.i_unit().max(1e-12) + 1e-12);
    }

    #[test]
    fn switch_off_conducts_nothing() {
        let (cell, env) = cell_and_env();
        let op = solve_simple(&cell, &env, 0.0).expect("converges");
        assert!(op.i_out < 1e-9, "leakage {}", op.i_out);
        assert_eq!(op.region_sw, Region::Cutoff);
    }

    #[test]
    fn wrong_topology_is_a_typed_error() {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let simple = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        let cascoded =
            SizedCell::cascoded_from_overdrives(&tech, 78.1e-6, 0.4, 0.3, 0.5, 400e-12, None, None);
        assert!(matches!(
            solve_simple(&cascoded, &env, 1.5),
            Err(SolveDcError::WrongTopology {
                expected: CellTopology::Simple,
                ..
            })
        ));
        assert!(matches!(
            solve_cascoded(&simple, &env, 1.0, 1.5),
            Err(SolveDcError::WrongTopology {
                expected: CellTopology::Cascoded,
                ..
            })
        ));
    }

    #[test]
    fn zero_load_reports_non_finite_residual() {
        let (cell, env) = cell_and_env();
        let bad_env = CellEnvironment { rl: 0.0, ..env };
        let err = solve_simple(&cell, &bad_env, 1.5).expect_err("rl = 0 is degenerate");
        assert!(
            matches!(err, SolveDcError::NonFiniteResidual { .. }),
            "unexpected error {err}"
        );
        // The error's Display carries a one-line diagnostic.
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn zero_supply_collapses_to_the_origin() {
        // vdd = 0 pins every node to 0 V, which satisfies KCL exactly with
        // all devices cut off — a degenerate but well-defined solution.
        let (cell, env) = cell_and_env();
        let dead_env = CellEnvironment { vdd: 0.0, ..env };
        let op = solve_simple(&cell, &dead_env, 0.0).expect("origin solves KCL");
        assert_eq!(op.i_out, 0.0);
        assert_eq!(op.v_out, 0.0);
    }

    #[test]
    fn hard_off_switch_converges_with_diagnostics() {
        // A hard-off switch (gate at 0 V) leaves the output at VDD through
        // the load; the solver must converge and record its stage.
        let (cell, env) = cell_and_env();
        let op = solve_simple(&cell, &env, 0.0).expect("converges");
        assert!(op.residual < tolerance(&cell));
        assert!(op.iterations < 1000, "took {} iterations", op.iterations);
    }

    /// A spread of simple cells (different switch overdrives) plus the gate
    /// voltage each lane is solved at.
    fn lane_fixture() -> (Vec<SizedCell>, Vec<f64>, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let mut cells = Vec::new();
        let mut gates = Vec::new();
        for i in 0..11u32 {
            let vov_sw = 0.15 + 0.05 * i as f64;
            let cell =
                SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, vov_sw, 400e-12, None);
            let gate = match OptimumBias::of(&cell, &env) {
                Ok(opt) => opt.v_gate_sw,
                Err(_) => 0.0,
            };
            // Two hard-off lanes exercise the scalar-fallback path in the
            // middle of otherwise well-behaved groups.
            let gate = if i == 3 || i == 8 { 0.0 } else { gate };
            cells.push(cell);
            gates.push(gate);
        }
        (cells, gates, env)
    }

    #[test]
    fn lane_solves_are_bit_identical_to_scalar_at_every_remainder() {
        let (cells, gates, env) = lane_fixture();
        let scalar: Vec<_> = cells
            .iter()
            .zip(&gates)
            .map(|(c, &g)| solve_simple(c, &env, g))
            .collect();
        // Every prefix length covers every remainder class `n % W` for both
        // certified widths, including the empty batch.
        for n in 0..=cells.len() {
            for (label, lanes) in [
                (
                    "W=4",
                    solve_simple_lanes::<4>(&cells[..n], &env, &gates[..n]),
                ),
                (
                    "W=8",
                    solve_simple_lanes::<8>(&cells[..n], &env, &gates[..n]),
                ),
            ] {
                assert_eq!(lanes.len(), n);
                for (l, (lane, sc)) in lanes.iter().zip(&scalar[..n]).enumerate() {
                    match (lane, sc) {
                        // Bitwise: PartialEq on f64 fields is exact, and the
                        // stage/iteration diagnostics must match too.
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label} lane {l} of {n}"),
                        (Err(a), Err(b)) => assert_eq!(a, b, "{label} lane {l} of {n}"),
                        _ => panic!("{label} lane {l} of {n}: Ok/Err mismatch"),
                    }
                }
            }
        }
    }

    #[test]
    fn lane_width_one_degenerates_to_the_scalar_path() {
        let (cells, gates, env) = lane_fixture();
        for ((cell, &gate), lane) in cells
            .iter()
            .zip(&gates)
            .zip(solve_simple_lanes::<1>(&cells, &env, &gates))
        {
            assert_eq!(lane.unwrap(), solve_simple(cell, &env, gate).unwrap());
        }
    }

    #[test]
    fn degenerate_lane_does_not_contaminate_its_neighbours() {
        // A wrong-topology lane and a diverging (zero-supply is out of
        // scope here, so hard-off) lane sit between two healthy lanes; the
        // healthy lanes must match their solo scalar solves exactly.
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let healthy = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        let cascoded =
            SizedCell::cascoded_from_overdrives(&tech, 78.1e-6, 0.4, 0.3, 0.5, 400e-12, None, None);
        let opt = OptimumBias::of(&healthy, &env).expect("feasible");
        let cells = vec![healthy.clone(), cascoded, healthy.clone(), healthy.clone()];
        let gates = vec![opt.v_gate_sw, 1.5, 0.0, opt.v_gate_sw];
        let lanes = solve_simple_lanes::<4>(&cells, &env, &gates);
        let solo = solve_simple(&healthy, &env, opt.v_gate_sw).unwrap();
        assert_eq!(lanes[0].as_ref().unwrap(), &solo);
        assert!(matches!(lanes[1], Err(SolveDcError::WrongTopology { .. })));
        assert_eq!(
            lanes[2].as_ref().unwrap(),
            &solve_simple(&healthy, &env, 0.0).unwrap()
        );
        assert_eq!(lanes[3].as_ref().unwrap(), &solo);
    }

    #[test]
    fn presolve_start_is_invisible_in_the_solution() {
        // The analytic cold start moved from the legacy closed form to the
        // saturation pre-solve; the polish contract must keep the reported
        // solution bit-identical to one seeded from the legacy start (here:
        // the analytic ladder run from the legacy start, compared bitwise,
        // and the reference solver's answer, compared at solver tolerance).
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let cold = solve_simple(&cell, &env, opt.v_gate_sw).expect("cold");
        let legacy = ladder_from(
            &cell,
            &env,
            opt.v_gate_sw,
            legacy_cold_start(&cell, &env, opt.v_gate_sw),
        );
        assert_eq!(cold.v_node_a.to_bits(), legacy[0].to_bits());
        assert_eq!(cold.v_out.to_bits(), legacy[1].to_bits());
        let reference = solve_simple_reference(&cell, &env, opt.v_gate_sw).expect("reference");
        assert!((cold.v_out - reference.v_out).abs() < 1e-6);
        // The pre-solve start should land close enough that the first rung
        // converges quickly (this is the perf rationale; generous bound).
        assert!(cold.iterations <= 12, "took {} iterations", cold.iterations);
    }

    #[test]
    fn bisection_fallback_agrees_with_newton() {
        // Run the stage-3 bisection directly (via a fresh ladder whose
        // Newton stages are skipped by construction: start from the Newton
        // answer and verify bisection reproduces it).
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let newton_op = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");

        let cs = cell.cs();
        let sw = cell.sw();
        let v_gate_cs = cs.params().vt0 + cell.vov_cs();
        let residuals = |v_a: f64, v_out: f64| -> (f64, f64) {
            let i_cs = device_current(cs, v_gate_cs, v_a, 0.0);
            let i_sw = device_current(sw, opt.v_gate_sw, v_out, v_a);
            let i_load = (env.vdd - v_out) / env.rl;
            (i_sw - i_cs, i_load - i_sw)
        };
        let v_out_for = |v_a: f64| {
            bisect_decreasing(&mut |v_out| Ok(residuals(v_a, v_out).1), env.vdd).expect("finite")
        };
        let v_a = bisect_decreasing(&mut |v_a| Ok(residuals(v_a, v_out_for(v_a)).0), env.vdd)
            .expect("finite");
        assert!(
            (v_a - newton_op.v_node_a).abs() < 1e-9,
            "bisection VA {v_a} vs newton {}",
            newton_op.v_node_a
        );
        assert!((v_out_for(v_a) - newton_op.v_out).abs() < 1e-9);
    }

    fn cascoded_cell() -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell =
            SizedCell::cascoded_from_overdrives(&tech, 78.1e-6, 0.4, 0.3, 0.5, 400e-12, None, None);
        (cell, env)
    }

    #[test]
    fn cascoded_optimum_bias_is_fully_saturated() {
        let (cell, env) = cascoded_cell();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_cascoded(
            &cell,
            &env,
            opt.v_gate_cas.expect("cascoded bias"),
            opt.v_gate_sw,
        )
        .expect("converges");
        assert!(op.all_saturated(), "{op}");
    }

    #[test]
    fn cascoded_node_ordering_is_physical() {
        let (cell, env) = cascoded_cell();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_cascoded(
            &cell,
            &env,
            opt.v_gate_cas.expect("cascoded bias"),
            opt.v_gate_sw,
        )
        .expect("converges");
        assert!(op.v_node_a < op.v_node_b, "{op}");
        assert!(op.v_node_b < op.v_out, "{op}");
        assert!((op.v_node_a - opt.v_node_a).abs() < 0.15);
        assert!((op.v_node_b - opt.v_node_b).abs() < 0.15);
    }

    #[test]
    fn cascoded_current_matches_programmed() {
        let (cell, env) = cascoded_cell();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let op = solve_cascoded(
            &cell,
            &env,
            opt.v_gate_cas.expect("cascoded bias"),
            opt.v_gate_sw,
        )
        .expect("converges");
        let rel = (op.i_out - cell.i_unit()) / cell.i_unit();
        assert!(rel > -0.02 && rel < 0.25, "current error {rel}");
    }

    #[test]
    fn cascoded_zero_load_reports_non_finite_residual() {
        let (cell, env) = cascoded_cell();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let bad_env = CellEnvironment { rl: 0.0, ..env };
        let err = solve_cascoded(
            &cell,
            &bad_env,
            opt.v_gate_cas.expect("cascoded bias"),
            opt.v_gate_sw,
        )
        .expect_err("rl = 0 is degenerate");
        assert!(matches!(err, SolveDcError::NonFiniteResidual { .. }));
    }

    #[test]
    fn low_cascode_gate_pushes_cs_toward_triode() {
        let (cell, env) = cascoded_cell();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        // Drop the cascode gate far below its lower bound: node A collapses
        // and the CS loses saturation.
        let op = solve_cascoded(&cell, &env, 0.55, opt.v_gate_sw).expect("converges");
        assert_ne!(op.region_cs, Region::Saturation, "{op}");
    }

    #[test]
    fn solver_validates_bounds_midpoint_across_designs() {
        // Sweep several overdrive pairs: at the eq. (5) midpoint bias the
        // full nonlinear solve must agree that everything saturates.
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        for &(vcs, vsw) in &[(0.3, 0.3), (0.5, 0.8), (0.9, 0.5), (1.1, 1.0)] {
            let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, vcs, vsw, 400e-12, None);
            let opt = OptimumBias::of(&cell, &env).expect("feasible");
            let op = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
            assert!(op.all_saturated(), "({vcs},{vsw}): {op}");
        }
    }

    #[test]
    fn analytic_jacobian_matches_central_difference() {
        // The analytic partials must agree with the numerical reference on
        // both topologies' KCL systems, away from region-boundary kinks.
        let (cell, env) = cell_and_env();
        let cs = cell.cs();
        let sw = cell.sw();
        let v_gate_cs = cs.params().vt0 + cell.vov_cs();
        let v_gate_sw = OptimumBias::of(&cell, &env).expect("feasible").v_gate_sw;
        let residuals = |x: &[f64; 2]| -> [f64; 2] {
            let [v_a, v_out] = *x;
            let i_cs = device_current(cs, v_gate_cs, v_a, 0.0);
            let i_sw = device_current(sw, v_gate_sw, v_out, v_a);
            let i_load = (env.vdd - v_out) / env.rl;
            [i_sw - i_cs, i_load - i_sw]
        };
        let analytic = |x: &[f64; 2]| -> [[f64; 2]; 2] {
            let [v_a, v_out] = *x;
            let (_, _, cs_dvd, _) = device_current_and_partials(cs, v_gate_cs, v_a, 0.0);
            let (_, _, sw_dvd, sw_dvs) = device_current_and_partials(sw, v_gate_sw, v_out, v_a);
            [[sw_dvs - cs_dvd, sw_dvd], [-sw_dvs, -1.0 / env.rl - sw_dvd]]
        };
        // Operating points across saturation, triode and cutoff mixes.
        for x in [[1.05, 3.29], [0.4, 3.0], [1.8, 2.0], [2.9, 3.1], [0.2, 0.3]] {
            let a = analytic(&x);
            let n = central_difference_jacobian(&residuals, &x);
            for r in 0..2 {
                for c in 0..2 {
                    let scale = a[r][c].abs().max(n[r][c].abs()).max(1e-9);
                    assert!(
                        (a[r][c] - n[r][c]).abs() / scale < 1e-5,
                        "J[{r}][{c}] at {x:?}: analytic {} vs numeric {}",
                        a[r][c],
                        n[r][c]
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_partials_match_difference_quotients_per_device() {
        let (cell, _) = cell_and_env();
        let sw = cell.sw();
        let h = 1e-7;
        // (vg, vd, vs) samples spanning all regions and both clamp branches.
        for &(vg, vd, vs) in &[
            (1.6, 3.2, 1.0),
            (1.6, 1.1, 1.0),
            (0.9, 3.2, 1.0),
            (1.6, 3.2, -0.3),
            (2.0, 2.05, 1.9),
        ] {
            let (_, dvg, dvd, dvs) = device_current_and_partials(sw, vg, vd, vs);
            let num_dvg = (device_current(sw, vg + h, vd, vs) - device_current(sw, vg - h, vd, vs))
                / (2.0 * h);
            let num_dvd = (device_current(sw, vg, vd + h, vs) - device_current(sw, vg, vd - h, vs))
                / (2.0 * h);
            let num_dvs = (device_current(sw, vg, vd, vs + h) - device_current(sw, vg, vd, vs - h))
                / (2.0 * h);
            for (a, n, name) in [
                (dvg, num_dvg, "dvg"),
                (dvd, num_dvd, "dvd"),
                (dvs, num_dvs, "dvs"),
            ] {
                let scale = a.abs().max(n.abs()).max(1e-9);
                assert!(
                    (a - n).abs() / scale < 1e-4,
                    "{name} at ({vg},{vd},{vs}): analytic {a} vs numeric {n}"
                );
            }
        }
    }

    /// The analytic Newton ladder plus polish on the simple cell, started
    /// from an arbitrary `x0` (no bisection fallback).
    fn ladder_from(
        cell: &SizedCell,
        env: &CellEnvironment,
        v_gate_sw: f64,
        x0: [f64; 2],
    ) -> [f64; 2] {
        let (cs, sw) = (cell.cs(), cell.sw());
        let v_gate_cs = cs.params().vt0 + cell.vov_cs();
        let residuals = |x: &[f64; 2]| simple_residuals(cs, sw, env, v_gate_cs, v_gate_sw, x);
        let fused =
            |x: &[f64; 2]| simple_residuals_and_jacobian(cs, sw, env, v_gate_cs, v_gate_sw, x);
        let (_, x, _, _) = run_ladder(
            &residuals,
            Some(&fused),
            x0,
            env.vdd,
            tolerance(cell),
            &mut || Err(()),
        )
        .expect("Newton ladder converges");
        x
    }

    #[test]
    fn polished_solution_is_independent_of_the_start() {
        // The polish contract the lane kernel relies on: whatever start the
        // ladder is handed, the accepted solution is the same bit pattern.
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        for &(vcs, vsw) in &[(0.3, 0.3), (0.5, 0.6), (0.9, 0.5), (1.1, 1.0)] {
            let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, vcs, vsw, 400e-12, None);
            let opt = OptimumBias::of(&cell, &env).expect("feasible");
            let cold = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
            // Starts: the exact solution, a perturbed neighbour, and a
            // far corner of the supply box.
            for x0 in [
                [cold.v_node_a, cold.v_out],
                [cold.v_node_a + 0.07, cold.v_out - 0.04],
                [0.0, env.vdd],
            ] {
                let x = ladder_from(&cell, &env, opt.v_gate_sw, x0);
                assert_eq!(
                    x[0].to_bits(),
                    cold.v_node_a.to_bits(),
                    "VA mismatch at ({vcs},{vsw}) from {x0:?}"
                );
                assert_eq!(x[1].to_bits(), cold.v_out.to_bits());
            }
        }
    }

    #[test]
    fn reference_solver_agrees_with_analytic_path() {
        let (cell, env) = cell_and_env();
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        let fast = solve_simple(&cell, &env, opt.v_gate_sw).expect("converges");
        let reference = solve_simple_reference(&cell, &env, opt.v_gate_sw).expect("converges");
        assert!((fast.v_node_a - reference.v_node_a).abs() < 1e-6);
        assert!((fast.v_out - reference.v_out).abs() < 1e-6);
        assert_eq!(fast.region_cs, reference.region_cs);
        assert_eq!(fast.region_sw, reference.region_sw);
    }
}
