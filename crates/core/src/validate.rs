//! Monte-Carlo validation of the statistical saturation condition
//! (eq. (8)–(9)).
//!
//! The paper's condition asserts: if the design point satisfies
//! `ΣV_OD ≤ V_out,min − 2·S·σ_max`, then the optimum gate voltage stays
//! inside the (randomly shifted) bounds of *both* complementary switches of
//! the worst-case LSB cell with probability ≥ `yield`. This module checks
//! that claim by direct simulation: draw device mismatches and the
//! load/current errors, recompute both bounds per realisation, and count
//! how often the nominal bias survives.

use crate::bounds::simple_bound_sigmas;
use crate::sizing::build_simple_cell;
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::bias::{sw_gate_bounds_simple, BiasError, OptimumBias};
use ctsdac_obs as obs;
use ctsdac_process::Pelgrom;
use ctsdac_runtime::{yield_supervised, ExecPolicy, McPlan, RuntimeError, Supervised};
use ctsdac_stats::normal::phi;
use ctsdac_stats::rng::Rng;
use ctsdac_stats::{
    NormalSampler, StatsError, Xoshiro256PlusPlus, YieldDecision, YieldEstimate, YieldTest,
};

/// Trials per chunk of the saturation-yield plans the tools build: the
/// `dacsizer` check (fixed budget and `--yield-ci` batches), `dacd`'s
/// default `chunk_trials`, and [`saturation_yield_mc`]'s plan. One chunk
/// size is what makes their counts agree at the same seed and trials.
pub const MC_CHUNK_TRIALS: u64 = 250;

/// Failure modes of a saturation-yield experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidateError {
    /// The design point has no nominal bias point to validate.
    Bias(BiasError),
    /// The Monte-Carlo counts were invalid (zero trials).
    Stats(StatsError),
    /// The supervised runtime failed (retry exhaustion, cancellation,
    /// journal error).
    Runtime(RuntimeError),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bias(e) => write!(f, "{e}"),
            Self::Stats(e) => write!(f, "{e}"),
            Self::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ValidateError {}

impl From<BiasError> for ValidateError {
    fn from(e: BiasError) -> Self {
        Self::Bias(e)
    }
}

impl From<StatsError> for ValidateError {
    fn from(e: StatsError) -> Self {
        Self::Stats(e)
    }
}

impl From<RuntimeError> for ValidateError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

/// Result of a saturation-yield experiment at one design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturationYield {
    /// Monte-Carlo estimate of the probability that both complementary
    /// switches of the LSB cell stay biased inside their bounds.
    pub mc: YieldEstimate,
    /// The analytic prediction from the Gaussian bound model:
    /// `[Φ(m_up/σ_up)·Φ(m_lo/σ_lo)]²`, where `m_up`/`m_lo` are the nominal
    /// distances from the optimum gate to the bounds.
    pub predicted: f64,
    /// The nominal gate-to-bound distances `(m_lo, m_up)` in V.
    pub margins: (f64, f64),
}

impl fmt::Display for SaturationYield {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MC = {}, predicted = {:.4} (margins {:.1}/{:.1} mV)",
            self.mc,
            self.predicted,
            self.margins.0 * 1e3,
            self.margins.1 * 1e3
        )
    }
}

/// The fixed (per-design-point) data of one saturation-yield trial,
/// shared by every harness so all of them simulate the identical
/// physical experiment.
///
/// The device sigmas are resolved once here, from the sized gate areas,
/// by the same [`Pelgrom::sigma_vt`] / [`Pelgrom::sigma_beta_rel`]
/// expressions [`Pelgrom::draw`] evaluates: a trial only scales standard
/// normals by them, in `draw`'s order (ΔV_T, then Δβ/β, per device), so
/// its counts are bit-identical to drawing through `Pelgrom::draw`.
#[derive(Debug, Clone, Copy)]
struct TrialModel {
    gate: f64,
    lower: f64,
    upper: f64,
    /// σ(ΔV_T) of the current-source device, in V.
    sigma_vt_cs: f64,
    /// σ(Δβ/β) of the current-source device.
    sigma_beta_cs: f64,
    /// σ(ΔV_T) of each switch device, in V.
    sigma_vt_sw: f64,
    /// σ(Δβ/β) of each switch device.
    sigma_beta_sw: f64,
    vov_cs: f64,
    vov_sw: f64,
    sigma_i_fs: f64,
    swing: f64,
    sigma_rl_rel: f64,
    predicted: f64,
    margins: (f64, f64),
}

impl TrialModel {
    fn new(spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> Result<Self, BiasError> {
        let cell = build_simple_cell(spec, vov_cs, vov_sw, 1);
        let bounds = sw_gate_bounds_simple(&cell, &spec.env)?;
        let opt = OptimumBias::of(&cell, &spec.env)?;
        let gate = opt.v_gate_sw;
        let m_lo = gate - bounds.lower;
        let m_up = bounds.upper - gate;

        let sigmas = simple_bound_sigmas(spec, &cell);
        let predicted = (phi(m_up / sigmas.upper) * phi(m_lo / sigmas.lower)).powi(2);

        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let wl_cs = cell.cs().area();
        let wl_sw = cell.sw().area();
        let sigma_i_fs =
            pelgrom.sigma_id_rel(wl_cs, vov_cs) / (spec.lsb_unit_count() as f64).sqrt();
        Ok(Self {
            gate,
            lower: bounds.lower,
            upper: bounds.upper,
            sigma_vt_cs: pelgrom.sigma_vt(wl_cs),
            sigma_beta_cs: pelgrom.sigma_beta_rel(wl_cs),
            sigma_vt_sw: pelgrom.sigma_vt(wl_sw),
            sigma_beta_sw: pelgrom.sigma_beta_rel(wl_sw),
            vov_cs,
            vov_sw,
            sigma_i_fs,
            swing: spec.env.v_swing,
            sigma_rl_rel: spec.tech.sigma_rl_rel,
            predicted,
            margins: (m_lo, m_up),
        })
    }

    /// One mismatch realisation: true if the nominal gate bias survives
    /// inside the randomly shifted bounds of both complementary switches.
    fn trial<R: Rng + ?Sized>(&self, rng: &mut R, sampler: &mut NormalSampler) -> bool {
        // Shared (per-cell) variations.
        let dvt_cs = self.sigma_vt_cs * sampler.sample(rng);
        let dbeta_cs = self.sigma_beta_cs * sampler.sample(rng);
        let di_rel = -2.0 * dvt_cs / self.vov_cs;
        let dvov_cs = 0.5 * self.vov_cs * (di_rel - dbeta_cs);
        // Global variations moving the upper bound.
        let d_swing = self.swing
            * (self.sigma_i_fs * sampler.sample(rng) + self.sigma_rl_rel * sampler.sample(rng));
        // Both complementary switches must survive.
        (0..2).all(|_| {
            let dvt_sw = self.sigma_vt_sw * sampler.sample(rng);
            let dbeta_sw = self.sigma_beta_sw * sampler.sample(rng);
            let dvov_sw = 0.5 * self.vov_sw * (di_rel - dbeta_sw);
            let lower = self.lower + dvov_cs + dvov_sw + dvt_sw;
            let upper = self.upper - d_swing + dvt_sw;
            (lower..=upper).contains(&self.gate)
        })
    }

    /// One plan chunk: `len` trials drawn in order from the chunk's
    /// stream, returning how many pass. Every saturation-yield path (the
    /// inline fixed budget, the Wilson test and the pool) runs its trials
    /// through this body, so all of them report the same counts for the
    /// same chunks.
    fn chunk_passes(&self, rng: &mut Xoshiro256PlusPlus, len: u64) -> u64 {
        let mut sampler = NormalSampler::new();
        (0..len).filter(|_| self.trial(rng, &mut sampler)).count() as u64
    }

    /// Runs every chunk of `plan` in order on the calling thread.
    fn fixed(&self, plan: &McPlan) -> Result<SaturationYield, StatsError> {
        let passes = (0..plan.chunks())
            .map(|c| self.chunk_passes(&mut plan.chunk_rng(c), plan.chunk_len(c)))
            .sum();
        obs::count(obs::Counter::McTrials, plan.trials);
        Ok(self.result(YieldEstimate::from_counts(passes, plan.trials)?))
    }

    fn result(&self, mc: YieldEstimate) -> SaturationYield {
        SaturationYield {
            mc,
            predicted: self.predicted,
            margins: self.margins,
        }
    }
}

/// Runs the saturation-yield Monte Carlo of `plan` at a simple-topology
/// design point, inline on the calling thread.
///
/// Chunk `c` draws its trials from `plan.chunk_rng(c)`, and the chunk
/// counts pool in chunk order. The counts are therefore identical to
/// [`saturation_yield_supervised`]'s for the same plan at any worker
/// count, and a [`saturation_yield_sequential`] run that stops after
/// `n` trials reports the counts of this run with `n` trials.
///
/// # Errors
///
/// [`ValidateError::Bias`] if the design point is infeasible even
/// nominally (eq. (4) violated): there is no bias point whose survival the
/// experiment could measure.
pub fn saturation_yield(
    spec: &DacSpec,
    vov_cs: f64,
    vov_sw: f64,
    plan: &McPlan,
) -> Result<SaturationYield, ValidateError> {
    Ok(TrialModel::new(spec, vov_cs, vov_sw)?.fixed(plan)?)
}

/// [`saturation_yield`] for callers that hold an RNG instead of a plan:
/// the plan is seeded with one `rng.next_u64()` and split into
/// [`MC_CHUNK_TRIALS`]-trial chunks.
///
/// # Errors
///
/// [`ValidateError::Bias`] for a nominally infeasible design point;
/// [`ValidateError::Stats`] if `trials == 0`.
pub fn saturation_yield_mc<R: Rng + ?Sized>(
    spec: &DacSpec,
    vov_cs: f64,
    vov_sw: f64,
    trials: u64,
    rng: &mut R,
) -> Result<SaturationYield, ValidateError> {
    let model = TrialModel::new(spec, vov_cs, vov_sw)?;
    let plan = McPlan::new(rng.next_u64(), trials, MC_CHUNK_TRIALS).map_err(|e| match e {
        RuntimeError::Stats(e) => ValidateError::Stats(e),
        e => ValidateError::Runtime(e),
    })?;
    Ok(model.fixed(&plan)?)
}

/// A saturation-yield run that stopped under a sequential Wilson test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialSaturationYield {
    /// The yield result at the stopping point (its trial count is
    /// whatever the test needed, not a fixed budget).
    pub result: SaturationYield,
    /// The verdict against the test's target yield.
    pub decision: YieldDecision,
    /// Batches evaluated before stopping.
    pub batches: u64,
}

impl fmt::Display for SequentialSaturationYield {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} batches: {}",
            self.decision, self.batches, self.result
        )
    }
}

/// The sequential-stopping counterpart of [`saturation_yield`]: the plan
/// `McPlan::new(seed, test.max_trials(), test.batch())` runs chunk by
/// chunk, in order, until the Wilson interval clears (or excludes) the
/// `test` target, with the test's budget as fallback.
///
/// One batch of the test is one chunk of the plan, so a run that stops
/// after `n` trials reports exactly the counts of [`saturation_yield`]
/// over the plan `McPlan::new(seed, n, test.batch())`.
///
/// # Errors
///
/// [`ValidateError::Bias`] for a nominally infeasible design point;
/// [`ValidateError::Stats`] if the pooled counts are ill-posed.
pub fn saturation_yield_sequential(
    spec: &DacSpec,
    vov_cs: f64,
    vov_sw: f64,
    test: &YieldTest,
    seed: u64,
) -> Result<SequentialSaturationYield, ValidateError> {
    let model = TrialModel::new(spec, vov_cs, vov_sw)?;
    let plan = McPlan::new(seed, test.max_trials(), test.batch())?;
    let seq = test.run_sequential(|c, len| model.chunk_passes(&mut plan.chunk_rng(c), len))?;
    obs::count(obs::Counter::McTrials, seq.estimate.trials());
    Ok(SequentialSaturationYield {
        result: model.result(seq.estimate),
        decision: seq.decision,
        batches: seq.batches,
    })
}

/// The supervised counterpart of [`saturation_yield`]: the chunks of
/// `plan` run on the supervised pool, which adds panic isolation, retry,
/// deadlines and checkpoint-resume from `policy`. The counts are those
/// of [`saturation_yield`] for the same plan, for any worker count and
/// across resume.
///
/// # Errors
///
/// [`ValidateError::Bias`] for a nominally infeasible design point;
/// [`ValidateError::Runtime`] when supervision fails.
pub fn saturation_yield_supervised(
    spec: &DacSpec,
    vov_cs: f64,
    vov_sw: f64,
    plan: &McPlan,
    policy: &ExecPolicy,
) -> Result<Supervised<SaturationYield>, ValidateError> {
    let model = TrialModel::new(spec, vov_cs, vov_sw)?;
    let params = format!(
        "sat;vov_cs={};vov_sw={};spec={:?}",
        ctsdac_runtime::encode_f64(vov_cs),
        ctsdac_runtime::encode_f64(vov_sw),
        spec
    );
    let out = yield_supervised(policy, plan, &params, |rng, _start, len| {
        model.chunk_passes(rng, len)
    })?;
    Ok(out.map(|mc| model.result(mc)))
}

/// Convenience: the saturation yield exactly on the statistical constraint
/// line at `vov_cs` — the point the paper designs at, where the predicted
/// yield should sit near the `yield` target. Returns `None` when the
/// constraint admits no switch overdrive at this `vov_cs` (or the resulting
/// point fails to bias, which cannot happen on the constraint line).
pub fn yield_on_constraint(spec: &DacSpec, vov_cs: f64, plan: &McPlan) -> Option<SaturationYield> {
    let vov_sw = crate::saturation::SaturationCondition::Statistical.max_vov_sw(spec, vov_cs)?;
    saturation_yield(spec, vov_cs, vov_sw, plan).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_stats::sample::seeded_rng;

    fn plan(seed: u64, trials: u64) -> McPlan {
        McPlan::new(seed, trials, MC_CHUNK_TRIALS).expect("plan")
    }

    /// The trial as it read before the device sigmas moved into
    /// [`TrialModel`]: each device drawn through [`Pelgrom::draw`] at its
    /// gate area, which recomputes both sigmas on every call.
    fn legacy_chunk_passes(
        model: &TrialModel,
        spec: &DacSpec,
        vov_cs: f64,
        vov_sw: f64,
        rng: &mut Xoshiro256PlusPlus,
        len: u64,
    ) -> u64 {
        let cell = build_simple_cell(spec, vov_cs, vov_sw, 1);
        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let (wl_cs, wl_sw) = (cell.cs().area(), cell.sw().area());
        let mut sampler = NormalSampler::new();
        let mut trial = || {
            let d_cs = pelgrom.draw(rng, &mut sampler, wl_cs);
            let di_rel = -2.0 * d_cs.delta_vt / model.vov_cs;
            let dvov_cs = 0.5 * model.vov_cs * (di_rel - d_cs.delta_beta_rel);
            let d_swing = model.swing
                * (model.sigma_i_fs * sampler.sample(rng)
                    + model.sigma_rl_rel * sampler.sample(rng));
            (0..2).all(|_| {
                let d_sw = pelgrom.draw(rng, &mut sampler, wl_sw);
                let dvov_sw = 0.5 * model.vov_sw * (di_rel - d_sw.delta_beta_rel);
                let lower = model.lower + dvov_cs + dvov_sw + d_sw.delta_vt;
                let upper = model.upper - d_swing + d_sw.delta_vt;
                (lower..=upper).contains(&model.gate)
            })
        };
        (0..len).filter(|_| trial()).count() as u64
    }

    #[test]
    fn hoisted_sigmas_keep_the_pelgrom_draw_counts_chunk_by_chunk() {
        // The six SAT-YIELD points: on the eq. (9) line at three CS
        // overdrives, then 30/60/90 % of the way past it, where trials
        // fail and each count depends on every draw.
        let spec = DacSpec::paper_12bit();
        let cond = crate::saturation::SaturationCondition::Statistical;
        let limit = cond.max_vov_sw(&spec, 0.8).expect("feasible");
        let mut points: Vec<(f64, f64)> = [0.5, 0.8, 1.2]
            .iter()
            .map(|&cs| (cs, cond.max_vov_sw(&spec, cs).expect("feasible")))
            .collect();
        points.extend(
            [0.3, 0.6, 0.9].map(|f| (0.8, limit + f * (spec.env.v_out_min() - 0.8 - limit))),
        );
        for (i, &(vov_cs, vov_sw)) in points.iter().enumerate() {
            let model = TrialModel::new(&spec, vov_cs, vov_sw).expect("feasible");
            let plan = plan(70 + i as u64, 200_000);
            let mut passes = 0;
            for c in 0..plan.chunks() {
                let len = plan.chunk_len(c);
                let now = model.chunk_passes(&mut plan.chunk_rng(c), len);
                let then =
                    legacy_chunk_passes(&model, &spec, vov_cs, vov_sw, &mut plan.chunk_rng(c), len);
                assert_eq!(now, then, "point {i} chunk {c}");
                passes += now;
            }
            // Past the line the counts must carry failures, or the point
            // would not exercise the switch draws at all.
            if i >= 3 {
                assert!(passes < plan.trials, "point {i}: {passes}");
            }
        }
    }

    #[test]
    fn deep_interior_point_has_unity_yield() {
        // Far from the constraint the margins are hundreds of mV while the
        // sigmas are ~10 mV: nothing ever fails.
        let spec = DacSpec::paper_12bit();
        let r = saturation_yield(&spec, 0.4, 0.4, &plan(1, 2000)).expect("feasible");
        assert_eq!(r.mc.passes(), 2000, "{r}");
        assert!(r.predicted > 0.999999);
    }

    #[test]
    fn constraint_line_point_meets_the_yield_target() {
        // On the eq. (9) line the model predicts ≥ yield^... — the margin
        // uses sigma_max on both sides so the true probability exceeds the
        // target. MC must agree within its confidence interval.
        let spec = DacSpec::paper_12bit();
        let r = yield_on_constraint(&spec, 0.8, &plan(2, 4000)).expect("feasible");
        assert!(
            r.mc.estimate() >= spec.inl_yield - 0.01,
            "MC yield {} below target {} ({r})",
            r.mc.estimate(),
            spec.inl_yield
        );
        assert!(r.predicted >= spec.inl_yield - 1e-3);
    }

    #[test]
    fn beyond_the_constraint_yield_collapses() {
        // Push the switch overdrive well past the statistical limit: the
        // margins shrink toward zero and failures become common.
        let spec = DacSpec::paper_12bit();
        let cond = crate::saturation::SaturationCondition::Statistical;
        let limit = cond.max_vov_sw(&spec, 0.8).expect("feasible");
        // Keep nominal feasibility (eq. (4)) but erase the margin.
        let vov_sw = (limit + 0.9 * (spec.env.v_out_min() - 0.8 - limit)).min(1.49);
        let r = saturation_yield(&spec, 0.8, vov_sw, &plan(3, 2000)).expect("feasible");
        assert!(
            r.mc.estimate() < 0.95,
            "yield should degrade past the line: {r}"
        );
    }

    #[test]
    fn prediction_tracks_mc_across_margins() {
        let spec = DacSpec::paper_12bit();
        // The analytic prediction assumes independent per-device failures;
        // deep past the constraint (vov_sw = 1.46) the correlation between
        // the two margins grows and the model over-predicts by a few
        // percent, so that point gets a looser band.
        for (seed, vov_sw, slop) in [(10u64, 1.30, 0.02), (11, 1.40, 0.02), (12, 1.46, 0.05)] {
            let r = saturation_yield(&spec, 0.8, vov_sw, &plan(seed, 3000)).expect("feasible");
            let (lo, hi) = r.mc.wilson_interval(3.0);
            assert!(
                r.predicted >= lo - slop && r.predicted <= hi + slop,
                "prediction {:.4} outside MC interval [{lo:.4}, {hi:.4}] at vov_sw = {vov_sw}",
                r.predicted
            );
        }
    }

    #[test]
    fn margins_shrink_toward_the_constraint() {
        let spec = DacSpec::paper_12bit();
        let inside = saturation_yield(&spec, 0.8, 1.0, &plan(5, 100)).expect("feasible");
        let near = saturation_yield(&spec, 0.8, 1.45, &plan(5, 100)).expect("feasible");
        assert!(near.margins.0 < inside.margins.0);
        assert!(near.margins.1 < inside.margins.1);
    }

    #[test]
    fn infeasible_point_yields_typed_error() {
        let spec = DacSpec::paper_12bit();
        let err = saturation_yield(&spec, 1.5, 1.5, &plan(0, 10))
            .expect_err("1.5 + 1.5 V of overdrive cannot fit the headroom");
        assert!(
            matches!(err, ValidateError::Bias(BiasError::Infeasible(_))),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn zero_trials_is_a_stats_error_not_a_panic() {
        let spec = DacSpec::paper_12bit();
        let mut rng = seeded_rng(0);
        let err = saturation_yield_mc(&spec, 0.4, 0.4, 0, &mut rng).expect_err("zero trials");
        assert!(
            matches!(
                err,
                ValidateError::Stats(ctsdac_stats::StatsError::NoTrials)
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn rng_adapter_runs_the_plan_seeded_by_one_draw() {
        let spec = DacSpec::paper_12bit();
        let mut rng = seeded_rng(4);
        let adapted = saturation_yield_mc(&spec, 0.8, 1.40, 1_100, &mut rng).expect("feasible");
        let seed = seeded_rng(4).next_u64();
        let planned = saturation_yield(&spec, 0.8, 1.40, &plan(seed, 1_100)).expect("feasible");
        assert_eq!(adapted, planned);
    }

    #[test]
    fn sequential_yield_stops_early_and_prefixes_the_fixed_run() {
        let spec = DacSpec::paper_12bit();
        // Deep interior: unity yield, so a 90 % target passes almost
        // immediately instead of burning the full budget.
        let test = YieldTest::new(0.90, 2.576, 50_000, MC_CHUNK_TRIALS).expect("test");
        let seq = saturation_yield_sequential(&spec, 0.4, 0.4, &test, 9).expect("feasible");
        assert_eq!(seq.decision, YieldDecision::Pass);
        let trials = seq.result.mc.trials();
        assert!(trials < 50_000, "stopped early, used {trials}");
        assert_eq!(trials, seq.batches * MC_CHUNK_TRIALS);

        // Same seed, fixed budget equal to the stopping point: identical
        // counts (the sequential run consumed exactly that plan's chunks).
        let fixed = saturation_yield(&spec, 0.4, 0.4, &plan(9, trials)).expect("feasible");
        assert_eq!(fixed.mc, seq.result.mc);
    }

    #[test]
    fn sequential_prefix_holds_where_trials_fail() {
        // Past the line, where trials fail and the counts carry
        // information: an early fail, an early pass and a budget that
        // ends on a short batch all stop on the fixed run's counts.
        let spec = DacSpec::paper_12bit();
        for (vov_sw, target, budget) in
            [(1.46, 0.95, 3_000), (1.40, 0.5, 3_000), (1.40, 0.72, 1_130)]
        {
            let test = YieldTest::new(target, 1.96, budget, MC_CHUNK_TRIALS).expect("test");
            let seq = saturation_yield_sequential(&spec, 0.8, vov_sw, &test, 21).expect("feasible");
            let fixed = saturation_yield(&spec, 0.8, vov_sw, &plan(21, seq.result.mc.trials()))
                .expect("feasible");
            assert!(seq.result.mc.passes() < seq.result.mc.trials(), "{seq}");
            assert_eq!(fixed.mc, seq.result.mc, "vov_sw = {vov_sw}");
        }
    }

    #[test]
    fn inline_and_supervised_runs_of_one_plan_agree() {
        let spec = DacSpec::paper_12bit();
        let plan = plan(7, 4_100);
        let inline = saturation_yield(&spec, 0.8, 1.30, &plan).expect("inline");
        for jobs in [1, 8] {
            let pooled =
                saturation_yield_supervised(&spec, 0.8, 1.30, &plan, &ExecPolicy::with_jobs(jobs))
                    .expect("supervised");
            assert_eq!(pooled.value, inline, "jobs = {jobs}");
        }
    }

    #[test]
    fn supervised_yield_is_jobs_invariant_and_matches_physics() {
        let spec = DacSpec::paper_12bit();
        let plan = McPlan::new(7, 4_000, 500).expect("plan");
        let serial =
            saturation_yield_supervised(&spec, 0.8, 1.30, &plan, &ExecPolicy::sequential())
                .expect("sequential supervision");
        let parallel =
            saturation_yield_supervised(&spec, 0.8, 1.30, &plan, &ExecPolicy::with_jobs(8))
                .expect("parallel supervision");
        assert_eq!(serial.value.mc, parallel.value.mc);
        assert_eq!(serial.value.predicted, parallel.value.predicted);
        // The estimate reflects the experiment the analytic model
        // describes: the prediction must sit in its interval.
        let (lo, hi) = serial.value.mc.wilson_interval(3.0);
        assert!(
            serial.value.predicted >= lo - 0.02 && serial.value.predicted <= hi + 0.02,
            "prediction {:.4} outside [{lo:.4}, {hi:.4}]",
            serial.value.predicted
        );
    }

    #[test]
    fn supervised_yield_reports_infeasibility_before_spawning() {
        let spec = DacSpec::paper_12bit();
        let plan = McPlan::new(1, 100, 10).expect("plan");
        let err = saturation_yield_supervised(&spec, 1.5, 1.5, &plan, &ExecPolicy::sequential())
            .expect_err("infeasible point");
        assert!(matches!(err, ValidateError::Bias(_)), "{err:?}");
    }
}
