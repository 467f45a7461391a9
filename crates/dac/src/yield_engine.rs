//! Monte-Carlo static-yield engine: one production kernel, one oracle.
//!
//! Every trial draws **one mismatch vector** and decides all three
//! pass/fail metrics on it — INL, DNL and monotonicity (common random
//! numbers across metrics). Two paths evaluate a trial:
//!
//! * the **lane classifier** ([`YieldEngine::run_lanes`],
//!   [`YieldEngine::flags_lanes`], [`fused_yields_supervised_lanes`]),
//!   the production kernel, described below; and
//! * [`YieldMode::Reference`], the scalar allocating chain
//!   ([`CellErrors`] → [`TransferFunction::compute_fast`] →
//!   `inl_max_abs`/`dnl_max_abs`/`is_monotone`), the one oracle the lane
//!   decisions are certified against.
//!
//! The legacy [`inl_yield_mc`](crate::static_metrics::inl_yield_mc) loop
//! and its DNL / monotonicity siblings draw the same per-trial stream and
//! apply the same pass predicates, so each of their single-metric yields
//! equals the engine's for the same seed. Every caller in the workspace
//! runs the engine; the loops remain only as the workload of the
//! benchmark's `inl-yield` ladder (`perfbench/src/ladder.rs`) and are
//! deleted when that ladder moves onto the engine (ROADMAP item 3).
//!
//! # The screened lane classifier
//!
//! Yield estimation only needs the pass/fail *decision* per trial, not
//! the metric values. The segmented architecture makes that decision
//! computable in `O(2^b + n_unary)` instead of `O(2^n)`: with code
//! `k = t·2^b + r`, the INL decomposes (in real arithmetic) into a
//! per-residue term plus a per-block term, in-block DNL steps repeat the
//! binary deltas in every block, and only the `n_unary` block-boundary
//! codes need individual treatment. The classifier runs on `W` trials at
//! once in `[f64; W]` lanes. Its screened values differ from the exact
//! transfer-curve floats by bounded rounding noise, so it brackets each
//! metric inside a rigorous 64-ulp band and decides pass/fail only when
//! the limit lies outside the band; the rare lane whose metric grazes its
//! limit is resolved by the Reference chain on that lane's draw.
//! Decisions — and therefore yield counts — are **bit-identical** to
//! [`YieldMode::Reference`], while the per-trial work drops from one full
//! transfer curve (4096 codes at 12 bits) to one block scan (~272 codes'
//! worth).
//!
//! # Supervision
//!
//! [`fused_yields_supervised_lanes`] runs the lane classifier under the
//! supervised pool with per-chunk seeded RNG streams, so pooled results
//! are bit-identical for any `--jobs` value, any lane width and across
//! kill + resume.

use crate::architecture::SegmentedDac;
use crate::errors::CellErrors;
use crate::static_metrics::{positive_limit, MetricError, TransferFunction};
use core::fmt;
use ctsdac_obs as obs;
use ctsdac_runtime::{
    yield_vector_supervised_chunked, ExecPolicy, McPlan, RuntimeError, Supervised,
};
use ctsdac_stats::rng::Rng;
use ctsdac_stats::sample::NormalSampler;
use ctsdac_stats::{StatsError, YieldEstimate};

/// Which scalar evaluation path [`YieldEngine::trial`] takes. The lane
/// classifier is the production path; `Reference` is its only oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldMode {
    /// The scalar allocating chain (`CellErrors` → `TransferFunction`).
    Reference,
}

/// Pass/fail limits for the fused metrics (LSB).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldLimits {
    /// `max|INL|` must stay strictly below this (LSB).
    pub inl: f64,
    /// `max|DNL|` must stay strictly below this (LSB).
    pub dnl: f64,
}

impl YieldLimits {
    /// Builds validated limits.
    ///
    /// # Errors
    ///
    /// [`MetricError::InvalidLimit`] if either limit is not positive and
    /// finite.
    pub fn new(inl: f64, dnl: f64) -> Result<Self, MetricError> {
        positive_limit("INL", inl)?;
        positive_limit("DNL", dnl)?;
        Ok(Self { inl, dnl })
    }

    /// The paper's standard ±½ LSB limits on both INL and DNL.
    pub fn half_lsb() -> Self {
        Self { inl: 0.5, dnl: 0.5 }
    }
}

/// All three fused static metrics of one mismatch realisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedMetrics {
    /// Worst absolute endpoint-fit INL (LSB).
    pub inl_max: f64,
    /// Worst absolute DNL (LSB).
    pub dnl_max: f64,
    /// True if the transfer characteristic is monotone.
    pub monotone: bool,
}

impl FusedMetrics {
    /// Pass flags in `[inl, dnl, monotonicity]` order.
    pub fn flags(&self, limits: &YieldLimits) -> [bool; 3] {
        [
            self.inl_max < limits.inl,
            self.dnl_max < limits.dnl,
            self.monotone,
        ]
    }
}

/// The three yield estimates of one fused MC run — computed from common
/// random numbers, so they are positively correlated across metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedYields {
    /// INL yield (eq. (1)).
    pub inl: YieldEstimate,
    /// DNL yield.
    pub dnl: YieldEstimate,
    /// Monotonicity yield.
    pub monotonicity: YieldEstimate,
}

impl FusedYields {
    fn from_counts(counts: [u64; 3], trials: u64) -> Result<Self, MetricError> {
        Ok(Self {
            inl: YieldEstimate::from_counts(counts[0], trials)?,
            dnl: YieldEstimate::from_counts(counts[1], trials)?,
            monotonicity: YieldEstimate::from_counts(counts[2], trials)?,
        })
    }
}

/// Reusable per-engine buffer holding one trial's mismatch draw, sized
/// once for a converter and overwritten in place every trial.
#[derive(Debug, Clone)]
pub struct YieldScratch {
    /// Standard-normal draw of the current trial, one per cell.
    zs: Vec<f64>,
}

impl YieldScratch {
    /// Allocates scratch sized for `dac`.
    pub fn for_dac(dac: &SegmentedDac) -> Self {
        Self {
            zs: vec![0.0; dac.n_cells()],
        }
    }
}

/// Structure-of-arrays scratch for the lane classifier: every table row
/// holds `W` trials side by side as one `[f64; W]` chunk, so the table
/// build and the screens run as straight-line elementwise loops the
/// compiler autovectorizes. Sized once per run and overwritten per
/// group.
#[derive(Debug, Clone)]
pub struct LaneScratch<const W: usize> {
    /// Transposed standard-normal draws: `zs[cell][lane]`.
    zs: Vec<[f64; W]>,
    /// Per-binary-cell terms `wᵢ·(1 + scaleᵢ·zᵢ)`, one row per binary
    /// bit, precomputed once per group instead of once per residue.
    terms: Vec<[f64; W]>,
    /// Binary sub-DAC level per residue (`2^b` rows).
    bin_levels: Vec<[f64; W]>,
    /// Unary cumulative sums in switching-rank order (`n_unary + 1`).
    unary_cum: Vec<[f64; W]>,
}

impl<const W: usize> LaneScratch<W> {
    /// Allocates lane scratch sized for `dac`.
    pub fn for_dac(dac: &SegmentedDac) -> Self {
        assert!(W >= 1, "lane width must be at least 1");
        let seg = 1usize << dac.spec().binary_bits;
        Self {
            zs: vec![[0.0; W]; dac.n_cells()],
            terms: vec![[0.0; W]; dac.spec().binary_bits as usize],
            bin_levels: vec![[0.0; W]; seg],
            unary_cum: vec![[0.0; W]; dac.n_unary() + 1],
        }
    }
}

/// Monte-Carlo yield engine for one converter instance.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_dac::static_metrics::MetricError> {
/// use ctsdac_core::DacSpec;
/// use ctsdac_dac::architecture::SegmentedDac;
/// use ctsdac_dac::yield_engine::{YieldEngine, YieldLimits};
/// use ctsdac_stats::sample::seeded_rng;
///
/// let spec = DacSpec::new(8, 4, 0.997, DacSpec::paper_12bit().env,
///                         DacSpec::paper_12bit().tech);
/// let dac = SegmentedDac::new(&spec);
/// let mut engine = YieldEngine::new(&dac, spec.sigma_unit_spec(),
///                                   YieldLimits::half_lsb())?;
/// let mut rng = seeded_rng(42);
/// let yields = engine.run_lanes::<8, _>(200, &mut rng)?;
/// assert!(yields.inl.estimate() > 0.95);
/// // CRN: the three metrics came from the same 200 draws.
/// assert_eq!(yields.dnl.trials(), 200);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct YieldEngine<'a> {
    dac: &'a SegmentedDac,
    sigma_unit: f64,
    limits: YieldLimits,
    /// Per-cell draw scale `σ_unit/√w`, the exact expression
    /// `CellErrors::random` applies per cell.
    scale: Vec<f64>,
    /// Unary cell index per switching rank, precomputed so the per-trial
    /// table build skips the asserting accessor.
    unary_cells: Vec<usize>,
    /// Unary cell weight per switching rank, pre-converted to f64 (the
    /// same float `weights[cell] as f64` yields in the reference chain).
    unary_w: Vec<f64>,
    scratch: YieldScratch,
    codes_scanned: u64,
    trials_run: u64,
    fallbacks: u64,
}

impl<'a> YieldEngine<'a> {
    /// Builds an engine after validating `sigma_unit` and `limits`.
    ///
    /// # Errors
    ///
    /// [`MetricError::InvalidSigma`] if `sigma_unit` is negative or
    /// non-finite; [`MetricError::InvalidLimit`] via [`YieldLimits`] when
    /// constructing limits inline.
    pub fn new(
        dac: &'a SegmentedDac,
        sigma_unit: f64,
        limits: YieldLimits,
    ) -> Result<Self, MetricError> {
        if !(sigma_unit.is_finite() && sigma_unit >= 0.0) {
            return Err(MetricError::InvalidSigma { value: sigma_unit });
        }
        Ok(Self::build(dac, sigma_unit, limits))
    }

    /// Infallible constructor for pre-validated inputs (per-chunk engine
    /// builds inside the supervised driver).
    fn build(dac: &'a SegmentedDac, sigma_unit: f64, limits: YieldLimits) -> Self {
        let unary_cells: Vec<usize> = (0..dac.n_unary())
            .map(|r| dac.unary_cell_at_rank(r))
            .collect();
        let unary_w: Vec<f64> = unary_cells
            .iter()
            .map(|&c| dac.weights()[c] as f64)
            .collect();
        Self {
            dac,
            sigma_unit,
            limits,
            scale: draw_scale(dac, sigma_unit),
            unary_cells,
            unary_w,
            scratch: YieldScratch::for_dac(dac),
            codes_scanned: 0,
            trials_run: 0,
            fallbacks: 0,
        }
    }

    /// The validated pass/fail limits.
    pub fn limits(&self) -> &YieldLimits {
        &self.limits
    }

    /// The unit-source relative mismatch sigma.
    pub fn sigma_unit(&self) -> f64 {
        self.sigma_unit
    }

    /// Deterministic work counter in transfer-curve-code equivalents:
    /// a lane classification adds one block scan (`2^b + n_unary + 1`)
    /// per trial, a Reference evaluation (an explicit [`Self::trial`] or
    /// a lane fallback) adds the full curve. A regression that re-walks
    /// the curve per trial shows up here even on a noisy machine.
    pub fn codes_scanned(&self) -> u64 {
        self.codes_scanned
    }

    /// Trials evaluated since construction (either path).
    pub fn trials_run(&self) -> u64 {
        self.trials_run
    }

    /// Lane classifications that had to fall back to the Reference chain
    /// because a metric grazed its limit's rounding band.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Draws one trial's standard-normal vector into the scratch — a
    /// fresh [`NormalSampler`] per trial, bit-identical to the stream
    /// [`CellErrors::random`] consumes.
    fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut sampler = NormalSampler::new();
        sampler.fill(rng, &mut self.scratch.zs);
    }

    /// Evaluates one trial: draw a mismatch vector, compute all three
    /// metrics on it through the chosen path.
    pub fn trial<R: Rng + ?Sized>(&mut self, mode: YieldMode, rng: &mut R) -> FusedMetrics {
        self.draw(rng);
        self.trials_run += 1;
        obs::incr(obs::Counter::YieldTrials);
        match mode {
            YieldMode::Reference => self.eval_reference(),
        }
    }

    /// Draws one trial and returns its pass/fail flags in
    /// `[inl, dnl, monotonicity]` order: [`Self::trial`]`.flags(..)`.
    pub fn trial_flags<R: Rng + ?Sized>(&mut self, mode: YieldMode, rng: &mut R) -> [bool; 3] {
        let limits = self.limits;
        self.trial(mode, rng).flags(&limits)
    }

    /// The scalar reference chain on the already-drawn trial vector:
    /// allocate the error vector, build the full transfer function, then
    /// take three separate metric passes. Adds the full curve to the
    /// work counters.
    fn eval_reference(&mut self) -> FusedMetrics {
        let rel: Vec<f64> = self
            .scale
            .iter()
            .zip(&self.scratch.zs)
            .map(|(&sc, &z)| sc * z)
            .collect();
        let errors = CellErrors::from_rel(self.dac, rel);
        let tf = TransferFunction::compute_fast(self.dac, &errors);
        let n_codes = self.dac.max_code() + 1;
        self.codes_scanned += n_codes;
        obs::count(obs::Counter::YieldCodesScanned, n_codes);
        FusedMetrics {
            inl_max: tf.inl_max_abs(),
            dnl_max: tf.dnl_max_abs(),
            monotone: tf.is_monotone(),
        }
    }

    /// Runs `trials` trials through the chosen scalar path and pools all
    /// three yields (common random numbers across metrics).
    ///
    /// # Errors
    ///
    /// [`MetricError::Stats`] with `NoTrials` when `trials == 0`.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        mode: YieldMode,
        trials: u64,
        rng: &mut R,
    ) -> Result<FusedYields, MetricError> {
        let mut counts = [0u64; 3];
        if trials == 0 {
            return Err(MetricError::Stats(StatsError::NoTrials));
        }
        for _ in 0..trials {
            let flags = self.trial_flags(mode, rng);
            for (count, &flag) in counts.iter_mut().zip(&flags) {
                *count += u64::from(flag);
            }
        }
        FusedYields::from_counts(counts, trials)
    }

    /// Draws a lane group: `active` trials consumed from `rng` in trial
    /// order (a fresh [`NormalSampler`] per trial, the exact stream the
    /// scalar paths use) and transposed into the SoA scratch. Inactive
    /// lanes (a remainder group shorter than `W`) replicate lane 0 so
    /// the kernel computes on finite values; their results are never
    /// read and they touch no counters.
    fn draw_lane_group<const W: usize, R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        active: usize,
        ls: &mut LaneScratch<W>,
    ) {
        debug_assert!((1..=W).contains(&active));
        for l in 0..active {
            let mut sampler = NormalSampler::new();
            sampler.fill(rng, &mut self.scratch.zs);
            for (row, &z) in ls.zs.iter_mut().zip(&self.scratch.zs) {
                row[l] = z;
            }
        }
        for l in active..W {
            for row in ls.zs.iter_mut() {
                row[l] = row[0];
            }
        }
    }

    /// The lane classifier: one pass of the screened classifier over `W`
    /// trials at once, every intermediate a `[f64; W]` chunk updated
    /// elementwise, so each lane's floats do not depend on `W` and
    /// decisions, fallback triggering and all work counters are
    /// lane-width-invariant. The binary table is built by recursive
    /// doubling (`bin[r | 2^i] = bin[r] + termᵢ` for `r < 2^i`), which
    /// keeps [`TransferFunction::compute_fast`]'s ascending-set-bit add
    /// order while cutting the build from `b·2^b` branchy steps to `2^b`
    /// adds.
    fn classify_lane_group<const W: usize>(
        &mut self,
        ls: &mut LaneScratch<W>,
        active: usize,
    ) -> [[bool; 3]; W] {
        let dac = self.dac;
        let n_bin = dac.spec().binary_bits as usize;
        let seg = 1usize << n_bin;
        let n_unary = dac.n_unary();
        let weights = dac.weights();

        // Per-cell binary terms `wᵢ·(1 + scaleᵢ·zᵢ)`, hoisted out of the
        // residue loop.
        for (i, term) in ls.terms.iter_mut().enumerate() {
            let w = weights[i] as f64;
            let sc = self.scale[i];
            let z = &ls.zs[i];
            for l in 0..W {
                term[l] = w * (1.0 + sc * z[l]);
            }
        }

        // Binary table by recursive doubling. `bin[r]` accumulates its
        // set-bit terms in ascending bit order.
        ls.bin_levels[0] = [0.0; W];
        for (i, term) in ls.terms.iter().enumerate() {
            let half = 1usize << i;
            let (lo, hi) = ls.bin_levels.split_at_mut(half);
            for (src, dst) in lo.iter().zip(hi.iter_mut()) {
                for l in 0..W {
                    dst[l] = src[l] + term[l];
                }
            }
        }

        // Unary cumulative sums in switching-rank order.
        ls.unary_cum[0] = [0.0; W];
        let mut acc = [0.0; W];
        for (rank, (&cell, &w)) in self.unary_cells.iter().zip(&self.unary_w).enumerate() {
            let sc = self.scale[cell];
            let z = &ls.zs[cell];
            for l in 0..W {
                acc[l] += w * (1.0 + sc * z[l]);
            }
            ls.unary_cum[rank + 1] = acc;
        }

        // Rounding slack: every screened quantity below differs from its
        // exact transfer-curve float by at most ~20 ulps of the
        // full-scale magnitude (both sides read the same table floats;
        // the error comes only from re-associating a handful of
        // adds/multiplies). 64 ulps leaves a 3x safety factor.
        let n_codes = dac.max_code() + 1;
        let denom = (n_codes - 1) as f64;
        let mut first = [0.0; W];
        let mut last = [0.0; W];
        let mut gain = [0.0; W];
        let mut eps = [0.0; W];
        for l in 0..W {
            first[l] = ls.bin_levels[0][l] + ls.unary_cum[0][l];
            last[l] = ls.bin_levels[seg - 1][l] + ls.unary_cum[n_unary][l];
            gain[l] = (last[l] - first[l]) / denom;
            let mag = 1.0f64
                .max(first[l].abs())
                .max(last[l].abs())
                .max((gain[l] * denom).abs());
            eps[l] = 64.0 * f64::EPSILON * mag;
        }

        // INL screen: with code k = t·2^b + r, the endpoint-fit INL is
        // (in real arithmetic) A_r + B_t, so max_k |INL| is reached at
        // one of the two A extremes of every block. A extremes over the
        // residues...
        let mut a_min = [f64::INFINITY; W];
        let mut a_max = [f64::NEG_INFINITY; W];
        for (r, bl) in ls.bin_levels.iter().enumerate() {
            let rf = r as f64;
            for l in 0..W {
                let a = bl[l] - gain[l] * rf;
                a_min[l] = a_min[l].min(a);
                a_max[l] = a_max[l].max(a);
            }
        }
        // ...and B extremes over the blocks. |A + b| is convex in b, so
        // the worst code lies at a B extreme. Two reduction lanes keep
        // the min/max latency chains off the critical path.
        let mut b_lo = [[f64::INFINITY; W]; 2];
        let mut b_hi = [[f64::NEG_INFINITY; W]; 2];
        let mut t = 0usize;
        while t + 2 <= n_unary + 1 {
            let c0 = &ls.unary_cum[t];
            let c1 = &ls.unary_cum[t + 1];
            let off0 = (t * seg) as f64;
            let off1 = ((t + 1) * seg) as f64;
            for l in 0..W {
                let b0 = (c0[l] - gain[l] * off0) - first[l];
                let b1 = (c1[l] - gain[l] * off1) - first[l];
                b_lo[0][l] = b_lo[0][l].min(b0);
                b_hi[0][l] = b_hi[0][l].max(b0);
                b_lo[1][l] = b_lo[1][l].min(b1);
                b_hi[1][l] = b_hi[1][l].max(b1);
            }
            t += 2;
        }
        if t <= n_unary {
            let c = &ls.unary_cum[t];
            let off = (t * seg) as f64;
            for l in 0..W {
                let b = (c[l] - gain[l] * off) - first[l];
                b_lo[0][l] = b_lo[0][l].min(b);
                b_hi[0][l] = b_hi[0][l].max(b);
            }
        }
        let mut inl_screen = [0.0f64; W];
        for l in 0..W {
            let b_min = b_lo[0][l].min(b_lo[1][l]);
            let b_max = b_hi[0][l].max(b_hi[1][l]);
            inl_screen[l] = (a_max[l] + b_max)
                .abs()
                .max((a_max[l] + b_min).abs())
                .max((a_min[l] + b_max).abs())
                .max((a_min[l] + b_min).abs());
        }

        // In-block DNL / monotonicity: within a unary block every step is
        // a binary delta, identical across blocks up to rounding.
        let mut block_dnl = [0.0f64; W];
        let mut block_min_diff = [f64::INFINITY; W];
        for r in 1..seg {
            let cur = ls.bin_levels[r];
            let prev = ls.bin_levels[r - 1];
            for l in 0..W {
                let diff = cur[l] - prev[l];
                block_dnl[l] = block_dnl[l].max((diff - 1.0).abs());
                block_min_diff[l] = block_min_diff[l].min(diff);
            }
        }

        // Block-boundary codes (residue wraps 2^b−1 → 0): only n_unary of
        // them, evaluated with the exact transfer-curve expressions, again
        // in two reduction lanes.
        let bl_first = ls.bin_levels[0];
        let bl_last = ls.bin_levels[seg - 1];
        let mut bd = [[0.0f64; W]; 2];
        let mut boundary_monotone = [true; W];
        let mut t = 1usize;
        while t < n_unary {
            let cm1 = &ls.unary_cum[t - 1];
            let c = &ls.unary_cum[t];
            let cp1 = &ls.unary_cum[t + 1];
            for l in 0..W {
                let prev0 = bl_last[l] + cm1[l];
                let level0 = bl_first[l] + c[l];
                let dnl0 = level0 - prev0 - 1.0;
                bd[0][l] = bd[0][l].max(dnl0.abs());
                boundary_monotone[l] &= level0 >= prev0;
                let prev1 = bl_last[l] + c[l];
                let level1 = bl_first[l] + cp1[l];
                let dnl1 = level1 - prev1 - 1.0;
                bd[1][l] = bd[1][l].max(dnl1.abs());
                boundary_monotone[l] &= level1 >= prev1;
            }
            t += 2;
        }
        if t <= n_unary {
            let cm1 = &ls.unary_cum[t - 1];
            let c = &ls.unary_cum[t];
            for l in 0..W {
                let prev = bl_last[l] + cm1[l];
                let level = bl_first[l] + c[l];
                let dnl = level - prev - 1.0;
                bd[0][l] = bd[0][l].max(dnl.abs());
                boundary_monotone[l] &= level >= prev;
            }
        }

        // Verdicts and counters per active lane, in lane order: one
        // block scan per trial, so every work counter is independent of
        // `W` and of how trials group.
        let scan = (seg + n_unary + 1) as u64;
        let mut out = [[false; 3]; W];
        for l in 0..active {
            self.trials_run += 1;
            obs::incr(obs::Counter::YieldTrials);
            self.codes_scanned += scan;
            obs::count(obs::Counter::YieldCodesScanned, scan);
            let boundary_dnl = bd[0][l].max(bd[1][l]);
            let inl_pass = if inl_screen[l] + eps[l] < self.limits.inl {
                Some(true)
            } else if inl_screen[l] - eps[l] >= self.limits.inl {
                Some(false)
            } else {
                None
            };
            let dnl_lo = boundary_dnl.max(block_dnl[l] - eps[l]);
            let dnl_hi = boundary_dnl.max(block_dnl[l] + eps[l]);
            let dnl_pass = if dnl_hi < self.limits.dnl {
                Some(true)
            } else if dnl_lo >= self.limits.dnl {
                Some(false)
            } else {
                None
            };
            let mono = if !boundary_monotone[l] || block_min_diff[l] < -eps[l] {
                Some(false)
            } else if block_min_diff[l] > eps[l] {
                Some(true)
            } else {
                None
            };
            if let (Some(i), Some(d), Some(m)) = (inl_pass, dnl_pass, mono) {
                obs::incr(obs::Counter::YieldScreened);
                out[l] = [i, d, m];
                continue;
            }
            // This lane grazed a limit's rounding band: resolve it with
            // the Reference chain on the lane's own draw, so the decision
            // is the exact strict `<` on the exact metric.
            self.fallbacks += 1;
            obs::incr(obs::Counter::YieldFallbacks);
            for (slot, row) in self.scratch.zs.iter_mut().zip(&ls.zs) {
                *slot = row[l];
            }
            let limits = self.limits;
            out[l] = self.eval_reference().flags(&limits);
        }
        out
    }

    /// Runs `trials` trials through the lane classifier in groups of
    /// `W` (the final group masks its unused lanes) and pools all three
    /// yields. Decisions — and therefore counts — are bit-identical to
    /// [`Self::run`] with [`YieldMode::Reference`] for the same RNG
    /// stream, at any `W ≥ 1`.
    ///
    /// # Errors
    ///
    /// [`MetricError::Stats`] with `NoTrials` when `trials == 0`.
    pub fn run_lanes<const W: usize, R: Rng + ?Sized>(
        &mut self,
        trials: u64,
        rng: &mut R,
    ) -> Result<FusedYields, MetricError> {
        if trials == 0 {
            return Err(MetricError::Stats(StatsError::NoTrials));
        }
        let mut ls = LaneScratch::<W>::for_dac(self.dac);
        let mut counts = [0u64; 3];
        let mut done = 0u64;
        while done < trials {
            let active = ((trials - done) as usize).min(W);
            self.draw_lane_group(rng, active, &mut ls);
            let flags = self.classify_lane_group(&mut ls, active);
            for lane_flags in flags.iter().take(active) {
                for (count, &flag) in counts.iter_mut().zip(lane_flags) {
                    *count += u64::from(flag);
                }
            }
            done += active as u64;
        }
        FusedYields::from_counts(counts, trials)
    }

    /// Per-trial pass/fail flags of `trials` lane-classified trials, in
    /// trial order — the differential-test surface: each entry must
    /// equal the corresponding [`Self::trial_flags`] result on the same
    /// stream.
    pub fn flags_lanes<const W: usize, R: Rng + ?Sized>(
        &mut self,
        trials: u64,
        rng: &mut R,
    ) -> Vec<[bool; 3]> {
        let mut ls = LaneScratch::<W>::for_dac(self.dac);
        let mut out = Vec::with_capacity(trials as usize);
        let mut done = 0u64;
        while done < trials {
            let active = ((trials - done) as usize).min(W);
            self.draw_lane_group(rng, active, &mut ls);
            let flags = self.classify_lane_group(&mut ls, active);
            out.extend_from_slice(&flags[..active]);
            done += active as u64;
        }
        out
    }
}

/// The per-cell draw scale `σ_unit/√w` — precomputed once so every trial
/// applies the exact expression `CellErrors::random` uses.
fn draw_scale(dac: &SegmentedDac, sigma_unit: f64) -> Vec<f64> {
    dac.weights()
        .iter()
        .map(|&w| sigma_unit / (w as f64).sqrt())
        .collect()
}

/// Failure modes of the supervised fused-yield driver.
#[derive(Debug)]
pub enum FusedYieldError {
    /// Invalid engine inputs (limits, sigma) or ill-posed counts.
    Metric(MetricError),
    /// Pool, journal or retry-exhaustion failures.
    Runtime(RuntimeError),
}

impl fmt::Display for FusedYieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Metric(e) => write!(f, "{e}"),
            Self::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FusedYieldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Metric(e) => Some(e),
            Self::Runtime(e) => Some(e),
        }
    }
}

impl From<MetricError> for FusedYieldError {
    fn from(e: MetricError) -> Self {
        Self::Metric(e)
    }
}

impl From<RuntimeError> for FusedYieldError {
    fn from(e: RuntimeError) -> Self {
        Self::Runtime(e)
    }
}

/// Runs the lane classifier under the supervised pool: every chunk
/// builds its own engine plus lane scratch, consumes its
/// `stream_rng(seed, chunk)` stream in trial order through `W`-wide
/// groups (the chunk's remainder trials form one masked partial group),
/// and the pooled counts are bit-identical to running
/// [`YieldMode::Reference`] over the same chunk streams — for any
/// `--jobs` value and any lane width, including resuming from each
/// other's journals.
///
/// # Errors
///
/// [`FusedYieldError::Metric`] for invalid engine inputs,
/// [`FusedYieldError::Runtime`] for pool/journal failures.
pub fn fused_yields_supervised_lanes<const W: usize>(
    dac: &SegmentedDac,
    sigma_unit: f64,
    limits: YieldLimits,
    plan: &McPlan,
    policy: &ExecPolicy,
) -> Result<Supervised<FusedYields>, FusedYieldError> {
    // Validate once up front so per-chunk engine builds are infallible.
    YieldEngine::new(dac, sigma_unit, limits)?;
    let spec = dac.spec();
    // The journal identity digests everything that decides a trial but
    // not the lane width, so journals resume across widths.
    let params = format!(
        "fused;sigma={sigma_unit};inl={};dnl={};bits={};bin={};cells={}",
        limits.inl,
        limits.dnl,
        spec.n_bits,
        spec.binary_bits,
        dac.n_cells(),
    );
    let out = yield_vector_supervised_chunked(
        policy,
        plan,
        &params,
        3,
        || {
            (
                YieldEngine::build(dac, sigma_unit, limits),
                LaneScratch::<W>::for_dac(dac),
            )
        },
        |(engine, ls), rng, _start, len, passes| {
            let mut done = 0u64;
            while done < len {
                let active = ((len - done) as usize).min(W);
                engine.draw_lane_group(rng, active, ls);
                let flags = engine.classify_lane_group(ls, active);
                for lane_flags in flags.iter().take(active) {
                    for (count, &flag) in passes.iter_mut().zip(lane_flags) {
                        *count += u64::from(flag);
                    }
                }
                done += active as u64;
            }
        },
    )?;
    // The driver returns exactly `metrics = 3` estimates.
    Ok(out.map(|v| FusedYields {
        inl: v[0],
        dnl: v[1],
        monotonicity: v[2],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_metrics::{dnl_yield_mc, inl_yield_mc, monotonicity_yield_mc};
    use ctsdac_core::DacSpec;
    use ctsdac_stats::sample::seeded_rng;
    use ctsdac_stats::stream_rng;

    fn small_spec() -> DacSpec {
        let base = DacSpec::paper_12bit();
        DacSpec::new(8, 4, 0.997, base.env, base.tech)
    }

    /// The Reference path's metrics are exactly those of the public
    /// chain `CellErrors::random` → `compute_fast` → metric passes on
    /// the same stream.
    fn assert_reference_matches_cell_errors_chain(dac: &SegmentedDac, sigma: f64, seed: u64) {
        let mut engine = YieldEngine::new(dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_a = seeded_rng(seed);
        let mut rng_b = seeded_rng(seed);
        for _ in 0..50 {
            let got = engine.trial(YieldMode::Reference, &mut rng_a);
            let errors = CellErrors::random(dac, sigma, &mut rng_b);
            let tf = TransferFunction::compute_fast(dac, &errors);
            assert_eq!(got.inl_max.to_bits(), tf.inl_max_abs().to_bits());
            assert_eq!(got.dnl_max.to_bits(), tf.dnl_max_abs().to_bits());
            assert_eq!(got.monotone, tf.is_monotone());
        }
    }

    #[test]
    fn reference_metrics_match_the_cell_errors_chain_bitwise() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        assert_reference_matches_cell_errors_chain(&dac, spec.sigma_unit_spec() * 2.0, 77);
    }

    #[test]
    fn reference_metrics_match_the_cell_errors_chain_bitwise_with_custom_order() {
        let spec = small_spec();
        let n = spec.unary_source_count();
        let order: Vec<usize> = (0..n).rev().collect();
        let dac = SegmentedDac::new(&spec).with_unary_order(order);
        assert_reference_matches_cell_errors_chain(&dac, spec.sigma_unit_spec() * 3.0, 78);
    }

    #[test]
    fn engine_draw_matches_cell_errors_random() {
        // Same RNG stream ⇒ the engine's trial sees the exact error
        // vector `CellErrors::random` would have produced.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec();
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_a = seeded_rng(5);
        let mut rng_b = seeded_rng(5);
        engine.draw(&mut rng_a);
        let expect = CellErrors::random(&dac, sigma, &mut rng_b);
        let got: Vec<f64> = engine
            .scale
            .iter()
            .zip(&engine.scratch.zs)
            .map(|(&sc, &z)| sc * z)
            .collect();
        assert_eq!(got, expect.rel());
    }

    #[test]
    fn fused_run_matches_the_legacy_inl_loop_for_the_same_stream() {
        // With CRN, the fused INL yield over a stream equals the legacy
        // single-metric loop over the same stream: both consume one draw
        // per trial and apply the same pass predicate.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_a = seeded_rng(99);
        let fused = engine.run_lanes::<8, _>(300, &mut rng_a).expect("fused");
        let mut rng_b = seeded_rng(99);
        let legacy = inl_yield_mc(&dac, sigma, 0.5, 300, &mut rng_b).expect("legacy");
        assert_eq!(fused.inl, legacy);

        // And the other two metrics agree with their own legacy loops on
        // fresh identical streams.
        let mut rng_c = seeded_rng(99);
        let legacy_dnl = dnl_yield_mc(&dac, sigma, 0.5, 300, &mut rng_c).expect("legacy dnl");
        assert_eq!(fused.dnl, legacy_dnl);
        let mut rng_d = seeded_rng(99);
        let legacy_mono = monotonicity_yield_mc(&dac, sigma, 300, &mut rng_d).expect("mono");
        assert_eq!(fused.monotonicity, legacy_mono);
    }

    #[test]
    fn work_counter_tracks_screened_scans_and_exact_walks() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let mut engine = YieldEngine::new(&dac, 0.01, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(1);
        // At this sigma no metric grazes its limit, so every trial stays
        // on the screened block scan.
        let scan = (1u64 << spec.binary_bits) + dac.n_unary() as u64 + 1;
        engine.run_lanes::<8, _>(10, &mut rng).expect("run");
        assert_eq!(engine.trials_run(), 10);
        assert_eq!(engine.fallbacks(), 0);
        assert_eq!(engine.codes_scanned(), 10 * scan);
        // An explicit Reference trial walks the whole curve.
        engine.trial(YieldMode::Reference, &mut rng);
        assert_eq!(engine.codes_scanned(), 10 * scan + (dac.max_code() + 1));
    }

    #[test]
    fn screened_classification_matches_exact_flags() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        // 4x spec sigma puts a healthy share of trials on the fail side
        // of every metric, so both decisions are exercised.
        for mult in [1.0, 2.0, 4.0] {
            let sigma = spec.sigma_unit_spec() * mult;
            let mut engine =
                YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let limits = *engine.limits();
            let screened = engine.flags_lanes::<8, _>(200, &mut seeded_rng(91));
            let mut rng = seeded_rng(91);
            for (trial, flags) in screened.iter().enumerate() {
                let exact = engine.trial(YieldMode::Reference, &mut rng);
                assert_eq!(
                    *flags,
                    exact.flags(&limits),
                    "sigma mult {mult}, trial {trial}"
                );
            }
        }
    }

    #[test]
    fn threshold_grazing_limits_fall_back_to_the_exact_pass() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut probe = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(7);
        let exact = probe.trial(YieldMode::Reference, &mut rng);
        // A limit equal to the trial's exact INL lies inside the screen's
        // rounding band by construction, forcing the Reference fallback;
        // the decision is still the exact strict `<` (a tie fails).
        let limits = YieldLimits::new(exact.inl_max, 0.5).expect("limits");
        let mut engine = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng = seeded_rng(7);
        let flags = engine.flags_lanes::<1, _>(1, &mut rng);
        assert_eq!(engine.fallbacks(), 1);
        assert!(!flags[0][0], "inl_max < inl_max must fail");
    }

    /// The supervised oracle: [`YieldMode::Reference`] over the plan's
    /// per-chunk `stream_rng(seed, chunk)` streams, chunk by chunk.
    fn reference_over_chunks(dac: &SegmentedDac, sigma: f64, plan: &McPlan) -> FusedYields {
        let mut counts = [0u64; 3];
        for chunk in 0..plan.chunks() {
            let mut engine = YieldEngine::new(dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let mut rng = stream_rng(plan.seed, chunk);
            for _ in 0..plan.chunk_len(chunk) {
                let flags = engine.trial_flags(YieldMode::Reference, &mut rng);
                for (count, &flag) in counts.iter_mut().zip(&flags) {
                    *count += u64::from(flag);
                }
            }
        }
        FusedYields::from_counts(counts, plan.trials).expect("counts")
    }

    #[test]
    fn supervised_fused_yields_are_jobs_invariant_and_match_reference() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let plan = McPlan::new(7, 2_000, 250).expect("plan");
        let baseline = fused_yields_supervised_lanes::<8>(
            &dac,
            sigma,
            YieldLimits::half_lsb(),
            &plan,
            &ExecPolicy::sequential(),
        )
        .expect("baseline");
        for jobs in [2, 8] {
            let out = fused_yields_supervised_lanes::<8>(
                &dac,
                sigma,
                YieldLimits::half_lsb(),
                &plan,
                &ExecPolicy::with_jobs(jobs),
            )
            .expect("parallel");
            assert_eq!(out.value, baseline.value, "jobs = {jobs}");
        }
        assert_eq!(baseline.value, reference_over_chunks(&dac, sigma, &plan));
    }

    #[test]
    fn supervised_chunk_streams_match_manual_chunking() {
        // The supervised counts are exactly what hand-rolled per-chunk
        // Reference engines over `stream_rng(seed, chunk)` produce.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let plan = McPlan::new(19, 700, 128).expect("plan");
        let out = fused_yields_supervised_lanes::<4>(
            &dac,
            sigma,
            YieldLimits::half_lsb(),
            &plan,
            &ExecPolicy::sequential(),
        )
        .expect("supervised");
        assert_eq!(out.value, reference_over_chunks(&dac, sigma, &plan));
        assert_eq!(out.value.inl.trials(), 700);
    }

    #[test]
    fn lane_run_matches_reference_run_at_every_width() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(31);
        let reference = engine
            .run(YieldMode::Reference, 257, &mut rng)
            .expect("reference");

        let mut lanes1 = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let out1 = lanes1
            .run_lanes::<1, _>(257, &mut seeded_rng(31))
            .expect("lanes1");
        assert_eq!(out1, reference);

        let mut lanes4 = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let out4 = lanes4
            .run_lanes::<4, _>(257, &mut seeded_rng(31))
            .expect("lanes4");
        assert_eq!(out4, reference);

        let mut lanes8 = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let out8 = lanes8
            .run_lanes::<8, _>(257, &mut seeded_rng(31))
            .expect("lanes8");
        assert_eq!(out8, reference);

        // Work counters are lane-width-invariant: identical trial,
        // code-scan and fallback totals at W = 1, 4 and 8.
        let counters = (
            lanes1.trials_run(),
            lanes1.codes_scanned(),
            lanes1.fallbacks(),
        );
        assert_eq!(counters.0, 257);
        for e in [&lanes4, &lanes8] {
            assert_eq!((e.trials_run(), e.codes_scanned(), e.fallbacks()), counters);
        }
    }

    #[test]
    fn lane_flags_match_reference_per_trial_at_every_remainder() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 4.0;
        for extra in 0..8u64 {
            let trials = 16 + extra;
            let mut lanes = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let mut rng = seeded_rng(500 + extra);
            let flags = lanes.flags_lanes::<8, _>(trials, &mut rng);
            let mut reference =
                YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
            let mut rng = seeded_rng(500 + extra);
            for (trial, lane_flags) in flags.iter().enumerate() {
                let exact = reference.trial_flags(YieldMode::Reference, &mut rng);
                assert_eq!(*lane_flags, exact, "trial {trial} of {trials}");
            }
        }
    }

    #[test]
    fn lane_fallbacks_trigger_at_grazing_limits_and_match_reference() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let mut probe = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(7);
        let exact = probe.trial(YieldMode::Reference, &mut rng);
        // A limit equal to a trial's exact INL sits inside the screen's
        // rounding band: the lane kernel must fall back for that lane,
        // and every decision must equal the Reference chain's.
        let limits = YieldLimits::new(exact.inl_max, 0.5).expect("limits");
        let trials = 4u64;
        let scan = (1u64 << spec.binary_bits) + dac.n_unary() as u64 + 1;
        let mut per_width = Vec::new();
        for width_is_4 in [true, false] {
            let mut lanes = YieldEngine::new(&dac, sigma, limits).expect("engine");
            let mut rng = seeded_rng(7);
            let flags = if width_is_4 {
                lanes.flags_lanes::<4, _>(trials, &mut rng)
            } else {
                lanes.flags_lanes::<8, _>(trials, &mut rng)
            };
            assert!(lanes.fallbacks() > 0, "grazing INL limit never fell back");
            assert!(!flags[0][0], "inl_max < inl_max must fail");
            let mut reference = YieldEngine::new(&dac, sigma, limits).expect("engine");
            let mut rng = seeded_rng(7);
            for (trial, lane_flags) in flags.iter().enumerate() {
                assert_eq!(
                    *lane_flags,
                    reference.trial_flags(YieldMode::Reference, &mut rng),
                    "trial {trial}"
                );
            }
            // One block scan per trial plus one full curve per fallback.
            assert_eq!(
                lanes.codes_scanned(),
                trials * scan + lanes.fallbacks() * (dac.max_code() + 1)
            );
            per_width.push((lanes.trials_run(), lanes.codes_scanned(), lanes.fallbacks()));
        }
        assert_eq!(
            per_width[0], per_width[1],
            "counters differ between W = 4 and 8"
        );
    }

    #[test]
    fn supervised_lane_yields_match_across_widths_and_jobs() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 2.0;
        let plan = McPlan::new(7, 1_000, 137).expect("plan");
        let lanes4 = fused_yields_supervised_lanes::<4>(
            &dac,
            sigma,
            YieldLimits::half_lsb(),
            &plan,
            &ExecPolicy::sequential(),
        )
        .expect("lanes4");
        assert_eq!(lanes4.value, reference_over_chunks(&dac, sigma, &plan));
        for jobs in [2, 8] {
            let lanes8 = fused_yields_supervised_lanes::<8>(
                &dac,
                sigma,
                YieldLimits::half_lsb(),
                &plan,
                &ExecPolicy::with_jobs(jobs),
            )
            .expect("lanes8");
            assert_eq!(lanes8.value, lanes4.value, "jobs = {jobs}");
        }
    }

    #[test]
    fn invalid_engine_inputs_are_typed_errors() {
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        assert_eq!(
            YieldEngine::new(&dac, -0.1, YieldLimits::half_lsb()).map(|_| ()),
            Err(MetricError::InvalidSigma { value: -0.1 })
        );
        assert_eq!(
            YieldLimits::new(0.5, 0.0).map(|_| ()),
            Err(MetricError::InvalidLimit {
                name: "DNL",
                value: 0.0
            })
        );
        let mut engine = YieldEngine::new(&dac, 0.01, YieldLimits::half_lsb()).expect("engine");
        let mut rng = seeded_rng(1);
        assert!(engine.run(YieldMode::Reference, 0, &mut rng).is_err());
        assert!(engine.run_lanes::<8, _>(0, &mut rng).is_err());
        let plan = McPlan::new(1, 10, 5).expect("plan");
        assert!(matches!(
            fused_yields_supervised_lanes::<8>(
                &dac,
                f64::NAN,
                YieldLimits::half_lsb(),
                &plan,
                &ExecPolicy::sequential()
            ),
            Err(FusedYieldError::Metric(MetricError::InvalidSigma { .. }))
        ));
    }
}
