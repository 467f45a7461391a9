//! Monte-Carlo harness and parametric-yield estimation.
//!
//! The paper's analytic yield expressions (eq. (1), (8)–(9)) are validated in
//! this workspace by direct Monte Carlo over mismatch realisations; this
//! module provides the trial loop and a [`YieldEstimate`] carrying a Wilson
//! score confidence interval, which behaves correctly even when the observed
//! pass count is 0 or the trial count (unlike the naive normal interval).
//!
//! Invalid counts are reported as a typed [`StatsError`] rather than a
//! panic, so callers in the sizing flow can propagate them with `?` (the
//! umbrella `ctsdac::Error` folds them in).

use crate::rng::Rng;
use core::fmt;

/// Typed rejection of invalid Monte-Carlo counts.
///
/// Mirrors the no-panic policy of the solver/exploration layer: a zero
/// trial budget or an impossible pass count is an input error the caller
/// can react to, not a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsError {
    /// A yield estimate needs at least one trial.
    NoTrials,
    /// The pass count exceeds the trial count.
    PassesExceedTrials {
        /// Claimed number of passing trials.
        passes: u64,
        /// Claimed total number of trials.
        trials: u64,
    },
    /// A summary statistic was asked of an empty data set.
    EmptyData,
    /// A percentile fraction was outside `[0, 1]` (or NaN).
    InvalidFraction,
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoTrials => write!(f, "yield estimate needs at least one trial"),
            Self::PassesExceedTrials { passes, trials } => {
                write!(f, "passes ({passes}) cannot exceed trials ({trials})")
            }
            Self::EmptyData => write!(f, "statistic of an empty data set"),
            Self::InvalidFraction => {
                write!(f, "percentile fraction must be inside [0, 1]")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Estimated pass probability from a Bernoulli Monte-Carlo experiment.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_stats::mc::StatsError> {
/// use ctsdac_stats::YieldEstimate;
///
/// let y = YieldEstimate::from_counts(997, 1000)?;
/// assert!((y.estimate() - 0.997).abs() < 1e-12);
/// let (lo, hi) = y.wilson_interval(1.96);
/// assert!(lo < 0.997 && 0.997 < hi);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YieldEstimate {
    passes: u64,
    trials: u64,
}

impl YieldEstimate {
    /// Builds an estimate from raw counts.
    ///
    /// # Errors
    ///
    /// [`StatsError::NoTrials`] if `trials == 0`;
    /// [`StatsError::PassesExceedTrials`] if `passes > trials`.
    pub fn from_counts(passes: u64, trials: u64) -> Result<Self, StatsError> {
        if trials == 0 {
            return Err(StatsError::NoTrials);
        }
        if passes > trials {
            return Err(StatsError::PassesExceedTrials { passes, trials });
        }
        Ok(Self { passes, trials })
    }

    /// Runs `trials` pass/fail experiments and collects the estimate.
    ///
    /// # Errors
    ///
    /// [`StatsError::NoTrials`] if `trials == 0`.
    pub fn run<R, F>(rng: &mut R, trials: u64, mut pass: F) -> Result<Self, StatsError>
    where
        R: Rng + ?Sized,
        F: FnMut(&mut R, u64) -> bool,
    {
        if trials == 0 {
            return Err(StatsError::NoTrials);
        }
        let mut passes = 0;
        for i in 0..trials {
            if pass(rng, i) {
                passes += 1;
            }
        }
        Ok(Self { passes, trials })
    }

    /// Pools another estimate's counts into this one — the exact merge for
    /// chunked (parallel or resumed) Monte-Carlo runs, since Bernoulli
    /// counts are order-free.
    ///
    /// Pass counts saturate at `u64::MAX` rather than overflowing; at 2⁶⁴
    /// trials the estimate has long stopped being the bottleneck.
    pub fn combine(&self, other: &Self) -> Self {
        Self {
            passes: self.passes.saturating_add(other.passes),
            trials: self.trials.saturating_add(other.trials),
        }
    }

    /// Number of passing trials.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// Total number of trials.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Point estimate of the pass probability.
    pub fn estimate(&self) -> f64 {
        self.passes as f64 / self.trials as f64
    }

    /// Wilson score interval at normal deviate `z` (e.g. `1.96` for 95 %).
    ///
    /// Returns `(low, high)`, both clamped to `[0, 1]` and guaranteed to
    /// bracket [`YieldEstimate::estimate`] (rounding at extreme trial
    /// counts would otherwise let a bound drift an ulp past the point
    /// estimate). A non-positive or non-finite `z` degrades to the
    /// degenerate interval at the point estimate rather than producing
    /// NaN bounds.
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        let p = self.estimate().clamp(0.0, 1.0);
        if !(z > 0.0 && z.is_finite()) {
            return (p, p);
        }
        let n = self.trials as f64;
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((centre - half).clamp(0.0, p), (centre + half).clamp(p, 1.0))
    }

    /// True if `target` lies inside the Wilson interval at deviate `z`.
    pub fn consistent_with(&self, target: f64, z: f64) -> bool {
        let (lo, hi) = self.wilson_interval(z);
        (lo..=hi).contains(&target)
    }
}

impl core::fmt::Display for YieldEstimate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let (lo, hi) = self.wilson_interval(1.96);
        write!(
            f,
            "{}/{} = {:.4} (95% CI [{:.4}, {:.4}])",
            self.passes,
            self.trials,
            self.estimate(),
            lo,
            hi
        )
    }
}

/// Outcome of a sequential yield test against a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldDecision {
    /// The Wilson lower bound cleared the target: the yield meets spec.
    Pass,
    /// The Wilson upper bound fell below the target: the yield misses spec.
    Fail,
    /// The trial budget ran out with the target still inside the interval.
    Inconclusive,
}

impl fmt::Display for YieldDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Pass => write!(f, "pass"),
            Self::Fail => write!(f, "fail"),
            Self::Inconclusive => write!(f, "inconclusive"),
        }
    }
}

/// Result of [`YieldTest::run_sequential`]: the pooled estimate at the
/// stopping point plus the decision reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequentialYield {
    /// Counts accumulated up to the stopping point.
    pub estimate: YieldEstimate,
    /// The verdict against the target.
    pub decision: YieldDecision,
    /// Number of batches evaluated before stopping.
    pub batches: u64,
}

/// A sequential Monte-Carlo yield test with Wilson-interval early stopping.
///
/// Trials run in fixed-size batches; after each batch the Wilson score
/// interval at deviate `z` is checked against the target yield. The test
/// terminates *deterministically* — the stopping point is a pure function
/// of the trial outcome sequence — as soon as the interval clears the
/// target on either side, falling back to the fixed `max_trials` budget
/// when the target stays inside the interval.
///
/// This is the engine behind `dacsizer --yield-ci`: high-margin design
/// points resolve in a few hundred trials instead of burning the full
/// budget, while points near the target get the whole budget.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), ctsdac_stats::mc::StatsError> {
/// use ctsdac_stats::mc::{YieldDecision, YieldTest};
/// use ctsdac_stats::rng::{stream_rng, Rng};
///
/// let test = YieldTest::new(0.9, 1.96, 100_000, 200)?;
/// // True pass probability 0.99: clears a 0.9 target quickly. Batch `b`
/// // draws its own stream, so the run is a pure function of the seed.
/// let out = test.run_sequential(|b, len| {
///     let mut rng = stream_rng(5, b);
///     (0..len).filter(|_| rng.gen_range(0.0..1.0) < 0.99).count() as u64
/// })?;
/// assert_eq!(out.decision, YieldDecision::Pass);
/// assert!(out.estimate.trials() < 2_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldTest {
    target: f64,
    z: f64,
    max_trials: u64,
    batch: u64,
}

impl YieldTest {
    /// Builds a test of `target` yield at Wilson deviate `z`, with a hard
    /// budget of `max_trials` checked every `batch` trials (`batch` is
    /// clamped to at least 1 and at most `max_trials`).
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidFraction`] if `target` is not strictly inside
    /// `(0, 1)` or `z` is not positive and finite;
    /// [`StatsError::NoTrials`] if `max_trials == 0`.
    pub fn new(target: f64, z: f64, max_trials: u64, batch: u64) -> Result<Self, StatsError> {
        if !(target > 0.0 && target < 1.0 && z > 0.0 && z.is_finite()) {
            return Err(StatsError::InvalidFraction);
        }
        if max_trials == 0 {
            return Err(StatsError::NoTrials);
        }
        Ok(Self {
            target,
            z,
            max_trials,
            batch: batch.clamp(1, max_trials),
        })
    }

    /// Builds a test from a two-sided `confidence` level (e.g. `0.95`)
    /// instead of a raw deviate.
    ///
    /// # Errors
    ///
    /// As [`YieldTest::new`]; an invalid confidence maps to
    /// [`StatsError::InvalidFraction`].
    pub fn from_confidence(
        target: f64,
        confidence: f64,
        max_trials: u64,
        batch: u64,
    ) -> Result<Self, StatsError> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(StatsError::InvalidFraction);
        }
        let z = crate::normal::inv_phi(0.5 + confidence / 2.0)
            .map_err(|_| StatsError::InvalidFraction)?;
        Self::new(target, z, max_trials, batch)
    }

    /// The target yield the test decides against.
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The Wilson deviate used for the stopping interval.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// The fallback trial budget.
    pub fn max_trials(&self) -> u64 {
        self.max_trials
    }

    /// Trials per batch between stopping checks.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Pure stopping rule: the decision forced by `estimate`, or `None`
    /// while the target is still inside the Wilson interval. Drivers that
    /// batch trials elsewhere (e.g. the supervised pool) can call this
    /// between chunks.
    pub fn decide(&self, estimate: &YieldEstimate) -> Option<YieldDecision> {
        let (lo, hi) = estimate.wilson_interval(self.z);
        if lo > self.target {
            Some(YieldDecision::Pass)
        } else if hi < self.target {
            Some(YieldDecision::Fail)
        } else {
            None
        }
    }

    /// Runs batches of pass/fail trials until the Wilson interval clears
    /// the target or the budget is exhausted.
    ///
    /// `batch(b, len)` runs batch `b` — `len` trials, [`Self::batch`]
    /// except for a shorter final batch — and returns its pass count.
    /// Batches run in order `0, 1, …`, so for a given outcome sequence the
    /// number of trials consumed is deterministic, and a stop after `k`
    /// batches has consumed exactly batches `0..k`.
    ///
    /// # Errors
    ///
    /// [`StatsError::PassesExceedTrials`] if a batch reports more passes
    /// than trials.
    pub fn run_sequential<F>(&self, mut batch: F) -> Result<SequentialYield, StatsError>
    where
        F: FnMut(u64, u64) -> u64,
    {
        let mut passes = 0u64;
        let mut trials = 0u64;
        let mut batches = 0u64;
        while trials < self.max_trials {
            let len = self.batch.min(self.max_trials - trials);
            let p = batch(batches, len);
            if p > len {
                return Err(StatsError::PassesExceedTrials {
                    passes: p,
                    trials: len,
                });
            }
            passes += p;
            trials += len;
            batches += 1;
            let estimate = YieldEstimate::from_counts(passes, trials)?;
            if let Some(decision) = self.decide(&estimate) {
                return Ok(SequentialYield {
                    estimate,
                    decision,
                    batches,
                });
            }
        }
        Ok(SequentialYield {
            estimate: YieldEstimate::from_counts(passes, trials)?,
            decision: YieldDecision::Inconclusive,
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{stream_rng, Rng};
    use crate::sample::seeded_rng;

    /// A batch closure of Bernoulli(`p`) trials: batch `b` draws from
    /// `stream_rng(seed, b)`.
    fn bernoulli(seed: u64, p: f64) -> impl FnMut(u64, u64) -> u64 {
        move |b, len| {
            let mut rng = stream_rng(seed, b);
            (0..len).filter(|_| rng.gen_range(0.0..1.0) < p).count() as u64
        }
    }

    #[test]
    fn yield_estimate_recovers_known_probability() {
        let mut rng = seeded_rng(21);
        let y = YieldEstimate::run(&mut rng, 50_000, |rng, _| rng.gen_range(0.0..1.0) < 0.8)
            .expect("positive trials");
        assert!(
            (y.estimate() - 0.8).abs() < 0.01,
            "estimate = {}",
            y.estimate()
        );
        assert!(y.consistent_with(0.8, 1.96));
    }

    #[test]
    fn wilson_interval_handles_extremes() {
        let all_pass = YieldEstimate::from_counts(100, 100).expect("valid");
        let (lo, hi) = all_pass.wilson_interval(1.96);
        assert!(lo > 0.9 && hi > 0.999 && hi <= 1.0);

        let none_pass = YieldEstimate::from_counts(0, 100).expect("valid");
        let (lo, hi) = none_pass.wilson_interval(1.96);
        assert!(lo == 0.0 && hi < 0.1);
    }

    #[test]
    fn wilson_interval_is_ordered_and_contains_estimate() {
        let y = YieldEstimate::from_counts(37, 120).expect("valid");
        let (lo, hi) = y.wilson_interval(2.5758);
        assert!(lo <= y.estimate() && y.estimate() <= hi);
        assert!(lo < hi);
    }

    #[test]
    fn wilson_interval_single_trial_edges() {
        // trials = 1 with p = 0 and p = 1: finite ordered bounds in [0, 1].
        for passes in [0u64, 1] {
            let y = YieldEstimate::from_counts(passes, 1).expect("valid");
            let (lo, hi) = y.wilson_interval(1.96);
            assert!(lo.is_finite() && hi.is_finite(), "{passes}/1: [{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
            assert!(lo <= hi);
            assert!(lo <= y.estimate() && y.estimate() <= hi);
        }
    }

    #[test]
    fn wilson_interval_huge_trial_counts_stay_clean() {
        // Near u64::MAX trials the n² term must not overflow to NaN/inf,
        // and the interval must collapse around the estimate.
        for (passes, trials) in [
            (u64::MAX, u64::MAX),
            (0, u64::MAX),
            (u64::MAX / 2, u64::MAX),
            (10_000_000_000, 10_000_000_001),
        ] {
            let y = YieldEstimate::from_counts(passes, trials).expect("valid");
            let (lo, hi) = y.wilson_interval(1.96);
            assert!(lo.is_finite() && hi.is_finite(), "[{lo}, {hi}]");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
            assert!(lo <= hi);
            assert!(hi - lo < 1e-4, "interval did not collapse: [{lo}, {hi}]");
        }
    }

    #[test]
    fn wilson_interval_degenerate_z_pins_to_estimate() {
        let y = YieldEstimate::from_counts(3, 4).expect("valid");
        for z in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let (lo, hi) = y.wilson_interval(z);
            assert!(lo.is_finite() && hi.is_finite(), "z = {z}: [{lo}, {hi}]");
            assert_eq!((lo, hi), (0.75, 0.75), "z = {z}");
        }
    }

    #[test]
    fn combine_pools_counts_exactly() {
        let a = YieldEstimate::from_counts(30, 100).expect("valid");
        let b = YieldEstimate::from_counts(10, 50).expect("valid");
        let c = a.combine(&b);
        assert_eq!(c.passes(), 40);
        assert_eq!(c.trials(), 150);
        // Order-free: the merge is commutative.
        assert_eq!(c, b.combine(&a));
        // Saturating, not overflowing.
        let big = YieldEstimate::from_counts(u64::MAX, u64::MAX).expect("valid");
        let merged = big.combine(&a);
        assert_eq!(merged.trials(), u64::MAX);
    }

    #[test]
    fn zero_trials_is_a_typed_error() {
        assert_eq!(YieldEstimate::from_counts(0, 0), Err(StatsError::NoTrials));
        let mut rng = seeded_rng(0);
        assert_eq!(
            YieldEstimate::run(&mut rng, 0, |_, _| true),
            Err(StatsError::NoTrials)
        );
    }

    #[test]
    fn too_many_passes_is_a_typed_error() {
        assert_eq!(
            YieldEstimate::from_counts(5, 4),
            Err(StatsError::PassesExceedTrials {
                passes: 5,
                trials: 4
            })
        );
        // A sequential batch that over-reports is caught at that batch.
        let test = YieldTest::new(0.9, 1.96, 100, 10).expect("valid");
        assert_eq!(
            test.run_sequential(|_, len| len + 1),
            Err(StatsError::PassesExceedTrials {
                passes: 11,
                trials: 10
            })
        );
    }

    #[test]
    fn sequential_test_passes_early_on_high_yield() {
        let test = YieldTest::new(0.9, 1.96, 1_000_000, 100).expect("valid");
        let out = test.run_sequential(bernoulli(31, 0.995)).expect("runs");
        assert_eq!(out.decision, YieldDecision::Pass);
        assert!(
            out.estimate.trials() < 10_000,
            "spent {} trials on a clear pass",
            out.estimate.trials()
        );
        assert_eq!(out.batches, out.estimate.trials().div_ceil(100));
    }

    #[test]
    fn sequential_test_fails_early_on_low_yield() {
        let test = YieldTest::new(0.99, 1.96, 1_000_000, 100).expect("valid");
        let out = test.run_sequential(bernoulli(32, 0.5)).expect("runs");
        assert_eq!(out.decision, YieldDecision::Fail);
        assert!(out.estimate.trials() < 1_000);
    }

    #[test]
    fn sequential_test_exhausts_budget_on_the_line() {
        // True probability exactly at the target: the interval essentially
        // never clears it, so the budget is the stopping point.
        let test = YieldTest::new(0.5, 3.0, 2_000, 250).expect("valid");
        let out = test.run_sequential(bernoulli(33, 0.5)).expect("runs");
        assert_eq!(out.estimate.trials(), 2_000);
        assert_eq!(out.decision, YieldDecision::Inconclusive);
    }

    #[test]
    fn sequential_stopping_is_deterministic_in_the_seed() {
        let test = YieldTest::new(0.95, 2.5758, 50_000, 128).expect("valid");
        let run = |seed| test.run_sequential(bernoulli(seed, 0.98)).expect("runs");
        assert_eq!(run(77), run(77));
    }

    #[test]
    fn from_confidence_matches_known_deviate() {
        let test = YieldTest::from_confidence(0.9, 0.95, 1000, 100).expect("valid");
        assert!((test.z() - 1.9600).abs() < 1e-3, "z = {}", test.z());
    }

    #[test]
    fn decide_is_a_pure_interval_check() {
        let test = YieldTest::new(0.9, 1.96, 1000, 100).expect("valid");
        let clear_pass = YieldEstimate::from_counts(999, 1000).expect("valid");
        let clear_fail = YieldEstimate::from_counts(500, 1000).expect("valid");
        let ambiguous = YieldEstimate::from_counts(9, 10).expect("valid");
        assert_eq!(test.decide(&clear_pass), Some(YieldDecision::Pass));
        assert_eq!(test.decide(&clear_fail), Some(YieldDecision::Fail));
        assert_eq!(test.decide(&ambiguous), None);
    }

    #[test]
    fn invalid_test_parameters_are_typed_errors() {
        for (target, z) in [
            (0.0, 1.96),
            (1.0, 1.96),
            (f64::NAN, 1.96),
            (0.9, 0.0),
            (0.9, f64::NAN),
        ] {
            assert_eq!(
                YieldTest::new(target, z, 100, 10),
                Err(StatsError::InvalidFraction),
                "target {target}, z {z}"
            );
        }
        assert_eq!(YieldTest::new(0.9, 1.96, 0, 10), Err(StatsError::NoTrials));
        assert_eq!(
            YieldTest::from_confidence(0.9, 1.5, 100, 10),
            Err(StatsError::InvalidFraction)
        );
        // Batch is clamped, never rejected.
        let t = YieldTest::new(0.9, 1.96, 100, 0).expect("valid");
        assert_eq!(t.batch(), 1);
        assert!(t.run_sequential(|_, len| len).is_ok());
    }

    #[test]
    fn stats_error_display_is_one_line() {
        for e in [
            StatsError::NoTrials,
            StatsError::PassesExceedTrials {
                passes: 5,
                trials: 4,
            },
        ] {
            let msg = format!("{e}");
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
    }
}
