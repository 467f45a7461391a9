//! Static converter metrics: transfer function, INL, DNL, parametric yield.
//!
//! INL is reported against the endpoint-fit line (the convention behind the
//! eq. (1) yield formula); a best-fit variant is provided for comparison.
//! The Monte-Carlo yield estimator closes the loop on the paper's eq. (1):
//! sizing the unit source at `σ = 1/(2·C·√2ⁿ)` must deliver (at least) the
//! target yield.

use crate::architecture::SegmentedDac;
use crate::errors::CellErrors;
use core::fmt;
use ctsdac_stats::rng::Rng;
use ctsdac_stats::{StatsError, YieldEstimate};

/// Failure modes of the Monte-Carlo metric-yield estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricError {
    /// The pass/fail limit is not a positive finite number.
    InvalidLimit {
        /// Which limit was rejected (`"INL"`, `"DNL"`, …).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The unit-source mismatch sigma is negative or non-finite.
    InvalidSigma {
        /// The offending value.
        value: f64,
    },
    /// The underlying yield statistics were ill-posed (e.g. zero trials).
    Stats(StatsError),
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidLimit { name, value } => {
                write!(
                    f,
                    "invalid {name} limit {value}: must be positive and finite"
                )
            }
            Self::InvalidSigma { value } => {
                write!(
                    f,
                    "invalid unit-source sigma {value}: must be non-negative and finite"
                )
            }
            Self::Stats(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MetricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidLimit { .. } | Self::InvalidSigma { .. } => None,
            Self::Stats(e) => Some(e),
        }
    }
}

impl From<StatsError> for MetricError {
    fn from(e: StatsError) -> Self {
        Self::Stats(e)
    }
}

pub(crate) fn positive_limit(name: &'static str, value: f64) -> Result<(), MetricError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(MetricError::InvalidLimit { name, value })
    }
}

/// The measured transfer function of one converter realisation.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    levels: Vec<f64>,
}

impl TransferFunction {
    /// Evaluates the output level at every code (reference path: each
    /// code is decoded and summed independently, `O(2ⁿ·cells)`).
    ///
    /// The summation convention is fixed: a code's binary cells accumulate
    /// in index order, its unary cells in switching-rank order, and the
    /// level is `binary_part + unary_part`. [`Self::compute_fast`] uses
    /// the same convention, so the two paths agree **bitwise** (see the
    /// `proptests` suite).
    pub fn compute(dac: &SegmentedDac, errors: &CellErrors) -> Self {
        let b = dac.spec().binary_bits;
        let n_bin = b as usize;
        let rel = errors.rel();
        let weights = dac.weights();
        let levels = (0..=dac.max_code())
            .map(|code| {
                let mut bin = 0.0;
                for i in 0..n_bin {
                    if (code >> i) & 1 == 1 {
                        bin += weights[i] as f64 * (1.0 + rel[i]);
                    }
                }
                let mut unary = 0.0;
                for rank in 0..(code >> b) as usize {
                    let cell = dac.unary_cell_at_rank(rank);
                    unary += weights[cell] as f64 * (1.0 + rel[cell]);
                }
                bin + unary
            })
            .collect();
        Self { levels }
    }

    /// Fast path exploiting the segmented structure: the level of
    /// `code = t·2^b + r` is `binary_sum[r] + unary_cumsum[t]`. Exact for
    /// this architecture and `O(2ⁿ)` instead of `O(2ⁿ·cells)`.
    pub fn compute_fast(dac: &SegmentedDac, errors: &CellErrors) -> Self {
        let b = dac.spec().binary_bits;
        let rel = errors.rel();
        let weights = dac.weights();
        // Binary sums for every residue.
        let n_bin = b as usize;
        let bin_levels: Vec<f64> = (0..(1u64 << b))
            .map(|r| {
                (0..n_bin)
                    .filter(|i| (r >> i) & 1 == 1)
                    .map(|i| weights[i] as f64 * (1.0 + rel[i]))
                    .sum()
            })
            .collect();
        // Unary cumulative sums in switching-rank order.
        let mut unary_cum = Vec::with_capacity(dac.n_unary() + 1);
        unary_cum.push(0.0);
        let mut acc = 0.0;
        for rank in 0..dac.n_unary() {
            let cell = dac.unary_cell_at_rank(rank);
            acc += weights[cell] as f64 * (1.0 + rel[cell]);
            unary_cum.push(acc);
        }
        let levels = (0..=dac.max_code())
            .map(|code| {
                let r = (code & ((1u64 << b) - 1)) as usize;
                let t = (code >> b) as usize;
                bin_levels[r] + unary_cum[t]
            })
            .collect();
        Self { levels }
    }

    /// Output levels in LSBs, indexed by code.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Differential nonlinearity per step (LSB): `DNL[k] = L[k+1] − L[k] − 1`.
    pub fn dnl(&self) -> Vec<f64> {
        self.levels.windows(2).map(|w| w[1] - w[0] - 1.0).collect()
    }

    /// Endpoint-fit integral nonlinearity per code (LSB).
    pub fn inl_endpoint(&self) -> Vec<f64> {
        let n = self.levels.len();
        let first = self.levels[0];
        let last = self.levels[n - 1];
        let gain = (last - first) / (n - 1) as f64;
        self.levels
            .iter()
            .enumerate()
            .map(|(k, &l)| l - (first + gain * k as f64))
            .collect()
    }

    /// Best-fit (least-squares line) integral nonlinearity per code (LSB).
    pub fn inl_best_fit(&self) -> Vec<f64> {
        let n = self.levels.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = self.levels.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for (k, &l) in self.levels.iter().enumerate() {
            let dx = k as f64 - mean_x;
            sxx += dx * dx;
            sxy += dx * (l - mean_y);
        }
        let slope = sxy / sxx;
        self.levels
            .iter()
            .enumerate()
            .map(|(k, &l)| l - (mean_y + slope * (k as f64 - mean_x)))
            .collect()
    }

    /// Worst absolute endpoint-fit INL (LSB).
    pub fn inl_max_abs(&self) -> f64 {
        self.inl_endpoint()
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Worst absolute DNL (LSB).
    pub fn dnl_max_abs(&self) -> f64 {
        self.dnl().iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// True if the converter is monotone.
    pub fn is_monotone(&self) -> bool {
        self.levels.windows(2).all(|w| w[1] >= w[0])
    }
}

/// Monte-Carlo INL yield: fraction of mismatch realisations with
/// `max|INL| < inl_limit` (LSB), the estimate that validates the analytic
/// spec of eq. (1).
///
/// Kept only for the `perfbench` `inl-yield` ladder (see the
/// [`yield_engine`](crate::yield_engine) module doc); every other caller
/// runs `YieldEngine::run_lanes`, whose INL yield is the same per stream.
///
/// # Errors
///
/// [`MetricError::InvalidLimit`] if `inl_limit` is not positive and finite;
/// [`MetricError::Stats`] if `trials == 0`.
///
/// # Examples
///
/// ```
/// use ctsdac_core::DacSpec;
/// use ctsdac_dac::architecture::SegmentedDac;
/// use ctsdac_dac::static_metrics::inl_yield_mc;
/// use ctsdac_stats::sample::seeded_rng;
///
/// let spec = DacSpec::new(8, 4, 0.997, DacSpec::paper_12bit().env,
///                         DacSpec::paper_12bit().tech);
/// let dac = SegmentedDac::new(&spec);
/// let mut rng = seeded_rng(42);
/// let y = inl_yield_mc(&dac, spec.sigma_unit_spec(), 0.5, 200, &mut rng).unwrap();
/// // Sizing at the eq. (1) budget must deliver (at least) the target yield.
/// assert!(y.estimate() > 0.95);
/// ```
pub fn inl_yield_mc<R: Rng + ?Sized>(
    dac: &SegmentedDac,
    sigma_unit: f64,
    inl_limit: f64,
    trials: u64,
    rng: &mut R,
) -> Result<YieldEstimate, MetricError> {
    positive_limit("INL", inl_limit)?;
    Ok(YieldEstimate::run(rng, trials, |rng, _| {
        let errors = CellErrors::random(dac, sigma_unit, rng);
        let tf = TransferFunction::compute_fast(dac, &errors);
        tf.inl_max_abs() < inl_limit
    })?)
}

/// Monte-Carlo DNL yield: fraction of mismatch realisations with
/// `max|DNL| < dnl_limit` (LSB). The paper's §1: "The DNL specification
/// depends on the segmentation ratio but it is always satisfied provided
/// that the INL is below 0.5 LSB for reasonable segmentation ratios" —
/// this estimator lets that claim be checked numerically.
///
/// Kept only for the `perfbench` `inl-yield` ladder (see the
/// [`yield_engine`](crate::yield_engine) module doc); every other caller
/// runs `YieldEngine::run_lanes`, whose DNL yield is the same per stream.
///
/// # Errors
///
/// [`MetricError::InvalidLimit`] if `dnl_limit` is not positive and finite;
/// [`MetricError::Stats`] if `trials == 0`.
pub fn dnl_yield_mc<R: Rng + ?Sized>(
    dac: &SegmentedDac,
    sigma_unit: f64,
    dnl_limit: f64,
    trials: u64,
    rng: &mut R,
) -> Result<YieldEstimate, MetricError> {
    positive_limit("DNL", dnl_limit)?;
    Ok(YieldEstimate::run(rng, trials, |rng, _| {
        let errors = CellErrors::random(dac, sigma_unit, rng);
        let tf = TransferFunction::compute_fast(dac, &errors);
        tf.dnl_max_abs() < dnl_limit
    })?)
}

/// Monte-Carlo monotonicity yield: fraction of realisations with a
/// monotone transfer characteristic (equivalently `DNL > −1` everywhere).
///
/// Kept only for the `perfbench` `inl-yield` ladder (see the
/// [`yield_engine`](crate::yield_engine) module doc); every other caller
/// runs `YieldEngine::run_lanes`, whose monotonicity yield is the same per stream.
///
/// # Errors
///
/// [`MetricError::Stats`] if `trials == 0`.
pub fn monotonicity_yield_mc<R: Rng + ?Sized>(
    dac: &SegmentedDac,
    sigma_unit: f64,
    trials: u64,
    rng: &mut R,
) -> Result<YieldEstimate, MetricError> {
    Ok(YieldEstimate::run(rng, trials, |rng, _| {
        let errors = CellErrors::random(dac, sigma_unit, rng);
        TransferFunction::compute_fast(dac, &errors).is_monotone()
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_core::DacSpec;
    use ctsdac_stats::sample::seeded_rng;

    fn small_spec() -> DacSpec {
        let base = DacSpec::paper_12bit();
        DacSpec::new(8, 4, 0.997, base.env, base.tech)
    }

    #[test]
    fn ideal_converter_has_zero_inl_dnl() {
        let dac = SegmentedDac::new(&small_spec());
        let tf = TransferFunction::compute(&dac, &CellErrors::ideal(&dac));
        assert!(tf.inl_max_abs() < 1e-12);
        assert!(tf.dnl_max_abs() < 1e-12);
        assert!(tf.is_monotone());
    }

    #[test]
    fn single_heavy_unary_cell_bends_the_transfer() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rel = vec![0.0; dac.n_cells()];
        rel[4] = 0.05; // first unary cell (weight 16) 5 % heavy: +0.8 LSB
        let tf = TransferFunction::compute(&dac, &CellErrors::from_rel(&dac, rel));
        // DNL spike of +0.8 LSB where that cell turns on.
        assert!(
            (tf.dnl_max_abs() - 0.8).abs() < 0.01,
            "dnl = {}",
            tf.dnl_max_abs()
        );
        assert!(tf.inl_max_abs() > 0.3);
    }

    #[test]
    fn endpoint_inl_is_zero_at_endpoints() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rng = seeded_rng(7);
        let errors = CellErrors::random(&dac, 0.02, &mut rng);
        let inl = TransferFunction::compute(&dac, &errors).inl_endpoint();
        assert!(inl[0].abs() < 1e-12);
        assert!(inl.last().copied().expect("non-empty").abs() < 1e-12);
    }

    #[test]
    fn best_fit_inl_never_exceeds_endpoint_rms() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rng = seeded_rng(17);
        let errors = CellErrors::random(&dac, 0.02, &mut rng);
        let tf = TransferFunction::compute(&dac, &errors);
        let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
        assert!(rms(&tf.inl_best_fit()) <= rms(&tf.inl_endpoint()) + 1e-12);
    }

    #[test]
    fn binary_dnl_spike_at_major_carry() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rel = vec![0.0; dac.n_cells()];
        // All binary cells 3 % light: worst step at the binary-to-unary
        // carry (code 15 -> 16): step = 16·1 − 15·0.97 = 1.45 ⇒ DNL = +0.45.
        for r in rel.iter_mut().take(4) {
            *r = -0.03;
        }
        let tf = TransferFunction::compute(&dac, &CellErrors::from_rel(&dac, rel));
        let dnl = tf.dnl();
        assert!((dnl[15] - 0.45).abs() < 1e-9, "dnl[15] = {}", dnl[15]);
    }

    #[test]
    fn yield_grows_as_sigma_shrinks() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rng = seeded_rng(11);
        let spec_sigma = small_spec().sigma_unit_spec();
        let tight = inl_yield_mc(&dac, spec_sigma / 2.0, 0.5, 150, &mut rng).unwrap();
        let loose = inl_yield_mc(&dac, spec_sigma * 4.0, 0.5, 150, &mut rng).unwrap();
        assert!(tight.estimate() > loose.estimate());
        assert!(tight.estimate() > 0.99);
    }

    #[test]
    fn fast_transfer_matches_reference() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rng = seeded_rng(31);
        let errors = CellErrors::random(&dac, 0.02, &mut rng);
        let slow = TransferFunction::compute(&dac, &errors);
        let fast = TransferFunction::compute_fast(&dac, &errors);
        for (a, b) in slow.levels().iter().zip(fast.levels()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn fast_transfer_matches_reference_with_custom_order() {
        let spec = small_spec();
        let n = spec.unary_source_count();
        let order: Vec<usize> = (0..n).rev().collect();
        let dac = SegmentedDac::new(&spec).with_unary_order(order);
        let mut rng = seeded_rng(32);
        let errors = CellErrors::random(&dac, 0.02, &mut rng);
        let slow = TransferFunction::compute(&dac, &errors);
        let fast = TransferFunction::compute_fast(&dac, &errors);
        for (a, b) in slow.levels().iter().zip(fast.levels()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dnl_yield_exceeds_inl_yield_at_spec_sigma() {
        // The paper's §1 claim: INL < 0.5 LSB implies the DNL spec for
        // reasonable segmentations. At the spec sigma, DNL yield must be at
        // least the INL yield.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec();
        let mut rng = seeded_rng(71);
        let inl = inl_yield_mc(&dac, sigma, 0.5, 200, &mut rng).unwrap();
        let mut rng2 = seeded_rng(71);
        let dnl = dnl_yield_mc(&dac, sigma, 0.5, 200, &mut rng2).unwrap();
        assert!(
            dnl.estimate() >= inl.estimate(),
            "DNL yield {} below INL yield {}",
            dnl.estimate(),
            inl.estimate()
        );
    }

    #[test]
    fn monotonicity_is_easier_than_half_lsb_dnl() {
        // Monotone ⟺ DNL > −1 LSB, strictly weaker than |DNL| < 0.5.
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let sigma = spec.sigma_unit_spec() * 3.0;
        let mut rng = seeded_rng(72);
        let dnl = dnl_yield_mc(&dac, sigma, 0.5, 200, &mut rng).unwrap();
        let mut rng2 = seeded_rng(72);
        let mono = monotonicity_yield_mc(&dac, sigma, 200, &mut rng2).unwrap();
        assert!(mono.estimate() >= dnl.estimate());
    }

    #[test]
    fn spec_sigma_achieves_target_yield() {
        // The eq. (1) validation at 8 bits: MC yield at the analytic budget
        // must be at least the target (the formula is conservative).
        let spec = small_spec();
        let dac = SegmentedDac::new(&spec);
        let mut rng = seeded_rng(2024);
        let y = inl_yield_mc(&dac, spec.sigma_unit_spec(), 0.5, 400, &mut rng).unwrap();
        assert!(
            y.estimate() >= 0.98,
            "MC yield {} below expectation for target {}",
            y.estimate(),
            spec.inl_yield
        );
    }

    #[test]
    fn ill_posed_yield_inputs_are_typed_errors_not_panics() {
        let dac = SegmentedDac::new(&small_spec());
        let mut rng = seeded_rng(1);
        assert_eq!(
            inl_yield_mc(&dac, 0.01, -0.5, 10, &mut rng),
            Err(MetricError::InvalidLimit {
                name: "INL",
                value: -0.5
            })
        );
        assert_eq!(
            dnl_yield_mc(&dac, 0.01, f64::NAN, 10, &mut rng).map_err(|e| match e {
                MetricError::InvalidLimit { name, .. } => name,
                MetricError::InvalidSigma { .. } => "sigma",
                MetricError::Stats(_) => "stats",
            }),
            Err("DNL")
        );
        assert_eq!(
            monotonicity_yield_mc(&dac, 0.01, 0, &mut rng),
            Err(MetricError::Stats(StatsError::NoTrials))
        );
    }
}
