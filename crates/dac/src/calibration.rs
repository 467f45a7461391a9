//! Current-source calibration (trimming) — an extension along the papers
//! the DATE 2003 flow cites as the alternative to intrinsic matching
//! (e.g. Cong & Geiger's self-calibrated 14-bit DAC).
//!
//! Intrinsic accuracy buys INL with silicon area (the whole point of the
//! sizing methodology); calibration buys it with a measure-and-trim loop:
//! each source's error is measured (with finite accuracy) and a small
//! trim DAC subtracts it (with finite resolution and range). This module
//! models that loop so the area-vs-calibration trade can be explored.

use crate::architecture::SegmentedDac;
use crate::errors::CellErrors;
use ctsdac_stats::rng::Rng;
use ctsdac_stats::NormalSampler;

/// Parameters of the measure-and-trim loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Resolution of the per-cell trim DAC in bits.
    pub trim_bits: u32,
    /// Full trim range as a relative current correction (e.g. `0.02` trims
    /// up to ±2 %).
    pub trim_range_rel: f64,
    /// 1-σ error of the current measurement, as a relative current.
    pub sigma_measure: f64,
}

impl CalibrationConfig {
    /// Creates a config, validating the arguments.
    ///
    /// # Panics
    ///
    /// Panics if `trim_bits` is outside `1..=16`, or either analog
    /// parameter is negative/non-finite.
    pub fn new(trim_bits: u32, trim_range_rel: f64, sigma_measure: f64) -> Self {
        assert!((1..=16).contains(&trim_bits), "unsupported trim resolution");
        assert!(
            trim_range_rel.is_finite() && trim_range_rel > 0.0,
            "invalid trim range {trim_range_rel}"
        );
        assert!(
            sigma_measure.is_finite() && sigma_measure >= 0.0,
            "invalid measurement sigma {sigma_measure}"
        );
        Self {
            trim_bits,
            trim_range_rel,
            sigma_measure,
        }
    }

    /// The trim DAC step size (relative current per LSB of trim).
    pub fn trim_step(&self) -> f64 {
        2.0 * self.trim_range_rel / ((1u64 << self.trim_bits) - 1) as f64
    }

    /// Quantises and clamps a requested correction to the trim DAC grid.
    pub fn quantize(&self, correction: f64) -> f64 {
        let step = self.trim_step();
        let code = (correction / step).round();
        let max_code = ((1u64 << self.trim_bits) - 1) as f64 / 2.0;
        code.clamp(-max_code, max_code) * step
    }
}

/// Runs one calibration pass: measures each cell (with noise), programs the
/// nearest trim code, and returns the residual error vector.
pub fn calibrate<R: Rng + ?Sized>(
    dac: &SegmentedDac,
    errors: &CellErrors,
    config: &CalibrationConfig,
    rng: &mut R,
) -> CellErrors {
    let mut sampler = NormalSampler::new();
    let residual = errors
        .rel()
        .iter()
        .map(|&true_err| {
            let measured = true_err + config.sigma_measure * sampler.sample(rng);
            let trim = config.quantize(-measured);
            true_err + trim
        })
        .collect();
    CellErrors::from_rel(dac, residual)
}

/// Residual 1-σ error after ideal-range calibration: the RSS of the trim
/// quantisation noise (`step/√12`) and the measurement error.
pub fn residual_sigma_prediction(config: &CalibrationConfig) -> f64 {
    let q = config.trim_step() / 12f64.sqrt();
    (q * q + config.sigma_measure * config.sigma_measure).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_metrics::TransferFunction;
    use crate::yield_engine::{YieldEngine, YieldLimits};
    use ctsdac_core::DacSpec;
    use ctsdac_stats::sample::seeded_rng;
    use ctsdac_stats::Summary;

    fn dac() -> SegmentedDac {
        SegmentedDac::new(&DacSpec::paper_12bit())
    }

    #[test]
    fn fine_trim_with_perfect_measurement_leaves_quantisation_noise() {
        let d = dac();
        let config = CalibrationConfig::new(8, 0.05, 0.0);
        let mut rng = seeded_rng(1);
        let raw = CellErrors::random(&d, 0.01, &mut rng);
        let fixed = calibrate(&d, &raw, &config, &mut rng);
        let residual: Summary = fixed.rel().iter().copied().collect();
        let predicted = residual_sigma_prediction(&config);
        assert!(
            residual.std_dev() < 2.0 * predicted,
            "residual sd {} vs predicted {predicted}",
            residual.std_dev()
        );
        let raw_sd: Summary = raw.rel().iter().copied().collect();
        assert!(residual.std_dev() < raw_sd.std_dev() / 10.0);
    }

    #[test]
    fn calibration_rescues_an_undersized_converter() {
        // A converter sized 4× too loose fails the INL yield; calibration
        // recovers it — the trade the calibration literature exploits.
        let spec = DacSpec::paper_12bit();
        let d = dac();
        let sigma = spec.sigma_unit_spec() * 4.0;
        let config = CalibrationConfig::new(6, 4.0 * sigma, sigma / 50.0);
        let mut rng = seeded_rng(2);

        let mut pass_raw = 0u32;
        let mut pass_cal = 0u32;
        let trials = 60;
        for _ in 0..trials {
            let raw = CellErrors::random(&d, sigma, &mut rng);
            if TransferFunction::compute_fast(&d, &raw).inl_max_abs() < 0.5 {
                pass_raw += 1;
            }
            let fixed = calibrate(&d, &raw, &config, &mut rng);
            if TransferFunction::compute_fast(&d, &fixed).inl_max_abs() < 0.5 {
                pass_cal += 1;
            }
        }
        assert!(
            pass_cal > pass_raw,
            "calibration did not help: raw {pass_raw}/{trials}, cal {pass_cal}/{trials}"
        );
        assert!(pass_cal as f64 / trials as f64 > 0.9);
    }

    #[test]
    fn measurement_noise_limits_the_residual() {
        let d = dac();
        let noisy = CalibrationConfig::new(10, 0.05, 5e-3);
        let mut rng = seeded_rng(3);
        let raw = CellErrors::random(&d, 0.01, &mut rng);
        let fixed = calibrate(&d, &raw, &noisy, &mut rng);
        let residual: Summary = fixed.rel().iter().copied().collect();
        // The residual cannot beat the measurement noise.
        assert!(
            residual.std_dev() > 0.5 * 5e-3,
            "residual sd {} below measurement floor",
            residual.std_dev()
        );
    }

    #[test]
    fn out_of_range_errors_are_clamped_not_overcorrected() {
        let d = dac();
        let config = CalibrationConfig::new(8, 0.01, 0.0);
        let mut rel = vec![0.0; d.n_cells()];
        rel[0] = 0.05; // 5 % error, trim range only ±1 %
        let raw = CellErrors::from_rel(&d, rel);
        let mut rng = seeded_rng(4);
        let fixed = calibrate(&d, &raw, &config, &mut rng);
        assert!((fixed.rel()[0] - 0.04).abs() < config.trim_step());
    }

    #[test]
    fn quantize_is_odd_and_bounded() {
        let config = CalibrationConfig::new(4, 0.02, 0.0);
        for &x in &[0.0, 0.003, -0.003, 0.05, -0.05] {
            let q = config.quantize(x);
            assert!((config.quantize(-x) + q).abs() < 1e-15);
            assert!(q.abs() <= 0.02 + 1e-12);
        }
    }

    #[test]
    fn calibrated_yield_via_mc_path() {
        // End-to-end: the calibrated residual sigma, fed back into the
        // analytic yield machinery, predicts near-unity INL yield.
        let spec = DacSpec::paper_12bit();
        let d = dac();
        let config = CalibrationConfig::new(8, 0.02, 1e-4);
        let residual = residual_sigma_prediction(&config);
        let mut rng = seeded_rng(5);
        let y = YieldEngine::new(&d, residual, YieldLimits::half_lsb())
            .and_then(|mut engine| engine.run_lanes::<8, _>(100, &mut rng))
            .expect("valid MC setup")
            .inl;
        assert!(y.estimate() > 0.95, "yield {}", y.estimate());
        assert!(residual < spec.sigma_unit_spec());
    }

    #[test]
    #[should_panic(expected = "unsupported trim resolution")]
    fn zero_trim_bits_rejected() {
        let _ = CalibrationConfig::new(0, 0.01, 0.0);
    }
}
