//! Characterisation-stack integration: thermal noise, Welch floors, ZOH
//! droop and the measured-linearity loop, all on the flow-sized design.

use ctsdac::circuit::noise::thermal_snr_db;
use ctsdac::core::flow::{run_flow, FlowOptions};
use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::errors::CellErrors;
use ctsdac::dac::measurement::{measure_linearity, MeterConfig};
use ctsdac::dac::static_metrics::TransferFunction;
use ctsdac::dsp::spectrum::{welch, zoh_droop_db};
use ctsdac::dsp::Window;
use ctsdac::stats::sample::seeded_rng;
use ctsdac::stats::NormalSampler;

/// Thermal noise of the flow-sized design sits above the 12-bit
/// quantisation SNR — the sizing is mismatch-limited, not noise-limited.
#[test]
fn flow_design_is_not_thermal_limited() {
    let spec = DacSpec::paper_12bit();
    let report = run_flow(
        &spec,
        &FlowOptions {
            grid: 8,
            ..Default::default()
        },
    )
    .expect("feasible");
    let snr = thermal_snr_db(&report.lsb_cell, &spec.env, spec.n_bits, 400e6, 300.0);
    let quantisation = 6.02 * 12.0 + 1.76;
    assert!(
        snr > quantisation,
        "thermal SNR {snr:.1} dB below quantisation {quantisation:.1} dB"
    );
}

/// The bench measurement loop resolves the sizing-budget mismatch: the
/// measured INL agrees with the true one to well under the 0.5 LSB spec.
#[test]
fn measured_linearity_agrees_with_truth() {
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let mut rng = seeded_rng(42);
    let errors = CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng);
    let truth = TransferFunction::compute_fast(&dac, &errors);
    let meter = MeterConfig::new(0.1, 64);
    let measured = measure_linearity(&dac, &errors, &meter, &mut rng);
    assert!(
        (measured.inl_max_abs() - truth.inl_max_abs()).abs() < 0.1,
        "measured {:.3}, true {:.3}",
        measured.inl_max_abs(),
        truth.inl_max_abs()
    );
}

/// Welch on the converter's noise-plus-tone output separates the tone from
/// the mismatch-induced floor.
#[test]
fn welch_resolves_converter_noise_floor() {
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let mut rng = seeded_rng(9);
    let errors = CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng);
    let mut sampler = NormalSampler::new();
    // 16 cycles per 512-sample segment plus a small dither.
    let max = dac.max_code() as f64;
    let samples: Vec<f64> = (0..8192)
        .map(|i| {
            let v = max / 2.0
                + 0.49 * max * (2.0 * std::f64::consts::PI * 16.0 * i as f64 / 512.0).sin()
                + 0.5 * sampler.sample(&mut rng);
            let code = v.round().clamp(0.0, max) as u64;
            dac.output_level(code, errors.rel())
        })
        .collect();
    let psd = welch(&samples, 512, Window::Hann);
    let peak = psd[16];
    let floor: f64 = psd[40..200].iter().sum::<f64>() / 160.0;
    assert!(
        peak > 1e4 * floor,
        "tone not resolved: peak {peak:.3e}, floor {floor:.3e}"
    );
}

/// ZOH droop at the paper's 53 MHz / 300 MS/s operating point is ~0.45 dB
/// — small enough that Fig. 8's SFDR is not droop-limited.
#[test]
fn paper_tone_droop_is_negligible() {
    let droop = zoh_droop_db(53e6, 300e6);
    assert!(droop > -0.6 && droop < -0.3, "droop = {droop}");
}
