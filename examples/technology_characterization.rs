//! Technology-facing workflows around the sizing methodology: extract the
//! Pelgrom constants from (synthetic) silicon data, verify a sized design
//! across process corners, and explore the calibration alternative.
//!
//! Run with `cargo run --release --example technology_characterization`.

use ctsdac::core::corners::{corner_derating, verify_corners_simple};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::calibration::{residual_sigma_prediction, CalibrationConfig};
use ctsdac::dac::yield_engine::{YieldEngine, YieldLimits};
use ctsdac::process::extract::{extract_pelgrom, MismatchSample};
use ctsdac::process::{Pelgrom, Technology};
use ctsdac::stats::sample::seeded_rng;

fn main() {
    // 1. Extract matching constants from "measured" mismatch data.
    let truth = Pelgrom::new(&Technology::c035().nmos);
    let samples: Vec<MismatchSample> = [
        (0.5e-12, 0.15),
        (1e-12, 0.3),
        (4e-12, 0.5),
        (16e-12, 0.9),
        (30e-12, 1.5),
    ]
    .iter()
    .map(|&(wl, vov)| MismatchSample {
        wl,
        vov,
        sigma_id_rel: truth.sigma_id_rel(wl, vov),
    })
    .collect();
    let fit = extract_pelgrom(&samples).expect("well-posed sample set");
    println!("extracted matching constants: {fit}");

    // 2. Corner-verify a statistically sized design point.
    let spec = DacSpec::paper_12bit();
    let cond = SaturationCondition::Statistical;
    let vov_cs = 0.9;
    let vov_sw = cond.max_vov_sw(&spec, vov_cs).expect("feasible") * 0.95;
    println!("\ncorner check at Vov = ({vov_cs:.2}, {vov_sw:.2}) V:");
    for check in verify_corners_simple(&spec, cond, vov_cs, vov_sw) {
        println!("  {check}");
    }
    let derating = corner_derating(&spec, cond, vov_cs, vov_sw);
    println!("  corner derating needed: {:.0} mV", derating * 1e3);

    // 3. The calibration alternative: shrink the array 16x and trim.
    let dac = SegmentedDac::new(&spec);
    let sigma_small = spec.sigma_unit_spec() * 4.0; // area / 16
    let config = CalibrationConfig::new(6, 4.0 * sigma_small, sigma_small / 50.0);
    let residual = residual_sigma_prediction(&config);
    // INL yield over 100 trials, the same seeded draws for both arrays.
    let inl_yield = |sigma: f64| {
        YieldEngine::new(&dac, sigma, YieldLimits::half_lsb())
            .and_then(|mut engine| engine.run_lanes::<8, _>(100, &mut seeded_rng(3)))
            .expect("valid MC setup")
            .inl
    };
    let yield_raw = inl_yield(sigma_small);
    let yield_cal = inl_yield(residual);
    println!(
        "\ncalibration: area/16 intrinsic yield {:.2} -> trimmed yield {:.2} \
         (residual sigma {:.4} %)",
        yield_raw.estimate(),
        yield_cal.estimate(),
        residual * 100.0
    );
}
