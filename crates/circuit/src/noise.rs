//! Thermal-noise analysis of the current cell and the converter's noise
//! floor.
//!
//! Not part of the DATE 2003 sizing loop, but the next question any adopter
//! asks: after mismatch (INL) and settling are budgeted, where does thermal
//! noise leave the SNR? Each saturated device contributes channel noise
//! `i_n² = 4kT·γ·g_m` (A²/Hz, `γ ≈ 2/3` long-channel); every ON cell's
//! noise current flows into the load, and the load resistors add their own
//! `4kT/R`.

use crate::cell::{CellEnvironment, SizedCell};

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Long-channel excess noise factor `γ`.
pub const GAMMA_LONG_CHANNEL: f64 = 2.0 / 3.0;

/// Channel thermal-noise current density of one device, `4kT·γ·g_m`
/// (A²/Hz).
///
/// # Panics
///
/// Panics if `gm` is negative or `temp_k` not strictly positive.
pub fn channel_noise_density(gm: f64, temp_k: f64) -> f64 {
    assert!(gm >= 0.0, "negative gm {gm}");
    assert!(temp_k > 0.0, "invalid temperature {temp_k}");
    4.0 * BOLTZMANN * temp_k * GAMMA_LONG_CHANNEL * gm
}

/// Output noise-current density of one ON cell (A²/Hz): CS channel noise
/// (the cascode and switch, as cascodes, contribute negligibly at low
/// frequency — their noise recirculates).
pub fn cell_noise_density(cell: &SizedCell, temp_k: f64) -> f64 {
    let gm_cs = cell.cs().gm(cell.i_unit(), cell.vov_cs());
    channel_noise_density(gm_cs, temp_k)
}

/// Converter output noise voltage density at full scale (V²/Hz): all
/// `2ⁿ − 1` LSB-units' CS noise into the load, plus the load's own
/// thermal noise.
pub fn output_noise_density(
    lsb_cell: &SizedCell,
    env: &CellEnvironment,
    n_bits: u32,
    temp_k: f64,
) -> f64 {
    assert!(
        (1..=24).contains(&n_bits),
        "unsupported resolution {n_bits}"
    );
    let n_units = ((1u64 << n_bits) - 1) as f64;
    let i_density = n_units * cell_noise_density(lsb_cell, temp_k);
    i_density * env.rl * env.rl + 4.0 * BOLTZMANN * temp_k * env.rl
}

/// Thermal-noise-limited SNR (dB) for a full-scale sine, integrating the
/// output noise over the first Nyquist band `f_s/2`.
pub fn thermal_snr_db(
    lsb_cell: &SizedCell,
    env: &CellEnvironment,
    n_bits: u32,
    fs: f64,
    temp_k: f64,
) -> f64 {
    assert!(fs > 0.0, "invalid sample rate {fs}");
    let noise_power = output_noise_density(lsb_cell, env, n_bits, temp_k) * fs / 2.0;
    let signal_power = (env.v_swing / 2.0).powi(2) / 2.0;
    10.0 * (signal_power / noise_power).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_process::Technology;

    fn lsb_cell() -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell = SizedCell::simple_from_overdrives(&tech, 4.88e-6, 0.5, 0.6, 400e-12, None);
        (cell, env)
    }

    #[test]
    fn channel_noise_magnitude() {
        // gm = 100 µS at 300 K: 4kT·(2/3)·1e-4 ≈ 1.1e-24 A²/Hz.
        let d = channel_noise_density(100e-6, 300.0);
        assert!((d - 1.104e-24).abs() / 1.104e-24 < 0.01, "d = {d}");
    }

    #[test]
    fn noise_scales_with_temperature_and_gm() {
        let base = channel_noise_density(1e-4, 300.0);
        assert!((channel_noise_density(2e-4, 300.0) / base - 2.0).abs() < 1e-12);
        assert!((channel_noise_density(1e-4, 600.0) / base - 2.0).abs() < 1e-12);
    }

    #[test]
    fn output_noise_includes_the_load() {
        let (cell, env) = lsb_cell();
        let with_cells = output_noise_density(&cell, &env, 12, 300.0);
        let load_only = 4.0 * BOLTZMANN * 300.0 * env.rl;
        assert!(with_cells > load_only);
    }

    #[test]
    fn thermal_snr_sits_above_quantisation_at_12_bits() {
        // At 12 bits the quantisation SNR is 74 dB; thermal noise over the
        // full 200 MHz Nyquist band lands in the low-to-mid 80s for this
        // class of DAC (consistent with published designs) — above
        // quantisation, but close enough that 14-bit parts become
        // thermal-limited.
        let (cell, env) = lsb_cell();
        let snr = thermal_snr_db(&cell, &env, 12, 400e6, 300.0);
        assert!(snr > 74.0, "thermal SNR {snr:.1} dB below quantisation");
        assert!(snr < 110.0, "implausibly quiet: {snr:.1} dB");
    }

    #[test]
    fn snr_falls_3db_per_doubled_bandwidth() {
        let (cell, env) = lsb_cell();
        let a = thermal_snr_db(&cell, &env, 12, 200e6, 300.0);
        let b = thermal_snr_db(&cell, &env, 12, 400e6, 300.0);
        assert!((a - b - 10.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid temperature")]
    fn zero_temperature_rejected() {
        let _ = channel_noise_density(1e-4, 0.0);
    }
}
