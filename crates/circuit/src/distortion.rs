//! SFDR limits from finite output impedance (van den Bosch et al. \[8],
//! "SFDR-Bandwidth Limitations for High Speed High Resolution Current
//! Steering CMOS D/A Converters").
//!
//! With `k` unit sources on, the output sees a code-dependent conductance
//! `k/Z_u`, so the transfer characteristic bends:
//!
//! ```text
//! v(k) = I_u·k·(R_L ∥ Z_u/k) ≈ I_u·R_L·k·(1 − a·k + a²·k² − …),   a = R_L/|Z_u|
//! ```
//!
//! For a full-scale sine `k(θ) = (N/2)(1 + sin θ)`:
//!
//! * single-ended output: the `a·k²` term gives a 2nd harmonic with
//!   `HD2 = a·N/4` → `SFDR_SE = −20·log₁₀(a·N/4)`;
//! * differential output: even terms cancel, the `a²·k³` term gives
//!   `HD3 = (a·N)²/16` → `SFDR_diff = −40·log₁₀(a·N/4)`.
//!
//! Because `|Z_u(f)|` rolls off with the internal-node capacitance
//! ([`crate::impedance::rout_at_frequency`]), the SE curve falls at
//! −20 dB/dec and the differential one at −40 dB/dec — this is the
//! analysis behind the paper's topology choice ("the CS topology does not
//! provide enough output impedance for a 12-bit DAC", §3).

use crate::cell::{CellEnvironment, SizedCell};
use crate::impedance::rout_at_frequency;

/// Single-ended SFDR (dB) from the impedance ratio.
///
/// `n_units` is the number of LSB units at full scale (`2ⁿ`), `z_unit` the
/// magnitude of one LSB unit's output impedance.
///
/// # Panics
///
/// Panics if any argument is not strictly positive/finite.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::distortion::sfdr_single_ended_db;
///
/// // 12-bit, 50 Ω, 1 GΩ per LSB unit: 20·log10(4·1e9/(4096·50)) ≈ 85.8 dB.
/// let sfdr = sfdr_single_ended_db(4096, 50.0, 1e9);
/// assert!((sfdr - 85.8).abs() < 0.1);
/// ```
pub fn sfdr_single_ended_db(n_units: u64, rl: f64, z_unit: f64) -> f64 {
    assert!(n_units > 0, "need at least one unit");
    assert!(rl.is_finite() && rl > 0.0, "invalid load {rl}");
    assert!(
        z_unit.is_finite() && z_unit > 0.0,
        "invalid impedance {z_unit}"
    );
    let a = rl / z_unit;
    -20.0 * (a * n_units as f64 / 4.0).log10()
}

/// Differential SFDR (dB): even products cancel, the 3rd-order term is
/// quadratic in the impedance ratio (twice the dB of the single-ended
/// figure).
///
/// # Panics
///
/// As [`sfdr_single_ended_db`].
pub fn sfdr_differential_db(n_units: u64, rl: f64, z_unit: f64) -> f64 {
    2.0 * sfdr_single_ended_db(n_units, rl, z_unit)
}

/// One point of the SFDR-vs-frequency characteristic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfdrPoint {
    /// Signal frequency in Hz.
    pub f_hz: f64,
    /// Unit-impedance magnitude at this frequency, Ω.
    pub z_unit: f64,
    /// Single-ended SFDR, dB.
    pub sfdr_se_db: f64,
    /// Differential SFDR, dB.
    pub sfdr_diff_db: f64,
}

/// SFDR-bandwidth sweep for a sized cell of LSB `weight` in an `n_bits`
/// converter: evaluates the impedance at every frequency and maps it
/// through the harmonic expressions.
///
/// # Errors
///
/// Propagates [`crate::bias::BiasError`] when the cell has no bias point in
/// `env` (the impedance is undefined).
///
/// # Panics
///
/// Panics if `weight == 0`, `n_bits` is outside `1..=24`, or a frequency is
/// negative.
pub fn sfdr_vs_frequency(
    cell: &SizedCell,
    env: &CellEnvironment,
    weight: u64,
    n_bits: u32,
    freqs: &[f64],
) -> Result<Vec<SfdrPoint>, crate::bias::BiasError> {
    assert!(weight > 0, "invalid weight");
    assert!(
        (1..=24).contains(&n_bits),
        "unsupported resolution {n_bits}"
    );
    let n_units = 1u64 << n_bits;
    freqs
        .iter()
        .map(|&f| {
            // The cell carries `weight` LSB units; one unit's impedance is
            // `weight ×` the cell's.
            let z_unit = rout_at_frequency(cell, env, f)? * weight as f64;
            Ok(SfdrPoint {
                f_hz: f,
                z_unit,
                sfdr_se_db: sfdr_single_ended_db(n_units, env.rl, z_unit),
                sfdr_diff_db: sfdr_differential_db(n_units, env.rl, z_unit),
            })
        })
        .collect()
}

/// The highest frequency (by bisection on the impedance roll-off) at which
/// the differential SFDR still meets `sfdr_spec_db`. Returns `Ok(None)` if
/// even DC fails.
///
/// # Errors
///
/// Propagates [`crate::bias::BiasError`] when the cell has no bias point.
pub fn sfdr_bandwidth(
    cell: &SizedCell,
    env: &CellEnvironment,
    weight: u64,
    n_bits: u32,
    sfdr_spec_db: f64,
) -> Result<Option<f64>, crate::bias::BiasError> {
    let at = |f: f64| -> Result<f64, crate::bias::BiasError> {
        Ok(sfdr_vs_frequency(cell, env, weight, n_bits, &[f])?[0].sfdr_diff_db)
    };
    if at(0.0)? < sfdr_spec_db {
        return Ok(None);
    }
    let mut lo = 0.0;
    let mut hi = 1e6;
    while at(hi)? >= sfdr_spec_db {
        hi *= 2.0;
        if hi > 1e13 {
            return Ok(Some(hi)); // flat beyond any physical band
        }
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if at(mid)? >= sfdr_spec_db {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_process::Technology;

    fn cells() -> (SizedCell, SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let i_unary = 78.1e-6;
        let simple = SizedCell::simple_from_overdrives(&tech, i_unary, 0.5, 0.6, 6400e-12, None);
        let cascoded = SizedCell::cascoded_from_overdrives(
            &tech, i_unary, 0.5, 0.3, 0.6, 6400e-12, None, None,
        );
        (simple, cascoded, env)
    }

    #[test]
    fn differential_doubles_the_db() {
        let se = sfdr_single_ended_db(4096, 50.0, 1e9);
        let diff = sfdr_differential_db(4096, 50.0, 1e9);
        assert!((diff - 2.0 * se).abs() < 1e-12);
    }

    #[test]
    fn sfdr_improves_with_impedance() {
        assert!(sfdr_single_ended_db(4096, 50.0, 1e10) > sfdr_single_ended_db(4096, 50.0, 1e9));
        // 10× impedance buys exactly 20 dB single-ended.
        let d = sfdr_single_ended_db(4096, 50.0, 1e10) - sfdr_single_ended_db(4096, 50.0, 1e9);
        assert!((d - 20.0).abs() < 1e-9);
    }

    #[test]
    fn sfdr_falls_with_frequency() {
        let (simple, _, env) = cells();
        let pts =
            sfdr_vs_frequency(&simple, &env, 16, 12, &[0.0, 1e6, 10e6, 100e6]).expect("feasible");
        for w in pts.windows(2) {
            assert!(
                w[1].sfdr_diff_db <= w[0].sfdr_diff_db + 1e-9,
                "SFDR rose: {:?}",
                w
            );
        }
    }

    #[test]
    fn rolloff_slopes_match_theory() {
        // In the region where the impedance is capacitance-limited,
        // SE falls ~20 dB/dec and differential ~40 dB/dec.
        let (simple, _, env) = cells();
        let pts = sfdr_vs_frequency(&simple, &env, 16, 12, &[10e6, 100e6]).expect("feasible");
        let d_se = pts[0].sfdr_se_db - pts[1].sfdr_se_db;
        let d_diff = pts[0].sfdr_diff_db - pts[1].sfdr_diff_db;
        assert!((d_se - 20.0).abs() < 3.0, "SE slope {d_se} dB/dec");
        assert!((d_diff - 40.0).abs() < 6.0, "diff slope {d_diff} dB/dec");
    }

    #[test]
    fn cascode_extends_low_frequency_sfdr() {
        let (simple, cascoded, env) = cells();
        let s = sfdr_vs_frequency(&simple, &env, 16, 12, &[0.0]).expect("feasible")[0];
        let c = sfdr_vs_frequency(&cascoded, &env, 16, 12, &[0.0]).expect("feasible")[0];
        assert!(
            c.sfdr_diff_db > s.sfdr_diff_db + 20.0,
            "cascode {:.1} dB vs simple {:.1} dB",
            c.sfdr_diff_db,
            s.sfdr_diff_db
        );
    }

    #[test]
    fn bandwidth_search_brackets_the_spec() {
        let (_, cascoded, env) = cells();
        let bw = sfdr_bandwidth(&cascoded, &env, 16, 12, 70.0)
            .expect("feasible")
            .expect("meets 70 dB at DC");
        let just_inside =
            sfdr_vs_frequency(&cascoded, &env, 16, 12, &[bw * 0.99]).expect("feasible")[0];
        let just_outside =
            sfdr_vs_frequency(&cascoded, &env, 16, 12, &[bw * 1.01]).expect("feasible")[0];
        assert!(just_inside.sfdr_diff_db >= 70.0 - 0.1);
        assert!(just_outside.sfdr_diff_db <= 70.0 + 0.1);
    }

    #[test]
    fn hopeless_spec_returns_none() {
        let (simple, _, env) = cells();
        assert!(sfdr_bandwidth(&simple, &env, 16, 12, 200.0)
            .expect("feasible")
            .is_none());
    }

    #[test]
    #[should_panic(expected = "invalid impedance")]
    fn zero_impedance_rejected() {
        let _ = sfdr_single_ended_db(4096, 50.0, 0.0);
    }
}
