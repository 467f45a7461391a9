//! Randomized property tests for the current-cell circuit analysis.
//!
//! Driven by the in-tree deterministic PRNG; enable with
//! `cargo test --features proptests`.
#![cfg(feature = "proptests")]

use ctsdac_circuit::bias::{sw_gate_bounds_simple, OptimumBias};
use ctsdac_circuit::cell::{CellEnvironment, SizedCell};
use ctsdac_circuit::distortion::{sfdr_differential_db, sfdr_single_ended_db};
use ctsdac_circuit::impedance::{rout_at_frequency, rout_simple_at_gate};
use ctsdac_circuit::poles::{PoleModel, TwoPoles};
use ctsdac_circuit::settling::{
    settling_time_two_pole, settling_time_two_pole_bisect, two_pole_step_response,
};
use ctsdac_process::Technology;
use ctsdac_stats::rng::{seeded_rng, Rng};

const CASES: usize = 48;

fn feasible_cell<R: Rng>(rng: &mut R) -> (SizedCell, CellEnvironment) {
    let vov_cs = rng.gen_range(0.1..1.0);
    let vov_sw = rng.gen_range(0.1..1.0);
    let i = rng.gen_range(1e-6..1e-4);
    let tech = Technology::c035();
    let env = CellEnvironment::paper_12bit();
    // Keep inside eq. (4) by rescaling if needed.
    let budget = env.v_out_min() * 0.9;
    let sum = vov_cs + vov_sw;
    let (a, b) = if sum > budget {
        (vov_cs * budget / sum, vov_sw * budget / sum)
    } else {
        (vov_cs, vov_sw)
    };
    (
        SizedCell::simple_from_overdrives(&tech, i, a, b, 400e-12, None),
        env,
    )
}

/// The gate bounds always contain the optimum bias, and their spacing
/// equals the eq. (4) slack.
#[test]
fn bounds_contain_optimum() {
    let mut rng = seeded_rng(0xC1A0_0001);
    for _ in 0..CASES {
        let (cell, env) = feasible_cell(&mut rng);
        let b = sw_gate_bounds_simple(&cell, &env).expect("feasible");
        assert!(b.is_feasible());
        let opt = OptimumBias::of(&cell, &env).expect("feasible");
        assert!(b.contains(opt.v_gate_sw));
        let slack = env.v_out_min() - cell.overdrive_sum();
        assert!((b.spacing() - slack).abs() < 1e-9);
    }
}

/// The output impedance at the midpoint bias beats both bound edges.
#[test]
fn midpoint_impedance_beats_edges() {
    let mut rng = seeded_rng(0xC1A0_0002);
    for _ in 0..CASES {
        let (cell, env) = feasible_cell(&mut rng);
        let b = sw_gate_bounds_simple(&cell, &env).expect("feasible");
        let mid = rout_simple_at_gate(&cell, &env, b.midpoint()).expect("solves");
        let lo = rout_simple_at_gate(&cell, &env, b.lower).expect("solves");
        let hi = rout_simple_at_gate(&cell, &env, b.upper).expect("solves");
        assert!(mid >= lo && mid >= hi);
    }
}

/// Output impedance never rises with frequency.
#[test]
fn impedance_rolls_off() {
    let mut rng = seeded_rng(0xC1A0_0003);
    for _ in 0..CASES {
        let (cell, env) = feasible_cell(&mut rng);
        let f1 = rng.gen_range(1e4..1e8);
        let f2 = rng.gen_range(1e4..1e8);
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        let z_lo = rout_at_frequency(&cell, &env, lo).expect("solves");
        let z_hi = rout_at_frequency(&cell, &env, hi).expect("solves");
        assert!(z_hi <= z_lo * (1.0 + 1e-9));
    }
}

/// Pole frequencies are positive and finite for any feasible cell, and
/// the output pole never exceeds the bare RC of the load.
#[test]
fn poles_are_physical() {
    let mut rng = seeded_rng(0xC1A0_0004);
    for _ in 0..CASES {
        let (cell, env) = feasible_cell(&mut rng);
        let n_cells = rng.gen_range(1usize..4096);
        let poles = PoleModel::new(n_cells).poles(&cell, &env).expect("solves");
        assert!(poles.p1_hz.is_finite() && poles.p1_hz > 0.0);
        assert!(poles.p2_hz.is_finite() && poles.p2_hz > 0.0);
        let rc_only = 1.0 / (2.0 * std::f64::consts::PI * env.rl * env.c_load);
        assert!(poles.p1_hz <= rc_only);
    }
}

/// The two-pole step response is bounded, monotone, and settles.
#[test]
fn step_response_sane() {
    let mut rng = seeded_rng(0xC1A0_0005);
    for _ in 0..CASES {
        let tau1 = rng.gen_range(1e-11..1e-8);
        let tau2 = rng.gen_range(1e-11..1e-8);
        let mut prev = 0.0;
        for i in 1..=60 {
            let t = i as f64 * (tau1.max(tau2)) / 4.0;
            let y = two_pole_step_response(t, tau1, tau2);
            assert!((0.0..=1.0 + 1e-12).contains(&y));
            assert!(y >= prev - 1e-12);
            prev = y;
        }
        assert!(two_pole_step_response(30.0 * (tau1 + tau2), tau1, tau2) > 0.999);
    }
}

/// The two-pole settling time is bracketed by the dominant single pole
/// and the sum of both time constants.
#[test]
fn settling_time_brackets() {
    let mut rng = seeded_rng(0xC1A0_0006);
    for _ in 0..CASES {
        let p1 = rng.gen_range(1e7..1e10);
        let p2 = rng.gen_range(1e7..1e10);
        let n = rng.gen_range(6u32..16);
        let poles = TwoPoles {
            p1_hz: p1,
            p2_hz: p2,
        };
        let t = settling_time_two_pole(&poles, n);
        let (t1, t2) = poles.taus();
        let eps = 0.5 / (1u64 << n) as f64;
        let lower = poles.dominant_tau() * (1.0 / eps).ln();
        let upper = (t1 + t2) * (1.0 / eps).ln() + (t1 + t2);
        assert!(t >= lower - 1e-15, "t = {t}, lower = {lower}");
        assert!(t <= upper, "t = {t}, upper = {upper}");
    }
}

/// The Newton settling solve agrees with the bisection reference it
/// replaced across random pole pairs and resolutions, to the cancellation
/// noise of the shared residual `1 − y(t) − ε` (~ulp(1)/ε, amplified by
/// the (τ₁ − τ₂) denominator for nearly-confluent poles), which is all
/// either root finder can resolve.
#[test]
fn settling_newton_matches_bisection() {
    let mut rng = seeded_rng(0xC1A0_000B);
    for _ in 0..CASES {
        let p1 = rng.gen_range(1e5..1e10);
        // Half the cases stress nearly-confluent poles.
        let p2 = if rng.gen_range(0u32..2) == 0 {
            p1 * rng.gen_range(0.999..1.001)
        } else {
            rng.gen_range(1e5..1e10)
        };
        let n = rng.gen_range(1u32..25);
        let eps = 0.5 / (1u64 << n) as f64;
        let poles = TwoPoles {
            p1_hz: p1,
            p2_hz: p2,
        };
        let fast = settling_time_two_pole(&poles, n);
        let slow = settling_time_two_pole_bisect(&poles, n);
        let (t1, t2) = poles.taus();
        let spread = ((t1 - t2) / t1.max(t2)).abs().max(1e-9);
        let tol = slow * (1e-12 + 1e-15 / eps + 1e-15 / spread);
        assert!(
            (fast - slow).abs() <= tol,
            "poles ({p1:.3e}, {p2:.3e}) at {n} bits: newton {fast} vs bisect {slow}"
        );
    }
}

/// Impedance-limited SFDR: differential is exactly twice the dB of
/// single-ended, and both improve monotonically with impedance.
#[test]
fn sfdr_relations() {
    let mut rng = seeded_rng(0xC1A0_0007);
    for _ in 0..CASES {
        let n_exp = rng.gen_range(6u32..16);
        let rl = rng.gen_range(10.0..200.0);
        let z = rng.gen_range(1e5..1e12);
        let n = 1u64 << n_exp;
        let se = sfdr_single_ended_db(n, rl, z);
        let diff = sfdr_differential_db(n, rl, z);
        assert!((diff - 2.0 * se).abs() < 1e-9);
        let better = sfdr_single_ended_db(n, rl, z * 10.0);
        assert!((better - se - 20.0).abs() < 1e-9);
    }
}
