//! Randomized property tests for the behavioural DAC.
//!
//! Driven by the in-tree deterministic PRNG; enable with
//! `cargo test --features proptests`.
#![cfg(feature = "proptests")]

use ctsdac_circuit::cell::CellEnvironment;
use ctsdac_circuit::poles::TwoPoles;
use ctsdac_core::DacSpec;
use ctsdac_dac::architecture::SegmentedDac;
use ctsdac_dac::calibration::{calibrate, CalibrationConfig};
use ctsdac_dac::decoder::{flat_thermometer, row_column, thermometer_reference};
use ctsdac_dac::errors::CellErrors;
use ctsdac_dac::glitch::{glitch_energy, worst_carry_glitch};
use ctsdac_dac::jitter::{jitter_snr_measured_db, jitter_snr_theory_db};
use ctsdac_dac::sine::SineTest;
use ctsdac_dac::static_metrics::TransferFunction;
use ctsdac_dac::transient::TransientConfig;
use ctsdac_dac::yield_engine::{YieldEngine, YieldLimits, YieldMode};
use ctsdac_process::Technology;
use ctsdac_stats::rng::{seeded_rng, Rng};

const CASES: usize = 48;

fn arb_spec<R: Rng>(rng: &mut R) -> DacSpec {
    let n = rng.gen_range(4u32..13);
    let b = rng.gen_range(0u32..6);
    DacSpec::new(
        n,
        b.min(n),
        0.99,
        CellEnvironment::paper_12bit(),
        Technology::c035(),
    )
}

/// The ideal converter is exact at every code, for any segmentation.
#[test]
fn ideal_levels_equal_codes() {
    let mut rng = seeded_rng(0xDAC0_0001);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let dac = SegmentedDac::new(&spec);
        let step = (dac.max_code() / 37).max(1);
        let mut code = 0;
        while code <= dac.max_code() {
            assert_eq!(dac.ideal_level(code), code as f64);
            code += step;
        }
    }
}

/// Decoded switch states always sum (weighted) to the code.
#[test]
fn decode_weight_invariant() {
    let mut rng = seeded_rng(0xDAC0_0002);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let frac = rng.gen_range(0.0..1.0);
        let dac = SegmentedDac::new(&spec);
        let code = (frac * dac.max_code() as f64) as u64;
        let states = dac.decode(code);
        let sum: u64 = states
            .iter()
            .zip(dac.weights())
            .filter(|&(&on, _)| on)
            .map(|(_, &w)| w)
            .sum();
        assert_eq!(sum, code);
    }
}

/// The fast and reference transfer functions agree **bitwise** for any
/// spec, seed and error scale: both accumulate binary cells in index
/// order and unary cells in switching-rank order, so the segmented
/// shortcut is a re-use of partial sums, not a reassociation. The
/// yield engine's Reference oracle computes through `compute_fast`.
#[test]
fn fast_transfer_always_matches_bitwise() {
    let mut rng = seeded_rng(0xDAC0_0003);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let sigma = rng.gen_range(0.0..0.1);
        let dac = SegmentedDac::new(&spec);
        let mut draw = seeded_rng(seed);
        let errors = CellErrors::random(&dac, sigma, &mut draw);
        let slow = TransferFunction::compute(&dac, &errors);
        let fast = TransferFunction::compute_fast(&dac, &errors);
        assert_eq!(slow.levels().len(), fast.levels().len());
        for (code, (a, b)) in slow.levels().iter().zip(fast.levels()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "code {code}: slow {a:e} != fast {b:e} ({spec:?})"
            );
        }
    }
}

/// Endpoint-fit INL is zero at both ends and DNL sums telescope to the
/// endpoint line.
#[test]
fn inl_dnl_invariants() {
    let mut rng = seeded_rng(0xDAC0_0004);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let dac = SegmentedDac::new(&spec);
        let mut draw = seeded_rng(seed);
        let errors = CellErrors::random(&dac, 0.02, &mut draw);
        let tf = TransferFunction::compute_fast(&dac, &errors);
        let inl = tf.inl_endpoint();
        assert!(inl[0].abs() < 1e-9);
        assert!(inl.last().copied().expect("non-empty").abs() < 1e-9);
        // Σ DNL = (gain-corrected) span error ≈ relation to endpoints.
        let dnl_sum: f64 = tf.dnl().iter().sum();
        let span = tf.levels().last().expect("non-empty") - tf.levels()[0];
        assert!((dnl_sum - (span - (tf.levels().len() - 1) as f64)).abs() < 1e-9);
    }
}

/// Gate-level decoders match the arithmetic thermometer for random
/// widths and codes.
#[test]
fn decoders_match_reference() {
    let mut rng = seeded_rng(0xDAC0_0005);
    for _ in 0..CASES {
        let m = rng.gen_range(2u32..8);
        let code_frac = rng.gen_range(0.0..1.0);
        let code = (code_frac * ((1u64 << m) - 1) as f64) as u64;
        let bits: Vec<bool> = (0..m).map(|i| (code >> i) & 1 == 1).collect();
        let want = thermometer_reference(m, code);
        assert_eq!(flat_thermometer(m).eval(&bits), want.clone());
        let mc = m / 2;
        let mr = m - mc;
        assert_eq!(row_column(mc, mr).eval(&bits), want);
    }
}

/// Scaling all cell errors by a factor scales the INL by the same
/// factor (linearity of the error propagation).
#[test]
fn inl_scales_with_errors() {
    let mut rng = seeded_rng(0xDAC0_0006);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let seed = rng.gen_range(0u64..1000);
        let k = rng.gen_range(0.1..5.0);
        let dac = SegmentedDac::new(&spec);
        let mut draw = seeded_rng(seed);
        let base = CellErrors::random(&dac, 0.01, &mut draw);
        let scaled = CellErrors::from_rel(&dac, base.rel().iter().map(|e| e * k).collect());
        let a = TransferFunction::compute_fast(&dac, &base).inl_max_abs();
        let b = TransferFunction::compute_fast(&dac, &scaled).inl_max_abs();
        assert!((b - k * a).abs() < 1e-6 * (1.0 + b));
    }
}

/// Glitch energy is a squared-deviation integral: finite and non-negative
/// for any skew, feedthrough and carry transition, and (up to numeric
/// noise) zero when both glitch mechanisms are off.
#[test]
fn glitch_energy_is_non_negative() {
    let mut rng = seeded_rng(0xDAC0_0007);
    let poles = TwoPoles {
        p1_hz: 250e6,
        p2_hz: 800e6,
    };
    for _ in 0..24 {
        let n = rng.gen_range(6u32..11);
        let b = rng.gen_range(1u32..5).min(n - 1);
        let spec = DacSpec::new(
            n,
            b,
            0.99,
            CellEnvironment::paper_12bit(),
            Technology::c035(),
        );
        let dac = SegmentedDac::new(&spec);
        let errors = CellErrors::ideal(&dac);
        let skew = rng.gen_range(0.0..0.5e-9);
        let feed = rng.gen_range(0.0..0.5);
        let config = TransientConfig::from_poles(400e6, &poles)
            .with_oversample(32)
            .with_binary_skew(skew)
            .with_feedthrough(feed);
        // A carry transition: 2^b − 1 → 2^b.
        let to = 1u64 << b;
        let e = glitch_energy(&dac, &errors, config, to - 1, to, &mut rng);
        assert!(e.is_finite() && e >= 0.0, "energy = {e} (n={n}, b={b})");
        // With both mechanisms off the trajectory equals its own reference.
        let quiet = TransientConfig::from_poles(400e6, &poles).with_oversample(32);
        let e0 = glitch_energy(&dac, &errors, quiet, to - 1, to, &mut rng);
        assert!(e0 < 1e-18, "quiet energy = {e0}");
        // The worst-carry scan reports a code just below a carry.
        let (code, worst) = worst_carry_glitch(&dac, &errors, config, &mut rng);
        assert!(worst.is_finite() && worst >= 0.0);
        assert_eq!((code + 1) % (1u64 << b), 0, "code {code} not at a carry");
    }
}

/// Jitter-limited SNR is strictly monotone decreasing in the RMS jitter:
/// exactly in the closed form, and (with a wide enough gap to clear the
/// Monte-Carlo noise) in the measured behavioural experiment too.
#[test]
fn jitter_snr_is_monotone_in_sigma() {
    let mut rng = seeded_rng(0xDAC0_0008);
    for _ in 0..CASES {
        let f0 = rng.gen_range(1e6..500e6);
        let sigma = rng.gen_range(0.05e-12..20e-12);
        let k = rng.gen_range(1.5..20.0);
        let a = jitter_snr_theory_db(f0, sigma);
        let b = jitter_snr_theory_db(f0, k * sigma);
        // Closed form: SNR drops by exactly 20·log10(k) dB.
        assert!(
            (a - b - 20.0 * k.log10()).abs() < 1e-9,
            "theory slope broken: {a} vs {b} at k={k}"
        );
    }
    // Behavioural: an 8× jitter increase costs ~18 dB, far beyond the
    // few-dB MC noise of a 256-sample sine test.
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let poles = TwoPoles {
        p1_hz: 2e9,
        p2_hz: 6e9,
    };
    let base = TransientConfig::from_poles(300e6, &poles);
    let test = SineTest::new(256, 53e6, 0.98);
    for _ in 0..6 {
        let sigma = rng.gen_range(2e-12..10e-12);
        let seed = rng.gen_range(0u64..1 << 32);
        let mut r1 = seeded_rng(seed);
        let small = jitter_snr_measured_db(&dac, &test, base, sigma, &mut r1);
        let mut r2 = seeded_rng(seed);
        let large = jitter_snr_measured_db(&dac, &test, base, 8.0 * sigma, &mut r2);
        assert!(
            small > large + 6.0,
            "measured SNR not monotone: {small} dB at {sigma:e}, {large} dB at 8x"
        );
    }
}

/// With a noiseless measurement, calibration shrinks every cell error
/// (round-to-nearest within range, clamp outside), so the calibrated INL
/// never exceeds the raw INL when the raw errors dominate the trim step.
#[test]
fn calibration_never_worsens_inl() {
    let mut rng = seeded_rng(0xDAC0_0009);
    for _ in 0..CASES {
        let spec = arb_spec(&mut rng);
        let dac = SegmentedDac::new(&spec);
        let config = CalibrationConfig::new(8, 0.1, 0.0);
        // Errors ~50× the trim step: calibration has real work to do.
        let sigma = 50.0 * config.trim_step();
        let seed = rng.gen_range(0u64..1 << 32);
        let mut draw = seeded_rng(seed);
        let raw = CellErrors::random(&dac, sigma, &mut draw);
        let fixed = calibrate(&dac, &raw, &config, &mut rng);
        // Per-cell: round-to-nearest or clamp never grows the magnitude.
        for (r, f) in raw.rel().iter().zip(fixed.rel()) {
            assert!(
                f.abs() <= r.abs() + 1e-15,
                "cell error grew: {r:e} -> {f:e}"
            );
        }
        let inl_raw = TransferFunction::compute_fast(&dac, &raw).inl_max_abs();
        let inl_fix = TransferFunction::compute_fast(&dac, &fixed).inl_max_abs();
        assert!(
            inl_fix <= inl_raw + 1e-12,
            "INL worsened: {inl_raw} -> {inl_fix} ({spec:?})"
        );
    }
}

/// A yield engine at a randomized small spec, with sigma scaled so both
/// pass and fail decisions occur.
fn arb_engine<'a, R: Rng>(rng: &mut R, dac: &'a SegmentedDac) -> YieldEngine<'a> {
    let mult = rng.gen_range(1.0..4.0);
    let sigma = dac.spec().sigma_unit_spec() * mult;
    YieldEngine::new(dac, sigma, YieldLimits::half_lsb()).expect("engine")
}

/// The lane classifier's SoA transpose round-trips the scalar draw
/// stream bitwise: for any spec, seed, trial count and certified lane
/// width, the per-trial flag sequence equals the scalar reference chain,
/// and both paths leave the shared RNG at the identical position — so
/// the transpose neither alters, reorders, nor over-consumes a single
/// draw (masked lanes draw nothing).
#[test]
fn lane_draws_round_trip_the_soa_transpose_bitwise() {
    let mut rng = seeded_rng(0xDAC0_000A);
    for _ in 0..16 {
        let spec = arb_spec(&mut rng);
        let dac = SegmentedDac::new(&spec);
        let trials = rng.gen_range(1u64..40);
        let seed = rng.gen_range(0u64..1 << 32);

        let mut scalar = arb_engine(&mut rng, &dac);
        let mut lanes4 =
            YieldEngine::new(&dac, scalar.sigma_unit(), *scalar.limits()).expect("engine");
        let mut lanes8 =
            YieldEngine::new(&dac, scalar.sigma_unit(), *scalar.limits()).expect("engine");

        let mut rng_s = seeded_rng(seed);
        let reference: Vec<[bool; 3]> = (0..trials)
            .map(|_| scalar.trial_flags(YieldMode::Reference, &mut rng_s))
            .collect();
        let mut rng_4 = seeded_rng(seed);
        let flags4 = lanes4.flags_lanes::<4, _>(trials, &mut rng_4);
        let mut rng_8 = seeded_rng(seed);
        let flags8 = lanes8.flags_lanes::<8, _>(trials, &mut rng_8);

        assert_eq!(flags4, reference, "{trials} trials, seed {seed}, {spec:?}");
        assert_eq!(flags8, reference, "{trials} trials, seed {seed}, {spec:?}");
        // RNG position: the next raw output must agree across all paths.
        let probe = rng_s.next_u64();
        assert_eq!(
            rng_4.next_u64(),
            probe,
            "lanes<4> rng drift at {trials} trials"
        );
        assert_eq!(
            rng_8.next_u64(),
            probe,
            "lanes<8> rng drift at {trials} trials"
        );
    }
}

/// Masked lanes are inert: classifying `t` trials produces exactly the
/// first `t` entries of any longer run on the same stream — the final
/// partial group's inactive lanes neither consume RNG nor leak into the
/// active lanes' decisions, whatever the remainder `t % W`.
#[test]
fn masked_lanes_neither_consume_rng_nor_leak_into_active_lanes() {
    let mut rng = seeded_rng(0xDAC0_000B);
    for _ in 0..16 {
        let spec = arb_spec(&mut rng);
        let dac = SegmentedDac::new(&spec);
        let short = rng.gen_range(1u64..24);
        let long = short + rng.gen_range(1u64..24);
        let seed = rng.gen_range(0u64..1 << 32);
        let mut probe = arb_engine(&mut rng, &dac);
        let sigma = probe.sigma_unit();
        let limits = *probe.limits();
        let _ = &mut probe;

        let mut e_long = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng_l = seeded_rng(seed);
        let full = e_long.flags_lanes::<8, _>(long, &mut rng_l);
        let mut e_short = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng_s = seeded_rng(seed);
        let prefix = e_short.flags_lanes::<8, _>(short, &mut rng_s);
        assert_eq!(
            prefix,
            full[..short as usize],
            "prefix mismatch: {short} of {long} trials, seed {seed}"
        );
        // Work counters scale with served trials only, never with the
        // masked remainder of the final group.
        assert_eq!(e_short.trials_run(), short);
        assert_eq!(e_long.trials_run(), long);
    }
}

/// A limit placed exactly on a randomly chosen trial's exact metric sits
/// inside the screen's rounding band by construction: the lane kernel
/// must take the per-lane Reference fallback there, the same number of
/// times at every lane width, and every decision (including the grazing
/// trial's strict-`<` failure) must equal the Reference chain's.
#[test]
fn limit_grazing_trials_fall_back_identically_at_random_grazing_points() {
    let mut rng = seeded_rng(0xDAC0_000C);
    for _ in 0..16 {
        let spec = arb_spec(&mut rng);
        let dac = SegmentedDac::new(&spec);
        let trials = rng.gen_range(4u64..24);
        let grazed = rng.gen_range(0u64..trials);
        let seed = rng.gen_range(0u64..1 << 32);
        let mult = rng.gen_range(1.0..4.0);
        let sigma = dac.spec().sigma_unit_spec() * mult;

        // Probe the exact metrics of the trial we will graze.
        let mut probe = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
        let mut rng_p = seeded_rng(seed);
        let mut exact = probe.trial(YieldMode::Reference, &mut rng_p);
        for _ in 0..grazed {
            exact = probe.trial(YieldMode::Reference, &mut rng_p);
        }
        let graze_inl = rng.gen_range(0u64..2) == 0;
        let limits = if graze_inl {
            YieldLimits::new(exact.inl_max, 0.5 + exact.dnl_max)
        } else {
            YieldLimits::new(0.5 + exact.inl_max, exact.dnl_max)
        }
        .expect("limits");

        let mut reference = YieldEngine::new(&dac, sigma, limits).expect("engine");
        let mut rng_r = seeded_rng(seed);
        let exact_flags: Vec<[bool; 3]> = (0..trials)
            .map(|_| reference.trial_flags(YieldMode::Reference, &mut rng_r))
            .collect();

        let mut counters = Vec::new();
        for width_is_4 in [true, false] {
            let mut lanes = YieldEngine::new(&dac, sigma, limits).expect("engine");
            let mut rng_l = seeded_rng(seed);
            let flags = if width_is_4 {
                lanes.flags_lanes::<4, _>(trials, &mut rng_l)
            } else {
                lanes.flags_lanes::<8, _>(trials, &mut rng_l)
            };
            assert_eq!(
                flags, exact_flags,
                "grazed trial {grazed} of {trials}, seed {seed}"
            );
            // The INL screen is re-associated arithmetic, so its band
            // always covers the exact value and a grazing limit must trip
            // the fallback. The DNL screen's boundary-code term is
            // computed with the exact expressions: a boundary-dominated
            // DNL decides exactly at its own limit without needing the
            // fallback, so for DNL the invariant under test is only the
            // agreement with the Reference chain above.
            if graze_inl {
                assert!(
                    lanes.fallbacks() >= 1,
                    "grazing INL limit never tripped the screen"
                );
            }
            counters.push((lanes.trials_run(), lanes.codes_scanned(), lanes.fallbacks()));
        }
        assert_eq!(
            counters[0], counters[1],
            "counters diverged between W = 4 and 8"
        );
    }
}
