//! Lane-differential certification suite, end to end through the
//! umbrella crate: the SIMD-width SoA kernels behind the Monte-Carlo
//! yield engine and the production sweep must be **bit-identical** to
//! their scalar oracles — at lane widths 4 and 8, at every remainder lane
//! count `n % W ∈ 0..W`, sequentially and under the supervised pool at
//! `--jobs 1` vs `--jobs 8` — and every deterministic work counter must
//! be invariant in both the job count and the lane width. The sweep's
//! scalar oracle is `DesignSpace::evaluate` mapped over the grid (the
//! scalar cold kernel); the reference kernel corroborates it to solver
//! tolerance.

use ctsdac::core::explore::{DesignPoint, DesignSpace, SweepMode, SweepStats};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::yield_engine::{
    fused_yields_supervised, fused_yields_supervised_lanes, FusedYields, YieldEngine, YieldLimits,
    YieldMode,
};
use ctsdac::runtime::{ExecPolicy, McPlan};
use ctsdac::stats::sample::seeded_rng;

fn small_spec() -> DacSpec {
    let base = DacSpec::paper_12bit();
    DacSpec::new(8, 4, 0.997, base.env, base.tech)
}

/// 2x spec sigma puts a visible fraction of trials on the fail side, so
/// bitwise equality between classifiers is not a trivial all-pass.
fn engine(dac: &SegmentedDac) -> YieldEngine<'_> {
    let sigma = dac.spec().sigma_unit_spec() * 2.0;
    YieldEngine::new(dac, sigma, YieldLimits::half_lsb()).expect("engine")
}

// ---------------------------------------------------------------------------
// Monte-Carlo lanes vs scalar oracles
// ---------------------------------------------------------------------------

/// The core remainder sweep: at both certified widths, every trial count
/// residue `trials % W ∈ 0..W` (so the final masked partial group takes
/// every possible shape, including "no partial group") reproduces both
/// scalar modes bit for bit on the same seeded stream.
#[test]
fn lanes_match_both_scalar_modes_at_every_remainder() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let mut eng = engine(&dac);
    for offset in 0..8u64 {
        let trials = 240 + offset; // covers every residue mod 4 and mod 8
        for seed in [1u64, 2003] {
            let mut rng = seeded_rng(seed);
            let reference = eng
                .run(YieldMode::Reference, trials, &mut rng)
                .expect("reference run");
            let mut rng = seeded_rng(seed);
            let batched = eng
                .run(YieldMode::Batched, trials, &mut rng)
                .expect("batched run");
            let mut rng = seeded_rng(seed);
            let lanes4 = eng
                .run_lanes::<4, _>(trials, &mut rng)
                .expect("lanes<4> run");
            let mut rng = seeded_rng(seed);
            let lanes8 = eng
                .run_lanes::<8, _>(trials, &mut rng)
                .expect("lanes<8> run");
            assert_eq!(lanes4, reference, "lanes<4> vs reference, trials={trials} seed={seed}");
            assert_eq!(lanes8, reference, "lanes<8> vs reference, trials={trials} seed={seed}");
            assert_eq!(batched, reference, "batched vs reference, trials={trials} seed={seed}");
            assert!(
                reference.inl.estimate() < 1.0,
                "trials={trials} seed={seed}: expected some INL failures at 2x spec sigma"
            );
        }
    }
}

/// Per-trial differential surface: the lane classifier's flag sequence
/// equals the scalar one trial by trial, so any disagreement pinpoints
/// the exact trial (and lane) rather than washing out in pooled counts.
#[test]
fn per_trial_flags_match_scalar_modes_in_trial_order() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let trials = 101u64; // 101 % 4 == 1, 101 % 8 == 5: both widths end on a partial group
    for seed in [7u64, 0xDACD_ACDA] {
        let mut eng = engine(&dac);
        let mut rng = seeded_rng(seed);
        let lanes4 = eng.flags_lanes::<4, _>(trials, &mut rng);
        let mut rng = seeded_rng(seed);
        let lanes8 = eng.flags_lanes::<8, _>(trials, &mut rng);
        for mode in [YieldMode::Reference, YieldMode::Batched] {
            let mut rng = seeded_rng(seed);
            let scalar: Vec<[bool; 3]> =
                (0..trials).map(|_| eng.trial_flags(mode, &mut rng)).collect();
            assert_eq!(lanes4, scalar, "lanes<4> vs {mode:?}, seed={seed}");
            assert_eq!(lanes8, scalar, "lanes<8> vs {mode:?}, seed={seed}");
        }
    }
}

/// The deterministic work counters (trials evaluated, transfer-curve
/// codes scanned, screen fallbacks) are lane-width-invariant: a fresh
/// engine run at W=4, W=8 and in scalar batched mode reports identical
/// numbers for the same stream. `codes_scanned` is the regression tripwire
/// — a lane kernel that silently re-walks the curve shows up here even on
/// a noisy machine.
#[test]
fn work_counters_are_lane_width_invariant() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let trials = 501u64; // partial final group at both widths
    let seed = 2003u64;

    let counters = |run: &mut dyn FnMut(&mut YieldEngine<'_>)| -> (u64, u64, u64) {
        let mut eng = engine(&dac);
        run(&mut eng);
        (eng.trials_run(), eng.codes_scanned(), eng.fallbacks())
    };
    let scalar = counters(&mut |e| {
        let mut rng = seeded_rng(seed);
        e.run(YieldMode::Batched, trials, &mut rng).expect("batched");
    });
    let lanes4 = counters(&mut |e| {
        let mut rng = seeded_rng(seed);
        e.run_lanes::<4, _>(trials, &mut rng).expect("lanes<4>");
    });
    let lanes8 = counters(&mut |e| {
        let mut rng = seeded_rng(seed);
        e.run_lanes::<8, _>(trials, &mut rng).expect("lanes<8>");
    });
    assert_eq!(lanes4, scalar, "lanes<4> counters vs scalar batched");
    assert_eq!(lanes8, scalar, "lanes<8> counters vs scalar batched");
    assert_eq!(scalar.0, trials, "trials_run accounts every trial exactly once");
}

/// The acceptance criterion for the supervised pool: lane-classified
/// chunked runs agree bit for bit with the scalar supervised oracle in
/// both modes, at `--jobs 1` vs `--jobs 8`, at both widths — on a plan
/// whose chunks end in partial lane groups (500 % 8 == 4, and a 103-trial
/// tail chunk: 103 % 4 == 3, 103 % 8 == 7).
#[test]
fn supervised_lanes_match_scalar_supervised_across_jobs_and_widths() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_103, 500).expect("plan");

    let oracle: FusedYields =
        fused_yields_supervised(&dac, sigma, limits, YieldMode::Reference, &plan, &ExecPolicy::with_jobs(1))
            .expect("supervised reference")
            .value;
    for jobs in [1usize, 8] {
        let policy = ExecPolicy::with_jobs(jobs);
        let scalar =
            fused_yields_supervised(&dac, sigma, limits, YieldMode::Batched, &plan, &policy)
                .expect("supervised batched")
                .value;
        let lanes4 = fused_yields_supervised_lanes::<4>(&dac, sigma, limits, &plan, &policy)
            .expect("supervised lanes<4>")
            .value;
        let lanes8 = fused_yields_supervised_lanes::<8>(&dac, sigma, limits, &plan, &policy)
            .expect("supervised lanes<8>")
            .value;
        assert_eq!(scalar, oracle, "supervised batched vs reference, jobs={jobs}");
        assert_eq!(lanes4, oracle, "supervised lanes<4> vs reference, jobs={jobs}");
        assert_eq!(lanes8, oracle, "supervised lanes<8> vs reference, jobs={jobs}");
    }
    assert!(oracle.inl.estimate() < 1.0, "expected some INL failures at 2x spec sigma");
}

// ---------------------------------------------------------------------------
// Sweep lanes vs scalar oracles
// ---------------------------------------------------------------------------

fn space(mode: SweepMode, grid: usize) -> DesignSpace {
    let spec = DacSpec::paper_12bit();
    DesignSpace::new(&spec, SaturationCondition::Statistical)
        .with_grid(grid)
        .with_mode(mode)
}

/// The sweep's bitwise oracle: every lattice point through the scalar cold
/// kernel on its own, row-major.
fn scalar_sweep(s: &DesignSpace) -> Vec<DesignPoint> {
    let axis = s.axis();
    axis.iter()
        .flat_map(|&vov_cs| axis.iter().map(move |&vov_sw| s.evaluate(vov_cs, vov_sw)))
        .collect()
}

/// Asserts two sweeps agree in every bit of every field.
fn assert_bitwise_eq(a: &[DesignPoint], b: &[DesignPoint], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: point counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.vov_cs.to_bits(), y.vov_cs.to_bits(), "{label}: vov_cs at {i}");
        assert_eq!(x.vov_sw.to_bits(), y.vov_sw.to_bits(), "{label}: vov_sw at {i}");
        assert_eq!(x.feasible, y.feasible, "{label}: feasible at {i}");
        assert_eq!(x.reason, y.reason, "{label}: reason at {i}");
        assert_eq!(
            x.total_area.to_bits(),
            y.total_area.to_bits(),
            "{label}: total_area at {i}"
        );
        assert_eq!(
            x.min_pole_hz.to_bits(),
            y.min_pole_hz.to_bits(),
            "{label}: min_pole_hz at {i}"
        );
        assert_eq!(
            x.settling_s.to_bits(),
            y.settling_s.to_bits(),
            "{label}: settling_s at {i}"
        );
        assert_eq!(x.rout.to_bits(), y.rout.to_bits(), "{label}: rout at {i}");
        assert_eq!(
            x.dc_i_out.to_bits(),
            y.dc_i_out.to_bits(),
            "{label}: dc_i_out at {i}"
        );
        assert_eq!(x.dc_saturated, y.dc_saturated, "{label}: dc_saturated at {i}");
    }
}

/// The sweep remainder sweep: grids 9..=16 make the row width run
/// through every residue mod 8 (and every residue mod 4), so the masked
/// tail of every lane row takes each possible shape. At each grid, both
/// certified widths and the production entry reproduce the scalar cold
/// kernel — the sweep's bitwise oracle — bit for bit.
#[test]
fn lanes_sweep_is_bit_identical_to_the_scalar_kernel_at_every_row_remainder() {
    for grid in 9..=16usize {
        let lanes = space(SweepMode::Lanes, grid);
        let cold = scalar_sweep(&lanes);
        let (grid4, _) = lanes.sweep_with_stats_lane_width::<4>();
        let (grid8, _) = lanes.sweep_with_stats_lane_width::<8>();
        assert_bitwise_eq(
            &grid4.into_points(),
            &cold,
            &format!("lanes<4> vs cold, grid={grid}"),
        );
        assert_bitwise_eq(
            &grid8.into_points(),
            &cold,
            &format!("lanes<8> vs cold, grid={grid}"),
        );
        // The production entry (whatever LANE_W is) must match too.
        assert_bitwise_eq(
            &lanes.sweep(),
            &cold,
            &format!("lanes production vs cold, grid={grid}"),
        );
    }
}

/// The independent reference kernel (different Jacobian, no polish)
/// corroborates the lane sweep at its documented tolerance: identical
/// feasibility decisions and closed-form metrics, DC solution within
/// 1e-6 relative. This breaks the "everyone shares the same bug"
/// symmetry the bitwise chain alone cannot rule out.
#[test]
fn lanes_sweep_agrees_with_the_independent_reference_kernel() {
    let grid = 13usize;
    let reference = space(SweepMode::Reference, grid).sweep();
    let lanes = space(SweepMode::Lanes, grid).sweep();
    assert_eq!(lanes.len(), reference.len());
    for (a, b) in lanes.iter().zip(&reference) {
        assert_eq!(a.feasible, b.feasible, "at ({}, {})", a.vov_cs, a.vov_sw);
        assert_eq!(a.reason, b.reason, "at ({}, {})", a.vov_cs, a.vov_sw);
        assert_eq!(a.total_area.to_bits(), b.total_area.to_bits());
        assert_eq!(a.min_pole_hz.to_bits(), b.min_pole_hz.to_bits());
        if a.dc_i_out != 0.0 {
            assert!(
                ((a.dc_i_out - b.dc_i_out) / a.dc_i_out).abs() < 1e-6,
                "dc mismatch at ({}, {}): {} vs {}",
                a.vov_cs,
                a.vov_sw,
                a.dc_i_out,
                b.dc_i_out
            );
            assert_eq!(a.dc_saturated, b.dc_saturated);
        }
    }
}

/// The DC-solver effort counters are lane-width-invariant: the deferred
/// work list, its solve count and its total Newton iterations do not
/// depend on how the rows were grouped into lanes.
#[test]
fn sweep_stats_are_lane_width_invariant() {
    for grid in [13usize, 16] {
        let lanes = space(SweepMode::Lanes, grid);
        let (_, s4): (_, SweepStats) = lanes.sweep_with_stats_lane_width::<4>();
        let (_, s8): (_, SweepStats) = lanes.sweep_with_stats_lane_width::<8>();
        let (_, prod) = lanes.sweep_with_stats();
        assert_eq!(s4, s8, "grid={grid}: stats differ between W=4 and W=8");
        assert_eq!(s8, prod, "grid={grid}: production stats differ from explicit W=8");
        assert!(s8.dc_solves > 0, "grid={grid}: sweep did no DC work");
        assert_eq!(s8.dc_failures, 0, "grid={grid}: unexpected DC failures");
    }
}

/// Lanes rows under the supervised pool: one chunk per row, all sharing
/// one switch table, any job count, bit-identical to the sequential lanes
/// sweep and to the scalar kernel — at a grid whose rows end in a partial
/// lane group (13 % 8 == 5, 13 % 4 == 1).
#[test]
fn supervised_lanes_sweep_matches_sequential_across_jobs() {
    let grid = 13usize;
    let lanes = space(SweepMode::Lanes, grid);
    let cold = scalar_sweep(&lanes);
    assert_bitwise_eq(&lanes.sweep(), &cold, "sequential lanes vs cold");
    for jobs in [1usize, 2, 8] {
        let sup = lanes
            .sweep_supervised(&ExecPolicy::with_jobs(jobs))
            .expect("supervised lanes sweep");
        assert_bitwise_eq(&sup.value, &cold, &format!("lanes jobs={jobs} vs cold"));
    }
}
