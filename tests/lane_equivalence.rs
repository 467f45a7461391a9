//! Lane-differential certification suite, end to end through the
//! umbrella crate: the SIMD-width SoA kernels behind the Monte-Carlo
//! yield engine and the production sweep must be **bit-identical** to
//! their scalar oracles — at lane widths 4 and 8, at every remainder lane
//! count `n % W ∈ 0..W`, sequentially and under the supervised pool at
//! `--jobs` 1, 2 and 8, under injected faults and across resume — and
//! every deterministic work counter must be invariant in both the job
//! count and the lane width. The yield engine's oracle is
//! `YieldMode::Reference` (`CellErrors` → `TransferFunction`); the
//! sweep's scalar oracle is `DesignSpace::evaluate` mapped over the grid
//! (the scalar cold kernel), and the reference kernel corroborates it to
//! solver tolerance.

use ctsdac::core::explore::{DesignPoint, DesignSpace, SweepMode, SweepStats};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::yield_engine::{
    fused_yields_supervised_lanes, FusedYields, YieldEngine, YieldLimits, YieldMode,
};
use ctsdac::failpoint::Registry;
use ctsdac::runtime::{
    truncate_tail, yield_vector_supervised_chunked, ExecPolicy, McPlan, Supervised,
};
use ctsdac::stats::sample::seeded_rng;
use std::path::PathBuf;

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
// Monte-Carlo lanes vs the Reference oracle
// ---------------------------------------------------------------------------

/// The core remainder sweep: at both certified widths, every trial count
/// residue `trials % W ∈ 0..W` (so the final masked partial group takes
/// every possible shape, including "no partial group") reproduces both
/// scalar paths — the `W = 1` classifier and the Reference chain — bit
/// for bit on the same seeded stream.
#[test]
fn lanes_match_both_scalar_modes_at_every_remainder() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let mut eng = engine(&dac);
    for offset in 0..8u64 {
        let trials = 240 + offset; // covers every residue mod 4 and mod 8
        for seed in [1u64, 2003] {
            let reference = eng
                .run(YieldMode::Reference, trials, &mut seeded_rng(seed))
                .expect("reference run");
            let lanes1 = eng
                .run_lanes::<1, _>(trials, &mut seeded_rng(seed))
                .expect("lanes<1> run");
            let lanes4 = eng
                .run_lanes::<4, _>(trials, &mut seeded_rng(seed))
                .expect("lanes<4> run");
            let lanes8 = eng
                .run_lanes::<8, _>(trials, &mut seeded_rng(seed))
                .expect("lanes<8> run");
            assert_eq!(
                lanes1, reference,
                "lanes<1> vs reference, trials={trials} seed={seed}"
            );
            assert_eq!(
                lanes4, reference,
                "lanes<4> vs reference, trials={trials} seed={seed}"
            );
            assert_eq!(
                lanes8, reference,
                "lanes<8> vs reference, trials={trials} seed={seed}"
            );
            assert!(
                reference.inl.estimate() < 1.0,
                "trials={trials} seed={seed}: expected some INL failures at 2x spec sigma"
            );
        }
    }
}

/// Per-trial differential surface: the lane classifier's flag sequence
/// equals both scalar paths (the Reference chain and the `W = 1`
/// classifier) trial by trial, so any disagreement pinpoints the exact
/// trial (and lane) rather than washing out in pooled counts.
#[test]
fn per_trial_flags_match_scalar_modes_in_trial_order() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let trials = 101u64; // 101 % 4 == 1, 101 % 8 == 5: both widths end on a partial group
    for seed in [7u64, 0xDACD_ACDA] {
        let mut eng = engine(&dac);
        let lanes4 = eng.flags_lanes::<4, _>(trials, &mut seeded_rng(seed));
        let lanes8 = eng.flags_lanes::<8, _>(trials, &mut seeded_rng(seed));
        let lanes1 = eng.flags_lanes::<1, _>(trials, &mut seeded_rng(seed));
        let mut rng = seeded_rng(seed);
        let reference: Vec<[bool; 3]> = (0..trials)
            .map(|_| eng.trial_flags(YieldMode::Reference, &mut rng))
            .collect();
        for (label, scalar) in [("reference", &reference), ("lanes<1>", &lanes1)] {
            assert_eq!(lanes4, *scalar, "lanes<4> vs {label}, seed={seed}");
            assert_eq!(lanes8, *scalar, "lanes<8> vs {label}, seed={seed}");
        }
    }
}

/// The deterministic work counters (trials evaluated, transfer-curve
/// codes scanned, screen fallbacks) are lane-width-invariant: a fresh
/// engine run at W=1, W=4 and W=8 reports identical numbers for the same
/// stream, and the code count is one block scan per trial plus one full
/// curve per Reference fallback. `codes_scanned` is the regression
/// tripwire — a lane kernel that silently re-walks the curve shows up
/// here even on a noisy machine.
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
        e.run_lanes::<1, _>(trials, &mut seeded_rng(seed))
            .expect("lanes<1>");
    });
    let lanes4 = counters(&mut |e| {
        e.run_lanes::<4, _>(trials, &mut seeded_rng(seed))
            .expect("lanes<4>");
    });
    let lanes8 = counters(&mut |e| {
        e.run_lanes::<8, _>(trials, &mut seeded_rng(seed))
            .expect("lanes<8>");
    });
    assert_eq!(lanes4, scalar, "lanes<4> counters vs lanes<1>");
    assert_eq!(lanes8, scalar, "lanes<8> counters vs lanes<1>");
    assert_eq!(
        scalar.0, trials,
        "trials_run accounts every trial exactly once"
    );
    let scan = (1u64 << spec.binary_bits) + dac.n_unary() as u64 + 1;
    assert_eq!(scalar.1, trials * scan + scalar.2 * (dac.max_code() + 1));
}

/// The supervised scalar oracle: `YieldMode::Reference`, one trial at a
/// time, through the same chunked driver, journal family and parameter
/// digest as `fused_yields_supervised_lanes`, so the two kernels can
/// resume from each other's journals.
fn reference_supervised(
    dac: &SegmentedDac,
    sigma: f64,
    limits: YieldLimits,
    plan: &McPlan,
    policy: &ExecPolicy,
) -> Supervised<FusedYields> {
    let spec = dac.spec();
    let params = format!(
        "fused;sigma={sigma};inl={};dnl={};bits={};bin={};cells={}",
        limits.inl,
        limits.dnl,
        spec.n_bits,
        spec.binary_bits,
        dac.n_cells(),
    );
    yield_vector_supervised_chunked(
        policy,
        plan,
        &params,
        3,
        || YieldEngine::new(dac, sigma, limits).expect("engine"),
        |engine, rng, _start, len, passes| {
            for _ in 0..len {
                let flags = engine.trial_flags(YieldMode::Reference, rng);
                for (count, &flag) in passes.iter_mut().zip(&flags) {
                    *count += u64::from(flag);
                }
            }
        },
    )
    .expect("supervised reference")
    .map(|v| FusedYields {
        inl: v[0],
        dnl: v[1],
        monotonicity: v[2],
    })
}

/// The acceptance criterion for the supervised pool: lane-classified
/// chunked runs agree bit for bit with the supervised Reference oracle,
/// at `--jobs` 1, 2 and 8, at both widths — on a plan whose chunks end in
/// partial lane groups (500 % 8 == 4, and a 103-trial tail chunk:
/// 103 % 4 == 3, 103 % 8 == 7).
#[test]
fn supervised_lanes_match_scalar_supervised_across_jobs_and_widths() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_103, 500).expect("plan");

    let oracle = reference_supervised(&dac, sigma, limits, &plan, &ExecPolicy::with_jobs(1)).value;
    for jobs in [1usize, 2, 8] {
        let policy = ExecPolicy::with_jobs(jobs);
        let scalar = reference_supervised(&dac, sigma, limits, &plan, &policy).value;
        let lanes4 = fused_yields_supervised_lanes::<4>(&dac, sigma, limits, &plan, &policy)
            .expect("supervised lanes<4>")
            .value;
        let lanes8 = fused_yields_supervised_lanes::<8>(&dac, sigma, limits, &plan, &policy)
            .expect("supervised lanes<8>")
            .value;
        assert_eq!(scalar, oracle, "supervised reference, jobs={jobs} vs 1");
        assert_eq!(
            lanes4, oracle,
            "supervised lanes<4> vs reference, jobs={jobs}"
        );
        assert_eq!(
            lanes8, oracle,
            "supervised lanes<8> vs reference, jobs={jobs}"
        );
    }
    assert!(
        oracle.inl.estimate() < 1.0,
        "expected some INL failures at 2x spec sigma"
    );
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Kill + resume across kernels: a journal written by one kernel and
/// torn at the tail resumes under another — Reference into lanes<8>,
/// lanes<4> into Reference, lanes<8> into lanes<4> — restoring its
/// surviving chunks and reproducing the clean result bit for bit.
#[test]
fn lane_and_reference_journals_resume_each_other() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_103, 500).expect("plan");
    let clean = reference_supervised(&dac, sigma, limits, &plan, &ExecPolicy::sequential()).value;

    type Kernel<'a> = &'a dyn Fn(&ExecPolicy) -> Supervised<FusedYields>;
    let reference = |p: &ExecPolicy| reference_supervised(&dac, sigma, limits, &plan, p);
    let lanes4 = |p: &ExecPolicy| {
        fused_yields_supervised_lanes::<4>(&dac, sigma, limits, &plan, p).expect("lanes<4>")
    };
    let lanes8 = |p: &ExecPolicy| {
        fused_yields_supervised_lanes::<8>(&dac, sigma, limits, &plan, p).expect("lanes<8>")
    };
    let pairs: [(&str, Kernel<'_>, Kernel<'_>); 3] = [
        ("reference->lanes8", &reference, &lanes8),
        ("lanes4->reference", &lanes4, &reference),
        ("lanes8->lanes4", &lanes8, &lanes4),
    ];
    for (label, writer, resumer) in pairs {
        let journal = tmp(&format!("lane_resume_{label}.jsonl"));
        let _ = std::fs::remove_file(&journal);
        writer(&ExecPolicy::with_jobs(2).checkpoint_at(&journal));
        truncate_tail(&journal, 9).expect("truncate journal");
        let resumed = resumer(&ExecPolicy::with_jobs(8).checkpoint_at(&journal).resuming());
        assert_eq!(resumed.value, clean, "{label}: resumed yields diverged");
        assert!(
            resumed.restored > 0,
            "{label}: no chunk restored from the journal"
        );
        assert!(
            resumed.computed > 0,
            "{label}: the torn chunk was not recomputed"
        );
        let _ = std::fs::remove_file(&journal);
    }
}

/// Fault drill: panics, a NaN-corrupted chunk and a deadline overrun,
/// keyed to fixed (chunk, attempt) pairs, are absorbed by retry at both
/// widths and every job count, with the clean result unchanged.
#[test]
fn supervised_lanes_absorb_injected_faults_bit_identically() {
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_103, 500).expect("plan");
    let clean = reference_supervised(&dac, sigma, limits, &plan, &ExecPolicy::sequential()).value;
    let spec_str = "panic@pool.chunk[0]:1,nan@pool.chunk[3]:1,delay=400@pool.chunk[5]:1,\
                    panic@pool.chunk[8]:1";
    for jobs in [1usize, 2, 8] {
        for width_is_4 in [true, false] {
            let fp = Registry::armed(spec_str, 0).expect("failpoint spec");
            let mut policy = ExecPolicy::with_jobs(jobs);
            policy.pool.deadline = Some(std::time::Duration::from_millis(200));
            policy.pool.failpoints = Some(fp.clone());
            let out = if width_is_4 {
                fused_yields_supervised_lanes::<4>(&dac, sigma, limits, &plan, &policy)
            } else {
                fused_yields_supervised_lanes::<8>(&dac, sigma, limits, &plan, &policy)
            }
            .expect("faulty run");
            assert_eq!(out.value, clean, "jobs={jobs} W4={width_is_4}");
            assert_eq!(
                out.faults.len(),
                4,
                "jobs={jobs} W4={width_is_4}: {:?}",
                out.faults
            );
        }
    }
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
        assert_eq!(
            x.vov_cs.to_bits(),
            y.vov_cs.to_bits(),
            "{label}: vov_cs at {i}"
        );
        assert_eq!(
            x.vov_sw.to_bits(),
            y.vov_sw.to_bits(),
            "{label}: vov_sw at {i}"
        );
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
        assert_eq!(
            x.dc_saturated, y.dc_saturated,
            "{label}: dc_saturated at {i}"
        );
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
        assert_eq!(
            s8, prod,
            "grid={grid}: production stats differ from explicit W=8"
        );
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
