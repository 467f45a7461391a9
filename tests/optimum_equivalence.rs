//! Differential suite for the best-first simple-cell optimum search.
//!
//! `DesignSpace::optimize_constrained` (and `optimize_supervised`) no
//! longer scan the dense sweep: a closed-form pass scores every point, the
//! candidates of each row are visited best first, and only the winner is
//! DC-verified. The oracle is `select_best` over `sweep_grid()` — the
//! dense lanes sweep with every point DC-verified — and the search must
//! reproduce it bit for bit: every `DesignPoint` field (the winner's DC
//! operating point included), and the `ExploreError` variant and counts
//! on empty and failing spaces, at any job count and across a
//! kill-and-resume of its checkpoint journal.

use ctsdac::circuit::cell::CellEnvironment;
use ctsdac::core::explore::{
    select_best, DesignPoint, DesignSpace, ExploreError, Objective, SweepError,
};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::failpoint::Registry;
use ctsdac::process::Technology;
use ctsdac::runtime::{truncate_tail, ExecPolicy, JournalError, RuntimeError};
use std::path::PathBuf;

const GRIDS: [usize; 5] = [2, 10, 33, 64, 96];
const YIELDS: [f64; 4] = [0.9, 0.99, 0.997, 0.9999];
const OBJECTIVES: [Objective; 3] = [
    Objective::MinArea,
    Objective::MaxSpeed,
    Objective::MaxImpedance,
];
const CONDITIONS: [SaturationCondition; 3] = [
    SaturationCondition::Exact,
    SaturationCondition::FixedMargin(0.5),
    SaturationCondition::Statistical,
];
/// Unbounded, the 400 MS/s period, and a bound that admits nothing.
const SETTLING: [f64; 3] = [f64::INFINITY, 2.5e-9, 0.0];

fn spec_with(n_bits: u32, inl_yield: f64, env: CellEnvironment, tech: Technology) -> DacSpec {
    DacSpec::new(n_bits, 4, inl_yield, env, tech)
}

fn spec(n_bits: u32, inl_yield: f64) -> DacSpec {
    spec_with(
        n_bits,
        inl_yield,
        CellEnvironment::paper_12bit(),
        Technology::c035(),
    )
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn bits(p: &DesignPoint) -> [u64; 8] {
    [
        p.vov_cs.to_bits(),
        p.vov_sw.to_bits(),
        p.total_area.to_bits(),
        p.min_pole_hz.to_bits(),
        p.settling_s.to_bits(),
        p.rout.to_bits(),
        p.dc_i_out.to_bits(),
        u64::from(p.dc_saturated),
    ]
}

/// Asserts two optimum outcomes agree in every bit: the point's fields,
/// its feasibility and reason, or the error variant and counts.
fn assert_same(
    got: &Result<DesignPoint, ExploreError>,
    want: &Result<DesignPoint, ExploreError>,
    label: &str,
) {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(bits(a), bits(b), "{label}: {a:?} vs {b:?}");
            assert_eq!((a.feasible, a.reason), (b.feasible, b.reason), "{label}");
        }
        _ => assert_eq!(got, want, "{label}"),
    }
}

/// Every objective and settling bound of one space against the oracle.
fn check_space(space: &DesignSpace, label: &str) -> usize {
    let dense = space.sweep_grid();
    let mut compared = 0;
    for objective in OBJECTIVES {
        for max_settling in SETTLING {
            let want = select_best(dense.iter_points(), objective, max_settling);
            let got = space.optimize_constrained(objective, max_settling);
            assert_same(
                &got,
                &want,
                &format!("{label} {objective:?} max_settling={max_settling:e}"),
            );
            compared += 1;
        }
        assert_same(
            &space.optimize(objective),
            &space.optimize_constrained(objective, f64::INFINITY),
            &format!("{label} {objective:?} optimize"),
        );
    }
    compared
}

/// The sequential search over n_bits 8–14, yields 0.9–0.9999, every grid,
/// condition, objective and settling bound.
#[test]
fn optimum_is_bit_identical_to_select_best_over_the_dense_sweep() {
    let mut compared = 0;
    let mut feasible = 0;
    for n_bits in 8..=14 {
        for inl_yield in YIELDS {
            for condition in CONDITIONS {
                for grid in GRIDS {
                    let space =
                        DesignSpace::new(&spec(n_bits, inl_yield), condition).with_grid(grid);
                    let label = format!("{n_bits} bits y={inl_yield} {condition:?} grid {grid}");
                    compared += check_space(&space, &label);
                    feasible += usize::from(space.optimize(Objective::MinArea).is_ok());
                }
            }
        }
    }
    let spaces = 7 * YIELDS.len() * CONDITIONS.len() * GRIDS.len();
    assert_eq!(compared, spaces * OBJECTIVES.len() * SETTLING.len());
    assert!(
        feasible > spaces / 2,
        "too few feasible spaces: {feasible} of {spaces}"
    );
}

/// The supervised search at 1, 2 and 8 jobs returns the sequential
/// search's outcome bit for bit, winners and errors alike.
#[test]
fn supervised_optimum_matches_the_oracle_across_job_counts() {
    let cases = [
        (8, 0.9, 33),
        (10, 0.99, 2),
        (12, 0.997, 64),
        (13, 0.99, 96),
        (14, 0.9999, 10),
    ];
    for (n_bits, inl_yield, grid) in cases {
        for condition in CONDITIONS {
            let space = DesignSpace::new(&spec(n_bits, inl_yield), condition).with_grid(grid);
            let dense = space.sweep_grid();
            for objective in OBJECTIVES {
                for max_settling in SETTLING {
                    let want = select_best(dense.iter_points(), objective, max_settling);
                    for jobs in [1, 2, 8] {
                        let got = space
                            .optimize_supervised(
                                objective,
                                max_settling,
                                &ExecPolicy::with_jobs(jobs),
                            )
                            .map(|s| s.value)
                            .map_err(|e| match e {
                                SweepError::Explore(e) => e,
                                SweepError::Runtime(e) => panic!("runtime failure: {e}"),
                            });
                        let label = format!(
                            "{n_bits} bits {condition:?} grid {grid} {objective:?} \
                             max_settling={max_settling:e} jobs={jobs}"
                        );
                        assert_same(&got, &want, &label);
                    }
                }
            }
        }
    }
}

/// Empty and failing spaces report the dense scan's error, variant and
/// counts: a swing above V_out,min empties the axis, a sweep range above
/// the headroom admits nothing, and a technology without channel-length
/// modulation gives every candidate an infinite output impedance, which
/// the metric chain rejects as a numerical failure.
#[test]
fn empty_and_failing_spaces_report_the_oracle_error() {
    let mut swing = CellEnvironment::paper_12bit();
    swing.v_swing = 3.4;
    let mut ideal = Technology::c035();
    ideal.nmos.lambda_l = 0.0;
    ideal.pmos.lambda_l = 0.0;
    let cases = [
        (
            "swing 3.4 V",
            DesignSpace::new(
                &spec_with(12, 0.997, swing, Technology::c035()),
                SaturationCondition::Statistical,
            )
            .with_grid(10),
        ),
        (
            "range above the headroom",
            DesignSpace::new(&spec(12, 0.997), SaturationCondition::Exact)
                .with_grid(10)
                .with_range(2.0, 3.0),
        ),
        (
            "zero lambda",
            DesignSpace::new(
                &spec_with(10, 0.99, CellEnvironment::paper_12bit(), ideal),
                SaturationCondition::Statistical,
            )
            .with_grid(10),
        ),
    ];
    let mut saw_failure = false;
    for (label, space) in cases {
        let dense = space.sweep_grid();
        for objective in OBJECTIVES {
            for max_settling in SETTLING {
                let want = select_best(dense.iter_points(), objective, max_settling);
                assert!(want.is_err(), "{label}: the oracle found {want:?}");
                saw_failure |= matches!(want, Err(ExploreError::NumericalFailure { .. }));
                let got = space.optimize_constrained(objective, max_settling);
                assert_same(
                    &got,
                    &want,
                    &format!("{label} {objective:?} {max_settling:e}"),
                );
                for jobs in [1, 2, 8] {
                    let sup = space
                        .optimize_supervised(objective, max_settling, &ExecPolicy::with_jobs(jobs))
                        .map(|s| s.value);
                    assert_eq!(
                        sup,
                        want.map_err(SweepError::Explore),
                        "{label} jobs={jobs}"
                    );
                }
            }
        }
        if label == "swing 3.4 V" {
            assert!(
                space.axis().is_empty(),
                "the swing case must empty the axis"
            );
        }
    }
    assert!(saw_failure, "no case exercised the numerical-failure path");
}

/// The optimum journal binds its own kind plus the objective and the
/// settling bound: a dense-sweep journal of the same space is refused
/// with a typed mismatch instead of being decoded as row winners.
#[test]
fn dense_sweep_journal_is_refused_by_an_optimum_resume() {
    let space = DesignSpace::new(&spec(12, 0.997), SaturationCondition::Statistical).with_grid(16);
    let journal = tmp("optimum_equivalence_dense.jsonl");
    let _ = std::fs::remove_file(&journal);
    space
        .sweep_supervised(&ExecPolicy::with_jobs(2).checkpoint_at(&journal))
        .expect("dense sweep journaled");
    let resume = ExecPolicy::with_jobs(2).checkpoint_at(&journal).resuming();
    match space.optimize_supervised(Objective::MinArea, f64::INFINITY, &resume) {
        Err(SweepError::Runtime(RuntimeError::Journal(JournalError::MetaMismatch {
            expected,
            found,
            ..
        }))) => {
            assert!(expected.contains("\"optimum\""), "{expected}");
            assert!(expected.contains("objective=MinArea"), "{expected}");
            assert!(found.contains("\"sweep\""), "{found}");
        }
        other => panic!("expected a journal identity mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&journal);

    // A different settling bound is a different search, too.
    space
        .optimize_supervised(
            Objective::MinArea,
            f64::INFINITY,
            &ExecPolicy::with_jobs(2).checkpoint_at(&journal),
        )
        .expect("optimum journaled");
    let resumed = space.optimize_supervised(Objective::MinArea, 2.5e-9, &resume);
    assert!(
        matches!(
            resumed,
            Err(SweepError::Runtime(RuntimeError::Journal(
                JournalError::MetaMismatch { .. }
            )))
        ),
        "{resumed:?}"
    );
    let _ = std::fs::remove_file(&journal);
}

/// Kill-and-resume mid-search: the run dies when one row exhausts its
/// retries, the journal loses a torn tail, and a resume at 1, 2 or 8 jobs
/// returns the uninterrupted winner bit for bit.
#[test]
fn optimum_resumes_bit_identically_after_a_kill() {
    const GRID: usize = 16;
    let space =
        DesignSpace::new(&spec(12, 0.997), SaturationCondition::Statistical).with_grid(GRID);
    for objective in [Objective::MinArea, Objective::MaxSpeed] {
        let want = space.optimize_constrained(objective, 2.5e-9);
        assert!(want.is_ok(), "{objective:?}: {want:?}");
        for jobs in [1usize, 2, 8] {
            let journal = tmp(&format!(
                "optimum_equivalence_kill_{objective:?}_j{jobs}.jsonl"
            ));
            let _ = std::fs::remove_file(&journal);
            let mut policy = ExecPolicy::with_jobs(jobs).checkpoint_at(&journal);
            policy.pool.failpoints =
                Some(Registry::armed("panic@pool.chunk[11]", 0).expect("spec"));
            match space.optimize_supervised(objective, 2.5e-9, &policy) {
                Err(SweepError::Runtime(RuntimeError::ChunkFailed { chunk: 11, .. })) => {}
                other => panic!("jobs={jobs}: expected the run to die on row 11, got {other:?}"),
            }
            truncate_tail(&journal, 7).expect("tear the journal tail");

            let resumed = space
                .optimize_supervised(
                    objective,
                    2.5e-9,
                    &ExecPolicy::with_jobs(jobs)
                        .checkpoint_at(&journal)
                        .resuming(),
                )
                .expect("resumed search");
            assert!(resumed.restored > 0, "jobs={jobs}: resume restored nothing");
            assert!(
                resumed.computed > 0,
                "jobs={jobs}: the dead row must be recomputed"
            );
            assert_eq!(
                resumed.restored + resumed.computed,
                GRID as u64,
                "jobs={jobs}"
            );
            assert_same(
                &Ok(resumed.value),
                &want,
                &format!("{objective:?} resumed jobs={jobs}"),
            );
            let _ = std::fs::remove_file(&journal);
        }
    }
}

/// Injected faults (panics and a NaN-poisoned row) are retried and the
/// winner is unchanged; the progress gauge carries the best row-winner
/// score, which respects the settling bound.
#[test]
fn supervised_optimum_absorbs_faults_and_gauges_the_bounded_winner() {
    let space = DesignSpace::new(&spec(12, 0.997), SaturationCondition::Statistical).with_grid(20);
    let unbounded = space.optimize(Objective::MinArea).expect("feasible");
    let bounded = space
        .optimize_constrained(Objective::MinArea, 2.5e-9)
        .expect("a fast-enough point exists");
    assert!(
        bounded.total_area > unbounded.total_area,
        "the bound must move the optimum for this check to mean anything"
    );
    for jobs in [1, 2, 8] {
        let mut policy = ExecPolicy::with_jobs(jobs);
        policy.pool.failpoints =
            Some(Registry::armed("panic@pool.chunk[1]:1,nan@pool.chunk[3]:1", 0).expect("spec"));
        let sup = space
            .optimize_supervised(Objective::MinArea, 2.5e-9, &policy)
            .expect("faults are absorbed");
        assert_eq!(sup.faults.len(), 2, "jobs={jobs}: {:?}", sup.faults);
        assert_same(&Ok(sup.value), &Ok(bounded), &format!("faulty jobs={jobs}"));
        let gauge = policy.pool.gauge.get().expect("gauge published");
        assert_eq!(
            gauge.to_bits(),
            (-bounded.total_area).to_bits(),
            "jobs={jobs}"
        );
    }
}
