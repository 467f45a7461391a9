//! Acceptance tests for the production sweep: the lanes sweep (the
//! `DesignSpace` default) must be bit-identical to the scalar cold kernel
//! (`DesignSpace::evaluate` mapped over the grid) — sequentially, on the
//! supervised pool with its shared switch table at any job count, with
//! injected faults in flight and across a kill-and-resume — and a journal
//! of the reference kernel must never splice into a production run. The
//! optimum search is held to the dense sweep by `optimum_equivalence.rs`.

use ctsdac::core::explore::{DesignPoint, DesignSpace, SweepError, SweepMode};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::failpoint::Registry;
use ctsdac::runtime::{truncate_tail, ExecPolicy, JournalError, RuntimeError};
use std::path::PathBuf;
use std::time::Duration;

const GRID: usize = 16;

fn space() -> DesignSpace {
    let spec = DacSpec::paper_12bit();
    DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(GRID)
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The scalar oracle: every lattice point evaluated on its own, row-major.
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

/// The lanes sweep reproduces the scalar kernel bit for bit, sequentially
/// and on the pool at 1, 2 and 8 jobs.
#[test]
fn lanes_sweep_is_bit_identical_to_the_scalar_kernel_across_job_counts() {
    let lanes = space();
    assert_eq!(lanes.mode(), SweepMode::Lanes, "production default");
    let scalar = scalar_sweep(&lanes);
    assert!(scalar.iter().any(|p| p.feasible && p.dc_i_out > 0.0));

    assert_bitwise_eq(&lanes.sweep(), &scalar, "sequential lanes vs scalar");
    for jobs in [1usize, 2, 8] {
        let sup = lanes
            .sweep_supervised(&ExecPolicy::with_jobs(jobs))
            .expect("supervised lanes sweep");
        assert_bitwise_eq(&sup.value, &scalar, &format!("lanes jobs={jobs} vs scalar"));
    }
}

/// Fault injection (worker panics, a NaN-corrupted row, a stalled chunk
/// past its deadline) triggers retries; retried rows rerun against the
/// same shared switch table and must reproduce the sequential sweep.
#[test]
fn supervised_sweep_survives_injected_faults_bit_identically() {
    let lanes = space();
    let sequential = lanes.sweep();
    for jobs in [1usize, 2, 8] {
        let fp = Registry::armed(
            &format!(
                "panic@pool.chunk[1]:1,nan@pool.chunk[3]:1,panic@pool.chunk[6]:1,\
                 nan@pool.chunk[{}]:1,delay=150@pool.chunk[4]:1",
                GRID - 1
            ),
            0,
        )
        .expect("spec");
        let mut policy = ExecPolicy::with_jobs(jobs);
        policy.pool.deadline = Some(Duration::from_millis(50));
        policy.pool.failpoints = Some(fp.clone());

        let faulty = lanes.sweep_supervised(&policy).expect("faulty lanes sweep");
        let fired = fp.fired("pool.chunk");
        assert!(fired >= 5, "jobs={jobs}: only {fired} faults fired");
        assert!(
            faulty.faults.len() >= 5,
            "jobs={jobs}: faults not surfaced: {:?}",
            faulty.faults
        );
        assert_eq!(
            faulty.computed, GRID as u64,
            "jobs={jobs}: every row computed exactly once"
        );
        let label = format!("faulty jobs={jobs} vs sequential");
        assert_bitwise_eq(&faulty.value, &sequential, &label);
    }
}

/// Kill-and-resume: a checkpointed run dies when one row exhausts its
/// retries, its journal loses a torn tail, and a clean resume at 1, 2 or
/// 8 jobs splices the surviving rows with the recomputed ones into the
/// sequential sweep's bits.
#[test]
fn supervised_sweep_resumes_bit_identically_after_a_kill() {
    let lanes = space();
    let sequential = lanes.sweep();
    for jobs in [1usize, 2, 8] {
        let journal = tmp(&format!("sweep_equivalence_kill_j{jobs}.jsonl"));
        let _ = std::fs::remove_file(&journal);

        let mut policy = ExecPolicy::with_jobs(jobs).checkpoint_at(&journal);
        policy.pool.failpoints = Some(Registry::armed("panic@pool.chunk[11]", 0).expect("spec"));
        match lanes.sweep_supervised(&policy) {
            Err(SweepError::Runtime(RuntimeError::ChunkFailed { chunk: 11, .. })) => {}
            other => panic!("jobs={jobs}: expected the run to die on row 11, got {other:?}"),
        }
        truncate_tail(&journal, 13).expect("tear the journal tail");

        let resumed = lanes
            .sweep_supervised(
                &ExecPolicy::with_jobs(jobs)
                    .checkpoint_at(&journal)
                    .resuming(),
            )
            .expect("resumed lanes sweep");
        assert!(resumed.restored > 0, "jobs={jobs}: resume restored nothing");
        assert!(
            resumed.computed > 0,
            "jobs={jobs}: the dead row must be recomputed"
        );
        assert_eq!(
            resumed.restored + resumed.computed,
            GRID as u64,
            "jobs={jobs}: rows lost or double-counted across resume"
        );
        assert_bitwise_eq(&resumed.value, &sequential, &format!("resumed jobs={jobs}"));
        let _ = std::fs::remove_file(&journal);
    }
}

/// The reference kernel differs from the lanes kernel in the last bits, so
/// the journal identity includes the mode: a production resume refuses a
/// reference journal with a typed mismatch instead of splicing its rows.
#[test]
fn reference_journal_is_refused_by_a_production_resume() {
    let journal = tmp("sweep_equivalence_reference.jsonl");
    let _ = std::fs::remove_file(&journal);
    space()
        .with_mode(SweepMode::Reference)
        .sweep_supervised(&ExecPolicy::with_jobs(2).checkpoint_at(&journal))
        .expect("reference sweep journaled");

    let resume = ExecPolicy::with_jobs(2).checkpoint_at(&journal).resuming();
    let resumed = space().sweep_supervised(&resume);
    match resumed {
        Err(SweepError::Runtime(RuntimeError::Journal(JournalError::MetaMismatch {
            expected,
            found,
            ..
        }))) => {
            assert!(expected.contains("mode=Lanes"), "{expected}");
            assert!(found.contains("mode=Reference"), "{found}");
        }
        other => panic!("expected a journal identity mismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&journal);
}
