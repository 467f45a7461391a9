//! Acceptance tests for the supervised runtime, end to end through the
//! umbrella crate: the design-space sweep and a 10 000-trial Monte-Carlo
//! yield run must be bit-identical for `--jobs 1` vs `--jobs 8`, with
//! injected panics and deadline overruns absorbed by retry, and after a
//! simulated crash (journal with a truncated tail) followed by `--resume`
//! — no chunk lost, none double-counted.

use ctsdac::core::explore::DesignSpace;
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::validate::saturation_yield_supervised;
use ctsdac::core::DacSpec;
use ctsdac::failpoint::Registry;
use ctsdac::runtime::{truncate_tail, ExecPolicy, McPlan};
use std::path::PathBuf;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

const GRID: usize = 12;

fn space(spec: &DacSpec) -> DesignSpace {
    DesignSpace::new(spec, SaturationCondition::Statistical).with_grid(GRID)
}

#[test]
fn sweep_is_bit_identical_for_jobs_1_vs_8_under_faults() {
    let spec = DacSpec::paper_12bit();
    let space = space(&spec);
    let clean = space
        .sweep_supervised(&ExecPolicy::sequential())
        .expect("clean sweep")
        .value;

    // 8 workers; two injected panics, one chunk stalled past its deadline.
    let fp = Registry::armed(
        "panic@pool.chunk[0]:1,panic@pool.chunk[5]:1,delay=150@pool.chunk[3]:1",
        0,
    )
    .expect("spec");
    let mut policy = ExecPolicy::with_jobs(8);
    policy.pool.deadline = Some(Duration::from_millis(50));
    policy.pool.failpoints = Some(fp.clone());
    let faulty = space.sweep_supervised(&policy).expect("faulty sweep");

    let fired = fp.fired("pool.chunk");
    assert!(fired >= 3, "only {fired} faults fired");
    assert!(
        faulty.faults.len() >= 3,
        "faults not surfaced: {:?}",
        faulty.faults
    );
    assert_eq!(
        faulty.computed, GRID as u64,
        "every chunk computed exactly once"
    );
    assert_eq!(faulty.value.len(), clean.len());
    for (a, b) in faulty.value.iter().zip(&clean) {
        assert_eq!(a.vov_cs.to_bits(), b.vov_cs.to_bits());
        assert_eq!(a.vov_sw.to_bits(), b.vov_sw.to_bits());
        assert_eq!(a.total_area.to_bits(), b.total_area.to_bits());
    }
}

#[test]
fn sweep_resumes_from_a_truncated_journal_without_losing_chunks() {
    let spec = DacSpec::paper_12bit();
    let space = space(&spec);
    let clean = space
        .sweep_supervised(&ExecPolicy::sequential())
        .expect("clean sweep")
        .value;

    let journal = tmp("supervision_sweep.jsonl");
    let _ = std::fs::remove_file(&journal);
    space
        .sweep_supervised(&ExecPolicy::with_jobs(8).checkpoint_at(&journal))
        .expect("checkpointed sweep");

    // Simulate a crash mid-append: chop the tail of the journal mid-entry.
    truncate_tail(&journal, 17).expect("truncate journal");

    let resumed = space
        .sweep_supervised(&ExecPolicy::with_jobs(8).checkpoint_at(&journal).resuming())
        .expect("resumed sweep");
    assert!(resumed.restored > 0, "resume restored nothing");
    assert!(resumed.computed > 0, "the torn entry must be recomputed");
    assert_eq!(
        resumed.restored + resumed.computed,
        GRID as u64,
        "chunks lost or double-counted across resume"
    );
    assert_eq!(resumed.value, clean, "resumed sweep diverged");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn mc_10k_trials_is_bit_identical_for_jobs_1_vs_8_and_across_resume() {
    let spec = DacSpec::paper_12bit();
    let plan = McPlan::new(2024, 10_000, 500).expect("plan");

    let serial = saturation_yield_supervised(&spec, 0.8, 1.30, &plan, &ExecPolicy::sequential())
        .expect("sequential run");

    // 8 workers with a panic and a deadline overrun injected.
    let fp = Registry::armed("panic@pool.chunk[2]:1,delay=150@pool.chunk[9]:1", 0).expect("spec");
    let mut policy = ExecPolicy::with_jobs(8);
    policy.pool.deadline = Some(Duration::from_millis(50));
    policy.pool.failpoints = Some(fp.clone());
    let parallel =
        saturation_yield_supervised(&spec, 0.8, 1.30, &plan, &policy).expect("parallel run");

    assert!(fp.fired("pool.chunk") >= 2);
    assert_eq!(serial.value.mc, parallel.value.mc, "yield counts diverged");
    assert_eq!(
        serial.value.mc.trials(),
        10_000,
        "trials lost or double-counted"
    );
    assert_eq!(
        serial.value.predicted.to_bits(),
        parallel.value.predicted.to_bits()
    );

    // Kill-and-resume: journal the run, corrupt the tail, resume.
    let journal = tmp("supervision_mc.jsonl");
    let _ = std::fs::remove_file(&journal);
    saturation_yield_supervised(
        &spec,
        0.8,
        1.30,
        &plan,
        &ExecPolicy::with_jobs(8).checkpoint_at(&journal),
    )
    .expect("checkpointed run");
    truncate_tail(&journal, 9).expect("truncate journal");
    let resumed = saturation_yield_supervised(
        &spec,
        0.8,
        1.30,
        &plan,
        &ExecPolicy::with_jobs(8).checkpoint_at(&journal).resuming(),
    )
    .expect("resumed run");
    assert!(resumed.restored > 0);
    assert!(resumed.computed > 0);
    assert_eq!(resumed.restored + resumed.computed, plan.chunks());
    assert_eq!(resumed.value.mc, serial.value.mc, "resumed yield diverged");
    let _ = std::fs::remove_file(&journal);
}
