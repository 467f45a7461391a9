//! CI fault-injection smoke: proves the supervised runtime is transparent.
//!
//! Runs the statistical design-space sweep three ways and diffs the
//! results bit-for-bit:
//!
//! 1. clean, single-threaded, no supervision features;
//! 2. 4 workers with injected panics, a delayed chunk, and an injected
//!    NaN — every fault must be absorbed by retry;
//! 3. checkpointed run whose journal is truncated mid-entry ("killed"
//!    while writing), then resumed — restored + recomputed chunks must
//!    reproduce the clean result.
//!
//! Exits 0 when all three agree and the faults actually fired; exits 1
//! with a one-line diagnostic otherwise, so `scripts/ci.sh` can gate on it.

use ctsdac_bench::out_dir;
use ctsdac_core::explore::DesignSpace;
use ctsdac_core::saturation::SaturationCondition;
use ctsdac_core::DacSpec;
use ctsdac_failpoint::Registry;
use ctsdac_runtime::{truncate_tail, ExecPolicy};
use std::process::ExitCode;

const GRID: usize = 10;

fn fail(msg: &str) -> ExitCode {
    eprintln!("fault_smoke: FAIL: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let spec = DacSpec::paper_12bit();
    let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(GRID);

    // 1. Clean reference, sequential.
    let clean = match space.sweep_supervised(&ExecPolicy::sequential()) {
        Ok(s) => s.value,
        Err(e) => return fail(&format!("clean sweep failed: {e}")),
    };

    // 2. Parallel with injected faults: panics (one persisting a retry),
    //    a stall, and a NaN result — all must be absorbed.
    let fp = match Registry::armed(
        "panic@pool.chunk[1]:1,panic@pool.chunk[4]:1,panic@pool.chunk[4]:2,\
         delay=30@pool.chunk[2]:1,nan@pool.chunk[7]:1",
        0,
    ) {
        Ok(fp) => fp,
        Err(e) => return fail(&e.to_string()),
    };
    let mut policy = ExecPolicy::with_jobs(4);
    policy.pool.failpoints = Some(fp.clone());
    let faulty = match space.sweep_supervised(&policy) {
        Ok(s) => s,
        Err(e) => return fail(&format!("faulty sweep failed: {e}")),
    };
    let fired = fp.fired("pool.chunk");
    if fired < 4 {
        return fail(&format!("only {fired} injected faults fired"));
    }
    if faulty.faults.is_empty() {
        return fail("no faults were recorded despite injection");
    }
    if faulty.value != clean {
        return fail("faulty run diverged from the clean reference");
    }

    // 3. Kill-and-resume: checkpoint a run, corrupt the journal tail (as
    //    a crash mid-append would), then resume from it.
    let journal = out_dir().join("fault_smoke.jsonl");
    let _ = std::fs::remove_file(&journal);
    let first = space.sweep_supervised(&ExecPolicy::with_jobs(2).checkpoint_at(&journal));
    if let Err(e) = first {
        return fail(&format!("checkpointed sweep failed: {e}"));
    }
    if let Err(e) = truncate_tail(&journal, 11) {
        return fail(&format!("journal truncation failed: {e}"));
    }
    let resumed = match space
        .sweep_supervised(&ExecPolicy::with_jobs(2).checkpoint_at(&journal).resuming())
    {
        Ok(s) => s,
        Err(e) => return fail(&format!("resumed sweep failed: {e}")),
    };
    if resumed.restored == 0 {
        return fail("resume restored nothing from the journal");
    }
    if resumed.computed == 0 {
        return fail("truncation should have forced at least one recompute");
    }
    if resumed.value != clean {
        return fail("resumed run diverged from the clean reference");
    }
    let _ = std::fs::remove_file(&journal);

    println!(
        "fault_smoke: OK ({} chunks; {} faults absorbed; resume restored {} / recomputed {})",
        GRID,
        faulty.faults.len(),
        resumed.restored,
        resumed.computed
    );
    ExitCode::SUCCESS
}
