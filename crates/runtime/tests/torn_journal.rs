//! Torn-write recovery: the checkpoint journal must survive a crash at
//! *any* byte boundary.
//!
//! A kill during the last `write(2)` can leave the journal with a prefix
//! of the final line — any prefix. For every possible cut point inside
//! the last line (including the newline itself, i.e. the line missing
//! entirely), resuming must drop the torn tail, recompute only what was
//! lost, and assemble a result bit-identical to an uninterrupted run.

use ctsdac_runtime::exec::{run_journaled, ExecPolicy, Supervised};
use ctsdac_runtime::journal::{decode_f64, encode_f64, JournalMeta};
use ctsdac_runtime::pool::{ChunkCtx, RuntimeError};
use ctsdac_runtime::truncate_tail;
use std::path::{Path, PathBuf};

const CHUNKS: u64 = 6;

fn meta() -> JournalMeta {
    JournalMeta {
        kind: "torn-test".into(),
        seed: 41,
        chunks: CHUNKS,
        params: "unit".into(),
    }
}

/// An irrational-valued worker so every payload exercises full f64
/// round-tripping (all 17 significant digits).
fn worker(ctx: &ChunkCtx<'_>) -> Result<f64, String> {
    Ok((ctx.chunk as f64 + 1.0).sqrt() * std::f64::consts::PI)
}

fn run(policy: &ExecPolicy) -> Result<Supervised<Vec<f64>>, RuntimeError> {
    run_journaled(policy, &meta(), decode_f64, |v| encode_f64(*v), worker)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ctsdac-runtime-torn-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Byte length of the last journal line including its terminating newline.
fn last_line_len(journal: &[u8]) -> usize {
    assert_eq!(*journal.last().expect("non-empty journal"), b'\n');
    let body = &journal[..journal.len() - 1];
    let start = body
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|p| p + 1)
        .unwrap_or(0);
    journal.len() - start
}

#[test]
fn resume_is_bit_identical_after_truncation_at_every_byte() {
    let clean = run(&ExecPolicy::sequential()).expect("baseline");
    let clean_bits = bits(&clean.value);

    let path = tmp("every-byte.jsonl");
    cleanup(&path);
    run(&ExecPolicy::sequential().checkpoint_at(&path)).expect("journaled");
    let pristine = std::fs::read(&path).expect("read journal");
    let tail = last_line_len(&pristine);
    assert!(tail > 2, "degenerate last line ({tail} bytes)");

    // Cut 1..=tail bytes off the end: every possible torn prefix of the
    // last line, from "newline missing" to "line gone entirely".
    for cut in 1..=tail {
        std::fs::write(&path, &pristine).expect("restore journal");
        truncate_tail(&path, cut as u64).expect("truncate");
        let resumed = run(&ExecPolicy::sequential().checkpoint_at(&path).resuming())
            .unwrap_or_else(|e| panic!("resume failed at cut {cut}: {e}"));
        assert_eq!(
            bits(&resumed.value),
            clean_bits,
            "value diverged at cut {cut}"
        );
        assert_eq!(
            resumed.restored + resumed.computed,
            CHUNKS,
            "chunk accounting broken at cut {cut}"
        );
        // Only the torn chunk may be recomputed.
        assert_eq!(resumed.computed, 1, "over-recompute at cut {cut}");
        if cut < tail {
            // A strict prefix of the line survives: it must be dropped.
            assert_eq!(resumed.dropped, 1, "torn line not dropped at cut {cut}");
        } else {
            // The line is gone cleanly: nothing to drop.
            assert_eq!(resumed.dropped, 0, "phantom drop at cut {cut}");
        }
    }
    cleanup(&path);
}

/// The same guarantee when the resume itself runs parallel: worker count
/// must not interact with torn-tail recovery.
#[test]
fn parallel_resume_after_torn_tail_is_bit_identical() {
    let clean = run(&ExecPolicy::sequential()).expect("baseline");
    let path = tmp("parallel-resume.jsonl");
    cleanup(&path);
    run(&ExecPolicy::sequential().checkpoint_at(&path)).expect("journaled");
    let pristine = std::fs::read(&path).expect("read journal");
    let tail = last_line_len(&pristine);
    for cut in [1, tail / 2, tail] {
        std::fs::write(&path, &pristine).expect("restore journal");
        truncate_tail(&path, cut as u64).expect("truncate");
        let resumed = run(&ExecPolicy::with_jobs(4).checkpoint_at(&path).resuming())
            .unwrap_or_else(|e| panic!("resume failed at cut {cut}: {e}"));
        assert_eq!(bits(&resumed.value), bits(&clean.value), "cut {cut}");
    }
    cleanup(&path);
}

/// Torn-tail recovery composes with checkpointing the recovery run
/// itself: after a resume over a truncated journal, the journal is whole
/// again and a second resume restores everything.
#[test]
fn repaired_journal_restores_fully_on_the_next_resume() {
    let path = tmp("repair.jsonl");
    cleanup(&path);
    run(&ExecPolicy::sequential().checkpoint_at(&path)).expect("journaled");
    truncate_tail(&path, 3).expect("truncate");
    let first =
        run(&ExecPolicy::sequential().checkpoint_at(&path).resuming()).expect("first resume");
    assert_eq!(first.computed, 1);
    let second =
        run(&ExecPolicy::sequential().checkpoint_at(&path).resuming()).expect("second resume");
    assert_eq!(second.restored, CHUNKS);
    assert_eq!(second.computed, 0);
    assert_eq!(bits(&second.value), bits(&first.value));
    cleanup(&path);
}
