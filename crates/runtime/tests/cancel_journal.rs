//! Cancellation must never flush a chunk the merge will not consume.
//!
//! A cancel racing a completion used to journal the late chunk anyway:
//! the worker had already sent its `Done` report, and the supervisor
//! appended it before noticing the cancel. The run then returned
//! `Cancelled`, so nothing merged that chunk — but the journal carried it,
//! and a later resume would restore state the cancelled run never
//! acknowledged producing. These tests pin the fixed contract:
//!
//! * chunks completed and journaled *before* the cancel stay durable;
//! * chunks completing *after* the cancel is observable are dropped from
//!   both the result slots and the journal;
//! * a resume over the post-cancel journal recomputes exactly the dropped
//!   chunks and assembles a result bit-identical to an uninterrupted run
//!   (the `torn_journal` guarantee, extended to cancellation).

use ctsdac_runtime::exec::{run_journaled, ExecPolicy, Supervised};
use ctsdac_runtime::journal::{decode_f64, encode_f64, JournalMeta};
use ctsdac_runtime::pool::{run_chunks, ChunkCtx, PoolConfig, RuntimeError};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const CHUNKS: u64 = 6;
/// The chunk whose body cancels the run and then completes anyway,
/// modelling a completion that loses the race against a cancel.
const CANCEL_AT: u64 = 2;

fn meta() -> JournalMeta {
    JournalMeta {
        kind: "cancel-journal-test".into(),
        seed: 23,
        chunks: CHUNKS,
        params: "unit".into(),
    }
}

/// Irrational payloads so journal round-tripping is exercised at full
/// f64 precision.
fn value_of(chunk: u64) -> f64 {
    (chunk as f64 + 2.0).sqrt() * std::f64::consts::E
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ctsdac-runtime-cancel-journal-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Blocks until `ready()` holds, so a test worker can wait for the
/// supervisor to catch up before triggering the cancel race on purpose.
fn wait_until(ready: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < give_up, "test synchronisation timed out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Chunk indices present in a journal file (skipping the meta line).
fn journaled_chunks(path: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(path).expect("read journal");
    text.lines()
        .filter_map(|line| {
            let (_, rest) = line.split_once("\"chunk\":")?;
            let digits: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        })
        .collect()
}

#[test]
fn post_cancel_completion_is_not_observed() {
    // Sequential pool: chunks 0 and 1 complete and are observed; chunk 2's
    // body cancels the shared token and then returns a value. That `Done`
    // report reaches the supervisor after the cancel is set, so it must be
    // dropped, not handed to `observe` (the journal-append hook).
    let cfg = PoolConfig::sequential();
    let token = cfg.cancel.clone();
    let observed = Mutex::new(Vec::<u64>::new());
    let observed_count = AtomicU64::new(0);
    let err = run_chunks(
        &cfg,
        CHUNKS,
        BTreeMap::new(),
        |ctx: &ChunkCtx<'_>| {
            if ctx.chunk == CANCEL_AT {
                // Let the supervisor observe every earlier chunk first, so
                // the cancel races exactly this chunk's completion.
                wait_until(|| observed_count.load(Ordering::SeqCst) >= CANCEL_AT);
                token.cancel();
            }
            Ok(value_of(ctx.chunk))
        },
        |chunk, _value| {
            observed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(chunk);
            observed_count.fetch_add(1, Ordering::SeqCst);
            Ok(())
        },
    )
    .expect_err("run was cancelled");
    assert!(matches!(err, RuntimeError::Cancelled { .. }), "{err}");
    let observed = observed.into_inner().unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        observed,
        vec![0, 1],
        "the post-cancel completion leaked into the journal hook"
    );
}

#[test]
fn cancelled_run_journals_only_pre_cancel_chunks() {
    let path = tmp("cancel-flush.jsonl");
    cleanup(&path);
    let policy = ExecPolicy::sequential().checkpoint_at(&path);
    let token = policy.pool.cancel.clone();
    let err = run_journaled(
        &policy,
        &meta(),
        decode_f64,
        |v| encode_f64(*v),
        |ctx: &ChunkCtx<'_>| {
            if ctx.chunk == CANCEL_AT {
                // Journal appends fsync per chunk, so polling the file is
                // an exact "supervisor caught up" signal.
                wait_until(|| journaled_chunks(&path).len() as u64 >= CANCEL_AT);
                token.cancel();
            }
            Ok(value_of(ctx.chunk))
        },
    )
    .expect_err("run was cancelled");
    assert!(matches!(err, RuntimeError::Cancelled { .. }), "{err}");
    assert_eq!(
        journaled_chunks(&path),
        vec![0, 1],
        "cancel racing a flush journaled a chunk the merge never consumed"
    );
    cleanup(&path);
}

#[test]
fn resume_after_cancel_recomputes_dropped_chunks_bit_identically() {
    // Baseline: an uninterrupted sequential run.
    let clean: Supervised<Vec<f64>> = run_journaled(
        &ExecPolicy::sequential(),
        &meta(),
        decode_f64,
        |v| encode_f64(*v),
        |ctx: &ChunkCtx<'_>| Ok(value_of(ctx.chunk)),
    )
    .expect("baseline");

    // Cancelled first run: chunks 0 and 1 durable, the rest dropped.
    let path = tmp("cancel-resume.jsonl");
    cleanup(&path);
    let policy = ExecPolicy::sequential().checkpoint_at(&path);
    let token = policy.pool.cancel.clone();
    run_journaled(
        &policy,
        &meta(),
        decode_f64,
        |v| encode_f64(*v),
        |ctx: &ChunkCtx<'_>| {
            if ctx.chunk == CANCEL_AT {
                wait_until(|| journaled_chunks(&path).len() as u64 >= CANCEL_AT);
                token.cancel();
            }
            Ok(value_of(ctx.chunk))
        },
    )
    .expect_err("first run cancelled");

    // Resume (fresh token) recomputes exactly the non-durable chunks and
    // reproduces the clean result bit for bit.
    let recomputed = AtomicU64::new(0);
    let resumed = run_journaled(
        &ExecPolicy::sequential().checkpoint_at(&path).resuming(),
        &meta(),
        decode_f64,
        |v| encode_f64(*v),
        |ctx: &ChunkCtx<'_>| {
            recomputed.fetch_add(1, Ordering::SeqCst);
            Ok(value_of(ctx.chunk))
        },
    )
    .expect("resume");
    assert_eq!(resumed.restored, CANCEL_AT);
    assert_eq!(resumed.computed, CHUNKS - CANCEL_AT);
    assert_eq!(recomputed.load(Ordering::SeqCst), CHUNKS - CANCEL_AT);
    assert_eq!(bits(&resumed.value), bits(&clean.value));
    cleanup(&path);
}

#[test]
fn parallel_cancel_never_journals_more_than_observed() {
    // Under parallelism the exact cut point is nondeterministic, but the
    // invariant is not: every journaled chunk must be one the supervisor
    // observed before the cancel, and a resume must still assemble the
    // clean result bit for bit.
    let clean: Vec<f64> = (0..CHUNKS).map(value_of).collect();
    for round in 0..8u64 {
        let path = tmp(&format!("parallel-cancel-{round}.jsonl"));
        cleanup(&path);
        let policy = ExecPolicy::with_jobs(4).checkpoint_at(&path);
        let token = policy.pool.cancel.clone();
        let err = run_journaled(
            &policy,
            &meta(),
            decode_f64,
            |v| encode_f64(*v),
            |ctx: &ChunkCtx<'_>| {
                if ctx.chunk == CANCEL_AT {
                    token.cancel();
                }
                Ok(value_of(ctx.chunk))
            },
        )
        .expect_err("cancelled");
        assert!(matches!(err, RuntimeError::Cancelled { .. }), "{err}");
        let flushed = journaled_chunks(&path);
        assert!(
            flushed.len() < CHUNKS as usize,
            "a cancelled run journaled every chunk (round {round})"
        );
        let resumed = run_journaled(
            &ExecPolicy::with_jobs(4).checkpoint_at(&path).resuming(),
            &meta(),
            decode_f64,
            |v| encode_f64(*v),
            |ctx: &ChunkCtx<'_>| Ok(value_of(ctx.chunk)),
        )
        .expect("resume");
        assert_eq!(resumed.restored as usize, flushed.len(), "round {round}");
        assert_eq!(bits(&resumed.value), bits(&clean), "round {round}");
        cleanup(&path);
    }
}
