//! Journaled execution: the glue between the supervised pool and the
//! write-ahead checkpoint journal.
//!
//! [`run_journaled`] is the one entry point drivers build on: it loads any
//! existing checkpoint (when resuming), skips chunks already durable,
//! appends every newly computed chunk to the journal *before* counting it
//! done, and returns the assembled per-chunk results. Because chunk
//! results are keyed by index and computed from per-chunk RNG streams,
//! the assembled output is bit-identical whether the run completed in one
//! go, was parallelised differently, or was killed and resumed — the
//! invariant the integration tests prove under fault injection.

use crate::journal::{Journal, JournalMeta, LoadReport};
use crate::pool::{run_chunks, ChunkCtx, PoolConfig, RuntimeError};
use ctsdac_obs as obs;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// How a supervised run executes: pool shape plus checkpoint behaviour.
#[derive(Debug, Clone, Default)]
pub struct ExecPolicy {
    /// Worker pool configuration (jobs, deadline, retries, cancellation,
    /// fault plan, progress).
    pub pool: PoolConfig,
    /// Journal file path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// When true, an existing journal at `checkpoint` is loaded and its
    /// chunks are skipped; when false the journal is recreated from
    /// scratch. Ignored without a checkpoint path.
    pub resume: bool,
}

impl ExecPolicy {
    /// Single-threaded, no checkpoint — the drop-in default.
    pub fn sequential() -> Self {
        Self {
            pool: PoolConfig::sequential(),
            ..Self::default()
        }
    }

    /// `jobs` workers, no checkpoint.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            pool: PoolConfig::with_jobs(jobs),
            ..Self::default()
        }
    }

    /// Adds a checkpoint journal at `path`.
    pub fn checkpoint_at(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Marks the run as resuming from an existing journal.
    pub fn resuming(mut self) -> Self {
        self.resume = true;
        self
    }
}

/// A supervised result together with its supervision record.
#[derive(Debug, Clone, PartialEq)]
pub struct Supervised<T> {
    /// The assembled value.
    pub value: T,
    /// Faults absorbed by retry during the run (chunk order).
    pub faults: Vec<crate::pool::TaskFault>,
    /// Chunks restored from the journal instead of recomputed.
    pub restored: u64,
    /// Chunks computed this run.
    pub computed: u64,
    /// Journal lines dropped as corrupt (torn tail, undecodable payload).
    pub dropped: u64,
}

impl<T> Supervised<T> {
    /// Maps the value, keeping the supervision record.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Supervised<U> {
        Supervised {
            value: f(self.value),
            faults: self.faults,
            restored: self.restored,
            computed: self.computed,
            dropped: self.dropped,
        }
    }
}

/// Runs `meta.chunks` chunks under supervision with optional
/// checkpoint-resume, returning one decoded result per chunk in chunk
/// order.
///
/// `encode`/`decode` serialise one chunk result to/from the journal's
/// payload string; `decode` returning `None` drops the journal entry and
/// recomputes that chunk (payload corruption is handled like a torn
/// line, not an error). `worker` must be a pure function of the chunk
/// index for the determinism guarantee to hold.
///
/// # Errors
///
/// Journal create/resume failures ([`RuntimeError::Journal`]), retry
/// exhaustion ([`RuntimeError::ChunkFailed`]), or cancellation
/// ([`RuntimeError::Cancelled`]).
pub fn run_journaled<T, W, D, E>(
    policy: &ExecPolicy,
    meta: &JournalMeta,
    decode: D,
    encode: E,
    worker: W,
) -> Result<Supervised<Vec<T>>, RuntimeError>
where
    T: Send,
    W: Fn(&ChunkCtx<'_>) -> Result<T, String> + Sync,
    D: Fn(&str) -> Option<T>,
    E: Fn(&T) -> String,
{
    let mut dropped = 0u64;
    let (mut journal, restored) = match &policy.checkpoint {
        Some(path) => {
            let (journal, raw, load) = if policy.resume {
                Journal::resume(path, meta)?
            } else {
                (
                    Journal::create(path, meta)?,
                    BTreeMap::new(),
                    LoadReport::default(),
                )
            };
            dropped += load.dropped;
            let mut decoded = BTreeMap::new();
            for (chunk, data) in raw {
                match decode(&data) {
                    Some(value) => {
                        decoded.insert(chunk, value);
                    }
                    None => dropped += 1,
                }
            }
            (Some(journal), decoded)
        }
        None => (None, BTreeMap::new()),
    };

    obs::count(obs::Counter::CheckpointDropped, dropped);
    obs::count(obs::Counter::CheckpointRestored, restored.len() as u64);

    let report = run_chunks(
        &policy.pool,
        meta.chunks,
        restored,
        worker,
        |chunk, value| {
            if let Some(journal) = journal.as_mut() {
                journal.append(chunk, &encode(value))?;
                obs::incr(obs::Counter::CheckpointFlushes);
            }
            Ok(())
        },
    )?;

    Ok(Supervised {
        value: report.results,
        faults: report.faults,
        restored: report.restored,
        computed: report.computed,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{decode_f64, encode_f64, truncate_tail};
    use ctsdac_failpoint::Registry;
    use std::path::Path;

    fn meta(chunks: u64) -> JournalMeta {
        JournalMeta {
            kind: "exec-test".into(),
            seed: 7,
            chunks,
            params: "unit".into(),
        }
    }

    fn square(ctx: &ChunkCtx<'_>) -> Result<f64, String> {
        Ok(ctx.chunk as f64 * ctx.chunk as f64 + 0.5)
    }

    fn run(policy: &ExecPolicy, chunks: u64) -> Result<Supervised<Vec<f64>>, RuntimeError> {
        run_journaled(
            policy,
            &meta(chunks),
            decode_f64,
            |v| encode_f64(*v),
            square,
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ctsdac-runtime-exec-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn no_checkpoint_runs_plain() {
        let out = run(&ExecPolicy::with_jobs(4), 12).expect("runs");
        assert_eq!(out.value.len(), 12);
        assert_eq!(out.value[3], 9.5);
        assert_eq!(out.restored, 0);
        assert_eq!(out.computed, 12);
    }

    #[test]
    fn checkpoint_then_resume_skips_done_chunks() {
        let path = tmp("resume.jsonl");
        cleanup(&path);
        let first = run(&ExecPolicy::with_jobs(2).checkpoint_at(&path), 10).expect("first run");
        assert_eq!(first.computed, 10);
        // Resume over a complete journal: nothing recomputed.
        let second = run(
            &ExecPolicy::with_jobs(2).checkpoint_at(&path).resuming(),
            10,
        )
        .expect("resume");
        assert_eq!(second.restored, 10);
        assert_eq!(second.computed, 0);
        assert_eq!(second.value, first.value);
        cleanup(&path);
    }

    #[test]
    fn resume_after_tail_corruption_recomputes_only_lost_chunks() {
        let path = tmp("corrupt.jsonl");
        cleanup(&path);
        let clean = run(&ExecPolicy::sequential(), 8).expect("baseline");
        run(&ExecPolicy::sequential().checkpoint_at(&path), 8).expect("journaled");
        truncate_tail(&path, 7).expect("corrupt the tail");
        let resumed =
            run(&ExecPolicy::with_jobs(4).checkpoint_at(&path).resuming(), 8).expect("resume");
        assert!(resumed.dropped >= 1);
        assert!(resumed.restored < 8);
        assert_eq!(resumed.restored + resumed.computed, 8);
        // Bit-identical to the clean run despite kill + corruption + resume.
        let clean_bits: Vec<u64> = clean.value.iter().map(|v| v.to_bits()).collect();
        let resumed_bits: Vec<u64> = resumed.value.iter().map(|v| v.to_bits()).collect();
        assert_eq!(clean_bits, resumed_bits);
        cleanup(&path);
    }

    #[test]
    fn faults_do_not_change_journaled_results() {
        let path = tmp("faulty.jsonl");
        cleanup(&path);
        let clean = run(&ExecPolicy::sequential(), 16).expect("baseline");
        let mut policy = ExecPolicy::with_jobs(4).checkpoint_at(&path);
        policy.pool.failpoints =
            Some(Registry::armed("panic@pool.chunk[2]:1,panic@pool.chunk[11]:1", 0).expect("spec"));
        let faulty = run(&policy, 16).expect("supervised");
        assert_eq!(faulty.faults.len(), 2);
        assert_eq!(faulty.value, clean.value);
        cleanup(&path);
    }

    #[test]
    fn undecodable_payload_is_dropped_and_recomputed() {
        let path = tmp("undecodable.jsonl");
        cleanup(&path);
        run(&ExecPolicy::sequential().checkpoint_at(&path), 4).expect("journaled");
        // Rewrite the journal with one entry whose payload is valid JSON
        // but not a valid f64 encoding.
        let text = std::fs::read_to_string(&path).expect("read");
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[2] = "{\"chunk\":1,\"data\":\"not-a-float\"}".into();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write");
        let resumed =
            run(&ExecPolicy::sequential().checkpoint_at(&path).resuming(), 4).expect("resume");
        assert_eq!(resumed.dropped, 1);
        assert_eq!(resumed.restored, 3);
        assert_eq!(resumed.computed, 1);
        assert_eq!(resumed.value[1], 1.5);
        cleanup(&path);
    }

    #[test]
    fn map_keeps_the_supervision_record() {
        let out = run(&ExecPolicy::sequential(), 3).expect("runs");
        let mapped = out.map(|v| v.len());
        assert_eq!(mapped.value, 3);
        assert_eq!(mapped.computed, 3);
    }
}
