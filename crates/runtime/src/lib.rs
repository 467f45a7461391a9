//! Supervised parallel runtime for the `ctsdac` workspace.
//!
//! Design-space exploration (`DesignSpace::sweep`, Pareto fronts) and
//! Monte-Carlo yield validation are embarrassingly parallel and long
//! running — exactly the workloads where a single panicking worker, a
//! hung chunk, or a killed process would otherwise throw away hours of
//! results. This crate provides the supervision layer that makes those
//! runs robust without sacrificing the workspace's determinism policy:
//!
//! * [`pool`] — a std-only worker pool with panic isolation
//!   (`catch_unwind`; a panicking chunk becomes a typed
//!   [`TaskFault`], never a poisoned run), per-chunk deadlines,
//!   bounded retry, and cooperative [`CancelToken`] cancellation.
//! * [`journal`] — a plain-text JSONL write-ahead checkpoint journal,
//!   fsync'd per chunk, corruption-tolerant on load (a torn tail is
//!   dropped and recomputed, not an error); [`truncate_tail`] tears one
//!   on purpose for crash drills.
//! * [`exec`] — [`ExecPolicy`] and [`run_journaled`], the glue that runs
//!   chunks under supervision with checkpoint-resume.
//! * [`mc`] — the Monte-Carlo [`McPlan`] (counter-based per-chunk RNG
//!   streams) and its supervised drivers ([`yield_supervised`],
//!   [`yield_vector_supervised_chunked`]).
//! * Fault injection — every chunk attempt visits the keyed failpoint
//!   site [`pool::SITE_CHUNK`] (`pool.chunk`) of a `ctsdac_failpoint`
//!   registry ([`PoolConfig::failpoints`], the process-global one by
//!   default). `panic@pool.chunk[3]:1`, `nan@pool.chunk[7]:1` and
//!   `delay=150@pool.chunk[1]:1` script worker panics, NaN results and
//!   stalls at chosen (chunk, attempt) pairs, so the supervision
//!   invariants are proven by tests, not asserted on faith.
//! * [`retry`] — a typed [`RetryPolicy`] (exponential backoff with
//!   deterministic jitter) shared by the pool's chunk re-attempts and the
//!   service layer's circuit breaker.
//!
//! # Determinism contract
//!
//! Chunk results are keyed by chunk index and computed from
//! `stream_rng(seed, chunk)` — pure functions of the run identity. The
//! assembled output is therefore bit-identical for any worker count,
//! with faults injected or not, and across kill + resume:
//!
//! ```
//! use ctsdac_runtime::{yield_supervised, ExecPolicy, McPlan};
//! use ctsdac_stats::Rng;
//!
//! let plan = McPlan::new(42, 2_000, 250)?;
//! let pass = |rng: &mut ctsdac_stats::Xoshiro256PlusPlus, _start: u64, len: u64| {
//!     (0..len).filter(|_| rng.gen_range(0.0..1.0) < 0.9).count() as u64
//! };
//! let serial = yield_supervised(&ExecPolicy::sequential(), &plan, "demo", pass)?;
//! let eight = yield_supervised(&ExecPolicy::with_jobs(8), &plan, "demo", pass)?;
//! assert_eq!(serial.value, eight.value);
//! # Ok::<(), ctsdac_runtime::RuntimeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod exec;
pub mod journal;
pub mod mc;
pub mod pool;
pub mod retry;

pub use cancel::CancelToken;
pub use exec::{run_journaled, ExecPolicy, Supervised};
pub use journal::{
    decode_f64, encode_f64, truncate_tail, Journal, JournalError, JournalMeta, LoadReport,
};
pub use mc::{yield_supervised, yield_vector_supervised_chunked, McPlan};
pub use pool::{
    run_chunks, ChunkCtx, PoolConfig, Progress, ProgressGauge, RunReport, RuntimeError, TaskFault,
};
pub use retry::RetryPolicy;
