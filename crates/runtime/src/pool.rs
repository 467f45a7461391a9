//! Panic-isolated supervised worker pool.
//!
//! [`run_chunks`] executes `total` independent chunks and supervises
//! every one. At one job the chunks run in order on the calling thread;
//! at `jobs` ≥ 2 they run on that many scoped worker threads. Both claim
//! chunks through the same loop and hand their reports to the same
//! supervisor, so everything below holds at every job count:
//!
//! * **Panic isolation** — a panicking chunk is caught with
//!   `catch_unwind`, reported as a typed [`TaskFault::Panic`], and retried;
//!   the thread that ran it survives and the run is never poisoned.
//! * **Deadlines** — a chunk whose attempt overruns the per-task deadline
//!   is discarded and retried as [`TaskFault::DeadlineExceeded`].
//! * **Validation** — a chunk body may reject its own result (e.g. a NaN
//!   metric) as [`TaskFault::Invalid`]; same retry path.
//! * **Bounded retry** — each chunk gets `1 + retries` attempts (the
//!   PR-1 retry-ladder idiom, one rung per attempt); exhaustion aborts the
//!   run with a typed [`RuntimeError::ChunkFailed`] carrying the last
//!   fault. Re-attempts wait out a jittered exponential backoff
//!   ([`crate::RetryPolicy`], [`PoolConfig::backoff`]) so a wave of
//!   faulting workers desynchronises instead of retrying in lock-step.
//! * **Cooperative cancellation** — a shared [`CancelToken`] stops workers
//!   from claiming new chunks; chunks that complete *before* the cancel is
//!   observed stay durable (the supervisor journals them as they finish),
//!   which is what makes kill + resume lossless. Chunks that complete
//!   *after* cancellation are dropped, not journaled: a cancelled run must
//!   never flush entries its merge will not consume.
//! * **Determinism** — results are keyed by chunk index, never by
//!   completion order, and chunk bodies draw randomness from counter-based
//!   per-chunk streams (`ctsdac_stats::rng::stream_rng`). The assembled
//!   output is therefore bit-identical for every `jobs` value, with faults
//!   on or off, and across resume.
//! * **Fault injection** — every chunk attempt visits the keyed failpoint
//!   site [`SITE_CHUNK`] once, keyed by chunk index and attempt number:
//!   `panic@pool.chunk[3]:1` panics the first attempt of chunk 3,
//!   `nan@pool.chunk[7]:1` corrupts its result ([`ChunkCtx::injected_nan`]),
//!   `delay=150@pool.chunk[1]:1` stalls it. The verdict is a pure
//!   function of (spec, seed, chunk, attempt), so a drill injects the same
//!   faults whatever `jobs` is and however many runs share the registry.

use crate::cancel::CancelToken;
use crate::journal::JournalError;
use crate::retry::RetryPolicy;
use ctsdac_failpoint::{Failure, Registry};
use ctsdac_obs as obs;
use ctsdac_stats::StatsError;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Keyed failpoint site visited once per chunk attempt (key: chunk
/// index). Honours `panic`, `nan` and `delay=MS`.
pub const SITE_CHUNK: &str = "pool.chunk";

/// A supervised failure of one chunk attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFault {
    /// The chunk body panicked; the payload is the panic message.
    Panic {
        /// Chunk index.
        chunk: u64,
        /// Zero-based attempt number.
        attempt: u32,
        /// Stringified panic payload.
        message: String,
    },
    /// The attempt finished after its deadline; the result was discarded.
    DeadlineExceeded {
        /// Chunk index.
        chunk: u64,
        /// Zero-based attempt number.
        attempt: u32,
        /// Wall-clock the attempt took, ms.
        elapsed_ms: u64,
        /// The configured deadline, ms.
        deadline_ms: u64,
    },
    /// The chunk body rejected its own result (e.g. non-finite metric).
    Invalid {
        /// Chunk index.
        chunk: u64,
        /// Zero-based attempt number.
        attempt: u32,
        /// One-line description of the rejection.
        detail: String,
    },
}

impl TaskFault {
    /// The chunk this fault belongs to.
    pub fn chunk(&self) -> u64 {
        match self {
            Self::Panic { chunk, .. }
            | Self::DeadlineExceeded { chunk, .. }
            | Self::Invalid { chunk, .. } => *chunk,
        }
    }
}

impl fmt::Display for TaskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Panic {
                chunk,
                attempt,
                message,
            } => write!(f, "chunk {chunk} attempt {attempt} panicked: {message}"),
            Self::DeadlineExceeded {
                chunk,
                attempt,
                elapsed_ms,
                deadline_ms,
            } => write!(
                f,
                "chunk {chunk} attempt {attempt} overran its deadline \
                 ({elapsed_ms} ms > {deadline_ms} ms)"
            ),
            Self::Invalid {
                chunk,
                attempt,
                detail,
            } => write!(
                f,
                "chunk {chunk} attempt {attempt} invalid result: {detail}"
            ),
        }
    }
}

/// Typed failure of a supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// One chunk exhausted its retry budget; the run was aborted (other
    /// completed chunks remain journaled and resumable).
    ChunkFailed {
        /// The failing chunk.
        chunk: u64,
        /// Attempts consumed (1 + retries).
        attempts: u32,
        /// The fault of the final attempt.
        last: TaskFault,
    },
    /// The run was cancelled before completion.
    Cancelled {
        /// Chunks completed (including journal-skipped) at cancellation.
        done: u64,
        /// Total chunks of the run.
        total: u64,
    },
    /// The checkpoint journal failed.
    Journal(JournalError),
    /// Aggregating chunk counts produced invalid statistics.
    Stats(StatsError),
    /// A driver-level invariant failed (e.g. undecodable journal payload
    /// that parsed as JSON but not as the driver's record format).
    Driver {
        /// One-line description.
        detail: String,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ChunkFailed {
                chunk,
                attempts,
                last,
            } => write!(
                f,
                "chunk {chunk} failed after {attempts} attempt(s); last fault: {last}"
            ),
            Self::Cancelled { done, total } => {
                write!(f, "run cancelled after {done}/{total} chunks")
            }
            Self::Journal(e) => write!(f, "{e}"),
            Self::Stats(e) => write!(f, "chunk aggregation: {e}"),
            Self::Driver { detail } => write!(f, "driver error: {detail}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Journal(e) => Some(e),
            Self::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for RuntimeError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

impl From<StatsError> for RuntimeError {
    fn from(e: StatsError) -> Self {
        Self::Stats(e)
    }
}

/// Live run statistics handed to the progress callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Chunks completed so far, including those restored from a journal.
    pub done: u64,
    /// Total chunks of the run.
    pub total: u64,
    /// Wall-clock since the run started.
    pub elapsed: Duration,
    /// Driver-published gauge (e.g. current best objective), if any.
    pub gauge: Option<f64>,
    /// Fine-grained work units completed this run (e.g. design points),
    /// accumulated by chunk bodies through [`ChunkCtx::add_units`]. Zero
    /// when the driver publishes no units. Observational only: retried
    /// chunk attempts may count their units more than once.
    pub units: u64,
}

impl Progress {
    /// Average throughput in work units per second; `None` until units
    /// have been published and wall-clock has advanced.
    pub fn units_per_sec(&self) -> Option<f64> {
        let dt = self.elapsed.as_secs_f64();
        if self.units == 0 || dt <= 0.0 {
            return None;
        }
        Some(self.units as f64 / dt)
    }

    /// Naive remaining-time estimate from the average chunk rate; `None`
    /// until at least one chunk has been computed this run.
    pub fn eta(&self) -> Option<Duration> {
        if self.done == 0 || self.total <= self.done {
            return if self.total == self.done {
                Some(Duration::ZERO)
            } else {
                None
            };
        }
        let per_chunk = self.elapsed.as_secs_f64() / self.done as f64;
        Some(Duration::from_secs_f64(
            per_chunk * (self.total - self.done) as f64,
        ))
    }
}

/// A shared scalar the chunk bodies may publish for monitoring (e.g. the
/// best objective seen so far). Purely observational: it never influences
/// results, so its thread-timing nondeterminism is harmless.
#[derive(Debug, Clone, Default)]
pub struct ProgressGauge {
    value: Arc<Mutex<Option<f64>>>,
}

impl ProgressGauge {
    /// A fresh, empty gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes `v` if it beats the current value under `better`
    /// (e.g. `f64::max` for a maximisation objective).
    pub fn update(&self, v: f64, better: fn(f64, f64) -> f64) {
        // A poisoned monitoring mutex must never take down the run.
        let mut slot = self.value.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(match *slot {
            Some(cur) => better(cur, v),
            None => v,
        });
    }

    /// The current published value.
    pub fn get(&self) -> Option<f64> {
        *self.value.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A shared monotonically-increasing counter of fine-grained work units
/// (e.g. evaluated design points), aggregated across worker threads for
/// throughput display. Like [`ProgressGauge`], purely observational.
#[derive(Debug, Clone, Default)]
pub struct UnitCounter {
    value: Arc<AtomicU64>,
}

impl UnitCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` completed units.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Progress callback type: invoked on the thread that called
/// [`run_chunks`] after every chunk completion.
pub type ProgressFn = Arc<dyn Fn(&Progress) + Send + Sync>;

/// Configuration of a supervised run.
#[derive(Clone, Default)]
pub struct PoolConfig {
    /// Worker threads, clamped to the number of pending chunks. At 0 or
    /// 1 no thread is spawned: every chunk runs on the calling thread.
    pub jobs: usize,
    /// Per-chunk wall-clock deadline; `None` disables the check.
    pub deadline: Option<Duration>,
    /// Extra attempts after the first before a chunk is declared failed.
    pub retries: u32,
    /// Backoff schedule applied before each re-attempt of a faulted chunk
    /// (the first attempt never waits). The derived [`Default`] is
    /// immediate retry; [`PoolConfig::sequential`] and
    /// [`PoolConfig::with_jobs`] install the jittered default.
    pub backoff: RetryPolicy,
    /// Cooperative cancellation flag shared with the caller.
    pub cancel: CancelToken,
    /// Failpoint registry consulted at [`SITE_CHUNK`]; `None` uses the
    /// process-global one (unarmed in production).
    pub failpoints: Option<Arc<Registry>>,
    /// Observational progress callback.
    pub progress: Option<ProgressFn>,
    /// Shared gauge the chunk bodies may publish through.
    pub gauge: ProgressGauge,
    /// Shared fine-grained work-unit counter (see [`UnitCounter`]).
    pub units: UnitCounter,
}

impl fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolConfig")
            .field("jobs", &self.jobs)
            .field("deadline", &self.deadline)
            .field("retries", &self.retries)
            .field("backoff", &self.backoff)
            .field("failpoints", &self.failpoints.is_some())
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl PoolConfig {
    /// Single-threaded supervision with the default retry budget (2
    /// retries — three attempts per chunk, like the DC solver's
    /// three-stage ladder).
    pub fn sequential() -> Self {
        Self {
            jobs: 1,
            retries: 2,
            backoff: RetryPolicy::default_backoff(),
            ..Self::default()
        }
    }

    /// `jobs` workers, default retry budget.
    pub fn with_jobs(jobs: usize) -> Self {
        Self {
            jobs,
            retries: 2,
            backoff: RetryPolicy::default_backoff(),
            ..Self::default()
        }
    }
}

/// Per-attempt context handed to the chunk body.
#[derive(Debug)]
pub struct ChunkCtx<'a> {
    /// Chunk index in `0..total`.
    pub chunk: u64,
    /// Zero-based attempt number (> 0 on retries).
    pub attempt: u32,
    cancel: &'a CancelToken,
    nan: bool,
    gauge: &'a ProgressGauge,
    units: &'a UnitCounter,
}

impl ChunkCtx<'_> {
    /// True once the run has been cancelled; long chunk bodies should
    /// poll this and bail out early (their partial work is discarded).
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// True if an armed `nan` failpoint fired for this attempt. Chunk
    /// bodies that support fault injection corrupt their result when this
    /// returns true; their own validation must then catch it.
    pub fn injected_nan(&self) -> bool {
        self.nan
    }

    /// Publishes an observational gauge value (e.g. a running best
    /// objective) using `better` to combine with the current value.
    pub fn publish_gauge(&self, v: f64, better: fn(f64, f64) -> f64) {
        self.gauge.update(v, better);
    }

    /// Records `n` fine-grained work units (e.g. design points) completed
    /// by this chunk body, for throughput display.
    pub fn add_units(&self, n: u64) {
        self.units.add(n);
    }
}

/// Outcome of a successful supervised run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport<T> {
    /// One result per chunk, indexed by chunk id.
    pub results: Vec<T>,
    /// Faults that occurred and were absorbed by retry, in chunk order.
    pub faults: Vec<TaskFault>,
    /// Chunks restored from the journal instead of recomputed.
    pub restored: u64,
    /// Chunks computed this run.
    pub computed: u64,
}

thread_local! {
    /// True while this thread runs a chunk attempt inside `catch_unwind`.
    static IN_ATTEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Silences panic output from chunk attempts (panics there are supervised
/// and reported as typed faults; the default hook's backtrace spam would
/// drown real diagnostics). Attempts run on worker threads at ≥ 2 jobs and
/// on the caller's thread at one, so the hook keys on the thread-local
/// attempt flag, not on a thread name. Every other panic keeps the
/// previous hook's behaviour.
fn install_quiet_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let supervised = IN_ATTEMPT.try_with(Cell::get).unwrap_or(false);
            if !supervised {
                previous(info);
            }
        }));
    });
}

/// Sleeps `delay` in short slices, returning early once `cancel` fires or
/// its deadline expires, so backoff waits never hold up a shutdown.
fn sleep_cancellable(delay: Duration, cancel: &CancelToken) {
    const SLICE: Duration = Duration::from_millis(5);
    let wake = Instant::now() + delay;
    while !cancel.is_cancelled() {
        let now = Instant::now();
        if now >= wake {
            break;
        }
        std::thread::sleep((wake - now).min(SLICE));
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One attempt of one chunk: fault injection, panic isolation, deadline
/// check, result validation. `injected` holds the failpoints that fired
/// for this attempt.
fn attempt_chunk<T, W>(
    worker: &W,
    ctx: &ChunkCtx<'_>,
    deadline: Option<Duration>,
    injected: &[Failure],
) -> Result<T, TaskFault>
where
    W: Fn(&ChunkCtx<'_>) -> Result<T, String>,
{
    // The clock is read only when there is a deadline to check.
    let started = deadline.map(|limit| (limit, Instant::now()));
    // Saved and restored, so an attempt nested inside another one (a
    // chunk body running its own one-job pool) leaves the outer flag set.
    let outer = IN_ATTEMPT.replace(true);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for failure in injected {
            if let Failure::Delay(ms) = failure {
                std::thread::sleep(Duration::from_millis(*ms));
            }
        }
        if injected.contains(&Failure::Panic) {
            // The whole point of this line is to panic: an armed failpoint
            // asked for a fault that `catch_unwind` below must absorb.
            panic!("injected (chunk {}, attempt {})", ctx.chunk, ctx.attempt); // ci-gate: allow
        }
        worker(ctx)
    }));
    IN_ATTEMPT.set(outer);
    let result = match outcome {
        Err(payload) => {
            return Err(TaskFault::Panic {
                chunk: ctx.chunk,
                attempt: ctx.attempt,
                message: panic_message(payload.as_ref()),
            })
        }
        Ok(Err(detail)) => {
            return Err(TaskFault::Invalid {
                chunk: ctx.chunk,
                attempt: ctx.attempt,
                detail,
            })
        }
        Ok(Ok(t)) => t,
    };
    if let Some((limit, started)) = started {
        let elapsed = started.elapsed();
        if elapsed > limit {
            return Err(TaskFault::DeadlineExceeded {
                chunk: ctx.chunk,
                attempt: ctx.attempt,
                elapsed_ms: elapsed.as_millis() as u64,
                deadline_ms: limit.as_millis() as u64,
            });
        }
    }
    Ok(result)
}

/// What a claim loop hands the supervisor for one chunk.
enum ChunkReport<T> {
    Done {
        chunk: u64,
        value: T,
        absorbed: Vec<TaskFault>,
    },
    Failed {
        chunk: u64,
        attempts: u32,
        last: TaskFault,
        absorbed: Vec<TaskFault>,
    },
}

/// One claim loop: claims pending chunks in order, runs each with up to
/// `1 + cfg.retries` attempts and hands its report to `report`, which
/// returns false once the supervisor is gone. It stops when no chunk is
/// left, the run is cancelled, the supervisor is gone, or a chunk
/// exhausts its attempts.
fn claim_loop<T, W>(
    cfg: &PoolConfig,
    pending: &[u64],
    next: &AtomicU64,
    worker: &W,
    mut report: impl FnMut(ChunkReport<T>) -> bool,
) where
    W: Fn(&ChunkCtx<'_>) -> Result<T, String>,
{
    let cancel = &cfg.cancel;
    let failpoints = ctsdac_failpoint::or_global(cfg.failpoints.as_deref());
    loop {
        if cancel.is_cancelled() {
            break;
        }
        let idx = next.fetch_add(1, Ordering::SeqCst) as usize;
        let Some(&chunk) = pending.get(idx) else {
            break;
        };
        let mut absorbed = Vec::new();
        let mut verdict = None;
        for attempt in 0..=cfg.retries {
            // Jittered exponential backoff between attempts (the first
            // never waits), keyed by chunk index so concurrent retriers
            // desynchronise. Cancel-aware: a cancellation mid-wait ends
            // the wait.
            if attempt > 0 {
                sleep_cancellable(cfg.backoff.delay_for(chunk, attempt), cancel);
                if cancel.is_cancelled() {
                    break;
                }
            }
            let injected = failpoints.check_keyed(SITE_CHUNK, chunk, attempt);
            let ctx = ChunkCtx {
                chunk,
                attempt,
                cancel,
                nan: injected.contains(&Failure::Nan),
                gauge: &cfg.gauge,
                units: &cfg.units,
            };
            match attempt_chunk(worker, &ctx, cfg.deadline, &injected) {
                Ok(value) => {
                    verdict = Some(ChunkReport::Done {
                        chunk,
                        value,
                        absorbed: std::mem::take(&mut absorbed),
                    });
                    break;
                }
                Err(fault) => absorbed.push(fault),
            }
        }
        let outcome = match verdict {
            Some(outcome) => outcome,
            // Cancelled mid-retry: the chunk neither succeeded nor
            // exhausted its budget — drop it silently; the
            // supervisor reports the run as `Cancelled`.
            None if cancel.is_cancelled() => break,
            None => {
                let last = absorbed.last().cloned().unwrap_or(TaskFault::Invalid {
                    chunk,
                    attempt: 0,
                    detail: "no attempt ran".into(),
                });
                ChunkReport::Failed {
                    chunk,
                    attempts: cfg.retries + 1,
                    last,
                    absorbed: std::mem::take(&mut absorbed),
                }
            }
        };
        let failed = matches!(outcome, ChunkReport::Failed { .. });
        if !report(outcome) || failed {
            break;
        }
    }
}

/// Runs chunks `0..total` under supervision and assembles their results
/// in chunk order.
///
/// `restored` carries results recovered from a checkpoint journal; those
/// chunks are not recomputed. `worker` computes one chunk (it must be a
/// pure function of the chunk index for the determinism guarantee to
/// hold). `observe` runs on the calling thread for every chunk computed
/// *this run*, in completion order — it is the journal append hook; an
/// error from it aborts the run.
///
/// When `cfg.jobs`, clamped to the pending chunks, is at most 1, the
/// chunks run in order on the calling thread: no thread or channel is
/// made, and each chunk's report (journal append, progress, cancellation
/// check) is handled before the next chunk starts. At ≥ 2 jobs the chunks
/// run on scoped worker threads that send their reports to the calling
/// thread; if no worker can be spawned, the run falls back to the
/// calling thread.
///
/// # Errors
///
/// [`RuntimeError::ChunkFailed`] when a chunk exhausts `1 + retries`
/// attempts; [`RuntimeError::Cancelled`] when the cancel token fires
/// before completion; any error `observe` returns.
pub fn run_chunks<T, W, O>(
    cfg: &PoolConfig,
    total: u64,
    restored: BTreeMap<u64, T>,
    worker: W,
    mut observe: O,
) -> Result<RunReport<T>, RuntimeError>
where
    T: Send,
    W: Fn(&ChunkCtx<'_>) -> Result<T, String> + Sync,
    O: FnMut(u64, &T) -> Result<(), RuntimeError>,
{
    install_quiet_panic_hook();
    let started = Instant::now();
    let pending: Vec<u64> = (0..total).filter(|i| !restored.contains_key(i)).collect();
    let restored_count = restored.len() as u64;
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    for (chunk, value) in restored {
        // Out-of-range journal entries were filtered at load; guard anyway.
        if let Some(slot) = slots.get_mut(chunk as usize) {
            *slot = Some(value);
        }
    }

    let jobs = cfg.jobs.max(1).min(pending.len().max(1));
    let next = AtomicU64::new(0);

    let mut absorbed_all: Vec<TaskFault> = Vec::new();
    let mut first_error: Option<RuntimeError> = None;
    let mut done = restored_count;
    let mut computed = 0u64;

    // The supervisor, on this thread: assembles results, journals, tracks
    // faults, one chunk report at a time. As a claim loop's report sink it
    // is always there to receive, so it returns true.
    let mut supervise = |report: ChunkReport<T>| {
        match report {
            ChunkReport::Done {
                chunk,
                value,
                absorbed,
            } => {
                obs::incr(obs::Counter::PoolChunks);
                obs::count(obs::Counter::PoolFaults, absorbed.len() as u64);
                // Every absorbed fault on a chunk that eventually
                // succeeded implies one re-attempt ran.
                obs::count(obs::Counter::PoolRetries, absorbed.len() as u64);
                absorbed_all.extend(absorbed);
                // A completion racing a cancellation is dropped, not
                // flushed: once the run is cancelled its merge will never
                // consume this chunk, so journaling it would leave an
                // entry a later resume of a *different* configuration
                // could mistake for durable state.
                if cfg.cancel.is_cancelled() {
                    return true;
                }
                if first_error.is_none() {
                    if let Err(e) = observe(chunk, &value) {
                        first_error = Some(e);
                        cfg.cancel.cancel();
                    }
                }
                if let Some(slot) = slots.get_mut(chunk as usize) {
                    *slot = Some(value);
                }
                done += 1;
                computed += 1;
                if let Some(progress) = &cfg.progress {
                    progress(&Progress {
                        done,
                        total,
                        elapsed: started.elapsed(),
                        gauge: cfg.gauge.get(),
                        units: cfg.units.get(),
                    });
                }
            }
            ChunkReport::Failed {
                chunk,
                attempts,
                last,
                absorbed,
            } => {
                obs::count(obs::Counter::PoolFaults, absorbed.len() as u64);
                absorbed_all.extend(absorbed);
                if first_error.is_none() {
                    first_error = Some(RuntimeError::ChunkFailed {
                        chunk,
                        attempts,
                        last,
                    });
                }
                cfg.cancel.cancel();
            }
        }
        true
    };

    let mut spawned = 0;
    if jobs > 1 {
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<ChunkReport<T>>();
            for worker_id in 0..jobs {
                let tx = tx.clone();
                let (pending, next, worker) = (&pending, &next, &worker);
                let builder =
                    std::thread::Builder::new().name(format!("ctsdac-worker-{worker_id}"));
                // Spawn failure is a resource error; degrade to fewer
                // workers rather than dying.
                let claim = move || claim_loop(cfg, pending, next, worker, |r| tx.send(r).is_ok());
                if builder.spawn_scoped(scope, claim).is_ok() {
                    spawned += 1;
                }
            }
            drop(tx);
            for report in rx {
                supervise(report);
            }
        });
    }
    if spawned == 0 {
        // One job, or no worker could be spawned: claim the chunks on
        // this thread, each report handled before the next chunk starts.
        claim_loop(cfg, &pending, &next, &worker, &mut supervise);
    }

    if let Some(e) = first_error {
        return Err(e);
    }
    if slots.iter().any(Option::is_none) {
        // Claiming stopped before finishing: cancellation.
        return Err(RuntimeError::Cancelled { done, total });
    }
    absorbed_all.sort_by_key(|f| f.chunk());
    Ok(RunReport {
        results: slots.into_iter().flatten().collect(),
        faults: absorbed_all,
        restored: restored_count,
        computed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_worker(ctx: &ChunkCtx<'_>) -> Result<u64, String> {
        Ok(ctx.chunk * 10)
    }

    fn armed(spec: &str) -> Arc<Registry> {
        Registry::armed(spec, 0).expect("failpoint spec")
    }

    fn no_observe(_: u64, _: &u64) -> Result<(), RuntimeError> {
        Ok(())
    }

    #[test]
    fn assembles_results_in_chunk_order() {
        for jobs in [1, 4] {
            let cfg = PoolConfig::with_jobs(jobs);
            let report =
                run_chunks(&cfg, 17, BTreeMap::new(), echo_worker, no_observe).expect("runs");
            assert_eq!(report.results, (0..17).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(report.computed, 17);
            assert_eq!(report.restored, 0);
            assert!(report.faults.is_empty());
        }
    }

    #[test]
    fn restored_chunks_are_not_recomputed() {
        let cfg = PoolConfig::with_jobs(2);
        let restored: BTreeMap<u64, u64> = [(2, 999), (5, 888)].into();
        let computed = AtomicU64::new(0);
        let report = run_chunks(
            &cfg,
            8,
            restored,
            |ctx| {
                computed.fetch_add(1, Ordering::SeqCst);
                echo_worker(ctx)
            },
            no_observe,
        )
        .expect("runs");
        // Journal values win over recomputation (they are authoritative).
        assert_eq!(report.results[2], 999);
        assert_eq!(report.results[5], 888);
        assert_eq!(report.results[3], 30);
        assert_eq!(report.restored, 2);
        assert_eq!(report.computed, 6);
        assert_eq!(computed.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn panics_are_isolated_and_retried() {
        let fp = armed("panic@pool.chunk[3]:1,panic@pool.chunk[7]:1");
        let mut cfg = PoolConfig::with_jobs(4);
        cfg.failpoints = Some(fp.clone());
        let report =
            run_chunks(&cfg, 10, BTreeMap::new(), echo_worker, no_observe).expect("supervised");
        // Results identical to a fault-free run.
        assert_eq!(report.results, (0..10).map(|i| i * 10).collect::<Vec<_>>());
        // Both faults were absorbed and reported.
        assert_eq!(report.faults.len(), 2);
        assert!(matches!(
            report.faults[0],
            TaskFault::Panic { chunk: 3, .. }
        ));
        assert!(matches!(
            report.faults[1],
            TaskFault::Panic { chunk: 7, .. }
        ));
        assert_eq!(fp.fired(SITE_CHUNK), 2);
    }

    #[test]
    fn retry_exhaustion_is_a_typed_error() {
        let mut cfg = PoolConfig::with_jobs(2);
        cfg.retries = 1;
        cfg.failpoints = Some(armed("panic@pool.chunk[2]"));
        let err = run_chunks(&cfg, 5, BTreeMap::new(), echo_worker, no_observe)
            .expect_err("chunk 2 cannot succeed");
        match err {
            RuntimeError::ChunkFailed {
                chunk,
                attempts,
                last,
            } => {
                assert_eq!(chunk, 2);
                assert_eq!(attempts, 2);
                assert!(matches!(last, TaskFault::Panic { .. }));
            }
            other => panic!("expected ChunkFailed, got {other}"),
        }
    }

    #[test]
    fn deadline_overrun_is_detected_and_retried() {
        let mut cfg = PoolConfig::with_jobs(2);
        cfg.deadline = Some(Duration::from_millis(20));
        cfg.failpoints = Some(armed("delay=60@pool.chunk[1]:1"));
        let report =
            run_chunks(&cfg, 4, BTreeMap::new(), echo_worker, no_observe).expect("supervised");
        assert_eq!(report.results, vec![0, 10, 20, 30]);
        assert!(
            matches!(
                report.faults.as_slice(),
                [TaskFault::DeadlineExceeded { chunk: 1, .. }]
            ),
            "{:?}",
            report.faults
        );
    }

    #[test]
    fn invalid_results_are_retried() {
        let mut cfg = PoolConfig::with_jobs(2);
        cfg.failpoints = Some(armed("nan@pool.chunk[0]:1"));
        let worker = |ctx: &ChunkCtx<'_>| -> Result<u64, String> {
            if ctx.injected_nan() {
                return Err("injected NaN".into());
            }
            Ok(ctx.chunk + 1)
        };
        let report = run_chunks(&cfg, 3, BTreeMap::new(), worker, no_observe).expect("supervised");
        assert_eq!(report.results, vec![1, 2, 3]);
        assert!(matches!(
            report.faults.as_slice(),
            [TaskFault::Invalid { chunk: 0, .. }]
        ));
    }

    #[test]
    fn cancellation_reports_progress() {
        let cfg = PoolConfig::sequential();
        cfg.cancel.cancel();
        let err = run_chunks(&cfg, 6, BTreeMap::new(), echo_worker, no_observe)
            .expect_err("cancelled before start");
        assert_eq!(err, RuntimeError::Cancelled { done: 0, total: 6 });
    }

    #[test]
    fn observe_sees_every_computed_chunk_once() {
        let cfg = PoolConfig::with_jobs(3);
        let mut seen: Vec<u64> = Vec::new();
        let report = run_chunks(
            &cfg,
            9,
            BTreeMap::from([(4u64, 40u64)]),
            echo_worker,
            |chunk, value| {
                assert_eq!(*value, chunk * 10);
                seen.push(chunk);
                Ok(())
            },
        )
        .expect("runs");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 5, 6, 7, 8]);
        assert_eq!(report.restored, 1);
    }

    #[test]
    fn observe_error_aborts_the_run() {
        let cfg = PoolConfig::with_jobs(2);
        let err = run_chunks(&cfg, 50, BTreeMap::new(), echo_worker, |chunk, _| {
            if chunk == 0 || chunk == 30 {
                // Simulate a journal write failure on some chunk.
                Err(RuntimeError::Driver {
                    detail: "disk full".into(),
                })
            } else {
                Ok(())
            }
        })
        .expect_err("observe failed");
        assert!(matches!(err, RuntimeError::Driver { .. }), "{err}");
    }

    #[test]
    fn progress_reaches_total_and_gauge_propagates() {
        let mut cfg = PoolConfig::with_jobs(2);
        let seen = Arc::new(Mutex::new(Vec::<(u64, Option<f64>)>::new()));
        let sink = seen.clone();
        cfg.progress = Some(Arc::new(move |p: &Progress| {
            sink.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((p.done, p.gauge));
        }));
        let worker = |ctx: &ChunkCtx<'_>| -> Result<u64, String> {
            ctx.publish_gauge(ctx.chunk as f64, f64::max);
            Ok(ctx.chunk)
        };
        let report = run_chunks(&cfg, 6, BTreeMap::new(), worker, no_observe).expect("runs");
        assert_eq!(report.results.len(), 6);
        let seen = seen.lock().unwrap_or_else(|e| e.into_inner());
        assert_eq!(seen.len(), 6);
        assert_eq!(seen.last().map(|(d, _)| *d), Some(6));
        // The final gauge is the max over all published values.
        assert_eq!(cfg.gauge.get(), Some(5.0));
    }

    #[test]
    fn results_identical_across_jobs_and_faults() {
        // The determinism invariant at pool level: same chunk->result
        // mapping regardless of parallelism and injected faults.
        let baseline = run_chunks(
            &PoolConfig::sequential(),
            32,
            BTreeMap::new(),
            echo_worker,
            no_observe,
        )
        .expect("baseline")
        .results;
        for jobs in [2, 8] {
            let mut cfg = PoolConfig::with_jobs(jobs);
            cfg.failpoints = Some(armed(
                "panic@pool.chunk[0]:1,panic@pool.chunk[13]:1,delay=5@pool.chunk[5]:1,nan@pool.chunk[31]:1",
            ));
            let report = run_chunks(
                &cfg,
                32,
                BTreeMap::new(),
                |ctx| {
                    if ctx.injected_nan() {
                        return Err("injected NaN".into());
                    }
                    echo_worker(ctx)
                },
                no_observe,
            )
            .expect("supervised");
            assert_eq!(report.results, baseline, "jobs = {jobs}");
        }
    }

    #[test]
    fn one_job_runs_every_chunk_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for jobs in [0, 1] {
            let cfg = PoolConfig {
                jobs,
                ..PoolConfig::sequential()
            };
            let threads = Mutex::new(Vec::new());
            let report = run_chunks(
                &cfg,
                6,
                BTreeMap::new(),
                |ctx| {
                    threads
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(std::thread::current().id());
                    echo_worker(ctx)
                },
                no_observe,
            )
            .expect("runs");
            assert_eq!(report.computed, 6);
            let threads = threads.into_inner().unwrap_or_else(|e| e.into_inner());
            assert_eq!(threads, vec![caller; 6], "jobs = {jobs}");
        }
    }

    #[test]
    fn one_job_observes_and_reports_each_chunk_before_the_next_starts() {
        #[derive(Debug, PartialEq)]
        enum Event {
            Body(u64),
            Observe(u64),
            Progress(u64),
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = PoolConfig::sequential();
        let sink = log.clone();
        cfg.progress = Some(Arc::new(move |p: &Progress| {
            sink.lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Event::Progress(p.done));
        }));
        let push = |e| log.lock().unwrap_or_else(|e| e.into_inner()).push(e);
        run_chunks(
            &cfg,
            4,
            BTreeMap::from([(1u64, 10u64)]),
            |ctx| {
                push(Event::Body(ctx.chunk));
                echo_worker(ctx)
            },
            |chunk, _| {
                push(Event::Observe(chunk));
                Ok(())
            },
        )
        .expect("runs");
        // Chunk 1 is restored, so `done` starts at 1 and skips it.
        let expected = [(0, 2), (2, 3), (3, 4)]
            .into_iter()
            .flat_map(|(chunk, done)| {
                [
                    Event::Body(chunk),
                    Event::Observe(chunk),
                    Event::Progress(done),
                ]
            })
            .collect::<Vec<_>>();
        assert_eq!(*log.lock().unwrap_or_else(|e| e.into_inner()), expected);
    }

    #[test]
    fn a_nested_one_job_run_keeps_the_outer_attempt_flag() {
        let cfg = PoolConfig::sequential();
        let report = run_chunks(
            &cfg,
            2,
            BTreeMap::new(),
            |ctx| {
                let inner = run_chunks(&cfg, 3, BTreeMap::new(), echo_worker, no_observe)
                    .map_err(|e| e.to_string())?;
                assert!(IN_ATTEMPT.with(Cell::get), "nested run cleared the flag");
                Ok(ctx.chunk + inner.results.iter().sum::<u64>())
            },
            no_observe,
        )
        .expect("runs");
        assert_eq!(report.results, vec![30, 31]);
        assert!(!IN_ATTEMPT.with(Cell::get), "flag outlived the attempts");
    }

    #[test]
    fn eta_is_sane() {
        let p = Progress {
            done: 5,
            total: 10,
            elapsed: Duration::from_secs(5),
            gauge: None,
            units: 0,
        };
        let eta = p.eta().expect("mid-run eta");
        assert!((eta.as_secs_f64() - 5.0).abs() < 1e-9);
        let done = Progress { done: 10, ..p };
        assert_eq!(done.eta(), Some(Duration::ZERO));
        let fresh = Progress { done: 0, ..p };
        assert_eq!(fresh.eta(), None);
    }

    #[test]
    fn units_accumulate_across_chunks() {
        let p = Progress {
            done: 1,
            total: 2,
            elapsed: Duration::from_secs(2),
            gauge: None,
            units: 0,
        };
        assert_eq!(p.units_per_sec(), None);
        let busy = Progress { units: 40, ..p };
        let rate = busy.units_per_sec().expect("nonzero units and elapsed");
        assert!((rate - 20.0).abs() < 1e-9);

        let cfg = PoolConfig {
            jobs: 4,
            ..PoolConfig::default()
        };
        let worker = |ctx: &ChunkCtx<'_>| -> Result<u64, String> {
            ctx.add_units(5);
            Ok(ctx.chunk)
        };
        let report = run_chunks(&cfg, 8, BTreeMap::new(), worker, no_observe).expect("runs");
        assert_eq!(report.results.len(), 8);
        assert_eq!(cfg.units.get(), 40);
    }

    #[test]
    fn errors_display_one_line() {
        let faults = [
            TaskFault::Panic {
                chunk: 1,
                attempt: 0,
                message: "boom".into(),
            },
            TaskFault::DeadlineExceeded {
                chunk: 2,
                attempt: 1,
                elapsed_ms: 100,
                deadline_ms: 50,
            },
            TaskFault::Invalid {
                chunk: 3,
                attempt: 2,
                detail: "NaN".into(),
            },
        ];
        for fault in &faults {
            let msg = format!("{fault}");
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
        let errs = [
            RuntimeError::ChunkFailed {
                chunk: 1,
                attempts: 3,
                last: faults[0].clone(),
            },
            RuntimeError::Cancelled { done: 3, total: 9 },
            RuntimeError::Driver { detail: "x".into() },
        ];
        for e in &errs {
            let msg = format!("{e}");
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
    }
}
