//! Zero-dependency observability for the ctsdac sizing flow.
//!
//! Three cooperating pieces, all behind a single atomic enable word so
//! that compiled-in-but-disabled instrumentation costs one relaxed load
//! and a predicted branch per hook:
//!
//! * **Counters / histograms** — a fixed-slot registry of relaxed
//!   [`AtomicU64`]s ([`Counter`], [`HistogramId`]). Every slot is
//!   classified *deterministic* (value depends only on the work
//!   performed: solver iterations, sweep points, MC trials, …) or
//!   *nondeterministic* (value depends on scheduling, retries or the
//!   clock: pool chunk accounting, checkpoint flushes, span timings).
//! * **Spans** — hierarchical RAII trace scopes ([`span`]) with
//!   monotonic ([`Instant`]) timing, a thread-local depth, an optional
//!   live sink to stderr (`--trace=json|human`) and aggregated
//!   per-name statistics.
//! * **Snapshot** — [`snapshot`] renders the registry as a small JSON
//!   document with a hard determinism contract: the `"deterministic"`
//!   object contains **no wall-clock values** and is byte-identical
//!   for byte-identical work, regardless of `--jobs`, machine or run
//!   (absent absorbed faults, which re-run chunks and therefore
//!   re-count their work). CI diffs that section directly.
//!
//! The crate is dependency-free and panic-free in library code; the
//! span-statistics mutex recovers from poisoning instead of
//! propagating it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global enable state
// ---------------------------------------------------------------------------

/// Bit 0 of [`STATE`]: the metrics registry records counts.
const METRICS_BIT: u8 = 0b001;
/// Bits 1–2 of [`STATE`]: live trace sink (0 = off, 1 = json, 2 = human).
const TRACE_SHIFT: u8 = 1;
const TRACE_MASK: u8 = 0b110;

/// Packed enable word; `0` means every hook is a single relaxed load.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Live trace output format for span enter/exit events on stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// One JSON object per line: `{"ev":"enter","span":…,"depth":…}`.
    Json,
    /// Indented human-readable lines: `-> name` / `<- name 1.234ms`.
    Human,
}

/// Enable or disable the metrics registry (counters, histograms and
/// aggregated span statistics).
pub fn set_metrics(on: bool) {
    let mut s = STATE.load(Ordering::Relaxed);
    loop {
        let next = if on { s | METRICS_BIT } else { s & !METRICS_BIT };
        match STATE.compare_exchange_weak(s, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(cur) => s = cur,
        }
    }
}

/// Whether the metrics registry is currently recording.
pub fn metrics_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & METRICS_BIT != 0
}

/// Select the live trace sink (`None` disables tracing).
pub fn set_trace(mode: Option<TraceMode>) {
    let bits = match mode {
        None => 0,
        Some(TraceMode::Json) => 1,
        Some(TraceMode::Human) => 2,
    } << TRACE_SHIFT;
    let mut s = STATE.load(Ordering::Relaxed);
    loop {
        let next = (s & !TRACE_MASK) | bits;
        match STATE.compare_exchange_weak(s, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(cur) => s = cur,
        }
    }
}

/// The currently selected live trace sink, if any.
pub fn trace_mode() -> Option<TraceMode> {
    trace_of(STATE.load(Ordering::Relaxed))
}

fn trace_of(state: u8) -> Option<TraceMode> {
    match (state & TRACE_MASK) >> TRACE_SHIFT {
        1 => Some(TraceMode::Json),
        2 => Some(TraceMode::Human),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Fixed registry of event counters.
///
/// The enum order is the snapshot order; deterministic counters (see
/// [`Counter::deterministic`]) appear in the snapshot's
/// `"deterministic"` object, the rest under `"nondeterministic"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// DC operating-point solves attempted (warm or cold entry).
    DcSolves,
    /// Total Newton/bisection iterations across all DC solves.
    DcIterations,
    /// DC solves converged by the warm-started Newton fast path.
    DcWarmHits,
    /// DC solves that escalated past the first full-Newton ladder rung
    /// (damped Newton or bisection finished the job).
    DcEscalations,
    /// DC solves that exhausted the retry ladder (typed error returned).
    DcFailures,
    /// Two-pole settling-time solves (bracketed Newton).
    SettlingSolves,
    /// Design-space grid points evaluated (feasible or not).
    SweepPoints,
    /// Eq. (11) evaluations of the cascoded volume search: grid points
    /// under the overdrive headroom, admissible or not.
    CascodePoints,
    /// Monte-Carlo trials executed (saturation yield, either driver).
    McTrials,
    /// Yield-engine trials classified (screened or exact).
    YieldTrials,
    /// Yield-engine trials decided by the certified screen alone.
    YieldScreened,
    /// Yield-engine trials that fell back to the exact fused pass.
    YieldFallbacks,
    /// Yield-engine code-equivalents scanned (work proxy).
    YieldCodesScanned,
    /// Worker-pool chunks completed (includes re-runs after faults).
    PoolChunks,
    /// Faults absorbed by the supervisor (panic / deadline / cancel).
    PoolFaults,
    /// Chunks re-enqueued for retry after an absorbed fault.
    PoolRetries,
    /// Checkpoint journal records flushed to disk.
    CheckpointFlushes,
    /// Chunks restored from a checkpoint journal on resume.
    CheckpointRestored,
    /// Corrupt / torn journal lines dropped on resume.
    CheckpointDropped,
    /// Service requests admitted past the admission controller.
    ServiceAdmitted,
    /// Service requests shed (429) by the admission controller.
    ServiceShed,
    /// Service requests answered from the content-addressed result cache.
    ServiceCacheHits,
    /// Service requests that missed the cache and ran the flow.
    ServiceCacheMisses,
    /// Circuit-breaker transitions into the open state.
    ServiceBreakerTrips,
    /// Service requests that exhausted their deadline (504).
    ServiceDeadlineExceeded,
    /// High-water mark of bytes resident in the service result cache.
    ServiceCacheBytesHighWater,
    /// Result-store records appended (puts + evict tombstones).
    StoreRecordsAppended,
    /// Result-store records rebuilt into the cache by the recovery scan.
    StoreRecordsRecovered,
    /// Corrupt / torn result-store records discarded by the recovery scan.
    StoreRecordsDiscarded,
    /// Result-store batched fsyncs issued by the flusher.
    StoreFsyncs,
    /// Result-store compaction passes completed.
    StoreCompactions,
    /// Result-store segment files currently on disk.
    StoreSegments,
}

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; 32] = [
        Counter::DcSolves,
        Counter::DcIterations,
        Counter::DcWarmHits,
        Counter::DcEscalations,
        Counter::DcFailures,
        Counter::SettlingSolves,
        Counter::SweepPoints,
        Counter::CascodePoints,
        Counter::McTrials,
        Counter::YieldTrials,
        Counter::YieldScreened,
        Counter::YieldFallbacks,
        Counter::YieldCodesScanned,
        Counter::PoolChunks,
        Counter::PoolFaults,
        Counter::PoolRetries,
        Counter::CheckpointFlushes,
        Counter::CheckpointRestored,
        Counter::CheckpointDropped,
        Counter::ServiceAdmitted,
        Counter::ServiceShed,
        Counter::ServiceCacheHits,
        Counter::ServiceCacheMisses,
        Counter::ServiceBreakerTrips,
        Counter::ServiceDeadlineExceeded,
        Counter::ServiceCacheBytesHighWater,
        Counter::StoreRecordsAppended,
        Counter::StoreRecordsRecovered,
        Counter::StoreRecordsDiscarded,
        Counter::StoreFsyncs,
        Counter::StoreCompactions,
        Counter::StoreSegments,
    ];

    /// Dotted registry name, used verbatim as the snapshot JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DcSolves => "circuit.dc.solves",
            Counter::DcIterations => "circuit.dc.iterations",
            Counter::DcWarmHits => "circuit.dc.warm_hits",
            Counter::DcEscalations => "circuit.dc.escalations",
            Counter::DcFailures => "circuit.dc.failures",
            Counter::SettlingSolves => "circuit.settling.solves",
            Counter::SweepPoints => "core.sweep.points",
            Counter::CascodePoints => "core.cascode.points",
            Counter::McTrials => "mc.trials",
            Counter::YieldTrials => "dac.yield.trials",
            Counter::YieldScreened => "dac.yield.screened",
            Counter::YieldFallbacks => "dac.yield.fallbacks",
            Counter::YieldCodesScanned => "dac.yield.codes_scanned",
            Counter::PoolChunks => "pool.chunks",
            Counter::PoolFaults => "pool.faults_absorbed",
            Counter::PoolRetries => "pool.retries",
            Counter::CheckpointFlushes => "checkpoint.flushes",
            Counter::CheckpointRestored => "checkpoint.restored_chunks",
            Counter::CheckpointDropped => "checkpoint.dropped_lines",
            Counter::ServiceAdmitted => "service.admitted",
            Counter::ServiceShed => "service.shed",
            Counter::ServiceCacheHits => "service.cache.hits",
            Counter::ServiceCacheMisses => "service.cache.misses",
            Counter::ServiceBreakerTrips => "service.breaker.trips",
            Counter::ServiceDeadlineExceeded => "service.deadline_exceeded",
            Counter::ServiceCacheBytesHighWater => "service.cache.bytes_high_water",
            Counter::StoreRecordsAppended => "store.records_appended",
            Counter::StoreRecordsRecovered => "store.records_recovered",
            Counter::StoreRecordsDiscarded => "store.records_discarded",
            Counter::StoreFsyncs => "store.fsyncs",
            Counter::StoreCompactions => "store.compactions",
            Counter::StoreSegments => "store.segments",
        }
    }

    /// Whether the counter's value depends only on the work performed
    /// (seed + inputs), never on scheduling, retries or the clock.
    /// Service counters are load-dependent by nature (admission and
    /// caching react to concurrency), so they are all nondeterministic.
    pub fn deterministic(self) -> bool {
        !matches!(
            self,
            Counter::PoolChunks
                | Counter::PoolFaults
                | Counter::PoolRetries
                | Counter::CheckpointFlushes
                | Counter::CheckpointRestored
                | Counter::CheckpointDropped
                | Counter::ServiceAdmitted
                | Counter::ServiceShed
                | Counter::ServiceCacheHits
                | Counter::ServiceCacheMisses
                | Counter::ServiceBreakerTrips
                | Counter::ServiceDeadlineExceeded
                | Counter::ServiceCacheBytesHighWater
                | Counter::StoreRecordsAppended
                | Counter::StoreRecordsRecovered
                | Counter::StoreRecordsDiscarded
                | Counter::StoreFsyncs
                | Counter::StoreCompactions
                | Counter::StoreSegments
        )
    }
}

const COUNTER_ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; Counter::ALL.len()] = [COUNTER_ZERO; Counter::ALL.len()];

/// Add `n` to a counter (no-op while metrics are disabled).
#[inline]
pub fn count(c: Counter, n: u64) {
    if STATE.load(Ordering::Relaxed) & METRICS_BIT != 0 {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Add 1 to a counter (no-op while metrics are disabled).
#[inline]
pub fn incr(c: Counter) {
    count(c, 1);
}

/// Current value of a counter.
pub fn counter_value(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

/// Raise a counter to `v` if `v` exceeds its current value (no-op while
/// metrics are disabled). For gauges reported as high-water marks.
#[inline]
pub fn record_max(c: Counter, v: u64) {
    if STATE.load(Ordering::Relaxed) & METRICS_BIT != 0 {
        COUNTERS[c as usize].fetch_max(v, Ordering::Relaxed);
    }
}

/// Set a counter to `v` unconditionally (no-op while metrics are
/// disabled). For gauges that track a current level, e.g. segment count.
#[inline]
pub fn record_gauge(c: Counter, v: u64) {
    if STATE.load(Ordering::Relaxed) & METRICS_BIT != 0 {
        COUNTERS[c as usize].store(v, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Fixed registry of log2-bucketed histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Newton/bisection iterations per converged DC solve.
    DcIterationsPerSolve,
}

impl HistogramId {
    /// Every histogram, in snapshot order.
    pub const ALL: [HistogramId; 1] = [HistogramId::DcIterationsPerSolve];

    /// Dotted registry name; the snapshot key is `"hist.<name>"`.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::DcIterationsPerSolve => "circuit.dc.iterations_per_solve",
        }
    }

    /// Same contract as [`Counter::deterministic`].
    pub fn deterministic(self) -> bool {
        true
    }
}

/// Buckets per histogram: bucket `b` holds values `v` with
/// `ceil(log2(v + 1)) == b`, i.e. 0 → bucket 0, 1 → 1, 2–3 → 2,
/// 4–7 → 3, …; everything ≥ 2^62 lands in the last bucket.
const HIST_BUCKETS: usize = 64;
static HISTOGRAMS: [AtomicU64; HistogramId::ALL.len() * HIST_BUCKETS] =
    [COUNTER_ZERO; HistogramId::ALL.len() * HIST_BUCKETS];

/// The log2 bucket index for a recorded value.
pub fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize
}

/// The smallest value that lands in `bucket` (its inclusive lower edge).
pub fn bucket_floor(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        b => 1u64 << (b - 1).min(62),
    }
}

/// Record one observation (no-op while metrics are disabled).
#[inline]
pub fn record(h: HistogramId, value: u64) {
    if STATE.load(Ordering::Relaxed) & METRICS_BIT != 0 {
        HISTOGRAMS[h as usize * HIST_BUCKETS + bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Non-empty buckets of a histogram as `(bucket_index, count)` pairs.
pub fn histogram_buckets(h: HistogramId) -> Vec<(usize, u64)> {
    let base = h as usize * HIST_BUCKETS;
    (0..HIST_BUCKETS)
        .filter_map(|b| {
            let n = HISTOGRAMS[base + b].load(Ordering::Relaxed);
            (n > 0).then_some((b, n))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed enter/exit pairs.
    pub count: u64,
    /// Total nanoseconds across all completions.
    pub total_ns: u64,
    /// Longest single completion in nanoseconds.
    pub max_ns: u64,
}

static SPAN_STATS: Mutex<BTreeMap<&'static str, SpanStat>> = Mutex::new(BTreeMap::new());

fn span_stats_lock() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, SpanStat>> {
    // A worker panic while holding the lock poisons it; the map is
    // plain-old-data, so recover the guard instead of propagating.
    SPAN_STATS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// RAII guard for a trace span; created by [`span`], records on drop.
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
    depth: u32,
}

/// Open a hierarchical trace span.
///
/// While observability is fully disabled this returns an inert guard
/// (one relaxed load, no clock read). Otherwise the guard notes the
/// monotonic start time, bumps the thread-local depth, and on drop
/// feeds the aggregated statistics and (if enabled) the live stderr
/// trace sink.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let state = STATE.load(Ordering::Relaxed);
    if state == 0 {
        return SpanGuard { name, start: None, depth: 0 };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    match trace_of(state) {
        Some(TraceMode::Json) => {
            eprintln!("{{\"ev\":\"enter\",\"span\":\"{name}\",\"depth\":{depth}}}");
        }
        Some(TraceMode::Human) => {
            eprintln!("{:indent$}-> {name}", "", indent = 2 * depth as usize);
        }
        None => {}
    }
    SpanGuard { name, start: Some(Instant::now()), depth }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let state = STATE.load(Ordering::Relaxed);
        match trace_of(state) {
            Some(TraceMode::Json) => {
                eprintln!(
                    "{{\"ev\":\"exit\",\"span\":\"{}\",\"depth\":{},\"ns\":{ns}}}",
                    self.name, self.depth
                );
            }
            Some(TraceMode::Human) => {
                eprintln!(
                    "{:indent$}<- {} {:.3}ms",
                    "",
                    self.name,
                    ns as f64 / 1e6,
                    indent = 2 * self.depth as usize
                );
            }
            None => {}
        }
        if state & METRICS_BIT != 0 {
            let mut stats = span_stats_lock();
            let s = stats.entry(self.name).or_default();
            s.count += 1;
            s.total_ns = s.total_ns.saturating_add(ns);
            s.max_ns = s.max_ns.max(ns);
        }
    }
}

/// Aggregated statistics for every completed span, sorted by name.
pub fn span_stats() -> Vec<(&'static str, SpanStat)> {
    span_stats_lock().iter().map(|(&k, &v)| (k, v)).collect()
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Render the registry as a JSON document (schema `ctsdac-metrics-v1`).
///
/// Layout contract, relied on by `scripts/ci.sh`:
///
/// * one key per line, two-space indentation;
/// * the `"deterministic"` object comes first, lists every
///   deterministic counter (zeros included) in [`Counter::ALL`] order
///   followed by the deterministic histograms, and closes with the
///   only `  },` line in the document — so
///   `sed -n '/"deterministic"/,/^  },$/p'` extracts exactly the
///   deterministic section;
/// * no wall-clock, thread or scheduling values appear in the
///   deterministic section, so it is byte-identical across `--jobs`
///   settings for the same seed (absent absorbed faults, which re-run
///   and therefore re-count chunks of work).
pub fn snapshot() -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"ctsdac-metrics-v1\",\n");
    out.push_str("  \"deterministic\": {\n");
    let det: Vec<String> = Counter::ALL
        .iter()
        .filter(|c| c.deterministic())
        .map(|c| format!("    \"{}\": {}", c.name(), counter_value(*c)))
        .chain(
            HistogramId::ALL
                .iter()
                .filter(|h| h.deterministic())
                .map(|h| format!("    \"hist.{}\": {}", h.name(), hist_json(*h))),
        )
        .collect();
    out.push_str(&det.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str("  \"nondeterministic\": {\n");
    let mut nondet: Vec<String> = Counter::ALL
        .iter()
        .filter(|c| !c.deterministic())
        .map(|c| format!("    \"{}\": {}", c.name(), counter_value(*c)))
        .chain(
            HistogramId::ALL
                .iter()
                .filter(|h| !h.deterministic())
                .map(|h| format!("    \"hist.{}\": {}", h.name(), hist_json(*h))),
        )
        .collect();
    let spans = span_stats();
    let span_rows: Vec<String> = spans
        .iter()
        .map(|(name, s)| {
            format!(
                "      {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                s.count, s.total_ns, s.max_ns
            )
        })
        .collect();
    nondet.push(format!("    \"spans\": [\n{}\n    ]", span_rows.join(",\n")));
    out.push_str(&nondet.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

fn hist_json(h: HistogramId) -> String {
    let pairs: Vec<String> = histogram_buckets(h)
        .into_iter()
        .map(|(b, n)| format!("[{b}, {n}]"))
        .collect();
    format!("[{}]", pairs.join(", "))
}

/// Zero every counter and histogram and clear the span statistics.
///
/// Intended for benches (isolating instrumented timing passes) and
/// tests; enable flags are left untouched.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for b in HISTOGRAMS.iter() {
        b.store(0, Ordering::Relaxed);
    }
    span_stats_lock().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global state is shared across tests; serialize them.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn isolated() -> std::sync::MutexGuard<'static, ()> {
        let g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_trace(None);
        set_metrics(false);
        reset();
        g
    }

    #[test]
    fn disabled_hooks_record_nothing() {
        let _g = isolated();
        count(Counter::DcSolves, 7);
        record(HistogramId::DcIterationsPerSolve, 5);
        {
            let _s = span("test.disabled");
        }
        assert_eq!(counter_value(Counter::DcSolves), 0);
        assert!(histogram_buckets(HistogramId::DcIterationsPerSolve).is_empty());
        assert!(span_stats().is_empty());
    }

    #[test]
    fn counters_accumulate_when_enabled() {
        let _g = isolated();
        set_metrics(true);
        count(Counter::DcSolves, 3);
        incr(Counter::DcSolves);
        count(Counter::McTrials, 2000);
        assert_eq!(counter_value(Counter::DcSolves), 4);
        assert_eq!(counter_value(Counter::McTrials), 2000);
        set_metrics(false);
    }

    #[test]
    fn log2_buckets_partition_the_range() {
        let _g = isolated();
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Floors invert the bucketing at the lower edge.
        for b in 0..HIST_BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_floor(b)), b, "bucket {b}");
        }
    }

    #[test]
    fn histogram_records_per_bucket() {
        let _g = isolated();
        set_metrics(true);
        record(HistogramId::DcIterationsPerSolve, 1);
        record(HistogramId::DcIterationsPerSolve, 3);
        record(HistogramId::DcIterationsPerSolve, 3);
        record(HistogramId::DcIterationsPerSolve, 80);
        let buckets = histogram_buckets(HistogramId::DcIterationsPerSolve);
        assert_eq!(buckets, vec![(1, 1), (2, 2), (7, 1)]);
        set_metrics(false);
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let _g = isolated();
        set_metrics(true);
        {
            let _outer = span("test.outer");
            for _ in 0..3 {
                let _inner = span("test.inner");
            }
        }
        let stats = span_stats();
        let names: Vec<&str> = stats.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["test.inner", "test.outer"]);
        let inner = stats[0].1;
        let outer = stats[1].1;
        assert_eq!(inner.count, 3);
        assert_eq!(outer.count, 1);
        assert!(inner.max_ns <= inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns || outer.total_ns == 0);
        set_metrics(false);
    }

    #[test]
    fn snapshot_lists_every_counter_and_is_deterministic() {
        let _g = isolated();
        set_metrics(true);
        count(Counter::DcSolves, 11);
        count(Counter::PoolChunks, 4);
        record(HistogramId::DcIterationsPerSolve, 6);
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a, b, "snapshot must be a pure function of the registry");
        for c in Counter::ALL {
            assert!(a.contains(&format!("\"{}\":", c.name())), "missing {}", c.name());
        }
        assert!(a.contains("\"circuit.dc.solves\": 11"));
        assert!(a.contains("\"pool.chunks\": 4"));
        assert!(a.contains("\"hist.circuit.dc.iterations_per_solve\": [[3, 1]]"));
        set_metrics(false);
    }

    #[test]
    fn deterministic_section_excludes_scheduling_counters() {
        let _g = isolated();
        set_metrics(true);
        count(Counter::PoolChunks, 9);
        count(Counter::CheckpointFlushes, 2);
        {
            let _s = span("test.timing");
        }
        let snap = snapshot();
        let det_end = snap.find("\n  },\n").expect("deterministic close");
        let det = &snap[..det_end];
        let nondet = &snap[det_end..];
        for c in Counter::ALL {
            let key = format!("\"{}\":", c.name());
            if c.deterministic() {
                assert!(det.contains(&key), "{} should be deterministic", c.name());
            } else {
                assert!(!det.contains(&key), "{} leaked into det section", c.name());
                assert!(nondet.contains(&key), "{} missing from nondet", c.name());
            }
        }
        assert!(!det.contains("_ns"), "no wall-clock values in the deterministic section");
        assert!(nondet.contains("\"spans\": ["));
        set_metrics(false);
    }

    #[test]
    fn snapshot_is_well_formed_json() {
        let _g = isolated();
        set_metrics(true);
        count(Counter::SweepPoints, 5);
        {
            let _s = span("test.json");
        }
        let snap = snapshot();
        assert_json_balanced(&snap);
        set_metrics(false);
    }

    /// Minimal structural JSON check: quotes pair up, braces/brackets
    /// balance and close in order, and the document is one value.
    fn assert_json_balanced(s: &str) {
        let mut stack = Vec::new();
        let mut in_str = false;
        let mut escape = false;
        for ch in s.chars() {
            if in_str {
                if escape {
                    escape = false;
                } else if ch == '\\' {
                    escape = true;
                } else if ch == '"' {
                    in_str = false;
                }
                continue;
            }
            match ch {
                '"' => in_str = true,
                '{' => stack.push('}'),
                '[' => stack.push(']'),
                '}' | ']' => assert_eq!(stack.pop(), Some(ch), "mismatched close {ch}"),
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string");
        assert!(stack.is_empty(), "unclosed scopes: {stack:?}");
    }

    #[test]
    fn reset_clears_registry_not_flags() {
        let _g = isolated();
        set_metrics(true);
        count(Counter::DcSolves, 5);
        record(HistogramId::DcIterationsPerSolve, 2);
        {
            let _s = span("test.reset");
        }
        reset();
        assert_eq!(counter_value(Counter::DcSolves), 0);
        assert!(histogram_buckets(HistogramId::DcIterationsPerSolve).is_empty());
        assert!(span_stats().is_empty());
        assert!(metrics_enabled(), "reset must not touch enable flags");
        set_metrics(false);
    }

    #[test]
    fn trace_mode_roundtrip() {
        let _g = isolated();
        assert_eq!(trace_mode(), None);
        set_trace(Some(TraceMode::Json));
        assert_eq!(trace_mode(), Some(TraceMode::Json));
        assert!(!metrics_enabled(), "trace flag must not imply metrics");
        set_trace(Some(TraceMode::Human));
        assert_eq!(trace_mode(), Some(TraceMode::Human));
        set_trace(None);
        assert_eq!(trace_mode(), None);
    }
}
