//! The traced run's span recorder and counter reader.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer, and kept in memory until the run ends. A span may be
//! *replayed*: a layer call the program makes internally (the search
//! inside `run_flow`, the HTTP/cache/engine steps inside the daemon) is
//! repeated after the timed pass with the same inputs, and its span is
//! filed under the span of the operation that made the original call.
//! Self time is a span's duration minus its children's durations, so the
//! self time of a `dacd` request span is its client latency minus the
//! in-process layer times of the same request: the time it waited.

use ctsdac_obs::{counter_value, Counter};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    replayed: bool,
}

/// In-memory span recorder. A disabled recorder records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, in milliseconds (0 without spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.open(name, parent, request, false)
    }

    /// Opens a replayed span (see the module docs).
    pub fn begin_replay(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        self.open(name, Some(parent), request, true)
    }

    fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        replayed: bool,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
            replayed,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if self.on {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Runs `f` inside a replayed span filed under `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin_replay(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    fn durations(&self) -> Vec<u64> {
        self.spans.iter().map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Self time of every span: duration minus the children's durations.
    fn self_times(&self) -> Vec<u64> {
        let dur = self.durations();
        let mut children = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p] += dur[i];
            }
        }
        dur.iter()
            .zip(&children)
            .map(|(&d, &c)| d.saturating_sub(c))
            .collect()
    }

    /// Self times of every span named `name`, in milliseconds.
    pub fn self_ms_of(&self, name: &str) -> Vec<f64> {
        self.self_ms_where(name, |_| true)
    }

    /// Self times of the spans named `name` whose request id passes
    /// `keep`, in milliseconds.
    pub fn self_ms_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        let st = self.self_times();
        self.spans
            .iter()
            .zip(&st)
            .filter(|(s, _)| s.name == name && keep(s.request))
            .map(|(_, &t)| t as f64 / 1e6)
            .collect()
    }

    /// Ids of the spans named `name`, in recording order.
    pub fn ids_of(&self, name: &str) -> Vec<SpanId> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .collect()
    }

    /// Count and total self time per span name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.self_ns += t;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let st = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"replayed\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns, st[i], s.replayed
            )?;
        }
        out.flush()
    }
}

/// A snapshot of every `ctsdac_obs` counter.
#[derive(Debug, Clone, Copy)]
pub struct Counters([u64; Counter::ALL.len()]);

impl Counters {
    pub fn now() -> Self {
        let mut v = [0u64; Counter::ALL.len()];
        for (slot, c) in v.iter_mut().zip(Counter::ALL) {
            *slot = counter_value(c);
        }
        Self(v)
    }

    /// Counts added since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut v = [0u64; Counter::ALL.len()];
        for (i, slot) in v.iter_mut().enumerate() {
            *slot = self.0[i].saturating_sub(earlier.0[i]);
        }
        Self(v)
    }

    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_replays() {
        let mut t = Tracer::new(true);
        let root = t.begin("op", None, 7);
        std::thread::sleep(std::time::Duration::from_millis(4));
        t.end(root);
        t.replay("layer", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.durations()[root] as f64 / 1e6;
        let child = t.self_ms_of("layer")[0];
        assert!(child >= 2.0);
        assert!((t.self_ms_of("op")[0] - (total - child)).abs() < 1e-9);
        assert_eq!(t.aggregate()["layer"].count, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("op", None, 0);
        t.end(id);
        assert!(t.aggregate().is_empty());
    }
}
