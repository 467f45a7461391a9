//! `ctsdac-perfbench` — the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload flow|inl-yield|dacd --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
//! [`E2E`] with obs disabled; `--trace 1` reports the per-layer metrics
//! of [`layer_metrics`] from a traced pass. Spans and a results record go
//! to `.bench_out/` under the working directory. See `README.md`.

mod dacd;
mod flow;
mod inputs;
mod ladder;
mod stats;
mod trace;

use ctsdac_obs::Counter;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them for its own
/// operation (a `dacsizer` run, a `dacd` request, a σ step of the ladder).
pub const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
];

/// Per-layer metrics with fixed names; [`layer_metrics`] appends the
/// per-σ-step ladder metrics. Counts are per workload operation; a
/// workload that never enters a layer reports 0 for it.
const LAYERS: [(&str, &str); 31] = [
    ("core.flow.other_ms", "ms"),
    ("core.explore.search_ms", "ms"),
    ("core.explore.points", "count"),
    ("circuit.dc.solves", "count"),
    ("circuit.dc.iters_per_solve", "count"),
    ("core.cascode.search_ms", "ms"),
    ("core.cascode.points", "count"),
    ("core.validate.yield_check_ms", "ms"),
    ("core.validate.trials", "count"),
    ("runtime.pool.chunks", "count"),
    ("service.http.read_us", "us"),
    ("service.http.write_us", "us"),
    ("service.protocol.parse_us", "us"),
    ("service.admission.admit_us", "us"),
    ("service.cache.claim_us", "us"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.shed", "count"),
    ("service.engine.sweep_ms", "ms"),
    ("service.engine.sizing_ms", "ms"),
    ("service.engine.yield_ms", "ms"),
    ("service.server.wait_ms_p50", "ms"),
    ("service.server.wait_ms_p90", "ms"),
    ("service.server.stalled_share", "ratio"),
    ("store.put_us", "us"),
    ("store.recovery_ms", "ms"),
    ("store.records_recovered", "count"),
    ("store.records_appended", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.samples", "count"),
    ("bench.percentile_straddles", "count"),
];

/// Every per-layer metric, in report order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    v.extend(ladder::step_metrics());
    v
}

pub const WORKLOADS: [&str; 3] = ["flow", "inl-yield", "dacd"];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where spans, the results record and the daemon's store go.
    pub out_dir: PathBuf,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Timed operations.
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Free-form facts for the results record (config, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Adds `setup_s`, `ops_per_s`, `op_ms_p50`, `op_ms_p90` and the
    /// straddle count from a timed pass. A percentile the helper refuses
    /// is a benchmark defect, reported as a failed run.
    pub fn set_e2e(&mut self, setup_s: f64, pass: &Pass) {
        self.set("setup_s", setup_s);
        self.set("ops_per_s", pass.ops_per_s());
        let mut sorted = pass.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let ventiles: Vec<String> = (1..20)
            .map(|k| format!("{:.3}", sorted[k * sorted.len() / 20]))
            .collect();
        self.note(format!("latency ventiles (ms): {}", ventiles.join(" ")));
        match stats::Latency::of(&pass.latencies_ms) {
            Ok(l) => {
                self.set("op_ms_p50", l.p50.value);
                self.set("op_ms_p90", l.p90.value);
                self.set("bench.percentile_straddles", l.straddles() as f64);
                self.note(format!(
                    "latency: {} samples, p50 {:.4} ms ({} beyond{}), p90 {:.4} ms ({} beyond{})",
                    l.samples,
                    l.p50.value,
                    l.p50.beyond,
                    if l.p50.straddles { ", STRADDLES" } else { "" },
                    l.p90.value,
                    l.p90.beyond,
                    if l.p90.straddles { ", STRADDLES" } else { "" },
                ));
            }
            Err(e) => {
                self.failed += 1;
                self.note(format!("percentile refused: {e:?}"));
            }
        }
    }
}

/// Latencies of one timed pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
    /// Work units done (ops, or trials for the ladder).
    pub units: f64,
}

impl Pass {
    pub fn ops_per_s(&self) -> f64 {
        self.units / self.elapsed_s
    }

    pub fn mean_ms(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / self.latencies_ms.len().max(1) as f64
    }
}

/// Repeats `op` in whole cycles of `cycle` operations until `seconds`
/// have passed and at least [`stats::MIN_SAMPLES`] operations ran.
/// `op(i)` returns the latency of operation `i` in ms.
pub fn timed_cycles(seconds: f64, cycle: usize, mut op: impl FnMut(usize) -> f64) -> Pass {
    let t0 = Instant::now();
    let mut pass = Pass::default();
    let mut i = 0usize;
    loop {
        for _ in 0..cycle {
            pass.latencies_ms.push(op(i));
            i += 1;
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= seconds && pass.latencies_ms.len() >= stats::MIN_SAMPLES {
            pass.elapsed_s = elapsed;
            pass.units = pass.latencies_ms.len() as f64;
            return pass;
        }
    }
}

/// Median wall time of `reps` runs of a set-up routine, in seconds.
pub fn median_setup(reps: usize, mut setup: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            setup();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Trace overhead: the traced pass's mean latency over the untraced
/// pass's, minus one.
pub fn trace_overhead(untraced: &Pass, traced: &Pass) -> f64 {
    traced.mean_ms() / untraced.mean_ms() - 1.0
}

/// Per-operation counts from the obs counters: solver, sweep,
/// Monte-Carlo and pool work, cache outcomes, sheds and store appends.
pub fn set_work_counts(out: &mut Outcome, c: &trace::Counters, ops: f64) {
    let solves = c.get(Counter::DcSolves) as f64;
    out.set(
        "core.explore.points",
        c.get(Counter::SweepPoints) as f64 / ops,
    );
    out.set("circuit.dc.solves", solves / ops);
    out.set(
        "circuit.dc.iters_per_solve",
        if solves > 0.0 {
            c.get(Counter::DcIterations) as f64 / solves
        } else {
            0.0
        },
    );
    out.set(
        "core.validate.trials",
        c.get(Counter::McTrials) as f64 / ops,
    );
    out.set(
        "runtime.pool.chunks",
        c.get(Counter::PoolChunks) as f64 / ops,
    );
    out.set(
        "service.cache.hits",
        c.get(Counter::ServiceCacheHits) as f64 / ops,
    );
    out.set(
        "service.cache.misses",
        c.get(Counter::ServiceCacheMisses) as f64 / ops,
    );
    out.set("service.shed", c.get(Counter::ServiceShed) as f64 / ops);
    out.set(
        "store.records_appended",
        c.get(Counter::StoreRecordsAppended) as f64 / ops,
    );
}

fn parse_args(argv: &[String]) -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(RunCfg {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir: PathBuf::from(".bench_out"),
    })
}

/// Renders the result line; every declared metric is present and no
/// other.
fn render_result(cfg: &RunCfg, out: &Outcome) -> Result<String, String> {
    let declared: Vec<(String, &str)> = if cfg.trace {
        layer_metrics()
    } else {
        E2E.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let layers = layer_metrics();
    if let Some(unknown) = out
        .metrics
        .keys()
        .find(|k| !E2E.iter().any(|(n, _)| n == k) && !layers.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload measured undeclared metric {unknown}"));
    }
    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer the workload never enters did no work.
            None if cfg.trace => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(",")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match cfg.workload.as_str() {
        "flow" => flow::run(&cfg),
        "inl-yield" => ladder::run(&cfg),
        _ => dacd::run(&cfg),
    };
    let line = match render_result(&cfg, &out) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let record = cfg.out_dir.join(format!(
        "{}-seed{}-trace{}.txt",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let mut text = format!(
        "workload {} seed {} seconds {} trace {}\ncpus {}\n",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for n in &out.notes {
        text.push_str(n);
        text.push('\n');
    }
    text.push_str(&line);
    text.push('\n');
    eprint!("{text}");
    if let Err(e) =
        std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&record, &text))
    {
        eprintln!("warning: cannot write {}: {e}", record.display());
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the repository's `BENCHMARK.json`
    /// declare the same names and units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(layer_metrics())
        {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + E2E.len() + layer_metrics().len()
        );
    }

    /// Obs counters are process-wide: the workload tests take turns.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `workload` traced at the minimum length and returns its
    /// outcome with the obs counter deltas of the whole run.
    fn traced(workload: &str) -> (Outcome, trace::Counters) {
        let _turn = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
        let cfg = RunCfg {
            workload: workload.into(),
            seed: 5,
            seconds: 0.01,
            trace: true,
            out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/test-out"),
        };
        let before = trace::Counters::now();
        let out = match workload {
            "flow" => flow::run(&cfg),
            "inl-yield" => ladder::run(&cfg),
            _ => dacd::run(&cfg),
        };
        let delta = trace::Counters::now().since(&before);
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.notes);
        assert!(render_result(&cfg, &out).is_ok());
        (out, delta)
    }

    #[test]
    fn flow_stays_out_of_service_store_and_yield_engine() {
        use ctsdac_obs::Counter::*;
        let (out, c) = traced("flow");
        for counter in [
            ServiceAdmitted,
            ServiceCacheHits,
            ServiceCacheMisses,
            StoreRecordsAppended,
            YieldTrials,
        ] {
            assert_eq!(c.get(counter), 0, "{counter:?}");
        }
        assert!(c.get(DcSolves) > 0 && out.metrics["core.cascode.points"] > 0.0);
    }

    #[test]
    fn inl_yield_does_no_dc_solves() {
        let (out, c) = traced("inl-yield");
        assert_eq!(c.get(ctsdac_obs::Counter::DcSolves), 0);
        assert_eq!(c.get(ctsdac_obs::Counter::SweepPoints), 0);
        assert!(out.metrics["dac.yield_engine.codes_per_trial.n12.y50"] > 0.0);
    }

    #[test]
    fn dacd_does_no_cascode_search() {
        let (out, c) = traced("dacd");
        assert!(!out.metrics.contains_key("core.cascode.points"));
        assert!(c.get(ctsdac_obs::Counter::DcSolves) > 0);
        assert_eq!(out.metrics["service.cache.misses"], 1.0);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload flow --seed 1 --seconds 2 --trace 1")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload flow --seed x --seconds 2")).is_err());
        assert!(parse_args(&args("--workload flow --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload flow --seed 1 --seconds 2 --trace 2")).is_err());
    }
}
