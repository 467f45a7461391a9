//! `dacsizer` — command-line front end to the DATE 2003 design flow.
//!
//! ```text
//! dacsizer [--bits N] [--binary B] [--yield Y] [--objective area|speed]
//!          [--topology auto|simple|cascoded] [--condition statistical|legacy|exact]
//!          [--rate MS/s] [--grid G] [--swing V] [--seed S]
//!          [--yield-trials N] [--yield-ci C]
//!          [--jobs N] [--deadline SECS] [--checkpoint PATH] [--resume]
//!          [--progress] [--trace[=json|human]] [--metrics-out PATH]
//!          [--failpoints SPEC] [--failpoint-seed N]
//! ```
//!
//! Prints a markdown design report followed by a seeded Monte-Carlo check of
//! the saturation yield at the chosen point. Defaults reproduce the paper's
//! 12-bit, 4+8, 99.7 %-yield design at 400 MS/s.
//!
//! The simple-cell search is always exact: it scores every grid point in
//! closed form and DC-verifies only the chosen design.
//!
//! `--yield-trials N` sets the trial budget of the yield check (default
//! 2000). The check runs one Monte-Carlo plan seeded with `--seed`: the
//! trials split into 250-trial chunks, chunk `c` draws its own random
//! stream, and the chunk counts pool in order. `--yield-ci C` switches the
//! check to a sequential Wilson test at confidence `C` against the spec's
//! target yield: the same chunks run in order until the interval clears
//! (or excludes) the target, with `--yield-trials` as the budget fallback.
//! A test that stops after `n` trials reports the counts of the fixed
//! check with `--yield-trials n`. The sequential test runs on the calling
//! thread at any `--jobs`.
//!
//! # Supervision
//!
//! The simple-cell search and the fixed-budget Monte-Carlo check always
//! run on the supervised runtime: per-chunk panic isolation and retry,
//! an optional per-chunk `--deadline`, and an optional write-ahead
//! checkpoint journal. At the default `--jobs 1` the chunks run in order
//! on the main thread; `--jobs N` spreads them over `N` worker threads.
//! The sized design and the yield counts are bit-identical for any
//! `--jobs` and across `--resume`. `--checkpoint P` journals the search
//! to `P` and the yield check to `P.mc`; `--resume` restores completed
//! chunks from both. When `--jobs` is above 1, or `--checkpoint`,
//! `--resume`, `--progress` or `--failpoints` is given, the report ends
//! with a `supervision:` line (chunks computed and restored, faults
//! absorbed); without them stdout carries no supervision record.
//!
//! # Observability
//!
//! `--trace` (or `--trace=human`) streams indented span enter/exit lines
//! to stderr; `--trace=json` emits one JSON object per event instead.
//! `--metrics-out PATH` writes the `ctsdac-metrics-v1` snapshot after the
//! run: the `"deterministic"` section holds only work counters (solver
//! iterations, sweep points, MC trials — no wall-clock values) and is
//! byte-identical across `--jobs` settings at the same seed; timings and
//! scheduling counters live in `"nondeterministic"`. Either flag enables
//! the metrics registry. `--failpoints SPEC` arms the failpoint registry
//! (seeded by `--failpoint-seed`; without the flag it is armed from the
//! `CTSDAC_FAILPOINTS` environment variable):
//! `panic@pool.chunk[1]:1,nan@pool.chunk[3]:1` scripts pool faults for CI
//! drills (`:1` is a chunk's first attempt, in every stage).
//!
//! # Exit codes
//!
//! | code | meaning                                                    |
//! |------|------------------------------------------------------------|
//! | 0    | report produced                                            |
//! | 2    | invalid arguments                                          |
//! | 3    | the design space is empty (spec admits no feasible point)  |
//! | 4    | a feasible candidate existed but its evaluation broke down |
//! | 5    | the supervised runtime failed (retries, journal, cancel)   |
//!
//! Every failure prints a single-line `error: …` diagnostic on stderr, so
//! scripted sweeps can log and classify failures without parsing the report.

use ctsdac::circuit::cell::CellEnvironment;
use ctsdac::core::explore::Objective;
use ctsdac::core::flow::{run_flow_supervised, FlowError, FlowOptions, TopologyChoice};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::validate::{
    saturation_yield_sequential, saturation_yield_supervised, MC_CHUNK_TRIALS,
};
use ctsdac::core::DacSpec;
use ctsdac::obs;
use ctsdac::obs::TraceMode;
use ctsdac::process::Technology;
use ctsdac::runtime::{ExecPolicy, McPlan, Progress};
use ctsdac::stats::YieldTest;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Exit code for argument and specification errors.
const EXIT_INVALID_ARGS: u8 = 2;
/// Exit code when the admissible design space is empty.
const EXIT_INFEASIBLE: u8 = 3;
/// Exit code for numerical breakdown while evaluating a candidate.
const EXIT_NUMERICAL: u8 = 4;
/// Exit code when the supervised runtime fails (retry exhaustion,
/// checkpoint-journal trouble, cancellation).
const EXIT_SUPERVISION: u8 = 5;

/// Default trial budget for the post-sizing Monte-Carlo saturation-yield
/// check (`--yield-trials` overrides).
const MC_TRIALS: u64 = 2000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    bits: u32,
    binary: u32,
    inl_yield: f64,
    objective: Objective,
    topology: TopologyChoice,
    condition: SaturationCondition,
    rate_msps: f64,
    grid: usize,
    /// Full-scale output swing in V (overrides the paper's 1.0 V).
    swing: Option<f64>,
    /// Seed for the Monte-Carlo saturation-yield check.
    seed: u64,
    /// Trial budget for the saturation-yield check.
    yield_trials: u64,
    /// Confidence level of the sequential `--yield-ci` Wilson test;
    /// `None` keeps the fixed-budget check.
    yield_ci: Option<f64>,
    /// Worker threads for the supervised runtime (1 = sequential).
    jobs: usize,
    /// Per-chunk wall-clock deadline in seconds, supervised runs only.
    deadline: Option<f64>,
    /// Checkpoint-journal path; enables the supervised runtime.
    checkpoint: Option<PathBuf>,
    /// Restore completed chunks from the checkpoint journal.
    resume: bool,
    /// Print a stderr heartbeat while the supervised runtime works.
    progress: bool,
    /// Live span tracing to stderr (`--trace[=json|human]`).
    trace: Option<TraceMode>,
    /// Write the `ctsdac-metrics-v1` snapshot here after the run.
    metrics_out: Option<PathBuf>,
    /// Deterministic failpoint arming (`--failpoints`), as the raw
    /// `kind@site[[key]][:policy]` spec; armed globally before the run.
    failpoints: Option<String>,
    /// Seed for `1/N` failpoint policies (`--failpoint-seed`).
    failpoint_seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            bits: 12,
            binary: 4,
            inl_yield: 0.997,
            objective: Objective::MinArea,
            topology: TopologyChoice::Auto,
            condition: SaturationCondition::Statistical,
            rate_msps: 400.0,
            grid: 12,
            swing: None,
            seed: 1,
            yield_trials: MC_TRIALS,
            yield_ci: None,
            jobs: 1,
            deadline: None,
            checkpoint: None,
            resume: false,
            progress: false,
            trace: None,
            metrics_out: None,
            failpoints: None,
            failpoint_seed: 0,
        }
    }
}

impl Args {
    /// True when any supervision feature is requested; the report then
    /// ends with the `supervision:` note. Both stages run on the
    /// supervised runtime either way.
    fn supervised(&self) -> bool {
        self.jobs > 1
            || self.checkpoint.is_some()
            || self.resume
            || self.progress
            || self.failpoints.is_some()
    }

    /// Builds the execution policy of a stage. `units` names
    /// the stage's work unit in the progress heartbeat (`"pts"` for sweep
    /// design points, `"trials"` for MC trials); `journal` derives the
    /// stage's checkpoint path from `--checkpoint`.
    fn policy(&self, units: &'static str, journal: impl Fn(&PathBuf) -> PathBuf) -> ExecPolicy {
        let mut policy = ExecPolicy::with_jobs(self.jobs);
        policy.pool.deadline = self.deadline.map(Duration::from_secs_f64);
        if let Some(path) = &self.checkpoint {
            policy = policy.checkpoint_at(journal(path));
        }
        if self.resume {
            policy = policy.resuming();
        }
        if self.progress {
            policy.pool.progress = Some(Arc::new(move |p: &Progress| heartbeat(p, units)));
        }
        policy
    }
}

/// Single-line stderr heartbeat: chunks done/total, throughput in the
/// stage's work units per second (sweep design points/sec or MC
/// trials/sec), ETA, best objective published so far. Carriage-return
/// rewrites keep it to one line; the final update (done == total) ends it
/// with a newline.
fn heartbeat(p: &Progress, units: &str) {
    let rate = match p.units_per_sec() {
        Some(r) => format!("{r:.0} {units}/s"),
        None => format!("- {units}/s"),
    };
    let eta = match p.eta() {
        Some(d) => format!("{:.1}s", d.as_secs_f64()),
        None => "?".to_string(),
    };
    let best = match p.gauge {
        Some(g) => format!("{g:.4e}"),
        None => "-".to_string(),
    };
    eprint!(
        "\r[dacsizer] {}/{} chunks, {}, ETA {}, best {}   ",
        p.done, p.total, rate, eta, best
    );
    if p.done == p.total {
        eprintln!();
    }
}

/// What the command line asked for: run the flow or just print usage.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run(Box<Args>),
    Help,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut args = Args::default();
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || -> Result<String, String> {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--bits" => {
                args.bits = value()?.parse().map_err(|e| format!("--bits: {e}"))?;
            }
            "--binary" => {
                args.binary = value()?.parse().map_err(|e| format!("--binary: {e}"))?;
            }
            "--yield" => {
                args.inl_yield = value()?.parse().map_err(|e| format!("--yield: {e}"))?;
            }
            "--rate" => {
                args.rate_msps = value()?.parse().map_err(|e| format!("--rate: {e}"))?;
            }
            "--grid" => {
                args.grid = value()?.parse().map_err(|e| format!("--grid: {e}"))?;
            }
            "--swing" => {
                args.swing = Some(value()?.parse().map_err(|e| format!("--swing: {e}"))?);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--yield-trials" => {
                args.yield_trials = value()?
                    .parse()
                    .map_err(|e| format!("--yield-trials: {e}"))?;
            }
            "--yield-ci" => {
                args.yield_ci = Some(value()?.parse().map_err(|e| format!("--yield-ci: {e}"))?);
            }
            "--jobs" => {
                args.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?;
            }
            "--deadline" => {
                args.deadline = Some(value()?.parse().map_err(|e| format!("--deadline: {e}"))?);
            }
            "--checkpoint" => {
                args.checkpoint = Some(PathBuf::from(value()?));
            }
            "--resume" => {
                args.resume = true;
            }
            "--progress" => {
                args.progress = true;
            }
            "--trace" | "--trace=human" => {
                args.trace = Some(TraceMode::Human);
            }
            "--trace=json" => {
                args.trace = Some(TraceMode::Json);
            }
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(value()?));
            }
            "--failpoints" => {
                let spec = value()?;
                // Validate the grammar on a throwaway registry; the
                // global arming happens once in main.
                ctsdac::failpoint::Registry::new()
                    .arm(&spec, 0)
                    .map_err(|e| format!("--failpoints: {e}"))?;
                args.failpoints = Some(spec);
            }
            "--failpoint-seed" => {
                args.failpoint_seed = value()?
                    .parse()
                    .map_err(|e| format!("--failpoint-seed: {e}"))?;
            }
            "--objective" => {
                args.objective = match value()?.as_str() {
                    "area" => Objective::MinArea,
                    "speed" => Objective::MaxSpeed,
                    other => return Err(format!("unknown objective '{other}'")),
                };
            }
            "--topology" => {
                args.topology = match value()?.as_str() {
                    "auto" => TopologyChoice::Auto,
                    "simple" => TopologyChoice::Simple,
                    "cascoded" => TopologyChoice::Cascoded,
                    other => return Err(format!("unknown topology '{other}'")),
                };
            }
            "--condition" => {
                args.condition = match value()?.as_str() {
                    "statistical" => SaturationCondition::Statistical,
                    "legacy" => SaturationCondition::legacy(),
                    "exact" => SaturationCondition::Exact,
                    other => return Err(format!("unknown condition '{other}'")),
                };
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    validate(&args)?;
    Ok(Command::Run(Box::new(args)))
}

/// Cross-field argument checks, reported as one-line messages.
fn validate(args: &Args) -> Result<(), String> {
    if args.bits == 0 || args.bits > 24 || args.binary > args.bits {
        return Err("invalid resolution/segmentation".into());
    }
    if !(args.inl_yield > 0.0 && args.inl_yield < 1.0) {
        return Err("yield must be inside (0, 1)".into());
    }
    if !(args.rate_msps.is_finite() && args.rate_msps > 0.0) {
        return Err("rate must be a positive number of MS/s".into());
    }
    if let Some(swing) = args.swing {
        if !(swing.is_finite() && swing > 0.0) {
            return Err("swing must be a positive voltage".into());
        }
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }
    if let Some(d) = args.deadline {
        if !(d.is_finite() && d > 0.0) {
            return Err("--deadline must be a positive number of seconds".into());
        }
    }
    if args.resume && args.checkpoint.is_none() {
        return Err("--resume requires --checkpoint".into());
    }
    if args.yield_trials == 0 {
        return Err("--yield-trials must be at least 1".into());
    }
    if let Some(ci) = args.yield_ci {
        if !(ci > 0.0 && ci < 1.0) {
            return Err("--yield-ci must be inside (0, 1)".into());
        }
    }
    Ok(())
}

/// Maps a flow failure to its process exit code: empty design space,
/// numerical breakdown, and runtime-supervision failure are distinct,
/// scriptable outcomes.
fn flow_exit_code(e: &FlowError) -> u8 {
    match e {
        FlowError::EmptyDesignSpace(_) => EXIT_INFEASIBLE,
        FlowError::Numerical { .. } => EXIT_NUMERICAL,
        FlowError::Supervision(_) => EXIT_SUPERVISION,
    }
}

fn usage() -> &'static str {
    "usage: dacsizer [--bits N] [--binary B] [--yield Y] \
     [--objective area|speed] [--topology auto|simple|cascoded] \
     [--condition statistical|legacy|exact] [--rate MS/s] [--grid G] \
     [--swing V] [--seed S] [--yield-trials N] [--yield-ci C] \
     [--jobs N] [--deadline SECS] \
     [--checkpoint PATH] [--resume] [--progress] \
     [--trace[=json|human]] [--metrics-out PATH] \
     [--failpoints SPEC] [--failpoint-seed N]\n\
     failpoints: kind@site[[key]][:N|N..|1/N],... e.g. panic@pool.chunk[1]:1,\
     nan@pool.chunk[3]:1,delay=50@pool.chunk[0]:1 (adds the supervision line)\n\
     the simple-cell search is exact and DC-verifies only the chosen design\n\
     exit codes: 0 ok, 2 invalid arguments, 3 empty design space, \
     4 numerical failure, 5 supervised-runtime failure"
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Run(a)) => *a,
        Ok(Command::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(EXIT_INVALID_ARGS);
        }
    };
    // Either observability flag arms the registry; tracing additionally
    // selects a live stderr sink. With neither flag the hooks stay on
    // their disabled fast path (one relaxed load each).
    if args.trace.is_some() || args.metrics_out.is_some() {
        obs::set_metrics(true);
        obs::set_trace(args.trace);
    }
    // Failpoints (pool chunks, journal appends): CLI spec wins over the env.
    let armed = match &args.failpoints {
        Some(spec) => ctsdac::failpoint::global().arm(spec, args.failpoint_seed),
        None => ctsdac::failpoint::arm_global_from_env(),
    };
    if let Err(e) = armed {
        eprintln!("error: {e}");
        return ExitCode::from(EXIT_INVALID_ARGS);
    }
    let mut env = CellEnvironment::paper_12bit();
    if let Some(swing) = args.swing {
        env.v_swing = swing;
    }
    let spec = DacSpec::new(
        args.bits,
        args.binary,
        args.inl_yield,
        env,
        Technology::c035(),
    );
    let options = FlowOptions {
        objective: args.objective,
        topology: args.topology,
        condition: args.condition,
        grid: args.grid,
        f_update: args.rate_msps * 1e6,
        ..FlowOptions::default()
    };
    // Scoped so the root span closes (and its timing lands in the span
    // statistics) before the snapshot is rendered.
    let root_span = obs::span("dacsizer.run");
    let outcome = run_flow_supervised(&spec, &options, &args.policy("pts", |p| p.clone()));
    let code = match outcome {
        Ok(sup) => {
            let report = &sup.value;
            print!("{}", report.to_markdown());
            let rate_ok = report.meets_update_rate(options.f_update);
            println!(
                "\nverdict: {} at {:.0} MS/s{}",
                if rate_ok {
                    "meets settling"
                } else {
                    "TOO SLOW"
                },
                args.rate_msps,
                if report.all_corners_pass() {
                    ", all corners pass"
                } else {
                    ", corner derating needed"
                }
            );
            if args.supervised() {
                println!(
                    "supervision: {} chunks computed, {} restored from checkpoint, \
                     {} faults absorbed",
                    sup.computed,
                    sup.restored,
                    sup.faults.len()
                );
            }
            // Seeded MC cross-check of the saturation yield at the sized
            // point, with the cascode overdrive lumped into the CS branch as
            // in the corner model. A failure here is advisory — the report
            // already stands on the analytic flow. Every path runs the
            // chunks of one plan seeded with `--seed`, so the counts do not
            // depend on the supervision flags.
            let (vov_cs, vov_sw) = (
                report.overdrives.0 + report.overdrives.1,
                report.overdrives.2,
            );
            let trials = args.yield_trials;
            let measured = match args.yield_ci {
                // Sequential Wilson test against the spec's target yield:
                // the plan's chunks run in order until the interval
                // decides, the budget as fallback.
                Some(ci) => YieldTest::from_confidence(spec.inl_yield, ci, trials, MC_CHUNK_TRIALS)
                    .map_err(|e| e.to_string())
                    .and_then(|test| {
                        saturation_yield_sequential(&spec, vov_cs, vov_sw, &test, args.seed)
                            .map_err(|e| e.to_string())
                    })
                    .map(|y| {
                        let how = format!(
                            "sequential at {:.1} % confidence, target {:.3}",
                            ci * 100.0,
                            spec.inl_yield
                        );
                        (how, y.to_string())
                    }),
                None => {
                    let plan = McPlan::new(args.seed, trials, MC_CHUNK_TRIALS)
                        .expect("--yield-trials is validated non-zero");
                    let policy =
                        args.policy("trials", |p| PathBuf::from(format!("{}.mc", p.display())));
                    saturation_yield_supervised(&spec, vov_cs, vov_sw, &plan, &policy)
                        .map(|y| (format!("{trials} trials"), y.value.to_string()))
                        .map_err(|e| e.to_string())
                }
            };
            match measured {
                Ok((how, y)) => println!("saturation yield (seed {}, {how}): {y}", args.seed),
                Err(e) => println!("saturation yield: not measurable at this point ({e})"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(flow_exit_code(&e))
        }
    };
    drop(root_span);
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, obs::snapshot()) {
            eprintln!(
                "error: cannot write metrics snapshot to {}: {e}",
                path.display()
            );
            return ExitCode::from(EXIT_INVALID_ARGS);
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac::core::flow::EmptyDesignSpaceError;

    fn parse(words: &[&str]) -> Result<Command, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse_from_empty_argv() {
        assert_eq!(parse(&[]), Ok(Command::Run(Box::default())));
    }

    #[test]
    fn help_short_circuits_validation() {
        // --help wins even next to an invalid value.
        assert_eq!(parse(&["--yield", "7", "--help"]), Ok(Command::Help));
    }

    #[test]
    fn new_flags_are_parsed() {
        let parsed = parse(&["--seed", "42", "--swing", "1.2"]).expect("valid");
        match parsed {
            Command::Run(a) => {
                assert_eq!(a.seed, 42);
                assert_eq!(a.swing, Some(1.2));
            }
            _ => panic!("expected a run command"),
        }
        // The retired no-op `--adaptive` is an unknown flag now.
        assert!(parse(&["--adaptive"]).is_err());
    }

    #[test]
    fn yield_check_flags_are_parsed() {
        let parsed = parse(&["--yield-trials", "10000", "--yield-ci", "0.95"]).expect("valid");
        match parsed {
            Command::Run(a) => {
                assert_eq!(a.yield_trials, 10_000);
                assert_eq!(a.yield_ci, Some(0.95));
                // Yield-check flags alone add no supervision line.
                assert!(!a.supervised());
            }
            _ => panic!("expected a run command"),
        }
    }

    #[test]
    fn invalid_values_are_one_line_errors() {
        for argv in [
            &["--yield", "1.5"][..],
            &["--bits", "0"],
            &["--bits", "40"],
            &["--rate", "-5"],
            &["--swing", "-0.2"],
            &["--swing", "NaN"],
            &["--nonsense"],
            &["--seed"],
            &["--yield-trials", "0"],
            &["--yield-ci", "1.2"],
            &["--yield-ci", "0"],
        ] {
            let err = parse(argv).expect_err("should be rejected");
            assert!(
                !err.is_empty() && !err.contains('\n'),
                "bad message {err:?}"
            );
        }
    }

    #[test]
    fn exit_codes_distinguish_failure_classes() {
        let empty = FlowError::EmptyDesignSpace(EmptyDesignSpaceError {
            condition: "statistical".into(),
        });
        let numerical = FlowError::Numerical {
            detail: "solver".into(),
        };
        let supervision = FlowError::Supervision(ctsdac::runtime::RuntimeError::Driver {
            detail: "journal".into(),
        });
        assert_eq!(flow_exit_code(&empty), 3);
        assert_eq!(flow_exit_code(&numerical), 4);
        assert_eq!(flow_exit_code(&supervision), 5);
    }

    #[test]
    fn supervision_flags_are_parsed() {
        let parsed = parse(&[
            "--jobs",
            "8",
            "--deadline",
            "2.5",
            "--checkpoint",
            "/tmp/run.jsonl",
            "--resume",
            "--progress",
        ])
        .expect("valid");
        match parsed {
            Command::Run(a) => {
                assert_eq!(a.jobs, 8);
                assert_eq!(a.deadline, Some(2.5));
                assert_eq!(a.checkpoint, Some(PathBuf::from("/tmp/run.jsonl")));
                assert!(a.resume);
                assert!(a.progress);
                assert!(a.supervised());
            }
            _ => panic!("expected a run command"),
        }
    }

    #[test]
    fn default_args_stay_on_the_sequential_path() {
        assert!(!Args::default().supervised());
    }

    #[test]
    fn observability_flags_are_parsed() {
        let parsed = parse(&["--trace", "--metrics-out", "/tmp/m.json"]).expect("valid");
        let Command::Run(a) = parsed else {
            panic!("expected run")
        };
        assert_eq!(a.trace, Some(TraceMode::Human));
        assert_eq!(a.metrics_out, Some(PathBuf::from("/tmp/m.json")));
        // Observability alone adds no supervision line.
        assert!(!a.supervised());
        let Command::Run(a) = parse(&["--trace=json"]).expect("valid") else {
            panic!("expected run")
        };
        assert_eq!(a.trace, Some(TraceMode::Json));
        let Command::Run(a) = parse(&["--trace=human"]).expect("valid") else {
            panic!("expected run")
        };
        assert_eq!(a.trace, Some(TraceMode::Human));
    }

    #[test]
    fn fault_specs_parse_and_engage_supervision() {
        let spec = "panic@pool.chunk[1]:1,nan@pool.chunk[3]:1,delay=25@pool.chunk[0]:1";
        let Command::Run(a) = parse(&["--failpoints", spec]).expect("valid") else {
            panic!("expected run")
        };
        assert_eq!(a.failpoints.as_deref(), Some(spec));
        assert!(a.supervised(), "--failpoints adds the supervision line");
        for bad in [
            "panic",
            "oops@pool.chunk",
            "delay@pool.chunk[1]",
            "panic@pool.chunk[x]",
        ] {
            assert!(
                parse(&["--failpoints", bad]).is_err(),
                "{bad} should be rejected"
            );
        }
        // The retired grammar is an unknown flag now.
        assert!(parse(&["--faults", "panic@1"]).is_err());
    }

    #[test]
    fn supervision_flag_misuse_is_rejected() {
        for argv in [
            &["--jobs", "0"][..],
            &["--deadline", "-1"],
            &["--deadline", "inf"],
            &["--resume"],
        ] {
            let err = parse(argv).expect_err("should be rejected");
            assert!(
                !err.is_empty() && !err.contains('\n'),
                "bad message {err:?}"
            );
        }
    }

    #[test]
    fn policy_derives_stage_specific_journals() {
        let parsed = parse(&["--checkpoint", "/tmp/ck.jsonl", "--jobs", "2"]).expect("valid");
        let Command::Run(a) = parsed else {
            panic!("expected run")
        };
        let sweep = a.policy("pts", |p| p.clone());
        let mc = a.policy("trials", |p| PathBuf::from(format!("{}.mc", p.display())));
        assert_eq!(sweep.checkpoint, Some(PathBuf::from("/tmp/ck.jsonl")));
        assert_eq!(mc.checkpoint, Some(PathBuf::from("/tmp/ck.jsonl.mc")));
        assert_eq!(sweep.pool.jobs, 2);
    }
}
