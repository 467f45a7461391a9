//! Integration tests of the `dacsizer` CLI (runs the compiled binary).
//!
//! Beyond the report content, these pin the exit-code contract: 0 for a
//! produced report, 2 for invalid arguments, 3 for an empty design space —
//! each failure with a one-line `error: …` diagnostic on stderr.

mod common;

use ctsdac::core::flow::{run_flow, FlowOptions, TopologyChoice};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::service::server::{start, ServerConfig};
use std::process::Command;

struct CliRun {
    stdout: String,
    stderr: String,
    code: Option<i32>,
}

impl CliRun {
    fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

fn dacsizer(args: &[&str]) -> CliRun {
    let out = Command::new(env!("CARGO_BIN_EXE_dacsizer"))
        .args(args)
        .output()
        .expect("dacsizer runs");
    CliRun {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code(),
    }
}

#[test]
fn default_invocation_prints_a_report() {
    let run = dacsizer(&["--grid", "8"]);
    assert!(run.ok());
    assert!(run.stdout.contains("# Design report"));
    assert!(run.stdout.contains("12-bit DAC"));
    assert!(run.stdout.contains("verdict:"));
}

#[test]
fn report_ends_with_seeded_yield_check() {
    let run = dacsizer(&["--grid", "8", "--seed", "7"]);
    assert!(run.ok());
    assert!(
        run.stdout.contains("saturation yield (seed 7"),
        "{}",
        run.stdout
    );
}

#[test]
fn yield_check_is_deterministic_per_seed() {
    let a = dacsizer(&["--grid", "8", "--seed", "3"]);
    let b = dacsizer(&["--grid", "8", "--seed", "3"]);
    assert!(a.ok() && b.ok());
    assert_eq!(a.stdout, b.stdout);
}

/// A sized point near the exact eq. (4) boundary, where trials fail and
/// the counts tell draw schemes apart (at the default point every path
/// reports 2000/2000).
const MARGINAL: [&str; 6] = [
    "--condition",
    "exact",
    "--topology",
    "simple",
    "--grid",
    "12",
];

/// `dacsizer MARGINAL --seed 7 extra…`, which must succeed.
fn marginal_run(extra: &[&str]) -> CliRun {
    let mut args = MARGINAL.to_vec();
    args.extend(["--seed", "7"]);
    args.extend(extra);
    let run = dacsizer(&args);
    assert!(run.ok(), "{extra:?}: {}", run.stderr);
    run
}

/// The `passes/trials` counts of a run's `saturation yield` line.
fn yield_counts(run: &CliRun) -> (u64, u64) {
    let line = run
        .stdout
        .lines()
        .find(|l| l.starts_with("saturation yield ("))
        .expect("a saturation yield line");
    let counts = line
        .split("MC = ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .expect("MC counts");
    let (p, t) = counts.split_once('/').expect("passes/trials");
    (p.parse().expect("passes"), t.parse().expect("trials"))
}

#[test]
fn every_yield_path_reports_the_counts_of_one_plan() {
    let plain = yield_counts(&marginal_run(&[]));
    assert!(plain.0 < plain.1, "no trial failed: {plain:?}");
    for extra in [&["--jobs", "1"][..], &["--jobs", "4"], &["--progress"]] {
        assert_eq!(yield_counts(&marginal_run(extra)), plain, "{extra:?}");
    }
    // The Wilson test stops after n trials on the counts of the fixed
    // n-trial check.
    let seq = yield_counts(&marginal_run(&["--yield-ci", "0.95"]));
    let budget = seq.1.to_string();
    let fixed = yield_counts(&marginal_run(&["--yield-trials", &budget]));
    assert_eq!(seq, fixed);
}

#[test]
fn dacd_yield_at_the_default_chunk_matches_dacsizer() {
    // The point dacsizer sizes for MARGINAL, computed in-process so the
    // request carries its exact overdrives.
    let options = FlowOptions {
        topology: TopologyChoice::Simple,
        condition: SaturationCondition::Exact,
        grid: 12,
        ..FlowOptions::default()
    };
    let ov = run_flow(&DacSpec::paper_12bit(), &options)
        .expect("sized")
        .overdrives;
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind");
    let body = format!(
        "{{\"vov_cs\":{},\"vov_sw\":{},\"seed\":7,\"trials\":2000}}",
        ov.0 + ov.1,
        ov.2
    );
    let reply = common::post(server.local_addr(), "/v1/yield", &body).expect("yield reply");
    server.shutdown();
    server.join();
    assert_eq!(reply.status, 200, "{}", reply.body);
    let field = |name: &str| -> u64 {
        let key = format!("\"{name}\":");
        let rest = &reply.body[reply.body.find(&key).expect(name) + key.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .expect("number end");
        rest[..end].parse().expect("count")
    };
    let served = (field("passes"), field("trials"));
    assert_eq!(served, yield_counts(&marginal_run(&[])));
}

#[test]
fn speed_objective_meets_400msps() {
    let run = dacsizer(&["--objective", "speed", "--grid", "8"]);
    assert!(run.ok());
    assert!(
        run.stdout.contains("meets settling at 400 MS/s"),
        "{}",
        run.stdout
    );
}

#[test]
fn forced_simple_topology_is_respected() {
    let run = dacsizer(&["--topology", "simple", "--grid", "8"]);
    assert!(run.ok());
    assert!(run.stdout.contains("CS+SW"), "{}", run.stdout);
    assert!(!run.stdout.contains("CS+CAS+SW"), "{}", run.stdout);
}

#[test]
fn help_prints_usage_and_succeeds() {
    let run = dacsizer(&["--help"]);
    assert_eq!(run.code, Some(0));
    assert!(run.stdout.contains("usage:"), "{}", run.stdout);
}

#[test]
fn bad_flag_exits_2_with_usage() {
    let run = dacsizer(&["--frobnicate"]);
    assert_eq!(run.code, Some(2));
    assert!(run.stderr.contains("usage:"), "{}", run.stderr);
    assert!(run.stderr.contains("error:"), "{}", run.stderr);
}

#[test]
fn retired_adaptive_flag_exits_2_as_unknown() {
    let run = dacsizer(&["--adaptive"]);
    assert_eq!(run.code, Some(2));
    assert!(
        run.stderr.contains("unknown flag '--adaptive'"),
        "{}",
        run.stderr
    );
    assert!(run.stderr.contains("usage:"), "{}", run.stderr);
}

#[test]
fn retired_serve_flag_exits_2_as_unknown() {
    // The daemon has one entry point, `dacd`.
    let run = dacsizer(&["--serve", "127.0.0.1:0"]);
    assert_eq!(run.code, Some(2));
    assert!(
        run.stderr.contains("unknown flag '--serve'"),
        "{}",
        run.stderr
    );
    assert!(!run.stdout.contains("listening"), "{}", run.stdout);
}

#[test]
fn invalid_yield_exits_2() {
    let run = dacsizer(&["--yield", "1.5"]);
    assert_eq!(run.code, Some(2));
    assert!(run.stderr.contains("yield"), "{}", run.stderr);
}

#[test]
fn empty_design_space_exits_3_with_one_line_diagnostic() {
    // A 3.2 V swing on a 3.3 V supply leaves 0.1 V of headroom — no
    // overdrive pair can saturate the stack, so the space is empty.
    let run = dacsizer(&["--swing", "3.2", "--topology", "simple", "--grid", "6"]);
    assert_eq!(run.code, Some(3), "stderr: {}", run.stderr);
    let diagnostic: Vec<&str> = run
        .stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(diagnostic.len(), 1, "stderr: {}", run.stderr);
    assert!(
        diagnostic[0].contains("no admissible design point"),
        "stderr: {}",
        run.stderr
    );
}

#[test]
fn swing_above_the_supply_is_an_empty_simple_space_at_any_job_count() {
    // A 3.4 V swing on a 3.3 V supply puts V_out,min below the 0.05 V
    // axis floor: the simple search must report an empty design space on
    // the sequential and the supervised path, not size a device at a
    // negative overdrive.
    for jobs in ["1", "2"] {
        let run = dacsizer(&["--swing", "3.4", "--topology", "simple", "--jobs", jobs]);
        assert_eq!(run.code, Some(3), "--jobs {jobs}: stderr: {}", run.stderr);
        assert!(
            !run.stderr.contains("panicked"),
            "--jobs {jobs}: {}",
            run.stderr
        );
        let diagnostic: Vec<&str> = run
            .stderr
            .lines()
            .filter(|l| l.starts_with("error: "))
            .collect();
        assert_eq!(diagnostic.len(), 1, "--jobs {jobs}: stderr: {}", run.stderr);
        assert!(
            diagnostic[0].contains("no admissible design point"),
            "--jobs {jobs}: stderr: {}",
            run.stderr
        );
    }
}

#[test]
fn eight_bit_run_chooses_simple_cell() {
    let run = dacsizer(&["--bits", "8", "--binary", "3", "--grid", "8"]);
    assert!(run.ok());
    assert!(run.stdout.contains("topology: CS+SW"), "{}", run.stdout);
}

#[test]
fn simple_search_dc_verifies_only_the_winner_at_any_job_count() {
    // The best-first optimum scores all 64 x 64 points in closed form and
    // runs the Newton DC solver once, on the chosen design; the counts sit
    // in the deterministic section, so they must not move with --jobs.
    let mut sections = Vec::new();
    for jobs in ["1", "8"] {
        let path = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("cli_optimum_metrics_j{jobs}.json"));
        let _ = std::fs::remove_file(&path);
        let out = path.to_str().expect("utf-8 temp path");
        let run = dacsizer(&[
            "--topology",
            "simple",
            "--grid",
            "64",
            "--jobs",
            jobs,
            "--seed",
            "7",
            "--metrics-out",
            out,
        ]);
        assert!(run.ok(), "--jobs {jobs}: stderr: {}", run.stderr);
        let snapshot = std::fs::read_to_string(&path).expect("metrics snapshot written");
        let start = snapshot
            .find("\"deterministic\": {")
            .expect("deterministic section");
        let end = start + snapshot[start..].find("\n  },").expect("section end");
        let det = snapshot[start..end].to_string();
        assert!(
            det.contains("\"circuit.dc.solves\": 1,"),
            "--jobs {jobs}: {det}"
        );
        assert!(
            det.contains("\"core.sweep.points\": 4096,"),
            "--jobs {jobs}: {det}"
        );
        sections.push(det);
        let _ = std::fs::remove_file(&path);
    }
    assert_eq!(
        sections[0], sections[1],
        "deterministic metrics depend on --jobs"
    );
}

#[test]
fn a_panicking_chunk_at_the_default_jobs_is_retried_quietly() {
    // At one job the chunks run on the main thread; a supervised panic
    // there is caught, retried and kept off stderr like a worker's.
    let clean = dacsizer(&["--topology", "simple", "--grid", "16"]);
    assert!(clean.ok(), "stderr: {}", clean.stderr);
    let faulted = dacsizer(&[
        "--topology",
        "simple",
        "--grid",
        "16",
        "--failpoints",
        "panic@pool.chunk[0]:1",
    ]);
    assert!(faulted.ok(), "stderr: {}", faulted.stderr);
    assert!(
        !faulted.stderr.contains("panicked at"),
        "supervised panic leaked to stderr: {}",
        faulted.stderr
    );
    let report = |run: &CliRun| {
        run.stdout
            .lines()
            .filter(|l| !l.starts_with("supervision:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(report(&faulted), report(&clean));
    assert!(
        faulted.stdout.contains("faults absorbed") && !faulted.stdout.contains(" 0 faults"),
        "{}",
        faulted.stdout
    );
}
