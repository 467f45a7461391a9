//! `sweep_bench` — throughput benchmark of the design-space sweep kernel.
//!
//! ```text
//! sweep_bench [--grid N] [--reps R] [--out PATH] [--budget ITERS]
//! ```
//!
//! Times two dense-sweep kernels and the optimum search on the same
//! overdrive plane and writes the measurements as `BENCH_sweep.json`:
//!
//! * `reference` — the pre-overhaul kernel and the sweep's oracle:
//!   central-difference Jacobians, fixed-depth bisection settling, every
//!   spec-level invariant recomputed per point ([`SweepMode::Reference`]);
//! * `lanes` — the production kernel: analytic Jacobians, CS devices sized
//!   per row and switch devices per sweep, and each row's DC solves batched
//!   through eight-wide structure-of-arrays lanes ([`SweepMode::Lanes`]);
//! * `optimum` — `DesignSpace::optimize(MinArea)`, the best-first search
//!   every simple-cell flow runs: a closed-form pass over every point, the
//!   metric chain on the visited candidates only, and one DC solve on the
//!   winner. Its `dc_solves` and `points` come from the metrics registry
//!   on one extra untimed run.
//!
//! `--budget ITERS` turns the run into a regression gate: if the lane
//! kernel's mean Newton iterations per DC solve exceed the budget, the JSON
//! is still written but the process exits non-zero. The CI `bench-smoke`
//! stage uses this with the budget stored in the checked-in
//! `BENCH_sweep.json`.
//!
//! Wall times are best-of-`reps` (minimum over repetitions), the standard
//! way to suppress scheduler noise when benchmarking a deterministic
//! kernel.

use ctsdac_core::explore::{DesignSpace, Objective, SweepMode, SweepStats};
use ctsdac_core::saturation::SaturationCondition;
use ctsdac_core::DacSpec;
use ctsdac_obs as obs;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Default per-axis grid: large enough (4096 points) that every timed
/// sweep lasts well above timer resolution.
const DEFAULT_GRID: usize = 64;
/// Default repetitions per timed strategy.
const DEFAULT_REPS: u32 = 20;

/// Pre-overhaul closed-form sweep throughput on this container (commit
/// b795c12, release build, grid 14), kept as context in the JSON so later
/// readings can be compared against the era before the sweep verified its
/// points with a DC solve at all.
const PRE_PR_CLOSED_FORM_PPS_GRID14: f64 = 211_937.0;
/// Same context constant at grid 32.
const PRE_PR_CLOSED_FORM_PPS_GRID32: f64 = 201_848.0;

/// One timed dense sweep: best-of-reps wall seconds plus the (identical
/// across reps) point count and solver statistics.
struct DenseTiming {
    wall_s: f64,
    points: usize,
    stats: SweepStats,
}

fn time_dense(space: &DesignSpace, reps: u32) -> DenseTiming {
    let mut best = f64::INFINITY;
    let mut points = 0;
    let mut stats = SweepStats::default();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (grid, s) = space.sweep_with_stats();
        let dt = t0.elapsed().as_secs_f64();
        points = grid.len();
        stats = s;
        if dt < best {
            best = dt;
        }
    }
    DenseTiming {
        wall_s: best,
        points,
        stats,
    }
}

/// Formats one strategy's measurements as a JSON object body.
fn dense_json(t: &DenseTiming) -> String {
    format!(
        "{{\n      \"wall_s\": {:.6e},\n      \"points\": {},\n      \
         \"points_per_sec\": {:.1},\n      \"dc_solves\": {},\n      \
         \"iters_per_solve\": {:.3},\n      \"dc_failures\": {}\n    }}",
        t.wall_s,
        t.points,
        t.points as f64 / t.wall_s,
        t.stats.dc_solves,
        t.stats.iterations_per_solve(),
        t.stats.dc_failures,
    )
}

struct Args {
    grid: usize,
    reps: u32,
    out: Option<PathBuf>,
    budget: Option<f64>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        grid: DEFAULT_GRID,
        reps: DEFAULT_REPS,
        out: None,
        budget: None,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = || -> Result<String, String> {
            it.next().ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--grid" => {
                args.grid = value()?.parse().map_err(|e| format!("--grid: {e}"))?;
                if args.grid < 2 {
                    return Err("--grid must be at least 2".into());
                }
            }
            "--reps" => {
                args.reps = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if args.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--budget" => {
                let b: f64 = value()?.parse().map_err(|e| format!("--budget: {e}"))?;
                if !(b.is_finite() && b > 0.0) {
                    return Err("--budget must be a positive number".into());
                }
                args.budget = Some(b);
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: sweep_bench [--grid N] [--reps R] [--out PATH] [--budget ITERS]");
            return ExitCode::from(2);
        }
    };
    let spec = DacSpec::paper_12bit();
    let base = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(args.grid);

    let reference = time_dense(&base.clone().with_mode(SweepMode::Reference), args.reps);
    let lanes = time_dense(&base, args.reps);

    // Optimum: best-of-reps wall time of the MinArea search, then one
    // untimed run with the registry live to count its work.
    let mut optimum_wall = f64::INFINITY;
    for _ in 0..args.reps {
        let t0 = Instant::now();
        let _ = base.optimize(Objective::MinArea);
        optimum_wall = optimum_wall.min(t0.elapsed().as_secs_f64());
    }
    obs::reset();
    obs::set_metrics(true);
    let optimum = base.optimize(Objective::MinArea);
    let optimum_solves = obs::counter_value(obs::Counter::DcSolves);
    let optimum_points = obs::counter_value(obs::Counter::SweepPoints);
    obs::set_metrics(false);
    obs::reset();
    if let Err(e) = optimum {
        eprintln!("error: the bench plane has no optimum: {e}");
        return ExitCode::from(1);
    }

    // Observability overhead: the lanes dense sweep with the metrics
    // registry live versus the default compiled-in-but-disabled hooks.
    // The arms are interleaved rep by rep and both taken min-of-reps, so
    // a host frequency shift mid-run biases both sides alike and the
    // ratio isolates the atomic counter/histogram updates (timing one
    // arm's reps before the other's once produced a negative "overhead").
    let mut obs_disabled_wall = f64::INFINITY;
    let mut obs_enabled_wall = f64::INFINITY;
    obs::set_metrics(false);
    for _ in 0..args.reps {
        obs::set_metrics(false);
        let t0 = Instant::now();
        let _ = base.sweep_with_stats();
        obs_disabled_wall = obs_disabled_wall.min(t0.elapsed().as_secs_f64());
        obs::set_metrics(true);
        let t0 = Instant::now();
        let _ = base.sweep_with_stats();
        obs_enabled_wall = obs_enabled_wall.min(t0.elapsed().as_secs_f64());
    }
    obs::set_metrics(false);
    obs::reset();
    let obs_overhead = obs_enabled_wall / obs_disabled_wall - 1.0;

    let speedup_lanes =
        (lanes.points as f64 / lanes.wall_s) / (reference.points as f64 / reference.wall_s);
    let lanes_iters = lanes.stats.iterations_per_solve();
    // The regression budget recorded in the JSON: the caller's --budget if
    // given, else a round number comfortably above today's reading.
    let recorded_budget = args
        .budget
        .unwrap_or_else(|| (lanes_iters * 2.0).ceil().max(8.0));

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"ctsdac-sweep-bench-v2\",");
    let _ = writeln!(json, "  \"grid\": {},", args.grid);
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"dense\": {{");
    let _ = writeln!(json, "    \"reference\": {},", dense_json(&reference));
    let _ = writeln!(json, "    \"lanes\": {}", dense_json(&lanes));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"optimum\": {{");
    let _ = writeln!(json, "    \"objective\": \"min_area\",");
    let _ = writeln!(json, "    \"wall_s\": {optimum_wall:.6e},");
    let _ = writeln!(json, "    \"points\": {optimum_points},");
    let _ = writeln!(
        json,
        "    \"points_per_sec\": {:.1},",
        optimum_points as f64 / optimum_wall
    );
    let _ = writeln!(json, "    \"dc_solves\": {optimum_solves}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"obs\": {{");
    let _ = writeln!(json, "    \"disabled_wall_s\": {obs_disabled_wall:.6e},");
    let _ = writeln!(json, "    \"enabled_wall_s\": {obs_enabled_wall:.6e},");
    let _ = writeln!(json, "    \"relative_overhead\": {:.4}", obs_overhead);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"speedup_lanes_over_reference\": {:.3},",
        speedup_lanes
    );
    let _ = writeln!(
        json,
        "  \"iteration_budget_per_solve\": {:.3},",
        recorded_budget
    );
    let _ = writeln!(json, "  \"context\": {{");
    let _ = writeln!(
        json,
        "    \"pre_pr_closed_form_points_per_sec_grid14\": {:.1},",
        PRE_PR_CLOSED_FORM_PPS_GRID14
    );
    let _ = writeln!(
        json,
        "    \"pre_pr_closed_form_points_per_sec_grid32\": {:.1}",
        PRE_PR_CLOSED_FORM_PPS_GRID32
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    let out = args.out.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json")
    });
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: writing {}: {e}", out.display());
        return ExitCode::from(2);
    }

    println!(
        "dense reference: {} points in {:.3} ms -> {:.0} points/sec ({:.1} iters/solve)",
        reference.points,
        reference.wall_s * 1e3,
        reference.points as f64 / reference.wall_s,
        reference.stats.iterations_per_solve(),
    );
    println!(
        "dense lanes    : {} points in {:.3} ms -> {:.0} points/sec ({:.1} iters/solve)",
        lanes.points,
        lanes.wall_s * 1e3,
        lanes.points as f64 / lanes.wall_s,
        lanes_iters,
    );
    println!(
        "optimum        : {} points, {} DC solves in {:.3} ms ({:.1}x faster than the dense lanes sweep)",
        optimum_points,
        optimum_solves,
        optimum_wall * 1e3,
        lanes.wall_s / optimum_wall,
    );
    println!("speedup lanes/reference: {speedup_lanes:.2}x");
    println!(
        "obs overhead (metrics on vs off): {:+.2}%",
        obs_overhead * 100.0
    );
    println!("wrote {}", out.display());

    if let Some(budget) = args.budget {
        if lanes_iters > budget {
            eprintln!(
                "error: lane kernel spends {lanes_iters:.2} Newton iterations per solve, \
                 over the budget of {budget:.2}"
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
