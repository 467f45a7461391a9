//! `mc_bench` — throughput benchmark of the Monte-Carlo yield engine.
//!
//! ```text
//! mc_bench [--trials N] [--reps R] [--out PATH] [--budget CODES]
//! ```
//!
//! Times the yield engine's two evaluation paths on the paper's 12-bit
//! segmented spec at the spec unit-source sigma and writes the
//! measurements as `BENCH_mc.json` (schema `ctsdac-mc-bench-v3`):
//!
//! * `reference` — one engine run through [`YieldMode::Reference`]: common
//!   random numbers across the three metrics but still the scalar
//!   allocating chain per trial;
//! * `lanes` — the production path: an allocation-free screened
//!   classification evaluated eight trials at a time through the
//!   structure-of-arrays lane kernel (`run_lanes::<8>`), falling back to
//!   the reference chain only for limit-grazing trials.
//!
//! Before timing, the run cross-checks that `lanes` and `reference`
//! produce identical yield counts on the same seed (the engine's
//! bit-identity guarantee) and records the verdict in the JSON.
//!
//! `--budget CODES` turns the run into a regression gate on *deterministic
//! work*, not wall-clock: if the lane engine scans more than CODES
//! transfer-curve code-equivalents per trial (the screened classifier does
//! one ~272-code block scan; a full curve is 4096 at 12 bits), the JSON is
//! still written but the process exits non-zero. The CI `mc-bench-smoke`
//! stage uses this with the budget stored in the checked-in
//! `BENCH_mc.json`, so a change that quietly re-walks the full curve per
//! trial fails CI even on noisy machines.
//!
//! Wall times are best-of-`reps` (minimum over repetitions).

use ctsdac_core::DacSpec;
use ctsdac_dac::architecture::SegmentedDac;
use ctsdac_dac::yield_engine::{FusedYields, YieldEngine, YieldLimits, YieldMode};
use ctsdac_obs as obs;
use ctsdac_stats::sample::seeded_rng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Default trial count: the acceptance point of the engine PR.
const DEFAULT_TRIALS: u64 = 10_000;
/// Default repetitions per timed strategy.
const DEFAULT_REPS: u32 = 5;
/// Seed shared by every strategy so the draws are comparable.
const SEED: u64 = 2003;

struct Args {
    trials: u64,
    reps: u32,
    out: Option<PathBuf>,
    budget: Option<f64>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        trials: DEFAULT_TRIALS,
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
            "--trials" => {
                args.trials = value()?.parse().map_err(|e| format!("--trials: {e}"))?;
                if args.trials == 0 {
                    return Err("--trials must be at least 1".into());
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

/// Best-of-reps wall seconds of one strategy closure.
fn time_best<F: FnMut()>(reps: u32, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn strategy_json(wall_s: f64, trials: u64, yields: &FusedYields) -> String {
    format!(
        "{{\n      \"wall_s\": {:.6e},\n      \"trials\": {},\n      \
         \"trials_per_sec\": {:.1},\n      \"inl_yield\": {:.6},\n      \
         \"dnl_yield\": {:.6},\n      \"monotonicity_yield\": {:.6}\n    }}",
        wall_s,
        trials,
        trials as f64 / wall_s,
        yields.inl.estimate(),
        yields.dnl.estimate(),
        yields.monotonicity.estimate(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: mc_bench [--trials N] [--reps R] [--out PATH] [--budget CODES]");
            return ExitCode::from(2);
        }
    };
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec();
    let limits = YieldLimits::half_lsb();
    let trials = args.trials;
    let codes_per_curve = dac.max_code() + 1;

    // Bit-identity cross-check on a shared seed before any timing.
    let mut engine = match YieldEngine::new(&dac, sigma, limits) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: building engine: {e}");
            return ExitCode::from(2);
        }
    };
    let check_trials = trials.min(500);
    let mut rng = seeded_rng(SEED);
    let reference_check = engine.run(YieldMode::Reference, check_trials, &mut rng);
    let mut rng = seeded_rng(SEED);
    let lanes_check = engine.run_lanes::<8, _>(check_trials, &mut rng);
    let lanes_identical = match (&lanes_check, &reference_check) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    if !lanes_identical {
        eprintln!("error: lane and reference paths disagree on seed {SEED}");
        return ExitCode::from(1);
    }

    // reference: one engine run through the scalar allocating chain.
    let mut reference_yields = None;
    let reference_wall = time_best(args.reps, || {
        let mut rng = seeded_rng(SEED);
        reference_yields = Some(
            engine
                .run(YieldMode::Reference, trials, &mut rng)
                .expect("reference run"),
        );
    });
    let reference_yields = reference_yields.expect("reps >= 1");

    // lanes: the production SoA kernel, eight trials per group,
    // instrumented for the deterministic work budget.
    let mut lanes_engine = YieldEngine::new(&dac, sigma, limits).expect("validated above");
    let mut lanes_yields = None;
    let lanes_wall = time_best(args.reps, || {
        let mut rng = seeded_rng(SEED);
        lanes_yields = Some(
            lanes_engine
                .run_lanes::<8, _>(trials, &mut rng)
                .expect("lanes run"),
        );
    });
    let lanes_yields = lanes_yields.expect("reps >= 1");
    let codes_per_trial = lanes_engine.codes_scanned() as f64 / lanes_engine.trials_run() as f64;

    // Observability overhead: the lane engine with the metrics registry
    // live versus the default compiled-in-but-disabled hooks. Same seed
    // and trial count on both sides, arms interleaved rep by rep and both
    // taken min-of-reps, so the ratio isolates the cost of the atomic
    // counter updates from host noise.
    let mut obs_disabled_wall = f64::INFINITY;
    let mut obs_enabled_wall = f64::INFINITY;
    obs::set_metrics(false);
    for _ in 0..args.reps {
        obs::set_metrics(false);
        let mut rng = seeded_rng(SEED);
        let t0 = Instant::now();
        lanes_engine
            .run_lanes::<8, _>(trials, &mut rng)
            .expect("obs-off run");
        obs_disabled_wall = obs_disabled_wall.min(t0.elapsed().as_secs_f64());
        obs::set_metrics(true);
        let mut rng = seeded_rng(SEED);
        let t0 = Instant::now();
        lanes_engine
            .run_lanes::<8, _>(trials, &mut rng)
            .expect("obs-on run");
        obs_enabled_wall = obs_enabled_wall.min(t0.elapsed().as_secs_f64());
    }
    obs::set_metrics(false);
    obs::reset();
    let obs_overhead = obs_enabled_wall / obs_disabled_wall - 1.0;

    let speedup_lanes_ref = reference_wall / lanes_wall;
    // The work budget recorded in the JSON: the caller's --budget if given,
    // else half a transfer curve per trial. The screened classifier does one
    // block scan (~272 code-equivalents at 12 bits), so a regression that
    // re-walks the full 4096-code curve per trial blows the budget.
    let recorded_budget = args.budget.unwrap_or(codes_per_curve as f64 / 2.0);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"ctsdac-mc-bench-v3\",");
    let _ = writeln!(json, "  \"n_bits\": {},", spec.n_bits);
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"reps\": {},", args.reps);
    let _ = writeln!(json, "  \"sigma_unit\": {sigma:.8e},");
    let _ = writeln!(json, "  \"codes_per_curve\": {codes_per_curve},");
    let _ = writeln!(
        json,
        "  \"bit_identical_lanes_vs_reference\": {lanes_identical},"
    );
    let _ = writeln!(
        json,
        "  \"reference\": {},",
        strategy_json(reference_wall, trials, &reference_yields)
    );
    let _ = writeln!(
        json,
        "  \"lanes\": {},",
        strategy_json(lanes_wall, trials, &lanes_yields)
    );
    let _ = writeln!(json, "  \"obs\": {{");
    let _ = writeln!(json, "    \"disabled_wall_s\": {obs_disabled_wall:.6e},");
    let _ = writeln!(json, "    \"enabled_wall_s\": {obs_enabled_wall:.6e},");
    let _ = writeln!(json, "    \"relative_overhead\": {obs_overhead:.4}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"codes_per_trial\": {codes_per_trial:.1},");
    let _ = writeln!(json, "  \"per_trial_work_budget\": {recorded_budget:.1},");
    let _ = writeln!(
        json,
        "  \"speedup_lanes_over_reference\": {speedup_lanes_ref:.3}"
    );
    let _ = writeln!(json, "}}");

    let out = args
        .out
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_mc.json"));
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: writing {}: {e}", out.display());
        return ExitCode::from(2);
    }

    println!(
        "reference (CRN) : {trials} trials in {:.3} ms -> {:.0} trials/sec",
        reference_wall * 1e3,
        trials as f64 / reference_wall,
    );
    println!(
        "lanes (SoA x8)  : {trials} trials in {:.3} ms -> {:.0} trials/sec \
         ({codes_per_trial:.0} codes/trial)",
        lanes_wall * 1e3,
        trials as f64 / lanes_wall,
    );
    println!("speedup lanes/reference  : {speedup_lanes_ref:.2}x");
    println!(
        "obs overhead (metrics on vs off): {:+.2}%",
        obs_overhead * 100.0
    );
    println!("wrote {}", out.display());

    if let Some(budget) = args.budget {
        if codes_per_trial > budget {
            eprintln!(
                "error: lane engine scans {codes_per_trial:.1} codes per trial, \
                 over the budget of {budget:.1}"
            );
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
