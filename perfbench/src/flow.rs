//! `flow`: a seeded batch of `dacsizer` runs done in-process the way the
//! binary's `main` does them — `run_flow` (or `run_flow_supervised` for
//! `--jobs 2`), then the saturation-yield check at the sized point.
//!
//! Operation: one `dacsizer` run. Layers: `core::flow`, `core::explore`
//! → `circuit::dc` (simple cells), `core::cascode` (cascoded cells),
//! `core::validate` and the `runtime` pool. No service, store or yield
//! engine.

use crate::inputs::{flow_batch, FlowInput};
use crate::trace::{Counters, SpanId, Tracer};
use crate::{median_setup, peak_rss_mb, timed_cycles, trace_overhead, Outcome, Pass, RunCfg};
use ctsdac_circuit::cell::{CellEnvironment, CellTopology};
use ctsdac_core::cascode::CascodeSpace;
use ctsdac_core::explore::{DesignSpace, Objective, SweepMode};
use ctsdac_core::flow::{run_flow, run_flow_supervised, FlowOptions};
use ctsdac_core::saturation::SaturationCondition;
use ctsdac_core::validate::{saturation_yield_mc, saturation_yield_supervised};
use ctsdac_core::DacSpec;
use ctsdac_process::Technology;
use ctsdac_runtime::{ExecPolicy, McPlan};
use ctsdac_stats::seeded_rng;
use std::hint::black_box;
use std::time::Instant;

/// Trials per chunk of the supervised check, as in `dacsizer`.
const MC_CHUNK_TRIALS: u64 = 250;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Grid of the set-up warm-up runs.
const WARMUP_GRID: usize = 16;

/// One prepared `dacsizer` run.
#[derive(Debug, Clone)]
struct Job {
    input: FlowInput,
    spec: DacSpec,
    options: FlowOptions,
}

/// What one run produced, compared bit for bit across repetitions.
#[derive(Debug, Clone, PartialEq)]
struct Produced {
    topology: CellTopology,
    overdrives: (u64, u64, u64),
    total_area: u64,
    yield_passes: u64,
}

fn prepare(batch: &[FlowInput]) -> Vec<Job> {
    batch
        .iter()
        .map(|input| {
            let spec = DacSpec::new(
                input.n_bits,
                input.binary_bits,
                input.inl_yield,
                CellEnvironment::paper_12bit(),
                Technology::c035(),
            );
            let options = FlowOptions {
                objective: input.objective,
                topology: input.topology,
                condition: SaturationCondition::Statistical,
                grid: input.grid,
                f_update: 400e6,
                adaptive: false,
            };
            Job {
                input: input.clone(),
                spec,
                options,
            }
        })
        .collect()
}

/// One `dacsizer` run: the flow, then the seeded saturation-yield check.
fn run_one(job: &Job, tracer: &mut Tracer, op: u64) -> Result<Produced, String> {
    let root = tracer.begin("flow.op", None, op);
    let out = run_inner(job, tracer, root, op);
    tracer.end(root);
    out
}

fn run_inner(job: &Job, tracer: &mut Tracer, root: SpanId, op: u64) -> Result<Produced, String> {
    let input = &job.input;
    let policy = ExecPolicy::with_jobs(input.jobs);
    let report = tracer
        .time("core.flow.run_flow", Some(root), op, || {
            if input.jobs > 1 {
                run_flow_supervised(&job.spec, &job.options, &policy).map(|s| s.value)
            } else {
                run_flow(&job.spec, &job.options)
            }
        })
        .map_err(|e| format!("flow: {e}"))?;
    let ov = report.overdrives;
    let passes = tracer
        .time("core.validate.yield_check", Some(root), op, || {
            if input.jobs > 1 {
                let plan = McPlan::new(input.check_seed, input.check_trials, MC_CHUNK_TRIALS)
                    .map_err(|e| e.to_string())?;
                saturation_yield_supervised(&job.spec, ov.0 + ov.1, ov.2, &plan, &policy)
                    .map(|s| s.value.mc)
                    .map_err(|e| e.to_string())
            } else {
                let mut rng = seeded_rng(input.check_seed);
                saturation_yield_mc(&job.spec, ov.0 + ov.1, ov.2, input.check_trials, &mut rng)
                    .map(|y| y.mc)
                    .map_err(|e| e.to_string())
            }
        })
        .map_err(|e| format!("yield check: {e}"))?;
    Ok(Produced {
        topology: report.topology,
        overdrives: (ov.0.to_bits(), ov.1.to_bits(), ov.2.to_bits()),
        total_area: report.total_area.to_bits(),
        yield_passes: passes.passes(),
    })
}

/// Runs the batch in whole cycles for `seconds`.
fn pass(
    jobs: &[Job],
    seconds: f64,
    tracer: &mut Tracer,
    results: &mut Vec<(usize, Result<Produced, String>)>,
) -> Pass {
    timed_cycles(seconds, jobs.len(), |i| {
        let slot = i % jobs.len();
        let t = Instant::now();
        let r = run_one(&jobs[slot], tracer, i as u64);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        results.push((slot, black_box(r)));
        ms
    })
}

/// The searches `run_flow` makes internally, replayed with the same
/// inputs under the flow's `core.flow.run_flow` span.
fn replay_search(
    job: &Job,
    tracer: &mut Tracer,
    parent: SpanId,
    op: u64,
    topology: CellTopology,
) -> u64 {
    let spec = &job.spec;
    let o = &job.options;
    match topology {
        CellTopology::Simple => {
            tracer.replay("core.explore.search", parent, op, || {
                let space = DesignSpace::new(spec, o.condition).with_grid(o.grid);
                if job.input.jobs > 1 {
                    let policy = ExecPolicy::with_jobs(job.input.jobs);
                    black_box(
                        space
                            .optimize_supervised(o.objective, f64::INFINITY, &policy)
                            .ok(),
                    );
                } else {
                    black_box(space.optimize(o.objective).ok());
                }
            });
            0
        }
        CellTopology::Cascoded => {
            tracer.replay("core.cascode.search", parent, op, || {
                let space = CascodeSpace::new(spec, o.condition).with_grid(o.grid);
                black_box(match o.objective {
                    Objective::MinArea => space.min_area_point(),
                    _ => space.max_speed_point(),
                });
            });
            (o.grid as u64).pow(3)
        }
    }
}

/// The output check of one distinct run, against independent oracles:
/// the simple-cell optimum must sit within one grid cell of the
/// `SweepMode::Reference` optimum (the tolerance `tests/sweep_equivalence.rs`
/// allows), and a cascoded optimum must be admissible and equal to a
/// direct volume search.
fn oracle(job: &Job, p: &Produced) -> Result<(), String> {
    let o = &job.options;
    let (cs, cas, sw) = (
        f64::from_bits(p.overdrives.0),
        f64::from_bits(p.overdrives.1),
        f64::from_bits(p.overdrives.2),
    );
    match p.topology {
        CellTopology::Simple => {
            let space = DesignSpace::new(&job.spec, o.condition)
                .with_grid(o.grid)
                .with_mode(SweepMode::Reference);
            let axis = space.axis();
            let step = (axis[1] - axis[0]) * (1.0 + 1e-12);
            let r = space
                .optimize(o.objective)
                .map_err(|e| format!("reference: {e}"))?;
            if (r.vov_cs - cs).abs() > step || (r.vov_sw - sw).abs() > step {
                return Err(format!(
                    "optimum ({cs}, {sw}) is more than one cell from the reference ({}, {})",
                    r.vov_cs, r.vov_sw
                ));
            }
        }
        CellTopology::Cascoded => {
            if !o.condition.admits_cascoded(&job.spec, cs, cas, sw) {
                return Err(format!(
                    "cascoded optimum ({cs}, {cas}, {sw}) is not admissible"
                ));
            }
            let space = CascodeSpace::new(&job.spec, o.condition).with_grid(o.grid);
            let direct = match o.objective {
                Objective::MinArea => space.min_area_point(),
                _ => space.max_speed_point(),
            }
            .ok_or("direct cascode search found nothing")?;
            if (direct.vov_cs, direct.vov_cas, direct.vov_sw) != (cs, cas, sw) {
                return Err("cascoded optimum differs from the direct search".into());
            }
        }
    }
    Ok(())
}

/// Notes each mix entry's median latency, slowest first, so the results
/// record shows which runs set p50 and p90.
fn note_slots(jobs: &[Job], p: &Pass, out: &mut Outcome) {
    let mut per: Vec<(f64, String)> = jobs
        .iter()
        .enumerate()
        .map(|(slot, job)| {
            let ms: Vec<f64> = p
                .latencies_ms
                .iter()
                .skip(slot)
                .step_by(jobs.len())
                .copied()
                .collect();
            let i = &job.input;
            (
                crate::stats::median(&ms),
                format!(
                    "{}b {:?} {:?} grid {} jobs {}",
                    i.n_bits, i.topology, i.objective, i.grid, i.jobs
                ),
            )
        })
        .collect();
    per.sort_by(|a, b| b.0.total_cmp(&a.0));
    let text: Vec<String> = per
        .iter()
        .map(|(ms, what)| format!("{ms:.2} ms {what}"))
        .collect();
    out.note(format!("runs, slowest first: {}", text.join("; ")));
}

/// Checks every run against its slot's first run and each slot against
/// its oracle; returns the number of failed operations.
fn check(jobs: &[Job], results: &[(usize, Result<Produced, String>)], out: &mut Outcome) -> u64 {
    let mut first: Vec<Option<Produced>> = vec![None; jobs.len()];
    for (slot, r) in results {
        if let (Ok(p), None) = (r, &first[*slot]) {
            first[*slot] = Some(p.clone());
        }
    }
    let verdict: Vec<Result<(), String>> = jobs
        .iter()
        .zip(&first)
        .map(|(job, p)| match p {
            Some(p) => oracle(job, p),
            None => Err("no run succeeded".into()),
        })
        .collect();
    let mut failed = 0;
    for (slot, r) in results {
        let ok = match r {
            Ok(p) => first[*slot].as_ref() == Some(p) && verdict[*slot].is_ok(),
            Err(e) => {
                out.note(format!("slot {slot}: {e}"));
                false
            }
        };
        failed += u64::from(!ok);
    }
    for (slot, v) in verdict.iter().enumerate() {
        if let Err(e) = v {
            out.note(format!("slot {slot} ({:?}): {e}", jobs[slot].input));
        }
    }
    failed
}

fn setup(seed: u64) -> Vec<Job> {
    let jobs = prepare(&flow_batch(seed));
    // Warm-up: every run once at a small grid, so code, allocator and
    // page faults that a `dacsizer` process pays once are paid here.
    for job in &jobs {
        let mut small = job.clone();
        small.options.grid = WARMUP_GRID;
        small.input.check_trials = 200;
        black_box(run_one(&small, &mut Tracer::new(false), 0).ok());
    }
    jobs
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = median_setup(SETUP_REPS, || {
        black_box(setup(cfg.seed));
    });
    let jobs = setup(cfg.seed);
    let mut results = Vec::new();
    if !cfg.trace {
        let p = pass(&jobs, cfg.seconds, &mut Tracer::new(false), &mut results);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set_e2e(setup_s, &p);
        note_slots(&jobs, &p, &mut out);
        out.attempted = p.latencies_ms.len() as u64;
        out.failed += check(&jobs, &results, &mut out);
        return out;
    }

    // Traced run: an untraced half, then a traced half with obs counters
    // on; the difference in mean latency is the tracing overhead.
    let untraced = pass(
        &jobs,
        cfg.seconds / 2.0,
        &mut Tracer::new(false),
        &mut results,
    );
    let mut tracer = Tracer::new(true);
    let first_traced = results.len();
    ctsdac_obs::set_metrics(true);
    let before = Counters::now();
    let traced = pass(&jobs, cfg.seconds / 2.0, &mut tracer, &mut results);
    let c = Counters::now().since(&before);
    ctsdac_obs::set_metrics(false);

    let ops = traced.latencies_ms.len() as f64;
    let run_spans = tracer.ids_of("core.flow.run_flow");
    let mut cascode_points = 0u64;
    for (k, (slot, r)) in results[first_traced..].iter().enumerate() {
        if let Ok(p) = r {
            cascode_points += replay_search(
                &jobs[*slot],
                &mut tracer,
                run_spans[k],
                (first_traced + k) as u64,
                p.topology,
            );
        }
    }
    let agg = tracer.aggregate();
    let mean = |name: &str| agg.get(name).map_or(0.0, |a| a.mean_ms());
    out.set("core.flow.other_ms", mean("core.flow.run_flow"));
    out.set("core.explore.search_ms", mean("core.explore.search"));
    out.set("core.cascode.search_ms", mean("core.cascode.search"));
    out.set(
        "core.validate.yield_check_ms",
        mean("core.validate.yield_check"),
    );
    out.set("core.cascode.points", cascode_points as f64 / ops);
    crate::set_work_counts(&mut out, &c, ops);
    out.set("bench.samples", ops);
    out.set("bench.trace_overhead", trace_overhead(&untraced, &traced));
    out.set_e2e(setup_s, &untraced);
    out.attempted = (untraced.latencies_ms.len() + traced.latencies_ms.len()) as u64;
    out.failed += check(&jobs, &results, &mut out);
    if let Err(e) = tracer.write_jsonl(
        &cfg.out_dir
            .join(format!("flow-seed{}-spans.jsonl", cfg.seed)),
    ) {
        out.note(format!("spans not written: {e}"));
    }
    out
}
