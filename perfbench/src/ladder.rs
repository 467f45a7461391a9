//! `inl-yield`: the eq. (1) validation experiment as a σ ladder over 10-
//! and 12-bit `SegmentedDac`s, through the public functions the
//! experiment, calibration and example call:
//! `static_metrics::{inl,dnl,monotonicity}_yield_mc`.
//!
//! Operation: one rung of the ladder — INL, DNL and monotonicity yield
//! of both converters at one σ factor, over the rung's trials per call
//! ([`LADDER_DACS`], [`LADDER_RUNGS`]). One trial answers the three
//! metrics at one σ step. A cycle climbs the five rungs once. Layers: `dac::static_metrics`;
//! the traced run also times the lane `dac::yield_engine` on each step.
//! No circuit solver, service or store.

use crate::inputs::{ladder_seed, LADDER_DACS, LADDER_RUNGS};
use crate::trace::{Counters, SpanId, Tracer};
use crate::{median_setup, peak_rss_mb, timed_cycles, trace_overhead, Outcome, Pass, RunCfg};
use ctsdac_core::DacSpec;
use ctsdac_dac::architecture::SegmentedDac;
use ctsdac_dac::static_metrics::{dnl_yield_mc, inl_yield_mc, monotonicity_yield_mc};
use ctsdac_dac::yield_engine::{YieldEngine, YieldLimits, YieldMode};
use ctsdac_obs::Counter;
use ctsdac_stats::{seeded_rng, YieldEstimate};
use std::hint::black_box;
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Trials per metric per step of the set-up warm-up.
const WARMUP_TRIALS: u64 = 16;
/// Trials per step of the lane-engine timing in the traced run.
const ENGINE_TRIALS: u64 = 4000;
/// Trials per step compared flag by flag between the lane engine and
/// `YieldMode::Reference`.
const LANE_SAMPLE: u64 = 64;
/// Lane width of the production yield engine.
const LANE_W: usize = 8;

/// One σ step: a converter at a multiple of its eq. (1) spec sigma.
struct Step {
    dac: SegmentedDac,
    sigma: f64,
    trials: u64,
    /// `n10.y997`-style suffix of the step's metric names.
    tag: String,
}

fn steps() -> Vec<Step> {
    let base = DacSpec::paper_12bit();
    let mut v = Vec::new();
    for (n, base_trials) in LADDER_DACS {
        let spec = DacSpec::new(n, 4, 0.997, base.env, base.tech);
        for (budget, factor, y) in LADDER_RUNGS {
            v.push(Step {
                dac: SegmentedDac::new(&spec),
                sigma: spec.sigma_unit_spec() * factor,
                trials: base_trials * budget,
                tag: format!("n{n}.{y}"),
            });
        }
    }
    v
}

/// Names and units of the per-step layer metrics.
pub fn step_metrics() -> Vec<(String, &'static str)> {
    let mut v = Vec::new();
    for (n, _) in LADDER_DACS {
        for (_, _, y) in LADDER_RUNGS {
            for (m, unit) in [
                ("dac.static_metrics.inl_ms", "ms"),
                ("dac.static_metrics.dnl_ms", "ms"),
                ("dac.static_metrics.mono_ms", "ms"),
                ("dac.yield_engine.ns_per_trial", "ns"),
                ("dac.yield_engine.codes_per_trial", "count"),
                ("dac.yield_engine.fallback_rate", "ratio"),
            ] {
                v.push((format!("{m}.n{n}.{y}"), unit));
            }
        }
    }
    v
}

/// Span names of the three yield functions.
const METRIC_SPANS: [&str; 3] = [
    "dac.static_metrics.inl",
    "dac.static_metrics.dnl",
    "dac.static_metrics.mono",
];

/// The three yields of one step, INL / DNL / monotonicity.
type StepYields = [YieldEstimate; 3];

/// What one timed operation produced: cycle, step and yields.
type Done = (u64, usize, Result<StepYields, String>);

/// One σ step of cycle `pass` under span `parent`; its spans carry
/// request id `pass * 100 + step`.
fn step_op(
    step: &Step,
    s: usize,
    seed: u64,
    pass: u64,
    trials: u64,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<StepYields, String> {
    let id = pass * 100 + s as u64;
    let rng = |m: usize| seeded_rng(ladder_seed(seed, pass, s, m));
    let inl = tracer.time(METRIC_SPANS[0], Some(parent), id, || {
        inl_yield_mc(&step.dac, step.sigma, 0.5, trials, &mut rng(0))
    });
    let dnl = tracer.time(METRIC_SPANS[1], Some(parent), id, || {
        dnl_yield_mc(&step.dac, step.sigma, 0.5, trials, &mut rng(1))
    });
    let mono = tracer.time(METRIC_SPANS[2], Some(parent), id, || {
        monotonicity_yield_mc(&step.dac, step.sigma, trials, &mut rng(2))
    });
    match (inl, dnl, mono) {
        (Ok(i), Ok(d), Ok(m)) => Ok([i, d, m]),
        (i, d, m) => Err(format!(
            "{}: {:?} {:?} {:?}",
            step.tag,
            i.err(),
            d.err(),
            m.err()
        )),
    }
}

/// Rung `rung` of cycle `pass`: the step of every converter at that σ
/// factor. `trials` overrides the converters' trial counts (warm-up).
fn rung_op(
    steps: &[Step],
    rung: usize,
    seed: u64,
    pass: u64,
    trials: Option<u64>,
    tracer: &mut Tracer,
    done: &mut Vec<Done>,
) {
    let root = tracer.begin("ladder.rung", None, pass * 100 + rung as u64);
    for s in (rung..steps.len()).step_by(LADDER_RUNGS.len()) {
        let r = step_op(
            &steps[s],
            s,
            seed,
            pass,
            trials.unwrap_or(steps[s].trials),
            tracer,
            root,
        );
        done.push((pass, s, r));
    }
    tracer.end(root);
}

/// Times whole cycles over the rungs for `seconds`, numbering cycles
/// from `first`.
fn pass(
    steps: &[Step],
    seed: u64,
    first: u64,
    seconds: f64,
    tracer: &mut Tracer,
    done: &mut Vec<Done>,
) -> Pass {
    let rungs = LADDER_RUNGS.len();
    let mut p = timed_cycles(seconds, rungs, |i| {
        let t = Instant::now();
        rung_op(
            steps,
            i % rungs,
            seed,
            first + (i / rungs) as u64,
            None,
            tracer,
            done,
        );
        t.elapsed().as_secs_f64() * 1e3
    });
    let per_cycle: u64 = steps.iter().map(|s| s.trials).sum();
    p.units = (p.latencies_ms.len() / rungs) as f64 * per_cycle as f64;
    p
}

/// Each legacy yield must equal the lane engine's yield for the same
/// seed (one draw per trial, the same pass predicate).
fn check_step(step: &Step, s: usize, seed: u64, pass: u64, got: &StepYields) -> Result<(), String> {
    let mut engine = YieldEngine::new(&step.dac, step.sigma, YieldLimits::half_lsb())
        .map_err(|e| e.to_string())?;
    for (m, got) in got.iter().enumerate() {
        let mut rng = seeded_rng(ladder_seed(seed, pass, s, m));
        let lanes = engine
            .run_lanes::<LANE_W, _>(step.trials, &mut rng)
            .map_err(|e| e.to_string())?;
        let want = [lanes.inl, lanes.dnl, lanes.monotonicity][m];
        if *got != want {
            return Err(format!(
                "cycle {pass} {} metric {m}: {got:?} vs lanes {want:?}",
                step.tag
            ));
        }
    }
    Ok(())
}

/// The lane classifier's per-trial flags equal `YieldMode::Reference`'s
/// on a sample of every step.
fn check_lanes(steps: &[Step], seed: u64) -> Result<(), String> {
    for (s, step) in steps.iter().enumerate() {
        let mut engine = YieldEngine::new(&step.dac, step.sigma, YieldLimits::half_lsb())
            .map_err(|e| e.to_string())?;
        let lanes = engine.flags_lanes::<LANE_W, _>(LANE_SAMPLE, &mut seeded_rng(seed ^ s as u64));
        let mut rng = seeded_rng(seed ^ s as u64);
        let reference: Vec<[bool; 3]> = (0..LANE_SAMPLE)
            .map(|_| engine.trial_flags(YieldMode::Reference, &mut rng))
            .collect();
        if lanes != reference {
            return Err(format!(
                "{}: lane flags differ from the reference",
                step.tag
            ));
        }
    }
    Ok(())
}

/// Checks every step of every rung; returns the number of failed rungs
/// (plus one if the lane sample disagrees with the reference).
fn check(steps: &[Step], seed: u64, done: &[Done], out: &mut Outcome) -> u64 {
    let mut failed_rungs = std::collections::BTreeSet::new();
    for (pass, s, r) in done {
        let verdict = r
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|y| check_step(&steps[*s], *s, seed, *pass, y));
        if let Err(e) = verdict {
            out.note(e);
            failed_rungs.insert((*pass, *s % LADDER_RUNGS.len()));
        }
    }
    let mut failed = failed_rungs.len() as u64;
    if let Err(e) = check_lanes(steps, seed) {
        out.note(e);
        failed += 1;
    }
    let inl: Vec<String> = done
        .iter()
        .take(steps.len())
        .filter_map(|(_, s, r)| {
            r.as_ref()
                .ok()
                .map(|y| format!("{} {:.3}", steps[*s].tag, y[0].estimate()))
        })
        .collect();
    out.note(format!("INL yield, first cycle: {}", inl.join(", ")));
    failed
}

fn setup(seed: u64) -> Vec<Step> {
    let steps = steps();
    let mut done = Vec::new();
    for rung in 0..LADDER_RUNGS.len() {
        rung_op(
            &steps,
            rung,
            seed,
            1 << 40,
            Some(WARMUP_TRIALS),
            &mut Tracer::new(false),
            &mut done,
        );
    }
    black_box(done);
    steps
}

/// Times the lane engine on every step with obs counters on:
/// ns per trial, transfer-curve codes scanned per trial and the share of
/// trials the screened classifier sent to the exact fallback.
fn engine_metrics(steps: &[Step], seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let root = tracer.begin("ladder.engine", None, 0);
    for (s, step) in steps.iter().enumerate() {
        let Ok(mut engine) = YieldEngine::new(&step.dac, step.sigma, YieldLimits::half_lsb())
        else {
            continue;
        };
        let before = Counters::now();
        let id = tracer.begin("dac.yield_engine.run_lanes", Some(root), s as u64);
        let t = Instant::now();
        black_box(
            engine
                .run_lanes::<LANE_W, _>(ENGINE_TRIALS, &mut seeded_rng(seed ^ 0xe0 ^ s as u64))
                .ok(),
        );
        let ns = t.elapsed().as_nanos() as f64;
        tracer.end(id);
        let c = Counters::now().since(&before);
        let trials = c.get(Counter::YieldTrials).max(1) as f64;
        out.set(
            &format!("dac.yield_engine.ns_per_trial.{}", step.tag),
            ns / ENGINE_TRIALS as f64,
        );
        out.set(
            &format!("dac.yield_engine.codes_per_trial.{}", step.tag),
            c.get(Counter::YieldCodesScanned) as f64 / trials,
        );
        out.set(
            &format!("dac.yield_engine.fallback_rate.{}", step.tag),
            c.get(Counter::YieldFallbacks) as f64 / trials,
        );
    }
    tracer.end(root);
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = median_setup(SETUP_REPS, || {
        black_box(setup(cfg.seed));
    });
    let steps = setup(cfg.seed);
    let mut results = Vec::new();
    if !cfg.trace {
        let p = pass(
            &steps,
            cfg.seed,
            0,
            cfg.seconds,
            &mut Tracer::new(false),
            &mut results,
        );
        out.set("peak_rss_mb", peak_rss_mb());
        out.set_e2e(setup_s, &p);
        out.attempted = p.latencies_ms.len() as u64;
        out.failed += check(&steps, cfg.seed, &results, &mut out);
        return out;
    }

    let untraced = pass(
        &steps,
        cfg.seed,
        0,
        cfg.seconds / 2.0,
        &mut Tracer::new(false),
        &mut results,
    );
    let mut tracer = Tracer::new(true);
    ctsdac_obs::set_metrics(true);
    let before = Counters::now();
    let next_cycle = results.last().map_or(0, |(pass, _, _)| pass + 1);
    let traced = pass(
        &steps,
        cfg.seed,
        next_cycle,
        cfg.seconds / 2.0,
        &mut tracer,
        &mut results,
    );
    let c = Counters::now().since(&before);
    engine_metrics(&steps, cfg.seed, &mut tracer, &mut out);
    ctsdac_obs::set_metrics(false);

    let ops = traced.latencies_ms.len() as f64;
    for (s, step) in steps.iter().enumerate() {
        for (k, span) in METRIC_SPANS.iter().enumerate() {
            let name = ["inl_ms", "dnl_ms", "mono_ms"][k];
            let ms = tracer.self_ms_where(span, |req| req % 100 == s as u64);
            out.set(
                &format!("dac.static_metrics.{name}.{}", step.tag),
                crate::stats::median(&ms),
            );
        }
    }
    crate::set_work_counts(&mut out, &c, ops);
    out.set("bench.samples", ops);
    out.set("bench.trace_overhead", trace_overhead(&untraced, &traced));
    out.set_e2e(setup_s, &untraced);
    out.attempted = (untraced.latencies_ms.len() + traced.latencies_ms.len()) as u64;
    out.failed += check(&steps, cfg.seed, &results, &mut out);
    if let Err(e) = tracer.write_jsonl(
        &cfg.out_dir
            .join(format!("inl-yield-seed{}-spans.jsonl", cfg.seed)),
    ) {
        out.note(format!("spans not written: {e}"));
    }
    out
}
