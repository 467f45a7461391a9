//! Randomized determinism suite for the keyed `pool.chunk` failpoint site.
//!
//! Each case arms a random mix of keyed `N` / `N..` / `1/N` / absent
//! items with a random seed and records which (chunk, attempt, kind)
//! triples actually fired. The set must not depend on the worker count
//! (`jobs` 1, 2 and 8) nor on how many runs the registry has already
//! served: a keyed verdict is a pure function of (spec, seed, chunk,
//! attempt). Driven by the in-tree deterministic PRNG, like the other
//! property suites.

use ctsdac_failpoint::Registry;
use ctsdac_runtime::{run_chunks, ChunkCtx, PoolConfig, TaskFault};
use ctsdac_stats::rng::{seeded_rng, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

const CASES: usize = 32;
const CHUNKS: u64 = 24;
/// Generous enough that no generated panic mix exhausts a chunk: the run
/// must finish for its fault set to be comparable across worker counts.
const RETRIES: u32 = 15;

type Fired = BTreeSet<(u64, u32, &'static str)>;

/// A random comma-separated spec over `pool.chunk[k]`. Panics take the
/// `N` and `1/N` policies (an absent or `N..` panic would fail a chunk on
/// every attempt and abort the run); `nan` items, which the recording
/// worker observes without failing, take all four.
fn random_spec(rng: &mut impl Rng) -> String {
    let items = rng.gen_range(4..17u64);
    (0..items)
        .map(|_| {
            let key = rng.gen_range(0..CHUNKS);
            let n = rng.gen_range(1..5u64);
            if rng.gen_range(0.0..1.0) < 0.5 {
                match rng.gen_range(0..2u64) {
                    0 => format!("panic@pool.chunk[{key}]:{n}"),
                    _ => format!("panic@pool.chunk[{key}]:1/{}", n + 2),
                }
            } else {
                match rng.gen_range(0..4u64) {
                    0 => format!("nan@pool.chunk[{key}]:{n}"),
                    1 => format!("nan@pool.chunk[{key}]:{n}.."),
                    2 => format!("nan@pool.chunk[{key}]:1/{}", n + 1),
                    _ => format!("nan@pool.chunk[{key}]"),
                }
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// One supervised run against `fp`; returns every fault that fired.
fn run(fp: &std::sync::Arc<Registry>, jobs: usize) -> Fired {
    let nans = Mutex::new(Fired::new());
    let cfg = PoolConfig {
        jobs,
        retries: RETRIES,
        failpoints: Some(fp.clone()),
        ..PoolConfig::default()
    };
    let worker = |ctx: &ChunkCtx<'_>| -> Result<u64, String> {
        if ctx.injected_nan() {
            nans.lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert((ctx.chunk, ctx.attempt, "nan"));
        }
        Ok(ctx.chunk)
    };
    let report = run_chunks(&cfg, CHUNKS, BTreeMap::new(), worker, |_, _| Ok(()))
        .expect("no chunk exhausts its retries");
    let mut fired = nans.into_inner().unwrap_or_else(|e| e.into_inner());
    for fault in &report.faults {
        match fault {
            TaskFault::Panic { chunk, attempt, .. } => fired.insert((*chunk, *attempt, "panic")),
            other => panic!("unexpected fault {other:?}"),
        };
    }
    fired
}

#[test]
fn keyed_faults_are_identical_across_jobs_and_repeat_runs() {
    let mut rng = seeded_rng(0xFA17);
    let mut total = 0;
    for case in 0..CASES {
        let spec = random_spec(&mut rng);
        let seed = rng.gen_range(0..u64::MAX);
        let reference = run(&Registry::armed(&spec, seed).expect("spec"), 1);
        for jobs in [1, 2, 8] {
            let fp = Registry::armed(&spec, seed).expect("spec");
            let first = run(&fp, jobs);
            let second = run(&fp, jobs);
            assert_eq!(
                first, reference,
                "case {case}, jobs {jobs}: {spec} (seed {seed})"
            );
            assert_eq!(
                second, reference,
                "case {case}, jobs {jobs}, rerun: {spec} (seed {seed})"
            );
        }
        total += reference.len();
    }
    assert!(
        total >= 2 * CASES,
        "only {total} faults fired over {CASES} cases"
    );
}
