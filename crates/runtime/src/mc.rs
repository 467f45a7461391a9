//! Supervised Monte-Carlo drivers.
//!
//! These run chunked Monte-Carlo experiments in the supervised pool.
//! An [`McPlan`] splits the trials into fixed-size chunks; chunk `c`
//! draws from its own counter-based RNG stream ([`McPlan::chunk_rng`],
//! `stream_rng(seed, c)`) and runs its trials in order, and the chunk
//! counts are merged in chunk order. Because every chunk is a pure
//! function of `(seed, chunk)`, the pooled result is **bit-identical**
//! for any `--jobs` value, with faults injected or not, and across
//! kill + resume from a checkpoint journal.
//!
//! The plan is the workspace's one draw scheme: a caller that walks a
//! plan itself (`ctsdac_core::validate`'s sequential Wilson test) runs the
//! same chunks in the same order, so it reports the same counts as the
//! pool at the same seed.

use crate::exec::{run_journaled, ExecPolicy, Supervised};
use crate::journal::JournalMeta;
use crate::pool::RuntimeError;
use ctsdac_obs as obs;
use ctsdac_stats::rng::stream_rng;
use ctsdac_stats::{Xoshiro256PlusPlus, YieldEstimate};

/// How a Monte-Carlo run is split into supervised chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McPlan {
    /// Root seed; chunk `i` draws from `stream_rng(seed, i)`.
    pub seed: u64,
    /// Total trials across all chunks.
    pub trials: u64,
    /// Trials per chunk (the last chunk may be shorter).
    pub chunk_trials: u64,
}

impl McPlan {
    /// Builds a plan; `chunk_trials` is clamped to at least 1.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Stats`] with `NoTrials` when `trials == 0`.
    pub fn new(seed: u64, trials: u64, chunk_trials: u64) -> Result<Self, RuntimeError> {
        if trials == 0 {
            return Err(RuntimeError::Stats(ctsdac_stats::StatsError::NoTrials));
        }
        Ok(Self {
            seed,
            trials,
            chunk_trials: chunk_trials.max(1),
        })
    }

    /// Number of chunks the run splits into.
    pub fn chunks(&self) -> u64 {
        self.trials.div_ceil(self.chunk_trials)
    }

    /// Global index of the first trial of `chunk`.
    pub fn chunk_start(&self, chunk: u64) -> u64 {
        chunk * self.chunk_trials
    }

    /// Number of trials in `chunk`.
    pub fn chunk_len(&self, chunk: u64) -> u64 {
        let start = self.chunk_start(chunk);
        self.chunk_trials.min(self.trials.saturating_sub(start))
    }

    /// The RNG stream `chunk` draws its trials from.
    pub fn chunk_rng(&self, chunk: u64) -> Xoshiro256PlusPlus {
        stream_rng(self.seed, chunk)
    }

    /// The journal identity of a run under this plan. `kind` separates
    /// driver families; `params` must digest everything else that
    /// determines trial outcomes.
    pub fn journal_meta(&self, kind: &str, params: &str) -> JournalMeta {
        JournalMeta {
            kind: kind.to_string(),
            seed: self.seed,
            chunks: self.chunks(),
            params: format!(
                "trials={},chunk={},{}",
                self.trials, self.chunk_trials, params
            ),
        }
    }
}

/// Runs a chunked pass/fail Monte-Carlo experiment under supervision and
/// pools the counts into one [`YieldEstimate`].
///
/// `run_chunk` receives the chunk's RNG stream ([`McPlan::chunk_rng`]),
/// the chunk's global start index and its trial count, and returns the
/// number of passing trials; it must depend only on those for
/// determinism. `params` digests the experiment's configuration for the
/// journal identity check.
///
/// # Errors
///
/// Any [`RuntimeError`] from the pool or journal; [`RuntimeError::Stats`]
/// if pooled counts are invalid (cannot happen with a well-behaved
/// `run_chunk`, but corruption is reported, not asserted).
pub fn yield_supervised<F>(
    policy: &ExecPolicy,
    plan: &McPlan,
    params: &str,
    run_chunk: F,
) -> Result<Supervised<YieldEstimate>, RuntimeError>
where
    F: Fn(&mut Xoshiro256PlusPlus, u64, u64) -> u64 + Sync,
{
    let meta = plan.journal_meta("yield", params);
    let out = run_journaled(
        policy,
        &meta,
        decode_counts,
        |&(passes, trials)| format!("{passes}:{trials}"),
        |ctx| {
            let len = plan.chunk_len(ctx.chunk);
            let start = plan.chunk_start(ctx.chunk);
            let mut passes = run_chunk(&mut plan.chunk_rng(ctx.chunk), start, len);
            obs::count(obs::Counter::McTrials, len);
            ctx.add_units(len);
            if ctx.injected_nan() {
                // Scripted corruption: an impossible count, which the
                // validation below must catch and turn into a retry.
                passes = len + 1;
            }
            if passes > len {
                return Err(format!(
                    "chunk pass count {passes} exceeds its {len} trials"
                ));
            }
            Ok((passes, len))
        },
    )?;

    let mut passes = 0u64;
    let mut trials = 0u64;
    for &(p, t) in &out.value {
        passes = passes.saturating_add(p);
        trials = trials.saturating_add(t);
    }
    let estimate = YieldEstimate::from_counts(passes, trials)?;
    Ok(out.map(|_| estimate))
}

fn decode_counts(s: &str) -> Option<(u64, u64)> {
    let (p, t) = s.split_once(':')?;
    let passes = p.parse().ok()?;
    let trials: u64 = t.parse().ok()?;
    (passes <= trials).then_some((passes, trials))
}

/// Runs a chunked multi-metric pass/fail Monte-Carlo experiment under
/// supervision: every trial evaluates all `metrics` pass criteria on the
/// *same* random draw (common random numbers across metrics), and the
/// per-metric counts pool into one [`YieldEstimate`] each.
///
/// `init` builds per-chunk worker state — e.g. a yield engine and its
/// lane scratch — once per chunk attempt, so the state never crosses
/// threads. `run_chunk` receives that state, the chunk-stream RNG
/// ([`McPlan::chunk_rng`]), the chunk's global start index and
/// trial count, and must add each metric's pass count into
/// `passes[..metrics]` after consuming exactly the trials' worth of
/// decisions (RNG over-read past the last trial is allowed — the stream
/// dies with the chunk). Both closures must be pure functions of their
/// arguments for the jobs-invariance guarantee: the pooled counts are
/// bit-identical for any `--jobs` value and across kill + resume, and
/// two kernels whose per-trial decisions agree can resume from each
/// other's `"yield-vector"` journals.
///
/// Trials are also published as fine-grained work units
/// ([`crate::pool::Progress::units_per_sec`]) for trials/sec display.
///
/// # Errors
///
/// [`RuntimeError::Stats`] when `metrics == 0`; otherwise any
/// [`RuntimeError`] from the pool or journal. Corrupt pooled counts are
/// reported, not asserted.
pub fn yield_vector_supervised_chunked<S, I, F>(
    policy: &ExecPolicy,
    plan: &McPlan,
    params: &str,
    metrics: usize,
    init: I,
    run_chunk: F,
) -> Result<Supervised<Vec<YieldEstimate>>, RuntimeError>
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &mut Xoshiro256PlusPlus, u64, u64, &mut [u64]) + Sync,
{
    if metrics == 0 {
        return Err(RuntimeError::Stats(ctsdac_stats::StatsError::EmptyData));
    }
    let meta = plan.journal_meta("yield-vector", &format!("metrics={metrics},{params}"));
    let out = run_journaled(
        policy,
        &meta,
        |s| decode_vector_counts(s, metrics),
        encode_vector_counts,
        |ctx| {
            let len = plan.chunk_len(ctx.chunk);
            let start = plan.chunk_start(ctx.chunk);
            let mut rng = plan.chunk_rng(ctx.chunk);
            let mut state = init();
            let mut passes = vec![0u64; metrics];
            run_chunk(&mut state, &mut rng, start, len, &mut passes);
            obs::count(obs::Counter::McTrials, len);
            ctx.add_units(len);
            if ctx.injected_nan() {
                // Scripted corruption: an impossible count, which the
                // validation below must catch and turn into a retry.
                passes[0] = len + 1;
            }
            if passes.iter().any(|&p| p > len) {
                return Err(format!(
                    "chunk pass counts {passes:?} exceed its {len} trials"
                ));
            }
            Ok((passes, len))
        },
    )?;

    let mut passes = vec![0u64; metrics];
    let mut trials = 0u64;
    for (chunk_passes, chunk_trials) in &out.value {
        for (acc, &p) in passes.iter_mut().zip(chunk_passes) {
            *acc = acc.saturating_add(p);
        }
        trials = trials.saturating_add(*chunk_trials);
    }
    let estimates = passes
        .iter()
        .map(|&p| YieldEstimate::from_counts(p, trials))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(out.map(|_| estimates))
}

fn encode_vector_counts((passes, trials): &(Vec<u64>, u64)) -> String {
    let mut out = String::new();
    for (i, p) in passes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&p.to_string());
    }
    out.push(':');
    out.push_str(&trials.to_string());
    out
}

fn decode_vector_counts(s: &str, metrics: usize) -> Option<(Vec<u64>, u64)> {
    let (head, tail) = s.split_once(':')?;
    let trials: u64 = tail.parse().ok()?;
    let passes: Vec<u64> = head
        .split(',')
        .map(|p| p.parse().ok())
        .collect::<Option<_>>()?;
    (passes.len() == metrics && passes.iter().all(|&p| p <= trials)).then_some((passes, trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::truncate_tail;
    use ctsdac_failpoint::Registry;
    use ctsdac_stats::Rng;

    fn armed(spec: &str) -> std::sync::Arc<Registry> {
        Registry::armed(spec, 0).expect("failpoint spec")
    }

    /// A chunk of Bernoulli(0.8) trials drawn in order from `rng`.
    fn pass_fn(rng: &mut Xoshiro256PlusPlus, _start: u64, len: u64) -> u64 {
        (0..len).filter(|_| rng.gen_range(0.0..1.0) < 0.8).count() as u64
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ctsdac-runtime-mc-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn plan_partitions_every_trial_exactly_once() {
        let plan = McPlan::new(1, 1003, 100).expect("plan");
        assert_eq!(plan.chunks(), 11);
        let total: u64 = (0..plan.chunks()).map(|c| plan.chunk_len(c)).sum();
        assert_eq!(total, 1003);
        assert_eq!(plan.chunk_len(10), 3);
        assert_eq!(plan.chunk_start(10), 1000);
        assert!(McPlan::new(1, 0, 100).is_err());
        // chunk_trials clamps to 1 rather than dividing by zero.
        assert_eq!(McPlan::new(1, 5, 0).expect("plan").chunks(), 5);
    }

    #[test]
    fn yield_estimate_matches_probability_and_is_jobs_invariant() {
        let plan = McPlan::new(11, 10_000, 512).expect("plan");
        let baseline = yield_supervised(&ExecPolicy::sequential(), &plan, "p=0.8", pass_fn)
            .expect("sequential");
        assert!((baseline.value.estimate() - 0.8).abs() < 0.02);
        for jobs in [2, 8] {
            let out = yield_supervised(&ExecPolicy::with_jobs(jobs), &plan, "p=0.8", pass_fn)
                .expect("parallel");
            assert_eq!(out.value, baseline.value, "jobs = {jobs}");
        }
    }

    #[test]
    fn yield_is_invariant_under_faults_and_resume() {
        let plan = McPlan::new(23, 4_000, 256).expect("plan");
        let clean =
            yield_supervised(&ExecPolicy::sequential(), &plan, "t", pass_fn).expect("clean");

        // Faults on: panics, a deadline overrun and a NaN corruption.
        let mut policy = ExecPolicy::with_jobs(4);
        policy.pool.deadline = Some(std::time::Duration::from_millis(250));
        policy.pool.failpoints = Some(armed(
            "panic@pool.chunk[0]:1,panic@pool.chunk[9]:1,delay=400@pool.chunk[3]:1,nan@pool.chunk[12]:1",
        ));
        let faulty = yield_supervised(&policy, &plan, "t", pass_fn).expect("supervised");
        assert_eq!(faulty.value, clean.value);
        assert_eq!(faulty.faults.len(), 4);

        // Kill + resume with a corrupted tail.
        let path = tmp("yield-resume.jsonl");
        std::fs::remove_file(&path).ok();
        yield_supervised(
            &ExecPolicy::with_jobs(2).checkpoint_at(&path),
            &plan,
            "t",
            pass_fn,
        )
        .expect("journaled");
        truncate_tail(&path, 9).expect("corrupt");
        let resumed = yield_supervised(
            &ExecPolicy::with_jobs(4).checkpoint_at(&path).resuming(),
            &plan,
            "t",
            pass_fn,
        )
        .expect("resumed");
        assert_eq!(resumed.value, clean.value);
        assert!(resumed.dropped >= 1);
        // No trial lost, none double-counted.
        assert_eq!(resumed.value.trials(), 4_000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_inline_walk_of_the_plan_matches_the_pool() {
        // Chunk c draws plan.chunk_rng(c) wherever it runs: walking the
        // chunks in order on this thread pools to the supervised counts.
        let plan = McPlan::new(17, 3_001, 250).expect("plan");
        let passes: u64 = (0..plan.chunks())
            .map(|c| {
                pass_fn(
                    &mut plan.chunk_rng(c),
                    plan.chunk_start(c),
                    plan.chunk_len(c),
                )
            })
            .sum();
        let pooled =
            yield_supervised(&ExecPolicy::with_jobs(4), &plan, "t", pass_fn).expect("pool");
        assert_eq!(
            pooled.value,
            YieldEstimate::from_counts(passes, 3_001).expect("counts")
        );
    }

    #[test]
    fn nan_injection_is_caught_and_retried() {
        let plan = McPlan::new(3, 1_000, 100).expect("plan");
        let mut policy = ExecPolicy::with_jobs(2);
        policy.pool.failpoints = Some(armed("nan@pool.chunk[4]:1"));
        let out = yield_supervised(&policy, &plan, "m", pass_fn).expect("supervised");
        let clean =
            yield_supervised(&ExecPolicy::sequential(), &plan, "m", pass_fn).expect("clean");
        assert_eq!(out.value, clean.value);
        assert_eq!(out.faults.len(), 1);
    }

    /// A three-metric chunk kernel with per-chunk state: the state
    /// counts trials so the driver's fresh-state-per-chunk contract is
    /// observable (every flag depends only on the trial's draw, not on
    /// history).
    fn vector_chunk(
        state: &mut u64,
        rng: &mut Xoshiro256PlusPlus,
        _start: u64,
        len: u64,
        passes: &mut [u64],
    ) {
        for _ in 0..len {
            *state += 1;
            let x = rng.gen_range(0.0..1.0);
            passes[0] += u64::from(x < 0.9);
            passes[1] += u64::from(x < 0.5);
            passes[2] += u64::from(x < 0.1);
        }
        assert_eq!(*state, len, "chunk state was not fresh");
    }

    #[test]
    fn vector_yields_share_draws_and_are_jobs_invariant() {
        let plan = McPlan::new(31, 8_000, 256).expect("plan");
        let baseline = yield_vector_supervised_chunked(
            &ExecPolicy::sequential(),
            &plan,
            "nested",
            3,
            || 0u64,
            vector_chunk,
        )
        .expect("sequential");
        assert_eq!(baseline.value.len(), 3);
        // Common random numbers: thresholds nest, so counts must too.
        assert!(baseline.value[0].passes() >= baseline.value[1].passes());
        assert!(baseline.value[1].passes() >= baseline.value[2].passes());
        assert!((baseline.value[0].estimate() - 0.9).abs() < 0.02);
        for jobs in [2, 8] {
            let out = yield_vector_supervised_chunked(
                &ExecPolicy::with_jobs(jobs),
                &plan,
                "nested",
                3,
                || 0u64,
                vector_chunk,
            )
            .expect("parallel");
            assert_eq!(out.value, baseline.value, "jobs = {jobs}");
        }
    }

    #[test]
    fn vector_yield_survives_faults_and_rejects_zero_metrics() {
        let plan = McPlan::new(31, 2_000, 128).expect("plan");
        let clean = yield_vector_supervised_chunked(
            &ExecPolicy::sequential(),
            &plan,
            "nested",
            3,
            || 0u64,
            vector_chunk,
        )
        .expect("clean");
        let mut policy = ExecPolicy::with_jobs(4);
        policy.pool.failpoints = Some(armed("panic@pool.chunk[1]:1,nan@pool.chunk[6]:1"));
        let faulty =
            yield_vector_supervised_chunked(&policy, &plan, "nested", 3, || 0u64, vector_chunk)
                .expect("supervised");
        assert_eq!(faulty.value, clean.value);
        assert_eq!(faulty.faults.len(), 2);

        let err = yield_vector_supervised_chunked(
            &ExecPolicy::sequential(),
            &plan,
            "nested",
            0,
            || 0u64,
            vector_chunk,
        );
        assert!(matches!(err, Err(RuntimeError::Stats(_))));
    }

    #[test]
    fn vector_counts_codec_round_trips() {
        assert_eq!(
            decode_vector_counts("3,5,0:10", 3),
            Some((vec![3, 5, 0], 10))
        );
        for bad in ["", "3,5:10:1", "3,5", "11,5:10", "a,5:10", "3:10"] {
            assert_eq!(decode_vector_counts(bad, 3), None, "accepted {bad:?}");
        }
        let enc = encode_vector_counts(&(vec![3, 5, 0], 10));
        assert_eq!(enc, "3,5,0:10");
        assert_eq!(decode_vector_counts(&enc, 3), Some((vec![3, 5, 0], 10)));
    }

    #[test]
    fn counts_codec_round_trips() {
        assert_eq!(decode_counts("12:100"), Some((12, 100)));
        for bad in ["", "5", "5:", ":5", "6:5", "a:b", "1:2:3"] {
            assert_eq!(decode_counts(bad), None, "accepted {bad:?}");
        }
    }
}
