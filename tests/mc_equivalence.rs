//! Acceptance tests for the Monte-Carlo yield engine, end to end through
//! the umbrella crate: the production lane classifier and the scalar
//! Reference chain must produce **bit-identical** yield estimates for the
//! same seed, sequentially and under the supervised pool at `--jobs` 1, 2
//! and 8, and the engine's deterministic work counters must not depend on
//! the job count or the lane width.

use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::yield_engine::{
    fused_yields_supervised_lanes, FusedYields, YieldEngine, YieldLimits, YieldMode,
};
use ctsdac::obs::{self, Counter};
use ctsdac::runtime::{ExecPolicy, McPlan};
use ctsdac::stats::sample::seeded_rng;
use ctsdac::stats::stream_rng;
use std::sync::{Mutex, MutexGuard};

/// Serialises this binary's tests: the work-counter test reads the
/// process-global metrics registry, which every yield run writes to.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn small_spec() -> DacSpec {
    let base = DacSpec::paper_12bit();
    DacSpec::new(8, 4, 0.997, base.env, base.tech)
}

/// Sequential runs: the lane classifier vs the Reference chain on the
/// same seeded stream give the same `FusedYields` value, exactly.
#[test]
fn lane_and_reference_yields_are_bit_identical_for_the_same_seed() {
    let _serial = serial();
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    // 2x spec sigma puts a visible fraction of trials on the fail side,
    // so the equality is not a trivial all-pass.
    let sigma = spec.sigma_unit_spec() * 2.0;
    let mut engine = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
    for seed in [1u64, 2003, 0xDACD_ACDA] {
        let lanes = engine
            .run_lanes::<8, _>(1_500, &mut seeded_rng(seed))
            .expect("lane run");
        let reference = engine
            .run(YieldMode::Reference, 1_500, &mut seeded_rng(seed))
            .expect("reference run");
        assert_eq!(lanes, reference, "seed {seed}");
        assert!(
            lanes.inl.estimate() < 1.0,
            "seed {seed}: expected some INL failures at 2x spec sigma"
        );
    }
}

/// `YieldMode::Reference` over the plan's per-chunk
/// `stream_rng(seed, chunk)` streams, chunk by chunk, with no pool.
fn reference_over_chunks(
    dac: &SegmentedDac,
    sigma: f64,
    limits: YieldLimits,
    plan: &McPlan,
) -> FusedYields {
    let mut counts = [0u64; 3];
    for chunk in 0..plan.chunks() {
        let mut engine = YieldEngine::new(dac, sigma, limits).expect("engine");
        let mut rng = stream_rng(plan.seed, chunk);
        for _ in 0..plan.chunk_len(chunk) {
            let flags = engine.trial_flags(YieldMode::Reference, &mut rng);
            for (count, &flag) in counts.iter_mut().zip(&flags) {
                *count += u64::from(flag);
            }
        }
    }
    let estimate = |passes| ctsdac::stats::YieldEstimate::from_counts(passes, plan.trials);
    FusedYields {
        inl: estimate(counts[0]).expect("inl counts"),
        dnl: estimate(counts[1]).expect("dnl counts"),
        monotonicity: estimate(counts[2]).expect("monotonicity counts"),
    }
}

/// The acceptance criterion: supervised lane runs are invariant in
/// `--jobs` (1, 2 and 8) and agree bit for bit with the Reference mode
/// over the same chunk streams.
#[test]
fn supervised_yields_match_across_jobs_1_and_8_and_both_modes() {
    let _serial = serial();
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let limits = YieldLimits::half_lsb();
    let plan = McPlan::new(2003, 4_000, 500).expect("plan");

    let run = |jobs: usize| -> FusedYields {
        fused_yields_supervised_lanes::<8>(&dac, sigma, limits, &plan, &ExecPolicy::with_jobs(jobs))
            .expect("supervised run")
            .value
    };
    let lanes_1 = run(1);
    for jobs in [2, 8] {
        assert_eq!(run(jobs), lanes_1, "lanes: jobs 1 vs {jobs}");
    }
    let reference = reference_over_chunks(&dac, sigma, limits, &plan);
    assert_eq!(lanes_1, reference, "lanes vs reference");
    assert_eq!(lanes_1.inl.trials(), 4_000);
    assert!(lanes_1.inl.estimate() < 1.0, "non-trivial failure rate");
}

/// The engine's work counters (`dac.yield.trials`, `.codes_scanned`,
/// `.fallbacks`) summed over a supervised run do not depend on the job
/// count or the lane width. The INL limit is set to the exact INL of the
/// first trial of chunk 0, so at least one lane grazes it and the
/// fallback counter is exercised too.
#[test]
fn supervised_work_counters_are_jobs_and_width_invariant() {
    let _serial = serial();
    let spec = small_spec();
    let dac = SegmentedDac::new(&spec);
    let sigma = spec.sigma_unit_spec() * 2.0;
    let plan = McPlan::new(2003, 4_000, 500).expect("plan");
    let mut probe = YieldEngine::new(&dac, sigma, YieldLimits::half_lsb()).expect("engine");
    let grazed = probe.trial(YieldMode::Reference, &mut stream_rng(plan.seed, 0));
    let limits = YieldLimits::new(grazed.inl_max, 0.5).expect("limits");

    let counters = || {
        [
            Counter::YieldTrials,
            Counter::YieldCodesScanned,
            Counter::YieldFallbacks,
        ]
        .map(obs::counter_value)
    };
    let measure = |width_is_4: bool, jobs: usize| -> [u64; 3] {
        let policy = ExecPolicy::with_jobs(jobs);
        let before = counters();
        if width_is_4 {
            fused_yields_supervised_lanes::<4>(&dac, sigma, limits, &plan, &policy)
        } else {
            fused_yields_supervised_lanes::<8>(&dac, sigma, limits, &plan, &policy)
        }
        .expect("supervised run");
        let after = counters();
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    obs::set_metrics(true);
    let baseline = measure(false, 1);
    let mut others = Vec::new();
    for jobs in [1usize, 2, 8] {
        others.push((jobs, measure(true, jobs)));
        others.push((jobs, measure(false, jobs)));
    }
    obs::set_metrics(false);

    let [trials, codes, fallbacks] = baseline;
    assert_eq!(trials, plan.trials, "every trial counted exactly once");
    assert!(fallbacks > 0, "the grazing limit never fell back");
    let scan = (1u64 << spec.binary_bits) + dac.n_unary() as u64 + 1;
    assert_eq!(codes, trials * scan + fallbacks * (dac.max_code() + 1));
    for (jobs, got) in others {
        assert_eq!(
            got, baseline,
            "counters at jobs {jobs} vs lanes<8> at jobs 1"
        );
    }
}
