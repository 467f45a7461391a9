//! Seeded inputs for every workload. The seed picks only what does not
//! change how much work an operation does (Monte-Carlo seeds, fields that
//! make cache keys distinct, order), so runs with different seeds measure
//! the same amount of work on different inputs.

use ctsdac_core::explore::Objective;
use ctsdac_core::flow::TopologyChoice;
use ctsdac_service::protocol::Mode;
use std::collections::HashSet;

/// SplitMix64: a small, fixed input generator independent of the
/// program's own RNGs.
#[derive(Debug, Clone)]
pub struct Gen(u64);

impl Gen {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_dac5_1ce0_2003)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

// ---------------------------------------------------------------------------
// flow
// ---------------------------------------------------------------------------

/// One `dacsizer` run, as its command line would ask for it.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowInput {
    pub n_bits: u32,
    pub binary_bits: u32,
    pub inl_yield: f64,
    pub objective: Objective,
    pub topology: TopologyChoice,
    pub grid: usize,
    /// `--jobs`: 2 runs `run_flow_supervised` and the supervised check.
    pub jobs: usize,
    pub check_trials: u64,
    pub check_seed: u64,
}

/// The fixed mix of `dacsizer` runs: `(n_bits, topology, objective,
/// grid, yield target, jobs, check trials)`. Auto picks the simple cell
/// below 10 bits and the cascode from 10 bits on. Fifteen runs (an odd
/// multiple of five) put p50 and p90 in the middle of one run's repeated
/// samples, never between two runs. The eighth-slowest run, which sets
/// p50, is a simple-cell sweep; the second-slowest, which sets p90, is a
/// grid-64 cascode volume search, below the one grid-96 search. The
/// yield target changes how much of the space is admissible, and so the
/// work, so it is fixed per run rather than drawn from the seed.
#[rustfmt::skip]
const FLOW_MIX: [(u32, TopologyChoice, Objective, usize, f64, usize, u64); 15] = [
    (8, TopologyChoice::Auto, Objective::MinArea, 32, 0.9, 1, 2_000),
    (9, TopologyChoice::Auto, Objective::MaxSpeed, 48, 0.99, 1, 5_000),
    (8, TopologyChoice::Auto, Objective::MinArea, 64, 0.997, 2, 10_000),
    (9, TopologyChoice::Auto, Objective::MinArea, 96, 0.999, 1, 20_000),
    (10, TopologyChoice::Simple, Objective::MinArea, 64, 0.9999, 1, 5_000),
    (12, TopologyChoice::Simple, Objective::MaxSpeed, 64, 0.9, 1, 10_000),
    (12, TopologyChoice::Simple, Objective::MinArea, 96, 0.997, 2, 20_000),
    (14, TopologyChoice::Simple, Objective::MinArea, 96, 0.99, 1, 2_000),
    (13, TopologyChoice::Simple, Objective::MaxSpeed, 80, 0.999, 1, 10_000),
    (10, TopologyChoice::Auto, Objective::MinArea, 40, 0.99, 1, 5_000),
    (11, TopologyChoice::Auto, Objective::MaxSpeed, 48, 0.997, 1, 10_000),
    (12, TopologyChoice::Auto, Objective::MinArea, 64, 0.997, 2, 2_000),
    (14, TopologyChoice::Auto, Objective::MaxSpeed, 64, 0.9, 1, 20_000),
    (12, TopologyChoice::Auto, Objective::MinArea, 96, 0.997, 1, 10_000),
    (13, TopologyChoice::Auto, Objective::MinArea, 64, 0.99, 1, 5_000),
];

/// The seeded batch of `dacsizer` runs, in run order. The seed picks the
/// order and each check's Monte-Carlo seed.
pub fn flow_batch(seed: u64) -> Vec<FlowInput> {
    let mut g = Gen::new(seed);
    let mut batch: Vec<FlowInput> = FLOW_MIX
        .iter()
        .map(
            |&(n_bits, topology, objective, grid, inl_yield, jobs, check_trials)| FlowInput {
                n_bits,
                binary_bits: 4,
                inl_yield,
                objective,
                topology,
                grid,
                jobs,
                check_trials,
                check_seed: g.next_u64() >> 1,
            },
        )
        .collect();
    g.shuffle(&mut batch);
    batch
}

// ---------------------------------------------------------------------------
// dacd
// ---------------------------------------------------------------------------

/// One `dacd` request: endpoint and JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub mode: Mode,
    pub body: String,
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self.mode {
            Mode::Sizing => "/v1/sizing",
            Mode::Sweep => "/v1/sweep",
            Mode::Yield => "/v1/yield",
        }
    }
}

/// Request templates: `(mode, n_bits, grid, trials, jobs)`. Four cheap
/// ones (about 1–2 ms of engine work on a 2-vCPU machine), six of about
/// 4 ms and two of 7–8 ms. A tenth to two fifths of these requests stall
/// in the server (see `README.md`), which puts p50 at the 56th–83rd
/// percentile of the requests that did not stall: inside the 4 ms group,
/// which spans the 33rd–83rd.
#[rustfmt::skip]
const DACD_MIX: [(Mode, u32, usize, u64, usize); 12] = [
    (Mode::Sizing, 12, 64, 0, 2),
    (Mode::Sweep, 10, 64, 0, 2),
    (Mode::Sweep, 12, 64, 0, 1),
    (Mode::Yield, 12, 0, 20_000, 1),
    (Mode::Sweep, 12, 96, 0, 1),
    (Mode::Sizing, 12, 96, 0, 1),
    (Mode::Yield, 12, 0, 100_000, 1),
    (Mode::Yield, 12, 0, 100_000, 1),
    (Mode::Yield, 12, 0, 100_000, 1),
    (Mode::Yield, 12, 0, 100_000, 1),
    (Mode::Sweep, 12, 128, 0, 1),
    (Mode::Yield, 12, 0, 200_000, 1),
];

/// An endless seeded stream of distinct `dacd` requests. Each request is
/// a template of [`DACD_MIX`] made distinct by a sub-ppm offset on its
/// 0.997 yield target (sweep, sizing) or by its Monte-Carlo seed (yield),
/// so every one is a cache miss the first time it is sent while the work
/// it asks for stays the template's.
#[derive(Debug)]
pub struct RequestStream {
    g: Gen,
    order: Vec<usize>,
    next: usize,
    seen: HashSet<String>,
}

impl RequestStream {
    /// Requests per pass over the templates.
    pub const CYCLE: usize = DACD_MIX.len();

    pub fn new(seed: u64) -> Self {
        let mut g = Gen::new(seed.wrapping_add(1));
        let mut order: Vec<usize> = (0..DACD_MIX.len()).collect();
        g.shuffle(&mut order);
        Self {
            g,
            order,
            next: 0,
            seen: HashSet::new(),
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let (mode, n_bits, grid, trials, jobs) = DACD_MIX[self.order[self.next % DACD_MIX.len()]];
        self.next += 1;
        loop {
            let body = match mode {
                Mode::Yield => format!(
                    "{{\"n_bits\":{n_bits},\"binary_bits\":4,\"vov_cs\":0.5,\"vov_sw\":0.3,\"trials\":{trials},\"chunk_trials\":5000,\"seed\":{},\"jobs\":{jobs}}}",
                    self.g.next_u64() >> 12
                ),
                _ => format!(
                    "{{\"n_bits\":{n_bits},\"binary_bits\":4,\"grid\":{grid},\"inl_yield\":{},\"jobs\":{jobs}}}",
                    0.997 + self.g.uniform(0.0, 1e-6)
                ),
            };
            if self.seen.insert(body.clone()) {
                return Some(Request { mode, body });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// inl-yield
// ---------------------------------------------------------------------------

/// Resolutions of the σ ladder (4 binary LSBs each) and their base
/// trials per yield call.
pub const LADDER_DACS: [(u32, u64); 2] = [(10, 800), (12, 200)];

/// The rungs of the ladder: trial budget over the base, σ factor over
/// the eq. (1) spec sigma, and the steps' metric-name suffix after the
/// INL yield the rung gives on both converters. The near-unity-yield rung
/// gets three times the trials, since its failures are rare. That also
/// makes it its own latency population: p50 falls among the four equal
/// rungs and p90 in the middle of the heavy one.
#[rustfmt::skip]
pub const LADDER_RUNGS: [(u64, f64, &str); 5] = [
    (3, 1.5, "y997"), // INL yield ≈ 0.997
    (1, 2.3, "y90"),  // ≈ 0.9
    (1, 3.5, "y50"),  // ≈ 0.5
    (1, 5.0, "y10"),  // ≈ 0.1
    (1, 8.0, "y0"),   // collapsed, ≈ 0.002
];

/// Seed of one `(pass, step, metric)` yield call.
pub fn ladder_seed(seed: u64, pass: u64, step: usize, metric: usize) -> u64 {
    let mut g = Gen::new(seed ^ pass.wrapping_mul(0x2545_f491_4f6c_dd1d));
    for _ in 0..(step * 3 + metric) {
        g.next_u64();
    }
    g.next_u64()
}

/// Canonical text of a workload's generated inputs.
#[cfg(test)]
pub fn render(workload: &str, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    match workload {
        "flow" => {
            for f in flow_batch(seed) {
                let _ = writeln!(s, "{f:?}");
            }
        }
        "inl-yield" => {
            for pass in 0..4 {
                for step in 0..LADDER_DACS.len() * LADDER_RUNGS.len() {
                    for metric in 0..3 {
                        let _ = writeln!(
                            s,
                            "{pass} {step} {metric} {}",
                            ladder_seed(seed, pass, step, metric)
                        );
                    }
                }
            }
        }
        _ => {
            for r in RequestStream::new(seed).take(64) {
                let _ = writeln!(s, "{} {}", r.path(), r.body);
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for w in ["flow", "inl-yield", "dacd"] {
            assert_eq!(render(w, 11), render(w, 11), "{w}");
            assert_ne!(render(w, 11), render(w, 12), "{w}");
        }
    }

    #[test]
    fn the_request_stream_never_repeats_a_request() {
        let reqs: Vec<Request> = RequestStream::new(3).take(2000).collect();
        let distinct: HashSet<&String> = reqs.iter().map(|r| &r.body).collect();
        assert_eq!(distinct.len(), reqs.len());
    }

    #[test]
    fn seeds_change_parameters_not_the_mix() {
        let key = |f: &FlowInput| {
            (
                f.n_bits,
                f.grid,
                f.jobs,
                f.check_trials,
                f.inl_yield.to_bits(),
            )
        };
        let mut a: Vec<_> = flow_batch(1).iter().map(key).collect();
        let mut b: Vec<_> = flow_batch(2).iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
