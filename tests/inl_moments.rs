//! Independent moment oracle for the transfer curve behind every yield
//! estimate, built from the converter's definition alone rather than from
//! a second implementation.
//!
//! With iid unit mismatch, cell `c` of weight `w_c` carries the relative
//! error `rel_c = σ/√w_c · z_c` (`z_c` iid standard normal), so every level
//! is `L_k = Σ_{c on at k} w_c (1 + rel_c) = k + Σ_c σ√w_c z_c on_c(k)`,
//! an exact linear form in the draws. With `N` = the full-scale code,
//! the endpoint-fit INL and the DNL follow:
//!
//! * `INL_k = Σ_c σ√w_c z_c (on_c(k) − k/N)`: mean 0 and variance
//!   `σ²·k(N−k)/N` — the Brownian-bridge variance of Heydenreich, van der
//!   Hofstad and Radulov (arXiv math/0606584), per code as Babaee et al.
//!   use it (arXiv 2505.18353) — for *any* binary/unary split;
//! * `DNL_k = Σ_c σ√w_c z_c (on_c(k+1) − on_c(k))`: mean 0 and variance
//!   `σ²·Σ w_c` over the cells that toggle between `k` and `k + 1`;
//! * `E[DNL_k · z_c] = σ√w_c (on_c(k+1) − on_c(k))`. The marginal moments
//!   cannot tell equal-weight unary cells apart, so this cross-moment is
//!   what pins *which* cell switches at a block boundary, i.e. the unary
//!   switching order.
//!
//! All three are exact, not asymptotic. The test draws `T` seeded trials,
//! evaluates `TransferFunction::compute_fast` — the curve under the
//! yield engine's `YieldMode::Reference` oracle — and checks mid-scale,
//! every block boundary and a random sample of codes at 8, 10 and 12 bits
//! over several binary/unary splits and switching orders. Means and
//! cross-moments are bounded at 6 standard errors of the mean; sample
//! variances at 6 standard errors of a normal sample variance,
//! `√(2/(T−1))` relative.

use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::errors::CellErrors;
use ctsdac::dac::static_metrics::TransferFunction;
use ctsdac::stats::sample::seeded_rng;
use ctsdac::stats::{NormalSampler, Rng, SliceRandom};
use std::collections::BTreeSet;

/// Trials per converter.
const TRIALS: usize = 2_000;
/// Width of every acceptance band, in standard errors.
const BOUND: f64 = 6.0;
/// Unit-source relative mismatch sigma (any value works: the moments
/// are exact at every sigma).
const SIGMA: f64 = 0.02;
/// Randomly sampled codes per converter, on top of mid-scale and the
/// block boundaries.
const RANDOM_CODES: usize = 32;

/// The converter as the oracle sees it: cell weights and which cells are
/// on at each code, from the segmentation and the switching order alone.
struct Oracle {
    binary_bits: u32,
    /// `weights[c]`: `2^c` for binary cell `c < b`, `2^b` for unary cells.
    weights: Vec<f64>,
    /// `rank_of[u]`: the switching rank of unary cell `u`.
    rank_of: Vec<usize>,
    /// Full-scale code `N`.
    full_scale: u64,
}

impl Oracle {
    fn new(n_bits: u32, binary_bits: u32, order: &[usize]) -> Self {
        let mut weights: Vec<f64> = (0..binary_bits).map(|i| (1u64 << i) as f64).collect();
        weights.extend(order.iter().map(|_| (1u64 << binary_bits) as f64));
        let mut rank_of = vec![0; order.len()];
        for (rank, &cell) in order.iter().enumerate() {
            rank_of[cell] = rank;
        }
        Self {
            binary_bits,
            weights,
            rank_of,
            full_scale: (1u64 << n_bits) - 1,
        }
    }

    /// 1 if cell `c` is on at `code`, else 0.
    fn on(&self, c: usize, code: u64) -> f64 {
        let b = self.binary_bits as usize;
        let is_on = if c < b {
            (code >> c) & 1 == 1
        } else {
            self.rank_of[c - b] < (code >> b) as usize
        };
        f64::from(u8::from(is_on))
    }

    fn inl_variance(&self, k: u64) -> f64 {
        let n = self.full_scale as f64;
        let k = k as f64;
        SIGMA * SIGMA * k * (n - k) / n
    }

    /// Cells that toggle between `k` and `k + 1`, with `on(k+1) − on(k)`.
    fn toggles(&self, k: u64) -> Vec<(usize, f64)> {
        (0..self.weights.len())
            .map(|c| (c, self.on(c, k + 1) - self.on(c, k)))
            .filter(|&(_, d)| d != 0.0)
            .collect()
    }
}

/// Running first and second moments of one statistic.
#[derive(Default, Clone, Copy)]
struct Moments {
    sum: f64,
    sum_sq: f64,
}

impl Moments {
    fn push(&mut self, x: f64) {
        self.sum += x;
        self.sum_sq += x * x;
    }

    fn mean(&self) -> f64 {
        self.sum / TRIALS as f64
    }

    fn sample_variance(&self) -> f64 {
        let t = TRIALS as f64;
        (self.sum_sq - self.sum * self.sum / t) / (t - 1.0)
    }
}

/// Checks a zero-mean statistic's sample mean and sample variance
/// against its exact variance.
fn check_zero_mean(label: &str, m: &Moments, variance: f64, failures: &mut Vec<String>) {
    let t = TRIALS as f64;
    let mean_bound = BOUND * (variance / t).sqrt();
    if m.mean().abs() > mean_bound {
        failures.push(format!(
            "{label}: mean {:.3e} outside ±{mean_bound:.3e}",
            m.mean()
        ));
    }
    let ratio = m.sample_variance() / variance;
    let ratio_bound = BOUND * (2.0 / (t - 1.0)).sqrt();
    if (ratio - 1.0).abs() > ratio_bound {
        failures.push(format!(
            "{label}: sample variance / exact = {ratio:.4}, outside 1 ± {ratio_bound:.4}"
        ));
    }
}

/// Runs the oracle on one converter; returns every failed check.
fn check_converter(n_bits: u32, binary_bits: u32, shuffle_order: bool, seed: u64) -> Vec<String> {
    let base = DacSpec::paper_12bit();
    let spec = DacSpec::new(n_bits, binary_bits, 0.997, base.env, base.tech);
    let mut rng = seeded_rng(seed);
    let mut order: Vec<usize> = (0..spec.unary_source_count()).collect();
    if shuffle_order {
        order.shuffle(&mut rng);
    }
    let oracle = Oracle::new(n_bits, binary_bits, &order);
    let dac = SegmentedDac::new(&spec).with_unary_order(order);
    let full_scale = oracle.full_scale;
    assert_eq!(dac.max_code(), full_scale);
    assert_eq!(dac.n_cells(), oracle.weights.len());

    // INL codes: mid-scale, both sides of every block boundary, and a
    // random sample; DNL codes: every one of them below full scale.
    let seg = 1u64 << binary_bits;
    let mut codes = BTreeSet::from([full_scale / 2, full_scale.div_ceil(2)]);
    for t in 1..=(full_scale >> binary_bits) {
        codes.insert(t * seg - 1);
        codes.insert(t * seg);
    }
    for _ in 0..RANDOM_CODES {
        codes.insert(rng.gen_range(1..full_scale));
    }
    codes.remove(&0);
    codes.remove(&full_scale);
    let codes: Vec<u64> = codes.into_iter().collect();
    let toggles: Vec<Vec<(usize, f64)>> = codes.iter().map(|&k| oracle.toggles(k)).collect();

    let mut inl = vec![Moments::default(); codes.len()];
    let mut dnl = vec![Moments::default(); codes.len()];
    let mut cross: Vec<Vec<f64>> = toggles.iter().map(|t| vec![0.0; t.len()]).collect();
    let mut z = vec![0.0; dac.n_cells()];
    for _ in 0..TRIALS {
        NormalSampler::new().fill(&mut rng, &mut z);
        let rel: Vec<f64> = z
            .iter()
            .zip(&oracle.weights)
            .map(|(&zc, &w)| SIGMA / w.sqrt() * zc)
            .collect();
        let tf = TransferFunction::compute_fast(&dac, &CellErrors::from_rel(&dac, rel));
        let inl_curve = tf.inl_endpoint();
        let dnl_curve = tf.dnl();
        for (i, &k) in codes.iter().enumerate() {
            inl[i].push(inl_curve[k as usize]);
            let d = dnl_curve[k as usize];
            dnl[i].push(d);
            for (acc, &(c, _)) in cross[i].iter_mut().zip(&toggles[i]) {
                *acc += d * z[c];
            }
        }
    }

    let mut failures = Vec::new();
    for (i, &k) in codes.iter().enumerate() {
        check_zero_mean(
            &format!("INL[{k}]"),
            &inl[i],
            oracle.inl_variance(k),
            &mut failures,
        );
        let dnl_variance: f64 = SIGMA
            * SIGMA
            * toggles[i]
                .iter()
                .map(|&(c, _)| oracle.weights[c])
                .sum::<f64>();
        check_zero_mean(&format!("DNL[{k}]"), &dnl[i], dnl_variance, &mut failures);
        for (&sum, &(c, delta)) in cross[i].iter().zip(&toggles[i]) {
            let want = SIGMA * oracle.weights[c].sqrt() * delta;
            let got = sum / TRIALS as f64;
            let se = ((dnl_variance + want * want) / TRIALS as f64).sqrt();
            if (got - want).abs() > BOUND * se {
                failures.push(format!(
                    "E[DNL[{k}]·z[{c}]] = {got:.3e}, want {want:.3e} ± {:.3e}",
                    BOUND * se
                ));
            }
        }
    }
    failures
}

fn assert_moments(n_bits: u32, splits: &[(u32, bool)], seed: u64) {
    for &(binary_bits, shuffle_order) in splits {
        let failures = check_converter(
            n_bits,
            binary_bits,
            shuffle_order,
            seed + u64::from(binary_bits),
        );
        assert!(
            failures.is_empty(),
            "{n_bits}-bit, {binary_bits} binary bits, shuffled order {shuffle_order}: {} failed \
             checks, first: {:?}",
            failures.len(),
            &failures[..failures.len().min(5)]
        );
    }
}

#[test]
fn eight_bit_inl_and_dnl_moments_are_exact() {
    assert_moments(8, &[(0, true), (3, false), (4, true), (8, false)], 0x8_0000);
}

#[test]
fn ten_bit_inl_and_dnl_moments_are_exact() {
    assert_moments(10, &[(3, true), (5, false)], 0xA_0000);
}

#[test]
fn twelve_bit_inl_and_dnl_moments_are_exact() {
    assert_moments(12, &[(4, true), (6, false)], 0xC_0000);
}
