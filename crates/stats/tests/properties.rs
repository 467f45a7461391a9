//! Randomized property tests for the statistics substrate.
//!
//! Driven by the in-tree deterministic PRNG (`ctsdac_stats::rng`) rather
//! than an external property-testing framework, so the suite builds with no
//! registry access. Enable with `cargo test --features proptests`.
#![cfg(feature = "proptests")]

use ctsdac_stats::normal::{inv_phi, pdf, phi, Normal};
use ctsdac_stats::rng::{seeded_rng, stream_rng, Rng};
use ctsdac_stats::sample::NormalSampler;
use ctsdac_stats::summary::{percentile, Summary};
use ctsdac_stats::{erf, erfc};

const CASES: usize = 64;

/// `erf` is odd over the whole sensible range.
#[test]
fn erf_is_odd() {
    let mut rng = seeded_rng(0xE0F1);
    for _ in 0..CASES {
        let x = rng.gen_range(-6.0..6.0);
        assert!((erf(-x) + erf(x)).abs() < 1e-15, "x = {x}");
    }
}

/// `erf(x) + erfc(x) == 1` to high accuracy everywhere.
#[test]
fn erf_erfc_complement() {
    let mut rng = seeded_rng(0xE0F2);
    for _ in 0..CASES {
        let x = rng.gen_range(-6.0..6.0);
        let s = erf(x) + erfc(x);
        assert!((s - 1.0).abs() < 5e-14, "sum = {s} at x = {x}");
    }
}

/// `erf` is bounded by ±1, across many orders of magnitude.
#[test]
fn erf_is_bounded() {
    let mut rng = seeded_rng(0xE0F3);
    for _ in 0..CASES {
        let mag = 10f64.powf(rng.gen_range(-300.0..300.0));
        let x = rng.gen_range(-1.0..1.0) * mag;
        let v = erf(x);
        assert!((-1.0..=1.0).contains(&v), "erf({x}) = {v}");
    }
}

/// Φ is monotone non-decreasing.
#[test]
fn phi_is_monotone() {
    let mut rng = seeded_rng(0xE0F4);
    for _ in 0..CASES {
        let a = rng.gen_range(-8.0..8.0);
        let b = rng.gen_range(-8.0..8.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(phi(lo) <= phi(hi) + 1e-16, "phi({lo}) > phi({hi})");
    }
}

/// Φ(Φ⁻¹(p)) round-trips to p.
#[test]
fn inv_phi_round_trip() {
    let mut rng = seeded_rng(0xE0F5);
    for _ in 0..CASES {
        let p = rng.gen_range(1e-9..1.0 - 1e-9);
        let x = inv_phi(p).expect("p inside (0,1)");
        let back = phi(x);
        assert!((back - p).abs() < 1e-11, "p = {p}, back = {back}");
    }
}

/// Φ⁻¹ respects the symmetry Φ⁻¹(1 − p) = −Φ⁻¹(p).
#[test]
fn inv_phi_symmetry() {
    let mut rng = seeded_rng(0xE0F6);
    for _ in 0..CASES {
        let p = rng.gen_range(1e-6..0.5);
        let a = inv_phi(p).expect("valid");
        let b = inv_phi(1.0 - p).expect("valid");
        assert!((a + b).abs() < 1e-9, "a = {a}, b = {b}");
    }
}

/// The normal pdf is positive and maximal at the mean.
#[test]
fn pdf_peaks_at_zero() {
    let mut rng = seeded_rng(0xE0F7);
    for _ in 0..CASES {
        let x = rng.gen_range(-40.0..40.0);
        assert!(pdf(x) >= 0.0, "pdf({x}) negative");
        assert!(pdf(x) <= pdf(0.0) + 1e-18, "pdf({x}) above peak");
    }
}

/// Normal::prob_inside is within [0, 1] and additive over adjacent
/// intervals.
#[test]
fn prob_inside_additive() {
    let mut rng = seeded_rng(0xE0F8);
    for _ in 0..CASES {
        let mean = rng.gen_range(-5.0..5.0);
        let sd = rng.gen_range(0.01..10.0);
        let mut pts = [
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
            rng.gen_range(-20.0..20.0),
        ];
        pts.sort_by(f64::total_cmp);
        let [lo, mid, hi] = pts;
        let n = Normal::new(mean, sd).expect("valid params");
        let whole = n.prob_inside(lo, hi);
        let parts = n.prob_inside(lo, mid) + n.prob_inside(mid, hi);
        assert!((0.0..=1.0).contains(&whole), "whole = {whole}");
        assert!((whole - parts).abs() < 1e-12, "{whole} vs {parts}");
    }
}

/// Summary mean lies inside [min, max] and variance is non-negative.
#[test]
fn summary_invariants() {
    let mut rng = seeded_rng(0xE0F9);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..200);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let s: Summary = data.iter().copied().collect();
        assert!(s.mean() >= s.min() - 1e-9);
        assert!(s.mean() <= s.max() + 1e-9);
        assert!(s.variance() >= 0.0);
        assert!(s.std_dev() <= (s.max() - s.min()) + 1e-9);
    }
}

/// Merging summaries in any split position matches whole-data summary.
#[test]
fn summary_merge_associative() {
    let mut rng = seeded_rng(0xE0FA);
    for _ in 0..CASES {
        let n = rng.gen_range(2usize..100);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let k = rng.gen_range(0usize..n);
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..k].iter().copied().collect();
        let right: Summary = data[k..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-6);
    }
}

/// Percentile is monotone in p and bounded by the extrema.
#[test]
fn percentile_monotone() {
    let mut rng = seeded_rng(0xE0FB);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..100);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let p1 = rng.gen_range(0.0..1.0);
        let p2 = rng.gen_range(0.0..1.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&data, lo).expect("non-empty data, valid fraction");
        let b = percentile(&data, hi).expect("non-empty data, valid fraction");
        assert!(a <= b + 1e-12);
        assert!(a >= percentile(&data, 0.0).expect("valid") - 1e-12);
        assert!(b <= percentile(&data, 1.0).expect("valid") + 1e-12);
        // Ill-posed queries are typed errors, not panics.
        assert!(percentile(&[], 0.5).is_err());
        assert!(percentile(&data, 1.5).is_err());
        assert!(percentile(&data, f64::NAN).is_err());
    }
}

/// The selection-based percentile is bit-identical to the full-sort
/// implementation it replaced, including ties, signed zeros, and
/// interpolated queries.
#[test]
fn percentile_matches_sorted_reference_bitwise() {
    fn sorted_reference(data: &[f64], p: f64) -> f64 {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let idx = p * (sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = idx - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }
    let mut rng = seeded_rng(0xE0FE);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..200);
        let data: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0u32..8) {
                // Duplicates and signed zeros exercise the tie-breaking of
                // the total order.
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-3.0..3.0).round(),
                _ => rng.gen_range(-1e6..1e6),
            })
            .collect();
        for draw in 0..6 {
            // Exact endpoints plus interpolating fractions.
            let p = match draw {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.0..1.0),
            };
            let got = percentile(&data, p).expect("non-empty data, valid fraction");
            let want = sorted_reference(&data, p);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "p = {p}, n = {n}: got {got}, want {want}"
            );
        }
    }
}

/// The Wilson interval is nested in `z`: widening the deviate can only
/// widen the interval, so `consistent_with` is monotone in `z` — a target
/// consistent at some `z` stays consistent at every larger `z`.
#[test]
fn consistent_with_is_monotone_in_z() {
    use ctsdac_stats::YieldEstimate;
    let mut rng = seeded_rng(0xE0FC);
    for _ in 0..CASES {
        let trials = rng.gen_range(1u64..10_000);
        let passes = rng.gen_range(0u64..trials + 1);
        let y = YieldEstimate::from_counts(passes, trials).expect("valid counts");
        let z1 = rng.gen_range(0.01..6.0);
        let z2 = rng.gen_range(0.01..6.0);
        let (zs, zl) = if z1 <= z2 { (z1, z2) } else { (z2, z1) };
        // Interval nesting.
        let (lo_s, hi_s) = y.wilson_interval(zs);
        let (lo_l, hi_l) = y.wilson_interval(zl);
        assert!(
            lo_l <= lo_s + 1e-12 && hi_s <= hi_l + 1e-12,
            "[{lo_l}, {hi_l}] at z = {zl} does not contain [{lo_s}, {hi_s}] at z = {zs}"
        );
        // Monotone consistency at a random target.
        let target = rng.gen_range(0.0..1.0);
        if y.consistent_with(target, zs) {
            assert!(
                y.consistent_with(target, zl),
                "target {target} consistent at z = {zs} but not at z = {zl} ({y})"
            );
        }
    }
}

/// Wilson bounds always stay inside [0, 1], ordered, finite — across the
/// whole count range including the p = 0 / p = 1 extremes.
#[test]
fn wilson_interval_always_well_formed() {
    use ctsdac_stats::YieldEstimate;
    let mut rng = seeded_rng(0xE0FD);
    for _ in 0..CASES {
        let trials = (rng.gen::<u64>() >> rng.gen_range(0u32..63)).saturating_add(1);
        let passes = match rng.gen_range(0u32..4) {
            0 => 0,
            1 => trials,
            _ => rng.gen_range(0u64..trials),
        };
        let y = YieldEstimate::from_counts(passes, trials).expect("valid counts");
        let z = rng.gen_range(0.01..10.0);
        let (lo, hi) = y.wilson_interval(z);
        assert!(
            lo.is_finite() && hi.is_finite(),
            "{passes}/{trials}: [{lo}, {hi}]"
        );
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        assert!(lo <= hi);
        assert!(lo <= y.estimate() && y.estimate() <= hi);
    }
}

// ---------------------------------------------------------------------------
// Chunked draw streams, bitwise
// ---------------------------------------------------------------------------

/// Chunked consumption is jobs-invariant by construction: a fresh
/// `NormalSampler` per trial over one `stream_rng(seed, chunk)` stream
/// (the yield engine's draw scheme) yields a per-chunk draw matrix that
/// does not depend on which other chunks ran, or in what order — the
/// exact contract the supervised yield pool relies on.
#[test]
fn chunked_draw_streams_are_consumption_order_invariant_bitwise() {
    let mut rng = seeded_rng(0x57A7_0003);
    for _ in 0..16 {
        let dims = rng.gen_range(1usize..8);
        let chunks = rng.gen_range(2u64..6);
        let len = rng.gen_range(3usize..17);
        let seed = rng.gen_range(0u64..1 << 32);
        let draw_chunk = |chunk: u64| -> Vec<f64> {
            let mut rng_c = stream_rng(seed, chunk);
            let mut scratch = vec![0.0; dims];
            let mut out = Vec::with_capacity(len * dims);
            for _ in 0..len {
                NormalSampler::new().fill(&mut rng_c, &mut scratch);
                out.extend_from_slice(&scratch);
            }
            out
        };
        // Forward order, then reverse order: the per-chunk streams
        // must be bitwise identical either way.
        let forward: Vec<Vec<f64>> = (0..chunks).map(draw_chunk).collect();
        let reverse: Vec<Vec<f64>> = (0..chunks).rev().map(draw_chunk).collect();
        for c in 0..chunks as usize {
            let a = &forward[c];
            let b = &reverse[chunks as usize - 1 - c];
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "chunk {c}");
            }
        }
        // Distinct chunks are distinct streams, not replays.
        assert!(forward[0] != forward[1], "chunk streams collide");
    }
}
