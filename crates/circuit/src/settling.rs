//! Settling-time estimation and two-pole step response.
//!
//! The paper reports a 2.5 ns full-scale settling time enabling 400 MS/s
//! operation (Fig. 6). For a dominant single pole with time constant `τ`,
//! settling to a fraction `ε` of the step takes `t = τ·ln(1/ε)`; a half-LSB
//! accuracy at `n` bits means `ε = 2^{-(n+1)}`. The exact cascade response
//! of two real poles is also provided — the transient simulator in
//! `ctsdac-dac` uses it sample by sample.

use crate::poles::TwoPoles;
use ctsdac_obs as obs;

/// Time to settle within fraction `epsilon` of a step for a single pole of
/// time constant `tau`: `t = τ·ln(1/ε)`.
///
/// # Panics
///
/// Panics if `tau` is not finite and strictly positive, or `epsilon` is not
/// inside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::settling::settling_time;
///
/// // Settling to 0.1 % takes ~6.9 time constants.
/// let t = settling_time(1e-9, 1e-3);
/// assert!((t - 6.907e-9).abs() < 1e-11);
/// ```
pub fn settling_time(tau: f64, epsilon: f64) -> f64 {
    assert!(tau.is_finite() && tau > 0.0, "invalid time constant {tau}");
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "invalid settling fraction {epsilon}"
    );
    tau * (1.0 / epsilon).ln()
}

/// Time to settle within half an LSB at `n` bits: `ε = 2^{-(n+1)}`.
///
/// # Panics
///
/// Panics if `tau` is invalid or `n` is outside `1..=24`.
pub fn settling_time_bits(tau: f64, n: u32) -> f64 {
    assert!((1..=24).contains(&n), "unsupported resolution {n}");
    settling_time(tau, 0.5 / (1u64 << n) as f64)
}

/// Half-LSB settling time from a two-pole model, using the exact cascade
/// response.
///
/// Solves `1 − y(t) = ε` with a bracketed Newton iteration: the root lies
/// in the monotone settling tail between the dominant-pole bound
/// (`1 − y(t) ≥ e^{−t/τ_dom}`, so the single-pole settling time
/// underestimates) and the sum-of-constants bound, where the residual is
/// convex and Newton converges monotonically from the left in a handful of
/// steps. A step that would leave the bracket falls back to bisection, so
/// convergence is unconditional. This is the sweep kernel's hot path —
/// the fixed-depth bisection it replaced
/// ([`settling_time_two_pole_bisect`], kept as the cross-check and as the
/// benchmark baseline) costs ~200 response evaluations per call where this
/// needs ~10.
///
/// # Panics
///
/// Panics if `n` is outside `1..=24`.
pub fn settling_time_two_pole(poles: &TwoPoles, n: u32) -> f64 {
    assert!((1..=24).contains(&n), "unsupported resolution {n}");
    obs::incr(obs::Counter::SettlingSolves);
    let (t1, t2) = poles.taus();
    let eps = 0.5 / (1u64 << n) as f64;
    let mut lo = settling_time(t1.max(t2), eps);
    let mut hi = settling_time(t1 + t2, eps) * 2.0;
    while 1.0 - two_pole_step_response(hi, t1, t2) > eps {
        lo = hi;
        hi *= 2.0;
    }
    // Residual and slope share the two exponentials, so each iteration
    // evaluates them once and feeds both formulas. The arithmetic after
    // the `exp` calls is kept in exactly the order of
    // [`two_pole_step_response`] / [`two_pole_step_slope`], so the root
    // is bitwise identical to calling those functions separately.
    let rel = (t1 - t2).abs() / t1.max(t2);
    let confluent = rel < 1e-9;
    let tau_c = 0.5 * (t1 + t2);
    // Asymptotic first iterate. Past the knee the fast pole has decayed,
    // so `1 − y ≈ τₐ·e^{−t/τₐ}/(τₐ − τᵦ)` (slower pole τₐ); solving for ε
    // lands within machine precision of the root for separated poles and
    // inside the quadratic basin for mild spreads. The confluent branch
    // applies one log fixed-point pass to `(1 + t/τ)e^{−t/τ} = ε`. Either
    // start is clamped into the bracket, so the safeguarded loop below is
    // untouched — a poor start merely iterates like the old one did.
    let t_asym = if confluent {
        tau_c * ((1.0 + lo / tau_c) / eps).ln()
    } else {
        let ta = t1.max(t2);
        let tb = t1.min(t2);
        ta * (ta / (eps * (ta - tb))).ln()
    };
    let mut t = if t_asym.is_finite() {
        t_asym.clamp(lo, hi)
    } else {
        lo
    };
    for _ in 0..80 {
        let (y, slope) = if confluent {
            let e = (-t / tau_c).exp();
            (1.0 - (1.0 + t / tau_c) * e, t / (tau_c * tau_c) * e)
        } else {
            let e1 = (-t / t1).exp();
            let e2 = (-t / t2).exp();
            (1.0 - (t1 * e1 - t2 * e2) / (t1 - t2), (e1 - e2) / (t1 - t2))
        };
        let f = (1.0 - y) - eps;
        if f == 0.0 {
            return t;
        }
        if f > 0.0 {
            lo = t;
        } else {
            hi = t;
        }
        // d/dt [1 − y(t)] = −y′(t), so the Newton update is t + f/y′.
        let mut next = t + f / slope;
        if !(next > lo && next < hi) {
            next = 0.5 * (lo + hi);
        }
        if (next - t).abs() <= f64::EPSILON * t {
            return next;
        }
        t = next;
    }
    0.5 * (lo + hi)
}

/// The pre-optimization [`settling_time_two_pole`]: fixed-depth bisection
/// on [`two_pole_step_response`], kept verbatim as the reference the
/// Newton solve is cross-checked against (they agree to a few ulp) and as
/// part of the `SweepMode::Reference` benchmark baseline.
///
/// # Panics
///
/// Panics if `n` is outside `1..=24`.
pub fn settling_time_two_pole_bisect(poles: &TwoPoles, n: u32) -> f64 {
    assert!((1..=24).contains(&n), "unsupported resolution {n}");
    let (t1, t2) = poles.taus();
    let eps = 0.5 / (1u64 << n) as f64;
    // Bracket: the response reaches 1 − ε no later than the single-pole
    // bound on the sum of both time constants.
    let mut lo = 0.0;
    let mut hi = settling_time(t1 + t2, eps) * 2.0;
    while 1.0 - two_pole_step_response(hi, t1, t2) > eps {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if 1.0 - two_pole_step_response(mid, t1, t2) > eps {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Slope `y′(t)` of [`two_pole_step_response`]:
/// `(e^{−t/τ₁} − e^{−t/τ₂})/(τ₁ − τ₂)`, with the confluent limit
/// `(t/τ²)·e^{−t/τ}`. Strictly positive for `t > 0`.
///
/// [`settling_time_two_pole`] inlines this formula so the Newton loop can
/// share the exponentials with the residual; the standalone function is
/// the certification surface that pins that fusion bitwise.
pub fn two_pole_step_slope(t: f64, tau1: f64, tau2: f64) -> f64 {
    let rel = (tau1 - tau2).abs() / tau1.max(tau2);
    if rel < 1e-9 {
        let tau = 0.5 * (tau1 + tau2);
        t / (tau * tau) * (-t / tau).exp()
    } else {
        ((-t / tau1).exp() - (-t / tau2).exp()) / (tau1 - tau2)
    }
}

/// Unit step response at time `t` of a cascade of two real poles with time
/// constants `tau1`, `tau2`:
///
/// ```text
/// y(t) = 1 − (τ₁·e^{−t/τ₁} − τ₂·e^{−t/τ₂}) / (τ₁ − τ₂)
/// ```
///
/// with the confluent limit `y = 1 − (1 + t/τ)·e^{−t/τ}` when the poles
/// coincide. `t ≤ 0` returns 0.
///
/// # Panics
///
/// Panics if either time constant is not finite and strictly positive.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::settling::two_pole_step_response;
///
/// let y = two_pole_step_response(10e-9, 1e-9, 0.5e-9);
/// assert!(y > 0.999 && y <= 1.0);
/// assert_eq!(two_pole_step_response(-1.0, 1e-9, 1e-9), 0.0);
/// ```
pub fn two_pole_step_response(t: f64, tau1: f64, tau2: f64) -> f64 {
    assert!(tau1.is_finite() && tau1 > 0.0, "invalid tau1 {tau1}");
    assert!(tau2.is_finite() && tau2 > 0.0, "invalid tau2 {tau2}");
    if t <= 0.0 {
        return 0.0;
    }
    let rel = (tau1 - tau2).abs() / tau1.max(tau2);
    if rel < 1e-9 {
        let tau = 0.5 * (tau1 + tau2);
        1.0 - (1.0 + t / tau) * (-t / tau).exp()
    } else {
        1.0 - (tau1 * (-t / tau1).exp() - tau2 * (-t / tau2).exp()) / (tau1 - tau2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pole_settling_scales_with_bits() {
        let tau = 1e-9;
        let t10 = settling_time_bits(tau, 10);
        let t12 = settling_time_bits(tau, 12);
        // Two extra bits cost 2·ln2·τ more.
        assert!((t12 - t10 - 2.0 * std::f64::consts::LN_2 * tau).abs() < 1e-15);
    }

    #[test]
    fn twelve_bit_settling_is_about_nine_tau() {
        // ln(2^13) ≈ 9.01
        let t = settling_time_bits(1.0, 12);
        assert!((t - 9.0109).abs() < 1e-3, "t = {t}");
    }

    #[test]
    fn step_response_is_monotone_and_bounded() {
        let (t1, t2) = (1e-9, 0.3e-9);
        let mut prev = 0.0;
        for i in 0..200 {
            let t = i as f64 * 0.05e-9;
            let y = two_pole_step_response(t, t1, t2);
            assert!((0.0..=1.0 + 1e-12).contains(&y), "y({t}) = {y}");
            assert!(y >= prev - 1e-12, "non-monotone at {t}");
            prev = y;
        }
    }

    #[test]
    fn step_response_has_zero_initial_slope() {
        // A two-pole cascade starts with zero derivative (unlike one pole).
        let (t1, t2) = (1e-9, 0.5e-9);
        let dt = 1e-13;
        let early = two_pole_step_response(dt, t1, t2);
        let one_pole = 1.0 - (-dt / t1).exp();
        assert!(early < one_pole * 0.01, "early = {early}");
    }

    #[test]
    fn confluent_limit_is_continuous() {
        let t = 2e-9;
        let near = two_pole_step_response(t, 1e-9, 1e-9 * (1.0 + 1e-10));
        let exact = two_pole_step_response(t, 1e-9, 1e-9);
        assert!((near - exact).abs() < 1e-9, "near {near}, exact {exact}");
    }

    #[test]
    fn two_pole_settling_exceeds_dominant_single_pole() {
        let poles = TwoPoles {
            p1_hz: 200e6,
            p2_hz: 600e6,
        };
        let t_two = settling_time_two_pole(&poles, 12);
        let t_one = settling_time_bits(poles.dominant_tau(), 12);
        assert!(t_two > t_one, "two-pole {t_two} vs one-pole {t_one}");
        // ...but not by more than the sum of both constants' worth.
        let (t1, t2) = poles.taus();
        assert!(t_two < settling_time(t1 + t2, 0.5 / 4096.0) * 1.05);
    }

    #[test]
    fn newton_settling_matches_bisection_reference() {
        // The production Newton solve and the fixed-depth bisection it
        // replaced find the same root, across pole spreads from confluent
        // to two decades and the whole resolution range. Both resolve the
        // crossing of `1 − y(t)` through `ε` only to the cancellation
        // noise of that subtraction (~ulp(1)/ε in the residual) — and,
        // for nearly-confluent poles just outside the confluent branch,
        // to the noise amplified by the (τ₁ − τ₂) denominator — so the
        // comparison tolerance scales with 1/ε and 1/spread.
        for (p1, p2) in [
            (200e6, 600e6),
            (150e6, 150e6),
            (150e6, 150.000001e6),
            (10e6, 1e9),
            (970e6, 920e6),
            (1e3, 1e3),
        ] {
            let poles = TwoPoles {
                p1_hz: p1,
                p2_hz: p2,
            };
            for n in [1u32, 8, 12, 24] {
                let eps = 0.5 / (1u64 << n) as f64;
                let fast = settling_time_two_pole(&poles, n);
                let slow = settling_time_two_pole_bisect(&poles, n);
                let (t1, t2) = poles.taus();
                let spread = ((t1 - t2) / t1.max(t2)).abs().max(1e-9);
                let tol = slow * (1e-12 + 1e-15 / eps + 1e-15 / spread);
                assert!(
                    (fast - slow).abs() <= tol,
                    "poles ({p1}, {p2}) at {n} bits: newton {fast} vs bisect {slow}"
                );
            }
        }
    }

    #[test]
    fn fused_newton_algebra_matches_the_standalone_response_and_slope() {
        // The Newton loop in `settling_time_two_pole` computes the
        // residual and slope from shared exponentials; this pins that
        // fused algebra bitwise against the standalone functions on both
        // the generic and the confluent branch.
        for (p1, p2) in [(200e6, 600e6), (150e6, 150e6), (970e6, 920e6), (10e6, 1e9)] {
            let poles = TwoPoles {
                p1_hz: p1,
                p2_hz: p2,
            };
            let (t1, t2) = poles.taus();
            let rel = (t1 - t2).abs() / t1.max(t2);
            for i in 1..60 {
                let t = i as f64 * 0.1 * (t1 + t2);
                let (y, slope) = if rel < 1e-9 {
                    let tau = 0.5 * (t1 + t2);
                    let e = (-t / tau).exp();
                    (1.0 - (1.0 + t / tau) * e, t / (tau * tau) * e)
                } else {
                    let e1 = (-t / t1).exp();
                    let e2 = (-t / t2).exp();
                    (1.0 - (t1 * e1 - t2 * e2) / (t1 - t2), (e1 - e2) / (t1 - t2))
                };
                assert_eq!(
                    y.to_bits(),
                    two_pole_step_response(t, t1, t2).to_bits(),
                    "response diverges at ({p1}, {p2}), t = {t}"
                );
                assert_eq!(
                    slope.to_bits(),
                    two_pole_step_slope(t, t1, t2).to_bits(),
                    "slope diverges at ({p1}, {p2}), t = {t}"
                );
            }
        }
    }

    #[test]
    fn two_pole_settling_solves_the_response() {
        let poles = TwoPoles {
            p1_hz: 150e6,
            p2_hz: 400e6,
        };
        let t = settling_time_two_pole(&poles, 12);
        let (t1, t2) = poles.taus();
        let residual = 1.0 - two_pole_step_response(t, t1, t2);
        let eps = 0.5 / 4096.0;
        assert!((residual - eps).abs() / eps < 1e-6, "residual = {residual}");
    }

    #[test]
    #[should_panic(expected = "invalid settling fraction")]
    fn settling_rejects_bad_epsilon() {
        let _ = settling_time(1e-9, 1.5);
    }
}
