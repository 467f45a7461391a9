//! The three saturation conditions: exact (eq. (4)), legacy fixed margin,
//! and the paper's statistical condition (eq. (9) / (11)).
//!
//! All three are overdrive budgets of the form
//! `ΣV_OD ≤ V_out,min − margin`:
//!
//! | Condition       | margin                                  |
//! |-----------------|------------------------------------------|
//! | `Exact`         | 0 (nominal devices exactly at the edge)  |
//! | `FixedMargin`   | an arbitrary constant, 0.5 V in \[9]/\[11] |
//! | `Statistical`   | `2·S·σ_max` (simple) / `3·S·σ_max` (cascoded) |
//!
//! with `S = inv_norm(yield_V)` and `yield_V = yield^{1/4}` — the
//! worst-case LSB cell has two complementary switches that must each sit
//! inside two bounds with equal probability (paper §2.1). The factors 2/3
//! come from the optimum bias splitting the slack into two/three equal
//! gaps, each of which must exceed `S·σ`.

use crate::bounds::{cascoded_bound_sigmas, simple_bound_sigmas, simple_bound_sigmas_from_geometry};
use crate::sizing::{build_cascoded_cell, build_simple_cell};
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_stats::inv_phi;

/// The 0.5 V margin used by the prior art the paper improves on (\[9], \[11]).
pub const LEGACY_MARGIN: f64 = 0.5;

/// How the per-bound sigmas combine into one margin-setting sigma.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SigmaCombine {
    /// The paper's choice: the worst single bound.
    #[default]
    Max,
    /// Root-sum-square over the bounds (ablation alternative; slightly more
    /// conservative than `Max` when sigmas are comparable).
    Rss,
}

/// A saturation condition restricting the overdrive design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SaturationCondition {
    /// Eq. (4): `ΣV_OD ≤ V_out,min`, no allowance for process variation.
    Exact,
    /// The prior art: subtract an arbitrary constant margin (V).
    FixedMargin(f64),
    /// The paper's contribution: subtract `k·S·σ_max`, with the sigmas
    /// propagated from the actual device sizes at this design point.
    Statistical,
}

impl SaturationCondition {
    /// The legacy condition with the published 0.5 V margin.
    pub fn legacy() -> Self {
        SaturationCondition::FixedMargin(LEGACY_MARGIN)
    }

    /// The one-sided yield deviate `S = inv_norm(yield^{1/4})`. A spec
    /// whose yield escaped construction-time validation maps to an infinite
    /// deviate: the margin swallows the whole headroom and every design
    /// point reads infeasible, which is the conservative failure mode.
    pub fn s_factor(spec: &DacSpec) -> f64 {
        inv_phi(spec.inl_yield.powf(0.25)).unwrap_or(f64::INFINITY)
    }

    /// Margin (V) subtracted from `V_out,min` for a *simple-topology*
    /// design point at the given overdrives.
    pub fn margin_simple(&self, spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> f64 {
        self.margin_simple_with(spec, vov_cs, vov_sw, SigmaCombine::Max)
    }

    /// As [`Self::margin_simple`] with an explicit sigma-combination rule.
    pub fn margin_simple_with(
        &self,
        spec: &DacSpec,
        vov_cs: f64,
        vov_sw: f64,
        combine: SigmaCombine,
    ) -> f64 {
        match *self {
            SaturationCondition::Exact => 0.0,
            SaturationCondition::FixedMargin(m) => m,
            SaturationCondition::Statistical => {
                let cell = build_simple_cell(spec, vov_cs, vov_sw, 1);
                let sigmas = simple_bound_sigmas(spec, &cell);
                let sigma = match combine {
                    SigmaCombine::Max => sigmas.max(),
                    SigmaCombine::Rss => sigmas.rss(),
                };
                2.0 * Self::s_factor(spec) * sigma
            }
        }
    }

    /// Margin (V) for a simple-topology point evaluated against an
    /// already-built weight-1 LSB cell and a precomputed yield deviate —
    /// the hot-loop variant of [`Self::margin_simple`]. Bit-identical to it
    /// when `lsb_cell` is `build_simple_cell(spec, vov_cs, vov_sw, 1)` and
    /// `s_factor` is [`Self::s_factor`]`(spec)`.
    pub fn margin_simple_prepared(
        &self,
        spec: &DacSpec,
        lsb_cell: &ctsdac_circuit::cell::SizedCell,
        s_factor: f64,
    ) -> f64 {
        match *self {
            SaturationCondition::Exact => 0.0,
            SaturationCondition::FixedMargin(m) => m,
            SaturationCondition::Statistical => {
                let sigmas = simple_bound_sigmas(spec, lsb_cell);
                2.0 * s_factor * sigmas.max()
            }
        }
    }

    /// [`Self::admits_simple`] against a prebuilt LSB cell and cached yield
    /// deviate (see [`Self::margin_simple_prepared`] for the contract).
    pub fn admits_simple_prepared(
        &self,
        spec: &DacSpec,
        lsb_cell: &ctsdac_circuit::cell::SizedCell,
        s_factor: f64,
        vov_cs: f64,
        vov_sw: f64,
    ) -> bool {
        vov_cs + vov_sw
            <= spec.env.v_out_min() - self.margin_simple_prepared(spec, lsb_cell, s_factor)
    }

    /// [`Self::margin_simple_prepared`] from the weight-1 LSB device gate
    /// areas alone — the lane-sweep variant that skips assembling the
    /// [`ctsdac_circuit::cell::SizedCell`] entirely. Bit-identical to the
    /// prepared form when `wl_cs`/`wl_sw` are the LSB cell's CS/SW areas.
    pub fn margin_simple_geometry(
        &self,
        spec: &DacSpec,
        wl_cs: f64,
        wl_sw: f64,
        s_factor: f64,
        vov_cs: f64,
        vov_sw: f64,
    ) -> f64 {
        match *self {
            SaturationCondition::Exact => 0.0,
            SaturationCondition::FixedMargin(m) => m,
            SaturationCondition::Statistical => {
                let sigmas = simple_bound_sigmas_from_geometry(spec, wl_cs, wl_sw, vov_cs, vov_sw);
                2.0 * s_factor * sigmas.max()
            }
        }
    }

    /// [`Self::admits_simple_prepared`] from the LSB device gate areas alone
    /// (see [`Self::margin_simple_geometry`] for the contract).
    pub fn admits_simple_geometry(
        &self,
        spec: &DacSpec,
        wl_cs: f64,
        wl_sw: f64,
        s_factor: f64,
        vov_cs: f64,
        vov_sw: f64,
    ) -> bool {
        vov_cs + vov_sw
            <= spec.env.v_out_min()
                - self.margin_simple_geometry(spec, wl_cs, wl_sw, s_factor, vov_cs, vov_sw)
    }

    /// Margin (V) for a *cascoded-topology* design point.
    pub fn margin_cascoded(
        &self,
        spec: &DacSpec,
        vov_cs: f64,
        vov_cas: f64,
        vov_sw: f64,
    ) -> f64 {
        self.margin_cascoded_with(spec, vov_cs, vov_cas, vov_sw, SigmaCombine::Max)
    }

    /// As [`Self::margin_cascoded`] with an explicit sigma-combination rule.
    pub fn margin_cascoded_with(
        &self,
        spec: &DacSpec,
        vov_cs: f64,
        vov_cas: f64,
        vov_sw: f64,
        combine: SigmaCombine,
    ) -> f64 {
        CascodedMargin::of(*self, spec)
            .margin(|| lsb_cascoded_sigma(spec, vov_cs, vov_cas, vov_sw, combine))
    }

    /// True if the simple-topology overdrive pair satisfies the condition:
    /// `V_OD,CS + V_OD,SW ≤ V_out,min − margin` (eq. (9)).
    pub fn admits_simple(&self, spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> bool {
        vov_cs + vov_sw <= spec.env.v_out_min() - self.margin_simple(spec, vov_cs, vov_sw)
    }

    /// True if the cascoded overdrive triple satisfies eq. (11).
    pub fn admits_cascoded(
        &self,
        spec: &DacSpec,
        vov_cs: f64,
        vov_cas: f64,
        vov_sw: f64,
    ) -> bool {
        CascodedMargin::of(*self, spec).admits(
            spec.env.v_out_min(),
            vov_cs,
            vov_cas,
            vov_sw,
            || lsb_cascoded_sigma(spec, vov_cs, vov_cas, vov_sw, SigmaCombine::Max),
        )
    }

    /// Maximum admissible `V_OD,SW` at fixed `V_OD,CS` (the constraint curve
    /// of Fig. 3 upper), solved by bisection because the statistical margin
    /// itself depends on the switch size.
    ///
    /// Returns `None` if even a minimal switch overdrive is inadmissible.
    pub fn max_vov_sw(&self, spec: &DacSpec, vov_cs: f64) -> Option<f64> {
        const VOV_MIN: f64 = 0.02;
        if !self.admits_simple(spec, vov_cs, VOV_MIN) {
            return None;
        }
        let mut lo = VOV_MIN;
        let mut hi = spec.env.v_out_min();
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.admits_simple(spec, vov_cs, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }
}

/// The combined bound σ of the weight-1 cascoded LSB cell at one point.
fn lsb_cascoded_sigma(
    spec: &DacSpec,
    vov_cs: f64,
    vov_cas: f64,
    vov_sw: f64,
    combine: SigmaCombine,
) -> f64 {
    let cell = build_cascoded_cell(spec, vov_cs, vov_cas, vov_sw, 1);
    let sigmas = cascoded_bound_sigmas(spec, &cell);
    match combine {
        SigmaCombine::Max => sigmas.max(),
        SigmaCombine::Rss => sigmas.rss(),
    }
}

/// Eq. (11)'s margin with its per-spec factor evaluated once: a constant
/// for [`SaturationCondition::Exact`] and
/// [`SaturationCondition::FixedMargin`], `3·S·σ` for
/// [`SaturationCondition::Statistical`]. The per-point API
/// ([`SaturationCondition::admits_cascoded`]) and the table-driven volume
/// search in [`crate::cascode`] both test admissibility through
/// [`Self::admits`], so the two agree bit for bit whenever they are handed
/// the same σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CascodedMargin {
    /// A margin that does not depend on the design point (V).
    Constant(f64),
    /// `3·S`, the factor of the statistical margin `3·S·σ_max`.
    Statistical {
        /// Three times the yield deviate of [`SaturationCondition::s_factor`].
        three_s: f64,
    },
}

impl CascodedMargin {
    /// Prepares the margin of `condition` for `spec`.
    pub(crate) fn of(condition: SaturationCondition, spec: &DacSpec) -> Self {
        match condition {
            SaturationCondition::Exact => CascodedMargin::Constant(0.0),
            SaturationCondition::FixedMargin(m) => CascodedMargin::Constant(m),
            SaturationCondition::Statistical => CascodedMargin::Statistical {
                three_s: 3.0 * SaturationCondition::s_factor(spec),
            },
        }
    }

    /// The margin in V. `sigma` yields the combined bound σ of the LSB
    /// cell and is called only by the statistical condition.
    #[inline]
    pub(crate) fn margin(&self, sigma: impl FnOnce() -> f64) -> f64 {
        match *self {
            CascodedMargin::Constant(m) => m,
            CascodedMargin::Statistical { three_s } => three_s * sigma(),
        }
    }

    /// Eq. (11): `V_OD,CS + V_OD,CAS + V_OD,SW ≤ V_out,min − margin`.
    #[inline]
    pub(crate) fn admits(
        &self,
        v_out_min: f64,
        vov_cs: f64,
        vov_cas: f64,
        vov_sw: f64,
        sigma: impl FnOnce() -> f64,
    ) -> bool {
        vov_cs + vov_cas + vov_sw <= v_out_min - self.margin(sigma)
    }
}

impl fmt::Display for SaturationCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaturationCondition::Exact => write!(f, "exact (eq. 4)"),
            SaturationCondition::FixedMargin(m) => write!(f, "fixed margin {m} V"),
            SaturationCondition::Statistical => write!(f, "statistical (eq. 9/11)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_factor_magnitude() {
        // inv_norm(0.997^0.25) = inv_norm(0.99925) ≈ 3.18
        let spec = DacSpec::paper_12bit();
        let s = SaturationCondition::s_factor(&spec);
        assert!((s - 3.17).abs() < 0.05, "S = {s}");
    }

    #[test]
    fn statistical_margin_beats_legacy() {
        // The core result: the statistically justified margin is a fraction
        // of the 0.5 V arbitrary one, so larger overdrives are admitted.
        let spec = DacSpec::paper_12bit();
        let stat = SaturationCondition::Statistical.margin_simple(&spec, 0.5, 0.6);
        assert!(stat < LEGACY_MARGIN / 2.0, "statistical margin {stat} V");
        assert!(stat > 0.0);
    }

    #[test]
    fn ordering_of_conditions() {
        // Exact admits everything the others do; statistical admits
        // everything the 0.5 V margin does (for this technology).
        let spec = DacSpec::paper_12bit();
        for vov_cs in [0.3, 0.6, 0.9] {
            for vov_sw in [0.3, 0.6, 0.9, 1.2] {
                let legacy = SaturationCondition::legacy().admits_simple(&spec, vov_cs, vov_sw);
                let stat =
                    SaturationCondition::Statistical.admits_simple(&spec, vov_cs, vov_sw);
                let exact = SaturationCondition::Exact.admits_simple(&spec, vov_cs, vov_sw);
                if legacy {
                    assert!(stat, "legacy admits ({vov_cs},{vov_sw}) but statistical rejects");
                }
                if stat {
                    assert!(exact, "statistical admits ({vov_cs},{vov_sw}) but exact rejects");
                }
            }
        }
    }

    #[test]
    fn constraint_curve_is_monotone_decreasing() {
        // Fig. 3 upper: more CS overdrive leaves less for the switch.
        let spec = DacSpec::paper_12bit();
        let cond = SaturationCondition::Statistical;
        let mut prev = f64::INFINITY;
        for i in 1..=10 {
            let vov_cs = 0.15 * i as f64;
            if let Some(max_sw) = cond.max_vov_sw(&spec, vov_cs) {
                assert!(max_sw <= prev + 1e-6, "curve not monotone at {vov_cs}");
                prev = max_sw;
            }
        }
    }

    #[test]
    fn max_vov_sw_sits_on_the_boundary() {
        let spec = DacSpec::paper_12bit();
        let cond = SaturationCondition::Statistical;
        let vov_cs = 0.7;
        let max_sw = cond.max_vov_sw(&spec, vov_cs).expect("feasible");
        assert!(cond.admits_simple(&spec, vov_cs, max_sw));
        assert!(!cond.admits_simple(&spec, vov_cs, max_sw + 1e-3));
    }

    #[test]
    fn exact_curve_is_straight_line() {
        let spec = DacSpec::paper_12bit();
        let cond = SaturationCondition::Exact;
        let max_sw = cond.max_vov_sw(&spec, 0.8).expect("feasible");
        assert!((max_sw - (spec.env.v_out_min() - 0.8)).abs() < 1e-9);
    }

    #[test]
    fn infeasible_cs_overdrive_returns_none() {
        let spec = DacSpec::paper_12bit();
        assert!(SaturationCondition::legacy()
            .max_vov_sw(&spec, spec.env.v_out_min())
            .is_none());
    }

    #[test]
    fn cascoded_margin_uses_three_gaps() {
        let spec = DacSpec::paper_12bit();
        let m3 = SaturationCondition::Statistical.margin_cascoded(&spec, 0.4, 0.3, 0.5);
        // Must be larger than the simple-cell margin at comparable sizes
        // (three gaps and four bounds instead of two and two).
        let m2 = SaturationCondition::Statistical.margin_simple(&spec, 0.4, 0.5);
        assert!(m3 > m2, "m3 = {m3}, m2 = {m2}");
        assert!(m3 < LEGACY_MARGIN, "statistical cascode margin {m3} V");
    }

    #[test]
    fn rss_combination_is_more_conservative() {
        let spec = DacSpec::paper_12bit();
        let max = SaturationCondition::Statistical.margin_simple_with(
            &spec,
            0.5,
            0.6,
            SigmaCombine::Max,
        );
        let rss = SaturationCondition::Statistical.margin_simple_with(
            &spec,
            0.5,
            0.6,
            SigmaCombine::Rss,
        );
        assert!(rss >= max);
    }

    #[test]
    fn prepared_margin_is_bit_identical_to_plain() {
        use crate::sizing::build_simple_cell;
        let spec = DacSpec::paper_12bit();
        let s = SaturationCondition::s_factor(&spec);
        for cond in [
            SaturationCondition::Statistical,
            SaturationCondition::Exact,
            SaturationCondition::legacy(),
        ] {
            for (cs, sw) in [(0.3, 0.4), (0.7, 0.9), (1.5, 1.5)] {
                let cell = build_simple_cell(&spec, cs, sw, 1);
                assert_eq!(
                    cond.margin_simple(&spec, cs, sw).to_bits(),
                    cond.margin_simple_prepared(&spec, &cell, s).to_bits(),
                    "{cond} margin differs at ({cs}, {sw})"
                );
                assert_eq!(
                    cond.admits_simple(&spec, cs, sw),
                    cond.admits_simple_prepared(&spec, &cell, s, cs, sw),
                );
            }
        }
    }

    #[test]
    fn geometry_margin_is_bit_identical_to_prepared() {
        use crate::sizing::build_simple_cell;
        let spec = DacSpec::paper_12bit();
        let s = SaturationCondition::s_factor(&spec);
        for cond in [
            SaturationCondition::Statistical,
            SaturationCondition::Exact,
            SaturationCondition::legacy(),
        ] {
            for (cs, sw) in [(0.3, 0.4), (0.7, 0.9), (1.5, 1.5)] {
                let cell = build_simple_cell(&spec, cs, sw, 1);
                let (wl_cs, wl_sw) = (cell.cs().area(), cell.sw().area());
                assert_eq!(
                    cond.margin_simple_prepared(&spec, &cell, s).to_bits(),
                    cond.margin_simple_geometry(&spec, wl_cs, wl_sw, s, cs, sw)
                        .to_bits(),
                    "{cond} geometry margin differs at ({cs}, {sw})"
                );
                assert_eq!(
                    cond.admits_simple_prepared(&spec, &cell, s, cs, sw),
                    cond.admits_simple_geometry(&spec, wl_cs, wl_sw, s, cs, sw),
                );
            }
        }
    }

    #[test]
    fn fixed_margin_is_constant_across_design_space() {
        let spec = DacSpec::paper_12bit();
        let c = SaturationCondition::FixedMargin(0.3);
        assert_eq!(c.margin_simple(&spec, 0.2, 0.2), 0.3);
        assert_eq!(c.margin_simple(&spec, 1.0, 0.9), 0.3);
    }
}
