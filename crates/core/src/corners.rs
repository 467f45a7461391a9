//! Corner-aware verification of a sized design point.
//!
//! The statistical saturation condition covers *local* (mismatch) and
//! load-tolerance variation; *global* process corners shift every device
//! together, which the paper's prior art absorbed inside the same 0.5 V
//! blanket margin. This module makes the corner effect explicit: a slow
//! corner reduces `K'`, and a fixed-current bias therefore runs at a larger
//! overdrive `V_ov' = V_ov·√(K'/K'_corner)`, eating into the headroom. The
//! verifier recomputes the corner overdrives and reports the remaining
//! slack per corner — the honest complement to eq. (9).

use crate::saturation::SaturationCondition;
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_process::ProcessCorner;

/// Feasibility of one design point at one corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerCheck {
    /// The corner checked.
    pub corner: ProcessCorner,
    /// Corner-adjusted overdrive sum in V.
    pub vov_sum: f64,
    /// Headroom left after the saturation margin, in V
    /// (`V_out,min − margin − ΣV_ov'`); negative means the corner fails.
    pub slack: f64,
}

impl CornerCheck {
    /// True if the corner keeps the cell inside the condition.
    pub fn passes(&self) -> bool {
        self.slack >= 0.0
    }
}

impl fmt::Display for CornerCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: sum V_ov = {:.3} V, slack = {:+.3} V{}",
            self.corner,
            self.vov_sum,
            self.slack,
            if self.passes() { "" } else { "  [FAILS]" }
        )
    }
}

/// Corner-adjusted overdrive: at fixed current,
/// `V_ov' = V_ov·√(K'_TT / K'_corner)`.
pub fn corner_overdrive(spec: &DacSpec, corner: ProcessCorner, vov: f64) -> f64 {
    let (k_scale, _) = corner.nmos_shift();
    let _ = spec; // NMOS cell: the spec's device flavour is fixed.
    vov / k_scale.sqrt()
}

/// Checks a simple-topology design point at every corner under `cond`
/// (the margin is evaluated at nominal sizes — corners do not change the
/// drawn geometry).
pub fn verify_corners_simple(
    spec: &DacSpec,
    cond: SaturationCondition,
    vov_cs: f64,
    vov_sw: f64,
) -> Vec<CornerCheck> {
    let margin = cond.margin_simple(spec, vov_cs, vov_sw);
    ProcessCorner::ALL
        .iter()
        .map(|&corner| {
            let sum =
                corner_overdrive(spec, corner, vov_cs) + corner_overdrive(spec, corner, vov_sw);
            CornerCheck {
                corner,
                vov_sum: sum,
                slack: spec.env.v_out_min() - margin - sum,
            }
        })
        .collect()
}

/// The additional overdrive-budget derating (V) that makes the worst corner
/// pass: `max(0, −min slack)`. Designs sized at
/// `ΣV_ov ≤ V_out,min − margin − corner_derating` survive both local
/// variation (eq. (9)) and global corners.
pub fn corner_derating(spec: &DacSpec, cond: SaturationCondition, vov_cs: f64, vov_sw: f64) -> f64 {
    verify_corners_simple(spec, cond, vov_cs, vov_sw)
        .iter()
        .map(|c| -c.slack)
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_corner_matches_nominal_condition() {
        let spec = DacSpec::paper_12bit();
        let checks = verify_corners_simple(&spec, SaturationCondition::Statistical, 0.5, 0.6);
        let tt = checks
            .iter()
            .find(|c| c.corner == ProcessCorner::Tt)
            .expect("TT present");
        assert!((tt.vov_sum - 1.1).abs() < 1e-12);
        assert!(tt.passes());
    }

    #[test]
    fn slow_corner_inflates_overdrives() {
        let spec = DacSpec::paper_12bit();
        let ss = corner_overdrive(&spec, ProcessCorner::Ss, 1.0);
        let ff = corner_overdrive(&spec, ProcessCorner::Ff, 1.0);
        assert!(ss > 1.0, "SS overdrive {ss}");
        assert!(ff < 1.0, "FF overdrive {ff}");
        // 12 % K' drop → ~6.6 % overdrive growth.
        assert!((ss - 1.0 / 0.88f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn interior_design_survives_all_corners() {
        let spec = DacSpec::paper_12bit();
        let checks = verify_corners_simple(&spec, SaturationCondition::Statistical, 0.5, 0.6);
        assert!(checks.iter().all(|c| c.passes()), "{checks:?}");
        assert_eq!(checks.len(), 5);
    }

    #[test]
    fn constraint_line_design_fails_the_slow_corner() {
        // Exactly on the eq. (9) line there is no headroom left for a
        // global K' shift — the honest caveat this module exposes.
        let spec = DacSpec::paper_12bit();
        let cond = SaturationCondition::Statistical;
        let vov_cs = 0.9;
        let vov_sw = cond.max_vov_sw(&spec, vov_cs).expect("feasible");
        let checks = verify_corners_simple(&spec, cond, vov_cs, vov_sw);
        let ss = checks
            .iter()
            .find(|c| c.corner == ProcessCorner::Ss)
            .expect("SS present");
        assert!(!ss.passes(), "SS unexpectedly passes: {ss}");
        let derating = corner_derating(&spec, cond, vov_cs, vov_sw);
        assert!(derating > 0.0 && derating < 0.3, "derating = {derating}");
    }

    #[test]
    fn derating_restores_all_corners() {
        let spec = DacSpec::paper_12bit();
        let cond = SaturationCondition::Statistical;
        let vov_cs = 0.9;
        let vov_sw = cond.max_vov_sw(&spec, vov_cs).expect("feasible");
        let derating = corner_derating(&spec, cond, vov_cs, vov_sw);
        // Shrink both overdrives proportionally to absorb the derating.
        let scale = (spec.env.v_out_min() - cond.margin_simple(&spec, vov_cs, vov_sw) - derating)
            / (vov_cs + vov_sw);
        let checks = verify_corners_simple(&spec, cond, vov_cs * scale, vov_sw * scale);
        assert!(
            checks.iter().all(|c| c.slack > -0.02),
            "derated design still fails: {checks:?}"
        );
    }

    #[test]
    fn corner_failure_ordering_is_ss_worst() {
        let spec = DacSpec::paper_12bit();
        let checks = verify_corners_simple(&spec, SaturationCondition::Exact, 1.0, 1.0);
        let slack = |c: ProcessCorner| {
            checks
                .iter()
                .find(|x| x.corner == c)
                .expect("corner present")
                .slack
        };
        assert!(slack(ProcessCorner::Ss) <= slack(ProcessCorner::Tt));
        assert!(slack(ProcessCorner::Tt) <= slack(ProcessCorner::Ff));
    }
}
