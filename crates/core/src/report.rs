//! Margin-comparison report: the paper's §5 area-saving claim, quantified.
//!
//! "The results shown in Fig. 3 indicate that, for the particular technology
//! and DAC topology analyzed in this work, the proposed approach allows
//! saving area in comparison with the approach of \[9] where a 0.5 V safety
//! margin is added to the overdrive voltages bound."

use crate::cascode::CascodeSpace;
use crate::explore::{DesignSpace, ExploreError, Objective};
use crate::saturation::SaturationCondition;
use crate::sizing::build_simple_cell;
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::cell::CellTopology;

/// Side-by-side minimum-area results under the legacy and statistical
/// saturation conditions.
///
/// # Examples
///
/// ```
/// use ctsdac_core::{ComparisonReport, DacSpec};
/// use ctsdac_circuit::cell::CellTopology;
///
/// let report = ComparisonReport::compute(&DacSpec::paper_12bit(), CellTopology::Simple, 24)?;
/// assert!(report.area_saving_fraction() > 0.0);
/// println!("{report}");
/// # Ok::<(), ctsdac_core::explore::ExploreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonReport {
    /// Which topology was compared.
    pub topology: CellTopology,
    /// Overdrives of the legacy (0.5 V margin) optimum:
    /// `(vov_cs, vov_cas_or_zero, vov_sw)`.
    pub legacy_overdrives: (f64, f64, f64),
    /// Overdrives of the statistical optimum.
    pub statistical_overdrives: (f64, f64, f64),
    /// Total analog area under the legacy condition, m².
    pub legacy_area: f64,
    /// Total analog area under the statistical condition, m².
    pub statistical_area: f64,
    /// Margin (V) actually charged by the statistical condition at its
    /// optimum.
    pub statistical_margin: f64,
}

impl ComparisonReport {
    /// Optimises min-area under both conditions and assembles the report.
    ///
    /// # Errors
    ///
    /// Propagates [`ExploreError`] if either condition has an empty
    /// admissible region at the requested grid (does not happen for
    /// realistic specs).
    pub fn compute(
        spec: &DacSpec,
        topology: CellTopology,
        grid: usize,
    ) -> Result<Self, ExploreError> {
        match topology {
            CellTopology::Simple => {
                let legacy = DesignSpace::new(spec, SaturationCondition::legacy())
                    .with_grid(grid)
                    .optimize(Objective::MinArea)?;
                let stat = DesignSpace::new(spec, SaturationCondition::Statistical)
                    .with_grid(grid)
                    .optimize(Objective::MinArea)?;
                let margin =
                    SaturationCondition::Statistical.margin_simple(spec, stat.vov_cs, stat.vov_sw);
                Ok(Self {
                    topology,
                    legacy_overdrives: (legacy.vov_cs, 0.0, legacy.vov_sw),
                    statistical_overdrives: (stat.vov_cs, 0.0, stat.vov_sw),
                    legacy_area: legacy.total_area,
                    statistical_area: stat.total_area,
                    statistical_margin: margin,
                })
            }
            CellTopology::Cascoded => {
                let empty = || ExploreError::EmptyFeasibleRegion {
                    evaluated: grid * grid * grid,
                };
                let legacy = CascodeSpace::new(spec, SaturationCondition::legacy())
                    .with_grid(grid)
                    .min_area_point()
                    .ok_or_else(empty)?;
                let stat = CascodeSpace::new(spec, SaturationCondition::Statistical)
                    .with_grid(grid)
                    .min_area_point()
                    .ok_or_else(empty)?;
                let margin = SaturationCondition::Statistical.margin_cascoded(
                    spec,
                    stat.vov_cs,
                    stat.vov_cas,
                    stat.vov_sw,
                );
                Ok(Self {
                    topology,
                    legacy_overdrives: (legacy.vov_cs, legacy.vov_cas, legacy.vov_sw),
                    statistical_overdrives: (stat.vov_cs, stat.vov_cas, stat.vov_sw),
                    legacy_area: legacy.total_area,
                    statistical_area: stat.total_area,
                    statistical_margin: margin,
                })
            }
        }
    }

    /// Fractional area recovered by the statistical condition,
    /// `1 − A_stat/A_legacy`.
    pub fn area_saving_fraction(&self) -> f64 {
        1.0 - self.statistical_area / self.legacy_area
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Margin comparison ({} topology)", self.topology)?;
        writeln!(
            f,
            "  legacy 0.5 V margin : Vov = ({:.2}, {:.2}, {:.2}) V, area = {:.1} kum2",
            self.legacy_overdrives.0,
            self.legacy_overdrives.1,
            self.legacy_overdrives.2,
            self.legacy_area * 1e12 / 1e3
        )?;
        writeln!(
            f,
            "  statistical (eq. 9/11): Vov = ({:.2}, {:.2}, {:.2}) V, area = {:.1} kum2, margin = {:.0} mV",
            self.statistical_overdrives.0,
            self.statistical_overdrives.1,
            self.statistical_overdrives.2,
            self.statistical_area * 1e12 / 1e3,
            self.statistical_margin * 1e3
        )?;
        write!(
            f,
            "  area saving: {:.1} %",
            self.area_saving_fraction() * 100.0
        )
    }
}

/// Per-transistor sizing table for a simple-topology design point, used by
/// the figure binaries to print the sized devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingTable {
    /// CS width and length, m.
    pub cs: (f64, f64),
    /// Switch width and length, m.
    pub sw: (f64, f64),
    /// Cell current, A.
    pub i_unit: f64,
}

impl SizingTable {
    /// Sizes the LSB cell of `spec` at the given overdrives.
    pub fn for_simple(spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> Self {
        let cell = build_simple_cell(spec, vov_cs, vov_sw, 1);
        Self {
            cs: (cell.cs().w(), cell.cs().l()),
            sw: (cell.sw().w(), cell.sw().l()),
            i_unit: cell.i_unit(),
        }
    }
}

impl fmt::Display for SizingTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CS = {:.2}x{:.2} um, SW = {:.2}x{:.2} um @ {:.3} uA",
            self.cs.0 * 1e6,
            self.cs.1 * 1e6,
            self.sw.0 * 1e6,
            self.sw.1 * 1e6,
            self.i_unit * 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_report_shows_positive_saving() {
        let report = ComparisonReport::compute(&DacSpec::paper_12bit(), CellTopology::Simple, 20)
            .expect("feasible");
        assert!(report.area_saving_fraction() > 0.0, "no saving: {report}");
        assert!(report.statistical_margin < 0.5);
    }

    #[test]
    fn cascoded_report_shows_positive_saving() {
        let report = ComparisonReport::compute(&DacSpec::paper_12bit(), CellTopology::Cascoded, 8)
            .expect("feasible");
        assert!(report.area_saving_fraction() > 0.0, "no saving: {report}");
    }

    #[test]
    fn statistical_overdrives_exceed_legacy_sum() {
        // The recovered margin shows up as a larger admissible Vov sum.
        let r = ComparisonReport::compute(&DacSpec::paper_12bit(), CellTopology::Simple, 20)
            .expect("feasible");
        let legacy_sum = r.legacy_overdrives.0 + r.legacy_overdrives.2;
        let stat_sum = r.statistical_overdrives.0 + r.statistical_overdrives.2;
        assert!(
            stat_sum > legacy_sum,
            "stat {stat_sum} <= legacy {legacy_sum}"
        );
    }

    #[test]
    fn display_contains_saving_percentage() {
        let r = ComparisonReport::compute(&DacSpec::paper_12bit(), CellTopology::Simple, 12)
            .expect("feasible");
        let s = r.to_string();
        assert!(s.contains("area saving"), "{s}");
    }

    #[test]
    fn sizing_table_reports_lsb_current() {
        let spec = DacSpec::paper_12bit();
        let t = SizingTable::for_simple(&spec, 0.5, 0.6);
        assert!((t.i_unit - spec.i_lsb()).abs() / spec.i_lsb() < 1e-9);
        assert!(t.cs.0 > 0.0 && t.cs.1 > 0.0);
    }
}
