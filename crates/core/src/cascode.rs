//! Cascoded-topology design space (the paper's Fig. 4).
//!
//! With three overdrives the admissible region becomes a volume; "it is
//! cumbersome to represent the optimization parameter ... since a 4th
//! dimension is required, so only the bounds for the overdrive voltages have
//! been plotted" (§3). This module computes exactly that limit surface —
//! for each `(V_OD,SW, V_OD,CAS)` grid point, the largest admissible
//! `V_OD,CS` under a chosen saturation condition — plus a volume-based
//! comparison of conditions and min-area / max-speed optimisers for the
//! cascoded cell.
//!
//! Every path runs on per-axis tables. Each device of the cell depends on
//! one overdrive only (CS on `V_OD,CS`, CAS on `V_OD,CAS`, SW on
//! `V_OD,SW`), and eq. (12)'s bound variances are sums of per-device terms
//! coupled only through the ratios `V_OD,CAS/V_OD,CS` and
//! `V_OD,SW/V_OD,CS`. A search therefore sizes each device once per axis
//! value ([`crate::bounds::DeviceTerms`]) and combines the terms per point
//! with [`cascoded_bound_sigmas_from_terms`], the same function the
//! per-cell [`crate::bounds::cascoded_bound_sigmas`] calls, so the
//! optima are bit-identical to a per-point
//! [`SaturationCondition::admits_cascoded`] scan by construction.

use crate::bounds::{cascoded_bound_sigmas_from_terms, full_scale_variance, DeviceTerms};
use crate::saturation::{CascodedMargin, SaturationCondition};
use crate::sizing::{
    sized_cs_with_unit, sized_sw_with_weight, total_analog_area_cascoded_from_geometry, CsSizing,
};
use crate::spec::DacSpec;
use core::fmt;
use ctsdac_circuit::cell::SizedCell;
use ctsdac_circuit::poles::PoleModel;
use ctsdac_obs as obs;
use ctsdac_process::mosfet::Mosfet;
use ctsdac_process::Pelgrom;
use std::cell::OnceCell;

/// One sample of the Fig. 4 limit surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfacePoint {
    /// Switch overdrive in V.
    pub vov_sw: f64,
    /// Cascode overdrive in V.
    pub vov_cas: f64,
    /// Largest admissible CS overdrive in V (`None` if the pair is already
    /// inadmissible at a minimal CS overdrive).
    pub max_vov_cs: Option<f64>,
}

impl fmt::Display for SurfacePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_vov_cs {
            Some(v) => write!(
                f,
                "(sw = {:.2}, cas = {:.2}) -> cs_max = {:.3} V",
                self.vov_sw, self.vov_cas, v
            ),
            None => write!(
                f,
                "(sw = {:.2}, cas = {:.2}) -> infeasible",
                self.vov_sw, self.vov_cas
            ),
        }
    }
}

/// A min-area design point of the cascoded topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascodePoint {
    /// CS overdrive in V.
    pub vov_cs: f64,
    /// Cascode overdrive in V.
    pub vov_cas: f64,
    /// Switch overdrive in V.
    pub vov_sw: f64,
    /// Total analog gate area of the converter in m².
    pub total_area: f64,
}

/// Grid explorer for the cascoded design volume.
#[derive(Debug, Clone)]
pub struct CascodeSpace {
    spec: DacSpec,
    condition: SaturationCondition,
    grid: usize,
    vov_min: f64,
    vov_max: f64,
}

impl CascodeSpace {
    /// Creates an explorer with a default 16-point axis over
    /// `[0.05 V, V_out,min]`.
    pub fn new(spec: &DacSpec, condition: SaturationCondition) -> Self {
        Self {
            spec: *spec,
            condition,
            grid: 16,
            vov_min: 0.05,
            vov_max: spec.env.v_out_min(),
        }
    }

    /// Sets the grid resolution per axis; values below 2 are clamped to 2.
    pub fn with_grid(mut self, grid: usize) -> Self {
        self.grid = grid.max(2);
        self
    }

    /// The grid coordinates of one axis.
    pub fn axis(&self) -> Vec<f64> {
        (0..self.grid)
            .map(|i| {
                self.vov_min
                    + (self.vov_max - self.vov_min) * i as f64 / (self.grid - 1) as f64
            })
            .collect()
    }

    /// Largest admissible CS overdrive for one `(vov_sw, vov_cas)` pair,
    /// solved by bisection.
    pub fn max_vov_cs(&self, vov_sw: f64, vov_cas: f64) -> Option<f64> {
        let margin = CascodedMargin::of(self.condition, &self.spec);
        self.max_vov_cs_with(&margin, vov_sw, vov_cas)
    }

    /// [`Self::max_vov_cs`] with the margin prepared by the caller. The
    /// switch and cascode stay fixed along the bisection, so their terms
    /// are sized once (and only if the statistical margin asks for σ);
    /// each step sizes just the CS device.
    fn max_vov_cs_with(&self, margin: &CascodedMargin, vov_sw: f64, vov_cas: f64) -> Option<f64> {
        const VOV_MIN: f64 = 0.02;
        let spec = &self.spec;
        let v_out_min = spec.env.v_out_min();
        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let fixed = OnceCell::new();
        let admits = |vov_cs: f64| {
            margin.admits(v_out_min, vov_cs, vov_cas, vov_sw, || {
                let (cas, sw) = fixed.get_or_init(|| {
                    (
                        MinLengthTerms::lsb(spec, &pelgrom, vov_cas).terms,
                        MinLengthTerms::lsb(spec, &pelgrom, vov_sw).terms,
                    )
                });
                let cs = CsTerms::lsb(spec, &pelgrom, &CsSizing::for_spec(spec, vov_cs));
                cascoded_bound_sigmas_from_terms(&cs.terms, cas, sw, cs.var_full_scale).max()
            })
        };
        if !admits(VOV_MIN) {
            return None;
        }
        let mut lo = VOV_MIN;
        let mut hi = v_out_min;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if admits(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// One `vov_sw` row of the Fig. 4 limit surface (row `row` of the
    /// grid). Rows are the unit of work for supervised/parallel surface
    /// evaluation; [`CascodeSpace::surface`] is their concatenation.
    /// Returns an empty row when `row` is out of range.
    pub fn surface_row(&self, row: usize) -> Vec<SurfacePoint> {
        let margin = CascodedMargin::of(self.condition, &self.spec);
        self.surface_row_on(&self.axis(), &margin, row)
    }

    fn surface_row_on(
        &self,
        axis: &[f64],
        margin: &CascodedMargin,
        row: usize,
    ) -> Vec<SurfacePoint> {
        let Some(&vov_sw) = axis.get(row) else {
            return Vec::new();
        };
        axis.iter()
            .map(|&vov_cas| SurfacePoint {
                vov_sw,
                vov_cas,
                max_vov_cs: self.max_vov_cs_with(margin, vov_sw, vov_cas),
            })
            .collect()
    }

    /// The full Fig. 4 limit surface over the `(vov_sw, vov_cas)` grid.
    pub fn surface(&self) -> Vec<SurfacePoint> {
        let axis = self.axis();
        let margin = CascodedMargin::of(self.condition, &self.spec);
        (0..self.grid)
            .flat_map(|row| self.surface_row_on(&axis, &margin, row))
            .collect()
    }

    /// Integral of the limit surface — the admissible design-space *volume*
    /// in V³. The statistical condition recovers volume the fixed margin
    /// forfeits.
    pub fn admissible_volume(&self) -> f64 {
        let da = (self.vov_max - self.vov_min) / (self.grid - 1) as f64;
        self.surface()
            .iter()
            .map(|p| p.max_vov_cs.unwrap_or(0.0) * da * da)
            .sum::<f64>()
            .max(0.0)
    }

    /// Every admissible grid point of the volume with its total analog
    /// area, in `(cs, cas, sw)` scan order — the set both optimisers
    /// choose from.
    pub fn admissible_points(&self) -> Vec<CascodePoint> {
        let Some(tables) = VolumeTables::new(self) else {
            return Vec::new();
        };
        let mut points = Vec::new();
        tables.scan(|i, j, k| points.push(tables.point(i, j, k, tables.area(i, j, k))));
        points
    }

    /// Min-area cascoded design point over the admissible volume.
    pub fn min_area_point(&self) -> Option<CascodePoint> {
        let _span = obs::span("core.cascode.search");
        let tables = VolumeTables::new(self)?;
        let mut best: Option<CascodePoint> = None;
        tables.scan(|i, j, k| {
            let area = tables.area(i, j, k);
            if best.is_none_or(|b| area < b.total_area) {
                best = Some(tables.point(i, j, k, area));
            }
        });
        best
    }

    /// Max-speed cascoded design point: maximises the slower pole of
    /// eq. (13) for the unary cell over the admissible volume.
    pub fn max_speed_point(&self) -> Option<CascodePoint> {
        let _span = obs::span("core.cascode.search");
        let tables = VolumeTables::new(self)?;
        let spec = &self.spec;
        let model = PoleModel::new(spec.cells_at_output());
        // The unary cell's devices, like the LSB cell's, depend on one
        // axis each.
        let weight = spec.unary_weight();
        let i_unary = spec.i_lsb() * weight as f64;
        let cs: Vec<Mosfet> = tables
            .cs
            .iter()
            .map(|t| sized_cs_with_unit(spec, &t.unit, weight))
            .collect();
        let min_length: Vec<Mosfet> = tables
            .axis
            .iter()
            .map(|&v| sized_sw_with_weight(spec, v, weight))
            .collect();
        let axis = &tables.axis;
        let mut best: Option<(CascodePoint, f64)> = None;
        tables.scan(|i, j, k| {
            let cell = SizedCell::cascoded_from_devices(
                &spec.tech,
                i_unary,
                cs[i],
                min_length[j],
                min_length[k],
                axis[i],
                axis[j],
                axis[k],
            );
            // A pole-model failure on one grid point must not sink the
            // whole search: the point is simply skipped.
            let Ok(poles) = model.poles(&cell, &spec.env) else {
                return;
            };
            let f = poles.dominant_hz();
            if !f.is_finite() {
                return;
            }
            if best.as_ref().is_none_or(|&(_, bf)| f > bf) {
                best = Some((tables.point(i, j, k, tables.area(i, j, k)), f));
            }
        });
        best.map(|(p, _)| p)
    }

    /// The spec this explorer is bound to.
    pub fn spec(&self) -> &DacSpec {
        &self.spec
    }
}

/// The CS device of the weight-1 LSB cell at one `V_OD,CS` axis value.
#[derive(Debug, Clone, Copy)]
struct CsTerms {
    unit: CsSizing,
    terms: DeviceTerms,
    var_full_scale: f64,
    wl: f64,
}

impl CsTerms {
    fn lsb(spec: &DacSpec, pelgrom: &Pelgrom, unit: &CsSizing) -> Self {
        let wl = sized_cs_with_unit(spec, unit, 1).area();
        Self {
            unit: *unit,
            terms: DeviceTerms::new(pelgrom, unit.vov(), wl),
            var_full_scale: full_scale_variance(spec, pelgrom, wl, unit.vov()),
            wl,
        }
    }
}

/// A minimum-length device of the weight-1 LSB cell at one axis value.
/// The cascode and the switch are sized by the same rule, so one table
/// serves both the `V_OD,CAS` and the `V_OD,SW` axis.
#[derive(Debug, Clone, Copy)]
struct MinLengthTerms {
    terms: DeviceTerms,
    wl: f64,
}

impl MinLengthTerms {
    fn lsb(spec: &DacSpec, pelgrom: &Pelgrom, vov: f64) -> Self {
        let wl = sized_sw_with_weight(spec, vov, 1).area();
        Self {
            terms: DeviceTerms::new(pelgrom, vov, wl),
            wl,
        }
    }
}

/// Per-axis tables of the eq. (11) volume search, built once per search
/// in O(grid) memory.
struct VolumeTables {
    axis: Vec<f64>,
    cs: Vec<CsTerms>,
    min_length: Vec<MinLengthTerms>,
    margin: CascodedMargin,
    v_out_min: f64,
    spec: DacSpec,
}

impl VolumeTables {
    /// Sizes every axis value once. `None` when the axis does not rise
    /// from `vov_min` (the headroom `V_out,min` is at or below it): no
    /// point with positive overdrives fits under the headroom then.
    fn new(space: &CascodeSpace) -> Option<Self> {
        let rises = space.vov_max > space.vov_min;
        if !rises {
            return None;
        }
        let spec = space.spec;
        let pelgrom = Pelgrom::new(&spec.tech.nmos);
        let axis = space.axis();
        Some(Self {
            cs: axis
                .iter()
                .map(|&v| CsTerms::lsb(&spec, &pelgrom, &CsSizing::for_spec(&spec, v)))
                .collect(),
            min_length: axis
                .iter()
                .map(|&v| MinLengthTerms::lsb(&spec, &pelgrom, v))
                .collect(),
            axis,
            margin: CascodedMargin::of(space.condition, &spec),
            v_out_min: spec.env.v_out_min(),
            spec,
        })
    }

    /// Calls `admitted(cs, cas, sw)` on every admissible grid index triple,
    /// in `(cs, cas, sw)` order, and counts the eq. (11) evaluations once.
    ///
    /// The axis rises, and `(a + b) + c` rises with `c`, so the first
    /// switch overdrive that fails the headroom ends its row.
    fn scan(&self, mut admitted: impl FnMut(usize, usize, usize)) {
        let mut evaluated = 0u64;
        for (i, cs) in self.cs.iter().enumerate() {
            for (j, cas) in self.min_length.iter().enumerate() {
                for (k, sw) in self.min_length.iter().enumerate() {
                    if cs.terms.vov + cas.terms.vov + sw.terms.vov >= self.v_out_min {
                        break;
                    }
                    evaluated += 1;
                    if self.admits(cs, cas, sw) {
                        admitted(i, j, k);
                    }
                }
            }
        }
        obs::count(obs::Counter::CascodePoints, evaluated);
    }

    /// Eq. (11) at one grid point, from its three devices' table entries.
    #[inline]
    fn admits(&self, cs: &CsTerms, cas: &MinLengthTerms, sw: &MinLengthTerms) -> bool {
        let sigma = || {
            cascoded_bound_sigmas_from_terms(&cs.terms, &cas.terms, &sw.terms, cs.var_full_scale)
                .max()
        };
        let (vov_cs, vov_cas, vov_sw) = (cs.terms.vov, cas.terms.vov, sw.terms.vov);
        self.margin
            .admits(self.v_out_min, vov_cs, vov_cas, vov_sw, sigma)
    }

    /// Total analog gate area at one grid index triple.
    fn area(&self, i: usize, j: usize, k: usize) -> f64 {
        total_analog_area_cascoded_from_geometry(
            &self.spec,
            self.cs[i].wl,
            self.min_length[j].wl,
            self.min_length[k].wl,
        )
    }

    fn point(&self, i: usize, j: usize, k: usize, total_area: f64) -> CascodePoint {
        CascodePoint {
            vov_cs: self.axis[i],
            vov_cas: self.axis[j],
            vov_sw: self.axis[k],
            total_area,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(cond: SaturationCondition) -> CascodeSpace {
        CascodeSpace::new(&DacSpec::paper_12bit(), cond).with_grid(10)
    }

    #[test]
    fn surface_has_feasible_and_infeasible_regions() {
        let s = space(SaturationCondition::Statistical);
        let surf = s.surface();
        assert!(surf.iter().any(|p| p.max_vov_cs.is_some()));
        assert!(surf.iter().any(|p| p.max_vov_cs.is_none()));
    }

    #[test]
    fn exact_surface_is_the_plane_sum_vov_equals_headroom() {
        let s = space(SaturationCondition::Exact);
        let v_out_min = s.spec().env.v_out_min();
        for p in s.surface() {
            if let Some(cs) = p.max_vov_cs {
                assert!(
                    (cs + p.vov_sw + p.vov_cas - v_out_min).abs() < 1e-9,
                    "{p}"
                );
            }
        }
    }

    #[test]
    fn statistical_volume_exceeds_legacy_volume() {
        // Fig. 4's message: the statistical surface bounds a larger volume
        // than the arbitrary-margin one.
        let stat = space(SaturationCondition::Statistical).admissible_volume();
        let legacy = space(SaturationCondition::legacy()).admissible_volume();
        let exact = space(SaturationCondition::Exact).admissible_volume();
        assert!(stat > legacy, "stat {stat} <= legacy {legacy}");
        assert!(exact >= stat, "exact {exact} < stat {stat}");
    }

    #[test]
    fn min_area_point_is_feasible_and_on_grid() {
        let s = space(SaturationCondition::Statistical);
        let p = s.min_area_point().expect("feasible volume");
        assert!(s
            .spec()
            .env
            .v_out_min()
            .ge(&(p.vov_cs + p.vov_cas + p.vov_sw)));
        assert!(p.total_area > 0.0);
    }

    #[test]
    fn statistical_min_area_beats_legacy_min_area() {
        let stat = space(SaturationCondition::Statistical)
            .min_area_point()
            .expect("feasible");
        let legacy = space(SaturationCondition::legacy())
            .min_area_point()
            .expect("feasible");
        assert!(
            stat.total_area < legacy.total_area,
            "stat {:.3e} >= legacy {:.3e}",
            stat.total_area,
            legacy.total_area
        );
    }

    #[test]
    fn max_speed_point_is_faster_than_min_area_point() {
        use ctsdac_circuit::poles::PoleModel;
        let s = space(SaturationCondition::Statistical);
        let fast = s.max_speed_point().expect("feasible");
        let small = s.min_area_point().expect("feasible");
        let model = PoleModel::new(s.spec().unary_source_count() + 4);
        let f = |p: &CascodePoint| {
            let cell = crate::sizing::build_cascoded_cell(
                s.spec(),
                p.vov_cs,
                p.vov_cas,
                p.vov_sw,
                s.spec().unary_weight(),
            );
            model
                .poles(&cell, &s.spec().env)
                .expect("feasible")
                .dominant_hz()
        };
        assert!(f(&fast) >= f(&small));
        // The paper's design runs at 400 MS/s: the speed optimum must
        // support it comfortably (dominant pole well above 300 MHz).
        assert!(f(&fast) > 3e8, "dominant pole only {:.3e} Hz", f(&fast));
    }

    #[test]
    fn surface_is_the_concatenation_of_its_rows() {
        let s = space(SaturationCondition::Statistical);
        let whole = s.surface();
        let mut rows = Vec::new();
        for r in 0..10 {
            rows.extend(s.surface_row(r));
        }
        assert_eq!(rows, whole);
        assert!(s.surface_row(10).is_empty(), "out-of-range row");
    }

    #[test]
    fn tiny_grid_is_clamped() {
        let s = space(SaturationCondition::Exact).with_grid(0);
        assert_eq!(s.axis().len(), 2);
    }

    #[test]
    fn max_vov_cs_sits_on_the_boundary() {
        let s = space(SaturationCondition::Statistical);
        let cs = s.max_vov_cs(0.4, 0.3).expect("feasible");
        let cond = SaturationCondition::Statistical;
        assert!(cond.admits_cascoded(s.spec(), cs, 0.3, 0.4));
        assert!(!cond.admits_cascoded(s.spec(), cs + 2e-3, 0.3, 0.4));
    }
}
