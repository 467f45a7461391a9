//! Differential suite for the table-driven cascoded volume search.
//!
//! `CascodeSpace` sizes each device once per axis value and combines the
//! per-device eq. (12) terms per grid point. The oracle here is the
//! brute-force scan the search replaced: every grid point under the
//! headroom is tested with the per-point `SaturationCondition::
//! admits_cascoded` (which rebuilds the LSB cell each time), the area comes
//! from `total_analog_area_cascoded`, and the speed objective builds the
//! unary cell with `build_cascoded_cell`. The oracle lives only in this
//! file; the kernel must reproduce its admissibility mask, its areas and
//! both optima bit for bit.

use ctsdac::circuit::cell::CellEnvironment;
use ctsdac::circuit::poles::PoleModel;
use ctsdac::core::cascode::{CascodePoint, CascodeSpace};
use ctsdac::core::explore::Objective;
use ctsdac::core::flow::{run_flow, run_flow_supervised, FlowOptions, TopologyChoice};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::sizing::{build_cascoded_cell, total_analog_area_cascoded};
use ctsdac::core::DacSpec;
use ctsdac::obs;
use ctsdac::process::Technology;
use ctsdac::runtime::ExecPolicy;
use std::sync::Mutex;

/// Serialises the tests of this file: the counter test reads the
/// process-global registry, which a concurrent search would disturb.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn spec(n_bits: u32, inl_yield: f64) -> DacSpec {
    DacSpec::new(
        n_bits,
        4,
        inl_yield,
        CellEnvironment::paper_12bit(),
        Technology::c035(),
    )
}

const CONDITIONS: [SaturationCondition; 3] = [
    SaturationCondition::Exact,
    SaturationCondition::FixedMargin(0.5),
    SaturationCondition::Statistical,
];

/// The oracle's admissible points, in `(cs, cas, sw)` scan order.
fn reference_admissible(space: &CascodeSpace, cond: SaturationCondition) -> Vec<CascodePoint> {
    let spec = space.spec();
    let axis = space.axis();
    let mut out = Vec::new();
    for &vov_cs in &axis {
        for &vov_cas in &axis {
            for &vov_sw in &axis {
                if vov_cs + vov_cas + vov_sw >= spec.env.v_out_min() {
                    continue;
                }
                if cond.admits_cascoded(spec, vov_cs, vov_cas, vov_sw) {
                    out.push(CascodePoint {
                        vov_cs,
                        vov_cas,
                        vov_sw,
                        total_area: total_analog_area_cascoded(spec, vov_cs, vov_cas, vov_sw),
                    });
                }
            }
        }
    }
    out
}

/// The oracle's min-area point: first strictly smaller area wins.
fn reference_min_area(admissible: &[CascodePoint]) -> Option<CascodePoint> {
    let mut best: Option<CascodePoint> = None;
    for &p in admissible {
        if best.is_none_or(|b| p.total_area < b.total_area) {
            best = Some(p);
        }
    }
    best
}

/// The oracle's max-speed point: the unary cell is rebuilt from scratch at
/// every admissible point; first strictly faster dominant pole wins.
fn reference_max_speed(spec: &DacSpec, admissible: &[CascodePoint]) -> Option<CascodePoint> {
    let model = PoleModel::new(spec.cells_at_output());
    let mut best: Option<(CascodePoint, f64)> = None;
    for &p in admissible {
        let cell = build_cascoded_cell(spec, p.vov_cs, p.vov_cas, p.vov_sw, spec.unary_weight());
        let Ok(poles) = model.poles(&cell, &spec.env) else {
            continue;
        };
        let f = poles.dominant_hz();
        if f.is_finite() && best.as_ref().is_none_or(|&(_, bf)| f > bf) {
            best = Some((p, f));
        }
    }
    best.map(|(p, _)| p)
}

fn bits(p: &CascodePoint) -> [u64; 4] {
    [
        p.vov_cs.to_bits(),
        p.vov_cas.to_bits(),
        p.vov_sw.to_bits(),
        p.total_area.to_bits(),
    ]
}

fn assert_same(got: Option<CascodePoint>, want: Option<CascodePoint>, label: &str) {
    assert_eq!(
        got.map(|p| bits(&p)),
        want.map(|p| bits(&p)),
        "{label}: {got:?} vs {want:?}"
    );
}

/// The kernel admits exactly the points `admits_cascoded` admits, in the
/// same order and with bit-equal areas, under all three conditions.
#[test]
fn admissibility_mask_matches_per_point_condition() {
    let _g = serial();
    for (n_bits, y) in [(8, 0.9), (10, 0.997), (12, 0.997), (14, 0.9999)] {
        for cond in CONDITIONS {
            for grid in [2, 10, 17] {
                let space = CascodeSpace::new(&spec(n_bits, y), cond).with_grid(grid);
                let want = reference_admissible(&space, cond);
                let got = space.admissible_points();
                let label = format!("{n_bits} bit, yield {y}, {cond}, grid {grid}");
                assert_eq!(got.len(), want.len(), "{label}: admissible counts differ");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(bits(g), bits(w), "{label}: {g:?} vs {w:?}");
                }
            }
        }
    }
}

/// Both optima are bit-equal to the brute-force scan across resolutions,
/// yields and grids, from the smallest grid to the grid 64 of the default
/// cascoded `dacsizer` flows.
#[test]
fn optima_are_bit_identical_to_brute_force() {
    let _g = serial();
    let mut nonempty = 0;
    for n_bits in 8..=14 {
        for y in [0.9, 0.99, 0.997, 0.9999] {
            let spec = spec(n_bits, y);
            for grid in [2, 10, 33, 64] {
                let space =
                    CascodeSpace::new(&spec, SaturationCondition::Statistical).with_grid(grid);
                let admissible = reference_admissible(&space, SaturationCondition::Statistical);
                let label = format!("{n_bits} bit, yield {y}, grid {grid}");
                assert_same(
                    space.min_area_point(),
                    reference_min_area(&admissible),
                    &format!("{label}, min area"),
                );
                assert_same(
                    space.max_speed_point(),
                    reference_max_speed(&spec, &admissible),
                    &format!("{label}, max speed"),
                );
                nonempty += usize::from(!admissible.is_empty());
            }
        }
    }
    assert!(
        nonempty >= 84,
        "only {nonempty} configurations had an admissible point"
    );
}

/// The legacy and exact conditions run through the same kernel as the
/// statistical one, with a constant margin.
#[test]
fn constant_margin_optima_are_bit_identical_to_brute_force() {
    let _g = serial();
    for (n_bits, y, cond) in [
        (12, 0.997, SaturationCondition::FixedMargin(0.5)),
        (12, 0.997, SaturationCondition::Exact),
        (8, 0.9, SaturationCondition::FixedMargin(0.5)),
        (14, 0.9999, SaturationCondition::Exact),
    ] {
        let spec = spec(n_bits, y);
        let space = CascodeSpace::new(&spec, cond).with_grid(64);
        let admissible = reference_admissible(&space, cond);
        assert!(!admissible.is_empty(), "{n_bits} bit, {cond}: empty volume");
        let label = format!("{n_bits} bit, yield {y}, {cond}, grid 64");
        assert_same(
            space.min_area_point(),
            reference_min_area(&admissible),
            &format!("{label}, min area"),
        );
        assert_same(
            space.max_speed_point(),
            reference_max_speed(&spec, &admissible),
            &format!("{label}, max speed"),
        );
    }
}

/// A headroom at or below the axis floor leaves no admissible point, and
/// the search reports that instead of sizing a device at a non-positive
/// overdrive.
#[test]
fn headroom_below_the_axis_floor_is_an_empty_volume() {
    let _g = serial();
    for swing in [3.28, 3.3, 3.4, 5.0] {
        let mut spec = DacSpec::paper_12bit();
        spec.env.v_swing = swing;
        for cond in CONDITIONS {
            let space = CascodeSpace::new(&spec, cond).with_grid(10);
            assert!(space.min_area_point().is_none(), "swing {swing}, {cond}");
            assert!(space.max_speed_point().is_none(), "swing {swing}, {cond}");
        }
    }
}

/// The oracle's Fig. 4 limit: the 61-step bisection on `admits_cascoded`.
fn reference_max_vov_cs(
    spec: &DacSpec,
    cond: SaturationCondition,
    vov_sw: f64,
    vov_cas: f64,
) -> Option<f64> {
    if !cond.admits_cascoded(spec, 0.02, vov_cas, vov_sw) {
        return None;
    }
    let (mut lo, mut hi) = (0.02, spec.env.v_out_min());
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if cond.admits_cascoded(spec, mid, vov_cas, vov_sw) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The Fig. 4 surface with its hoisted devices and margin is bit-equal
/// to the per-point bisection, under all three conditions.
#[test]
fn limit_surface_matches_per_point_bisection() {
    let _g = serial();
    for (n_bits, y) in [(10, 0.99), (12, 0.997), (14, 0.9999)] {
        let spec = spec(n_bits, y);
        for cond in CONDITIONS {
            let space = CascodeSpace::new(&spec, cond).with_grid(7);
            for p in space.surface() {
                let want = reference_max_vov_cs(&spec, cond, p.vov_sw, p.vov_cas);
                assert_eq!(
                    p.max_vov_cs.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{n_bits} bit, {cond}: {p}"
                );
            }
        }
    }
}

/// The inline cascoded search gives `run_flow` and `run_flow_supervised`
/// the same report, at one and at eight jobs.
#[test]
fn supervised_flow_reports_the_same_cascoded_design() {
    let _g = serial();
    let spec = DacSpec::paper_12bit();
    for objective in [Objective::MinArea, Objective::MaxSpeed] {
        let options = FlowOptions {
            objective,
            topology: TopologyChoice::Cascoded,
            grid: 24,
            ..FlowOptions::default()
        };
        let plain = run_flow(&spec, &options).expect("cascoded flow");
        assert!(
            plain.lsb_cell.cas().is_some(),
            "{objective:?}: not cascoded"
        );
        for jobs in [1, 8] {
            let supervised = run_flow_supervised(&spec, &options, &ExecPolicy::with_jobs(jobs))
                .expect("supervised cascoded flow");
            assert_eq!(
                format!("{:?}", supervised.value),
                format!("{plain:?}"),
                "{objective:?} at {jobs} jobs"
            );
        }
    }
}

/// One search adds its eq. (11) evaluation count — the grid points under
/// the headroom — once, whatever the objective.
#[test]
fn cascode_points_counter_counts_eq11_evaluations() {
    let _g = serial();
    let spec = DacSpec::paper_12bit();
    let space = CascodeSpace::new(&spec, SaturationCondition::Statistical).with_grid(20);
    let axis = space.axis();
    let v_out_min = spec.env.v_out_min();
    let mut under_headroom = 0u64;
    for &a in &axis {
        for &b in &axis {
            for &c in &axis {
                under_headroom += u64::from(a + b + c < v_out_min);
            }
        }
    }
    obs::set_metrics(true);
    let before = obs::counter_value(obs::Counter::CascodePoints);
    let _ = space.min_area_point();
    let after_area = obs::counter_value(obs::Counter::CascodePoints);
    let _ = space.max_speed_point();
    let after_speed = obs::counter_value(obs::Counter::CascodePoints);
    obs::set_metrics(false);
    assert_eq!(after_area - before, under_headroom);
    assert_eq!(after_speed - after_area, under_headroom);
    assert!(obs::Counter::CascodePoints.deterministic());
}
