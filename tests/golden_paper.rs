//! Golden-vector conformance suite against the source paper.
//!
//! Every test here pins a quantity from Albiol, González & Alarcón (DATE
//! 2003) to a value derived *by hand* from the published equation, with the
//! derivation spelled out next to the assertion. The point is conformance,
//! not coverage: if a refactor changes any of these numbers, it changed the
//! methodology, and the diff should say so out loud.
//!
//! Covered equations:
//!
//! * eq. (1)  — INL-yield mismatch budget `σ(I)/I ≤ 1/(2·C·√2ⁿ)`;
//! * eq. (2)  — CS gate area `(W·L) = (A_β² + 4A_VT²/V_ov²)/σ²` and the
//!   square-law aspect ratio;
//! * eq. (4)  — exact saturation boundary `ΣV_OD ≤ V_out,min`;
//! * eq. (9)  — statistical boundary `ΣV_OD ≤ V_out,min − 2·S·σ_max`;
//! * eq. (11) — cascoded statistical boundary with the 3-gap margin;
//! * eq. (13) — two-pole settling model.
//!
//! Tolerances: hand-derived anchors carry the precision of the by-hand
//! normal quantiles (4–5 significant digits); identities evaluated through
//! two independent code paths are pinned to ~1e-12 relative.

use ctsdac::circuit::cell::{CellEnvironment, SizedCell};
use ctsdac::circuit::poles::PoleModel;
use ctsdac::circuit::settling::{
    settling_time, settling_time_bits, settling_time_two_pole, two_pole_step_response,
};
use ctsdac::core::bounds::{cascoded_bound_sigmas, simple_bound_sigmas};
use ctsdac::core::saturation::{SaturationCondition, LEGACY_MARGIN};
use ctsdac::core::sizing::{build_cascoded_cell, build_simple_cell, CsSizing};
use ctsdac::core::DacSpec;
use ctsdac::process::Technology;

fn rel_err(actual: f64, expected: f64) -> f64 {
    (actual - expected).abs() / expected.abs()
}

// --- eq. (1): the mismatch budget ----------------------------------------

/// C = inv_norm(0.5 + Y/2) at Y = 0.997.
///
/// Hand derivation: Φ(z) = 0.9985. From the normal table, Φ(2.96) =
/// 0.998462 and Φ(2.97) = 0.998511; linear interpolation gives
/// z ≈ 2.96 + 0.01·(0.998500 − 0.998462)/(0.998511 − 0.998462) ≈ 2.9678.
#[test]
fn eq1_yield_constant_matches_normal_table() {
    let spec = DacSpec::paper_12bit();
    let c = spec.yield_constant();
    assert!((c - 2.9678).abs() < 1e-3, "C = {c}, expected 2.9678 ± 1e-3");
}

/// σ(I)/I ≤ 1/(2·C·√2¹²) = 1/(2·2.9678·64) = 1/379.88 = 2.6324e-3.
///
/// The hand value carries the ±1e-3 uncertainty of the interpolated C,
/// i.e. ±3.4e-4 relative on σ; assert to 5e-7 absolute (≈2e-4 relative).
#[test]
fn eq1_sigma_unit_budget_12bit() {
    let spec = DacSpec::paper_12bit();
    let sigma = spec.sigma_unit_spec();
    assert!(
        (sigma - 2.6324e-3).abs() < 5e-7,
        "sigma(I)/I = {sigma:e}, expected 2.6324e-3 ± 5e-7"
    );
    // Structural identity: the budget is exactly 1/(2·C·√2ⁿ) for the
    // code's own C, to machine precision.
    let ident = 1.0 / (2.0 * spec.yield_constant() * 4096f64.sqrt());
    assert!(rel_err(sigma, ident) < 1e-15);
}

/// The budget halves per added bit pair: σ ∝ 2^{-n/2} at fixed yield.
#[test]
fn eq1_budget_scales_as_sqrt_unit_count() {
    let base = DacSpec::paper_12bit();
    let s10 = DacSpec::new(10, 4, 0.997, base.env, base.tech);
    assert!(rel_err(s10.sigma_unit_spec() / base.sigma_unit_spec(), 2.0) < 1e-12);
}

// --- eq. (2): CS sizing --------------------------------------------------

/// Gate area at V_ov = 0.5 V in 0.35 µm CMOS (A_VT = 9.5 mV·µm,
/// A_β = 1.9 %·µm):
///
/// ```text
/// numerator = A_β² + 4·A_VT²/V_ov²
///           = (1.9e-8)² + 4·(9.5e-9)²/0.25      [m²]
///           = 3.61e-16 + 1.444e-15 = 1.805e-15  [m²]
/// σ²        = (2.6324e-3)² = 6.9296e-6
/// W·L       = 1.805e-15 / 6.9296e-6 = 2.6047e-10 m² = 260.47 µm²
/// ```
#[test]
fn eq2_cs_gate_area_12bit() {
    let spec = DacSpec::paper_12bit();
    let cs = CsSizing::for_spec(&spec, 0.5);
    let area_um2 = cs.area() * 1e12;
    assert!(
        (area_um2 - 260.47).abs() < 0.15,
        "CS area = {area_um2} um^2, expected 260.47 ± 0.15"
    );
}

/// The square law pins the aspect ratio independently of matching:
///
/// ```text
/// I_LSB = 20 mA / 4096 = 4.8828125 µA                   (exact)
/// W/L   = 2·I/(K'·V_ov²) = 2·4.8828125e-6/(175e-6·0.25)
///       = 9.765625e-6 / 4.375e-5 = 0.22321428571…       (exact ratio)
/// ```
#[test]
fn eq2_cs_aspect_ratio_is_square_law() {
    let spec = DacSpec::paper_12bit();
    assert!(rel_err(spec.i_lsb(), 4.8828125e-6) < 1e-12, "I_LSB");
    assert!(
        rel_err(spec.i_unary(), 78.125e-6) < 1e-12,
        "I_unary = 16·I_LSB"
    );
    let cs = CsSizing::for_spec(&spec, 0.5);
    assert!(
        rel_err(cs.aspect(), 0.223214285714) < 1e-9,
        "W/L = {}, expected 0.22321428…",
        cs.aspect()
    );
    // W and L are the unique pair realising both the area and the aspect.
    assert!(rel_err(cs.w() * cs.l(), cs.area()) < 1e-12);
    assert!(rel_err(cs.w() / cs.l(), cs.aspect()) < 1e-12);
}

// --- eq. (4) vs eq. (9): the feasible boundary ---------------------------

/// S = inv_norm(Y^{1/4}) at Y = 0.997.
///
/// Hand derivation: Y^{1/4} = e^{ln(0.997)/4} = e^{−7.5113e-4} =
/// 0.9992491. The upper tail is 7.509e-4; from the table the tail at
/// z = 3.17 is 7.62e-4 and the density there is 2.62e-3 per unit z, so
/// z ≈ 3.17 + (7.62 − 7.51)e-4/2.62e-3 ≈ 3.174.
#[test]
fn eq9_s_factor_matches_normal_table() {
    let spec = DacSpec::paper_12bit();
    let s = SaturationCondition::s_factor(&spec);
    assert!((s - 3.174).abs() < 5e-3, "S = {s}, expected 3.174 ± 5e-3");
}

/// Eq. (4) exact boundary: at V_OD,CS = 0.8 V the largest admissible
/// switch overdrive is exactly V_out,min − 0.8 = (3.3 − 1.0) − 0.8 =
/// 1.5 V (the 60-step bisection resolves ~2e-18 V).
#[test]
fn eq4_exact_boundary_is_headroom_minus_vov_cs() {
    let spec = DacSpec::paper_12bit();
    assert!(
        rel_err(spec.env.v_out_min(), 2.3) < 1e-15,
        "V_out,min = V_DD − V_o"
    );
    let max_sw = SaturationCondition::Exact
        .max_vov_sw(&spec, 0.8)
        .expect("0.8 V CS overdrive leaves headroom");
    assert!(
        (max_sw - 1.5).abs() < 1e-9,
        "exact boundary at vov_cs=0.8: {max_sw}, expected 1.5"
    );
    // Legacy fixed margin shifts the same boundary down by exactly 0.5 V.
    let max_legacy = SaturationCondition::legacy()
        .max_vov_sw(&spec, 0.8)
        .expect("feasible");
    assert!(
        (max_legacy - 1.0).abs() < 1e-9,
        "legacy boundary {max_legacy}"
    );
}

/// Eq. (9) statistical boundary: the margin is 2·S·σ_max evaluated *at the
/// boundary point itself* (the switch size enters its own margin), so the
/// defining fixed-point identity
/// `vov_cs + vov_sw* = V_out,min − 2·S·σ_max(vov_cs, vov_sw*)`
/// must close at the bisection solution.
#[test]
fn eq9_statistical_boundary_closes_the_fixed_point() {
    let spec = DacSpec::paper_12bit();
    let vov_cs = 0.8;
    let stat = SaturationCondition::Statistical;
    let max_sw = stat.max_vov_sw(&spec, vov_cs).expect("feasible");
    let margin = stat.margin_simple(&spec, vov_cs, max_sw);
    let closure = vov_cs + max_sw + margin - spec.env.v_out_min();
    assert!(
        closure.abs() < 1e-8,
        "boundary residual {closure} V at vov_sw = {max_sw}"
    );
    // The paper's headline: the statistical margin beats the arbitrary
    // 0.5 V, so the admissible region is strictly larger.
    assert!(margin < LEGACY_MARGIN, "margin = {margin} V");
    let max_legacy = SaturationCondition::legacy()
        .max_vov_sw(&spec, vov_cs)
        .expect("feasible");
    assert!(max_sw > max_legacy);
}

/// Eq. (9) margin identity: margin_simple == 2·S·max(σ_up, σ_lo) with the
/// sigmas propagated from the worst-case (LSB) cell — two code paths, one
/// number.
#[test]
fn eq9_margin_is_two_s_sigma_max() {
    let spec = DacSpec::paper_12bit();
    let (vov_cs, vov_sw) = (0.5, 0.6);
    let margin = SaturationCondition::Statistical.margin_simple(&spec, vov_cs, vov_sw);
    let cell = build_simple_cell(&spec, vov_cs, vov_sw, 1);
    let sigmas = simple_bound_sigmas(&spec, &cell);
    let by_hand = 2.0 * SaturationCondition::s_factor(&spec) * sigmas.upper.max(sigmas.lower);
    assert!(rel_err(margin, by_hand) < 1e-12);
}

// --- eq. (11): the cascoded condition ------------------------------------

/// Eq. (11) margin identity: three stacked devices give three bias gaps,
/// so the margin is 3·S·σ_max over the *four* cascoded bounds.
#[test]
fn eq11_cascoded_margin_is_three_s_sigma_max() {
    let spec = DacSpec::paper_12bit();
    let (vov_cs, vov_cas, vov_sw) = (0.4, 0.3, 0.5);
    let margin = SaturationCondition::Statistical.margin_cascoded(&spec, vov_cs, vov_cas, vov_sw);
    let cell = build_cascoded_cell(&spec, vov_cs, vov_cas, vov_sw, 1);
    let s = cascoded_bound_sigmas(&spec, &cell);
    let sigma_max = s.sw_upper.max(s.sw_lower).max(s.cas_upper).max(s.cas_lower);
    let by_hand = 3.0 * SaturationCondition::s_factor(&spec) * sigma_max;
    assert!(rel_err(margin, by_hand) < 1e-12);
    // And the admission predicate is exactly the budget inequality.
    let admitted = SaturationCondition::Statistical.admits_cascoded(&spec, vov_cs, vov_cas, vov_sw);
    assert_eq!(
        admitted,
        vov_cs + vov_cas + vov_sw <= spec.env.v_out_min() - margin
    );
}

// --- eq. (13): the two-pole settling model -------------------------------

/// The output pole from first principles:
/// `p₁ = 1/(2π·R_L·(C_L + N·(C_db,SW + C_gd,SW)))` with N = 259 switch
/// drains (255 unary + 4 binary cells) on each output line. The drain
/// loading strictly slows the pole below the bare-load value
/// `1/(2π·50 Ω·2 pF) = 1.5915 GHz`.
#[test]
fn eq13_output_pole_formula() {
    let spec = DacSpec::paper_12bit();
    assert_eq!(spec.cells_at_output(), 259);
    let env = CellEnvironment::paper_12bit();
    let cell =
        SizedCell::simple_from_overdrives(&spec.tech, spec.i_unary(), 0.5, 0.6, 400e-12, None);
    let poles = PoleModel::new(259).poles(&cell, &env).expect("feasible");
    let caps = cell.sw_caps();
    let by_hand =
        1.0 / (2.0 * std::f64::consts::PI * env.rl * (env.c_load + 259.0 * (caps.cdb + caps.cgd)));
    assert!(rel_err(poles.p1_hz, by_hand) < 1e-12);
    let bare_load = 1.0 / (2.0 * std::f64::consts::PI * 50.0 * 2e-12);
    assert!((bare_load - 1.5915e9).abs() < 1e6, "bare RC = {bare_load}");
    assert!(poles.p1_hz < bare_load);
}

/// Single-pole half-LSB settling: t = τ·ln(1/ε) with ε = 0.5/2¹² =
/// 1/8192, so at τ = 1 the settling time is ln(8192) = 13·ln 2 =
/// 9.0109133…
#[test]
fn eq13_half_lsb_settling_is_thirteen_ln_two() {
    let t = settling_time_bits(1.0, 12);
    let by_hand = 13.0 * std::f64::consts::LN_2;
    assert!((t - by_hand).abs() < 1e-12, "t = {t}, expected {by_hand}");
    assert!((by_hand - 9.0109133).abs() < 1e-6);
}

/// Two-pole settling brackets: the cascade settles later than the
/// dominant pole alone but earlier than a single pole at τ₁+τ₂ would
/// bound it, and the returned time satisfies the defining equation
/// `1 − y(t*) = ε` to solver precision.
#[test]
fn eq13_two_pole_settling_is_consistent() {
    let env = CellEnvironment::paper_12bit();
    let tech = Technology::c035();
    let cell = SizedCell::simple_from_overdrives(&tech, 78.125e-6, 0.5, 0.6, 400e-12, None);
    let poles = PoleModel::new(259).poles(&cell, &env).expect("feasible");
    let (t1, t2) = poles.taus();
    let eps = 0.5 / 4096.0;
    let t_star = settling_time_two_pole(&poles, 12);
    let lower = settling_time(t1.max(t2), eps);
    let upper = 2.0 * settling_time(t1 + t2, eps);
    assert!(t_star > lower, "{t_star} vs dominant-pole {lower}");
    assert!(t_star < upper, "{t_star} vs bracket {upper}");
    let residual = 1.0 - two_pole_step_response(t_star, t1, t2);
    assert!(
        rel_err(residual, eps) < 1e-6,
        "1 − y(t*) = {residual:e}, expected eps = {eps:e}"
    );
}
