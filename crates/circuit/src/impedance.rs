//! DC and frequency-dependent output impedance of the current cell, and the
//! impedance-INL relation.
//!
//! The paper selects the cascoded topology for the 12-bit design because
//! "the CS topology does not provide enough output impedance for a 12-bit
//! DAC" (§3) — a statement about the impedance *at signal frequency*
//! (van den Bosch et al. \[8], "SFDR-Bandwidth Limitations"): the internal
//! node capacitance shunts the current source's `r_o` as frequency rises.
//! Three pieces make that argument quantitative:
//!
//! 1. the cell's DC output impedance — a stack of `r_o`'s boosted by
//!    `(g_m + g_mb)·r_o` per cascoding device. Each `r_o` uses the
//!    channel-length-modulation refinement `(1 + λ·V_DS)/(λ·I_D)` *and* a
//!    saturation-edge factor that collapses the resistance as `V_DS`
//!    approaches `V_ov` (the physical reason the paper's optimum gate bias,
//!    eq. (5)/(10), sits strictly inside the bounds);
//! 2. the impedance at frequency `f`, with the internal nodes shunted by
//!    their parasitic plus interconnect capacitance;
//! 3. the classic INL-vs-impedance bound (Razavi \[7]): a code-dependent
//!    output conductance bends the transfer characteristic into a parabola
//!    with `INL ≈ R_L·N²/(4·R_unit)` LSB, `R_unit` the impedance of one
//!    LSB-weighted source and `N = 2ⁿ`.

use crate::bias::{BiasError, InfeasibleCellError, OptimumBias};
use crate::cell::{CellEnvironment, CellTopology, SizedCell};

/// Voltage scale of the saturation-edge resistance collapse: the output
/// resistance is derated by `1 − exp(−(V_DS − V_ov)/V_SAT_SOFT)`, reaching
/// ~63 % of its saturation value one `V_SAT_SOFT` above the edge.
const V_SAT_SOFT: f64 = 0.05;

/// Output resistance of one device: saturation `r_o = (1 + λ·V_DS)/(λ·I_D)`
/// derated by the saturation-edge factor. `margin = V_DS − V_ov`.
fn ro_device(lambda: f64, id: f64, vds: f64, margin: f64) -> f64 {
    let ro_sat = (1.0 + lambda * vds.max(0.0)) / (lambda * id);
    let factor = if margin <= 0.0 {
        1e-6
    } else {
        (1.0 - (-margin / V_SAT_SOFT).exp()).max(1e-6)
    };
    ro_sat * factor
}

/// Minimal complex arithmetic for the frequency-dependent impedance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cplx {
    re: f64,
    im: f64,
}

impl Cplx {
    fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }
    fn add(self, o: Cplx) -> Cplx {
        Cplx {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
    fn mul(self, o: Cplx) -> Cplx {
        Cplx {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
    fn scale(self, k: f64) -> Cplx {
        Cplx {
            re: self.re * k,
            im: self.im * k,
        }
    }
    fn inv(self) -> Cplx {
        let d = self.re * self.re + self.im * self.im;
        Cplx {
            re: self.re / d,
            im: -self.im / d,
        }
    }
    fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
    /// Parallel of a resistance-like impedance with a capacitance at `w`.
    fn parallel_cap(self, c: f64, w: f64) -> Cplx {
        if c <= 0.0 || w <= 0.0 {
            return self;
        }
        // Z ∥ 1/(jwC) = Z / (1 + jwC·Z)
        let jwc = Cplx { re: 0.0, im: w * c };
        self.mul(jwc.mul(self).add(Cplx::real(1.0)).inv())
    }
}

/// DC output impedance of the simple cell biased at gate voltage
/// `v_gate_sw`, with the output at its minimum voltage — the worst case the
/// paper analyses.
///
/// The internal node follows the switch gate as a source follower:
/// `V_A = V_g − V_T,SW(V_A) − V_OD,SW` (fixed point, solved iteratively).
///
/// # Errors
///
/// [`BiasError::WrongTopology`] if the cell is not the simple topology.
pub fn rout_simple_at_gate(
    cell: &SizedCell,
    env: &CellEnvironment,
    v_gate_sw: f64,
) -> Result<f64, BiasError> {
    if cell.topology() != CellTopology::Simple {
        return Err(BiasError::WrongTopology {
            expected: CellTopology::Simple,
            found: cell.topology(),
        });
    }
    let id = cell.i_unit();
    // Source-follower node voltage. The switch threshold uses the same
    // reference point as `sw_gate_bounds_simple` (the midpoint node voltage)
    // so that the gate bounds land exactly on the saturation edges.
    let slack = env.v_out_min() - cell.overdrive_sum();
    let v_a_mid = cell.vov_cs() + 0.5 * slack.max(0.0);
    let vt_ref = cell.sw().vt(v_a_mid.max(0.0));
    let v_a = (v_gate_sw - vt_ref - cell.vov_sw()).max(0.0);
    let ro_cs = ro_device(cell.cs().lambda(), id, v_a, v_a - cell.vov_cs());
    let vds_sw = (env.v_out_min() - v_a).max(0.0);
    let ro_sw = ro_device(cell.sw().lambda(), id, vds_sw, vds_sw - cell.vov_sw());
    let gm = cell.sw().gm(id, cell.vov_sw());
    let gmb = cell.sw().gmb(id, cell.vov_sw(), v_a.max(0.0));
    Ok(ro_sw + ro_cs + (gm + gmb) * ro_sw * ro_cs)
}

/// DC output impedance of the cell at its optimum bias.
///
/// Works for both topologies: the simple cell evaluates
/// [`rout_simple_at_gate`] at the eq. (5) midpoint; the cascoded cell stacks
/// the cascode boost on top (eq. (10) thirds bias).
///
/// # Errors
///
/// [`BiasError::Infeasible`] if the cell is infeasible in `env` (the bias
/// point would not exist).
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::cell::{CellEnvironment, SizedCell};
/// use ctsdac_circuit::impedance::rout_at_optimum;
/// use ctsdac_process::Technology;
///
/// let tech = Technology::c035();
/// let env = CellEnvironment::paper_12bit();
/// let simple = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
/// let cascoded = SizedCell::cascoded_from_overdrives(
///     &tech, 78.1e-6, 0.5, 0.3, 0.6, 400e-12, None, None);
/// // The cascode buys a large factor of output impedance.
/// assert!(rout_at_optimum(&cascoded, &env)? > 20.0 * rout_at_optimum(&simple, &env)?);
/// # Ok::<(), ctsdac_circuit::bias::BiasError>(())
/// ```
pub fn rout_at_optimum(cell: &SizedCell, env: &CellEnvironment) -> Result<f64, BiasError> {
    rout_at_frequency(cell, env, 0.0)
}

/// [`rout_at_optimum`] with an already-computed optimum bias (see
/// [`rout_at_frequency_with_bias`]).
///
/// # Errors
///
/// [`BiasError::MissingCascode`] for an inconsistently built cascoded cell.
pub fn rout_at_optimum_with_bias(
    cell: &SizedCell,
    env: &CellEnvironment,
    opt: &OptimumBias,
) -> Result<f64, BiasError> {
    rout_at_frequency_with_bias(cell, env, 0.0, opt)
}

/// Output impedance magnitude at frequency `f_hz`, with every internal node
/// shunted by its parasitic (plus interconnect) capacitance.
///
/// At `f_hz = 0` this is the DC output impedance. The output-node
/// capacitance is *not* included — it belongs to the load, not the source.
///
/// # Errors
///
/// [`BiasError::Infeasible`] if the cell is infeasible in `env`;
/// [`BiasError::MissingCascode`] for an inconsistently built cascoded cell.
///
/// # Panics
///
/// Panics if `f_hz` is negative.
pub fn rout_at_frequency(
    cell: &SizedCell,
    env: &CellEnvironment,
    f_hz: f64,
) -> Result<f64, BiasError> {
    let opt = OptimumBias::of(cell, env)?;
    rout_at_frequency_with_bias(cell, env, f_hz, &opt)
}

/// [`rout_at_frequency`] with an already-computed optimum bias, so hot
/// loops that need both the bias point and the impedance solve the bias
/// fixed point once. `opt` must be the [`OptimumBias::of`] result for the
/// same `(cell, env)` pair.
///
/// # Errors
///
/// [`BiasError::MissingCascode`] for an inconsistently built cascoded cell.
///
/// # Panics
///
/// Panics if `f_hz` is negative.
pub fn rout_at_frequency_with_bias(
    cell: &SizedCell,
    env: &CellEnvironment,
    f_hz: f64,
    opt: &OptimumBias,
) -> Result<f64, BiasError> {
    assert!(f_hz >= 0.0, "negative frequency {f_hz}");
    let w = 2.0 * core::f64::consts::PI * f_hz;
    let id = cell.i_unit();
    match cell.topology() {
        CellTopology::Simple => {
            let v_a = opt.v_node_a;
            let ro_cs = ro_device(cell.cs().lambda(), id, v_a, v_a - cell.vov_cs());
            let vds_sw = (env.v_out_min() - v_a).max(0.0);
            let ro_sw = ro_device(cell.sw().lambda(), id, vds_sw, vds_sw - cell.vov_sw());
            let gm =
                cell.sw().gm(id, cell.vov_sw()) + cell.sw().gmb(id, cell.vov_sw(), v_a.max(0.0));
            let c_a = cell.cs_caps().cdb + cell.sw_caps().cgs + env.c_int;
            let z_a = Cplx::real(ro_cs).parallel_cap(c_a, w);
            // Z_out = ro_sw + Z_A + gm·ro_sw·Z_A
            Ok(Cplx::real(ro_sw).add(z_a).add(z_a.scale(gm * ro_sw)).abs())
        }
        CellTopology::Cascoded => {
            let (Some(cas), Some(cas_caps), Some(vov_cas)) =
                (cell.cas(), cell.cas_caps(), cell.vov_cas())
            else {
                return Err(BiasError::MissingCascode);
            };
            let v_a = opt.v_node_a;
            let v_b = opt.v_node_b;
            let ro_cs = ro_device(cell.cs().lambda(), id, v_a, v_a - cell.vov_cs());
            let vds_cas = (v_b - v_a).max(0.0);
            let ro_cas = ro_device(cas.lambda(), id, vds_cas, vds_cas - vov_cas);
            let vds_sw = (env.v_out_min() - v_b).max(0.0);
            let ro_sw = ro_device(cell.sw().lambda(), id, vds_sw, vds_sw - cell.vov_sw());
            let gm_cas = cas.gm(id, vov_cas) + cas.gmb(id, vov_cas, v_a.max(0.0));
            let gm_sw =
                cell.sw().gm(id, cell.vov_sw()) + cell.sw().gmb(id, cell.vov_sw(), v_b.max(0.0));
            // Node A: CS drain shunted by its junction + cascode source cap.
            let c_a = cell.cs_caps().cdb + cas_caps.cgs;
            let z_a = Cplx::real(ro_cs).parallel_cap(c_a, w);
            // Impedance looking into the cascode drain, shunted at node B by
            // its junction + switch gate + interconnect.
            let z_b_raw = Cplx::real(ro_cas).add(z_a).add(z_a.scale(gm_cas * ro_cas));
            let c_b = cas_caps.cdb + cell.sw_caps().cgs + env.c_int;
            let z_b = z_b_raw.parallel_cap(c_b, w);
            Ok(Cplx::real(ro_sw)
                .add(z_b)
                .add(z_b.scale(gm_sw * ro_sw))
                .abs())
        }
    }
}

/// Numerically locates the switch gate voltage maximising the simple cell's
/// output impedance (golden-section search inside the gate bounds).
///
/// Used to validate the paper's closed-form optimum (eq. (5)); returns
/// `(v_gate, rout)`.
///
/// # Errors
///
/// [`BiasError::WrongTopology`] for a non-simple cell,
/// [`BiasError::Infeasible`] when no admissible gate interval exists.
pub fn optimal_gate_numeric(
    cell: &SizedCell,
    env: &CellEnvironment,
) -> Result<(f64, f64), BiasError> {
    let bounds = crate::bias::sw_gate_bounds_simple(cell, env)?;
    if !bounds.is_feasible() {
        return Err(BiasError::Infeasible(InfeasibleCellError {
            overdrive_sum: cell.overdrive_sum(),
            headroom: env.v_out_min(),
        }));
    }
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    let (mut a, mut b) = (bounds.lower, bounds.upper);
    // Topology is already validated above, so the per-point evaluation
    // cannot fail; map the impossible arm to -inf, which the maximiser
    // ignores.
    let f = |v: f64| rout_simple_at_gate(cell, env, v).unwrap_or(f64::NEG_INFINITY);
    let mut c = b - phi * (b - a);
    let mut d = a + phi * (b - a);
    let (mut fc, mut fd) = (f(c), f(d));
    for _ in 0..80 {
        if fc > fd {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = f(d);
        }
    }
    let v = 0.5 * (a + b);
    Ok((v, f(v)))
}

/// Worst-case INL (in LSB) caused by the finite unit-source output
/// impedance: `INL ≈ R_L·N²/(4·R_unit)` with `N = 2ⁿ` (Razavi \[7]).
///
/// `r_unit` is the impedance of one *LSB-weighted* source; an `m`-weighted
/// unary source of impedance `R` contributes `R·m` here (impedance scales
/// inversely with current).
///
/// # Panics
///
/// Panics if `r_unit` or `rl` is not finite and strictly positive, or `n`
/// is outside `1..=24`.
///
/// # Examples
///
/// ```
/// use ctsdac_circuit::inl_from_output_impedance;
///
/// // 12-bit, 50 Ω load: a 1 GΩ LSB-source impedance gives ~0.21 LSB INL.
/// let inl = inl_from_output_impedance(12, 50.0, 1e9);
/// assert!((inl - 0.2097).abs() < 1e-3);
/// ```
pub fn inl_from_output_impedance(n: u32, rl: f64, r_unit: f64) -> f64 {
    assert!((1..=24).contains(&n), "unsupported resolution {n}");
    assert!(rl.is_finite() && rl > 0.0, "invalid load {rl}");
    assert!(
        r_unit.is_finite() && r_unit > 0.0,
        "invalid impedance {r_unit}"
    );
    let big_n = (1u64 << n) as f64;
    rl * big_n * big_n / (4.0 * r_unit)
}

/// Minimum LSB-source output impedance meeting an INL spec (inverse of
/// [`inl_from_output_impedance`]).
///
/// # Panics
///
/// Panics under the same conditions, plus non-positive `inl_spec_lsb`.
pub fn required_output_impedance(n: u32, rl: f64, inl_spec_lsb: f64) -> f64 {
    assert!(
        inl_spec_lsb.is_finite() && inl_spec_lsb > 0.0,
        "invalid INL spec {inl_spec_lsb}"
    );
    assert!((1..=24).contains(&n), "unsupported resolution {n}");
    assert!(rl.is_finite() && rl > 0.0, "invalid load {rl}");
    let big_n = (1u64 << n) as f64;
    rl * big_n * big_n / (4.0 * inl_spec_lsb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctsdac_process::Technology;

    fn simple_cell() -> (SizedCell, CellEnvironment) {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.6, 0.7, 400e-12, None);
        (cell, env)
    }

    #[test]
    fn rout_is_megohms_for_simple_cell() {
        let (cell, env) = simple_cell();
        let r = rout_at_optimum(&cell, &env).expect("feasible");
        // gm·ro·ro of a ~78 µA cell in 0.35 µm: MΩ range and above.
        assert!(r > 1e5 && r < 1e12, "rout = {r}");
    }

    #[test]
    fn cascode_multiplies_impedance() {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let simple = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 0.5, 0.6, 400e-12, None);
        let cascoded =
            SizedCell::cascoded_from_overdrives(&tech, 78.1e-6, 0.5, 0.3, 0.6, 400e-12, None, None);
        let boost = rout_at_optimum(&cascoded, &env).expect("feasible")
            / rout_at_optimum(&simple, &env).expect("feasible");
        assert!(boost > 20.0, "cascode boost only {boost}");
    }

    #[test]
    fn midpoint_gate_is_near_numeric_optimum() {
        // Validates the paper's eq. (5): the closed-form midpoint must land
        // close to the golden-section optimum impedance.
        let (cell, env) = simple_cell();
        let opt = crate::bias::OptimumBias::of(&cell, &env).expect("feasible");
        let at_midpoint = rout_simple_at_gate(&cell, &env, opt.v_gate_sw).expect("simple");
        let (_, best) = optimal_gate_numeric(&cell, &env).expect("feasible");
        assert!(
            at_midpoint > 0.5 * best,
            "midpoint rout {at_midpoint} far below optimum {best}"
        );
    }

    #[test]
    fn rout_drops_at_bound_edges() {
        // At either edge of the gate bounds one device sits on the
        // triode/saturation boundary and its r_o collapses.
        let (cell, env) = simple_cell();
        let b = crate::bias::sw_gate_bounds_simple(&cell, &env).expect("simple");
        let mid = rout_simple_at_gate(&cell, &env, b.midpoint()).expect("simple");
        let lo = rout_simple_at_gate(&cell, &env, b.lower).expect("simple");
        let hi = rout_simple_at_gate(&cell, &env, b.upper).expect("simple");
        assert!(mid > 10.0 * lo, "mid {mid} vs lower edge {lo}");
        assert!(mid > 10.0 * hi, "mid {mid} vs upper edge {hi}");
    }

    #[test]
    fn impedance_falls_with_frequency() {
        let (cell, env) = simple_cell();
        let dc = rout_at_frequency(&cell, &env, 0.0).expect("feasible");
        let mid = rout_at_frequency(&cell, &env, 1e6).expect("feasible");
        let high = rout_at_frequency(&cell, &env, 53e6).expect("feasible");
        assert!(
            dc >= mid && mid > high,
            "dc {dc}, 1 MHz {mid}, 53 MHz {high}"
        );
    }

    #[test]
    fn infeasible_cell_yields_typed_error() {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cell = SizedCell::simple_from_overdrives(&tech, 78.1e-6, 1.5, 1.0, 400e-12, None);
        assert!(matches!(
            rout_at_optimum(&cell, &env),
            Err(BiasError::Infeasible(_))
        ));
        assert!(matches!(
            optimal_gate_numeric(&cell, &env),
            Err(BiasError::Infeasible(_))
        ));
    }

    #[test]
    fn wrong_topology_yields_typed_error() {
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let cascoded =
            SizedCell::cascoded_from_overdrives(&tech, 78.1e-6, 0.4, 0.3, 0.5, 400e-12, None, None);
        assert!(matches!(
            rout_simple_at_gate(&cascoded, &env, 1.5),
            Err(BiasError::WrongTopology { .. })
        ));
    }

    #[test]
    fn inl_formula_matches_hand_computation() {
        // n = 10, RL = 25 Ω, R_unit = 10 MΩ:
        // INL = 25·1024²/(4·1e7) = 0.655 LSB.
        let inl = inl_from_output_impedance(10, 25.0, 1e7);
        assert!((inl - 0.65536).abs() < 1e-10);
    }

    #[test]
    fn required_impedance_inverts_inl() {
        let r = required_output_impedance(12, 50.0, 0.25);
        let inl = inl_from_output_impedance(12, 50.0, r);
        assert!((inl - 0.25).abs() < 1e-12);
    }

    #[test]
    fn twelve_bit_needs_cascode_at_signal_frequency() {
        // The paper's claim, made quantitative per van den Bosch [8]: at the
        // 53 MHz test frequency the internal node shunts the simple cell's
        // impedance below the 12-bit requirement; the cascode keeps a large
        // advantage.
        let tech = Technology::c035();
        let env = CellEnvironment::paper_12bit();
        let i_lsb = env.lsb_current(12);
        let needed = required_output_impedance(12, env.rl, 0.25);

        let simple = SizedCell::simple_from_overdrives(&tech, i_lsb, 0.5, 0.6, 400e-12, None);
        let z_simple_dc = rout_at_frequency(&simple, &env, 0.0).expect("feasible");
        let z_simple_hf = rout_at_frequency(&simple, &env, 53e6).expect("feasible");
        assert!(
            z_simple_hf < needed,
            "simple cell at 53 MHz unexpectedly meets 12-bit: {z_simple_hf:.3e} vs {needed:.3e}"
        );
        assert!(z_simple_hf < z_simple_dc / 10.0);

        // The cascode's win is at DC/low frequency, where it must clear the
        // 12-bit requirement with a wide margin; at 53 MHz the interconnect
        // capacitance limits both topologies alike — the SFDR-bandwidth
        // limitation of [8], and the reason the paper's measured SFDR sits
        // far below the mismatch-limited ideal.
        let cascoded =
            SizedCell::cascoded_from_overdrives(&tech, i_lsb, 0.5, 0.3, 0.6, 400e-12, None, None);
        let z_cas_dc = rout_at_frequency(&cascoded, &env, 0.0).expect("feasible");
        assert!(
            z_cas_dc > 10.0 * needed,
            "cascoded DC impedance too low: {z_cas_dc:.3e} vs {needed:.3e}"
        );
        assert!(z_cas_dc > 10.0 * z_simple_dc);
    }

    #[test]
    #[should_panic(expected = "unsupported resolution")]
    fn inl_rejects_bad_resolution() {
        let _ = inl_from_output_impedance(0, 50.0, 1e9);
    }
}
