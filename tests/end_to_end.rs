//! End-to-end integration: specification → sizing → circuit verification →
//! behavioural simulation, reproducing the paper's headline numbers.

use ctsdac::circuit::impedance::{required_output_impedance, rout_at_optimum};
use ctsdac::circuit::poles::PoleModel;
use ctsdac::circuit::settling::settling_time_two_pole;
use ctsdac::core::cascode::CascodeSpace;
use ctsdac::core::explore::{DesignSpace, Objective};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::sizing::build_cascoded_cell;
use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::errors::CellErrors;
use ctsdac::dac::sine::SineTest;
use ctsdac::dac::transient::{TransientConfig, TransientSim};
use ctsdac::dac::yield_engine::{YieldEngine, YieldLimits};
use ctsdac::stats::sample::seeded_rng;

/// The paper's full design flow hits its dynamic targets: a statistically
/// sized cascoded cell settles a full-scale step in roughly 2.5 ns,
/// supporting 400 MS/s operation.
#[test]
fn paper_design_settles_for_400msps() {
    let spec = DacSpec::paper_12bit();
    let point = CascodeSpace::new(&spec, SaturationCondition::Statistical)
        .with_grid(10)
        .max_speed_point()
        .expect("feasible cascoded space");
    let cell = build_cascoded_cell(&spec, point.vov_cs, point.vov_cas, point.vov_sw, 16);
    let poles = PoleModel::new(spec.cells_at_output())
        .poles(&cell, &spec.env)
        .expect("feasible");
    let t_settle = settling_time_two_pole(&poles, spec.n_bits);
    assert!(
        t_settle < 2.5e-9,
        "analytic settling {:.2} ns exceeds the paper's 2.5 ns",
        t_settle * 1e9
    );

    // Behavioural cross-check with the transient simulator.
    let dac = SegmentedDac::new(&spec);
    let errors = CellErrors::ideal(&dac);
    let config = TransientConfig::from_poles(400e6, &poles).with_oversample(32);
    let sim = TransientSim::new(&dac, &errors, config);
    let mut rng = seeded_rng(1);
    let (_, t_measured) = sim.full_scale_settling(&mut rng);
    assert!(
        (t_measured - t_settle).abs() < 0.3e-9,
        "behavioural settling {:.2} ns vs analytic {:.2} ns",
        t_measured * 1e9,
        t_settle * 1e9
    );
}

/// The sized design meets the 12-bit DC output-impedance requirement.
#[test]
fn paper_design_meets_impedance_requirement() {
    let spec = DacSpec::paper_12bit();
    let point = CascodeSpace::new(&spec, SaturationCondition::Statistical)
        .with_grid(10)
        .max_speed_point()
        .expect("feasible");
    let cell = build_cascoded_cell(&spec, point.vov_cs, point.vov_cas, point.vov_sw, 16);
    let r_unary = rout_at_optimum(&cell, &spec.env).expect("feasible");
    // Per-LSB impedance of a 16-weighted source is 16× its own.
    let r_lsb_equivalent = r_unary * 16.0;
    let needed = required_output_impedance(spec.n_bits, spec.env.rl, 0.25);
    assert!(
        r_lsb_equivalent > needed,
        "impedance {r_lsb_equivalent:.3e} below requirement {needed:.3e}"
    );
}

/// Sizing at the eq. (1) budget delivers the target INL yield in Monte
/// Carlo (the bound is conservative, so MC yield ≥ target).
#[test]
fn sized_mismatch_budget_delivers_inl_yield() {
    let base = DacSpec::paper_12bit();
    let spec = DacSpec::new(10, 4, 0.997, base.env, base.tech);
    let dac = SegmentedDac::new(&spec);
    let mut rng = seeded_rng(2024);
    let y = YieldEngine::new(&dac, spec.sigma_unit_spec(), YieldLimits::half_lsb())
        .and_then(|mut engine| engine.run_lanes::<8, _>(500, &mut rng))
        .expect("valid MC setup")
        .inl;
    assert!(
        y.estimate() >= 0.99,
        "MC yield {} below the 99.7 % target band",
        y.estimate()
    );
}

/// A mismatch realisation at the sizing budget keeps the 53 MHz static
/// SFDR in the >75 dB band expected of a 12-bit converter.
#[test]
fn static_sfdr_matches_twelve_bit_expectations() {
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let test = SineTest::new(2048, 53e6, 0.98);
    let mut rng = seeded_rng(7);
    let errors = CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng);
    let spectrum = test.run_static(&dac, &errors, 300e6);
    assert!(
        spectrum.sfdr_db() > 75.0,
        "static SFDR {:.1} dB below the 12-bit band",
        spectrum.sfdr_db()
    );
    assert!(spectrum.enob() > 11.0, "ENOB {:.2}", spectrum.enob());
}

/// The statistical condition strictly enlarges the admissible design space
/// relative to the 0.5 V margin, for both topologies, and the recovered
/// space translates into real area savings.
#[test]
fn statistical_condition_recovers_design_space_and_area() {
    let spec = DacSpec::paper_12bit();
    // Simple topology: constraint curves are ordered.
    let stat = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(16);
    let legacy = DesignSpace::new(&spec, SaturationCondition::legacy()).with_grid(16);
    let a_stat = stat
        .optimize(Objective::MinArea)
        .expect("feasible")
        .total_area;
    let a_legacy = legacy
        .optimize(Objective::MinArea)
        .expect("feasible")
        .total_area;
    assert!(a_stat < a_legacy);

    // Cascoded topology: admissible volume grows.
    let v_stat = CascodeSpace::new(&spec, SaturationCondition::Statistical)
        .with_grid(10)
        .admissible_volume();
    let v_legacy = CascodeSpace::new(&spec, SaturationCondition::legacy())
        .with_grid(10)
        .admissible_volume();
    assert!(v_stat > v_legacy);
}

/// Dynamic non-idealities must only degrade the continuous-waveform SFDR,
/// never improve it, and the degradation grows with skew.
#[test]
fn dynamic_effects_degrade_sfdr_monotonically() {
    let spec = DacSpec::paper_12bit();
    let dac = SegmentedDac::new(&spec);
    let poles = ctsdac::circuit::poles::TwoPoles {
        p1_hz: 968e6,
        p2_hz: 921e6,
    };
    let test = SineTest::new(1024, 53e6, 0.98);
    let errors = CellErrors::ideal(&dac);
    let mut sfdr_prev = f64::INFINITY;
    for skew_ps in [0.0, 50.0, 200.0] {
        let config = TransientConfig::from_poles(300e6, &poles)
            .with_binary_skew(skew_ps * 1e-12)
            .with_feedthrough(0.02);
        let mut rng = seeded_rng(5);
        let spectrum = test.run_dense(&dac, &errors, config, &mut rng);
        let sfdr = spectrum.sfdr_in_band_db(150e6);
        assert!(
            sfdr <= sfdr_prev + 1.0,
            "SFDR rose with skew: {sfdr} dB after {sfdr_prev} dB at {skew_ps} ps"
        );
        sfdr_prev = sfdr;
    }
}
