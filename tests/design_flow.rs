//! Integration tests of the one-call design flow (the `dacsizer` backend).

use ctsdac::circuit::cell::{CellEnvironment, CellTopology};
use ctsdac::core::explore::Objective;
use ctsdac::core::flow::{run_flow, FlowOptions, TopologyChoice};
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::DacSpec;
use ctsdac::dac::architecture::SegmentedDac;
use ctsdac::dac::errors::CellErrors;
use ctsdac::dac::sine::SineTest;
use ctsdac::stats::sample::seeded_rng;

/// The default flow on the paper's spec reproduces the §3 design decisions
/// end to end: cascode chosen, feasible, corners pass, impedance met.
#[test]
fn default_flow_reproduces_paper_decisions() {
    let spec = DacSpec::paper_12bit();
    let report = run_flow(&spec, &FlowOptions::default()).expect("feasible");
    assert_eq!(report.topology, CellTopology::Cascoded);
    assert!(report.rout_dc * 16.0 > report.rout_required);
    assert!(report.all_corners_pass(), "{}", report.to_markdown());
    assert!(report.margin > 0.0 && report.margin < 0.5);
}

/// The speed-objective flow produces a design whose behavioural sine test
/// at 300 MS/s reaches 12-bit-class static SFDR with the sized mismatch.
#[test]
fn flow_design_passes_behavioural_sine_test() {
    let spec = DacSpec::paper_12bit();
    let options = FlowOptions {
        objective: Objective::MaxSpeed,
        grid: 10,
        ..FlowOptions::default()
    };
    let report = run_flow(&spec, &options).expect("feasible");
    assert!(report.meets_update_rate(400e6));

    let dac = SegmentedDac::new(&spec);
    let mut rng = seeded_rng(77);
    let errors = CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng);
    let spectrum = SineTest::new(2048, 53e6, 0.98).run_static(&dac, &errors, 300e6);
    assert!(
        spectrum.sfdr_db() > 75.0,
        "SFDR {:.1} dB",
        spectrum.sfdr_db()
    );
}

/// Resolution sweep: the auto topology flips from simple to cascoded as
/// resolution grows — the paper's qualitative rule, recovered from the
/// impedance numbers alone.
#[test]
fn auto_topology_flips_with_resolution() {
    let env = CellEnvironment::paper_12bit();
    let tech = ctsdac::process::Technology::c035();
    let low = DacSpec::new(8, 3, 0.99, env, tech);
    let high = DacSpec::new(12, 4, 0.99, env, tech);
    let opts = FlowOptions {
        grid: 8,
        ..FlowOptions::default()
    };
    let low_report = run_flow(&low, &opts).expect("feasible");
    let high_report = run_flow(&high, &opts).expect("feasible");
    assert_eq!(low_report.topology, CellTopology::Simple);
    assert_eq!(high_report.topology, CellTopology::Cascoded);
}

/// Statistical condition buys area across a resolution sweep, never loses.
#[test]
fn statistical_flow_never_larger_than_legacy() {
    let env = CellEnvironment::paper_12bit();
    let tech = ctsdac::process::Technology::c035();
    for n in [8u32, 10, 12] {
        let spec = DacSpec::new(n, 4.min(n), 0.997, env, tech);
        let stat = run_flow(
            &spec,
            &FlowOptions {
                topology: TopologyChoice::Simple,
                grid: 16,
                ..FlowOptions::default()
            },
        )
        .expect("feasible");
        let legacy = run_flow(
            &spec,
            &FlowOptions {
                topology: TopologyChoice::Simple,
                condition: SaturationCondition::legacy(),
                grid: 16,
                ..FlowOptions::default()
            },
        )
        .expect("feasible");
        assert!(
            stat.total_area <= legacy.total_area,
            "n = {n}: statistical {:.3e} > legacy {:.3e}",
            stat.total_area,
            legacy.total_area
        );
    }
}
