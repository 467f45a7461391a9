//! Quickstart: size the paper's 12-bit current-steering DAC in five steps.
//!
//! Run with `cargo run --release --example quickstart`.

use ctsdac::circuit::cell::CellTopology;
use ctsdac::core::explore::{DesignSpace, Objective};
use ctsdac::core::report::ComparisonReport;
use ctsdac::core::saturation::SaturationCondition;
use ctsdac::core::{CsSizing, DacSpec};

fn main() {
    // 1. The specification: 12 bits, 4+8 segmentation, 99.7 % INL yield,
    //    0.35 µm CMOS, 3.3 V supply, 1 V swing into 50 Ω.
    let spec = DacSpec::paper_12bit();
    println!("spec      : {spec}");
    println!(
        "I_LSB     : {:.3} uA, unary cell: {:.1} uA",
        spec.i_lsb() * 1e6,
        spec.i_unary() * 1e6
    );

    // 2. The INL-yield mismatch budget (paper eq. (1)).
    println!(
        "eq. (1)   : sigma(I)/I <= {:.4} %  (C = {:.3})",
        spec.sigma_unit_spec() * 100.0,
        spec.yield_constant()
    );

    // 3. CS sizing at a trial overdrive (paper eq. (2)).
    let cs = CsSizing::for_spec(&spec, 0.5);
    println!("eq. (2)   : {cs}");

    // 4. The statistical saturation condition (paper eq. (9)) vs the old
    //    0.5 V arbitrary margin.
    let stat_margin = SaturationCondition::Statistical.margin_simple(&spec, 0.5, 0.6);
    println!(
        "eq. (9)   : statistical margin = {:.0} mV (prior art used 500 mV)",
        stat_margin * 1e3
    );

    // 5. Optimise over the constrained design space and report the area
    //    recovered from the arbitrary margin.
    let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(24);
    let best = space
        .optimize(Objective::MinArea)
        .expect("the paper's spec has a feasible design space");
    println!("optimum   : {best}");
    let report = ComparisonReport::compute(&spec, CellTopology::Simple, 24)
        .expect("the paper's spec has a feasible design space");
    println!("{report}");
}
