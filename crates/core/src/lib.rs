//! The DATE 2003 sizing methodology for high-speed high-accuracy
//! current-steering D/A converters (Albiol, González, Alarcón).
//!
//! This crate is the paper's primary contribution: a sizing flow for the
//! current-source cell that
//!
//! 1. derives the mismatch budget of the unit current source from the
//!    INL < 0.5 LSB / parametric-yield specification (eq. (1)) and turns it
//!    into a CS transistor geometry (eq. (2)) — module [`spec`] and
//!    [`sizing`];
//! 2. replaces the *arbitrary safety margin* of the prior art's saturation
//!    condition (eq. (4) minus 0.5 V) with a *statistical* condition
//!    (eq. (9) for the CS–SW cell, eq. (11) for the cascoded cell), built
//!    from the propagated variances of the gate-voltage bounds
//!    (eq. (6)/(7)/(12)) — modules [`bounds`] and [`saturation`];
//! 3. explores the whole constrained overdrive design space to pick the
//!    minimum-area or maximum-speed design point (the paper's Fig. 3 and
//!    Fig. 4) — modules [`explore`] and [`cascode`];
//! 4. reports the area recovered with respect to the 0.5 V-margin flow —
//!    module [`report`] — and the segmentation trade-off of §1 — module
//!    [`segmentation`].
//!
//! # Example
//!
//! Sizing the paper's 12-bit converter and comparing the margins:
//!
//! ```
//! use ctsdac_core::explore::{DesignSpace, Objective};
//! use ctsdac_core::saturation::SaturationCondition;
//! use ctsdac_core::spec::DacSpec;
//!
//! let spec = DacSpec::paper_12bit();
//! let space = DesignSpace::new(&spec, SaturationCondition::Statistical).with_grid(40);
//! let best = space.optimize(Objective::MinArea).expect("feasible design exists");
//! assert!(best.feasible);
//! ```

pub mod bounds;
pub mod cascode;
pub mod corners;
pub mod explore;
pub mod flow;
pub mod report;
pub mod saturation;
pub mod segmentation;
pub mod sensitivity;
pub mod sizing;
pub mod spec;
pub mod validate;

pub use bounds::{BoundSigmas, CascodeBoundSigmas};
pub use explore::{DesignGrid, DesignPoint, DesignSpace, Objective, SweepMode, SweepStats};
pub use flow::{run_flow, DesignReport, FlowOptions, TopologyChoice};
pub use report::ComparisonReport;
pub use saturation::SaturationCondition;
pub use sizing::CsSizing;
pub use spec::DacSpec;
