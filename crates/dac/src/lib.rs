//! Behavioural simulator for segmented current-steering DACs.
//!
//! The paper validates its sized 12-bit design with transistor-level
//! transient simulation (Fig. 6 settling, Fig. 8 spectrum). That simulator
//! is not available here, so this crate provides the behavioural equivalent
//! built on the *same physics the sizing uses*: per-cell currents with
//! injected random mismatch (σ from the sizing) and systematic errors (from
//! the layout position), the two-pole settling dynamics of eq. (13),
//! binary/thermometer timing skew, switch feedthrough glitches and clock
//! jitter.
//!
//! # Modules
//!
//! * [`architecture`] — the [`SegmentedDac`]: cell weights, thermometer
//!   decoding, unary switching order.
//! * [`errors`] — per-cell current-error vectors: random mismatch draws and
//!   systematic components.
//! * [`static_metrics`] — transfer function, INL (endpoint and best-fit),
//!   DNL, and Monte-Carlo INL yield (validates the paper's eq. (1)).
//! * [`yield_engine`] — Monte-Carlo yield engine: one mismatch draw per
//!   trial decides INL, DNL and monotonicity together through the
//!   screened lane classifier (bit-identical to the scalar reference
//!   chain), sequentially or under the supervised pooled driver.
//! * [`transient`] — sample-accurate output waveform with two-pole
//!   settling, skew and feedthrough; full-scale settling measurement
//!   (Fig. 6).
//! * [`sine`] — coherent sine test and spectrum extraction (Fig. 8).
//! * [`glitch`] — glitch energy at code transitions.
//! * [`jitter`] — clock-jitter induced SNR degradation (the authors' SCAS
//!   2001 companion analysis, ref. \[6]).
//!
//! # Example
//!
//! ```
//! use ctsdac_core::DacSpec;
//! use ctsdac_dac::architecture::SegmentedDac;
//! use ctsdac_dac::errors::CellErrors;
//! use ctsdac_dac::static_metrics::TransferFunction;
//! use ctsdac_stats::sample::seeded_rng;
//!
//! let spec = DacSpec::paper_12bit();
//! let dac = SegmentedDac::new(&spec);
//! let mut rng = seeded_rng(1);
//! let errors = CellErrors::random(&dac, spec.sigma_unit_spec(), &mut rng);
//! let tf = TransferFunction::compute(&dac, &errors);
//! // A spec-compliant mismatch draw usually keeps INL below 0.5 LSB.
//! assert!(tf.inl_max_abs() < 2.0);
//! ```

pub mod architecture;
pub mod calibration;
pub mod decoder;
pub mod errors;
pub mod glitch;
pub mod jitter;
pub mod latch;
pub mod measurement;
pub mod sine;
pub mod static_metrics;
pub mod transient;
pub mod yield_engine;

pub use architecture::SegmentedDac;
pub use errors::CellErrors;
pub use sine::SineTest;
pub use static_metrics::TransferFunction;
pub use transient::{TransientConfig, TransientSim};
pub use yield_engine::{
    FusedMetrics, FusedYieldError, FusedYields, YieldEngine, YieldLimits, YieldMode, YieldScratch,
};
