//! Statistics substrate for the `ctsdac` workspace.
//!
//! The DATE 2003 sizing methodology is built on top of a small set of
//! statistical primitives that MATLAB provides out of the box and Rust does
//! not: the Gaussian error function, the normal cumulative distribution
//! function `Φ` and — crucially — its inverse `Φ⁻¹` (`inv_norm` in the
//! paper's notation, used in eq. (1) for the INL-yield constant `C` and in
//! eq. (9)/(11) for the statistical saturation margin `S`). This crate
//! implements those numerics from scratch, plus the Monte-Carlo machinery
//! used to validate the analytic yield expressions.
//!
//! # Modules
//!
//! * [`erf`] — error function / complementary error function to near machine
//!   precision (power series + Lentz continued fraction).
//! * [`normal`] — the [`Normal`] distribution: pdf, cdf, quantile, sampling.
//! * [`rng`] — the in-tree deterministic PRNG (xoshiro256++ seeded via
//!   SplitMix64) and the [`rng::Rng`] trait the whole workspace samples
//!   over; no external registry dependency.
//! * [`sample`] — standard-normal sampling over any [`rng::Rng`] plus
//!   deterministic seeded RNG construction.
//! * [`mc`] — Monte-Carlo harness and [`mc::YieldEstimate`] with Wilson
//!   confidence intervals.
//! * [`summary`] — streaming descriptive statistics ([`summary::Summary`]),
//!   percentiles and histograms.
//!
//! # Example
//!
//! Computing the paper's eq. (1) constant `C = inv_norm(0.5 + yield/2)` for a
//! 99.7 % INL yield:
//!
//! ```
//! # fn main() -> Result<(), ctsdac_stats::InvalidProbabilityError> {
//! use ctsdac_stats::normal;
//!
//! let yield_target = 0.997;
//! let c = normal::inv_phi(0.5 + yield_target / 2.0)?;
//! assert!((c - 2.9677).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```

pub mod ci;
pub mod erf;
pub mod mc;
pub mod normal;
pub mod rng;
pub mod sample;
pub mod summary;

pub use erf::{erf, erfc};
pub use mc::{SequentialYield, StatsError, YieldDecision, YieldEstimate, YieldTest};
pub use normal::{inv_phi, phi, InvalidProbabilityError, Normal};
pub use rng::{seeded_rng, stream_rng, Rng, SliceRandom, Xoshiro256PlusPlus};
pub use sample::NormalSampler;
pub use summary::Summary;
