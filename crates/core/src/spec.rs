//! Converter specification and the INL-yield mismatch budget (paper eq. (1)).
//!
//! The static accuracy of a current-steering DAC is dominated by the random
//! mismatch of its unit current sources. Van den Bosch et al. \[10] showed
//! that the INL < 0.5 LSB specification holds with parametric yield `Y` iff
//!
//! ```text
//! σ(I)/I ≤ 1 / (2·C·√(2ⁿ)),    C = inv_norm(0.5 + Y/2)
//! ```
//!
//! which is the entry point of the whole sizing flow: it fixes the relative
//! accuracy required of the unit (LSB) source and thereby (with eq. (2))
//! the CS gate area.

use core::fmt;
use ctsdac_circuit::cell::CellEnvironment;
use ctsdac_process::Technology;
use ctsdac_stats::normal::inv_phi;

/// Full specification of a segmented current-steering DAC design.
///
/// # Examples
///
/// ```
/// use ctsdac_core::DacSpec;
///
/// let spec = DacSpec::paper_12bit();
/// assert_eq!(spec.n_bits, 12);
/// assert_eq!(spec.unary_bits(), 8);
/// // eq. (1) for 12 bits at 99.7 % yield: σ(I)/I ≈ 0.263 %.
/// assert!((spec.sigma_unit_spec() - 2.632e-3).abs() < 1e-5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacSpec {
    /// Total resolution in bits (`n`).
    pub n_bits: u32,
    /// Number of binary-weighted LSBs (`b`); the remaining `m = n − b` bits
    /// drive the thermometer-decoded unary array.
    pub binary_bits: u32,
    /// Target parametric yield for INL < 0.5 LSB, in `(0, 1)`.
    pub inl_yield: f64,
    /// Electrical environment (supply, swing, load).
    pub env: CellEnvironment,
    /// Target technology.
    pub tech: Technology,
}

impl DacSpec {
    /// The paper's §3 design: 12 bits segmented 4 + 8, 99.7 % INL yield,
    /// 0.35 µm CMOS, `V_DD` = 3.3 V, `V_o` = 1 V, `R_L` = 50 Ω.
    pub fn paper_12bit() -> Self {
        Self {
            n_bits: 12,
            binary_bits: 4,
            inl_yield: 0.997,
            env: CellEnvironment::paper_12bit(),
            tech: Technology::c035(),
        }
    }

    /// Creates a spec, validating the arguments.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits` is outside `1..=24`, `binary_bits > n_bits`, or
    /// `inl_yield` is not strictly inside `(0, 1)`.
    pub fn new(
        n_bits: u32,
        binary_bits: u32,
        inl_yield: f64,
        env: CellEnvironment,
        tech: Technology,
    ) -> Self {
        assert!(
            (1..=24).contains(&n_bits),
            "unsupported resolution {n_bits}"
        );
        assert!(
            binary_bits <= n_bits,
            "binary bits {binary_bits} exceed resolution {n_bits}"
        );
        assert!(
            inl_yield > 0.0 && inl_yield < 1.0,
            "yield {inl_yield} must be in (0, 1)"
        );
        Self {
            n_bits,
            binary_bits,
            inl_yield,
            env,
            tech,
        }
    }

    /// Number of thermometer-decoded bits `m = n − b`.
    pub fn unary_bits(&self) -> u32 {
        self.n_bits - self.binary_bits
    }

    /// Number of unary current sources, `2^m − 1`.
    pub fn unary_source_count(&self) -> usize {
        (1usize << self.unary_bits()) - 1
    }

    /// Weight of one unary source in LSBs, `2^b`.
    pub fn unary_weight(&self) -> u64 {
        1u64 << self.binary_bits
    }

    /// Total number of LSB units in the converter, `2ⁿ − ...` — more
    /// precisely `2ⁿ − 1` LSB equivalents are switchable; for variance
    /// bookkeeping the full-scale count `2ⁿ` is used.
    pub fn lsb_unit_count(&self) -> u64 {
        1u64 << self.n_bits
    }

    /// Number of cells with switch drains on each output line: the unary
    /// sources plus one switch per binary bit.
    pub fn cells_at_output(&self) -> usize {
        self.unary_source_count() + self.binary_bits as usize
    }

    /// LSB unit current in A.
    pub fn i_lsb(&self) -> f64 {
        self.env.lsb_current(self.n_bits)
    }

    /// Unary cell current in A, `2^b · I_LSB`.
    pub fn i_unary(&self) -> f64 {
        self.i_lsb() * self.unary_weight() as f64
    }

    /// The yield constant `C = inv_norm(0.5 + Y/2)` of eq. (1). A yield
    /// that escaped construction-time validation maps to an infinite
    /// constant, which drives the mismatch budget to zero (conservative).
    pub fn yield_constant(&self) -> f64 {
        inv_phi(0.5 + self.inl_yield / 2.0).unwrap_or(f64::INFINITY)
    }

    /// The unit-source relative mismatch budget of eq. (1):
    /// `σ(I)/I ≤ 1/(2·C·√(2ⁿ))`.
    pub fn sigma_unit_spec(&self) -> f64 {
        1.0 / (2.0 * self.yield_constant() * (self.lsb_unit_count() as f64).sqrt())
    }
}

impl Default for DacSpec {
    fn default() -> Self {
        Self::paper_12bit()
    }
}

impl fmt::Display for DacSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bit DAC ({}+{} segmentation), INL yield {:.1}%, sigma(I)/I <= {:.4}%",
            self.n_bits,
            self.binary_bits,
            self.unary_bits(),
            self.inl_yield * 100.0,
            self.sigma_unit_spec() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_constants() {
        let s = DacSpec::paper_12bit();
        assert_eq!(s.unary_bits(), 8);
        assert_eq!(s.unary_source_count(), 255);
        assert_eq!(s.unary_weight(), 16);
        assert_eq!(s.cells_at_output(), 259);
        // I_LSB = 20 mA / 4096.
        assert!((s.i_lsb() - 4.8828e-6).abs() < 1e-9);
        assert!((s.i_unary() - 78.125e-6).abs() < 1e-8);
    }

    #[test]
    fn yield_constant_matches_inv_norm() {
        let s = DacSpec::paper_12bit();
        // inv_norm(0.9985) = 2.9677
        assert!((s.yield_constant() - 2.9677).abs() < 1e-3);
    }

    #[test]
    fn sigma_spec_tightens_with_resolution() {
        let base = DacSpec::paper_12bit();
        let s10 = DacSpec::new(10, 4, 0.997, base.env, base.tech);
        let s14 = DacSpec::new(14, 4, 0.997, base.env, base.tech);
        // Each added bit costs a factor √2 in matching.
        assert!((s10.sigma_unit_spec() / s14.sigma_unit_spec() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sigma_spec_tightens_with_yield() {
        let base = DacSpec::paper_12bit();
        let relaxed = DacSpec::new(12, 4, 0.90, base.env, base.tech);
        let strict = DacSpec::new(12, 4, 0.9999, base.env, base.tech);
        assert!(relaxed.sigma_unit_spec() > strict.sigma_unit_spec());
    }

    #[test]
    fn fully_unary_and_fully_binary_extremes() {
        let base = DacSpec::paper_12bit();
        let unary = DacSpec::new(8, 0, 0.997, base.env, base.tech);
        assert_eq!(unary.unary_source_count(), 255);
        assert_eq!(unary.unary_weight(), 1);
        let binary = DacSpec::new(8, 8, 0.997, base.env, base.tech);
        assert_eq!(binary.unary_source_count(), 0);
    }

    #[test]
    #[should_panic(expected = "exceed resolution")]
    fn binary_bits_cannot_exceed_n() {
        let base = DacSpec::paper_12bit();
        let _ = DacSpec::new(8, 9, 0.997, base.env, base.tech);
    }

    #[test]
    #[should_panic(expected = "must be in (0, 1)")]
    fn yield_one_rejected() {
        let base = DacSpec::paper_12bit();
        let _ = DacSpec::new(12, 4, 1.0, base.env, base.tech);
    }

    #[test]
    fn display_summarises_spec() {
        let s = DacSpec::paper_12bit().to_string();
        assert!(s.contains("12-bit") && s.contains("4+8"), "{s}");
    }
}
