//! Architecture-level segmentation trade-off (paper §1).
//!
//! "The design of current-steering DAC starts with an architectural
//! selection to find the optimum segmentation ratio that minimizes the
//! overall digital and analog area \[4,5,6] ... The glitch energy is
//! determined by the number of binary bits b, being the optimum architecture
//! in this sense a totally unary DAC. However this is unfeasible in practice
//! due to the large area and delay that the thermometer decoder would
//! exhibit."
//!
//! The model here follows the classic Lin & Bult \[5] analysis:
//!
//! * the analog (matching-driven) area is *independent* of segmentation —
//!   the INL spec fixes the per-LSB-unit area;
//! * the thermometer decoder and the latch/switch rows grow with the number
//!   of unary cells, `∝ (2^m − 1)`;
//! * the DNL requirement adds a *binary-side* area constraint,
//!   `σ ≤ 1/(2·C·√(2^{b+1}))`, which only binds at large `b`;
//! * the worst-case glitch charge scales with the largest binary weight,
//!   `∝ 2^b`.

use crate::spec::DacSpec;
use core::fmt;

/// Per-unary-cell digital overhead (decoder slice + latch + switch driver)
/// expressed as an equivalent gate area in m². Calibrated so that at the
/// paper's node the decoder of a fully unary 12-bit DAC dominates the
/// analog array, matching the "unfeasible in practice" remark.
const DIGITAL_AREA_PER_UNARY_CELL: f64 = 900e-12;

/// Fixed per-binary-bit digital overhead (dummy decoder slice, latch), m².
const DIGITAL_AREA_PER_BINARY_BIT: f64 = 250e-12;

/// Evaluation of one segmentation choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentationPoint {
    /// Number of binary bits `b`.
    pub binary_bits: u32,
    /// Analog gate area in m² (INL/DNL-driven, whichever binds).
    pub analog_area: f64,
    /// Digital area (decoder + latches) in m².
    pub digital_area: f64,
    /// Relative worst-case glitch charge (normalised to the LSB switch
    /// charge): `2^b`.
    pub glitch_rel: f64,
}

impl SegmentationPoint {
    /// Total area in m².
    pub fn total_area(&self) -> f64 {
        self.analog_area + self.digital_area
    }

    /// Combined architecture cost: digital area normalised to the fully
    /// unary decoder plus `w_glitch` times the glitch charge normalised to
    /// full scale. Area alone pushes toward fully binary (the DNL spec
    /// "is always satisfied ... for reasonable segmentation ratios"); the
    /// glitch term is what makes a mid-segmentation optimal, exactly the
    /// trade the paper describes in §1.
    ///
    /// # Panics
    ///
    /// Panics if `w_glitch` is negative or non-finite.
    pub fn normalized_cost(&self, n_bits: u32, w_glitch: f64) -> f64 {
        assert!(
            w_glitch.is_finite() && w_glitch >= 0.0,
            "invalid glitch weight {w_glitch}"
        );
        let full_unary_digital = ((1u64 << n_bits) - 1) as f64 * DIGITAL_AREA_PER_UNARY_CELL;
        // Both area terms share one normalisation so the (constant) analog
        // floor does not bias the optimum but the DNL penalty at large b
        // still registers.
        (self.digital_area + self.analog_area) / full_unary_digital
            + w_glitch * self.glitch_rel / (1u64 << n_bits) as f64
    }
}

impl fmt::Display for SegmentationPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b = {:2}: analog = {:8.1} kum2, digital = {:8.1} kum2, glitch = {:6.0}",
            self.binary_bits,
            self.analog_area * 1e12 / 1e3,
            self.digital_area * 1e12 / 1e3,
            self.glitch_rel
        )
    }
}

/// Sweeps the segmentation choice `b = 0..=n` for a converter of `spec`'s
/// resolution, evaluating the area/glitch trade-off at the given reference
/// overdrives.
///
/// # Examples
///
/// ```
/// use ctsdac_core::segmentation::segmentation_sweep;
/// use ctsdac_core::DacSpec;
///
/// let pts = segmentation_sweep(&DacSpec::paper_12bit(), 0.5, 0.6);
/// assert_eq!(pts.len(), 13);
/// // Fully unary maximises digital area; fully binary maximises glitch.
/// assert!(pts[0].digital_area > pts[12].digital_area);
/// assert!(pts[12].glitch_rel > pts[0].glitch_rel);
/// ```
pub fn segmentation_sweep(spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> Vec<SegmentationPoint> {
    (0..=spec.n_bits)
        .map(|b| evaluate_segmentation(spec, b, vov_cs, vov_sw))
        .collect()
}

/// Evaluates one segmentation choice.
///
/// # Panics
///
/// Panics if `binary_bits > spec.n_bits`.
pub fn evaluate_segmentation(
    spec: &DacSpec,
    binary_bits: u32,
    vov_cs: f64,
    vov_sw: f64,
) -> SegmentationPoint {
    assert!(
        binary_bits <= spec.n_bits,
        "binary bits {binary_bits} exceed resolution {}",
        spec.n_bits
    );
    let seg_spec = DacSpec::new(
        spec.n_bits,
        binary_bits,
        spec.inl_yield,
        spec.env,
        spec.tech,
    );

    // Analog area: the INL spec is segmentation-independent, but the DNL
    // spec (worst at the unary/binary carry, √(2^{b+1}) units toggle) can
    // bind at large b. Area scales as 1/σ².
    let sigma_inl = seg_spec.sigma_unit_spec();
    let c = seg_spec.yield_constant();
    let sigma_dnl = 1.0 / (2.0 * c * ((1u64 << (binary_bits + 1)) as f64).sqrt());
    let sigma = sigma_inl.min(sigma_dnl);
    let base = crate::sizing::total_analog_area_simple(&seg_spec, vov_cs, vov_sw);
    let analog_area = base * (sigma_inl / sigma).powi(2);

    let n_unary = seg_spec.unary_source_count() as f64;
    let digital_area =
        n_unary * DIGITAL_AREA_PER_UNARY_CELL + binary_bits as f64 * DIGITAL_AREA_PER_BINARY_BIT;

    SegmentationPoint {
        binary_bits,
        analog_area,
        digital_area,
        glitch_rel: (1u64 << binary_bits) as f64,
    }
}

/// Default weight of the glitch term in [`SegmentationPoint::normalized_cost`].
pub const DEFAULT_GLITCH_WEIGHT: f64 = 4.0;

/// The segmentation minimising the combined decoder-area/glitch cost.
pub fn optimal_segmentation(spec: &DacSpec, vov_cs: f64, vov_sw: f64) -> SegmentationPoint {
    segmentation_sweep(spec, vov_cs, vov_sw)
        .into_iter()
        .min_by(|a, b| {
            a.normalized_cost(spec.n_bits, DEFAULT_GLITCH_WEIGHT)
                .total_cmp(&b.normalized_cost(spec.n_bits, DEFAULT_GLITCH_WEIGHT))
        })
        // The sweep covers b = 0..=n and is never empty; the fully unary
        // architecture is the defensive fallback.
        .unwrap_or_else(|| evaluate_segmentation(spec, 0, vov_cs, vov_sw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_has_interior_area_optimum() {
        // Fully unary pays a huge decoder; fully binary pays DNL-driven
        // analog area. The optimum sits strictly inside.
        let spec = DacSpec::paper_12bit();
        let best = optimal_segmentation(&spec, 0.5, 0.6);
        assert!(
            best.binary_bits > 0 && best.binary_bits < 12,
            "optimum at b = {}",
            best.binary_bits
        );
    }

    #[test]
    fn paper_segmentation_is_near_optimal() {
        // The paper picked b = 4; our calibrated model must agree within a
        // couple of bits.
        let spec = DacSpec::paper_12bit();
        let best = optimal_segmentation(&spec, 0.5, 0.6);
        assert!(
            (best.binary_bits as i64 - 4).abs() <= 3,
            "optimum at b = {}",
            best.binary_bits
        );
    }

    #[test]
    fn inl_area_is_segmentation_independent_at_small_b() {
        let spec = DacSpec::paper_12bit();
        let a0 = evaluate_segmentation(&spec, 0, 0.5, 0.6).analog_area;
        let a4 = evaluate_segmentation(&spec, 4, 0.5, 0.6).analog_area;
        assert!(
            ((a0 - a4) / a0).abs() < 1e-9,
            "analog area changed: {a0} vs {a4}"
        );
    }

    #[test]
    fn dnl_binds_only_at_large_b() {
        let spec = DacSpec::paper_12bit();
        let mid = evaluate_segmentation(&spec, 6, 0.5, 0.6);
        let full_binary = evaluate_segmentation(&spec, 12, 0.5, 0.6);
        assert!(full_binary.analog_area > mid.analog_area);
    }

    #[test]
    fn glitch_doubles_per_binary_bit() {
        let spec = DacSpec::paper_12bit();
        let p3 = evaluate_segmentation(&spec, 3, 0.5, 0.6);
        let p4 = evaluate_segmentation(&spec, 4, 0.5, 0.6);
        assert_eq!(p4.glitch_rel / p3.glitch_rel, 2.0);
    }

    #[test]
    fn decoder_area_halves_per_binary_bit_at_small_b() {
        let spec = DacSpec::paper_12bit();
        let p0 = evaluate_segmentation(&spec, 0, 0.5, 0.6);
        let p1 = evaluate_segmentation(&spec, 1, 0.5, 0.6);
        let ratio = p0.digital_area / p1.digital_area;
        assert!((ratio - 2.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "exceed resolution")]
    fn oversized_b_rejected() {
        let spec = DacSpec::paper_12bit();
        let _ = evaluate_segmentation(&spec, 13, 0.5, 0.6);
    }
}
