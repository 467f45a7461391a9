//! Window functions for non-coherent spectral analysis.
//!
//! The paper's Fig. 8 uses coherent sampling (integer number of periods in
//! the record), where the rectangular window is exact. The other windows
//! are provided for the general case — e.g. sweeping input frequencies that
//! do not land on a bin.

use core::f64::consts::PI;
use core::fmt;

/// Spectral analysis window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Window {
    /// No tapering; exact for coherent sampling.
    #[default]
    Rectangular,
    /// Hann (raised cosine): −31 dB first sidelobe.
    Hann,
    /// Hamming: −43 dB first sidelobe.
    Hamming,
    /// Blackman: −58 dB first sidelobe.
    Blackman,
    /// 4-term Blackman–Harris: −92 dB sidelobes, the standard choice for
    /// data-converter spectra.
    BlackmanHarris,
}

impl Window {
    /// Window coefficient at sample `i` of an `n`-point record.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n` or `n == 0`.
    pub fn coefficient(&self, i: usize, n: usize) -> f64 {
        assert!(n > 0, "empty window");
        assert!(i < n, "index {i} out of {n}-point window");
        if n == 1 {
            return 1.0;
        }
        let x = 2.0 * PI * i as f64 / (n - 1) as f64;
        match self {
            Window::Rectangular => 1.0,
            Window::Hann => 0.5 * (1.0 - x.cos()),
            Window::Hamming => 0.54 - 0.46 * x.cos(),
            Window::Blackman => 0.42 - 0.5 * x.cos() + 0.08 * (2.0 * x).cos(),
            Window::BlackmanHarris => {
                0.35875 - 0.48829 * x.cos() + 0.14128 * (2.0 * x).cos() - 0.01168 * (3.0 * x).cos()
            }
        }
    }

    /// Applies the window in place.
    pub fn apply(&self, samples: &mut [f64]) {
        let n = samples.len();
        if n == 0 {
            return;
        }
        for (i, s) in samples.iter_mut().enumerate() {
            *s *= self.coefficient(i, n);
        }
    }

    /// Coherent gain: the mean window coefficient (amplitude scaling of a
    /// tone after windowing).
    pub fn coherent_gain(&self, n: usize) -> f64 {
        assert!(n > 0, "empty window");
        (0..n).map(|i| self.coefficient(i, n)).sum::<f64>() / n as f64
    }

    /// All window variants, for sweeps and tests.
    pub const ALL: [Window; 5] = [
        Window::Rectangular,
        Window::Hann,
        Window::Hamming,
        Window::Blackman,
        Window::BlackmanHarris,
    ];
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Window::Rectangular => "rectangular",
            Window::Hann => "hann",
            Window::Hamming => "hamming",
            Window::Blackman => "blackman",
            Window::BlackmanHarris => "blackman-harris",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rectangular_is_all_ones() {
        let w = Window::Rectangular;
        assert!((0..16).all(|i| w.coefficient(i, 16) == 1.0));
        assert_eq!(w.coherent_gain(16), 1.0);
    }

    #[test]
    fn tapered_windows_vanish_at_edges_and_peak_in_middle() {
        for w in [Window::Hann, Window::Blackman, Window::BlackmanHarris] {
            let n = 65;
            let edge = w.coefficient(0, n);
            let mid = w.coefficient(n / 2, n);
            assert!(edge < 0.01, "{w} edge = {edge}");
            assert!(mid > 0.9, "{w} mid = {mid}");
        }
    }

    #[test]
    fn windows_are_symmetric() {
        for w in Window::ALL {
            let n = 33;
            for i in 0..n {
                let a = w.coefficient(i, n);
                let b = w.coefficient(n - 1 - i, n);
                assert!((a - b).abs() < 1e-12, "{w} asymmetric at {i}");
            }
        }
    }

    #[test]
    fn coherent_gains_match_known_values() {
        // Asymptotic coherent gains: Hann 0.5, Hamming 0.54, Blackman 0.42.
        let n = 4096;
        assert!((Window::Hann.coherent_gain(n) - 0.5).abs() < 1e-3);
        assert!((Window::Hamming.coherent_gain(n) - 0.54).abs() < 1e-3);
        assert!((Window::Blackman.coherent_gain(n) - 0.42).abs() < 1e-3);
    }

    #[test]
    fn apply_matches_coefficients() {
        let mut x = vec![1.0; 32];
        Window::Hann.apply(&mut x);
        for (i, &v) in x.iter().enumerate() {
            assert_eq!(v, Window::Hann.coefficient(i, 32));
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_index_panics() {
        let _ = Window::Hann.coefficient(16, 16);
    }
}
