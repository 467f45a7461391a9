//! Spectral metrics for data-converter characterisation.
//!
//! Computes the single-sided power spectrum of a real record and extracts
//! the metrics the converter literature reports: SFDR (the paper's Fig. 8
//! headline number), THD, SNR, SINAD and ENOB.

use crate::complex::Complex;
use crate::fft::fft_real_into;
use crate::window::Window;
use core::fmt;

/// Reusable scratch buffers for repeated spectral analyses.
///
/// A one-shot [`Spectrum::analyze_windowed`] allocates a windowed copy of
/// the record and an FFT output buffer per call; loops that analyze many
/// segments of the same length ([`welch`], Monte-Carlo sweeps) instead keep
/// one of these alive and call
/// [`Spectrum::analyze_windowed_scratch`], reusing both allocations across
/// iterations.
#[derive(Debug, Default, Clone)]
pub struct SpectrumScratch {
    /// Windowed copy of the input record.
    windowed: Vec<f64>,
    /// Full complex spectrum from the real-input FFT.
    spec: Vec<Complex>,
}

impl SpectrumScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Windows `samples` and writes its single-sided power spectrum (length
/// `n/2 + 1`, floored at 1e-300) into `power`, reusing `scratch`'s
/// buffers. The shared kernel behind [`Spectrum::analyze_windowed_scratch`]
/// and the [`welch`] segment loop.
fn windowed_power_into(
    samples: &[f64],
    window: Window,
    scratch: &mut SpectrumScratch,
    power: &mut Vec<f64>,
) {
    assert!(
        samples.len().is_power_of_two() && samples.len() >= 8,
        "record length {} must be a power of two >= 8",
        samples.len()
    );
    let n = samples.len();
    scratch.windowed.clear();
    scratch.windowed.extend_from_slice(samples);
    window.apply(&mut scratch.windowed);
    let gain = window.coherent_gain(n);
    fft_real_into(&scratch.windowed, &mut scratch.spec);
    // Single-sided power, normalised so a full-scale sine of amplitude A
    // shows A²/2 at its bin (windows compensated by coherent gain), with a
    // numerical floor to avoid log(0).
    let half = n / 2;
    let norm = 1.0 / (n as f64 * gain).powi(2);
    power.clear();
    power.extend((0..=half).map(|k| {
        let p = scratch.spec[k].norm_sqr() * norm;
        let p = if k == 0 || k == half { p } else { 2.0 * p };
        p.max(1e-300)
    }));
}

/// Picks the coherent test frequency closest to `f_target`: an odd number
/// of cycles `k` in the `n`-point record (odd keeps harmonics off the
/// fundamental's image bins). Returns `(bin, f_actual)`.
///
/// # Panics
///
/// Panics if `fs` or `f_target` is not positive, `f_target ≥ fs/2`, or
/// `n < 4`.
///
/// # Examples
///
/// ```
/// use ctsdac_dsp::coherent_frequency;
///
/// let (bin, f0) = coherent_frequency(300e6, 53e6, 1024);
/// assert_eq!(bin % 2, 1); // odd number of cycles
/// assert!((f0 - 53e6).abs() < 300e6 / 1024.0);
/// ```
pub fn coherent_frequency(fs: f64, f_target: f64, n: usize) -> (usize, f64) {
    assert!(fs > 0.0 && f_target > 0.0, "invalid frequencies");
    assert!(f_target < fs / 2.0, "target above Nyquist");
    assert!(n >= 4, "record too short");
    let ideal = f_target * n as f64 / fs;
    let mut k = ideal.round() as usize;
    if k.is_multiple_of(2) {
        // Move to the nearer odd neighbour.
        k = if ideal >= k as f64 {
            k + 1
        } else {
            k.saturating_sub(1)
        };
    }
    let k = k.clamp(1, n / 2 - 1);
    (k, k as f64 * fs / n as f64)
}

/// Single-sided power spectrum of a real record with converter metrics.
///
/// # Examples
///
/// ```
/// use ctsdac_dsp::Spectrum;
///
/// let n = 512;
/// let samples: Vec<f64> = (0..n)
///     .map(|i| (2.0 * std::f64::consts::PI * 31.0 * i as f64 / n as f64).sin())
///     .collect();
/// let spec = Spectrum::analyze(&samples, 1.0);
/// assert_eq!(spec.fundamental_bin(), 31);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrum {
    /// Single-sided power per bin (bin 0 = DC, bin `len-1` = Nyquist).
    power: Vec<f64>,
    /// Sample rate in Hz.
    fs: f64,
    /// Bin index of the fundamental (largest non-DC bin).
    fundamental: usize,
}

impl Spectrum {
    /// Analyzes a real record with a rectangular window (coherent
    /// sampling assumed, as in the paper's Fig. 8).
    ///
    /// # Panics
    ///
    /// Panics if the record length is not a power of two ≥ 8, or `fs` is
    /// not positive.
    pub fn analyze(samples: &[f64], fs: f64) -> Self {
        Self::analyze_windowed(samples, fs, Window::Rectangular)
    }

    /// Analyzes with an explicit window.
    ///
    /// # Panics
    ///
    /// As [`Spectrum::analyze`].
    pub fn analyze_windowed(samples: &[f64], fs: f64, window: Window) -> Self {
        Self::analyze_windowed_scratch(samples, fs, window, &mut SpectrumScratch::new())
    }

    /// As [`Spectrum::analyze_windowed`], but reuses caller-owned scratch
    /// buffers — the variant for loops that analyze many records of the
    /// same length, where the per-call window copy and FFT buffer would
    /// otherwise be reallocated every iteration.
    ///
    /// # Panics
    ///
    /// As [`Spectrum::analyze`].
    pub fn analyze_windowed_scratch(
        samples: &[f64],
        fs: f64,
        window: Window,
        scratch: &mut SpectrumScratch,
    ) -> Self {
        assert!(fs > 0.0, "invalid sample rate {fs}");
        let mut power = Vec::new();
        windowed_power_into(samples, window, scratch, &mut power);
        let half = power.len() - 1;
        let fundamental = power
            .iter()
            .enumerate()
            .skip(1)
            .take(half - 1)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite powers"))
            .map(|(k, _)| k)
            .expect("spectrum has at least one AC bin");
        Self {
            power,
            fs,
            fundamental,
        }
    }

    /// Per-bin single-sided power.
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Sample rate in Hz.
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Bin index of the fundamental.
    pub fn fundamental_bin(&self) -> usize {
        self.fundamental
    }

    /// Frequency of bin `k` in Hz.
    pub fn bin_frequency(&self, k: usize) -> f64 {
        k as f64 * self.fs / ((self.power.len() - 1) * 2) as f64
    }

    /// Fundamental power (linear).
    pub fn fundamental_power(&self) -> f64 {
        self.power[self.fundamental]
    }

    /// Spurious-free dynamic range in dB: fundamental over the largest
    /// other AC bin.
    pub fn sfdr_db(&self) -> f64 {
        let spur = self
            .power
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(k, _)| k != self.fundamental)
            .map(|(_, &p)| p)
            .fold(0.0f64, f64::max);
        10.0 * (self.fundamental_power() / spur.max(1e-300)).log10()
    }

    /// SFDR restricted to bins at or below `f_max` Hz — the right measure
    /// for an oversampled record of a held (ZOH) waveform, where only the
    /// first Nyquist band of the *update* rate is of interest.
    ///
    /// # Panics
    ///
    /// Panics if `f_max` is not positive or lies below the fundamental.
    pub fn sfdr_in_band_db(&self, f_max: f64) -> f64 {
        assert!(f_max > 0.0, "invalid band edge {f_max}");
        let f_fund = self.bin_frequency(self.fundamental);
        assert!(
            f_max >= f_fund,
            "band edge {f_max} below the fundamental {f_fund}"
        );
        let spur = self
            .power
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(k, _)| k != self.fundamental && self.bin_frequency(k) <= f_max)
            .map(|(_, &p)| p)
            .fold(0.0f64, f64::max);
        10.0 * (self.fundamental_power() / spur.max(1e-300)).log10()
    }

    /// Total harmonic distortion in dB (power of harmonics 2..=10 relative
    /// to the fundamental; aliased harmonics are folded back into the first
    /// Nyquist zone).
    pub fn thd_db(&self) -> f64 {
        let mut harm_power = 0.0;
        for h in 2..=10usize {
            if let Some(bin) = self.aliased_bin(self.fundamental * h) {
                harm_power += self.power[bin];
            }
        }
        10.0 * (harm_power.max(1e-300) / self.fundamental_power()).log10()
    }

    /// Signal-to-noise ratio in dB: fundamental over everything else
    /// excluding DC and harmonics 2..=10.
    pub fn snr_db(&self) -> f64 {
        let mut exclude = vec![false; self.power.len()];
        exclude[0] = true;
        exclude[self.fundamental] = true;
        for h in 2..=10usize {
            if let Some(bin) = self.aliased_bin(self.fundamental * h) {
                exclude[bin] = true;
            }
        }
        let noise: f64 = self
            .power
            .iter()
            .zip(&exclude)
            .filter(|&(_, &ex)| !ex)
            .map(|(&p, _)| p)
            .sum();
        10.0 * (self.fundamental_power() / noise.max(1e-300)).log10()
    }

    /// Signal-to-noise-and-distortion in dB: fundamental over everything
    /// else excluding DC.
    pub fn sinad_db(&self) -> f64 {
        let rest: f64 = self
            .power
            .iter()
            .enumerate()
            .skip(1)
            .filter(|&(k, _)| k != self.fundamental)
            .map(|(_, &p)| p)
            .sum();
        10.0 * (self.fundamental_power() / rest.max(1e-300)).log10()
    }

    /// Effective number of bits, `(SINAD − 1.76)/6.02`.
    pub fn enob(&self) -> f64 {
        (self.sinad_db() - 1.76) / 6.02
    }

    /// Folds a harmonic bin index back into the first Nyquist zone.
    /// Returns `None` if it folds onto DC or the fundamental.
    fn aliased_bin(&self, k: usize) -> Option<usize> {
        let n = (self.power.len() - 1) * 2;
        let m = k % n;
        let folded = if m <= n / 2 { m } else { n - m };
        if folded == 0 || folded == self.fundamental {
            None
        } else {
            Some(folded)
        }
    }
}

impl fmt::Display for Spectrum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f0 = {:.3} MHz: SFDR = {:.1} dB, SNR = {:.1} dB, THD = {:.1} dB, ENOB = {:.2}",
            self.bin_frequency(self.fundamental) / 1e6,
            self.sfdr_db(),
            self.snr_db(),
            self.thd_db(),
            self.enob()
        )
    }
}

/// Amplitude droop of a zero-order-hold (ZOH) reconstruction at frequency
/// `f` for update rate `fs`, in dB (non-positive): `20·log₁₀|sinc(f/fs)|`.
///
/// A current-steering DAC holds each sample for a full period, so its
/// analog output is attenuated by this factor — −3.9 dB at Nyquist. The
/// paper's 53 MHz @ 300 MS/s test tone droops by ~0.45 dB.
///
/// # Panics
///
/// Panics if `fs` is not positive or `f` is negative.
///
/// # Examples
///
/// ```
/// use ctsdac_dsp::spectrum::zoh_droop_db;
///
/// assert_eq!(zoh_droop_db(0.0, 300e6), 0.0);
/// // Classic Nyquist droop: 20·log10(2/π) ≈ −3.92 dB.
/// assert!((zoh_droop_db(150e6, 300e6) + 3.92).abs() < 0.01);
/// ```
pub fn zoh_droop_db(f: f64, fs: f64) -> f64 {
    assert!(fs > 0.0, "invalid update rate {fs}");
    assert!(f >= 0.0, "negative frequency {f}");
    if f == 0.0 {
        return 0.0;
    }
    let x = core::f64::consts::PI * f / fs;
    20.0 * (x.sin() / x).abs().max(1e-300).log10()
}

/// Welch averaged periodogram: splits the record into 50 %-overlapping
/// windowed segments of length `segment_len` and averages their power
/// spectra. Reduces the variance of noise-floor estimates by roughly the
/// number of (independent) segments — the right tool for reading a
/// converter's noise floor out of a Monte-Carlo record.
///
/// Returns single-sided power per bin (length `segment_len/2 + 1`).
/// Normalisation is tone-calibrated (a coherent sine of amplitude `A`
/// integrates to `A²/2`); broadband noise totals are therefore scaled by
/// the window's noise-equivalent bandwidth (1.0 rectangular, 1.5 Hann).
///
/// # Panics
///
/// Panics if `segment_len` is not a power of two ≥ 8 or exceeds the record
/// length.
///
/// # Examples
///
/// ```
/// use ctsdac_dsp::spectrum::welch;
/// use ctsdac_dsp::Window;
///
/// let x: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.3).sin()).collect();
/// let psd = welch(&x, 512, Window::Hann);
/// assert_eq!(psd.len(), 257);
/// ```
pub fn welch(samples: &[f64], segment_len: usize, window: Window) -> Vec<f64> {
    assert!(
        segment_len.is_power_of_two() && segment_len >= 8,
        "segment length {segment_len} must be a power of two >= 8"
    );
    assert!(
        segment_len <= samples.len(),
        "segment longer than the record"
    );
    let hop = segment_len / 2;
    let mut acc = vec![0.0f64; segment_len / 2 + 1];
    // One scratch + one power buffer for the whole loop: every segment has
    // the same length, so after the first iteration no segment allocates.
    let mut scratch = SpectrumScratch::new();
    let mut seg_power = Vec::with_capacity(acc.len());
    let mut n_segments = 0usize;
    let mut start = 0usize;
    while start + segment_len <= samples.len() {
        windowed_power_into(
            &samples[start..start + segment_len],
            window,
            &mut scratch,
            &mut seg_power,
        );
        for (a, &p) in acc.iter_mut().zip(&seg_power) {
            *a += p;
        }
        n_segments += 1;
        start += hop;
    }
    for a in &mut acc {
        *a /= n_segments as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::f64::consts::PI;

    fn sine(n: usize, cycles: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * cycles as f64 * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn pure_sine_metrics() {
        let x = sine(1024, 31, 1.0);
        let s = Spectrum::analyze(&x, 300e6);
        assert_eq!(s.fundamental_bin(), 31);
        // Power of a unit sine is 1/2.
        assert!((s.fundamental_power() - 0.5).abs() < 1e-9);
        assert!(s.sfdr_db() > 150.0, "sfdr = {}", s.sfdr_db());
        assert!(s.enob() > 20.0);
    }

    #[test]
    fn sine_plus_harmonic_gives_expected_sfdr_and_thd() {
        // Fundamental amplitude 1, 3rd harmonic amplitude 1e-3 → 60 dB.
        let n = 2048;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = 2.0 * PI * i as f64 / n as f64;
                (t * 11.0).sin() + 1e-3 * (t * 33.0).sin()
            })
            .collect();
        let s = Spectrum::analyze(&x, 1.0);
        assert_eq!(s.fundamental_bin(), 11);
        assert!((s.sfdr_db() - 60.0).abs() < 0.1, "sfdr = {}", s.sfdr_db());
        assert!((s.thd_db() + 60.0).abs() < 0.1, "thd = {}", s.thd_db());
    }

    #[test]
    fn white_noise_snr_tracks_sigma() {
        use ctsdac_stats::{sample::seeded_rng, NormalSampler};
        let n = 4096;
        let sigma = 1e-3;
        let mut rng = seeded_rng(5);
        let mut sampler = NormalSampler::new();
        let x: Vec<f64> = (0..n)
            .map(|i| {
                (2.0 * PI * 101.0 * i as f64 / n as f64).sin() + sigma * sampler.sample(&mut rng)
            })
            .collect();
        let s = Spectrum::analyze(&x, 1.0);
        // SNR of unit sine vs white noise of power σ²: 10·log10(0.5/σ²).
        let expected = 10.0 * (0.5 / (sigma * sigma)).log10();
        assert!(
            (s.snr_db() - expected).abs() < 1.5,
            "snr = {}, expected {expected}",
            s.snr_db()
        );
    }

    #[test]
    fn enob_of_quantized_sine_matches_resolution() {
        // An ideally quantised full-scale sine has ENOB ≈ n bits.
        let n = 8192;
        let bits = 8u32;
        let levels = (1u64 << bits) as f64;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let v = (2.0 * PI * 1001.0 * i as f64 / n as f64).sin();
                ((v * 0.5 + 0.5) * (levels - 1.0)).round() / (levels - 1.0) * 2.0 - 1.0
            })
            .collect();
        let s = Spectrum::analyze(&x, 1.0);
        assert!(
            (s.enob() - bits as f64).abs() < 0.5,
            "enob = {} for {bits} bits",
            s.enob()
        );
    }

    #[test]
    fn coherent_frequency_picks_odd_bin() {
        let (bin, f0) = coherent_frequency(300e6, 53e6, 4096);
        assert_eq!(bin % 2, 1);
        let exact = bin as f64 * 300e6 / 4096.0;
        assert_eq!(f0, exact);
        assert!((f0 - 53e6).abs() < 2.0 * 300e6 / 4096.0);
    }

    #[test]
    fn windowed_analysis_recovers_amplitude() {
        // Coherent gain compensation: a windowed coherent tone still shows
        // ~A²/2 power.
        let x = sine(1024, 31, 2.0);
        let s = Spectrum::analyze_windowed(&x, 1.0, Window::Hann);
        // With coherent-gain compensation the centre bin recovers the full
        // A²/2 = 2.0 of the tone (the Hann sidebins carry extra energy).
        let p = s.fundamental_power();
        assert!((p - 2.0).abs() < 0.2, "p = {p}");
    }

    #[test]
    fn aliased_harmonics_are_found() {
        // Fundamental at bin 400 of 1024: 2nd harmonic at 800 folds to 224.
        let n = 1024;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = 2.0 * PI * i as f64 / n as f64;
                (t * 401.0).sin() + 1e-2 * (t * 802.0).sin()
            })
            .collect();
        let s = Spectrum::analyze(&x, 1.0);
        assert_eq!(s.fundamental_bin(), 401);
        // THD must see the folded harmonic at bin 1024−802 = 222.
        assert!((s.thd_db() + 40.0).abs() < 0.5, "thd = {}", s.thd_db());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_length_rejected() {
        let _ = Spectrum::analyze(&vec![0.0; 1000], 1.0);
    }

    #[test]
    fn welch_reduces_noise_floor_variance() {
        use ctsdac_stats::{sample::seeded_rng, NormalSampler};
        let mut rng = seeded_rng(9);
        let mut sampler = NormalSampler::new();
        let noise: Vec<f64> = (0..16384).map(|_| sampler.sample(&mut rng)).collect();
        // Single long FFT: per-bin power scatters ~100 %; Welch with 63
        // segments scatters far less.
        let psd = welch(&noise, 512, Window::Hann);
        let mean = psd[1..].iter().sum::<f64>() / (psd.len() - 1) as f64;
        let var = psd[1..]
            .iter()
            .map(|p| (p - mean) * (p - mean))
            .sum::<f64>()
            / (psd.len() - 1) as f64;
        let rel_sd = var.sqrt() / mean;
        assert!(rel_sd < 0.4, "Welch noise scatter {rel_sd}");
        // With tone-calibrated normalisation, unit-variance white noise
        // totals to the Hann noise-equivalent bandwidth, 1.5.
        let total: f64 = psd.iter().sum();
        assert!((total - 1.5).abs() < 0.2, "total = {total}");
    }

    #[test]
    fn welch_finds_a_buried_tone() {
        use ctsdac_stats::{sample::seeded_rng, NormalSampler};
        let mut rng = seeded_rng(10);
        let mut sampler = NormalSampler::new();
        // Coherent-per-segment tone: 16 cycles per 512-sample segment.
        let x: Vec<f64> = (0..8192)
            .map(|i| {
                0.2 * (2.0 * PI * 16.0 * i as f64 / 512.0).sin() + 0.5 * sampler.sample(&mut rng)
            })
            .collect();
        let psd = welch(&x, 512, Window::Hann);
        let peak_bin = psd
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(k, _)| k)
            .expect("non-empty");
        assert_eq!(peak_bin, 16);
    }

    #[test]
    #[should_panic(expected = "segment longer")]
    fn welch_rejects_oversized_segment() {
        let _ = welch(&[0.0; 64], 128, Window::Rectangular);
    }

    /// Reusing one scratch across records of different lengths gives the
    /// same spectra as the one-shot path — no stale state leaks between
    /// calls.
    #[test]
    fn scratch_reuse_matches_one_shot() {
        let mut scratch = SpectrumScratch::new();
        for (n, cycles) in [(1024usize, 31usize), (64, 5), (512, 13)] {
            let x = sine(n, cycles, 1.3);
            let fresh = Spectrum::analyze_windowed(&x, 1.0, Window::Hann);
            let reused = Spectrum::analyze_windowed_scratch(&x, 1.0, Window::Hann, &mut scratch);
            assert_eq!(fresh, reused, "n = {n}");
        }
    }

    #[test]
    fn zoh_droop_is_monotone_to_nyquist() {
        let fs = 300e6;
        let mut prev = 0.0;
        for i in 1..=15 {
            let d = zoh_droop_db(i as f64 * 10e6, fs);
            assert!(d < prev, "droop not monotone at {} MHz", i * 10);
            prev = d;
        }
        // The paper's 53 MHz tone: ~0.45 dB.
        let d53 = zoh_droop_db(53e6, fs);
        assert!((d53 + 0.45).abs() < 0.05, "droop at 53 MHz = {d53}");
    }
}
