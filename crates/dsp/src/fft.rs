//! Radix-2 decimation-in-time FFT.
//!
//! An iterative, in-place Cooley–Tukey transform: bit-reversal permutation
//! followed by `log₂N` butterfly stages with per-stage twiddle recurrence.
//! `O(N log N)`, no allocation beyond the caller's buffer, exact inverse via
//! conjugation.

use crate::complex::Complex;

/// In-place forward FFT.
///
/// Computes `X[k] = Σ_n x[n]·e^{−2πi·kn/N}` (no normalisation).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two (or is zero).
///
/// # Examples
///
/// ```
/// use ctsdac_dsp::{fft, Complex};
///
/// let mut data = vec![Complex::real(1.0); 8];
/// fft(&mut data);
/// // A DC vector transforms to a single spike of height N.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1..].iter().all(|z| z.abs() < 1e-12));
/// ```
pub fn fft(data: &mut [Complex]) {
    let n = data.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length {n} must be a power of two"
    );
    bit_reverse_permute(data);
    let mut len = 2;
    while len <= n {
        let theta = -2.0 * core::f64::consts::PI / len as f64;
        let w_len = Complex::cis(theta);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex::ONE;
            let half = len / 2;
            for i in 0..half {
                let a = chunk[i];
                let b = chunk[i + half] * w;
                chunk[i] = a + b;
                chunk[i + half] = a - b;
                w = w * w_len;
            }
        }
        len <<= 1;
    }
}

/// In-place inverse FFT (normalised by `1/N`).
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
///
/// # Examples
///
/// ```
/// use ctsdac_dsp::{fft, ifft, Complex};
///
/// let original: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, -(i as f64))).collect();
/// let mut data = original.clone();
/// fft(&mut data);
/// ifft(&mut data);
/// for (a, b) in data.iter().zip(&original) {
///     assert!((*a - *b).abs() < 1e-12);
/// }
/// ```
pub fn ifft(data: &mut [Complex]) {
    let n = data.len() as f64;
    for z in data.iter_mut() {
        *z = z.conj();
    }
    fft(data);
    for z in data.iter_mut() {
        *z = z.conj().scale(1.0 / n);
    }
}

/// FFT of a real signal, returning the full complex spectrum (the caller
/// typically uses only bins `0..N/2`).
///
/// Exploits realness with the classic packing trick: the `N` real samples
/// are folded into an `N/2`-point complex record `z[m] = x[2m] + i·x[2m+1]`,
/// transformed with one half-size FFT, and unpacked through the
/// decimation-in-time butterfly — about half the work and half the
/// footprint of the full-size complex path it replaced. Agrees with that
/// path to rounding error (see the cross-check test).
///
/// # Panics
///
/// Panics if `samples.len()` is not a power of two.
pub fn fft_real(samples: &[f64]) -> Vec<Complex> {
    let mut out = Vec::new();
    fft_real_into(samples, &mut out);
    out
}

/// [`fft_real`] writing into a caller-owned buffer — the hot-loop variant
/// for repeated analyses (e.g. Welch segment averaging), which reuses the
/// buffer's allocation across calls. `out` is cleared and resized; no other
/// allocation is performed.
///
/// # Panics
///
/// Panics if `samples.len()` is not a power of two.
pub fn fft_real_into(samples: &[f64], out: &mut Vec<Complex>) {
    let n = samples.len();
    assert!(
        n.is_power_of_two() && n > 0,
        "FFT length {n} must be a power of two"
    );
    out.clear();
    if n == 1 {
        out.push(Complex::real(samples[0]));
        return;
    }
    if n == 2 {
        out.push(Complex::real(samples[0] + samples[1]));
        out.push(Complex::real(samples[0] - samples[1]));
        return;
    }
    let half = n / 2;
    // Pack the even samples into the real parts and the odd samples into
    // the imaginary parts of the first half of `out`, and transform that.
    out.extend((0..half).map(|m| Complex::new(samples[2 * m], samples[2 * m + 1])));
    fft(out);
    out.resize(n, Complex::ZERO);
    let z0 = out[0];
    // Unpack each symmetric pair (k, half − k) in one step: the even-sample
    // spectrum is E_k = (Z[k] + Z*[half−k])/2, the odd-sample spectrum is
    // O_k = −i·(Z[k] − Z*[half−k])/2, and the butterfly recombines them as
    // X[k] = E_k + e^{−2πik/N}·O_k. Both of the pair's inputs are read
    // before either output slot is overwritten, so the unpack is in place;
    // conjugate symmetry X[N−k] = X*[k] fills the upper half.
    let theta = -2.0 * core::f64::consts::PI / n as f64;
    for k in 1..=half / 2 {
        let j = half - k;
        let (a, b) = (out[k], out[j].conj());
        let (a2, b2) = (out[j], out[k].conj());
        let x_k = butterfly(a, b, Complex::cis(theta * k as f64));
        let x_j = butterfly(a2, b2, Complex::cis(theta * j as f64));
        out[k] = x_k;
        out[j] = x_j;
        out[n - k] = x_k.conj();
        out[n - j] = x_j.conj();
    }
    // Bin 0 and Nyquist come straight from Z[0] (both are real).
    out[0] = Complex::real(z0.re + z0.im);
    out[half] = Complex::real(z0.re - z0.im);
}

/// One unpack butterfly of the real-input FFT: recombines `a = Z[k]` and
/// `b = Z*[half−k]` with the twiddle `w = e^{−2πik/N}`.
fn butterfly(a: Complex, b: Complex, w: Complex) -> Complex {
    let e = (a + b).scale(0.5);
    let d = (a - b).scale(0.5);
    // O_k = −i·d.
    let o = Complex::new(d.im, -d.re);
    e + w * o
}

/// Bit-reversal permutation.
fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    if n <= 2 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct O(N²) DFT reference.
    fn dft_reference(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (i, &xi) in x.iter().enumerate() {
                    let theta = -2.0 * core::f64::consts::PI * (k * i) as f64 / n as f64;
                    acc += xi * Complex::cis(theta);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_direct_dft() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.73).cos()))
            .collect();
        let want = dft_reference(&x);
        let mut got = x.clone();
        fft(&mut got);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-10, "FFT disagrees with DFT");
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 256;
        let k0 = 13;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * core::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&x);
        // A coherent cosine has bins k0 and N−k0 at height N/2.
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k0].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (k, z) in spec.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(z.abs() < 1e-9, "leakage at bin {k}: {}", z.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> = (0..128)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut spec = x.clone();
        fft(&mut spec);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert!(
            ((time_energy - freq_energy) / time_energy).abs() < 1e-12,
            "Parseval violated"
        );
    }

    #[test]
    fn fft_ifft_round_trip() {
        let original: Vec<Complex> = (0..512)
            .map(|i| Complex::new((i as f64 * 1.1).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let mut data = original.clone();
        fft(&mut data);
        ifft(&mut data);
        for (a, b) in data.iter().zip(&original) {
            assert!((*a - *b).abs() < 1e-11);
        }
    }

    #[test]
    fn length_one_is_identity() {
        let mut data = [Complex::new(2.5, -1.0)];
        fft(&mut data);
        assert_eq!(data[0], Complex::new(2.5, -1.0));
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..32).map(|i| Complex::real(i as f64)).collect();
        let b: Vec<Complex> = (0..32).map(|i| Complex::real((i * i % 7) as f64)).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let (mut fa, mut fb, mut fs) = (a.clone(), b.clone(), sum.clone());
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fs);
        for ((x, y), s) in fa.iter().zip(&fb).zip(&fs) {
            assert!((*x + *y - *s).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![Complex::ZERO; 12];
        fft(&mut data);
    }

    /// The packed real-input path agrees bin-for-bin with the full-size
    /// complex transform it replaced, at every power-of-two length
    /// including the `n = 1` and `n = 2` special cases.
    #[test]
    fn real_packing_matches_full_size_path() {
        for n in [1usize, 2, 4, 8, 16, 64, 256, 1024] {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.61).sin() + 0.3 * (i as f64 * 1.7).cos() - 0.1)
                .collect();
            let packed = fft_real(&x);
            let mut full: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
            fft(&mut full);
            assert_eq!(packed.len(), n);
            let scale = n as f64;
            for (k, (p, f)) in packed.iter().zip(&full).enumerate() {
                assert!(
                    (*p - *f).abs() < 1e-10 * scale,
                    "n = {n}, bin {k}: packed {p:?} vs full {f:?}"
                );
            }
        }
    }

    /// `fft_real` followed by the inverse transform recovers the samples,
    /// and the reusable-buffer variant leaves no stale state behind when
    /// the buffer shrinks or grows between calls.
    #[test]
    fn fft_real_round_trips_and_buffer_is_reusable() {
        let mut scratch = Vec::new();
        for n in [512usize, 8, 64] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.83).sin()).collect();
            fft_real_into(&x, &mut scratch);
            assert_eq!(scratch.len(), n);
            let mut back = scratch.clone();
            ifft(&mut back);
            for (b, &want) in back.iter().zip(&x) {
                assert!((b.re - want).abs() < 1e-11, "n = {n}");
                assert!(b.im.abs() < 1e-11, "n = {n}");
            }
        }
    }

    /// Real input gives a conjugate-symmetric spectrum: `X[N−k] = X*[k]`.
    #[test]
    fn real_spectrum_is_conjugate_symmetric() {
        let n = 128;
        let x: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.29).cos() * (i as f64 * 0.05).sin())
            .collect();
        let spec = fft_real(&x);
        assert!(spec[0].im.abs() < 1e-10);
        assert!(spec[n / 2].im.abs() < 1e-10);
        for k in 1..n / 2 {
            assert!((spec[n - k] - spec[k].conj()).abs() < 1e-10, "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_real_rejects_non_power_of_two() {
        fft_real(&[0.0; 6]);
    }
}
