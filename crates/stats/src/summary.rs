//! Streaming descriptive statistics, percentiles and histograms.
//!
//! [`Summary`] uses Welford's algorithm, so accumulating millions of
//! Monte-Carlo samples is numerically stable and needs no storage;
//! [`percentile`] and [`Histogram`] cover the occasional need for the full
//! empirical distribution (e.g. INL histograms across Monte-Carlo trials).

use crate::mc::StatsError;
use core::fmt;

/// Streaming summary statistics (count, mean, variance, extrema, RMS).
///
/// Built with Welford's online algorithm; merging two summaries is exact, so
/// partial results from parallel workers can be combined.
///
/// # Examples
///
/// ```
/// use ctsdac_stats::Summary;
///
/// let s: Summary = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.sum_sq += x * x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merges another summary into this one (exact, order-independent).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.sum_sq += other.sum_sq;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; zero for an empty summary.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); zero for fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`); zero for fewer than two samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Root-mean-square of the observations.
    pub fn rms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_sq / self.count as f64).sqrt()
        }
    }

    /// Smallest observation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "min() of an empty summary");
        self.min
    }

    /// Largest observation.
    ///
    /// # Panics
    ///
    /// Panics if the summary is empty.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "max() of an empty summary");
        self.max
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "Summary(empty)");
        }
        write!(
            f,
            "n={} mean={:.6e} sd={:.6e} min={:.6e} max={:.6e}",
            self.count,
            self.mean,
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

/// Linear-interpolation percentile of a data set.
///
/// `p` is a fraction in `[0, 1]`. The data need not be sorted: a scratch
/// copy is partitioned around the target rank with
/// [`slice::select_nth_unstable_by`] (introselect, `O(n)` expected) instead
/// of a full `O(n log n)` sort — a percentile query touches at most two
/// order statistics. NaNs rank last, per [`f64::total_cmp`]. Bit-identical
/// to the sorted implementation it replaced: the interpolation neighbour is
/// the total-order minimum of the upper partition, which is exactly the
/// `lo + 1`-th order statistic.
///
/// # Errors
///
/// [`StatsError::EmptyData`] if `data` is empty;
/// [`StatsError::InvalidFraction`] if `p` is outside `[0, 1]` or NaN.
///
/// # Examples
///
/// ```
/// use ctsdac_stats::summary::percentile;
///
/// let data = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&data, 0.5), Ok(2.5));
/// assert_eq!(percentile(&data, 0.0), Ok(1.0));
/// assert_eq!(percentile(&data, 1.0), Ok(4.0));
/// ```
pub fn percentile(data: &[f64], p: f64) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::EmptyData);
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(StatsError::InvalidFraction);
    }
    let mut scratch = data.to_vec();
    let idx = p * (scratch.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let (_, &mut lo_val, upper) = scratch.select_nth_unstable_by(lo, f64::total_cmp);
    Ok(if lo == hi {
        lo_val
    } else {
        // hi == lo + 1, so the neighbour is the smallest element of the
        // upper partition (non-empty because hi <= len - 1).
        let mut hi_val = upper[0];
        for &x in &upper[1..] {
            if x.total_cmp(&hi_val).is_lt() {
                hi_val = x;
            }
        }
        let frac = idx - lo as f64;
        lo_val * (1.0 - frac) + hi_val * frac
    })
}

/// Fixed-bin histogram over a closed range.
///
/// Out-of-range observations are counted in saturating edge bins so no data
/// is silently dropped.
///
/// # Examples
///
/// ```
/// use ctsdac_stats::summary::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 4);
/// for x in [0.1, 0.3, 0.35, 0.9] {
///     h.push(x);
/// }
/// assert_eq!(h.counts(), &[1, 2, 0, 1]);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi}]"
        );
        Self {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Adds one observation, clamping out-of-range values to the edge bins.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = if frac <= 0.0 {
            0
        } else if frac >= 1.0 {
            bins - 1
        } else {
            ((frac * bins as f64) as usize).min(bins - 1)
        };
        self.counts[idx] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + width * (i as f64 + 0.5)
    }
}

impl Extend<f64> for Histogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..37].iter().copied().collect();
        let right: Summary = data[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-12);
        assert!((left.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn summary_merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn summary_rms() {
        let s: Summary = [3.0, 4.0].into_iter().collect();
        assert!((s.rms() - (12.5f64).sqrt()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty summary")]
    fn summary_min_of_empty_panics() {
        let _ = Summary::new().min();
    }

    #[test]
    fn percentile_interpolates() {
        let data = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&data, 0.5), Ok(30.0));
        assert_eq!(percentile(&data, 0.25), Ok(20.0));
        assert!((percentile(&data, 0.1).unwrap() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_bad_input_with_typed_errors() {
        assert_eq!(percentile(&[1.0], 1.5), Err(StatsError::InvalidFraction));
        assert_eq!(
            percentile(&[1.0], f64::NAN),
            Err(StatsError::InvalidFraction)
        );
        assert_eq!(percentile(&[], 0.5), Err(StatsError::EmptyData));
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(-3.0);
        h.push(42.0);
        assert_eq!(h.counts(), &[1, 0, 0, 0, 1]);
    }

    #[test]
    fn histogram_bin_centres() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
    }
}
