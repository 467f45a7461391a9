//! Latency summaries: medians, the percentile helper and its population
//! check.

/// Percentiles the benchmark reports; any other is refused.
pub const SUPPORTED_PERCENTILES: [u32; 2] = [50, 90];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The samples `±n/40` ranks (at least 2) around a percentile must stay
/// within this ratio of each other, or the percentile sits where two
/// populations meet (simple vs cascoded flows, stalled vs prompt
/// requests) and a little noise would move it from one to the other.
const STRADDLE_RATIO: f64 = 1.5;

/// Samples needed so that every supported percentile has
/// [`MIN_BEYOND`] samples beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PercentileError {
    /// Not one of [`SUPPORTED_PERCENTILES`].
    Unsupported(u32),
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewBeyond { beyond: usize },
}

/// One reported percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// True when the neighbouring samples span more than
    /// [`STRADDLE_RATIO`]: the percentile sits between two populations.
    pub straddles: bool,
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: u32) -> Result<Percentile, PercentileError> {
    if !SUPPORTED_PERCENTILES.contains(&p) {
        return Err(PercentileError::Unsupported(p));
    }
    let n = sorted.len();
    let rank = (p as usize * n).div_ceil(100).max(1);
    let idx = rank - 1;
    let beyond = n.saturating_sub(rank);
    if beyond < MIN_BEYOND {
        return Err(PercentileError::TooFewBeyond { beyond });
    }
    let w = (n / 40).max(2);
    let lo = sorted[idx.saturating_sub(w)];
    let hi = sorted[(idx + w).min(n - 1)];
    Ok(Percentile {
        value: sorted[idx],
        beyond,
        straddles: hi > lo * STRADDLE_RATIO,
    })
}

/// Median of unsorted samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The p50/p90 pair of a latency population plus how many straddle.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50: Percentile,
    pub p90: Percentile,
    pub samples: usize,
}

impl Latency {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Result<Self, PercentileError> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Ok(Self {
            p50: percentile(&v, 50)?,
            p90: percentile(&v, 90)?,
            samples: v.len(),
        })
    }

    pub fn straddles(&self) -> usize {
        usize::from(self.p50.straddles) + usize::from(self.p90.straddles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_percentiles_are_refused() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for p in [0, 1, 75, 95, 99, 100, 101] {
            assert_eq!(percentile(&v, p), Err(PercentileError::Unsupported(p)));
        }
        assert!(percentile(&v, 50).is_ok());
        assert!(percentile(&v, 90).is_ok());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&v, 90),
            Err(PercentileError::TooFewBeyond { beyond: 9 })
        );
        let v: Vec<f64> = (1..=MIN_SAMPLES as u32).map(f64::from).collect();
        let p = percentile(&v, 90).expect("100 samples support p90");
        assert_eq!((p.value, p.beyond), (90.0, 10));
    }

    #[test]
    fn a_percentile_between_two_populations_is_flagged() {
        // 75 % prompt at ~1 ms, 25 % stalled at ~100 ms: p50 and p90 sit
        // well inside one population each.
        let mut v: Vec<f64> = (0..750).map(|i| 1.0 + i as f64 * 1e-4).collect();
        v.extend((0..250).map(|i| 100.0 + i as f64 * 1e-3));
        let l = Latency::of(&v).expect("enough samples");
        assert_eq!(l.straddles(), 0);
        // 90 % prompt: p90 lands on the boundary.
        let mut v: Vec<f64> = (0..900).map(|_| 1.0).collect();
        v.extend((0..100).map(|_| 100.0));
        let l = Latency::of(&v).expect("enough samples");
        assert!(l.p90.straddles && !l.p50.straddles);
    }
}
