//! Typed retry/backoff policy with deterministic jitter.
//!
//! Fast transient faults (a panicked chunk, a briefly overloaded solver, a
//! tripped service circuit breaker) should not be retried in lock-step:
//! immediate re-attempts synchronise failure waves, and fixed delays make
//! every retrier hammer the resource at the same instant. [`RetryPolicy`]
//! encodes the standard answer — exponential backoff with bounded,
//! *deterministically* jittered delays — as a plain value that the
//! supervised pool (between chunk attempts, replacing the old fixed
//! immediate-retry of the DC-solver escalation bookkeeping) and the
//! service circuit breaker (between half-open probes) both reuse.
//!
//! Determinism matters here for the same reason it does everywhere else in
//! this workspace: a delay schedule must be a pure function of `(seed,
//! stream, attempt)` so tests can pin it and reruns reproduce it. The
//! jitter is derived from a SplitMix64 hash of those inputs, not from a
//! clock or a global RNG.
//!
//! # Examples
//!
//! ```
//! use ctsdac_runtime::RetryPolicy;
//! use std::time::Duration;
//!
//! let policy = RetryPolicy::jittered(Duration::from_millis(2), 4.0, Duration::from_millis(100));
//! // Attempt 0 is the first try: no delay before it.
//! assert_eq!(policy.delay_for(7, 0), Duration::ZERO);
//! // Later attempts back off exponentially (2 ms, 8 ms, 32 ms, … capped),
//! // each scaled into [1 - jitter, 1] of the nominal value.
//! let d1 = policy.delay_for(7, 1);
//! let d2 = policy.delay_for(7, 2);
//! assert!(d1 <= Duration::from_millis(2));
//! assert!(d2 <= Duration::from_millis(8));
//! // Pure function of (stream, attempt): re-querying reproduces it.
//! assert_eq!(d1, policy.delay_for(7, 1));
//! ```

use std::time::Duration;

/// Exponential backoff schedule with bounded deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Nominal delay before the first retry (attempt 1).
    pub base: Duration,
    /// Multiplier applied per further attempt (≥ 1 for growth).
    pub factor: f64,
    /// Hard cap on the nominal delay.
    pub max: Duration,
    /// Jitter fraction in `[0, 1]`: the delay is scaled uniformly into
    /// `[1 - jitter, 1]` of its nominal value. `0` disables jitter.
    pub jitter: f64,
    /// Seed folded into the jitter hash so distinct policies (or tenants)
    /// decorrelate even at the same `(stream, attempt)`.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// The do-nothing policy: every delay is zero (immediate retry).
    fn default() -> Self {
        Self::none()
    }
}

impl RetryPolicy {
    /// Immediate retry — all delays are zero. The drop-in equivalent of
    /// the historical behaviour.
    pub fn none() -> Self {
        Self {
            base: Duration::ZERO,
            factor: 1.0,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Exponential backoff `base · factor^(attempt-1)` capped at `max`,
    /// with the default 50 % jitter window.
    pub fn jittered(base: Duration, factor: f64, max: Duration) -> Self {
        Self {
            base,
            factor,
            max,
            jitter: 0.5,
            seed: 0,
        }
    }

    /// The pool's default chunk-retry backoff: 2 ms base, ×4 per attempt,
    /// 100 ms cap, 50 % jitter. Short enough to be invisible on a healthy
    /// run (a chunk retries at most `retries` times), long enough to
    /// desynchronise a wave of faulting workers.
    pub fn default_backoff() -> Self {
        Self::jittered(Duration::from_millis(2), 4.0, Duration::from_millis(100))
    }

    /// Re-seeds the jitter hash.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when every delay this policy can produce is zero.
    pub fn is_immediate(&self) -> bool {
        self.base.is_zero()
    }

    /// The delay to sleep before `attempt` of `stream` (attempt 0 is the
    /// first try and never waits). A pure function of
    /// `(self, stream, attempt)`.
    pub fn delay_for(&self, stream: u64, attempt: u32) -> Duration {
        if attempt == 0 || self.base.is_zero() {
            return Duration::ZERO;
        }
        let exp = (attempt - 1).min(63);
        let nominal = self.base.as_secs_f64() * self.factor.max(1.0).powi(exp as i32);
        let capped = nominal.min(self.max.as_secs_f64().max(self.base.as_secs_f64()));
        let jitter = self.jitter.clamp(0.0, 1.0);
        let scale = if jitter == 0.0 {
            1.0
        } else {
            let u = unit_hash(self.seed, stream, attempt);
            1.0 - jitter * u
        };
        Duration::from_secs_f64(capped * scale)
    }
}

/// SplitMix64-derived uniform value in `[0, 1)` — the deterministic jitter
/// source. Small, well-mixed, and dependency-free.
fn unit_hash(seed: u64, stream: u64, attempt: u32) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream)
        .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        .wrapping_add(u64::from(attempt));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 53 high bits → [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_zero_never_waits() {
        let p = RetryPolicy::default_backoff();
        for stream in 0..10 {
            assert_eq!(p.delay_for(stream, 0), Duration::ZERO);
        }
    }

    #[test]
    fn none_policy_is_immediate_everywhere() {
        let p = RetryPolicy::none();
        assert!(p.is_immediate());
        for attempt in 0..6 {
            assert_eq!(p.delay_for(3, attempt), Duration::ZERO);
        }
        assert_eq!(RetryPolicy::default(), RetryPolicy::none());
    }

    #[test]
    fn nominal_delays_grow_exponentially_and_cap() {
        let mut p =
            RetryPolicy::jittered(Duration::from_millis(10), 2.0, Duration::from_millis(40));
        p.jitter = 0.0; // isolate the nominal schedule
        assert_eq!(p.delay_for(0, 1), Duration::from_millis(10));
        assert_eq!(p.delay_for(0, 2), Duration::from_millis(20));
        assert_eq!(p.delay_for(0, 3), Duration::from_millis(40));
        // Capped from here on.
        assert_eq!(p.delay_for(0, 4), Duration::from_millis(40));
        assert_eq!(p.delay_for(0, 20), Duration::from_millis(40));
    }

    #[test]
    fn jitter_stays_in_window_and_is_deterministic() {
        let p = RetryPolicy::default_backoff().with_seed(99);
        for stream in 0..20u64 {
            for attempt in 1..5u32 {
                let d = p.delay_for(stream, attempt);
                let nominal = p.base.as_secs_f64() * p.factor.powi((attempt - 1) as i32);
                let nominal = nominal.min(p.max.as_secs_f64());
                let lo = nominal * (1.0 - p.jitter) - 1e-9;
                let hi = nominal + 1e-9;
                let secs = d.as_secs_f64();
                assert!(secs >= lo && secs <= hi, "{secs} outside [{lo}, {hi}]");
                assert_eq!(d, p.delay_for(stream, attempt), "must be pure");
            }
        }
    }

    #[test]
    fn jitter_decorrelates_streams_and_seeds() {
        let p = RetryPolicy::default_backoff();
        let a = p.delay_for(1, 2);
        let b = p.delay_for(2, 2);
        let c = p.with_seed(7).delay_for(1, 2);
        // Identical values would mean the hash ignores its inputs; with a
        // 53-bit uniform this is astronomically unlikely.
        assert!(a != b || a != c, "jitter ignores stream and seed");
    }

    #[test]
    fn degenerate_parameters_stay_finite() {
        // factor < 1 clamps to 1 (no shrinking schedules), huge attempts
        // saturate instead of overflowing.
        let p = RetryPolicy {
            base: Duration::from_millis(5),
            factor: 0.1,
            max: Duration::from_millis(50),
            jitter: 2.0, // clamped to 1
            seed: 0,
        };
        let d = p.delay_for(0, u32::MAX);
        assert!(d <= Duration::from_millis(50));
    }
}
