//! Circuit breaker over the supervised runtime.
//!
//! After `threshold` *consecutive* supervision failures the breaker trips
//! open and sheds runtime-bound work with a typed
//! [`ErrorKind::BreakerOpen`](crate::protocol::ErrorKind::BreakerOpen)
//! until a backoff interval elapses. The open interval grows with the
//! trip count on the runtime's jittered exponential
//! [`RetryPolicy`](ctsdac_runtime::RetryPolicy) — the same typed ladder
//! the worker pool uses between chunk re-attempts, so the whole stack
//! backs off with one policy.
//!
//! State machine:
//!
//! ```text
//! Closed --(threshold consecutive failures)--> Open --(interval)--> HalfOpen
//!   ^                                            ^                     |
//!   |                                            '-(probe fails or-----|
//!   |                                               probe aborts)
//!   '-------------------(probe succeeds)------------------------------'
//! ```
//!
//! Half-open admits exactly one probe; concurrent callers keep shedding
//! until the probe resolves. [`Breaker::check`] hands the admitted caller
//! a [`BreakerPermit`] that *must* resolve the probe on every exit path:
//! explicitly via [`BreakerPermit::on_success`] /
//! [`BreakerPermit::on_failure`] / [`BreakerPermit::on_uncounted`], or —
//! if the permit unwinds out of a panicking handler — on `Drop`, which
//! aborts the probe back to `Open` so the next interval gets a fresh one.
//! Without that guarantee a probe that dies resolving nothing would leave
//! the breaker `HalfOpen` forever, shedding every request with "probe in
//! flight" and no recovery path.
//!
//! Domain failures (infeasible spec, numerical rejection, a client's own
//! deadline) are *not* runtime trouble and must not count toward the
//! breaker — but a probe that completes with one *has* proven the runtime
//! round trip healthy, so `on_uncounted` closes a half-open breaker while
//! leaving the closed-state failure streak untouched.

use crate::protocol::{ApiError, ErrorKind};
use ctsdac_obs as obs;
use ctsdac_runtime::RetryPolicy;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
enum State {
    Closed { consecutive: u32 },
    Open { until: Instant, trips: u32 },
    HalfOpen { trips: u32 },
}

/// Breaker parameters.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive supervision failures that trip the breaker.
    pub threshold: u32,
    /// Backoff ladder for the open interval: trip `k` stays open for
    /// `policy.delay_for(0, k)`.
    pub policy: RetryPolicy,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            policy: RetryPolicy::jittered(Duration::from_millis(250), 2.0, Duration::from_secs(30)),
        }
    }
}

/// The breaker. Shared across server workers.
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
}

/// Obligation handed out by [`Breaker::check`]: the holder must report
/// how the runtime round trip ended. If the holder was the half-open
/// probe and the permit is dropped unresolved (a panic unwinding through
/// the handler), `Drop` aborts the probe back to `Open` — the breaker can
/// never wedge in `HalfOpen`.
#[derive(Debug)]
#[must_use = "an unresolved probe permit re-opens the breaker on drop"]
pub struct BreakerPermit<'a> {
    breaker: &'a Breaker,
    probe: bool,
    resolved: bool,
}

impl BreakerPermit<'_> {
    /// True when this permit is the single half-open probe (tests).
    pub fn is_probe(&self) -> bool {
        self.probe
    }

    /// The runtime round trip succeeded: closes the breaker.
    pub fn on_success(mut self) {
        self.resolved = true;
        self.breaker.on_success();
    }

    /// The runtime round trip hit a supervision failure: feeds the
    /// breaker (trips, or re-opens a half-open probe with a longer
    /// interval).
    pub fn on_failure(mut self, now: Instant) {
        self.resolved = true;
        self.breaker.on_failure(now);
    }

    /// The round trip completed with an outcome that does not count
    /// toward the breaker (domain rejection, client deadline). A probe
    /// still proved the runtime healthy, so this closes a half-open
    /// breaker; in the closed state it leaves the failure streak alone.
    pub fn on_uncounted(mut self) {
        self.resolved = true;
        if self.probe {
            self.breaker.on_success();
        }
    }
}

impl Drop for BreakerPermit<'_> {
    fn drop(&mut self) {
        if self.probe && !self.resolved {
            self.breaker.abort_probe(Instant::now());
        }
    }
}

impl Breaker {
    /// Creates a closed breaker.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: Mutex::new(State::Closed { consecutive: 0 }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Gate called before runtime-bound work. The returned permit must be
    /// resolved with the round trip's outcome (see [`BreakerPermit`]).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::BreakerOpen`] (with a `Retry-After` of the remaining
    /// open interval, rounded up) while the breaker is open or while a
    /// half-open probe is already in flight.
    pub fn check(&self, now: Instant) -> Result<BreakerPermit<'_>, ApiError> {
        let mut state = self.lock();
        let permit = |probe| BreakerPermit {
            breaker: self,
            probe,
            resolved: false,
        };
        match *state {
            State::Closed { .. } => Ok(permit(false)),
            State::Open { until, trips } => {
                if now >= until {
                    // This caller becomes the half-open probe.
                    *state = State::HalfOpen { trips };
                    Ok(permit(true))
                } else {
                    let secs = (until - now).as_secs_f64().ceil().max(1.0) as u64;
                    Err(ApiError::new(
                        ErrorKind::BreakerOpen,
                        format!("circuit breaker open after {trips} trip(s)"),
                    )
                    .with_retry_after(secs))
                }
            }
            State::HalfOpen { .. } => Err(ApiError::new(
                ErrorKind::BreakerOpen,
                "circuit breaker half-open; probe in flight",
            )
            .with_retry_after(1)),
        }
    }

    /// Reports a successful runtime round trip: closes from any state.
    pub fn on_success(&self) {
        *self.lock() = State::Closed { consecutive: 0 };
    }

    /// Reports a supervision failure. Call *only* for runtime trouble
    /// (panic retry exhaustion, journal failure), never for domain or
    /// client-deadline errors.
    pub fn on_failure(&self, now: Instant) {
        let mut state = self.lock();
        let trip = |trips: u32| {
            obs::incr(obs::Counter::ServiceBreakerTrips);
            State::Open {
                until: now + self.cfg.policy.delay_for(0, trips.max(1)),
                trips,
            }
        };
        *state = match *state {
            State::Closed { consecutive } => {
                let consecutive = consecutive + 1;
                if consecutive >= self.cfg.threshold {
                    trip(1)
                } else {
                    State::Closed { consecutive }
                }
            }
            // A failed half-open probe re-opens with a longer interval.
            State::HalfOpen { trips } => trip(trips + 1),
            // Concurrent failure while already open: keep the later until.
            State::Open { until, trips } => State::Open { until, trips },
        };
    }

    /// Aborts an unresolved half-open probe (the permit unwound without
    /// reporting): back to `Open` for another interval at the same trip
    /// count, so the next interval elects a fresh probe instead of
    /// shedding "probe in flight" forever.
    fn abort_probe(&self, now: Instant) {
        let mut state = self.lock();
        if let State::HalfOpen { trips } = *state {
            *state = State::Open {
                until: now + self.cfg.policy.delay_for(0, trips.max(1)),
                trips,
            };
        }
    }

    /// True when the breaker currently sheds (tests / metrics).
    pub fn is_open(&self, now: Instant) -> bool {
        matches!(*self.lock(), State::Open { until, .. } if now < until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, base_ms: u64) -> Breaker {
        Breaker::new(BreakerConfig {
            threshold,
            // Deterministic (jitter-free) ladder for exact assertions.
            policy: RetryPolicy {
                base: Duration::from_millis(base_ms),
                factor: 2.0,
                max: Duration::from_secs(10),
                jitter: 0.0,
                seed: 0,
            },
        })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures_only() {
        let b = breaker(3, 100);
        let t0 = Instant::now();
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(b.check(t0).is_ok(), "two failures stay closed");
        b.on_success(); // success resets the streak
        b.on_failure(t0);
        b.on_failure(t0);
        assert!(b.check(t0).is_ok(), "streak was reset");
        b.on_failure(t0);
        let err = b.check(t0).expect_err("third consecutive trips");
        assert_eq!(err.kind, ErrorKind::BreakerOpen);
        assert!(err.retry_after_s.is_some());
    }

    #[test]
    fn half_open_admits_one_probe_then_closes_on_success() {
        let b = breaker(1, 50);
        let t0 = Instant::now();
        b.on_failure(t0);
        assert!(b.is_open(t0));
        let later = t0 + Duration::from_millis(60);
        let probe = b.check(later).expect("first caller is the probe");
        assert!(probe.is_probe());
        let err = b.check(later).expect_err("second caller sheds");
        assert_eq!(err.kind, ErrorKind::BreakerOpen);
        probe.on_success();
        assert!(b.check(later).is_ok(), "probe success closes");
    }

    #[test]
    fn failed_probe_reopens_with_longer_interval() {
        let b = breaker(1, 100);
        let t0 = Instant::now();
        b.on_failure(t0); // trip 1: open 100 ms
        let t1 = t0 + Duration::from_millis(110);
        let probe = b.check(t1).expect("probe admitted");
        probe.on_failure(t1); // trip 2: open 200 ms
        assert!(
            b.is_open(t1 + Duration::from_millis(150)),
            "still open at +150 ms"
        );
        assert!(
            !b.is_open(t1 + Duration::from_millis(210)),
            "expired at +210 ms"
        );
    }

    #[test]
    fn dropped_probe_permit_aborts_to_open_and_recovers() {
        let b = breaker(1, 30);
        let t0 = Instant::now();
        b.on_failure(t0);
        std::thread::sleep(Duration::from_millis(40));
        let probe = b.check(Instant::now()).expect("probe admitted");
        assert!(probe.is_probe());
        // The handler panicked: the permit unwinds unresolved. The probe
        // must abort back to Open — not wedge HalfOpen forever.
        drop(probe);
        let err = b.check(Instant::now()).expect_err("open again after abort");
        assert_eq!(err.kind, ErrorKind::BreakerOpen);
        // And the breaker still recovers: a later probe can close it.
        std::thread::sleep(Duration::from_millis(40));
        let probe = b.check(Instant::now()).expect("fresh probe after abort");
        probe.on_success();
        assert!(b.check(Instant::now()).is_ok(), "closed again");
    }

    #[test]
    fn uncounted_probe_outcome_closes_without_resetting_closed_streak() {
        // Probe side: a domain error still proves the runtime healthy.
        let b = breaker(1, 30);
        let t0 = Instant::now();
        b.on_failure(t0);
        std::thread::sleep(Duration::from_millis(40));
        let probe = b.check(Instant::now()).expect("probe admitted");
        probe.on_uncounted();
        assert!(b.check(Instant::now()).is_ok(), "uncounted probe closes");

        // Closed side: an uncounted outcome must not reset the streak.
        let b = breaker(2, 30);
        let t1 = Instant::now();
        b.on_failure(t1);
        b.check(t1).expect("still closed").on_uncounted();
        b.on_failure(t1);
        assert!(b.is_open(t1), "streak survived the uncounted outcome");
    }

    #[test]
    fn open_interval_follows_the_retry_ladder() {
        let b = breaker(1, 100);
        let t0 = Instant::now();
        b.on_failure(t0);
        // Trip 1 → delay_for(0, 1) = base = 100 ms.
        assert!(b.is_open(t0 + Duration::from_millis(90)));
        assert!(!b.is_open(t0 + Duration::from_millis(101)));
    }
}
