//! Admission control: per-tenant token-bucket fairness plus a global
//! in-flight watermark.
//!
//! Two independent gates, both cheap enough to sit in front of every
//! request:
//!
//! * **In-flight watermark** — a counting gauge of requests currently
//!   executing. Past the high watermark the daemon sheds instead of
//!   queueing unboundedly; the admission decision returns a typed
//!   [`ErrorKind::Shed`](crate::protocol::ErrorKind::Shed) with a
//!   `Retry-After` hint.
//! * **Per-tenant token bucket** — each tenant refills at `rate` tokens/s
//!   up to `burst`; a request costs one token. A single greedy client
//!   drains only its own bucket, so other tenants keep getting served at
//!   full rate under overload.
//!
//! Time is injected by the caller (an `Instant`), which keeps the bucket
//! arithmetic purely functional and directly testable without sleeping.

use crate::protocol::{ApiError, ErrorKind};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Admission parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Sustained per-tenant request rate, tokens per second.
    pub rate: f64,
    /// Per-tenant burst capacity, tokens.
    pub burst: f64,
    /// Maximum requests executing at once before shedding.
    pub max_inflight: usize,
    /// Bound on tracked tenant buckets. Tenant names are client-chosen
    /// and unauthenticated, so without a bound a client rotating names
    /// grows the map for the daemon's lifetime; at the cap, fully
    /// refilled (idle) buckets are evicted first — recreating one later
    /// at full burst is indistinguishable from having kept it.
    pub max_tenants: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate: 200.0,
            burst: 400.0,
            max_inflight: 64,
            max_tenants: 1024,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    refilled: Instant,
}

/// The admission controller. Shared across server workers.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    buckets: Mutex<BTreeMap<String, Bucket>>,
    in_flight: AtomicUsize,
}

/// RAII in-flight slot: dropping it releases the watermark count, so a
/// panicking handler can never leak capacity.
#[derive(Debug)]
pub struct InFlightSlot<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for InFlightSlot<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Admission {
    /// Creates a controller.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            buckets: Mutex::new(BTreeMap::new()),
            in_flight: AtomicUsize::new(0),
        }
    }

    /// Requests currently holding an in-flight slot.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::SeqCst)
    }

    /// Decides admission for `tenant` at time `now`. On success the
    /// returned slot must be held for the lifetime of the request.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Shed`] when the in-flight watermark is reached or the
    /// tenant's bucket is empty; the error carries a `Retry-After` hint
    /// (1 s — one bucket refill quantum at the default rate).
    pub fn admit(&self, tenant: &str, now: Instant) -> Result<InFlightSlot<'_>, ApiError> {
        // Watermark first: it is the global backstop, and checking it
        // before the bucket means a saturated daemon does not drain
        // tenants' tokens for requests it would shed anyway.
        let mut current = self.in_flight.load(Ordering::SeqCst);
        loop {
            if current >= self.cfg.max_inflight {
                return Err(ApiError::new(
                    ErrorKind::Shed,
                    format!(
                        "in-flight watermark reached ({} executing)",
                        self.cfg.max_inflight
                    ),
                )
                .with_retry_after(1));
            }
            match self.in_flight.compare_exchange(
                current,
                current + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
        let slot = InFlightSlot {
            counter: &self.in_flight,
        };

        let mut buckets = self
            .buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if buckets.len() >= self.cfg.max_tenants.max(1) && !buckets.contains_key(tenant) {
            Self::evict(&mut buckets, &self.cfg, now);
        }
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.cfg.burst,
            refilled: now,
        });
        let elapsed = now.saturating_duration_since(bucket.refilled).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.cfg.rate).min(self.cfg.burst);
        bucket.refilled = now;
        if bucket.tokens < 1.0 {
            drop(slot);
            return Err(ApiError::new(
                ErrorKind::Shed,
                format!("tenant `{tenant}` is over its request rate"),
            )
            .with_retry_after(1));
        }
        bucket.tokens -= 1.0;
        Ok(slot)
    }

    /// Tenant buckets currently tracked (tests / metrics).
    pub fn tracked_tenants(&self) -> usize {
        self.buckets
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Makes room for one more bucket, keeping the map at or below
    /// `max_tenants` after the caller's insert.
    fn evict(buckets: &mut BTreeMap<String, Bucket>, cfg: &AdmissionConfig, now: Instant) {
        // Pass 1: drop every fully refilled bucket — pure idle state,
        // semantically identical to a bucket that was never tracked.
        buckets.retain(|_, b| {
            let elapsed = now.saturating_duration_since(b.refilled).as_secs_f64();
            b.tokens + elapsed * cfg.rate < cfg.burst
        });
        // Pass 2 (only with >= max_tenants *concurrently active* tenants):
        // drop the longest-idle buckets. Those tenants return later with a
        // fresh burst — a bounded fairness leak, paid only at the cap.
        let cap = cfg.max_tenants.max(1);
        if buckets.len() >= cap {
            let mut by_idle: Vec<(Instant, String)> = buckets
                .iter()
                .map(|(name, b)| (b.refilled, name.clone()))
                .collect();
            by_idle.sort_by_key(|&(refilled, _)| refilled);
            let excess = buckets.len() + 1 - cap;
            for (_, name) in by_idle.into_iter().take(excess) {
                buckets.remove(&name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg(rate: f64, burst: f64, max_inflight: usize) -> AdmissionConfig {
        AdmissionConfig {
            rate,
            burst,
            max_inflight,
            ..AdmissionConfig::default()
        }
    }

    #[test]
    fn burst_then_shed_then_refill() {
        let adm = Admission::new(cfg(10.0, 3.0, 100));
        let t0 = Instant::now();
        for _ in 0..3 {
            let slot = adm.admit("a", t0).expect("burst");
            drop(slot);
        }
        let err = adm.admit("a", t0).expect_err("bucket empty");
        assert_eq!(err.kind, ErrorKind::Shed);
        assert_eq!(err.retry_after_s, Some(1));
        // 200 ms at 10 tokens/s refills 2 tokens.
        let t1 = t0 + Duration::from_millis(200);
        assert!(adm.admit("a", t1).is_ok());
        assert!(adm.admit("a", t1).is_ok());
        assert_eq!(
            adm.admit("a", t1).expect_err("drained").kind,
            ErrorKind::Shed
        );
    }

    #[test]
    fn tenants_are_isolated() {
        let adm = Admission::new(cfg(1.0, 1.0, 100));
        let t0 = Instant::now();
        drop(adm.admit("greedy", t0).expect("first"));
        assert_eq!(
            adm.admit("greedy", t0).expect_err("greedy drained").kind,
            ErrorKind::Shed
        );
        // A different tenant still has its full burst.
        assert!(adm.admit("polite", t0).is_ok());
    }

    #[test]
    fn watermark_sheds_and_slots_release_on_drop() {
        let adm = Admission::new(cfg(1000.0, 1000.0, 2));
        let t0 = Instant::now();
        let s1 = adm.admit("a", t0).expect("slot 1");
        let s2 = adm.admit("b", t0).expect("slot 2");
        assert_eq!(adm.in_flight(), 2);
        let err = adm.admit("c", t0).expect_err("watermark");
        assert_eq!(err.kind, ErrorKind::Shed);
        drop(s1);
        assert_eq!(adm.in_flight(), 1);
        let s3 = adm.admit("c", t0).expect("freed slot");
        drop(s2);
        drop(s3);
        assert_eq!(adm.in_flight(), 0);
    }

    #[test]
    fn tenant_map_is_bounded_under_name_rotation() {
        let adm = Admission::new(AdmissionConfig {
            rate: 1000.0,
            burst: 5.0,
            max_inflight: 1000,
            max_tenants: 32,
        });
        let t0 = Instant::now();
        // A client rotating tenant names, one per millisecond: each
        // bucket refills fully 4 ms after use, so pass-1 eviction keeps
        // the map tiny no matter how many names are burned.
        for i in 0..1000u64 {
            let t = t0 + Duration::from_millis(i);
            drop(adm.admit(&format!("rotating-{i}"), t).expect("admit"));
            assert!(
                adm.tracked_tenants() <= 32,
                "map grew past the cap: {}",
                adm.tracked_tenants()
            );
        }
    }

    #[test]
    fn tenant_map_stays_bounded_even_when_no_bucket_refills() {
        // Pathological: refill so slow that no bucket is ever full again,
        // forcing the longest-idle fallback eviction.
        let adm = Admission::new(AdmissionConfig {
            rate: 1e-9,
            burst: 5.0,
            max_inflight: 1000,
            max_tenants: 8,
        });
        let t0 = Instant::now();
        for i in 0..100u64 {
            drop(adm.admit(&format!("rotating-{i}"), t0).expect("admit"));
        }
        assert!(
            adm.tracked_tenants() <= 8,
            "fallback eviction failed: {}",
            adm.tracked_tenants()
        );
    }

    #[test]
    fn eviction_pressure_does_not_refresh_a_drained_tenant() {
        // Refill far too slow to matter: the hog must stay rate-shed
        // across fallback evictions triggered by rotating names, because
        // its bucket is touched (refreshed) every iteration and is never
        // the longest-idle entry.
        let adm = Admission::new(AdmissionConfig {
            rate: 0.1,
            burst: 1.0,
            max_inflight: 1000,
            max_tenants: 4,
        });
        let t0 = Instant::now();
        drop(adm.admit("hog", t0).expect("burst"));
        for i in 0..10u64 {
            let t = t0 + Duration::from_millis(i + 1);
            drop(adm.admit(&format!("r{i}"), t).expect("admit"));
            assert_eq!(
                adm.admit("hog", t).expect_err("still drained").kind,
                ErrorKind::Shed
            );
            assert!(adm.tracked_tenants() <= 4);
        }
    }

    #[test]
    fn shed_requests_do_not_drain_the_bucket() {
        let adm = Admission::new(cfg(1000.0, 5.0, 1));
        let t0 = Instant::now();
        let held = adm.admit("a", t0).expect("hold the only slot");
        for _ in 0..10 {
            assert_eq!(adm.admit("a", t0).expect_err("shed").kind, ErrorKind::Shed);
        }
        drop(held);
        // The 10 shed attempts above must not have cost tokens: 4 remain.
        for _ in 0..4 {
            drop(adm.admit("a", t0).expect("tokens intact"));
        }
    }
}
