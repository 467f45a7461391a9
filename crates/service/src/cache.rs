//! Content-addressed result cache with single-flight deduplication.
//!
//! Keys are the full [`cache_key`](crate::protocol::cache_key) canonical
//! request identity strings — not hashes of them, so two distinct
//! requests can never collide into serving each other's bytes; values
//! are the *rendered result bytes*, so a cache hit re-serves the exact
//! byte string of the first computation — bit-identical responses for
//! identical requests, by construction.
//!
//! **Single-flight**: when N identical requests arrive concurrently, the
//! first becomes the *leader* and computes; the other N−1 become
//! *followers* and block on a condvar until the leader fulfills the key.
//! A leader that fails (or dies — see [`LeaderGuard`]) wakes the
//! followers, and the next one promotes itself to leader rather than
//! serving a stale error: only successful results are ever cached.
//!
//! Capacity is bounded two ways, both FIFO: an entry count and a **byte
//! budget** over `key + rendered value` sizes, so one pathological sweep
//! response cannot blow the daemon's memory. The byte high-water mark is
//! surfaced as `service.cache.bytes_high_water`. The cache is a
//! dedup/latency device, not a store, so recency bookkeeping is not
//! worth the locking.
//!
//! For durability the cache is persistence-agnostic: the server *primes*
//! it from the store's recovery scan ([`ResultCache::prime`]) and
//! registers an eviction hook ([`ResultCache::set_evict_hook`]) that
//! writes tombstones, keeping disk and memory in sync without the cache
//! knowing what a disk is.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use ctsdac_obs::{self as obs, Counter};

/// Called with each evicted key, outside the cache lock.
type EvictHook = Box<dyn Fn(&str) + Send + Sync>;

#[derive(Debug, Default)]
struct CacheInner {
    /// `ready`, `order`, `pending` and the store's writer (through
    /// [`LeaderGuard::key`]) share one allocation per key.
    ready: BTreeMap<Arc<str>, String>,
    order: VecDeque<Arc<str>>,
    pending: Vec<Arc<str>>,
    /// Sum of `key.len() + value.len()` over `ready`.
    bytes: usize,
}

/// The shared cache.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    wake: Condvar,
    capacity: usize,
    max_bytes: usize,
    evict_hook: Mutex<Option<EvictHook>>,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("max_bytes", &self.max_bytes)
            .finish_non_exhaustive()
    }
}

/// Outcome of [`ResultCache::claim`].
#[derive(Debug, PartialEq, Eq)]
pub enum Claim {
    /// The rendered result was cached; serve these bytes.
    Hit(String),
    /// This caller is the leader: compute, then call
    /// [`ResultCache::fulfill`] (the [`LeaderGuard`] enforces it).
    Lead,
    /// The caller's deadline expired while waiting for a leader.
    TimedOut,
}

/// Leadership obligation: fulfilled explicitly with a result, or on drop
/// with "no result" — so a panicking leader still wakes its followers
/// instead of wedging them until their deadlines.
#[derive(Debug)]
pub struct LeaderGuard<'a> {
    cache: &'a ResultCache,
    key: Arc<str>,
    done: bool,
}

impl LeaderGuard<'_> {
    /// The claimed key, the allocation the cache keeps once the result
    /// is fulfilled; share it rather than copying the key.
    pub fn key(&self) -> &Arc<str> {
        &self.key
    }

    /// Publishes a successful result (cached + followers woken), or
    /// withdraws leadership on failure (followers woken; the next one
    /// promotes itself).
    pub fn fulfill(mut self, result: Option<&str>) {
        self.done = true;
        self.cache.fulfill(&self.key, result);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.fulfill(&self.key, None);
        }
    }
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` rendered results with
    /// no byte budget (tests; the server always sets one).
    pub fn new(capacity: usize) -> Self {
        Self::with_byte_limit(capacity, usize::MAX)
    }

    /// Creates a cache bounded by `capacity` entries **and** `max_bytes`
    /// of `key + value` payload, whichever bites first.
    pub fn with_byte_limit(capacity: usize, max_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner::default()),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            max_bytes: max_bytes.max(1),
            evict_hook: Mutex::new(None),
        }
    }

    /// Registers the eviction hook, called with each evicted key after
    /// the cache lock is released. The server points this at the durable
    /// store's tombstone writer. Register *after* [`ResultCache::prime`]:
    /// entries that do not fit at prime time should stay on disk, not be
    /// tombstoned.
    pub fn set_evict_hook(&self, hook: impl Fn(&str) + Send + Sync + 'static) {
        let mut g = self
            .evict_hook
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *g = Some(Box::new(hook));
    }

    /// Inserts recovered `(key, value)` entries directly (no leader
    /// protocol), respecting both bounds; returns how many were
    /// inserted. Used once at startup to warm the cache from the store.
    pub fn prime<K: Into<Arc<str>>>(
        &self,
        entries: impl IntoIterator<Item = (K, String)>,
    ) -> usize {
        let mut evicted = Vec::new();
        let mut n = 0;
        {
            let mut inner = self.lock();
            for (key, value) in entries {
                let key = key.into();
                if inner.ready.contains_key(&key) {
                    continue;
                }
                self.insert_locked(&mut inner, key, &value, &mut evicted);
                n += 1;
            }
        }
        self.run_evict_hook(&evicted);
        n
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resolves `key` to a hit, a leadership claim, or a timeout.
    ///
    /// `deadline` bounds how long a follower may wait for its leader;
    /// `None` waits indefinitely (only sensible in tests).
    pub fn claim(&self, key: &str, deadline: Option<Instant>) -> (Claim, Option<LeaderGuard<'_>>) {
        let mut inner = self.lock();
        loop {
            if let Some(hit) = inner.ready.get(key) {
                return (Claim::Hit(hit.clone()), None);
            }
            if !inner.pending.iter().any(|k| &**k == key) {
                let key: Arc<str> = Arc::from(key);
                inner.pending.push(Arc::clone(&key));
                let guard = LeaderGuard {
                    cache: self,
                    key,
                    done: false,
                };
                return (Claim::Lead, Some(guard));
            }
            // Follower: wait for the leader, bounded by the deadline.
            inner = match deadline {
                None => self
                    .wake
                    .wait(inner)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return (Claim::TimedOut, None);
                    }
                    self.wake
                        .wait_timeout(inner, d - now)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
            };
        }
    }

    /// Completes a pending key (used by [`LeaderGuard`]).
    fn fulfill(&self, key: &Arc<str>, result: Option<&str>) {
        let mut evicted = Vec::new();
        {
            let mut inner = self.lock();
            inner.pending.retain(|k| k != key);
            if let Some(body) = result {
                if !inner.ready.contains_key(key) {
                    self.insert_locked(&mut inner, Arc::clone(key), body, &mut evicted);
                }
            }
        }
        self.wake.notify_all();
        self.run_evict_hook(&evicted);
    }

    /// Inserts and then evicts FIFO until both bounds hold, collecting
    /// evicted keys for the (lock-free) hook call.
    fn insert_locked(
        &self,
        inner: &mut CacheInner,
        key: Arc<str>,
        value: &str,
        evicted: &mut Vec<Arc<str>>,
    ) {
        inner.order.push_back(Arc::clone(&key));
        inner.bytes += key.len() + value.len();
        inner.ready.insert(key, value.to_string());
        while inner.ready.len() > self.capacity || inner.bytes > self.max_bytes {
            let Some(old) = inner.order.pop_front() else {
                break;
            };
            if let Some(v) = inner.ready.remove(&old) {
                inner.bytes -= old.len() + v.len();
                evicted.push(old);
            }
        }
        obs::record_max(Counter::ServiceCacheBytesHighWater, inner.bytes as u64);
    }

    fn run_evict_hook(&self, evicted: &[Arc<str>]) {
        if evicted.is_empty() {
            return;
        }
        let hook = self
            .evict_hook
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(hook) = hook.as_ref() {
            for key in evicted {
                hook(key);
            }
        }
    }

    /// Cached result count (tests / metrics).
    pub fn len(&self) -> usize {
        self.lock().ready.len()
    }

    /// Resident payload bytes (`key + value` over all cached entries).
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn leader_fulfills_and_hits_are_byte_identical() {
        let cache = ResultCache::new(8);
        let (claim, guard) = cache.claim("k1", None);
        assert_eq!(claim, Claim::Lead);
        guard.expect("leader").fulfill(Some("{\"r\":0.125}"));
        for _ in 0..3 {
            let (claim, guard) = cache.claim("k1", None);
            assert!(guard.is_none());
            assert_eq!(claim, Claim::Hit("{\"r\":0.125}".into()));
        }
    }

    #[test]
    fn failed_leader_promotes_a_follower_not_a_stale_error() {
        let cache = Arc::new(ResultCache::new(8));
        let (claim, guard) = cache.claim("k9", None);
        assert_eq!(claim, Claim::Lead);

        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.claim("k9", None).0)
        };
        std::thread::sleep(Duration::from_millis(30));
        // Leader fails: nothing cached, follower must take over.
        guard.expect("leader").fulfill(None);
        let promoted = follower.join().expect("join");
        assert_eq!(promoted, Claim::Lead);
        assert!(cache.is_empty());
    }

    #[test]
    fn dropped_leader_guard_wakes_followers() {
        let cache = Arc::new(ResultCache::new(8));
        let (_, guard) = cache.claim("k5", None);
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.claim("k5", None).0)
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(guard); // leader "panicked": obligation discharged by Drop
        assert_eq!(follower.join().expect("join"), Claim::Lead);
    }

    #[test]
    fn follower_times_out_on_a_stuck_leader() {
        let cache = ResultCache::new(8);
        let (_, guard) = cache.claim("k3", None);
        let deadline = Instant::now() + Duration::from_millis(50);
        let (claim, _) = cache.claim("k3", Some(deadline));
        assert_eq!(claim, Claim::TimedOut);
        drop(guard);
    }

    #[test]
    fn single_flight_computes_once_under_contention() {
        let cache = Arc::new(ResultCache::new(8));
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let (claim, guard) = cache.claim("k77", None);
                match claim {
                    Claim::Lead => {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        guard.expect("lead").fulfill(Some("{\"v\":1}"));
                        "{\"v\":1}".to_string()
                    }
                    Claim::Hit(body) => body,
                    Claim::TimedOut => panic!("no deadline set"),
                }
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("join"), "{\"v\":1}");
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one compute");
    }

    #[test]
    fn byte_budget_evicts_fifo_and_reports_evicted_keys() {
        let cache = Arc::new(ResultCache::with_byte_limit(64, 24));
        let evicted = Arc::new(Mutex::new(Vec::<String>::new()));
        {
            let evicted = Arc::clone(&evicted);
            cache.set_evict_hook(move |k| evicted.lock().expect("hook lock").push(k.to_string()));
        }
        // Each entry is 1 (key) + 9 (value) = 10 bytes; the 3rd pushes the
        // total to 30 > 24 and must evict the oldest.
        for key in ["a", "b", "c"] {
            let (_, guard) = cache.claim(key, None);
            guard.expect("lead").fulfill(Some("123456789"));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.bytes(), 20);
        assert_eq!(*evicted.lock().expect("lock"), vec!["a".to_string()]);
        let (claim, _guard) = cache.claim("a", None);
        assert_eq!(claim, Claim::Lead, "evicted key misses");
    }

    #[test]
    fn oversized_single_entry_does_not_wedge_the_cache() {
        let cache = ResultCache::with_byte_limit(8, 16);
        let (_, guard) = cache.claim("big", None);
        guard.expect("lead").fulfill(Some(&"x".repeat(100)));
        // Too large to retain: evicted immediately, cache stays sane.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        let (_, guard) = cache.claim("small", None);
        guard.expect("lead").fulfill(Some("ok"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prime_warms_the_cache_without_leader_protocol() {
        let cache = ResultCache::with_byte_limit(2, 1024);
        let n = cache.prime(vec![
            ("k1".to_string(), "v1".to_string()),
            ("k2".to_string(), "v2".to_string()),
            ("k1".to_string(), "dup-ignored".to_string()),
            ("k3".to_string(), "v3".to_string()), // overflows capacity 2 → k1 evicted
        ]);
        assert_eq!(n, 3);
        assert_eq!(cache.len(), 2);
        let (claim, _) = cache.claim("k3", None);
        assert_eq!(claim, Claim::Hit("v3".into()));
        let (claim, _) = cache.claim("k2", None);
        assert_eq!(claim, Claim::Hit("v2".into()));
        let (claim, _guard) = cache.claim("k1", None);
        assert_eq!(claim, Claim::Lead, "FIFO-oldest primed entry evicted");
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let cache = ResultCache::new(2);
        for key in ["a", "b", "c", "d"] {
            let (_, guard) = cache.claim(key, None);
            guard.expect("lead").fulfill(Some("x"));
        }
        assert_eq!(cache.len(), 2);
        // Oldest keys evicted: claiming them yields leadership again.
        let (claim, _guard) = cache.claim("a", None);
        assert_eq!(claim, Claim::Lead);
        let (claim, _) = cache.claim("d", None);
        assert!(matches!(claim, Claim::Hit(_)));
    }
}
