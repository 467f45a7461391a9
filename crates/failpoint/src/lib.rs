//! Deterministic failpoint injection for the ctsdac workspace.
//!
//! A failpoint is a **named site** in library code — `store.append`,
//! `journal.append`, `http.read`, `pool.chunk` — that consults a
//! [`Registry`] on every pass and receives either nothing (proceed
//! normally) or an injected [`Failure`] to act out. Sites are compiled in
//! unconditionally; an unarmed registry costs one relaxed atomic load per
//! site visit, so the hooks stay in release builds and chaos tests
//! exercise the *exact* binary that ships.
//!
//! Arming is a spec string, from the CLI (`--failpoints`) or the
//! `CTSDAC_FAILPOINTS` environment variable, of comma-separated
//! `KIND@SITE[[KEY]][:POLICY]` items, e.g.
//! `short_write@store.append:3,eintr@http.read:1/3,panic@pool.chunk[3]:1`:
//!
//! * `KIND` — `short_write`, `enospc`, `eintr`, `err` (I/O failures),
//!   `panic`, `nan`, `delay=MS` (a pool chunk attempt panics, returns
//!   NaN, or stalls) or `lag=MS` (a response is held back); each site
//!   documents which kinds it honours;
//! * `SITE` — the dotted site name; `[KEY]` restricts an item to one key
//!   of a *keyed* site ([`Registry::check_keyed`]; `pool.chunk` is keyed
//!   by chunk index), and without it the item applies to every key;
//! * `POLICY` — absent: every visit; `N`: the N-th visit only (1-based);
//!   `N..`: every visit from the N-th on; `1/N`: a seeded-pseudorandom
//!   1-in-N of visits.
//!
//! **Everything is deterministic.** On a plain site ([`Registry::check`])
//! a visit is a *hit*: counters advance once per hit, and `1/N` draws
//! from a [SplitMix64] stream seeded by `(seed, site, N)`, so the same
//! spec + seed against the same request sequence reproduces the same
//! firing pattern. On a keyed site a visit is a caller-numbered
//! *attempt* of one key: `N` is the N-th attempt of that key and `1/N`
//! draws from `(seed, site, key, attempt)`, so the verdict is a pure
//! function of (spec, seed, key, attempt) whatever the worker count,
//! scheduling, or number of runs the registry has served.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//!
//! Two registries exist: the process-global one ([`global`], [`check`])
//! that binaries arm at startup, and instance registries
//! ([`Registry::new`]) that tests thread through configuration so
//! parallel tests cannot interfere; [`or_global`] picks between them.
//!
//! # Examples
//!
//! ```
//! use ctsdac_failpoint::{Failure, Registry};
//!
//! let fp = Registry::new();
//! fp.arm("short_write@store.append:2", 42).unwrap();
//! assert_eq!(fp.check("store.append"), None);                      // hit 1
//! assert_eq!(fp.check("store.append"), Some(Failure::ShortWrite)); // hit 2
//! assert_eq!(fp.check("store.append"), None);                      // hit 3
//! assert_eq!(fp.fired("store.append"), 1);
//!
//! // Keyed: the first attempt of chunk 3 panics, whoever visits it when.
//! fp.arm("panic@pool.chunk[3]:1", 42).unwrap();
//! assert_eq!(fp.check_keyed("pool.chunk", 3, 0), vec![Failure::Panic]);
//! assert!(fp.check_keyed("pool.chunk", 3, 1).is_empty()); // the retry is clean
//! assert!(fp.check_keyed("pool.chunk", 2, 0).is_empty());
//! assert_eq!(fp.check_keyed("pool.chunk", 3, 0), vec![Failure::Panic]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What an armed site is asked to simulate.
///
/// The registry only *delivers* the verdict; each site acts it out in its
/// own idiom (a torn disk write, a fabricated `ENOSPC`, an `EINTR`ed
/// socket read, a panicking pool worker, a stalled response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Persist only a prefix of the bytes, then behave as if the process
    /// died — the on-disk image a crash mid-`write(2)` leaves behind.
    ShortWrite,
    /// Fabricate an out-of-space error from the operation.
    Enospc,
    /// Fabricate an interrupted-system-call error from the operation.
    Eintr,
    /// Fabricate a generic typed error from the operation.
    Err,
    /// Panic where the site runs (a supervised pool absorbs it).
    Panic,
    /// Corrupt the operation's numeric result to NaN (the operation's own
    /// validation must catch it).
    Nan,
    /// Stall this many milliseconds before the operation runs (pushes a
    /// chunk past its deadline).
    Delay(u64),
    /// Hold the response back this many milliseconds (slow-server
    /// injection for client-timeout testing).
    Lag(u64),
}

impl Failure {
    /// Stable spec-string name (without the `=MS` argument).
    pub fn name(self) -> &'static str {
        match self {
            Self::ShortWrite => "short_write",
            Self::Enospc => "enospc",
            Self::Eintr => "eintr",
            Self::Err => "err",
            Self::Panic => "panic",
            Self::Nan => "nan",
            Self::Delay(_) => "delay",
            Self::Lag(_) => "lag",
        }
    }

    /// Parses `KIND` or, for the timed kinds, `KIND=MS`.
    fn parse(s: &str) -> Option<Self> {
        let (kind, ms) = match s.split_once('=') {
            Some((kind, ms)) => (kind, Some(ms.parse::<u64>().ok()?)),
            None => (s, None),
        };
        match (kind, ms) {
            ("short_write", None) => Some(Self::ShortWrite),
            ("enospc", None) => Some(Self::Enospc),
            ("eintr", None) => Some(Self::Eintr),
            ("err", None) => Some(Self::Err),
            ("panic", None) => Some(Self::Panic),
            ("nan", None) => Some(Self::Nan),
            ("delay", Some(ms)) => Some(Self::Delay(ms)),
            ("lag", Some(ms)) => Some(Self::Lag(ms)),
            _ => None,
        }
    }
}

/// When an armed failure fires, in visits of its site (hits of a plain
/// site, attempts of one key of a keyed site).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// Every visit.
    Always,
    /// The n-th visit only (1-based).
    On(u64),
    /// Every visit from the n-th on (1-based).
    From(u64),
    /// A seeded 1-in-n of visits.
    OneIn(u64),
}

impl Policy {
    /// Whether the 1-based `visit` fires; `draw` supplies the `1/N` coin.
    fn fires(self, visit: u64, draw: impl FnOnce() -> u64) -> bool {
        match self {
            Self::Always => true,
            Self::On(n) => visit == n,
            Self::From(n) => visit >= n,
            Self::OneIn(n) => draw().is_multiple_of(n),
        }
    }
}

/// One armed `KIND@SITE[[KEY]]:POLICY` entry.
#[derive(Debug)]
struct Armed {
    kind: Failure,
    /// `Some(k)`: a keyed item, visited only by `check_keyed` with key k.
    key: Option<u64>,
    policy: Policy,
    hits: u64,
    fired: u64,
    /// `(seed, site, N)` folded into one word: the plain `1/N` stream's
    /// start and the keyed draws' base.
    seed: u64,
    /// SplitMix64 state for the plain `1/N` policy.
    rng: u64,
}

impl Armed {
    /// Advances this arming by one plain site hit and reports whether it
    /// fires.
    fn advance(&mut self) -> bool {
        self.hits += 1;
        let rng = &mut self.rng;
        let fire = self.policy.fires(self.hits, || splitmix64(rng));
        self.fired += u64::from(fire);
        fire
    }

    /// Whether this arming fires on zero-based attempt `attempt` of `key`:
    /// a pure function of the arming, the key and the attempt.
    fn fires_keyed(&mut self, key: u64, attempt: u32) -> bool {
        if self.key.is_some_and(|k| k != key) {
            return false;
        }
        let mut draw = self.seed
            ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ u64::from(attempt).rotate_left(32);
        let fire = self
            .policy
            .fires(u64::from(attempt) + 1, || splitmix64(&mut draw));
        self.fired += u64::from(fire);
        fire
    }
}

/// One SplitMix64 step: advances the state, returns the output word.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit, used to fold a site name into the firing seed.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A malformed arming spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending spec item.
    pub item: String,
    /// One-line description of what is wrong with it.
    pub detail: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "failpoint spec '{}': {}", self.item, self.detail)
    }
}

impl std::error::Error for SpecError {}

fn spec_err(item: &str, detail: impl Into<String>) -> SpecError {
    SpecError {
        item: item.to_string(),
        detail: detail.into(),
    }
}

/// A set of armed failpoints.
///
/// Cheap when empty: [`Registry::check`] and [`Registry::check_keyed`]
/// are one relaxed load until the first [`Registry::arm`]. All mutation
/// is behind one mutex that recovers from poisoning (a panicking site
/// must not wedge injection for every other thread).
#[derive(Debug, Default)]
pub struct Registry {
    /// Number of armed entries; the fast-path gate.
    armed: AtomicUsize,
    sites: Mutex<BTreeMap<String, Vec<Armed>>>,
}

impl Registry {
    /// An empty registry (all sites pass through).
    pub const fn new() -> Self {
        Self {
            armed: AtomicUsize::new(0),
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// A new registry armed with `spec` (see [`Registry::arm`]), shared —
    /// the form configuration structs take.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on the first malformed item.
    pub fn armed(spec: &str, seed: u64) -> Result<Arc<Self>, SpecError> {
        let fp = Self::new();
        fp.arm(spec, seed)?;
        Ok(Arc::new(fp))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<Armed>>> {
        self.sites
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Arms every item of a comma-separated spec string with the given
    /// firing seed. Returns the number of items armed; an empty spec arms
    /// nothing and is not an error. Arming is additive.
    ///
    /// # Errors
    ///
    /// [`SpecError`] on the first malformed item; earlier valid items in
    /// the same call are rolled back, so a bad spec arms nothing.
    pub fn arm(&self, spec: &str, seed: u64) -> Result<usize, SpecError> {
        let mut staged: Vec<(String, Armed)> = Vec::new();
        for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (kind, rest) = item.split_once('@').ok_or_else(|| {
                spec_err(item, "missing '@' (expected KIND@SITE[[KEY]][:POLICY])")
            })?;
            let kind = Failure::parse(kind).ok_or_else(|| {
                spec_err(
                    item,
                    "unknown kind (expected short_write|enospc|eintr|err|panic|nan|delay=MS|lag=MS)",
                )
            })?;
            let (site, policy) = match rest.split_once(':') {
                None => (rest, Policy::Always),
                Some((site, p)) => (site, parse_policy(item, p)?),
            };
            let (site, key) = match site.strip_suffix(']').and_then(|s| s.split_once('[')) {
                None => (site, None),
                Some((site, key)) => {
                    let key = key
                        .parse()
                        .map_err(|_| spec_err(item, "key must be SITE[K] with K a u64"))?;
                    (site, Some(key))
                }
            };
            if site.is_empty() || site.contains(['[', ']']) {
                return Err(spec_err(item, "empty or malformed site name"));
            }
            let ratio_n = match policy {
                Policy::OneIn(n) => n,
                _ => 0,
            };
            let seed = seed ^ fnv1a64(site.as_bytes()) ^ ratio_n.rotate_left(17);
            staged.push((
                site.to_string(),
                Armed {
                    kind,
                    key,
                    policy,
                    hits: 0,
                    fired: 0,
                    seed,
                    rng: seed,
                },
            ));
        }
        let n = staged.len();
        if n > 0 {
            let mut sites = self.lock();
            for (site, armed) in staged {
                sites.entry(site).or_default().push(armed);
            }
            self.armed.fetch_add(n, Ordering::Release);
        }
        Ok(n)
    }

    /// One plain site visit: advances every unkeyed arming of `site` and
    /// returns the first failure that fires, or `None`. Keyed items
    /// (`SITE[K]`) never fire here.
    ///
    /// This is the call sites place inline; with nothing armed it is one
    /// relaxed atomic load.
    #[inline]
    pub fn check(&self, site: &str) -> Option<Failure> {
        if self.armed.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.check_slow(site)
    }

    fn check_slow(&self, site: &str) -> Option<Failure> {
        let mut sites = self.lock();
        let armings = sites.get_mut(site)?;
        let mut verdict = None;
        for armed in armings.iter_mut().filter(|a| a.key.is_none()) {
            // Every arming advances on every hit — determinism requires
            // the counters not to depend on which arming fired first.
            if armed.advance() && verdict.is_none() {
                verdict = Some(armed.kind);
            }
        }
        verdict
    }

    /// One visit of a keyed site: zero-based attempt `attempt` of `key`.
    /// Returns every failure that fires, in arming order (an attempt may
    /// be both delayed and panicked), empty when none does.
    ///
    /// The verdict is a pure function of (spec, seed, key, attempt): no
    /// state carries between visits, so it does not depend on worker
    /// count, visit order, or earlier runs against the same registry.
    /// With nothing armed it is one relaxed atomic load.
    #[inline]
    pub fn check_keyed(&self, site: &str, key: u64, attempt: u32) -> Vec<Failure> {
        if self.armed.load(Ordering::Acquire) == 0 {
            return Vec::new();
        }
        let mut sites = self.lock();
        let Some(armings) = sites.get_mut(site) else {
            return Vec::new();
        };
        armings
            .iter_mut()
            .filter_map(|a| a.fires_keyed(key, attempt).then_some(a.kind))
            .collect()
    }

    /// Total failures fired at `site`, summed over its armings.
    pub fn fired(&self, site: &str) -> u64 {
        self.lock()
            .get(site)
            .map(|v| v.iter().map(|a| a.fired).sum())
            .unwrap_or(0)
    }

    /// Number of armed entries across all sites.
    pub fn armed_count(&self) -> usize {
        self.armed.load(Ordering::Acquire)
    }
}

fn parse_policy(item: &str, p: &str) -> Result<Policy, SpecError> {
    if let Some((one, n)) = p.split_once('/') {
        if one != "1" {
            return Err(spec_err(item, "ratio policy must be 1/N"));
        }
        let n: u64 = n
            .parse()
            .map_err(|_| spec_err(item, "unparseable N in 1/N"))?;
        if n == 0 {
            return Err(spec_err(item, "1/0 never fires; use a positive N"));
        }
        return Ok(Policy::OneIn(n));
    }
    if let Some(n) = p.strip_suffix("..") {
        let n: u64 = n
            .parse()
            .map_err(|_| spec_err(item, "unparseable N in N.."))?;
        if n == 0 {
            return Err(spec_err(item, "visits are 1-based; N.. needs N >= 1"));
        }
        return Ok(Policy::From(n));
    }
    let n: u64 = p
        .parse()
        .map_err(|_| spec_err(item, "policy must be N, N.., or 1/N"))?;
    if n == 0 {
        return Err(spec_err(item, "visits are 1-based; use N >= 1"));
    }
    Ok(Policy::On(n))
}

// ---------------------------------------------------------------------------
// Process-global registry
// ---------------------------------------------------------------------------

static GLOBAL: Registry = Registry::new();

/// The process-global registry, armed by binaries at startup.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// One visit of `site` against the global registry — the form library
/// sites use inline.
#[inline]
pub fn check(site: &str) -> Option<Failure> {
    GLOBAL.check(site)
}

/// The registry a component configured with `fp` consults: its own when
/// set (tests), otherwise the process-global one (binaries).
pub fn or_global(fp: Option<&Registry>) -> &Registry {
    fp.unwrap_or(&GLOBAL)
}

/// Environment variable holding the global arming spec.
pub const ENV_SPEC: &str = "CTSDAC_FAILPOINTS";
/// Environment variable holding the global firing seed (default 0).
pub const ENV_SEED: &str = "CTSDAC_FAILPOINT_SEED";

/// Arms the global registry from [`ENV_SPEC`] / [`ENV_SEED`]. Absent
/// variables arm nothing. Returns the number of items armed.
///
/// # Errors
///
/// [`SpecError`] when the spec (or seed) is present but malformed.
pub fn arm_global_from_env() -> Result<usize, SpecError> {
    let Ok(spec) = std::env::var(ENV_SPEC) else {
        return Ok(0);
    };
    let seed = match std::env::var(ENV_SEED) {
        Err(_) => 0,
        Ok(s) => s
            .parse()
            .map_err(|_| spec_err(&s, format!("{ENV_SEED} must be a u64")))?,
    };
    GLOBAL.arm(&spec, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_registry_is_silent() {
        let fp = Registry::new();
        for _ in 0..100 {
            assert_eq!(fp.check("store.append"), None);
        }
        assert_eq!(fp.armed_count(), 0);
    }

    #[test]
    fn always_policy_fires_every_hit() {
        let fp = Registry::new();
        assert_eq!(fp.arm("enospc@store.rotate", 0).expect("arm"), 1);
        for _ in 0..3 {
            assert_eq!(fp.check("store.rotate"), Some(Failure::Enospc));
        }
        assert_eq!(fp.check("store.append"), None, "other sites untouched");
        assert_eq!(fp.fired("store.rotate"), 3);
    }

    #[test]
    fn nth_hit_and_from_hit_policies() {
        let fp = Registry::new();
        fp.arm("short_write@a:3,eintr@b:2..", 7).expect("arm");
        let a: Vec<_> = (0..5).map(|_| fp.check("a")).collect();
        assert_eq!(a, vec![None, None, Some(Failure::ShortWrite), None, None]);
        let b: Vec<_> = (0..4).map(|_| fp.check("b")).collect();
        assert_eq!(
            b,
            vec![
                None,
                Some(Failure::Eintr),
                Some(Failure::Eintr),
                Some(Failure::Eintr)
            ]
        );
    }

    #[test]
    fn ratio_policy_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let fp = Registry::new();
            fp.arm("err@site.x:1/3", seed).expect("arm");
            (0..64).map(|_| fp.check("site.x").is_some()).collect()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same firing pattern");
        assert_ne!(a, run(43), "different seed, different pattern");
        let fired = a.iter().filter(|&&f| f).count();
        assert!(
            (8..=40).contains(&fired),
            "1/3 of 64 hits should fire roughly 21 times, got {fired}"
        );
    }

    #[test]
    fn multiple_armings_on_one_site_all_advance() {
        let fp = Registry::new();
        fp.arm("eintr@s:1,err@s:2", 0).expect("arm");
        assert_eq!(fp.check("s"), Some(Failure::Eintr));
        assert_eq!(fp.check("s"), Some(Failure::Err));
        assert_eq!(fp.check("s"), None);
        assert_eq!(fp.fired("s"), 2);
    }

    #[test]
    fn arm_is_additive() {
        let fp = Registry::new();
        fp.arm("err@x", 0).expect("arm");
        fp.arm("err@y", 0).expect("arm");
        assert_eq!(fp.armed_count(), 2);
        assert!(fp.check("x").is_some() && fp.check("y").is_some());
    }

    #[test]
    fn malformed_specs_arm_nothing() {
        let fp = Registry::new();
        for bad in [
            "no_at_sign",
            "bogus_kind@site",
            "err@",
            "err@site:0",
            "err@site:2/3",
            "err@site:1/0",
            "err@site:0..",
            "err@site:x",
            "err@ok,short_write@tail:oops", // later item bad: all rolled back
            "panic@pool.chunk[x]:1",
            "panic@pool.chunk[]",
            "panic@[3]:1",
            "panic@pool.chunk[3",
            "delay@pool.chunk[3]",
            "lag=fast@service.handler",
        ] {
            let e = fp.arm(bad, 0).expect_err(bad);
            assert!(!e.to_string().is_empty());
            assert_eq!(fp.armed_count(), 0, "partial arm leaked for {bad:?}");
        }
        // Empty items are skipped, not errors.
        assert_eq!(fp.arm("", 0).expect("empty"), 0);
        assert_eq!(fp.arm(" , ,", 0).expect("blank items"), 0);
    }

    #[test]
    fn global_registry_round_trips() {
        // Serialized against other tests touching the global by using a
        // site name unique to this test.
        global().arm("err@test.global.site:1", 0).expect("arm");
        assert_eq!(check("test.global.site"), Some(Failure::Err));
        assert_eq!(check("test.global.site"), None);
    }

    #[test]
    fn failure_names_round_trip() {
        for f in [
            Failure::ShortWrite,
            Failure::Enospc,
            Failure::Eintr,
            Failure::Err,
            Failure::Panic,
            Failure::Nan,
        ] {
            assert_eq!(Failure::parse(f.name()), Some(f));
        }
        assert_eq!(Failure::parse("delay=150"), Some(Failure::Delay(150)));
        assert_eq!(Failure::parse("lag=0"), Some(Failure::Lag(0)));
        for bad in ["delay", "lag", "delay=x", "panic=3", "boom"] {
            assert_eq!(Failure::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn keyed_items_fire_on_attempts_of_their_key() {
        let fp = Registry::new();
        fp.arm(
            "panic@pool.chunk[3]:1,panic@pool.chunk[3]:2,nan@pool.chunk[7]:2..,\
             delay=25@pool.chunk[1],nan@pool.chunk[1]:1",
            0,
        )
        .expect("arm");
        let visit = |key, attempt| fp.check_keyed("pool.chunk", key, attempt);
        assert_eq!(visit(3, 0), vec![Failure::Panic]);
        assert_eq!(visit(3, 1), vec![Failure::Panic]);
        assert!(visit(3, 2).is_empty());
        assert!(visit(7, 0).is_empty());
        assert_eq!(visit(7, 1), vec![Failure::Nan]);
        assert_eq!(visit(7, 9), vec![Failure::Nan]);
        // One visit fires every kind armed for it, in arming order.
        assert_eq!(visit(1, 0), vec![Failure::Delay(25), Failure::Nan]);
        assert_eq!(visit(1, 3), vec![Failure::Delay(25)]);
        assert!(visit(0, 0).is_empty());
        // Revisiting repeats the verdict: nothing is counted across visits.
        assert_eq!(visit(3, 0), vec![Failure::Panic]);
        assert_eq!(fp.fired("pool.chunk"), 1 + 1 + 2 + 3 + 1);
        // Keyed items are invisible to plain checks of the same site.
        assert_eq!(fp.check("pool.chunk"), None);
    }

    #[test]
    fn keyed_ratio_is_a_pure_function_of_seed_key_and_attempt() {
        let pattern = |seed: u64, order: &[u64]| {
            let fp = Registry::new();
            fp.arm("panic@pool.chunk:1/3", seed).expect("arm");
            let mut fired: Vec<(u64, u32)> = Vec::new();
            for &key in order {
                for attempt in 0..4 {
                    if !fp.check_keyed("pool.chunk", key, attempt).is_empty() {
                        fired.push((key, attempt));
                    }
                }
            }
            fired.sort_unstable();
            fired
        };
        let forward: Vec<u64> = (0..32).collect();
        let backward: Vec<u64> = (0..32).rev().collect();
        let a = pattern(9, &forward);
        assert_eq!(a, pattern(9, &backward), "visit order must not matter");
        assert_ne!(a, pattern(10, &forward), "the seed must matter");
        assert!(
            (16..=70).contains(&a.len()),
            "1/3 of 128 attempts should fire roughly 43 times, got {}",
            a.len()
        );
    }
}
