//! Crash-consistent durable store for the ctsdac service cache.
//!
//! An append-only **segment log**: every cache fill becomes a checksummed
//! record appended to the active segment file, every cache eviction a
//! tombstone record. On daemon startup a recovery scan walks the
//! segments, validates each record, discards torn or bit-rotted tails
//! record-granularly, and hands back the surviving `key → value` entries
//! so the in-memory cache restarts warm with **bit-identical** response
//! bytes.
//!
//! # On-disk format
//!
//! A store directory holds segment files `seg-00000042.log`, each
//! opening with the 8-byte magic `CTSDSTR1` followed by records:
//!
//! ```text
//! record  := [len: u32 le] [checksum: u64 le] [body: len bytes]
//! body    := [kind: u8] [key_len: u32 le] [key: key_len bytes] [value: rest]
//! kind    := 1 (put) | 2 (evict tombstone)
//! checksum = FNV-1a 64 over body
//! ```
//!
//! The length prefix delimits, the checksum guards against both torn
//! writes (a crash mid-`write(2)`) and bit rot; the value length is
//! implicit (`len - 5 - key_len`), so every body byte is covered. Keys
//! and values are UTF-8 (the service's canonical identity strings and
//! rendered JSON results); undecodable bytes fail the record like a bad
//! checksum does.
//!
//! # Recovery
//!
//! Segments are scanned in index order, records applied in append order
//! (later puts supersede earlier ones; tombstones delete). Within a
//! segment, the scan stops at the first damaged record — short header,
//! absurd length, checksum mismatch, undecodable body — and counts one
//! discarded tail; **later segments are unaffected**, so damage never
//! cascades past a rotation boundary. Recovered segments are never
//! appended to (a fresh active segment is created on every open), so
//! damaged tails need no truncation: they are skipped on every scan and
//! physically dropped by the next compaction.
//!
//! # Write path
//!
//! [`Store::put`] / [`Store::evict`] enqueue and return — the service's
//! hot path never blocks on I/O. A flusher thread drains the queue on a
//! bounded interval ([`StoreConfig::fsync_interval`]), appends the batch,
//! and issues **one** `fdatasync` per batch. Segments rotate past
//! [`StoreConfig::segment_bytes`]; compaction rewrites live records into
//! a fresh segment when the log exceeds [`StoreConfig::cap_bytes`] or is
//! mostly dead, dropping superseded puts, tombstoned entries, and — if
//! the live set alone exceeds the cap — the FIFO-oldest entries.
//!
//! Any write failure, real or injected via a
//! [`ctsdac_failpoint`] site ([`SITE_APPEND`], [`SITE_ROTATE`],
//! [`SITE_COMPACT`]), flips the store into **degraded mode**: persistence
//! stops, the daemon keeps serving from memory, and nothing panics — a
//! full disk must never take down the service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ctsdac_failpoint::{Failure, Registry};
use ctsdac_obs::{self as obs, Counter};

/// Failpoint site consulted before every record append.
/// Honours `short_write` (persist a torn prefix, then degrade) and any
/// other kind as a generic append failure.
pub const SITE_APPEND: &str = "store.append";
/// Failpoint site consulted before opening a rotation segment.
pub const SITE_ROTATE: &str = "store.rotate";
/// Failpoint site consulted before a compaction pass.
pub const SITE_COMPACT: &str = "store.compact";

const MAGIC: &[u8; 8] = b"CTSDSTR1";
/// Bytes of framing per record: u32 length + u64 FNV-1a checksum.
const HEADER_BYTES: usize = 12;
/// Body bytes ahead of the key: kind byte + u32 key length.
const BODY_PREFIX: usize = 5;
/// Sanity cap on a single record; anything larger is damage.
const MAX_RECORD: u64 = 16 << 20;
const KIND_PUT: u8 = 1;
const KIND_EVICT: u8 = 2;

/// FNV-1a 64-bit over a byte slice (record checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Configuration and errors
// ---------------------------------------------------------------------------

/// Durable-store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Directory holding the segment files (created if missing).
    pub dir: PathBuf,
    /// Upper bound on how long an enqueued record may wait before its
    /// batch is flushed and fdatasync'd.
    pub fsync_interval: Duration,
    /// Rotate the active segment once it grows past this many bytes.
    pub segment_bytes: u64,
    /// Compact once total on-disk bytes exceed this; after compaction the
    /// FIFO-oldest live entries are dropped until the rest fit.
    pub cap_bytes: u64,
    /// Failpoint registry to consult; `None` uses the process-global one.
    pub failpoints: Option<Arc<Registry>>,
}

impl StoreConfig {
    /// Defaults: 25 ms fsync batching, 4 MiB segments, 64 MiB cap.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync_interval: Duration::from_millis(25),
            segment_bytes: 4 << 20,
            cap_bytes: 64 << 20,
            failpoints: None,
        }
    }
}

/// A store I/O failure surfaced from [`Store::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// Path the operation failed on.
    pub path: String,
    /// One-line description of the failure.
    pub detail: String,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error at {}: {}", self.path, self.detail)
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, e: &std::io::Error) -> StoreError {
    StoreError {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

/// What the recovery scan rebuilt, returned by [`Store::open`].
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Surviving entries in FIFO order (oldest write first), bit-identical
    /// to the bytes originally passed to [`Store::put`].
    pub entries: Vec<(String, String)>,
    /// Live entries rebuilt (`entries.len()`, as a counter-friendly u64).
    pub records_recovered: u64,
    /// Damaged record tails discarded (one per segment with damage).
    pub records_discarded: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

fn encode_record(kind: u8, key: &str, value: &str) -> Vec<u8> {
    let body_len = BODY_PREFIX + key.len() + value.len();
    let mut body = Vec::with_capacity(body_len);
    body.push(kind);
    body.extend_from_slice(&(key.len() as u32).to_le_bytes());
    body.extend_from_slice(key.as_bytes());
    body.extend_from_slice(value.as_bytes());
    let mut out = Vec::with_capacity(HEADER_BYTES + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Parses one record at the head of `buf`. `None` means damage (torn,
/// rotted, or misframed) — the caller discards the rest of the segment.
fn parse_record(buf: &[u8]) -> Option<(u8, String, String, usize)> {
    if buf.len() < HEADER_BYTES {
        return None;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len < BODY_PREFIX || len as u64 > MAX_RECORD || buf.len() - HEADER_BYTES < len {
        return None;
    }
    let sum = u64::from_le_bytes([
        buf[4], buf[5], buf[6], buf[7], buf[8], buf[9], buf[10], buf[11],
    ]);
    let body = &buf[HEADER_BYTES..HEADER_BYTES + len];
    if fnv1a64(body) != sum {
        return None;
    }
    let kind = body[0];
    if kind != KIND_PUT && kind != KIND_EVICT {
        return None;
    }
    let key_len = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
    if BODY_PREFIX + key_len > len {
        return None;
    }
    let key = std::str::from_utf8(&body[BODY_PREFIX..BODY_PREFIX + key_len]).ok()?;
    let value = std::str::from_utf8(&body[BODY_PREFIX + key_len..]).ok()?;
    Some((kind, key.to_string(), value.to_string(), HEADER_BYTES + len))
}

// ---------------------------------------------------------------------------
// Segment scan (shared by recovery and compaction)
// ---------------------------------------------------------------------------

fn seg_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(format!("seg-{idx:08}.log"))
}

fn parse_seg_name(name: &str) -> Option<u64> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    if stem.len() < 8 || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

#[derive(Debug)]
struct ScanEntry {
    key: String,
    value: String,
    /// On-disk bytes of the record that carries this entry.
    bytes: u64,
}

#[derive(Debug, Default)]
struct Scan {
    /// Live entries in FIFO order of their latest write.
    entries: Vec<ScanEntry>,
    discarded: u64,
    total_bytes: u64,
    segs: Vec<u64>,
    max_idx: u64,
}

fn scan_dir(dir: &Path) -> Result<Scan, StoreError> {
    let mut segs: Vec<u64> = Vec::new();
    let listing = fs::read_dir(dir).map_err(|e| io_err(dir, &e))?;
    for entry in listing {
        let entry = entry.map_err(|e| io_err(dir, &e))?;
        if let Some(idx) = parse_seg_name(&entry.file_name().to_string_lossy()) {
            segs.push(idx);
        }
    }
    segs.sort_unstable();
    // FIFO rebuild: a put claims a fresh slot (voiding the key's old
    // slot), a tombstone voids it; surviving slots are the entries in
    // order of their latest write.
    let mut slots: Vec<Option<ScanEntry>> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut discarded = 0u64;
    let mut total_bytes = 0u64;
    for &idx in &segs {
        let path = seg_path(dir, idx);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                discarded += 1;
                continue;
            }
        };
        total_bytes += bytes.len() as u64;
        if bytes.is_empty() {
            // Crash before the magic hit the disk: an empty shell, not a
            // damaged record.
            continue;
        }
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            discarded += 1;
            continue;
        }
        let mut off = MAGIC.len();
        while off < bytes.len() {
            match parse_record(&bytes[off..]) {
                Some((kind, key, value, rec_len)) => {
                    if kind == KIND_PUT {
                        if let Some(&i) = index.get(&key) {
                            slots[i] = None;
                        }
                        index.insert(key.clone(), slots.len());
                        slots.push(Some(ScanEntry {
                            key,
                            value,
                            bytes: rec_len as u64,
                        }));
                    } else if let Some(i) = index.remove(&key) {
                        slots[i] = None;
                    }
                    off += rec_len;
                }
                None => {
                    discarded += 1;
                    break;
                }
            }
        }
    }
    let max_idx = segs.last().copied().unwrap_or(0);
    Ok(Scan {
        entries: slots.into_iter().flatten().collect(),
        discarded,
        total_bytes,
        segs,
        max_idx,
    })
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Op {
    Put { key: String, value: String },
    Evict { key: String },
}

#[derive(Debug, Default)]
struct State {
    queue: VecDeque<Op>,
    /// Sequence number of the latest enqueued op.
    seq: u64,
    /// Sequence number through which ops are durably applied (or
    /// abandoned by degradation).
    applied: u64,
    flush_waiters: u32,
    stop: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    cond: Condvar,
    degraded: AtomicBool,
    fsync_interval: Duration,
    failpoints: Option<Arc<Registry>>,
}

impl Shared {
    fn fp_check(&self, site: &str) -> Option<Failure> {
        ctsdac_failpoint::or_global(self.failpoints.as_deref()).check(site)
    }
}

fn lock_state(shared: &Shared) -> MutexGuard<'_, State> {
    shared
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wait<'a>(shared: &Shared, g: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    shared
        .cond
        .wait(g)
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn wait_timeout<'a>(
    shared: &Shared,
    g: MutexGuard<'a, State>,
    d: Duration,
) -> MutexGuard<'a, State> {
    match shared.cond.wait_timeout(g, d) {
        Ok((g, _)) => g,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

/// The durable result store: non-blocking writers, one flusher thread.
#[derive(Debug)]
pub struct Store {
    shared: Arc<Shared>,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl Store {
    /// Opens (or creates) a store directory: runs the recovery scan,
    /// starts a fresh active segment and the flusher thread, and returns
    /// the surviving entries for cache priming.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be created or listed, or
    /// the fresh active segment cannot be started. Damaged *records* are
    /// never an error — they are counted and discarded.
    pub fn open(cfg: StoreConfig) -> Result<(Self, Recovery), StoreError> {
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, &e))?;
        let scan = scan_dir(&cfg.dir)?;
        let recovery = Recovery {
            records_recovered: scan.entries.len() as u64,
            records_discarded: scan.discarded,
            segments_scanned: scan.segs.len() as u64,
            entries: scan
                .entries
                .iter()
                .map(|e| (e.key.clone(), e.value.clone()))
                .collect(),
        };
        obs::count(Counter::StoreRecordsRecovered, recovery.records_recovered);
        obs::count(Counter::StoreRecordsDiscarded, recovery.records_discarded);

        let active_idx = scan.max_idx.saturating_add(1);
        let path = seg_path(&cfg.dir, active_idx);
        let mut file = File::create(&path).map_err(|e| io_err(&path, &e))?;
        file.write_all(MAGIC)
            .and_then(|_| file.flush())
            .and_then(|_| file.sync_data())
            .map_err(|e| io_err(&path, &e))?;
        obs::record_gauge(Counter::StoreSegments, scan.segs.len() as u64 + 1);

        let mut live: BTreeMap<String, u64> = BTreeMap::new();
        let mut live_bytes = 0u64;
        for e in &scan.entries {
            live.insert(e.key.clone(), e.bytes);
            live_bytes += e.bytes;
        }
        let writer = Writer {
            dir: cfg.dir.clone(),
            file,
            active_idx,
            active_bytes: MAGIC.len() as u64,
            sealed_bytes: scan.total_bytes,
            seg_count: scan.segs.len() as u64 + 1,
            live,
            live_bytes,
            segment_bytes: cfg.segment_bytes.max(1),
            cap_bytes: cfg.cap_bytes.max(1),
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            cond: Condvar::new(),
            degraded: AtomicBool::new(false),
            fsync_interval: cfg.fsync_interval,
            failpoints: cfg.failpoints,
        });
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("dac-store-flush".to_string())
            .spawn(move || flusher_loop(worker_shared, writer))
            .map_err(|e| io_err(&cfg.dir, &e))?;
        Ok((
            Self {
                shared,
                flusher: Mutex::new(Some(handle)),
            },
            recovery,
        ))
    }

    /// Enqueues a durable write of `key → value`. Returns immediately;
    /// the record reaches disk within one fsync interval. No-op once the
    /// store is degraded or closed.
    pub fn put(&self, key: &str, value: &str) {
        self.enqueue(Op::Put {
            key: key.to_string(),
            value: value.to_string(),
        });
    }

    /// Enqueues an eviction tombstone for `key` (compaction later drops
    /// both the tombstone and the puts it voids). Non-blocking.
    pub fn evict(&self, key: &str) {
        self.enqueue(Op::Evict {
            key: key.to_string(),
        });
    }

    fn enqueue(&self, op: Op) {
        if self.shared.degraded.load(Ordering::Acquire) {
            return;
        }
        let mut g = lock_state(&self.shared);
        if g.stop {
            return;
        }
        g.seq += 1;
        g.queue.push_back(op);
        drop(g);
        self.shared.cond.notify_all();
    }

    /// Blocks until every op enqueued before this call is durably on disk
    /// (or the store degraded / closed, whichever happens first).
    pub fn flush(&self) {
        let mut g = lock_state(&self.shared);
        let target = g.seq;
        g.flush_waiters += 1;
        self.shared.cond.notify_all();
        while g.applied < target && !g.stop && !self.shared.degraded.load(Ordering::Acquire) {
            g = wait(&self.shared, g);
        }
        g.flush_waiters -= 1;
    }

    /// Whether the store has hit an I/O failure (real or injected) and
    /// stopped persisting. The daemon keeps serving from memory.
    pub fn is_degraded(&self) -> bool {
        self.shared.degraded.load(Ordering::Acquire)
    }

    /// Drains the queue, syncs, and stops the flusher thread. Idempotent;
    /// also invoked by `Drop`.
    pub fn close(&self) {
        {
            let mut g = lock_state(&self.shared);
            g.stop = true;
        }
        self.shared.cond.notify_all();
        let handle = {
            let mut h = self
                .flusher
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            h.take()
        };
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Flusher thread
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Writer {
    dir: PathBuf,
    file: File,
    active_idx: u64,
    active_bytes: u64,
    sealed_bytes: u64,
    seg_count: u64,
    /// key → on-disk bytes of its latest put record.
    live: BTreeMap<String, u64>,
    live_bytes: u64,
    segment_bytes: u64,
    cap_bytes: u64,
}

/// Flips the store into degraded mode: abandon the queue, release every
/// flush waiter, stop persisting. Never called with the state lock held.
fn degrade(shared: &Shared) {
    shared.degraded.store(true, Ordering::Release);
    let mut g = lock_state(shared);
    g.queue.clear();
    g.applied = g.seq;
    drop(g);
    shared.cond.notify_all();
}

fn flusher_loop(shared: Arc<Shared>, mut w: Writer) {
    loop {
        // Wait for work or shutdown.
        let (batch, target, stopping) = {
            let mut g = lock_state(&shared);
            while g.queue.is_empty() && !g.stop {
                g = wait(&shared, g);
            }
            if g.queue.is_empty() {
                let _ = w.file.sync_data();
                return;
            }
            // Coalescing window: batch everything that arrives within one
            // fsync interval, unless someone is blocked in flush() or we
            // are shutting down.
            if !g.stop && g.flush_waiters == 0 && !shared.fsync_interval.is_zero() {
                let deadline = Instant::now() + shared.fsync_interval;
                loop {
                    if g.stop || g.flush_waiters > 0 {
                        break;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    g = wait_timeout(&shared, g, deadline - now);
                }
            }
            let batch: Vec<Op> = g.queue.drain(..).collect();
            (batch, g.seq, g.stop)
        };

        let mut ok = true;
        for op in &batch {
            if !append_op(&shared, &mut w, op) {
                ok = false;
                break;
            }
        }
        if ok {
            ok = w.file.flush().and_then(|_| w.file.sync_data()).is_ok();
            if ok {
                obs::incr(Counter::StoreFsyncs);
            }
        }
        if ok && w.active_bytes > w.segment_bytes {
            ok = rotate(&shared, &mut w);
        }
        if ok {
            let total = w.sealed_bytes + w.active_bytes;
            let framing = MAGIC.len() as u64 * w.seg_count;
            let dead = total.saturating_sub(w.live_bytes + framing);
            if total > w.cap_bytes || (dead * 2 > total && total > w.segment_bytes) {
                ok = compact(&shared, &mut w);
            }
        }
        if !ok {
            degrade(&shared);
            if stopping {
                return;
            }
            continue;
        }
        {
            let mut g = lock_state(&shared);
            if g.applied < target {
                g.applied = target;
            }
        }
        shared.cond.notify_all();
        if stopping {
            // One more pass picks up anything enqueued during the write;
            // the empty-queue branch above then syncs and exits.
            continue;
        }
    }
}

/// Appends one record. `false` means the store must degrade (torn or
/// failed write, real or injected).
fn append_op(shared: &Shared, w: &mut Writer, op: &Op) -> bool {
    let (kind, key, value) = match op {
        Op::Put { key, value } => (KIND_PUT, key.as_str(), value.as_str()),
        Op::Evict { key } => (KIND_EVICT, key.as_str(), ""),
    };
    let rec = encode_record(kind, key, value);
    match shared.fp_check(SITE_APPEND) {
        Some(Failure::ShortWrite) => {
            // Persist a torn prefix — the exact on-disk image a crash
            // mid-write leaves — then stop persisting.
            let half = rec.len() / 2;
            let _ = w
                .file
                .write_all(&rec[..half])
                .and_then(|_| w.file.flush())
                .and_then(|_| w.file.sync_data());
            return false;
        }
        Some(_) => return false,
        None => {}
    }
    if w.file.write_all(&rec).is_err() {
        return false;
    }
    let n = rec.len() as u64;
    w.active_bytes += n;
    obs::incr(Counter::StoreRecordsAppended);
    if kind == KIND_PUT {
        if let Some(old) = w.live.insert(key.to_string(), n) {
            w.live_bytes -= old;
        }
        w.live_bytes += n;
    } else if let Some(old) = w.live.remove(key) {
        w.live_bytes -= old;
    }
    true
}

/// Seals the active segment and opens the next one.
fn rotate(shared: &Shared, w: &mut Writer) -> bool {
    if shared.fp_check(SITE_ROTATE).is_some() {
        return false;
    }
    if w.file.sync_data().is_err() {
        return false;
    }
    let idx = w.active_idx.saturating_add(1);
    let path = seg_path(&w.dir, idx);
    let mut file = match File::create(&path) {
        Ok(f) => f,
        Err(_) => return false,
    };
    if file.write_all(MAGIC).and_then(|_| file.flush()).is_err() {
        return false;
    }
    w.file = file;
    w.active_idx = idx;
    w.sealed_bytes += w.active_bytes;
    w.active_bytes = MAGIC.len() as u64;
    w.seg_count += 1;
    obs::record_gauge(Counter::StoreSegments, w.seg_count);
    true
}

/// Rewrites the live set into one fresh segment and deletes the old
/// segments. Drops FIFO-oldest entries if the live set alone exceeds the
/// byte cap.
fn compact(shared: &Shared, w: &mut Writer) -> bool {
    if shared.fp_check(SITE_COMPACT).is_some() {
        return false;
    }
    if w.file.sync_data().is_err() {
        return false;
    }
    let scan = match scan_dir(&w.dir) {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut entries = scan.entries;
    let mut live_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    let mut dropped = 0usize;
    while live_bytes + MAGIC.len() as u64 > w.cap_bytes && !entries.is_empty() {
        live_bytes -= entries[dropped].bytes;
        dropped += 1;
    }
    let entries = &entries.split_off(dropped);

    let idx = w.active_idx.saturating_add(1);
    let path = seg_path(&w.dir, idx);
    let mut file = match File::create(&path) {
        Ok(f) => f,
        Err(_) => return false,
    };
    let mut write = file.write_all(MAGIC);
    for e in entries.iter() {
        if write.is_err() {
            break;
        }
        write = file.write_all(&encode_record(KIND_PUT, &e.key, &e.value));
    }
    if write
        .and_then(|_| file.flush())
        .and_then(|_| file.sync_data())
        .is_err()
    {
        let _ = fs::remove_file(&path);
        return false;
    }
    for &old in &scan.segs {
        if old != idx {
            let _ = fs::remove_file(seg_path(&w.dir, old));
        }
    }
    w.live = entries.iter().map(|e| (e.key.clone(), e.bytes)).collect();
    w.live_bytes = entries.iter().map(|e| e.bytes).sum();
    w.file = file;
    w.active_idx = idx;
    w.active_bytes = MAGIC.len() as u64 + w.live_bytes;
    w.sealed_bytes = 0;
    w.seg_count = 1;
    obs::incr(Counter::StoreCompactions);
    obs::record_gauge(Counter::StoreSegments, 1);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    static TEST_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ctsdac-store-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg(dir: &Path) -> StoreConfig {
        let mut cfg = StoreConfig::new(dir);
        cfg.fsync_interval = Duration::from_millis(1);
        cfg
    }

    #[test]
    fn record_codec_round_trips() {
        let rec = encode_record(KIND_PUT, "k1", "{\"v\":1.5}");
        let (kind, key, value, len) = parse_record(&rec).expect("parse");
        assert_eq!(kind, KIND_PUT);
        assert_eq!(key, "k1");
        assert_eq!(value, "{\"v\":1.5}");
        assert_eq!(len, rec.len());
        // Tombstones carry no value.
        let rec = encode_record(KIND_EVICT, "k1", "");
        let (kind, key, value, _) = parse_record(&rec).expect("parse");
        assert_eq!((kind, key.as_str(), value.as_str()), (KIND_EVICT, "k1", ""));
    }

    #[test]
    fn put_flush_reopen_recovers_bit_identically() {
        let dir = temp_dir("roundtrip");
        let (store, rec) = Store::open(small_cfg(&dir)).expect("open");
        assert_eq!(rec.records_recovered, 0);
        store.put("a", "{\"x\":0x1.8p0}");
        store.put("b", "{\"y\":2}");
        store.put("a", "{\"x\":3}"); // supersedes
        store.evict("b");
        store.put("c", "{\"z\":4}");
        store.flush();
        store.close();
        let (_store, rec) = Store::open(small_cfg(&dir)).expect("reopen");
        assert_eq!(rec.records_discarded, 0);
        assert_eq!(
            rec.entries,
            vec![
                ("a".to_string(), "{\"x\":3}".to_string()),
                ("c".to_string(), "{\"z\":4}".to_string()),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_without_flush_still_persists() {
        let dir = temp_dir("drop");
        {
            let (store, _) = Store::open(small_cfg(&dir)).expect("open");
            store.put("k", "v");
            // No flush(): Drop must drain the queue before exiting.
        }
        let (_s, rec) = Store::open(small_cfg(&dir)).expect("reopen");
        assert_eq!(rec.entries, vec![("k".to_string(), "v".to_string())]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let dir = temp_dir("rotate");
        let mut cfg = small_cfg(&dir);
        cfg.segment_bytes = 256;
        let (store, _) = Store::open(cfg.clone()).expect("open");
        for i in 0..20 {
            store.put(&format!("key-{i:03}"), &"x".repeat(64));
            store.flush();
        }
        store.close();
        let n_segs = fs::read_dir(&dir)
            .expect("ls")
            .filter_map(|e| parse_seg_name(&e.expect("ent").file_name().to_string_lossy()))
            .count();
        assert!(n_segs > 1, "expected rotation, got {n_segs} segment(s)");
        let (_s, rec) = Store::open(cfg).expect("reopen");
        assert_eq!(rec.records_recovered, 20);
        assert_eq!(rec.records_discarded, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_and_respects_cap() {
        let dir = temp_dir("compact");
        let mut cfg = small_cfg(&dir);
        cfg.segment_bytes = 512;
        cfg.cap_bytes = 2048;
        let (store, _) = Store::open(cfg.clone()).expect("open");
        // Rewrite one key many times: almost everything is dead bytes.
        for i in 0..50 {
            store.put("hot", &format!("{{\"i\":{i}}}"));
            store.flush();
        }
        store.put("cold", "{\"c\":1}");
        store.flush();
        store.close();
        let disk: u64 = fs::read_dir(&dir)
            .expect("ls")
            .map(|e| e.expect("ent").metadata().expect("meta").len())
            .sum();
        assert!(disk <= 2048, "cap not enforced: {disk} bytes on disk");
        let (_s, rec) = Store::open(cfg).expect("reopen");
        let mut keys: Vec<&str> = rec.entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec!["cold", "hot"]);
        assert_eq!(
            rec.entries
                .iter()
                .find(|(k, _)| k == "hot")
                .map(|(_, v)| v.as_str()),
            Some("{\"i\":49}")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_discarded_not_fatal() {
        let dir = temp_dir("torn");
        let (store, _) = Store::open(small_cfg(&dir)).expect("open");
        store.put("good", "{\"g\":1}");
        store.put("torn", "{\"t\":2}");
        store.flush();
        store.close();
        // Tear the tail of the only non-empty segment.
        let seg = fs::read_dir(&dir)
            .expect("ls")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| fs::metadata(p).map(|m| m.len() > 8).unwrap_or(false))
            .max()
            .expect("segment");
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 3]).expect("tear");
        let (_s, rec) = Store::open(small_cfg(&dir)).expect("reopen");
        assert_eq!(rec.records_discarded, 1);
        assert_eq!(
            rec.entries,
            vec![("good".to_string(), "{\"g\":1}".to_string())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_degrades_without_panic() {
        let dir = temp_dir("shortwrite");
        let fp = Arc::new(Registry::new());
        fp.arm("short_write@store.append:2", 7).expect("arm");
        let mut cfg = small_cfg(&dir);
        cfg.failpoints = Some(Arc::clone(&fp));
        let (store, _) = Store::open(cfg).expect("open");
        store.put("one", "{\"n\":1}");
        store.flush();
        store.put("two", "{\"n\":2}"); // torn by the failpoint
        store.put("three", "{\"n\":3}"); // dropped: store is degraded
        store.flush(); // must not hang
        assert!(store.is_degraded());
        store.close();
        let (_s, rec) = Store::open(small_cfg(&dir)).expect("reopen");
        assert_eq!(rec.records_discarded, 1, "torn record counted");
        assert_eq!(
            rec.entries,
            vec![("one".to_string(), "{\"n\":1}".to_string())]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_on_rotate_degrades() {
        let dir = temp_dir("enospc");
        let fp = Arc::new(Registry::new());
        fp.arm("enospc@store.rotate", 0).expect("arm");
        let mut cfg = small_cfg(&dir);
        cfg.segment_bytes = 64;
        cfg.failpoints = Some(Arc::clone(&fp));
        let (store, _) = Store::open(cfg).expect("open");
        store.put("k", &"x".repeat(128)); // overflows the segment → rotate → injected ENOSPC
        store.flush();
        assert!(store.is_degraded());
        assert!(fp.fired("store.rotate") >= 1);
        store.close();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_in_store_dir_are_ignored() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("README.txt"), "not a segment").expect("write");
        fs::write(dir.join("seg-bogus.log"), "nope").expect("write");
        let (store, rec) = Store::open(small_cfg(&dir)).expect("open");
        assert_eq!(rec.segments_scanned, 0);
        assert_eq!(rec.records_discarded, 0);
        store.close();
        let _ = fs::remove_dir_all(&dir);
    }
}
