//! Torn-write and bit-rot recovery: the segment log must survive damage
//! to its final record at *any* byte.
//!
//! A kill during the last `write(2)` leaves a prefix of the final record
//! — any prefix — and disks additionally rot single bytes. For every
//! possible truncation point inside the final record, and for every
//! single-byte flip inside it, recovery must never panic, must discard
//! at most the damaged tail (counting it), and must rebuild every intact
//! entry bit-identically.

use ctsdac_store::{Store, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Entries written to the pristine store, in FIFO order. The values are
/// shaped like the service's rendered JSON so recovery round-trips the
/// real payload class, full f64 digits included.
const ENTRIES: [(&str, &str); 3] = [
    (
        "sizing:g8",
        "{\"area\":1.4142135623730951,\"feasible\":true}",
    ),
    (
        "sizing:g9",
        "{\"area\":2.718281828459045,\"feasible\":true}",
    ),
    (
        "sizing:g10",
        "{\"area\":3.141592653589793,\"feasible\":false}",
    ),
];

static CASE_SEQ: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str) -> PathBuf {
    let n = CASE_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ctsdac-torn-store-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(dir: &Path) -> StoreConfig {
    let mut cfg = StoreConfig::new(dir);
    cfg.fsync_interval = Duration::from_millis(1);
    cfg
}

/// Writes the three entries through a real store and returns the bytes
/// of the one segment that holds them.
fn pristine_segment(tag: &str) -> (PathBuf, Vec<u8>) {
    let dir = case_dir(tag);
    let (store, rec) = Store::open(cfg(&dir)).expect("open");
    assert_eq!(rec.records_recovered, 0, "fresh dir must start empty");
    for (k, v) in ENTRIES {
        store.put(k, v);
    }
    store.flush();
    store.close();
    let seg = std::fs::read_dir(&dir)
        .expect("ls")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| std::fs::metadata(p).map(|m| m.len() > 8).unwrap_or(false))
        .min() // the first (and only) data-bearing segment
        .expect("data segment");
    let bytes = std::fs::read(&seg).expect("read segment");
    (dir, bytes)
}

/// Walks the record framing (u32 little-endian length prefix + u64
/// checksum, after the 8-byte magic) and returns the offset where the
/// final record starts.
fn final_record_start(seg: &[u8]) -> usize {
    let mut off = 8; // magic
    let mut last = off;
    while off < seg.len() {
        let len = u32::from_le_bytes([seg[off], seg[off + 1], seg[off + 2], seg[off + 3]]);
        last = off;
        off += 12 + len as usize;
    }
    assert_eq!(off, seg.len(), "pristine segment must frame cleanly");
    last
}

/// Opens a store over a single mutated segment and returns the recovery.
fn recover(tag: &str, case: usize, mutated: &[u8]) -> ctsdac_store::Recovery {
    let dir = case_dir(&format!("{tag}-{case}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("seg-00000001.log"), mutated).expect("write segment");
    let (store, rec) = Store::open(cfg(&dir)).expect("recovery must never fail");
    store.close();
    let _ = std::fs::remove_dir_all(&dir);
    rec
}

fn assert_intact_prefix(rec: &ctsdac_store::Recovery, n: usize, what: &str) {
    let expect: Vec<(String, String)> = ENTRIES[..n]
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    assert_eq!(rec.entries, expect, "intact entries diverged at {what}");
    assert_eq!(rec.records_recovered, n as u64, "{what}");
}

#[test]
fn truncation_at_every_byte_of_the_final_record_is_survivable() {
    let (base, seg) = pristine_segment("trunc-base");
    let tail = final_record_start(&seg);

    for cut in tail..seg.len() {
        let rec = recover("trunc", cut, &seg[..cut]);
        assert_intact_prefix(&rec, 2, &format!("cut {cut}"));
        if cut == tail {
            // The record is gone cleanly: nothing to discard.
            assert_eq!(rec.records_discarded, 0, "phantom discard at cut {cut}");
        } else {
            // A strict prefix survives: exactly the torn tail is dropped.
            assert_eq!(rec.records_discarded, 1, "tail not counted at cut {cut}");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn bit_flip_at_every_byte_of_the_final_record_is_survivable() {
    let (base, seg) = pristine_segment("flip-base");
    let tail = final_record_start(&seg);

    for off in tail..seg.len() {
        let mut mutated = seg.clone();
        mutated[off] ^= 0xFF;
        let rec = recover("flip", off, &mutated);
        // Every byte of the final record is covered: the length prefix
        // breaks framing, the checksum fails verification, and any body
        // byte fails the checksum — so the flip is always detected.
        assert_intact_prefix(&rec, 2, &format!("flip at {off}"));
        assert_eq!(rec.records_discarded, 1, "flip at {off} not detected");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn damage_mid_segment_discards_from_the_damage_onward_only() {
    let (base, seg) = pristine_segment("mid-base");
    // Flip one byte inside the *second* record's body: the scan stops
    // there, keeping record one and dropping two and three as one
    // discarded tail.
    let mut off = 8;
    let len0 = u32::from_le_bytes([seg[8], seg[9], seg[10], seg[11]]) as usize;
    off += 12 + len0; // start of record two
    let mut mutated = seg.clone();
    mutated[off + 12] ^= 0xFF; // first body byte of record two
    let rec = recover("mid", 0, &mutated);
    assert_intact_prefix(&rec, 1, "mid-segment flip");
    assert_eq!(rec.records_discarded, 1);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn recovered_store_stays_writable_after_discarding_a_torn_tail() {
    let (base, seg) = pristine_segment("resume-base");
    let tail = final_record_start(&seg);
    let dir = case_dir("resume");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("seg-00000001.log"), &seg[..tail + 3]).expect("write");

    // First recovery drops the torn tail; the store then accepts new
    // writes into a fresh segment.
    let (store, rec) = Store::open(cfg(&dir)).expect("open");
    assert_eq!(rec.records_discarded, 1);
    store.put(ENTRIES[2].0, ENTRIES[2].1); // re-fill the lost entry
    store.flush();
    assert!(!store.is_degraded());
    store.close();

    // Second recovery sees all three entries again, and the damaged tail
    // is still skipped without cascading.
    let (_s, rec) = Store::open(cfg(&dir)).expect("reopen");
    assert_intact_prefix(&rec, 3, "after re-fill");
    assert_eq!(rec.records_discarded, 1, "old tail still counted");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}
