//! Kill-9 durability on the real binary: a `dacd --store` process is
//! SIGKILLed mid-write — with a deterministic `short_write` failpoint
//! tearing the final record exactly as a crash inside `write(2)` would —
//! and the restarted daemon must serve the surviving entries as cache
//! hits **bit-identical** to the pre-crash responses, report the torn
//! tail in `store.records_discarded`, and recompute only what was lost.
//!
//! A second test re-runs the crash with the same failpoint spec and seed
//! and asserts the on-disk damage is byte-for-byte reproducible — the
//! point of a *deterministic* failpoint registry.

mod common;

use common::{get, post};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Tear the third append: grids 8 and 9 reach the disk whole, grid 10's
/// record is half-written when the store degrades.
const TORN_SPEC: &str = "short_write@store.append:3";
const SEED: &str = "7";

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ctsdac-durability-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
    /// Keeps the stdout pipe open until the daemon exits — dropping it
    /// early would turn the farewell banner into an EPIPE.
    _stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_dacd(store: &Path, extra: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dacd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--stdin-shutdown",
        ])
        .arg("--store")
        .arg(store)
        .args(["--fsync-ms", "5"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dacd");
    let stdout = child.stdout.take().expect("stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim_end()
        .strip_prefix("listening on ")
        .expect("banner format")
        .parse()
        .expect("address");
    Daemon {
        child,
        addr,
        _stdout: reader,
    }
}

impl Daemon {
    /// Graceful drain: close stdin (EOF → drain) and require exit 0.
    fn drain(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("dacd exit");
        assert!(status.success(), "dacd exited with {status:?}");
    }

    /// The crash under test: SIGKILL, no cleanup, no flush.
    fn kill_nine(mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
    }
}

/// Reads one counter out of the live `/v1/metrics` snapshot. The
/// snapshot is embedded in the response as a JSON string, so its quotes
/// arrive escaped: `\"store.records_appended\": 2`.
fn metric(addr: SocketAddr, name: &str) -> u64 {
    let body = get(addr, "/v1/metrics").expect("metrics").body;
    let key = format!("\\\"{name}\\\": ");
    let start = match body.find(&key) {
        Some(p) => p + key.len(),
        None => panic!("metric {name} missing from snapshot: {body}"),
    };
    let digits: String = body[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("counter value")
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Phase 1 of both tests: serve grids 8/9/10 with the torn-write
/// failpoint armed, wait for the two whole records (and then the torn
/// third) to hit the disk, and SIGKILL. Returns the three result bodies.
fn torn_run(dir: &Path) -> Vec<String> {
    let daemon = spawn_dacd(dir, &["--failpoints", TORN_SPEC, "--failpoint-seed", SEED]);
    let mut results = Vec::new();
    for grid in [8, 9, 10] {
        let r =
            post(daemon.addr, "/v1/sizing", &format!("{{\"grid\":{grid}}}")).expect("sizing reply");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"cache\":\"miss\""), "{}", r.body);
        results.push(r.result_object().expect("result").to_string());
    }
    // The write-behind flusher lands the two whole records within one
    // fsync interval; the third append fires the failpoint, syncs its
    // torn half, and degrades the store. Wait for the successful appends
    // to show up, give the torn half a generous moment, then pull the
    // plug.
    wait_until("two durable appends", || {
        metric(daemon.addr, "store.records_appended") >= 2
    });
    std::thread::sleep(Duration::from_millis(300));
    daemon.kill_nine();
    results
}

fn segment_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("ls store dir")
        .filter_map(|e| e.ok())
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read segment");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn kill_nine_mid_write_restart_serves_bit_identical_hits() {
    let dir = temp_dir("kill9");
    let originals = torn_run(&dir);

    // Restart clean on the same directory: recovery rebuilds grids 8 and
    // 9 from the segment log and counts the torn grid-10 tail.
    let daemon = spawn_dacd(&dir, &[]);
    assert_eq!(metric(daemon.addr, "store.records_recovered"), 2);
    assert_eq!(metric(daemon.addr, "store.records_discarded"), 1);

    for (i, grid) in [8, 9].into_iter().enumerate() {
        let r = post(daemon.addr, "/v1/sizing", &format!("{{\"grid\":{grid}}}"))
            .expect("recovered reply");
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(
            r.body.contains("\"cache\":\"hit\""),
            "grid {grid} not served from the recovered store: {}",
            r.body
        );
        assert_eq!(
            r.result_object().expect("result"),
            originals[i],
            "recovered grid {grid} diverged from the pre-crash bytes"
        );
    }
    // The torn entry is gone: grid 10 recomputes — to the same result,
    // because the physics is deterministic — and re-persists.
    let r = post(daemon.addr, "/v1/sizing", "{\"grid\":10}").expect("recompute");
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cache\":\"miss\""), "{}", r.body);
    assert_eq!(r.result_object().expect("result"), originals[2]);

    daemon.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn same_failpoint_spec_and_seed_reproduce_identical_damage() {
    let dir_a = temp_dir("repro-a");
    let dir_b = temp_dir("repro-b");
    let res_a = torn_run(&dir_a);
    let res_b = torn_run(&dir_b);
    assert_eq!(res_a, res_b, "served results must be deterministic");

    let segs_a = segment_files(&dir_a);
    let segs_b = segment_files(&dir_b);
    assert!(!segs_a.is_empty(), "crash left no segments behind");
    assert_eq!(
        segs_a, segs_b,
        "same failpoint spec + seed must leave byte-identical damage"
    );

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
