//! Metrics determinism through the service layer: the snapshot's
//! `"deterministic"` section (work counters only — solver iterations,
//! sweep points, MC trials) must be byte-identical whether requests run
//! on a 1-wide or an 8-wide runtime pool, even under concurrent load.
//!
//! This lives in its own test binary on purpose: the obs registry is
//! process-global, and any concurrently running physics would pollute
//! the counters.

mod common;

use common::post;
use ctsdac::obs;
use ctsdac::service::server::{start, ServerConfig};
use std::time::Duration;

/// Extracts the `"deterministic": {...}` section of a snapshot.
fn deterministic_section(snapshot: &str) -> String {
    let start = snapshot
        .find("\"deterministic\"")
        .expect("snapshot has a deterministic section");
    let end = snapshot[start..]
        .find("\"nondeterministic\"")
        .expect("snapshot has a nondeterministic section");
    snapshot[start..start + end].to_string()
}

/// Runs the same request mix against a fresh daemon at pool width
/// `jobs`, returning the deterministic metrics section accumulated by
/// exactly that load. With `store` set, the daemon persists its cache
/// through the durable segment log — whose counters are all
/// nondeterministic, so the deterministic section must not notice.
fn run_load(jobs: usize, store: Option<&std::path::Path>) -> String {
    obs::reset();
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_capacity: 1, // tiny cache: every distinct request computes
        engine: ctsdac::service::EngineConfig {
            default_deadline: Some(Duration::from_secs(30)),
            failpoints: None,
            max_jobs: 8,
        },
        store: store.map(ctsdac::store::StoreConfig::new),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // Concurrent mixed load: sweeps, sizings, and an MC yield check, all
    // distinct cache keys, all at the requested pool width.
    let mut handles = Vec::new();
    for grid in [8usize, 9, 10, 11] {
        handles.push(std::thread::spawn(move || {
            let r = post(
                addr,
                "/v1/sizing",
                &format!("{{\"grid\":{grid},\"jobs\":{jobs}}}"),
            )
            .expect("sizing reply");
            assert_eq!(r.status, 200, "{}", r.body);
        }));
    }
    for h in handles {
        h.join().expect("client");
    }
    let sweep = post(
        addr,
        "/v1/sweep",
        &format!("{{\"grid\":12,\"jobs\":{jobs}}}"),
    )
    .expect("sweep reply");
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let sizing = post(addr, "/v1/sizing", "{\"grid\":14}").expect("point");
    let vov_cs = extract(&sizing.body, "\"vov_cs\":");
    let vov_sw = extract(&sizing.body, "\"vov_sw\":");
    let yld = post(
        addr,
        "/v1/yield",
        &format!(
            "{{\"vov_cs\":{vov_cs},\"vov_sw\":{vov_sw},\"trials\":1000,\"chunk_trials\":125,\"jobs\":{jobs}}}"
        ),
    )
    .expect("yield reply");
    assert_eq!(yld.status, 200, "{}", yld.body);

    server.shutdown();
    server.join();
    deterministic_section(&obs::snapshot())
}

fn extract(body: &str, key: &str) -> f64 {
    let start = body.find(key).expect(key) + key.len();
    let rest = &body[start..];
    rest[..rest.find([',', '}']).expect("terminator")]
        .parse()
        .expect("number")
}

#[test]
fn deterministic_metrics_identical_between_jobs_1_and_8_under_load() {
    obs::set_metrics(true);
    let narrow = run_load(1, None);
    let wide = run_load(8, None);
    assert!(
        narrow.contains("core.sweep.points") || narrow.len() > 20,
        "deterministic section looks empty: {narrow}"
    );
    assert_eq!(
        narrow, wide,
        "deterministic metrics must not depend on pool width"
    );

    // The same invariance with the durable store in the write path: the
    // store's I/O counters (appends, fsyncs, segment churn) depend on
    // flusher-batch timing, so they live in the nondeterministic
    // section; the deterministic section must be byte-identical across
    // pool widths — and identical to the store-less runs above.
    let dir1 = std::env::temp_dir().join(format!("ctsdac-metrics-store-j1-{}", std::process::id()));
    let dir8 = std::env::temp_dir().join(format!("ctsdac-metrics-store-j8-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
    let durable_narrow = run_load(1, Some(&dir1));
    let durable_wide = run_load(8, Some(&dir8));
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir8);
    assert_eq!(
        durable_narrow, durable_wide,
        "deterministic metrics must not depend on pool width under --store"
    );
    assert_eq!(
        narrow, durable_narrow,
        "persisting the cache must not perturb deterministic work counters"
    );
}
