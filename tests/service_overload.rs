//! Loopback overload suite for the sizing daemon: ~1k concurrent
//! requests against a deliberately tiny daemon, asserting that every
//! shed response is well-formed, successes stay correct, and the cache
//! serves sub-millisecond bit-identical hits.

mod common;

use common::{get, post, Reply};
use ctsdac::service::server::{start, ServerConfig};
use ctsdac::service::{AdmissionConfig, BreakerConfig, EngineConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_server() -> ctsdac::service::ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_cap: 8,
        admission: AdmissionConfig {
            rate: 100_000.0,  // shedding should come from the watermarks,
            burst: 200_000.0, // not tenant rate, in this suite
            max_inflight: 8,
            ..AdmissionConfig::default()
        },
        breaker: BreakerConfig::default(),
        engine: EngineConfig {
            default_deadline: Some(Duration::from_secs(30)),
            failpoints: None,
            max_jobs: 2,
        },
        read_timeout: Duration::from_secs(5),
        cache_capacity: 64,
        ..ServerConfig::default()
    })
    .expect("bind")
}

const SIZING: &str = "{\"grid\":8}";

/// ~1k concurrent identical requests against 4 workers and an 8-deep
/// queue: some are served (leader + cache hits), the rest shed. Every
/// single response must be well-formed and typed; nothing may wedge.
#[test]
fn saturation_sheds_typed_responses_and_serves_the_rest() {
    let server = tiny_server();
    let addr = server.local_addr();

    let ok = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicUsize::new(0));
    let other = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for _ in 0..64 {
        let (ok, shed, other) = (Arc::clone(&ok), Arc::clone(&shed), Arc::clone(&other));
        handles.push(std::thread::spawn(move || {
            for _ in 0..16 {
                let reply = post(addr, "/v1/sizing", SIZING).expect("well-formed response");
                assert!(
                    reply.body.contains("\"status\":"),
                    "untyped body: {}",
                    reply.body
                );
                match reply.status {
                    200 => {
                        assert!(reply.body.contains("\"feasible\":true"), "{}", reply.body);
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                    429 => {
                        assert_eq!(reply.error_kind(), Some("shed"), "{}", reply.body);
                        assert!(
                            reply.header("Retry-After").is_some(),
                            "shed without Retry-After: {}",
                            reply.head
                        );
                        shed.fetch_add(1, Ordering::SeqCst);
                    }
                    503 | 504 => {
                        other.fetch_add(1, Ordering::SeqCst);
                    }
                    s => panic!("unexpected status {s}: {}", reply.body),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    let (ok, shed, other) = (
        ok.load(Ordering::SeqCst),
        shed.load(Ordering::SeqCst),
        other.load(Ordering::SeqCst),
    );
    assert_eq!(ok + shed + other, 64 * 16, "every request got an answer");
    assert!(ok > 0, "nothing served under load (ok={ok} shed={shed})");
    assert!(shed > 0, "shedding never engaged (ok={ok} shed={shed})");

    // The daemon is still healthy afterwards and drains cleanly.
    assert_eq!(get(addr, "/v1/healthz").expect("healthz").status, 200);
    server.shutdown();
    server.join();
}

/// Back-to-back identical requests: first is a miss, the rest are hits,
/// every hit re-serves the miss's exact result bytes, and hits are fast
/// (no physics on the hit path).
#[test]
fn cache_hits_are_bit_identical_and_sub_millisecond() {
    let server = tiny_server();
    let addr = server.local_addr();
    let body = "{\"grid\":10}";

    let prime = post(addr, "/v1/sizing", body).expect("prime");
    assert_eq!(prime.status, 200, "{}", prime.body);
    assert!(prime.body.contains("\"cache\":\"miss\""), "{}", prime.body);
    let reference = prime.result_object().expect("result").to_string();

    let mut latencies = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        let hit = post(addr, "/v1/sizing", body).expect("hit");
        latencies.push(t0.elapsed());
        assert_eq!(hit.status, 200, "{}", hit.body);
        assert!(hit.body.contains("\"cache\":\"hit\""), "{}", hit.body);
        assert_eq!(
            hit.result_object().expect("result"),
            reference,
            "cache hit must re-serve the first response's exact bytes"
        );
    }
    latencies.sort();
    // Includes TCP connect + request parse; the cache lookup itself is a
    // hash + map probe. The floor must be sub-millisecond, the median
    // comfortably small.
    assert!(
        latencies[0] < Duration::from_millis(1),
        "fastest hit took {:?}",
        latencies[0]
    );
    assert!(
        latencies[latencies.len() / 2] < Duration::from_millis(5),
        "median hit took {:?}",
        latencies[latencies.len() / 2]
    );

    server.shutdown();
    server.join();
}

/// Identical concurrent requests are single-flighted: every response is
/// one of the same bytes, and at most one is a miss.
#[test]
fn concurrent_identical_requests_single_flight() {
    let server = tiny_server();
    let addr = server.local_addr();
    let body = "{\"grid\":9}";

    let mut handles = Vec::new();
    for _ in 0..6 {
        handles.push(std::thread::spawn(move || {
            post(addr, "/v1/sizing", body).expect("reply")
        }));
    }
    let replies: Vec<Reply> = handles
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();
    let served: Vec<&Reply> = replies.iter().filter(|r| r.status == 200).collect();
    assert!(!served.is_empty(), "at least the leader must be served");
    let misses = served
        .iter()
        .filter(|r| r.body.contains("\"cache\":\"miss\""))
        .count();
    assert!(misses <= 1, "single-flight allows at most one compute");
    let reference = served[0].result_object().expect("result");
    for r in &served {
        assert_eq!(r.result_object().expect("result"), reference);
    }

    server.shutdown();
    server.join();
}

/// Per-tenant token buckets: a greedy tenant is rate-shed while a polite
/// tenant on the same daemon keeps being served.
#[test]
fn tenant_fairness_isolates_a_greedy_client() {
    let server = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_cap: 64,
        admission: AdmissionConfig {
            rate: 1.0,
            burst: 3.0,
            max_inflight: 64,
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();

    // Greedy burns its burst on cache-hitting requests...
    let body = |tenant: &str| format!("{{\"grid\":8,\"tenant\":\"{tenant}\"}}");
    let mut greedy_shed = 0;
    for _ in 0..8 {
        let r = post(addr, "/v1/sizing", &body("greedy")).expect("reply");
        if r.status == 429 {
            assert_eq!(r.error_kind(), Some("shed"));
            greedy_shed += 1;
        }
    }
    assert!(greedy_shed > 0, "greedy tenant was never rate-limited");
    // ...while the polite tenant's bucket is untouched.
    let r = post(addr, "/v1/sizing", &body("polite")).expect("reply");
    assert_eq!(r.status, 200, "polite tenant sheds with greedy: {}", r.body);

    server.shutdown();
    server.join();
}

/// One worker plus the live shed thread, sequential requests: each
/// accepted connection must wake the worker at once. An accept wake that
/// reaches the shed thread instead leaves the connection waiting out the
/// worker's 100 ms poll.
#[test]
fn sequential_requests_never_wait_out_the_worker_poll() {
    let server = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let mut slowest = Duration::ZERO;
    for i in 0..60 {
        let t0 = Instant::now();
        let reply = get(addr, "/v1/healthz").expect("healthz");
        let took = t0.elapsed();
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(
            took < Duration::from_millis(50),
            "request {i} took {took:?}: the accept wake missed the worker"
        );
        slowest = slowest.max(took);
    }
    eprintln!("slowest of 60 sequential requests: {slowest:?}");
    server.shutdown();
    server.join();
}
