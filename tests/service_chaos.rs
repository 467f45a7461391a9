//! Chaos acceptance suite: the daemon must survive worker panics under
//! load, slow and vanishing clients, and a mid-traffic shutdown — never
//! panicking the process, never wedging, always answering with typed
//! responses, and draining in-flight work on shutdown.

mod common;

use common::{get, post};
use ctsdac::failpoint::Registry;
use ctsdac::runtime::RetryPolicy;
use ctsdac::service::server::{start, ServerConfig};
use ctsdac::service::{BreakerConfig, EngineConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn server_with(failpoints: Option<&str>, breaker: BreakerConfig) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_cap: 32,
        breaker,
        engine: EngineConfig {
            default_deadline: Some(Duration::from_secs(30)),
            failpoints: failpoints.map(|spec| Registry::armed(spec, 0).expect("spec")),
            max_jobs: 2,
        },
        read_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    }
}

fn lenient_breaker() -> BreakerConfig {
    BreakerConfig {
        threshold: 1_000_000, // keep the breaker out of the way
        ..BreakerConfig::default()
    }
}

/// Worker panics on every attempt exhaust the retry budget: each request
/// gets a typed 500, the daemon itself stays alive and serviceable.
#[test]
fn worker_panics_under_load_surface_as_typed_500s_not_crashes() {
    let server = start(server_with(Some("panic@pool.chunk[0]"), lenient_breaker())).expect("bind");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for i in 0..8 {
        handles.push(std::thread::spawn(move || {
            // Distinct grids: distinct cache keys, eight real runs.
            post(addr, "/v1/sizing", &format!("{{\"grid\":{}}}", 8 + i)).expect("reply")
        }));
    }
    for h in handles {
        let reply = h.join().expect("client");
        assert_eq!(reply.status, 500, "{}", reply.body);
        assert_eq!(reply.error_kind(), Some("internal"), "{}", reply.body);
    }
    // The process absorbed every panic; liveness is intact.
    assert_eq!(get(addr, "/v1/healthz").expect("healthz").status, 200);
    server.shutdown();
    server.join();
}

/// Consecutive supervision failures trip the circuit breaker: subsequent
/// runtime-bound requests shed with a typed 503 + Retry-After instead of
/// burning the pool, and a failed half-open probe re-opens it.
#[test]
fn breaker_trips_after_consecutive_failures_and_reopens_on_failed_probe() {
    let server = start(server_with(
        Some("panic@pool.chunk[0]"),
        BreakerConfig {
            threshold: 2,
            policy: RetryPolicy {
                base: Duration::from_millis(300),
                factor: 2.0,
                max: Duration::from_secs(5),
                jitter: 0.0,
                seed: 0,
            },
        },
    ))
    .expect("bind");
    let addr = server.local_addr();

    for grid in [8, 9] {
        let r = post(addr, "/v1/sizing", &format!("{{\"grid\":{grid}}}")).expect("reply");
        assert_eq!(r.status, 500, "{}", r.body);
    }
    // Tripped: the next request must not reach the runtime.
    let t0 = Instant::now();
    let shed = post(addr, "/v1/sizing", "{\"grid\":10}").expect("reply");
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.error_kind(), Some("breaker_open"), "{}", shed.body);
    assert!(shed.header("Retry-After").is_some(), "{}", shed.head);
    assert!(
        t0.elapsed() < Duration::from_millis(200),
        "breaker-open path must be fast, took {:?}",
        t0.elapsed()
    );

    // After the open interval the probe is admitted, fails again (faults
    // are still armed), and the breaker re-opens.
    std::thread::sleep(Duration::from_millis(350));
    let probe = post(addr, "/v1/sizing", "{\"grid\":11}").expect("reply");
    assert_eq!(
        probe.status, 500,
        "probe reaches the runtime: {}",
        probe.body
    );
    let reopened = post(addr, "/v1/sizing", "{\"grid\":12}").expect("reply");
    assert_eq!(reopened.status, 503, "{}", reopened.body);
    assert_eq!(reopened.error_kind(), Some("breaker_open"));

    server.shutdown();
    server.join();
}

/// A half-open probe whose outcome does not count toward the breaker (a
/// 422 domain rejection) must still resolve the probe — before this was
/// guaranteed, the breaker wedged `HalfOpen` forever and every runtime
/// request shed 503 "probe in flight" with no recovery path.
#[test]
fn uncounted_probe_outcome_resolves_the_breaker_instead_of_wedging_it() {
    let server = start(server_with(
        Some("panic@pool.chunk[0]"),
        BreakerConfig {
            threshold: 1,
            policy: RetryPolicy {
                base: Duration::from_millis(200),
                factor: 2.0,
                max: Duration::from_secs(5),
                jitter: 0.0,
                seed: 0,
            },
        },
    ))
    .expect("bind");
    let addr = server.local_addr();

    // Trip the breaker with one supervision failure.
    let r = post(addr, "/v1/sizing", "{\"grid\":8}").expect("reply");
    assert_eq!(r.status, 500, "{}", r.body);
    let r = post(addr, "/v1/sizing", "{\"grid\":9}").expect("reply");
    assert_eq!(r.error_kind(), Some("breaker_open"), "{}", r.body);

    // The probe: an infeasible bias point is rejected 422 *before* any
    // chunk runs — a domain outcome the breaker must not count, but one
    // that must still resolve the half-open state.
    std::thread::sleep(Duration::from_millis(250));
    let probe = post(
        addr,
        "/v1/yield",
        "{\"vov_cs\":1.5,\"vov_sw\":1.5,\"trials\":100}",
    )
    .expect("reply");
    assert_eq!(
        probe.status, 422,
        "probe reaches the engine: {}",
        probe.body
    );

    // Resolved and closed: the next request reaches the runtime again
    // (500 from the still-armed faults), not a 503 "probe in flight".
    let after = post(addr, "/v1/sizing", "{\"grid\":10}").expect("reply");
    assert_eq!(
        after.status, 500,
        "breaker must close after an uncounted probe, got: {}",
        after.body
    );

    server.shutdown();
    server.join();
}

/// Slow-loris heads, mid-body disconnects, and binary garbage: each evil
/// client is dropped or answered with a typed 400, while honest traffic
/// on the same daemon keeps being served.
#[test]
fn slow_clients_and_mid_body_disconnects_never_wedge_the_daemon() {
    let server = start(server_with(None, lenient_breaker())).expect("bind");
    let addr = server.local_addr();

    let mut evil = Vec::new();
    for kind in 0..12 {
        evil.push(std::thread::spawn(move || match kind % 3 {
            0 => {
                // Slow loris: a dribble of head bytes, then a stall.
                let mut s = TcpStream::connect(addr).expect("connect");
                let _ = s.write_all(b"POST /v1/sizing HTTP/1.1\r\n");
                std::thread::sleep(Duration::from_millis(600));
            }
            1 => {
                // Mid-body disconnect: promise 4096 bytes, send 10, leave.
                let mut s = TcpStream::connect(addr).expect("connect");
                let _ = s.write_all(
                    b"POST /v1/sizing HTTP/1.1\r\nContent-Length: 4096\r\n\r\n{\"grid\":8",
                );
                drop(s);
            }
            _ => {
                // Unparseable garbage.
                let mut s = TcpStream::connect(addr).expect("connect");
                let _ = s.write_all(b"\x00\xffnot http at all\r\n\r\n");
                std::thread::sleep(Duration::from_millis(50));
            }
        }));
    }
    // Honest traffic interleaved with the abuse.
    for _ in 0..5 {
        let r = post(addr, "/v1/sizing", "{\"grid\":8}").expect("honest reply");
        assert_eq!(r.status, 200, "{}", r.body);
    }
    for h in evil {
        h.join().expect("evil client");
    }
    // All sockets reclaimed; daemon healthy and drains cleanly.
    assert_eq!(get(addr, "/v1/healthz").expect("healthz").status, 200);
    server.shutdown();
    server.join();
}

/// A request whose deadline is shorter than its work gets a typed 504,
/// not a hang: deadline propagation reaches the runtime's chunk loop.
#[test]
fn short_deadline_yields_typed_504_via_runtime_cancellation() {
    // Every chunk takes >= 80 ms; a 40 ms deadline cannot finish chunk 1.
    let plan = (0..4)
        .map(|c| format!("delay=80@pool.chunk[{c}]:1"))
        .collect::<Vec<_>>();
    let server = start(server_with(Some(&plan.join(",")), lenient_breaker())).expect("bind");
    let addr = server.local_addr();

    let reply = post(addr, "/v1/sizing", "{\"grid\":8,\"deadline_ms\":40}").expect("reply");
    assert_eq!(reply.status, 504, "{}", reply.body);
    assert_eq!(
        reply.error_kind(),
        Some("deadline_exceeded"),
        "{}",
        reply.body
    );

    server.shutdown();
    server.join();
}

/// Shutdown is a drain: the in-flight request completes with its real
/// result, later requests are refused in a typed way, and `join`
/// returns promptly.
#[test]
fn graceful_drain_completes_in_flight_work() {
    // Chunk delays make the in-flight request provably span the drain.
    let plan = (0..8)
        .map(|c| format!("delay=60@pool.chunk[{c}]:1"))
        .collect::<Vec<_>>();
    let server = start(server_with(Some(&plan.join(",")), lenient_breaker())).expect("bind");
    let addr = server.local_addr();

    let in_flight =
        std::thread::spawn(move || post(addr, "/v1/sizing", "{\"grid\":8}").expect("reply"));
    std::thread::sleep(Duration::from_millis(100)); // request is mid-run
    let ack = post(addr, "/v1/shutdown", "").expect("shutdown ack");
    assert_eq!(ack.status, 200, "{}", ack.body);

    // New work is refused (typed 503) or the socket is already closed.
    // Like the 429 shed path, the drain 503 must carry Retry-After so
    // well-behaved clients back off instead of hammering a dying daemon.
    // An `Err` (listener gone) is an equally acceptable refusal.
    if let Ok(r) = post(addr, "/v1/sizing", "{\"grid\":9}") {
        assert_eq!(r.status, 503, "{}", r.body);
        assert_eq!(r.error_kind(), Some("shutting_down"), "{}", r.body);
        assert!(
            r.header("Retry-After").is_some(),
            "drain 503 must carry Retry-After: {}",
            r.head
        );
    }

    let reply = in_flight.join().expect("in-flight client");
    assert_eq!(
        reply.status, 200,
        "drain must not abort in-flight: {}",
        reply.body
    );
    assert!(reply.body.contains("\"feasible\":true"), "{}", reply.body);

    let t0 = Instant::now();
    server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "join wedged for {:?}",
        t0.elapsed()
    );
}

/// Acceptance: two identical back-to-back requests — the second is a
/// cache hit whose result bytes equal the first's exactly.
#[test]
fn identical_back_to_back_requests_hit_cache_bit_identically() {
    let server = start(server_with(None, lenient_breaker())).expect("bind");
    let addr = server.local_addr();
    let body = "{\"grid\":12,\"condition\":\"legacy\"}";

    let first = post(addr, "/v1/sizing", body).expect("first");
    let second = post(addr, "/v1/sizing", body).expect("second");
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(second.status, 200, "{}", second.body);
    assert!(first.body.contains("\"cache\":\"miss\""), "{}", first.body);
    assert!(second.body.contains("\"cache\":\"hit\""), "{}", second.body);
    assert_eq!(
        first.result_object().expect("result"),
        second.result_object().expect("result"),
        "hit must be bit-identical to the original"
    );

    server.shutdown();
    server.join();
}

/// End-to-end on the real binary: `dacd` binds an ephemeral port,
/// serves a request, and drains cleanly when stdin reaches EOF.
#[test]
fn dacd_binary_serves_and_drains_on_stdin_eof() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_dacd"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--stdin-shutdown",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn dacd");

    let stdout = child.stdout.take().expect("stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").expect("readable banner");
    let addr: std::net::SocketAddr = banner
        .strip_prefix("listening on ")
        .expect("banner format")
        .parse()
        .expect("address");

    let reply = post(addr, "/v1/sizing", "{\"grid\":8}").expect("reply");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(get(addr, "/v1/metrics").expect("metrics").status, 200);

    drop(child.stdin.take()); // EOF -> drain
    let status = child.wait().expect("dacd exit");
    assert!(status.success(), "dacd exited with {status:?}");
}
