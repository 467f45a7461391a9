//! `dacd`: an in-process daemon (`ctsdac_service::start`) with a durable
//! store under the run's output directory, driven by one closed-loop
//! client over loopback — one connection per request, the next request
//! sent when the previous reply has been read.
//!
//! Set-up fills the store with [`FILL`] distinct requests, each checked
//! against an in-process `Engine::execute` and replayed once as a cache
//! hit. It then restarts the daemon on that store [`SETUP_REPS`] times:
//! `setup_s` is the median restart, from `start` (including the store's
//! recovery scan) to the first ready `/v1/healthz` reply. The filled
//! requests are replayed once more against the restarted daemon, as
//! recovered hits.
//!
//! Operation: one request the daemon has never seen — HTTP, protocol,
//! admission, a cache miss, the engine (`core::explore` → `circuit::dc`,
//! `core::validate`, the `runtime` pool) and a store append. The traced
//! run replays every traced request through the same public layer
//! functions the daemon calls (`http`, `protocol`, `admission`, `cache`,
//! `engine`, `store`) on a shadow pipeline, so each request's client
//! latency minus its layer times is the time it waited inside the server
//! (`service.server.wait_*`).

use crate::inputs::{Request, RequestStream};
use crate::stats::Latency;
use crate::trace::{Counters, SpanId, Tracer};
use crate::{peak_rss_mb, timed_cycles, trace_overhead, Outcome, Pass, RunCfg};
use ctsdac_service::admission::{Admission, AdmissionConfig};
use ctsdac_service::cache::{Claim, ResultCache};
use ctsdac_service::engine::Engine;
use ctsdac_service::http::{read_request, write_response};
use ctsdac_service::protocol::{cache_key, parse_request, render_ok, Mode};
use ctsdac_service::{start, ServerConfig, ServerHandle};
use ctsdac_store::{Store, StoreConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Distinct requests written to the store before timing.
const FILL: usize = 48;
/// Daemon restarts; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Every n-th timed miss is re-computed by an in-process engine and
/// compared byte for byte (the fill checks every request).
const ORACLE_EVERY: usize = 6;
/// A request that waited longer than this in the server stalled.
const STALL_MS: f64 = 50.0;
/// Client-side bound on one reply.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon's configuration: `ServerConfig::default()` except for a
/// cache that holds every request a run can send (so nothing is evicted)
/// and admission limits no single closed-loop client can reach (so a
/// faster server never turns into 429s).
pub fn server_config(store_dir: &Path) -> ServerConfig {
    ServerConfig {
        cache_capacity: 8192,
        admission: AdmissionConfig {
            rate: 1e9,
            burst: 1e9,
            ..AdmissionConfig::default()
        },
        store: Some(StoreConfig::new(store_dir)),
        ..ServerConfig::default()
    }
}

fn describe(cfg: &ServerConfig) -> String {
    format!(
        "dacd config: workers {}, queue_cap {}, admission rate {} burst {} max_inflight {}, \
         cache_capacity {}, cache_bytes {}, read_timeout {:?}, default_deadline {:?}, max_jobs {}, \
         store fsync {:?}; clients 1 (closed loop, one connection per request)",
        cfg.workers,
        cfg.queue_cap,
        cfg.admission.rate,
        cfg.admission.burst,
        cfg.admission.max_inflight,
        cfg.cache_capacity,
        cfg.cache_bytes,
        cfg.read_timeout,
        cfg.engine.default_deadline,
        cfg.engine.max_jobs,
        cfg.store.as_ref().map(|s| s.fsync_interval),
    )
}

fn raw_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Status and body of one reply.
#[derive(Debug)]
struct Reply {
    status: u16,
    body: String,
}

fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(CLIENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(raw_request(method, path, body).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    read_reply(&mut s)
}

fn read_reply(s: &mut TcpStream) -> Result<Reply, String> {
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8(raw).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("reply has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("reply has no status")?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

/// `(cache label, result)` of a success envelope.
fn split_ok(body: &str) -> Option<(&str, &str)> {
    let rest = body.strip_prefix("{\"status\":\"ok\",\"cache\":\"")?;
    let (label, rest) = rest.split_once('"')?;
    let result = rest.strip_prefix(",\"result\":")?.strip_suffix('}')?;
    Some((label, result))
}

/// The result bytes of a 200 reply carrying `label`, or why not.
fn expect_ok(reply: &Result<Reply, String>, label: &str) -> Result<String, String> {
    let reply = reply.as_ref().map_err(Clone::clone)?;
    if reply.status != 200 {
        return Err(format!("status {}: {}", reply.status, reply.body));
    }
    match split_ok(&reply.body) {
        Some((l, result)) if l == label => Ok(result.to_string()),
        Some((l, _)) => Err(format!("cache label {l}, expected {label}")),
        None => Err(format!("not a success envelope: {}", reply.body)),
    }
}

/// The in-process oracle: the engine's result for the same request.
fn oracle(engine: &Engine, req: &Request, result: &str) -> Result<(), String> {
    let parsed = parse_request(req.mode, &req.body).map_err(|e| e.to_string())?;
    let want = engine.execute(&parsed).map_err(|e| e.to_string())?;
    if want == result {
        Ok(())
    } else {
        Err(format!(
            "{} {}: daemon result differs from Engine::execute",
            req.path(),
            req.body
        ))
    }
}

fn start_ready(cfg: &ServerConfig) -> Result<ServerHandle, String> {
    let handle = start(cfg.clone()).map_err(|e| format!("start: {e}"))?;
    let reply = call(handle.local_addr(), "GET", "/v1/healthz", "")?;
    if reply.status != 200 {
        return Err(format!("healthz status {}", reply.status));
    }
    Ok(handle)
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

/// Checks made on each reply as it arrives. Engine oracles for timed
/// misses are queued and run after the timed pass.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// The first few failures.
    reasons: Vec<String>,
    misses: usize,
    oracle: Vec<(Request, String)>,
}

impl Checks {
    /// One checked operation.
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// A failed check of an operation already counted.
    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(e);
        }
    }

    /// Checks one timed reply, which must be a fresh miss; returns its
    /// result bytes when it is.
    fn reply(&mut self, req: &Request, reply: &Result<Reply, String>) -> Option<String> {
        let got = expect_ok(reply, "miss");
        if let Ok(r) = &got {
            self.misses += 1;
            if self.misses <= 12 || self.misses.is_multiple_of(ORACLE_EVERY) {
                self.oracle.push((req.clone(), r.clone()));
            }
        }
        self.record(got.as_ref().map(|_| ()).map_err(Clone::clone));
        got.ok()
    }

    /// Runs the queued engine oracles.
    fn run_oracles(&mut self, engine: &Engine) {
        for (req, result) in std::mem::take(&mut self.oracle) {
            if let Err(e) = oracle(engine, &req, &result) {
                self.fail(e);
            }
        }
    }
}

/// `Ok` when `got` is the expected result bytes of a hit.
fn same_bytes(got: Result<String, String>, want: &str) -> Result<(), String> {
    got.and_then(|r| {
        if r == want {
            Ok(())
        } else {
            Err("hit body differs from the miss body".into())
        }
    })
}

/// Set-up: fill a fresh store through a first daemon, then restart on
/// it [`SETUP_REPS`] times and replay the fill as recovered hits. Returns
/// the running daemon and the median restart time.
fn set_up(
    cfg: &ServerConfig,
    fill: &[Request],
    checks: &mut Checks,
) -> Result<(ServerHandle, Vec<String>, f64), String> {
    let engine = Engine::new(cfg.engine.clone());
    let d0 = start_ready(cfg)?;
    let addr = d0.local_addr();
    let mut results = Vec::with_capacity(fill.len());
    for req in fill {
        let miss = expect_ok(&call(addr, "POST", req.path(), &req.body), "miss");
        let result = miss.clone().unwrap_or_default();
        checks.record(miss.and_then(|r| oracle(&engine, req, &r)));
        let hit = expect_ok(&call(addr, "POST", req.path(), &req.body), "hit");
        checks.record(same_bytes(hit, &result));
        results.push(result);
    }
    stop(d0);

    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut daemon: Option<ServerHandle> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            stop(d);
        }
        let t = Instant::now();
        daemon = Some(start_ready(cfg)?);
        times.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.ok_or("no restart")?;
    for (req, result) in fill.iter().zip(&results) {
        let recovered = expect_ok(
            &call(daemon.local_addr(), "POST", req.path(), &req.body),
            "hit",
        );
        checks.record(same_bytes(recovered, result));
    }
    Ok((daemon, results, crate::stats::median(&times)))
}

/// A traced request kept for the replay, with the result bytes it got.
struct Traced {
    req: Request,
    result: Option<String>,
}

/// Times requests from `requests` in whole cycles for `seconds`,
/// checking each reply as it arrives; keeps the traced requests in
/// `keep`.
fn pass(
    addr: SocketAddr,
    seconds: f64,
    tracer: &mut Tracer,
    first: usize,
    requests: &mut RequestStream,
    checks: &mut Checks,
    mut keep: Option<&mut Vec<Traced>>,
) -> Pass {
    timed_cycles(seconds, RequestStream::CYCLE, |i| {
        let req = requests.next().expect("the request stream is endless");
        let span = tracer.begin("dacd.request", None, (first + i) as u64);
        let t = Instant::now();
        let reply = call(addr, "POST", req.path(), &req.body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tracer.end(span);
        let result = checks.reply(&req, &reply);
        if let Some(k) = keep.as_deref_mut() {
            k.push(Traced { req, result });
        }
        ms
    })
}

/// The shadow pipeline of the traced run: the daemon's layer objects,
/// built from the same configuration, with a store recovered from the
/// same fill.
struct Shadow {
    listener: TcpListener,
    admission: Admission,
    cache: ResultCache,
    engine: Engine,
    store: Store,
    read_timeout: Duration,
}

impl Shadow {
    fn new(
        cfg: &ServerConfig,
        dir: &Path,
        fill: &[Request],
        results: &[String],
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<Self, String> {
        {
            let (store, _) = Store::open(StoreConfig::new(dir)).map_err(|e| e.to_string())?;
            for (req, result) in fill.iter().zip(results) {
                let parsed = parse_request(req.mode, &req.body).map_err(|e| e.to_string())?;
                store.put(&cache_key(&parsed), result);
            }
            store.close();
        }
        let cache = ResultCache::with_byte_limit(cfg.cache_capacity, cfg.cache_bytes);
        let (store, recovery) = tracer
            .time("store.recovery", None, u64::MAX, || {
                Store::open(StoreConfig::new(dir))
            })
            .map_err(|e| e.to_string())?;
        out.set("store.records_recovered", recovery.records_recovered as f64);
        cache.prime(recovery.entries);
        Ok(Self {
            listener: TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?,
            admission: Admission::new(cfg.admission),
            cache,
            engine: Engine::new(cfg.engine.clone()),
            store,
            read_timeout: cfg.read_timeout,
        })
    }

    /// Replays one request's layer calls under its request span; returns
    /// the reply body the layers produced.
    fn replay(
        &self,
        req: &Request,
        span: SpanId,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<String, String> {
        let mut client = TcpStream::connect(self.listener.local_addr().map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let (mut server, _) = self.listener.accept().map_err(|e| e.to_string())?;
        client
            .write_all(raw_request("POST", req.path(), &req.body).as_bytes())
            .map_err(|e| e.to_string())?;
        let http = tracer
            .replay("service.http.read", span, id, || {
                read_request(&mut server, self.read_timeout)
            })
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8(http.body).map_err(|_| "body is not UTF-8".to_string())?;
        let (parsed, key) = tracer
            .replay("service.protocol.parse", span, id, || {
                parse_request(req.mode, &text).map(|p| {
                    let k = cache_key(&p);
                    (p, k)
                })
            })
            .map_err(|e| e.to_string())?;
        let slot = tracer
            .replay("service.admission.admit", span, id, || {
                self.admission.admit(&parsed.tenant, Instant::now())
            })
            .map_err(|e| e.to_string())?;
        let (claim, guard) = tracer.replay("service.cache.claim", span, id, || {
            self.cache.claim(&key, None)
        });
        let body = match claim {
            Claim::Hit(result) => tracer.replay("service.protocol.render", span, id, || {
                render_ok("hit", &result)
            }),
            Claim::Lead => {
                let engine_span = match parsed.mode {
                    Mode::Sweep => "service.engine.sweep",
                    Mode::Sizing => "service.engine.sizing",
                    Mode::Yield => "service.engine.yield",
                };
                let result = tracer
                    .replay(engine_span, span, id, || self.engine.execute(&parsed))
                    .map_err(|e| e.to_string())?;
                tracer.replay("store.put", span, id, || self.store.put(&key, &result));
                if let Some(g) = guard {
                    tracer.replay("service.cache.fulfill", span, id, || {
                        g.fulfill(Some(&result))
                    });
                }
                tracer.replay("service.protocol.render", span, id, || {
                    render_ok("miss", &result)
                })
            }
            Claim::TimedOut => return Err("shadow cache timed out".into()),
        };
        tracer
            .replay("service.http.write", span, id, || {
                write_response(&mut server, 200, None, &body)
            })
            .map_err(|e| e.to_string())?;
        drop(server);
        drop(slot);
        let mut sink = Vec::new();
        let _ = client.read_to_end(&mut sink);
        Ok(body)
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let dir = cfg.out_dir.join(format!(
        "{}-seed{}-pid{}",
        cfg.workload,
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_in(cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_in(cfg: &RunCfg, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let scfg = server_config(&dir.join("store"));
    out.note(describe(&scfg));
    let mut requests = RequestStream::new(cfg.seed);
    let fill: Vec<Request> = requests.by_ref().take(FILL).collect();
    let mut checks = Checks::default();

    let (daemon, results, setup_s) = match set_up(&scfg, &fill, &mut checks) {
        Ok(v) => v,
        Err(e) => {
            out.note(format!("set-up failed: {e}"));
            out.attempted = checks.attempted.max(1);
            out.failed = checks.failed.max(1);
            return out;
        }
    };
    let addr = daemon.local_addr();
    let engine = Engine::new(scfg.engine.clone());

    if !cfg.trace {
        let p = pass(
            addr,
            cfg.seconds,
            &mut Tracer::new(false),
            0,
            &mut requests,
            &mut checks,
            None,
        );
        out.set("peak_rss_mb", peak_rss_mb());
        stop(daemon);
        out.set_e2e(setup_s, &p);
    } else {
        let untraced = pass(
            addr,
            cfg.seconds / 2.0,
            &mut Tracer::new(false),
            0,
            &mut requests,
            &mut checks,
            None,
        );
        let first = untraced.latencies_ms.len();
        let mut tracer = Tracer::new(true);
        let mut kept = Vec::new();
        ctsdac_obs::set_metrics(true);
        let before = Counters::now();
        let traced = pass(
            addr,
            cfg.seconds / 2.0,
            &mut tracer,
            first,
            &mut requests,
            &mut checks,
            Some(&mut kept),
        );
        let c = Counters::now().since(&before);
        ctsdac_obs::set_metrics(false);
        stop(daemon);
        replay_traced(
            &scfg,
            dir,
            &fill,
            &results,
            &kept,
            &mut tracer,
            &mut checks,
            &mut out,
        );
        let ops = traced.latencies_ms.len() as f64;
        crate::set_work_counts(&mut out, &c, ops);
        out.set("bench.samples", ops);
        out.set("bench.trace_overhead", trace_overhead(&untraced, &traced));
        out.set_e2e(setup_s, &untraced);
        if let Err(e) = tracer.write_jsonl(
            &cfg.out_dir
                .join(format!("dacd-seed{}-spans.jsonl", cfg.seed)),
        ) {
            out.note(format!("spans not written: {e}"));
        }
    }
    checks.run_oracles(&engine);
    for r in &checks.reasons {
        out.note(format!("failure: {r}"));
    }
    out.attempted = checks.attempted;
    out.failed += checks.failed;
    out
}

/// Replays the traced requests through the shadow pipeline and derives
/// the layer metrics and each request's wait inside the server.
#[allow(clippy::too_many_arguments)]
fn replay_traced(
    scfg: &ServerConfig,
    dir: &Path,
    fill: &[Request],
    results: &[String],
    traced: &[Traced],
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Outcome,
) {
    let shadow_dir: PathBuf = dir.join("shadow");
    let shadow = match Shadow::new(scfg, &shadow_dir, fill, results, tracer, out) {
        Ok(s) => s,
        Err(e) => {
            checks.fail(format!("shadow pipeline: {e}"));
            return;
        }
    };
    let spans = tracer.ids_of("dacd.request");
    for (k, s) in traced.iter().enumerate() {
        let replayed = shadow.replay(&s.req, spans[k], k as u64, tracer);
        // The shadow layers must reproduce the daemon's reply byte for
        // byte.
        let want = s.result.as_ref().map(|r| render_ok("miss", r));
        if let (Ok(body), Some(want)) = (&replayed, &want) {
            if body != want {
                checks.fail(format!("shadow reply differs for {}", s.req.body));
            }
        } else if let Err(e) = replayed {
            checks.fail(format!("shadow replay: {e}"));
        }
    }
    shadow.store.close();
    let agg = tracer.aggregate();
    let mean = |name: &str| agg.get(name).map_or(0.0, |a| a.mean_ms());
    out.set("service.http.read_us", mean("service.http.read") * 1e3);
    out.set("service.http.write_us", mean("service.http.write") * 1e3);
    out.set(
        "service.protocol.parse_us",
        mean("service.protocol.parse") * 1e3,
    );
    out.set(
        "service.admission.admit_us",
        mean("service.admission.admit") * 1e3,
    );
    out.set("service.cache.claim_us", mean("service.cache.claim") * 1e3);
    out.set("service.engine.sweep_ms", mean("service.engine.sweep"));
    out.set("service.engine.sizing_ms", mean("service.engine.sizing"));
    out.set("service.engine.yield_ms", mean("service.engine.yield"));
    out.set("store.put_us", mean("store.put") * 1e3);
    out.set("store.recovery_ms", mean("store.recovery"));
    let wait = tracer.self_ms_of("dacd.request");
    let stalled = wait.iter().filter(|&&w| w > STALL_MS).count();
    out.set(
        "service.server.stalled_share",
        stalled as f64 / wait.len().max(1) as f64,
    );
    match Latency::of(&wait) {
        Ok(l) => {
            out.set("service.server.wait_ms_p50", l.p50.value);
            out.set("service.server.wait_ms_p90", l.p90.value);
            out.note(format!(
                "server wait: {} requests, p50 {:.4} ms, p90 {:.4} ms, {stalled} stalled over {STALL_MS} ms",
                l.samples, l.p50.value, l.p90.value
            ));
        }
        Err(e) => out.note(format!("server wait percentiles refused: {e:?}")),
    }
}
