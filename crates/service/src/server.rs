//! The daemon: acceptor thread, bounded connection queue, worker pool,
//! and the request pipeline **admission → cache → breaker → runtime**.
//!
//! Overload behaviour is explicit at every stage:
//!
//! * the acceptor sheds with a typed 429 when the connection queue is
//!   full (never unbounded buffering) — but never writes the response
//!   itself: shed connections go to a bounded reject queue drained by a
//!   dedicated shed thread (and opportunistically by idle workers), so a
//!   slow client on the shed path can never stall `accept()`;
//! * admission sheds past the in-flight watermark or a tenant's rate;
//! * cache hits are served even with the breaker open — they cost no
//!   runtime work;
//! * the breaker sheds runtime-bound work with a 503 + `Retry-After`
//!   after consecutive supervision failures.
//!
//! Shutdown is a drain, not an abort: [`ServerHandle::shutdown`] stops
//! accepting, in-flight requests run to completion, queued-but-unserved
//! connections get a typed 503 `shutting_down`, and
//! [`ServerHandle::join`] returns once every worker has exited. A
//! panicking handler is confined to its connection (typed 500); the
//! daemon itself never goes down with a request.

use crate::admission::{Admission, AdmissionConfig};
use crate::breaker::{Breaker, BreakerConfig};
use crate::cache::{Claim, ResultCache};
use crate::engine::{Engine, EngineConfig};
use crate::http::{read_request, write_response, HttpError, HttpRequest};
use crate::json::escape;
use crate::protocol::{cache_key, parse_request, render_ok, ApiError, ErrorKind, Mode};
use ctsdac_failpoint::Failure;
use ctsdac_obs as obs;
use ctsdac_store::{Store, StoreConfig};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Failpoint site visited once per response, before it is written.
/// Honours `lag=MS` (hold the response back `MS` milliseconds, so chaos
/// suites can exercise client-side timeouts).
pub const SITE_HANDLER: &str = "service.handler";

/// Full daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Connection-handling worker threads.
    pub workers: usize,
    /// Bound on accepted-but-unserved connections; beyond it the
    /// acceptor sheds with 429.
    pub queue_cap: usize,
    /// Admission-control parameters.
    pub admission: AdmissionConfig,
    /// Circuit-breaker parameters.
    pub breaker: BreakerConfig,
    /// Engine parameters (default deadline, failpoint registry, jobs cap).
    pub engine: EngineConfig,
    /// Socket read timeout (slow-client defense).
    pub read_timeout: Duration,
    /// Rendered results kept by the cache.
    pub cache_capacity: usize,
    /// Byte budget over cached `key + rendered result` payloads; FIFO
    /// eviction keeps the cache under whichever bound bites first.
    pub cache_bytes: usize,
    /// Durable result store; `None` keeps the cache memory-only. With a
    /// store, startup primes the cache from the recovery scan and every
    /// miss-fill is persisted write-behind (the hot path never waits on
    /// fsync).
    pub store: Option<StoreConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            admission: AdmissionConfig::default(),
            breaker: BreakerConfig::default(),
            engine: EngineConfig {
                default_deadline: Some(Duration::from_secs(30)),
                failpoints: None,
                max_jobs: 8,
            },
            read_timeout: Duration::from_secs(5),
            cache_capacity: 256,
            cache_bytes: 32 << 20,
            store: None,
        }
    }
}

/// Accepted connections awaiting a thread. `serve` is bounded by
/// `queue_cap`; `reject` holds shed connections whose typed response is
/// written off the acceptor thread, bounded by [`reject_cap`] (overflow
/// is closed without a response rather than buffered unboundedly).
#[derive(Debug, Default)]
struct ConnQueue {
    serve: VecDeque<TcpStream>,
    reject: VecDeque<(TcpStream, ApiError)>,
}

/// Bound on queued shed responses. Generous relative to `queue_cap`: a
/// reject entry costs one fd and a small struct, comparable to what the
/// kernel accept backlog already holds, and dropping a shed connection
/// unanswered is strictly worse than answering it late.
fn reject_cap(queue_cap: usize) -> usize {
    (queue_cap * 8).max(256)
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    admission: Admission,
    breaker: Breaker,
    cache: ResultCache,
    engine: Engine,
    store: Option<Arc<Store>>,
    shutdown: AtomicBool,
    queue: Mutex<ConnQueue>,
    /// Signalled for each connection pushed onto `serve`; only workers
    /// wait on it, so every wake reaches a thread that can serve.
    serve_ready: Condvar,
    /// Signalled for each shed connection pushed onto `reject`; only the
    /// shed thread waits on it (workers drain rejects opportunistically).
    reject_ready: Condvar,
}

impl Shared {
    /// Begins the drain: stop accepting, wake everyone. Idempotent.
    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Self-connect so a blocked `accept()` observes the flag.
        let _ = TcpStream::connect(self.addr);
        self.serve_ready.notify_all();
        self.reject_ready.notify_all();
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, ConnQueue> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates the graceful drain and returns immediately.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// True once the drain has been triggered (by [`Self::shutdown`] or
    /// a `POST /v1/shutdown`).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// A detached trigger for the drain, for stdin-EOF or signal
    /// watchers that outlive the borrow of the handle.
    pub fn clone_shutdown_trigger(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.trigger_shutdown()
    }

    /// Waits for the acceptor and every worker to exit. In-flight
    /// requests complete; queued connections receive typed 503s. The
    /// durable store (if any) is drained and synced last, so every
    /// response served before the drain is on disk when this returns.
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(store) = &self.shared.store {
            store.close();
        }
    }

    /// Whether the durable store has degraded (stopped persisting after
    /// an I/O failure). Always `false` without a store.
    pub fn store_degraded(&self) -> bool {
        self.shared.store.as_ref().is_some_and(|s| s.is_degraded())
    }
}

/// Starts the daemon: binds, spawns the acceptor and workers, returns.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let cache = ResultCache::with_byte_limit(cfg.cache_capacity, cfg.cache_bytes);
    let store = match &cfg.store {
        None => None,
        Some(store_cfg) => {
            let (store, recovery) =
                Store::open(store_cfg.clone()).map_err(|e| io::Error::other(e.to_string()))?;
            // Prime before registering the hook: recovered entries that
            // do not fit in memory stay on disk instead of being
            // tombstoned away.
            cache.prime(recovery.entries);
            let store = Arc::new(store);
            let hook_store = Arc::clone(&store);
            cache.set_evict_hook(move |key| hook_store.evict(key));
            Some(store)
        }
    };
    let shared = Arc::new(Shared {
        admission: Admission::new(cfg.admission),
        breaker: Breaker::new(cfg.breaker),
        cache,
        engine: Engine::new(cfg.engine.clone()),
        store,
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(ConnQueue::default()),
        serve_ready: Condvar::new(),
        reject_ready: Condvar::new(),
        addr,
        cfg,
    });

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &shared))
    };
    let mut worker_handles: Vec<std::thread::JoinHandle<()>> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();
    // Dedicated shed thread: typed 429/503s keep flowing even while every
    // worker is deep in engine work — exactly the moment shedding matters.
    worker_handles.push({
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || shed_loop(&shared))
    });

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept failures (EMFILE/ENFILE under fd
                // exhaustion) must back off, not busy-spin a core.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake connection (or a late client) during drain. The
            // drainers may already be gone, so answer inline — this is a
            // one-time exit path and respond_error is wall-clock-bounded.
            respond_error(
                stream,
                &ApiError::new(ErrorKind::ShuttingDown, "daemon is draining").with_retry_after(1),
                None,
            );
            return;
        }
        let mut queue = shared.lock_queue();
        if queue.serve.len() >= shared.cfg.queue_cap {
            obs::incr(obs::Counter::ServiceShed);
            // Never write from the acceptor: a slow client would stall
            // every accept. Queue the typed 429 for the shed thread.
            if queue.reject.len() < reject_cap(shared.cfg.queue_cap) {
                queue.reject.push_back((
                    stream,
                    ApiError::new(ErrorKind::Shed, "connection queue full").with_retry_after(1),
                ));
            } else {
                // Reject queue full too: close unanswered rather than
                // buffer without bound. `stream` drops here.
            }
            drop(queue);
            shared.reject_ready.notify_one();
            continue;
        }
        queue.serve.push_back(stream);
        drop(queue);
        shared.serve_ready.notify_one();
    }
}

enum Job {
    Serve(TcpStream),
    Reject(TcpStream, ApiError),
}

fn worker_loop(shared: &Shared) {
    loop {
        let mut queue = shared.lock_queue();
        let job = loop {
            // Rejects first: they are cheap and latency-sensitive, and
            // this backstops the shed thread when a trickling client has
            // it tied up in a (bounded) drain.
            if let Some((stream, err)) = queue.reject.pop_front() {
                // This wake may have been meant for a queued connection:
                // pass it on to another worker rather than leave that
                // connection waiting behind this (bounded) reject.
                if !queue.serve.is_empty() {
                    shared.serve_ready.notify_one();
                }
                break Some(Job::Reject(stream, err));
            }
            if let Some(s) = queue.serve.pop_front() {
                break Some(Job::Serve(s));
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break None;
            }
            queue = shared
                .serve_ready
                .wait_timeout(queue, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        };
        drop(queue);
        match job {
            None => return, // drained and shut down
            Some(Job::Reject(stream, err)) => respond_error(stream, &err, None),
            Some(Job::Serve(stream)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Queued before the drain began, never served.
                    respond_error(
                        stream,
                        &ApiError::new(ErrorKind::ShuttingDown, "daemon is draining")
                            .with_retry_after(1),
                        None,
                    );
                    continue;
                }
                serve_connection(shared, stream);
            }
        }
    }
}

/// Drains the reject queue only — never picks up engine work, so typed
/// sheds stay fast while all workers are busy.
fn shed_loop(shared: &Shared) {
    loop {
        let mut queue = shared.lock_queue();
        let job = loop {
            if let Some(j) = queue.reject.pop_front() {
                break Some(j);
            }
            // No new rejects can arrive once the drain starts (the
            // acceptor answers its last connection inline), so an empty
            // reject queue at shutdown means this thread is done.
            if shared.shutdown.load(Ordering::SeqCst) {
                break None;
            }
            queue = shared
                .reject_ready
                .wait_timeout(queue, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        };
        drop(queue);
        match job {
            None => return,
            Some((stream, err)) => respond_error(stream, &err, None),
        }
    }
}

/// Wall-clock cap on [`respond_error`]'s post-response drain: bounds the
/// damage a byte-trickling client can do to whichever thread answers it.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);

fn respond_error(mut stream: TcpStream, err: &ApiError, status_override: Option<u16>) {
    let status = status_override.unwrap_or_else(|| err.kind.status());
    // The peer may already be gone; nothing useful to do about it.
    let _ = write_response(&mut stream, status, err.retry_after_s, &err.render());
    // This path answers without reading the request (acceptor shed,
    // drain 503). Closing with unread bytes in the receive buffer makes
    // the kernel RST the connection and destroy the response in flight —
    // so signal end-of-response and drain what the client sent first,
    // bounded by bytes *and* wall clock (a client trickling one byte per
    // read-timeout window would otherwise hold this thread for hours).
    let deadline = Instant::now() + DRAIN_DEADLINE;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut budget = crate::http::MAX_HEAD_BYTES + crate::http::MAX_BODY_BYTES;
    while Instant::now() < deadline {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) if n >= budget => break,
            Ok(n) => budget -= n,
        }
    }
}

/// Handles exactly one request on `stream`. A panic anywhere in the
/// routed handler is confined here and answered with a typed 500.
fn serve_connection(shared: &Shared, mut stream: TcpStream) {
    let request = match read_request(&mut stream, shared.cfg.read_timeout) {
        Ok(r) => r,
        Err(HttpError::Disconnected) => return, // nobody left to answer
        Err(e @ (HttpError::Timeout | HttpError::Io { .. })) => {
            respond_error(
                stream,
                &ApiError::new(ErrorKind::BadRequest, e.to_string()),
                None,
            );
            return;
        }
        Err(e) => {
            respond_error(
                stream,
                &ApiError::new(ErrorKind::BadRequest, e.to_string()),
                None,
            );
            return;
        }
    };
    let (status, retry_after, body) =
        match catch_unwind(AssertUnwindSafe(|| route(shared, &request))) {
            Ok(resp) => resp,
            Err(_) => {
                let e = ApiError::new(ErrorKind::Internal, "request handler panicked");
                (e.kind.status(), None, e.render())
            }
        };
    let failpoints = ctsdac_failpoint::or_global(shared.cfg.engine.failpoints.as_deref());
    if let Some(Failure::Lag(ms)) = failpoints.check(SITE_HANDLER) {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let _ = write_response(&mut stream, status, retry_after, &body);
}

type Response = (u16, Option<u64>, String);

fn error_response(e: &ApiError) -> Response {
    (e.kind.status(), e.retry_after_s, e.render())
}

fn route(shared: &Shared, req: &HttpRequest) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => {
            let draining = shared.shutdown.load(Ordering::SeqCst);
            (
                200,
                None,
                format!(
                    "{{\"status\":\"ok\",\"result\":{{\"draining\":{draining},\"in_flight\":{}}}}}",
                    shared.admission.in_flight()
                ),
            )
        }
        ("GET", "/v1/metrics") => (
            200,
            None,
            format!(
                "{{\"status\":\"ok\",\"result\":{{\"metrics\":\"{}\"}}}}",
                escape(&obs::snapshot())
            ),
        ),
        ("POST", "/v1/shutdown") => {
            shared.trigger_shutdown();
            (
                200,
                None,
                "{\"status\":\"ok\",\"result\":{\"draining\":true}}".into(),
            )
        }
        ("POST", "/v1/sizing") => handle_api(shared, Mode::Sizing, &req.body),
        ("POST", "/v1/sweep") => handle_api(shared, Mode::Sweep, &req.body),
        ("POST", "/v1/yield") => handle_api(shared, Mode::Yield, &req.body),
        ("GET" | "POST", _) => (
            404,
            None,
            ApiError::new(
                ErrorKind::BadRequest,
                format!("no such endpoint `{}`", req.path),
            )
            .render(),
        ),
        (method, _) => (
            405,
            None,
            ApiError::new(
                ErrorKind::BadRequest,
                format!("unsupported method `{method}`"),
            )
            .render(),
        ),
    }
}

/// The pipeline: parse → admission → cache (single-flight) → breaker →
/// engine (deadline-armed runtime).
fn handle_api(shared: &Shared, mode: Mode, body: &[u8]) -> Response {
    let Ok(text) = std::str::from_utf8(body) else {
        return error_response(&ApiError::new(ErrorKind::BadRequest, "body is not UTF-8"));
    };
    let request = match parse_request(mode, text) {
        Ok(r) => r,
        Err(e) => return error_response(&e),
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        return error_response(
            &ApiError::new(ErrorKind::ShuttingDown, "daemon is draining").with_retry_after(1),
        );
    }

    let now = Instant::now();
    let _slot = match shared.admission.admit(&request.tenant, now) {
        Ok(slot) => slot,
        Err(e) => {
            obs::incr(obs::Counter::ServiceShed);
            return error_response(&e);
        }
    };
    obs::incr(obs::Counter::ServiceAdmitted);

    // Follower waits are bounded by the same deadline the runtime gets.
    let deadline_inst = request
        .deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.engine.default_deadline)
        .map(|d| now + d);

    let key = cache_key(&request);
    let (claim, leader) = shared.cache.claim(&key, deadline_inst);
    match claim {
        Claim::Hit(result) => {
            obs::incr(obs::Counter::ServiceCacheHits);
            (200, None, render_ok("hit", &result))
        }
        Claim::TimedOut => {
            obs::incr(obs::Counter::ServiceDeadlineExceeded);
            error_response(&ApiError::new(
                ErrorKind::DeadlineExceeded,
                "deadline expired waiting for an identical in-flight request",
            ))
        }
        Claim::Lead => {
            obs::incr(obs::Counter::ServiceCacheMisses);
            // The guard wakes followers even if this path errors early.
            let guard = leader;
            // The permit resolves the breaker on *every* exit: success,
            // counted failure, uncounted (domain/deadline) outcome — and
            // if the engine panics, the permit unwinds to the catch in
            // `serve_connection` and its Drop aborts a half-open probe
            // back to Open instead of wedging it.
            let permit = match shared.breaker.check(Instant::now()) {
                Ok(permit) => permit,
                Err(e) => {
                    drop(guard);
                    return error_response(&e);
                }
            };
            match shared.engine.execute(&request) {
                Ok(result) => {
                    // Write-behind: enqueue the durable record before
                    // publishing to followers, so an eviction hook firing
                    // inside fulfill() tombstones *after* the put. Both
                    // calls are non-blocking — no fsync on this path.
                    // A lead always carries its guard; the put shares the
                    // guard's key, the allocation the cache keeps.
                    if let (Some(store), Some(g)) = (&shared.store, &guard) {
                        store.put_shared(Arc::clone(g.key()), &result);
                    }
                    if let Some(g) = guard {
                        g.fulfill(Some(&result));
                    }
                    permit.on_success();
                    (200, None, render_ok("miss", &result))
                }
                Err(e) => {
                    drop(guard);
                    if Engine::counts_toward_breaker(e.kind) {
                        permit.on_failure(Instant::now());
                    } else {
                        permit.on_uncounted();
                    }
                    error_response(&e)
                }
            }
        }
    }
}
