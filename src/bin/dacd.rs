//! `dacd` — the sizing-as-a-service daemon.
//!
//! ```text
//! dacd [--addr HOST:PORT] [--workers N] [--jobs N] [--queue N]
//!      [--inflight N] [--rate R] [--burst B] [--breaker N]
//!      [--read-timeout-ms MS] [--deadline-ms MS] [--cache N]
//!      [--cache-bytes N] [--store DIR] [--fsync-ms MS]
//!      [--store-cap-bytes N] [--failpoints SPEC] [--failpoint-seed N]
//!      [--stdin-shutdown] [--help]
//! ```
//!
//! Serves `POST /v1/sizing`, `/v1/sweep`, `/v1/yield` (JSON bodies; see
//! the README schema reference), `GET /v1/healthz`, `GET /v1/metrics`,
//! and `POST /v1/shutdown` (graceful drain). The bound address is printed
//! to stdout as `listening on ADDR` once the socket is live, so scripts
//! can bind port 0 and scrape the real port.
//!
//! `--store DIR` makes the result cache durable: startup replays the
//! crash-consistent segment log in `DIR` (bit-identical warm cache),
//! every miss-fill is persisted write-behind, and `kill -9` loses at most
//! the last un-synced fsync window (`--fsync-ms`).
//!
//! `--failpoints SPEC` arms the deterministic failpoint registry
//! (comma-separated `kind@site[[key]][:policy]`), seeded by
//! `--failpoint-seed`; the `CTSDAC_FAILPOINTS` / `CTSDAC_FAILPOINT_SEED`
//! environment variables are honoured as well (CLI wins). I/O faults:
//! `short_write@store.append:3,eintr@http.read:1/5`. Chaos drills:
//! `panic@pool.chunk[0]:1,delay=120@pool.chunk[1]:1` panics or stalls
//! chunk attempts of every request's supervised pool (a keyed site: `:1`
//! is each run's first attempt of that chunk), and `lag=MS@service.handler`
//! holds every HTTP response back `MS` milliseconds (slow-server
//! injection for client-timeout testing).
//!
//! With `--stdin-shutdown` the daemon also drains when stdin reaches EOF
//! — the supervisor-friendly alternative to `POST /v1/shutdown`.

use ctsdac::service::server::{start, ServerConfig};
use ctsdac::store::StoreConfig;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> &'static str {
    "dacd - sizing-as-a-service daemon for ctsdac\n\
     \n\
     USAGE:\n\
     dacd [--addr HOST:PORT]     bind address (default 127.0.0.1:8080; port 0 = ephemeral)\n\
     \x20    [--workers N]          connection worker threads (default 4)\n\
     \x20    [--jobs N]             per-request runtime pool cap (default 8)\n\
     \x20    [--queue N]            accepted-connection queue bound (default 64)\n\
     \x20    [--inflight N]         in-flight watermark before shedding (default 64)\n\
     \x20    [--rate R]             per-tenant sustained requests/s (default 200)\n\
     \x20    [--burst B]            per-tenant burst tokens (default 400)\n\
     \x20    [--breaker N]          consecutive failures that trip the breaker (default 3)\n\
     \x20    [--read-timeout-ms MS] socket read timeout (default 5000)\n\
     \x20    [--deadline-ms MS]     default request deadline (default 30000)\n\
     \x20    [--cache N]            cached rendered results (default 256)\n\
     \x20    [--cache-bytes N]      cache byte budget over key+result payloads (default 33554432)\n\
     \x20    [--store DIR]          durable result store directory (default: memory-only)\n\
     \x20    [--fsync-ms MS]        store fsync batching interval (default 25)\n\
     \x20    [--store-cap-bytes N]  on-disk store byte cap before compaction (default 67108864)\n\
     \x20    [--failpoints SPEC]    failpoint arming: kind@site[[key]][:N|N..|1/N],...\n\
     \x20                           (e.g. panic@pool.chunk[0]:1,delay=120@pool.chunk[1]:1,\n\
     \x20                            lag=50@service.handler,short_write@store.append:3)\n\
     \x20    [--failpoint-seed N]   seed for 1/N failpoint policies (default 0)\n\
     \x20    [--stdin-shutdown]     drain when stdin reaches EOF\n\
     \x20    [--help]\n\
     \n\
     ENDPOINTS:\n\
     POST /v1/sizing | /v1/sweep | /v1/yield   JSON request -> JSON result\n\
     GET  /v1/healthz | /v1/metrics            liveness / metrics snapshot\n\
     POST /v1/shutdown                         graceful drain"
}

/// Parsed command line.
struct Args {
    cfg: ServerConfig,
    stdin_shutdown: bool,
    failpoints: Option<String>,
    failpoint_seed: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:8080".into(),
        ..ServerConfig::default()
    };
    let mut stdin_shutdown = false;
    let mut failpoints: Option<String> = None;
    let mut failpoint_seed = 0u64;
    let mut store_dir: Option<String> = None;
    let mut fsync_ms = 25usize;
    let mut store_cap_bytes = 64usize << 20;
    let mut it = argv.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => cfg.addr = value("--addr", &mut it)?,
            "--workers" => {
                cfg.workers = parse_num("--workers", &value("--workers", &mut it)?, 1, 64)?
            }
            "--jobs" => {
                cfg.engine.max_jobs = parse_num("--jobs", &value("--jobs", &mut it)?, 1, 64)?
            }
            "--queue" => {
                cfg.queue_cap = parse_num("--queue", &value("--queue", &mut it)?, 1, 4096)?
            }
            "--inflight" => {
                cfg.admission.max_inflight =
                    parse_num("--inflight", &value("--inflight", &mut it)?, 1, 4096)?
            }
            "--rate" => {
                cfg.admission.rate =
                    parse_num("--rate", &value("--rate", &mut it)?, 1, 1_000_000)? as f64
            }
            "--burst" => {
                cfg.admission.burst =
                    parse_num("--burst", &value("--burst", &mut it)?, 1, 1_000_000)? as f64
            }
            "--breaker" => {
                cfg.breaker.threshold =
                    parse_num("--breaker", &value("--breaker", &mut it)?, 1, 1000)? as u32
            }
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(parse_num(
                    "--read-timeout-ms",
                    &value("--read-timeout-ms", &mut it)?,
                    10,
                    600_000,
                )? as u64)
            }
            "--deadline-ms" => {
                cfg.engine.default_deadline = Some(Duration::from_millis(parse_num(
                    "--deadline-ms",
                    &value("--deadline-ms", &mut it)?,
                    1,
                    600_000,
                )? as u64))
            }
            "--cache" => {
                cfg.cache_capacity = parse_num("--cache", &value("--cache", &mut it)?, 1, 100_000)?
            }
            "--cache-bytes" => {
                cfg.cache_bytes = parse_num(
                    "--cache-bytes",
                    &value("--cache-bytes", &mut it)?,
                    1024,
                    usize::MAX,
                )?
            }
            "--store" => store_dir = Some(value("--store", &mut it)?),
            "--fsync-ms" => {
                fsync_ms = parse_num("--fsync-ms", &value("--fsync-ms", &mut it)?, 0, 60_000)?
            }
            "--store-cap-bytes" => {
                store_cap_bytes = parse_num(
                    "--store-cap-bytes",
                    &value("--store-cap-bytes", &mut it)?,
                    1024,
                    usize::MAX,
                )?
            }
            "--failpoints" => failpoints = Some(value("--failpoints", &mut it)?),
            "--failpoint-seed" => {
                failpoint_seed = parse_num(
                    "--failpoint-seed",
                    &value("--failpoint-seed", &mut it)?,
                    0,
                    usize::MAX,
                )? as u64
            }
            "--stdin-shutdown" => stdin_shutdown = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(dir) = store_dir {
        let mut store = StoreConfig::new(dir);
        store.fsync_interval = Duration::from_millis(fsync_ms as u64);
        store.cap_bytes = store_cap_bytes as u64;
        cfg.store = Some(store);
    }
    Ok(Args {
        cfg,
        stdin_shutdown,
        failpoints,
        failpoint_seed,
    })
}

fn parse_num(flag: &str, s: &str, lo: usize, hi: usize) -> Result<usize, String> {
    let n: usize = s.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(lo..=hi).contains(&n) {
        return Err(format!("{flag} = {n} is outside {lo}..={hi}"));
    }
    Ok(n)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("dacd: {msg}");
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    // A daemon that exposes /v1/metrics should actually record: the obs
    // registry is opt-in (zero overhead for library users), so arm it here.
    ctsdac::obs::set_metrics(true);

    // Failpoints: an explicit --failpoints spec wins over the environment.
    let armed = match &args.failpoints {
        Some(spec) => ctsdac::failpoint::global().arm(spec, args.failpoint_seed),
        None => ctsdac::failpoint::arm_global_from_env(),
    };
    match armed {
        Ok(0) => {}
        Ok(n) => eprintln!("dacd: {n} failpoint(s) armed"),
        Err(e) => {
            eprintln!("dacd: {e}");
            return ExitCode::from(2);
        }
    }

    let handle = match start(args.cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("dacd: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.local_addr());

    if args.stdin_shutdown {
        let shutdown = handle.clone_shutdown_trigger();
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
            shutdown();
        });
    }

    handle.join();
    println!("drained; goodbye");
    ExitCode::SUCCESS
}
