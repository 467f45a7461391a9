//! A deliberately small HTTP/1.1 server-side codec over `TcpStream`.
//!
//! The daemon speaks exactly the subset it needs — `GET`/`POST`, a
//! `Content-Length` body, `Connection: close` on every response — and
//! treats the network as hostile:
//!
//! * **Header and body caps** ([`MAX_HEAD_BYTES`], [`MAX_BODY_BYTES`]):
//!   oversized requests are rejected with a typed error before they can
//!   exhaust memory.
//! * **Read timeouts**: a slow-loris client that trickles bytes (or stalls
//!   mid-body) hits the socket timeout and is dropped with a typed
//!   [`HttpError::Timeout`]; it can never wedge a worker.
//! * **Mid-body disconnects** surface as [`HttpError::Disconnected`], not
//!   a panic or a blocked thread.
//!
//! Every parse failure is a typed [`HttpError`]; the server maps them to
//! 400s (or silence, when the client is already gone).

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Cap on the request line + headers, bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Cap on the declared request body, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// Failpoint site consulted on every socket read; honours `eintr`
/// (synthesize an interrupted read, exercising the retry path) and any
/// other kind as a hard socket error.
pub const SITE_READ: &str = "http.read";

/// Interrupted reads retried per request before giving up. A real signal
/// storm this deep would mean the host is in trouble anyway; the budget
/// just guarantees termination.
const EINTR_BUDGET: u32 = 64;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query string included, if any).
    pub path: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// Typed failure of reading one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The socket timed out before a full request arrived (slow client).
    Timeout,
    /// The peer closed the connection mid-request.
    Disconnected,
    /// The head exceeded [`MAX_HEAD_BYTES`] or the body declared more
    /// than [`MAX_BODY_BYTES`].
    TooLarge {
        /// What overflowed, for the diagnostic.
        what: &'static str,
    },
    /// The bytes were not a parseable HTTP/1.1 request.
    Malformed {
        /// One-line description.
        detail: String,
    },
    /// An unexpected socket error.
    Io {
        /// Stringified `io::Error` (kept typed-enum friendly: `io::Error`
        /// is not `Clone`/`PartialEq`).
        detail: String,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Timeout => write!(f, "client read timed out"),
            Self::Disconnected => write!(f, "client disconnected mid-request"),
            Self::TooLarge { what } => write!(f, "request {what} exceeds the size cap"),
            Self::Malformed { detail } => write!(f, "malformed request: {detail}"),
            Self::Io { detail } => write!(f, "socket error: {detail}"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => HttpError::Disconnected,
        _ => HttpError::Io {
            detail: e.to_string(),
        },
    }
}

fn malformed(detail: impl Into<String>) -> HttpError {
    HttpError::Malformed {
        detail: detail.into(),
    }
}

/// One socket read with EINTR handling: interrupted reads (real, or
/// injected at [`SITE_READ`]) are retried against `eintr_left` instead of
/// surfacing as an I/O error and dropping a healthy client.
fn read_retrying(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    eintr_left: &mut u32,
) -> Result<usize, HttpError> {
    loop {
        let interrupted = match ctsdac_failpoint::check(SITE_READ) {
            Some(ctsdac_failpoint::Failure::Eintr) => true,
            Some(f) => {
                return Err(HttpError::Io {
                    detail: format!("injected {}", f.name()),
                })
            }
            None => false,
        };
        let result = if interrupted {
            Err(std::io::Error::from(std::io::ErrorKind::Interrupted))
        } else {
            stream.read(chunk)
        };
        match result {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                if *eintr_left == 0 {
                    return Err(HttpError::Io {
                        detail: "read interrupted past retry budget".to_string(),
                    });
                }
                *eintr_left -= 1;
            }
            other => return other.map_err(io_error),
        }
    }
}

/// Reads one request from `stream`, enforcing the size caps and
/// `read_timeout` (applied to every socket read, so total stall time is
/// bounded per read, not per request).
pub fn read_request(
    stream: &mut TcpStream,
    read_timeout: Duration,
) -> Result<HttpRequest, HttpError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(io_error)?;

    // --- Head: read until CRLFCRLF, capped. ---
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let mut eintr_left = EINTR_BUDGET;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge { what: "head" });
        }
        let n = read_retrying(stream, &mut chunk, &mut eintr_left)?;
        if n == 0 {
            return Err(HttpError::Disconnected);
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| malformed("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported version `{version}`")));
    }

    let mut content_length: usize = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed("unparseable Content-Length"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge { what: "body" });
    }

    // --- Body: bytes already buffered past the head, then the socket. ---
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_retrying(stream, &mut chunk, &mut eintr_left)?;
        if n == 0 {
            return Err(HttpError::Disconnected);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(HttpRequest {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reason phrases for the statuses the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Writes one response and flushes. Every response carries
/// `Connection: close` — the daemon is strictly one request per
/// connection, which keeps the overload story simple (shedding closes the
/// socket, nothing lingers).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    retry_after_s: Option<u64>,
    body: &str,
) -> Result<(), HttpError> {
    // A stuck reader must not wedge the writer either.
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .map_err(io_error)?;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    if let Some(secs) = retry_after_s {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).map_err(io_error)?;
    stream.write_all(body.as_bytes()).map_err(io_error)?;
    stream.flush().map_err(io_error)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Loopback socket pair for codec tests.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        (client, server)
    }

    const TIMEOUT: Duration = Duration::from_millis(300);

    #[test]
    fn parses_post_with_body() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/sizing HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .expect("send");
        let req = read_request(&mut server, TIMEOUT).expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sizing");
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_get_without_body_and_split_packets() {
        let (mut client, mut server) = pair();
        client.write_all(b"GET /v1/healthz HT").expect("send 1");
        client.flush().expect("flush");
        client
            .write_all(b"TP/1.1\r\nHost: x\r\n\r\n")
            .expect("send 2");
        let req = read_request(&mut server, TIMEOUT).expect("parse");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn slow_client_times_out() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/sizing HTTP/1.1\r\n")
            .expect("send");
        // …and then nothing: the head never completes.
        let err = read_request(&mut server, Duration::from_millis(50)).expect_err("stall");
        assert_eq!(err, HttpError::Timeout);
    }

    #[test]
    fn mid_body_disconnect_is_typed() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/sizing HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"tru")
            .expect("send");
        drop(client); // hang up with 95 bytes owed
        let err = read_request(&mut server, TIMEOUT).expect_err("disconnect");
        assert_eq!(err, HttpError::Disconnected);
    }

    #[test]
    fn oversized_head_and_body_are_rejected() {
        let (mut client, mut server) = pair();
        let huge = format!(
            "POST / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        client.write_all(huge.as_bytes()).expect("send");
        let err = read_request(&mut server, TIMEOUT).expect_err("oversized head");
        assert_eq!(err, HttpError::TooLarge { what: "head" });

        let (mut client2, mut server2) = pair();
        client2
            .write_all(
                format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .expect("send");
        let err2 = read_request(&mut server2, TIMEOUT).expect_err("oversized body");
        assert_eq!(err2, HttpError::TooLarge { what: "body" });
    }

    #[test]
    fn malformed_requests_are_typed() {
        for bad in [
            "NONSENSE\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / SPDY/3\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n",
        ] {
            let (mut client, mut server) = pair();
            client.write_all(bad.as_bytes()).expect("send");
            let err = read_request(&mut server, TIMEOUT).expect_err(bad);
            assert!(
                matches!(err, HttpError::Malformed { .. }),
                "{bad:?} -> {err:?}"
            );
        }
    }

    #[test]
    fn response_is_well_formed_and_connection_close() {
        let (mut client, mut server) = pair();
        write_response(&mut server, 429, Some(3), "{\"status\":\"shed\"}").expect("write");
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).expect("read");
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Content-Length: 17\r\n"), "{text}");
        assert!(text.ends_with("{\"status\":\"shed\"}"), "{text}");
    }

    #[test]
    fn injected_eintr_is_retried_transparently() {
        // Global registry: site name is unique to this test's purpose and
        // the arming is consumed (single-hit policies) before assertions.
        ctsdac_failpoint::global()
            .arm("eintr@http.read:1,eintr@http.read:2,eintr@http.read:3", 0)
            .expect("arm");
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /v1/sizing HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}")
            .expect("send");
        let req = read_request(&mut server, TIMEOUT).expect("parse despite EINTRs");
        assert_eq!(req.body, b"{\"a\":1}");
        assert!(ctsdac_failpoint::global().fired(SITE_READ) >= 3);
    }

    #[test]
    fn errors_display_one_line() {
        for e in [
            HttpError::Timeout,
            HttpError::Disconnected,
            HttpError::TooLarge { what: "head" },
            HttpError::Malformed { detail: "x".into() },
            HttpError::Io { detail: "y".into() },
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
    }
}
