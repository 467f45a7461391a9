//! Minimal raw-TCP HTTP client shared by the service integration suites.
//!
//! Deliberately independent of the server's own codec: the tests speak
//! bytes-on-a-socket, so a regression in `ctsdac_service::http` cannot
//! hide behind a matching client-side bug.

#![allow(dead_code)] // each test binary uses a subset

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP response.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub head: String,
    pub body: String,
}

impl Reply {
    /// Case-sensitive header lookup, e.g. `header("Retry-After")`.
    pub fn header(&self, name: &str) -> Option<String> {
        self.head
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name}: ")))
            .map(str::to_string)
    }

    /// The `result` object of an ok envelope (everything after
    /// `"result":` minus the closing envelope brace).
    pub fn result_object(&self) -> Option<&str> {
        let start = self.body.find("\"result\":")? + "\"result\":".len();
        self.body.get(start..self.body.len() - 1)
    }

    /// The `kind` of an error envelope.
    pub fn error_kind(&self) -> Option<&str> {
        let start = self.body.find("\"kind\":\"")? + "\"kind\":\"".len();
        let rest = &self.body[start..];
        Some(&rest[..rest.find('"')?])
    }
}

/// Sends one request and reads the full response (connection: close).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_reply(&raw)
}

/// POST with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<Reply> {
    request(addr, "POST", path, body)
}

/// Bodyless GET.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<Reply> {
    request(addr, "GET", path, "")
}

fn parse_reply(raw: &str) -> std::io::Result<Reply> {
    let bad = |detail: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{detail}: {raw:?}"),
        )
    };
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    if !head.starts_with("HTTP/1.1 ") {
        return Err(bad("not an HTTP/1.1 response"));
    }
    Ok(Reply {
        status,
        head: head.to_string(),
        body: body.to_string(),
    })
}
