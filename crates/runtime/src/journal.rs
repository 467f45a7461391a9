//! Write-ahead JSONL checkpoint journal.
//!
//! One plain-text line per completed chunk, preceded by a header line that
//! binds the run's identity (kind, seed, chunk count, parameter digest).
//! Appends are flushed and fsync'd before the supervisor counts a chunk as
//! durable, so a kill at any instant loses at most the line being written.
//!
//! Loading is corruption-tolerant by construction: a torn tail (no final
//! newline, or a line that fails to parse) is *dropped with a warning
//! count*, never an error — the dropped chunks are simply recomputed on
//! resume. A header that does not match the requested run identity is a
//! typed error: resuming a sweep journal into a different sweep would
//! silently splice wrong results, which is exactly the corruption this
//! format exists to prevent.
//!
//! The format is deliberately minimal JSON — flat objects with string and
//! unsigned-integer values, written and parsed by this module with no
//! external dependency:
//!
//! ```text
//! {"kind":"mc","seed":42,"chunks":10,"params":"trials=10000"}
//! {"chunk":0,"data":"993:1000"}
//! {"chunk":3,"data":"989:1000"}
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Identity of a checkpointed run; a journal only resumes into a run with
/// an identical meta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// What kind of run this is (e.g. `"sweep"`, `"mc"`).
    pub kind: String,
    /// Root RNG seed of the run (0 for deterministic non-random runs).
    pub seed: u64,
    /// Total number of chunks the run is split into.
    pub chunks: u64,
    /// Free-form digest of every parameter that determines chunk results
    /// (spec, grid, ranges, trial counts…). Two runs with different
    /// params must not share a journal.
    pub params: String,
}

/// Typed journal failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O operation failed; the message carries `std::io::Error`'s
    /// description (kept as a string so the error stays `Clone + Eq`).
    Io {
        /// Journal file path.
        path: String,
        /// One-line failure description.
        detail: String,
    },
    /// The file exists but its header does not match the requested run.
    MetaMismatch {
        /// Journal file path.
        path: String,
        /// The identity the caller asked to resume.
        expected: String,
        /// The identity found in the file.
        found: String,
    },
    /// The file exists but no valid header line could be read.
    NoHeader {
        /// Journal file path.
        path: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, detail } => write!(f, "journal {path}: {detail}"),
            Self::MetaMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {path} belongs to a different run (found {found}, expected {expected})"
            ),
            Self::NoHeader { path } => {
                write!(f, "journal {path} has no readable header line")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// What a journal load found.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoadReport {
    /// Valid chunk entries recovered.
    pub entries: u64,
    /// Trailing lines dropped as corrupt/truncated.
    pub dropped: u64,
}

/// An open, append-mode checkpoint journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    meta: JournalMeta,
}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

impl Journal {
    /// Creates a fresh journal at `path`, truncating anything there, and
    /// durably writes the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn create(path: &Path, meta: &JournalMeta) -> Result<Self, JournalError> {
        let file = File::create(path).map_err(|e| io_err(path, &e))?;
        let mut journal = Self {
            file,
            path: path.to_path_buf(),
            meta: meta.clone(),
        };
        journal.write_line(&header_line(meta))?;
        Ok(journal)
    }

    /// Opens `path` for resumption: validates the header against `meta`,
    /// recovers every parseable chunk entry, drops a corrupt tail, and
    /// reopens the file in append mode positioned after the last valid
    /// line (so the torn tail is overwritten, not accumulated).
    ///
    /// A missing file is not an error — it degrades to [`Journal::create`]
    /// with an empty recovery map, so callers can use one code path for
    /// first runs and resumed runs.
    ///
    /// # Errors
    ///
    /// [`JournalError::MetaMismatch`] / [`JournalError::NoHeader`] when the
    /// file belongs to a different or unrecognisable run;
    /// [`JournalError::Io`] on filesystem failures.
    pub fn resume(
        path: &Path,
        meta: &JournalMeta,
    ) -> Result<(Self, BTreeMap<u64, String>, LoadReport), JournalError> {
        if !path.exists() {
            let journal = Self::create(path, meta)?;
            return Ok((journal, BTreeMap::new(), LoadReport::default()));
        }
        let mut text = String::new();
        File::open(path)
            .and_then(|mut f| f.read_to_string(&mut text))
            .map_err(|e| io_err(path, &e))?;

        // Only segments terminated by '\n' are complete; a trailing
        // unterminated segment is a torn append and always dropped.
        let mut complete: Vec<&str> = Vec::new();
        let mut torn_tail = 0u64;
        let mut rest = text.as_str();
        while let Some(pos) = rest.find('\n') {
            complete.push(&rest[..pos]);
            rest = &rest[pos + 1..];
        }
        if !rest.is_empty() {
            torn_tail = 1;
        }

        let mut lines = complete.into_iter();
        let header = lines.next().and_then(parse_header);
        let found = match header {
            Some(m) => m,
            None => {
                return Err(JournalError::NoHeader {
                    path: path.display().to_string(),
                })
            }
        };
        if found != *meta {
            return Err(JournalError::MetaMismatch {
                path: path.display().to_string(),
                expected: format!("{meta:?}"),
                found: format!("{found:?}"),
            });
        }

        let mut entries = BTreeMap::new();
        let mut report = LoadReport {
            entries: 0,
            dropped: torn_tail,
        };
        let mut valid_bytes = header_line(meta).len() as u64 + 1;
        for line in lines {
            match parse_entry(line) {
                Some((chunk, data)) if chunk < meta.chunks => {
                    entries.insert(chunk, data);
                    valid_bytes += line.len() as u64 + 1;
                }
                // First unparseable (or out-of-range) line: everything
                // from here on is suspect — drop it and stop.
                _ => {
                    report.dropped += 1;
                    break;
                }
            }
        }
        report.entries = entries.len() as u64;

        // Reopen positioned after the last valid line so the corrupt tail
        // is physically discarded before new appends.
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.set_len(valid_bytes).map_err(|e| io_err(path, &e))?;
        let mut file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        file.flush().map_err(|e| io_err(path, &e))?;
        let journal = Self {
            file,
            path: path.to_path_buf(),
            meta: meta.clone(),
        };
        Ok((journal, entries, report))
    }

    /// Durably appends one completed chunk (write + flush + fsync).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn append(&mut self, chunk: u64, data: &str) -> Result<(), JournalError> {
        let line = format!("{{\"chunk\":{chunk},\"data\":\"{}\"}}", escape_json(data));
        self.write_line(&line)
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run identity this journal is bound to.
    pub fn meta(&self) -> &JournalMeta {
        &self.meta
    }

    fn write_line(&mut self, line: &str) -> Result<(), JournalError> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        match ctsdac_failpoint::check(SITE_APPEND) {
            Some(ctsdac_failpoint::Failure::ShortWrite) => {
                // A crash mid-write: persist a torn prefix and report
                // success, exactly what a dying process would leave for
                // the resume scan to truncate.
                let half = buf.len() / 2;
                let _ = self
                    .file
                    .write_all(&buf[..half])
                    .and_then(|()| self.file.flush())
                    .and_then(|()| self.file.sync_data());
                return Ok(());
            }
            Some(f) => {
                return Err(JournalError::Io {
                    path: self.path.display().to_string(),
                    detail: format!("injected {}", f.name()),
                })
            }
            None => {}
        }
        self.file
            .write_all(&buf)
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, &e))
    }
}

/// Failpoint site consulted on every journal record append. Honours
/// `short_write` (persist a torn prefix, report success — the resume scan
/// later truncates it) and any other kind as an I/O error.
pub const SITE_APPEND: &str = "journal.append";

/// Truncates `bytes` off the end of a file — the journal-corruption
/// primitive crash drills use to simulate a crash mid-append (a torn tail
/// line).
///
/// Returns the new length. Truncating more bytes than the file holds
/// empties it.
///
/// # Errors
///
/// Any I/O failure opening or resizing the file.
pub fn truncate_tail(path: &Path, bytes: u64) -> std::io::Result<u64> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    let new_len = len.saturating_sub(bytes);
    file.set_len(new_len)?;
    file.sync_data()?;
    Ok(new_len)
}

fn header_line(meta: &JournalMeta) -> String {
    format!(
        "{{\"kind\":\"{}\",\"seed\":{},\"chunks\":{},\"params\":\"{}\"}}",
        escape_json(&meta.kind),
        meta.seed,
        meta.chunks,
        escape_json(&meta.params)
    )
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One parsed JSON value of the subset this module writes.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    UInt(u64),
}

/// Parses one flat JSON object of string/unsigned-integer values. Returns
/// `None` on any deviation — the caller treats that as corruption.
fn parse_flat_object(line: &str) -> Option<Vec<(String, JsonValue)>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = Vec::new();
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' => {
                chars.next();
            }
            _ => {}
        }
        let key = parse_string(&mut chars)?;
        if chars.next()? != ':' {
            return None;
        }
        let value = match chars.peek()? {
            '"' => JsonValue::Str(parse_string(&mut chars)?),
            c if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
                    n = n.checked_mul(10)?.checked_add(u64::from(d))?;
                    chars.next();
                }
                JsonValue::UInt(n)
            }
            _ => return None,
        };
        fields.push((key, value));
    }
    // Nothing but whitespace may follow the closing brace.
    if chars.any(|c| !c.is_whitespace()) {
        return None;
    }
    Some(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

fn parse_header(line: &str) -> Option<JournalMeta> {
    let fields = parse_flat_object(line)?;
    let mut kind = None;
    let mut seed = None;
    let mut chunks = None;
    let mut params = None;
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("kind", JsonValue::Str(s)) => kind = Some(s),
            ("seed", JsonValue::UInt(n)) => seed = Some(n),
            ("chunks", JsonValue::UInt(n)) => chunks = Some(n),
            ("params", JsonValue::Str(s)) => params = Some(s),
            _ => return None,
        }
    }
    Some(JournalMeta {
        kind: kind?,
        seed: seed?,
        chunks: chunks?,
        params: params?,
    })
}

/// Encodes an `f64` as its 16-hex-digit IEEE-754 bit pattern — the only
/// text encoding that round-trips every value (NaN payloads, -0.0,
/// subnormals) bit-exactly, which the checkpoint determinism guarantee
/// requires.
pub fn encode_f64(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Decodes [`encode_f64`] output; `None` for anything else.
pub fn decode_f64(s: &str) -> Option<f64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

fn parse_entry(line: &str) -> Option<(u64, String)> {
    let fields = parse_flat_object(line)?;
    let mut chunk = None;
    let mut data = None;
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("chunk", JsonValue::UInt(n)) => chunk = Some(n),
            ("data", JsonValue::Str(s)) => data = Some(s),
            _ => return None,
        }
    }
    Some((chunk?, data?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_tail_chops_and_saturates() {
        let dir = std::env::temp_dir().join("ctsdac-runtime-truncate-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("trunc.jsonl");
        std::fs::write(&path, b"hello world\n").expect("write");
        let len = truncate_tail(&path, 6).expect("truncate");
        assert_eq!(len, 6);
        assert_eq!(std::fs::read(&path).expect("read"), b"hello ");
        let len = truncate_tail(&path, 1000).expect("truncate past start");
        assert_eq!(len, 0);
        std::fs::remove_file(&path).ok();
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ctsdac-runtime-journal-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn meta() -> JournalMeta {
        JournalMeta {
            kind: "test".into(),
            seed: 42,
            chunks: 8,
            params: "grid=4,range=[0.05,1.55]".into(),
        }
    }

    #[test]
    fn round_trip_entries() {
        let path = tmp("roundtrip.jsonl");
        {
            let mut j = Journal::create(&path, &meta()).expect("create");
            j.append(0, "a:1").expect("append");
            j.append(3, "weird \"quoted\" \\ payload\nline2")
                .expect("append");
        }
        let (_, entries, report) = Journal::resume(&path, &meta()).expect("resume");
        assert_eq!(
            report,
            LoadReport {
                entries: 2,
                dropped: 0
            }
        );
        assert_eq!(entries.get(&0).map(String::as_str), Some("a:1"));
        assert_eq!(
            entries.get(&3).map(String::as_str),
            Some("weird \"quoted\" \\ payload\nline2")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_degrades_to_create() {
        let path = tmp("fresh.jsonl");
        std::fs::remove_file(&path).ok();
        let (j, entries, report) = Journal::resume(&path, &meta()).expect("resume");
        assert!(entries.is_empty());
        assert_eq!(report, LoadReport::default());
        assert_eq!(j.meta(), &meta());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_with_a_count() {
        let path = tmp("torn.jsonl");
        {
            let mut j = Journal::create(&path, &meta()).expect("create");
            j.append(0, "zero").expect("append");
            j.append(1, "one").expect("append");
        }
        // Simulate a crash mid-append: chop into the final line.
        truncate_tail(&path, 5).expect("truncate");
        let (_, entries, report) = Journal::resume(&path, &meta()).expect("resume");
        assert_eq!(
            report,
            LoadReport {
                entries: 1,
                dropped: 1
            }
        );
        assert_eq!(entries.get(&0).map(String::as_str), Some("zero"));
        assert!(!entries.contains_key(&1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_physically_discards_the_torn_tail() {
        let path = tmp("discard.jsonl");
        {
            let mut j = Journal::create(&path, &meta()).expect("create");
            j.append(0, "zero").expect("append");
            j.append(1, "one").expect("append");
        }
        truncate_tail(&path, 3).expect("truncate");
        {
            let (mut j, _, _) = Journal::resume(&path, &meta()).expect("resume");
            j.append(2, "two").expect("append");
        }
        // A second resume sees chunks 0 and 2 cleanly; the torn line for
        // chunk 1 is gone, not interleaved.
        let (_, entries, report) = Journal::resume(&path, &meta()).expect("resume");
        assert_eq!(
            report,
            LoadReport {
                entries: 2,
                dropped: 0
            }
        );
        assert_eq!(entries.keys().copied().collect::<Vec<_>>(), vec![0, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_mid_file_stops_recovery_there() {
        let path = tmp("garbage.jsonl");
        {
            let mut j = Journal::create(&path, &meta()).expect("create");
            j.append(0, "zero").expect("append");
        }
        // Corrupt by appending a non-JSON line *with* newline, then a
        // valid-looking line after it: recovery must stop at the garbage.
        let mut raw = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("open");
        use std::io::Write as _;
        raw.write_all(b"!!not json!!\n{\"chunk\":5,\"data\":\"five\"}\n")
            .expect("write");
        drop(raw);
        let (_, entries, report) = Journal::resume(&path, &meta()).expect("resume");
        assert_eq!(entries.len(), 1);
        assert!(entries.contains_key(&0));
        assert!(report.dropped >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_meta_is_a_typed_error() {
        let path = tmp("mismatch.jsonl");
        {
            Journal::create(&path, &meta()).expect("create");
        }
        let mut other = meta();
        other.params = "grid=9".into();
        match Journal::resume(&path, &other) {
            Err(JournalError::MetaMismatch { .. }) => {}
            other => panic!("expected MetaMismatch, got {other:?}"),
        }
        // Out-of-range chunk indices (> meta.chunks) are treated as
        // corruption too.
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn headerless_file_is_a_typed_error() {
        let path = tmp("headerless.jsonl");
        std::fs::write(&path, "no json here\n").expect("write");
        match Journal::resume(&path, &meta()) {
            Err(JournalError::NoHeader { .. }) => {}
            other => panic!("expected NoHeader, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_chunk_is_treated_as_corruption() {
        let path = tmp("range.jsonl");
        {
            let mut j = Journal::create(&path, &meta()).expect("create");
            j.append(0, "zero").expect("append");
            // meta().chunks == 8, so 8 is out of range.
            j.append(8, "eight").expect("append");
            j.append(1, "one").expect("append");
        }
        let (_, entries, report) = Journal::resume(&path, &meta()).expect("resume");
        assert_eq!(entries.len(), 1);
        assert!(entries.contains_key(&0));
        assert!(report.dropped >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parser_rejects_malformed_objects() {
        for bad in [
            "",
            "{",
            "{}extra",
            "[1,2]",
            "{\"chunk\":-1,\"data\":\"x\"}",
            "{\"chunk\":1e3,\"data\":\"x\"}",
            "{\"chunk\":99999999999999999999999,\"data\":\"x\"}",
            "{\"chunk\":1,\"data\":\"unterminated}",
            "{\"chunk\":1,\"data\":\"bad escape \\q\"}",
        ] {
            assert_eq!(parse_entry(bad), None, "accepted {bad:?}");
        }
        assert_eq!(
            parse_entry("{\"chunk\":7,\"data\":\"ok\"}"),
            Some((7, "ok".into()))
        );
    }

    #[test]
    fn f64_codec_round_trips_bit_exactly() {
        for x in [
            0.0,
            -0.0,
            1.5e-9,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE / 8.0, // subnormal
            -987.654321,
        ] {
            let s = encode_f64(x);
            let back = decode_f64(&s).expect("decodes");
            assert_eq!(back.to_bits(), x.to_bits(), "{x} via {s}");
        }
        for bad in ["", "xyz", "123", "00000000000000000", "0123456789abcdeg"] {
            assert_eq!(decode_f64(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_display_one_line() {
        let errs = [
            JournalError::Io {
                path: "p".into(),
                detail: "denied".into(),
            },
            JournalError::MetaMismatch {
                path: "p".into(),
                expected: "a".into(),
                found: "b".into(),
            },
            JournalError::NoHeader { path: "p".into() },
        ];
        for e in errs {
            let msg = format!("{e}");
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
    }
}
