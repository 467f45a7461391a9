//! Minimal recursive-descent JSON, hand-rolled for the zero-dependency
//! request surface.
//!
//! Parsing is defensive by construction: input length is capped by the
//! HTTP layer before it reaches the parser, nesting depth is bounded
//! ([`MAX_DEPTH`]), and every malformation is a typed [`JsonError`] — the
//! daemon must answer garbage with a 400, never a panic. Serialisation
//! goes through [`escape`] so response bodies are always well-formed.
//!
//! Numbers are `f64` (JSON's own model); integer-valued fields are
//! range-checked at the protocol layer, not here.

use std::fmt;

/// Maximum nesting depth accepted by the parser. Request bodies are flat
/// objects; anything deeper is hostile or broken.
pub const MAX_DEPTH: usize = 16;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) if n.is_finite() => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Typed parse failure; always one line, safe to echo back to a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Unexpected byte or premature end at `offset`.
    Syntax {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        detail: String,
    },
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// Bytes remained after the first complete value.
    TrailingData {
        /// Offset of the first trailing byte.
        offset: usize,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { offset, detail } => {
                write!(f, "JSON syntax error at byte {offset}: {detail}")
            }
            Self::TooDeep => write!(f, "JSON nesting exceeds {MAX_DEPTH} levels"),
            Self::TrailingData { offset } => {
                write!(f, "trailing data after JSON value at byte {offset}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON value; trailing whitespace is allowed,
/// trailing data is not.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::TrailingData { offset: pos });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn syntax(pos: usize, detail: impl Into<String>) -> JsonError {
    JsonError::Syntax {
        offset: pos,
        detail: detail.into(),
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::TooDeep);
    }
    match bytes.get(*pos) {
        None => Err(syntax(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(syntax(*pos, format!("unexpected byte 0x{b:02x}"))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(syntax(*pos, format!("expected `{word}`")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| syntax(start, "non-UTF-8 number"))?;
    let n: f64 = text
        .parse()
        .map_err(|_| syntax(start, format!("invalid number `{text}`")))?;
    if !n.is_finite() {
        return Err(syntax(start, "number overflows f64"));
    }
    Ok(JsonValue::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(syntax(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let cp = parse_hex4(bytes, pos)?;
                        let ch = if (0xd800..0xdc00).contains(&cp) {
                            // High surrogate: require the paired low half.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(syntax(*pos, "invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c)
                            } else {
                                return Err(syntax(*pos, "unpaired surrogate"));
                            }
                        } else if (0xdc00..0xe000).contains(&cp) {
                            return Err(syntax(*pos, "unpaired low surrogate"));
                        } else {
                            char::from_u32(cp)
                        };
                        match ch {
                            Some(c) => out.push(c),
                            None => return Err(syntax(*pos, "invalid code point")),
                        }
                        // parse_hex4 already advanced past the digits.
                        continue;
                    }
                    _ => return Err(syntax(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(syntax(*pos, "raw control byte in string"));
            }
            Some(_) => {
                // Copy one UTF-8 scalar (the input is a &str, so this is
                // always a valid boundary walk).
                let rest = &bytes[*pos..];
                let len = utf8_len(rest[0]);
                match std::str::from_utf8(rest.get(..len).unwrap_or_default()) {
                    Ok(s) => out.push_str(s),
                    Err(_) => return Err(syntax(*pos, "invalid UTF-8")),
                }
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut cp = 0u32;
    for _ in 0..4 {
        let d = match bytes.get(*pos) {
            Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
            Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
            Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
            _ => return Err(syntax(*pos, "invalid \\u escape")),
        };
        cp = cp * 16 + d;
        *pos += 1;
    }
    Ok(cp)
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(syntax(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, JsonError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(syntax(*pos, "expected string key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(syntax(*pos, "expected `:`"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(syntax(*pos, "expected `,` or `}`")),
        }
    }
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_request_shape() {
        let v = parse(
            r#"{"mode": "sizing", "spec": {"n_bits": 12, "binary_bits": 4,
               "inl_yield": 0.997}, "grid": 16, "adaptive": false,
               "tenant": "alice", "deadline_ms": 2500.0}"#,
        )
        .expect("parses");
        assert_eq!(v.get("mode").and_then(JsonValue::as_str), Some("sizing"));
        let spec = v.get("spec").expect("spec");
        assert_eq!(spec.get("n_bits").and_then(JsonValue::as_num), Some(12.0));
        assert_eq!(
            spec.get("inl_yield").and_then(JsonValue::as_num),
            Some(0.997)
        );
        assert_eq!(v.get("adaptive").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = parse(r#"{"a": 1, "a": 2}"#).expect("parses");
        assert_eq!(v.get("a").and_then(JsonValue::as_num), Some(2.0));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\nd\u0041\u00e9\ud83d\ude00""#).expect("parses");
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé😀"));
        let escaped = escape("a\"b\\c\nd\u{1}");
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\u0001");
        // Escaped output re-parses to the original.
        let round = parse(&format!("\"{escaped}\"")).expect("round trips");
        assert_eq!(round.as_str(), Some("a\"b\\c\nd\u{1}"));
    }

    #[test]
    fn numbers_parse_and_reject_overflow() {
        assert_eq!(parse("-12.5e2").expect("num").as_num(), Some(-1250.0));
        assert_eq!(parse("0").expect("num").as_num(), Some(0.0));
        assert!(parse("1e999").is_err(), "overflow must be rejected");
        assert!(parse("01x").is_err());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{} extra",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\u{0009}ok\"",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(!err.to_string().is_empty());
        }
        // Raw control byte inside a string.
        assert!(parse("\"a\u{0000}b\"").is_err());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(parse(&deep), Err(JsonError::TooDeep));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn arrays_and_nested_objects() {
        let v =
            parse(r#"{"points": [{"x": 1}, {"x": 2}], "empty": [], "eo": {}}"#).expect("parses");
        match v.get("points") {
            Some(JsonValue::Arr(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1].get("x").and_then(JsonValue::as_num), Some(2.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("empty"), Some(&JsonValue::Arr(Vec::new())));
        assert_eq!(v.get("eo"), Some(&JsonValue::Obj(Vec::new())));
    }

    #[test]
    fn errors_display_one_line() {
        for e in [
            JsonError::Syntax {
                offset: 3,
                detail: "x".into(),
            },
            JsonError::TooDeep,
            JsonError::TrailingData { offset: 9 },
        ] {
            let msg = e.to_string();
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}");
        }
    }
}
