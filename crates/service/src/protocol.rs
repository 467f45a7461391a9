//! The wire protocol: typed requests, typed errors, and canonical
//! response rendering.
//!
//! Every request is parsed into a [`ServiceRequest`] *before* any physics
//! runs, with strict validation (unknown fields rejected, every range
//! checked) — [`ctsdac_core::DacSpec::new`] panics on bad arguments, so
//! the protocol layer is the panic firewall. Every failure is a typed
//! [`ApiError`] with a stable machine-readable `kind` and an HTTP status;
//! overloaded-path errors (`shed`, `breaker_open`, `shutting_down`) carry
//! a `Retry-After` hint.
//!
//! Responses are rendered with deterministic float formatting (Rust's
//! shortest round-trip `Display`), so one request always renders to one
//! byte string — the property the content-addressed cache stores and the
//! chaos suite asserts bit-identical.

use crate::json::{escape, parse, JsonValue};
use ctsdac_core::validate::MC_CHUNK_TRIALS;
use ctsdac_core::{Objective, SaturationCondition};

/// Which computation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Single optimum design point (supervised sweep + selection).
    Sizing,
    /// Full design-plane sweep; responds with summary + Pareto front.
    Sweep,
    /// Monte-Carlo saturation yield at one design point.
    Yield,
}

impl Mode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sizing => "sizing",
            Self::Sweep => "sweep",
            Self::Yield => "yield",
        }
    }
}

/// Saturation-condition selector on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CondSpec {
    /// The paper's statistical condition (default).
    Statistical,
    /// Eq. (4) with no margin.
    Exact,
    /// The prior-art fixed 0.5 V margin.
    Legacy,
    /// An explicit fixed margin in V.
    FixedMargin(f64),
}

impl CondSpec {
    /// Maps to the core type.
    pub fn to_condition(self) -> SaturationCondition {
        match self {
            Self::Statistical => SaturationCondition::Statistical,
            Self::Exact => SaturationCondition::Exact,
            Self::Legacy => SaturationCondition::legacy(),
            Self::FixedMargin(v) => SaturationCondition::FixedMargin(v),
        }
    }

    fn canonical(self) -> String {
        match self {
            Self::Statistical => "statistical".into(),
            Self::Exact => "exact".into(),
            Self::Legacy => "legacy".into(),
            Self::FixedMargin(v) => format!("fixed_margin:{:016x}", v.to_bits()),
        }
    }
}

/// A fully validated request, ready for the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRequest {
    /// Requested computation.
    pub mode: Mode,
    /// Total resolution in bits (1..=24).
    pub n_bits: u32,
    /// Binary-weighted LSBs (≤ `n_bits`).
    pub binary_bits: u32,
    /// Target INL yield, strictly in (0, 1).
    pub inl_yield: f64,
    /// Optimisation objective (sizing mode).
    pub objective: Objective,
    /// Saturation condition.
    pub condition: CondSpec,
    /// Sweep grid resolution per axis (4..=128).
    pub grid: usize,
    /// Design point for yield mode; `None` otherwise.
    pub point: Option<(f64, f64)>,
    /// Monte-Carlo seed (yield mode).
    pub seed: u64,
    /// Monte-Carlo trials (yield mode).
    pub trials: u64,
    /// Trials per supervised chunk (yield mode). Defaults to
    /// `dacsizer`'s chunk size, so a request with the same seed and
    /// trials reports `dacsizer`'s counts.
    pub chunk_trials: u64,
    /// Runtime pool width for this request (1..=32). Results are
    /// jobs-invariant by the runtime's bit-identity contract, so this is
    /// *not* part of the cache key.
    pub jobs: usize,
    /// End-to-end deadline in ms; `None` falls back to the server default.
    pub deadline_ms: Option<u64>,
    /// Fairness bucket for admission control. Not part of the cache key.
    pub tenant: String,
}

/// Stable error taxonomy of the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparseable or invalid request (HTTP 400).
    BadRequest,
    /// The spec admits no feasible design point (HTTP 422).
    Infeasible,
    /// The computation failed numerically (HTTP 422).
    Numerical,
    /// Load shed by admission control (HTTP 429 + `Retry-After`).
    Shed,
    /// The circuit breaker is open (HTTP 503 + `Retry-After`).
    BreakerOpen,
    /// The daemon is draining for shutdown (HTTP 503 + `Retry-After`).
    ShuttingDown,
    /// The request deadline expired before the result (HTTP 504).
    DeadlineExceeded,
    /// Supervised-runtime or server-side failure (HTTP 500).
    Internal,
}

impl ErrorKind {
    /// HTTP status for this kind.
    pub fn status(self) -> u16 {
        match self {
            Self::BadRequest => 400,
            Self::Infeasible | Self::Numerical => 422,
            Self::Shed => 429,
            Self::BreakerOpen | Self::ShuttingDown => 503,
            Self::DeadlineExceeded => 504,
            Self::Internal => 500,
        }
    }

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::Infeasible => "infeasible",
            Self::Numerical => "numerical",
            Self::Shed => "shed",
            Self::BreakerOpen => "breaker_open",
            Self::ShuttingDown => "shutting_down",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::Internal => "internal",
        }
    }
}

/// A typed service failure: kind + one-line detail + optional retry hint.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Error class; fixes the HTTP status.
    pub kind: ErrorKind,
    /// One-line human-readable description.
    pub detail: String,
    /// `Retry-After` seconds, for the overload-path kinds.
    pub retry_after_s: Option<u64>,
}

impl ApiError {
    /// Shorthand constructor without a retry hint.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
            retry_after_s: None,
        }
    }

    /// Attaches a `Retry-After` hint.
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after_s = Some(secs);
        self
    }

    /// Renders the error response body.
    pub fn render(&self) -> String {
        format!(
            "{{\"status\":\"error\",\"error\":{{\"kind\":\"{}\",\"detail\":\"{}\"}}}}",
            self.kind.name(),
            escape(&self.detail)
        )
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.detail)
    }
}

impl std::error::Error for ApiError {}

fn bad(detail: impl Into<String>) -> ApiError {
    ApiError::new(ErrorKind::BadRequest, detail)
}

/// Keys a request body may carry; anything else is rejected so typos fail
/// loudly instead of silently running the default computation.
const KNOWN_KEYS: &[&str] = &[
    "mode",
    "n_bits",
    "binary_bits",
    "inl_yield",
    "objective",
    "condition",
    "margin_v",
    "grid",
    "vov_cs",
    "vov_sw",
    "seed",
    "trials",
    "chunk_trials",
    "jobs",
    "deadline_ms",
    "tenant",
];

fn get_uint(obj: &JsonValue, key: &str, default: u64, lo: u64, hi: u64) -> Result<u64, ApiError> {
    let Some(v) = obj.get(key) else {
        return Ok(default);
    };
    let n = v
        .as_num()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))?;
    if n.fract() != 0.0 || n < 0.0 || n > u64::MAX as f64 {
        return Err(bad(format!("`{key}` must be a non-negative integer")));
    }
    let n = n as u64;
    if !(lo..=hi).contains(&n) {
        return Err(bad(format!("`{key}` = {n} is outside {lo}..={hi}")));
    }
    Ok(n)
}

fn get_float(obj: &JsonValue, key: &str, lo: f64, hi: f64) -> Result<Option<f64>, ApiError> {
    let Some(v) = obj.get(key) else {
        return Ok(None);
    };
    let n = v
        .as_num()
        .ok_or_else(|| bad(format!("`{key}` must be a number")))?;
    if !(n > lo && n < hi) {
        return Err(bad(format!("`{key}` = {n} is outside ({lo}, {hi})")));
    }
    Ok(Some(n))
}

/// Parses and validates a request body for the endpoint `mode`.
///
/// # Errors
///
/// [`ErrorKind::BadRequest`] for anything other than a well-formed JSON
/// object whose every field is known, well-typed, and in range.
pub fn parse_request(mode: Mode, body: &str) -> Result<ServiceRequest, ApiError> {
    let body = if body.trim().is_empty() { "{}" } else { body };
    let root = parse(body).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    let JsonValue::Obj(ref fields) = root else {
        return Err(bad("request body must be a JSON object"));
    };
    for (key, _) in fields {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            return Err(bad(format!("unknown field `{key}`")));
        }
    }
    if let Some(m) = root.get("mode") {
        let m = m.as_str().ok_or_else(|| bad("`mode` must be a string"))?;
        if m != mode.name() {
            return Err(bad(format!(
                "body mode `{m}` contradicts endpoint mode `{}`",
                mode.name()
            )));
        }
    }

    let n_bits = get_uint(&root, "n_bits", 12, 1, 24)? as u32;
    let binary_bits = get_uint(&root, "binary_bits", (n_bits / 3).into(), 0, 24)? as u32;
    if binary_bits > n_bits {
        return Err(bad(format!(
            "`binary_bits` = {binary_bits} exceeds `n_bits` = {n_bits}"
        )));
    }
    let inl_yield = get_float(&root, "inl_yield", 0.0, 1.0)?.unwrap_or(0.997);

    let objective = match root.get("objective").map(|v| v.as_str()) {
        None => Objective::MinArea,
        Some(Some("min_area")) => Objective::MinArea,
        Some(Some("max_speed")) => Objective::MaxSpeed,
        Some(Some("max_impedance")) => Objective::MaxImpedance,
        Some(other) => {
            return Err(bad(format!(
                "`objective` must be min_area | max_speed | max_impedance, got {other:?}"
            )))
        }
    };

    let margin = get_float(&root, "margin_v", -f64::EPSILON, 3.0)?;
    let condition = match root.get("condition").map(|v| v.as_str()) {
        None | Some(Some("statistical")) => CondSpec::Statistical,
        Some(Some("exact")) => CondSpec::Exact,
        Some(Some("legacy")) => CondSpec::Legacy,
        Some(Some("fixed_margin")) => CondSpec::FixedMargin(
            margin.ok_or_else(|| bad("`fixed_margin` condition requires `margin_v`"))?,
        ),
        Some(other) => {
            return Err(bad(format!(
                "`condition` must be statistical | exact | legacy | fixed_margin, got {other:?}"
            )))
        }
    };

    let grid = get_uint(&root, "grid", 24, 4, 128)? as usize;
    let jobs = get_uint(&root, "jobs", 1, 1, 32)? as usize;
    let seed = get_uint(&root, "seed", 42, 0, u64::MAX)?;
    let trials = get_uint(&root, "trials", 2000, 1, 200_000)?;
    let chunk_trials = get_uint(&root, "chunk_trials", MC_CHUNK_TRIALS, 1, 200_000)?.min(trials);
    let deadline_ms = match root.get("deadline_ms") {
        None => None,
        Some(_) => Some(get_uint(&root, "deadline_ms", 0, 1, 600_000)?),
    };

    let tenant = match root.get("tenant") {
        None => "anon".to_string(),
        Some(v) => {
            let t = v.as_str().ok_or_else(|| bad("`tenant` must be a string"))?;
            let ok = !t.is_empty()
                && t.len() <= 64
                && t.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_');
            if !ok {
                return Err(bad(
                    "`tenant` must be 1..=64 chars of [A-Za-z0-9_-]".to_string()
                ));
            }
            t.to_string()
        }
    };

    let vov_cs = get_float(&root, "vov_cs", 0.0, 3.0)?;
    let vov_sw = get_float(&root, "vov_sw", 0.0, 3.0)?;
    let point = match (mode, vov_cs, vov_sw) {
        (Mode::Yield, Some(cs), Some(sw)) => Some((cs, sw)),
        (Mode::Yield, _, _) => {
            return Err(bad("yield mode requires `vov_cs` and `vov_sw`"));
        }
        (_, None, None) => None,
        _ => return Err(bad("`vov_cs`/`vov_sw` only apply to yield mode")),
    };

    Ok(ServiceRequest {
        mode,
        n_bits,
        binary_bits,
        inl_yield,
        objective,
        condition,
        grid,
        point,
        seed,
        trials,
        chunk_trials,
        jobs,
        deadline_ms,
        tenant,
    })
}

/// Canonical request identity, used verbatim as the cache key.
///
/// The identity covers every field that changes the *result bytes* and
/// nothing else: `jobs` is excluded (the runtime's bit-identity contract
/// makes results jobs-invariant), and `deadline_ms`/`tenant` are excluded
/// (they change *whether* a result arrives, never *which*). The cache
/// keys on this full string rather than a hash of it: a hash collision
/// would silently serve one request's cached bytes as another's "ok"
/// result with no detection, and at ~100 bytes per entry the identity
/// costs nothing the rendered result doesn't already dwarf.
pub fn cache_key(req: &ServiceRequest) -> String {
    let objective = match req.objective {
        Objective::MinArea => "min_area",
        Objective::MaxSpeed => "max_speed",
        Objective::MaxImpedance => "max_impedance",
    };
    let point = match req.point {
        Some((cs, sw)) => format!("{:016x},{:016x}", cs.to_bits(), sw.to_bits()),
        None => "-".into(),
    };
    format!(
        "v1;mode={};n={};b={};y={:016x};obj={};cond={};grid={};pt={};seed={};trials={};chunk={}",
        req.mode.name(),
        req.n_bits,
        req.binary_bits,
        req.inl_yield.to_bits(),
        objective,
        req.condition.canonical(),
        req.grid,
        point,
        req.seed,
        req.trials,
        req.chunk_trials,
    )
}

/// Deterministic JSON rendering of a float: Rust's shortest round-trip
/// `Display`; non-finite values (which the physics should never emit into
/// a response) degrade to `null` rather than corrupt the document.
pub fn render_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Renders the success envelope around an already-rendered result object.
pub fn render_ok(cache: &str, result: &str) -> String {
    format!("{{\"status\":\"ok\",\"cache\":\"{cache}\",\"result\":{result}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_fill_a_minimal_request() {
        let req = parse_request(Mode::Sizing, "{}").expect("defaults");
        assert_eq!(req.n_bits, 12);
        assert_eq!(req.binary_bits, 4);
        assert_eq!(req.objective, Objective::MinArea);
        assert_eq!(req.condition, CondSpec::Statistical);
        assert_eq!(req.grid, 24);
        assert_eq!(req.jobs, 1);
        assert_eq!(req.tenant, "anon");
        assert!(req.point.is_none());
        // Empty body means all-defaults too.
        assert_eq!(parse_request(Mode::Sizing, "  ").expect("empty"), req);
    }

    #[test]
    fn full_request_round_trips() {
        let body = r#"{"mode":"yield","n_bits":10,"binary_bits":3,"inl_yield":0.99,
            "condition":"fixed_margin","margin_v":0.4,"vov_cs":0.9,"vov_sw":0.35,
            "seed":7,"trials":4000,"chunk_trials":1000,"jobs":4,
            "deadline_ms":2500,"tenant":"team-a"}"#;
        let req = parse_request(Mode::Yield, body).expect("parse");
        assert_eq!(req.n_bits, 10);
        assert_eq!(req.condition, CondSpec::FixedMargin(0.4));
        assert_eq!(req.point, Some((0.9, 0.35)));
        assert_eq!(req.deadline_ms, Some(2500));
        assert_eq!(req.tenant, "team-a");
        assert_eq!(req.jobs, 4);
    }

    #[test]
    fn invalid_requests_are_typed_bad_request() {
        let cases = [
            "[1,2]",
            "{\"mode\":\"sweep\"}",             // contradicts endpoint
            "{\"n_bits\":25}",                  // out of range
            "{\"n_bits\":8,\"binary_bits\":9}", // b > n
            "{\"inl_yield\":1.0}",              // boundary excluded
            "{\"grid\":2}",                     // below floor
            "{\"jobs\":64}",                    // above cap
            "{\"tenant\":\"has space\"}",
            "{\"typo_field\":1}",
            "{\"deadline_ms\":0}",
            "{\"condition\":\"fixed_margin\"}", // missing margin_v
            "{\"vov_cs\":0.5}",                 // point outside yield mode
            "not json",
        ];
        for body in cases {
            let err = parse_request(Mode::Sizing, body).expect_err(body);
            assert_eq!(err.kind, ErrorKind::BadRequest, "{body}");
            assert_eq!(err.kind.status(), 400);
        }
        // Yield without a point is also a 400.
        let err = parse_request(Mode::Yield, "{}").expect_err("yield needs point");
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn cache_key_ignores_jobs_deadline_tenant_only() {
        let base = parse_request(Mode::Sizing, "{}").expect("base");
        let same = parse_request(
            Mode::Sizing,
            "{\"jobs\":8,\"deadline_ms\":1000,\"tenant\":\"other\"}",
        )
        .expect("same identity");
        assert_eq!(cache_key(&base), cache_key(&same));

        for differing in [
            "{\"n_bits\":11}",
            "{\"grid\":25}",
            "{\"objective\":\"max_speed\"}",
            "{\"condition\":\"exact\"}",
            "{\"inl_yield\":0.95}",
        ] {
            let other = parse_request(Mode::Sizing, differing).expect(differing);
            assert_ne!(cache_key(&base), cache_key(&other), "{differing}");
        }
    }

    #[test]
    fn error_rendering_is_stable() {
        let e = ApiError::new(ErrorKind::Shed, "queue full").with_retry_after(2);
        assert_eq!(
            e.render(),
            "{\"status\":\"error\",\"error\":{\"kind\":\"shed\",\"detail\":\"queue full\"}}"
        );
        assert_eq!(e.retry_after_s, Some(2));
        assert_eq!(ErrorKind::Shed.status(), 429);
        assert_eq!(ErrorKind::DeadlineExceeded.status(), 504);
        assert_eq!(ErrorKind::BreakerOpen.status(), 503);
    }

    #[test]
    fn render_num_is_shortest_round_trip_and_null_safe() {
        assert_eq!(render_num(0.25), "0.25");
        assert_eq!(render_num(1e-3), "0.001");
        assert_eq!(render_num(f64::NAN), "null");
        assert_eq!(render_num(f64::INFINITY), "null");
    }
}
