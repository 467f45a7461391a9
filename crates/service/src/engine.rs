//! Request execution: a validated [`ServiceRequest`] in, rendered result
//! bytes (or a typed [`ApiError`]) out.
//!
//! The engine owns deadline propagation: the request deadline becomes a
//! deadline-carrying [`CancelToken`] armed on the supervised pool, so an
//! expired request cancels its remaining chunks cooperatively instead of
//! burning the pool for a client that already gave up. When supervision
//! reports `Cancelled` and the token is expired, the engine maps it to a
//! typed [`ErrorKind::DeadlineExceeded`]; domain failures (empty feasible
//! region, bias-point rejection) map to 422s and are never confused with
//! runtime trouble, which is what the circuit breaker feeds on.

use crate::protocol::{render_num, ApiError, ErrorKind, Mode, ServiceRequest};
use ctsdac_core::explore::SweepError;
use ctsdac_core::validate::{saturation_yield_supervised, SaturationYield, ValidateError};
use ctsdac_core::{DacSpec, DesignPoint, DesignSpace};
use ctsdac_failpoint::Registry;
use ctsdac_obs as obs;
use ctsdac_runtime::{CancelToken, ExecPolicy, McPlan, RuntimeError};
use std::sync::Arc;
use std::time::Duration;

/// Engine parameters (per-daemon, shared by all requests).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Deadline applied when a request does not carry one.
    pub default_deadline: Option<Duration>,
    /// The daemon's failpoint registry: its `pool.chunk` sites reach every
    /// request's supervised pool and `service.handler` every response.
    /// `None` uses the process-global registry (unarmed in production).
    pub failpoints: Option<Arc<Registry>>,
    /// Hard cap on per-request pool width (requests ask via `jobs`).
    pub max_jobs: usize,
}

/// The execution engine.
#[derive(Debug, Default)]
pub struct Engine {
    cfg: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    pub fn new(cfg: EngineConfig) -> Self {
        Self { cfg }
    }

    /// True when `kind` indicates *runtime* trouble that should count
    /// toward the circuit breaker (as opposed to a domain rejection or
    /// the client's own deadline).
    pub fn counts_toward_breaker(kind: ErrorKind) -> bool {
        matches!(kind, ErrorKind::Internal)
    }

    /// Executes a request end to end, arming a fresh deadline token.
    ///
    /// # Errors
    ///
    /// Typed [`ApiError`]: 422 for domain rejections, 504 when the
    /// deadline expired mid-run, 500 for supervision failures.
    pub fn execute(&self, req: &ServiceRequest) -> Result<String, ApiError> {
        let deadline = req
            .deadline_ms
            .map(Duration::from_millis)
            .or(self.cfg.default_deadline);
        let token = match deadline {
            Some(d) => CancelToken::expiring_in(d),
            None => CancelToken::new(),
        };
        self.execute_with_token(req, token)
    }

    /// Executes with an externally supplied token (tests arm pre-expired
    /// tokens to pin down the 504 path without racing wall clocks).
    pub fn execute_with_token(
        &self,
        req: &ServiceRequest,
        token: CancelToken,
    ) -> Result<String, ApiError> {
        let _span = obs::span("service.execute");
        if token.is_cancelled() {
            return Err(deadline_error(&token));
        }
        let jobs = req.jobs.min(self.cfg.max_jobs.max(1));
        let mut policy = ExecPolicy::with_jobs(jobs);
        policy.pool.cancel = token.clone();
        policy.pool.failpoints = self.cfg.failpoints.clone();

        // Validated by the protocol layer, so `DacSpec::new` cannot panic.
        let spec = DacSpec::new(
            req.n_bits,
            req.binary_bits,
            req.inl_yield,
            ctsdac_circuit::cell::CellEnvironment::paper_12bit(),
            ctsdac_process::Technology::c035(),
        );
        let condition = req.condition.to_condition();

        match req.mode {
            Mode::Sizing => {
                let space = DesignSpace::new(&spec, condition).with_grid(req.grid);
                let out = space
                    .optimize_supervised(req.objective, f64::INFINITY, &policy)
                    .map_err(|e| map_sweep_error(e, &token))?;
                Ok(format!("{{\"point\":{}}}", render_point(&out.value)))
            }
            Mode::Sweep => {
                let space = DesignSpace::new(&spec, condition).with_grid(req.grid);
                let out = space
                    .sweep_supervised(&policy)
                    .map_err(|e| map_sweep_error(e, &token))?;
                Ok(render_sweep(&out.value))
            }
            Mode::Yield => {
                // `point` is `Some` for yield mode by protocol validation.
                let (vov_cs, vov_sw) = req.point.unwrap_or((0.0, 0.0));
                let plan = McPlan::new(req.seed, req.trials, req.chunk_trials)
                    .map_err(|e| map_runtime_error(e, &token))?;
                let out = saturation_yield_supervised(&spec, vov_cs, vov_sw, &plan, &policy)
                    .map_err(|e| map_validate_error(e, &token))?;
                Ok(render_yield(vov_cs, vov_sw, &out.value))
            }
        }
    }
}

fn deadline_error(token: &CancelToken) -> ApiError {
    debug_assert!(token.is_cancelled());
    obs::incr(obs::Counter::ServiceDeadlineExceeded);
    ApiError::new(
        ErrorKind::DeadlineExceeded,
        "request deadline expired before the result",
    )
}

fn map_runtime_error(e: RuntimeError, token: &CancelToken) -> ApiError {
    match e {
        RuntimeError::Cancelled { .. } if token.is_expired() => deadline_error(token),
        other => ApiError::new(ErrorKind::Internal, format!("supervised runtime: {other}")),
    }
}

fn map_sweep_error(e: SweepError, token: &CancelToken) -> ApiError {
    match e {
        SweepError::Explore(ctsdac_core::explore::ExploreError::EmptyFeasibleRegion {
            evaluated,
        }) => ApiError::new(
            ErrorKind::Infeasible,
            format!("empty feasible region over {evaluated} grid points"),
        ),
        SweepError::Explore(e) => ApiError::new(ErrorKind::Numerical, e.to_string()),
        SweepError::Runtime(e) => map_runtime_error(e, token),
    }
}

fn map_validate_error(e: ValidateError, token: &CancelToken) -> ApiError {
    match e {
        ValidateError::Bias(e) => ApiError::new(
            ErrorKind::Infeasible,
            format!("design point has no bias point: {e}"),
        ),
        ValidateError::Stats(e) => ApiError::new(ErrorKind::Numerical, e.to_string()),
        ValidateError::Runtime(e) => map_runtime_error(e, token),
    }
}

/// Renders one design point. Field order is fixed; floats use shortest
/// round-trip formatting — the bytes are the cache contract.
fn render_point(p: &DesignPoint) -> String {
    format!(
        "{{\"vov_cs\":{},\"vov_sw\":{},\"feasible\":{},\"total_area_m2\":{},\"min_pole_hz\":{},\"settling_s\":{},\"rout_ohm\":{},\"dc_i_out_a\":{}}}",
        render_num(p.vov_cs),
        render_num(p.vov_sw),
        p.feasible,
        render_num(p.total_area),
        render_num(p.min_pole_hz),
        render_num(p.settling_s),
        render_num(p.rout),
        render_num(p.dc_i_out),
    )
}

fn render_sweep(points: &[DesignPoint]) -> String {
    let feasible: Vec<&DesignPoint> = points.iter().filter(|p| p.feasible).collect();
    let best_area =
        feasible
            .iter()
            .copied()
            .reduce(|a, b| if b.total_area < a.total_area { b } else { a });
    let best_speed =
        feasible
            .iter()
            .copied()
            .reduce(|a, b| if b.min_pole_hz > a.min_pole_hz { b } else { a });
    let opt = |p: Option<&DesignPoint>| p.map_or_else(|| "null".to_string(), render_point);
    format!(
        "{{\"evaluated\":{},\"feasible\":{},\"best_area\":{},\"best_speed\":{}}}",
        points.len(),
        feasible.len(),
        opt(best_area),
        opt(best_speed),
    )
}

fn render_yield(vov_cs: f64, vov_sw: f64, sy: &SaturationYield) -> String {
    format!(
        "{{\"vov_cs\":{},\"vov_sw\":{},\"passes\":{},\"trials\":{},\"estimate\":{},\"predicted\":{},\"margin_lo_v\":{},\"margin_up_v\":{}}}",
        render_num(vov_cs),
        render_num(vov_sw),
        sy.mc.passes(),
        sy.mc.trials(),
        render_num(sy.mc.estimate()),
        render_num(sy.predicted),
        render_num(sy.margins.0),
        render_num(sy.margins.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            default_deadline: None,
            failpoints: None,
            max_jobs: 8,
        })
    }

    #[test]
    fn sizing_result_is_deterministic_and_jobs_invariant() {
        let e = engine();
        let req1 = parse_request(Mode::Sizing, "{\"grid\":8}").expect("req");
        let req8 = parse_request(Mode::Sizing, "{\"grid\":8,\"jobs\":8}").expect("req");
        let a = e.execute(&req1).expect("sizing");
        let b = e.execute(&req1).expect("sizing again");
        let c = e.execute(&req8).expect("sizing wide");
        assert_eq!(a, b, "identical requests render identical bytes");
        assert_eq!(a, c, "result bytes are jobs-invariant");
        assert!(a.contains("\"feasible\":true"), "{a}");
    }

    #[test]
    fn sweep_summary_counts_and_yield_estimate_render() {
        let e = engine();
        let sweep = parse_request(Mode::Sweep, "{\"grid\":8}").expect("req");
        let body = e.execute(&sweep).expect("sweep");
        assert!(body.starts_with("{\"evaluated\":64,"), "{body}");

        // Validate the yield path at the sizing optimum.
        let sizing = parse_request(Mode::Sizing, "{\"grid\":8}").expect("req");
        let point = e.execute(&sizing).expect("sizing");
        let vov_cs = extract(&point, "\"vov_cs\":");
        let vov_sw = extract(&point, "\"vov_sw\":");
        let yreq = parse_request(
            Mode::Yield,
            &format!(
                "{{\"vov_cs\":{vov_cs},\"vov_sw\":{vov_sw},\"trials\":500,\"chunk_trials\":250}}"
            ),
        )
        .expect("yield req");
        let ybody = e.execute(&yreq).expect("yield");
        assert!(ybody.contains("\"trials\":500"), "{ybody}");
        assert!(ybody.contains("\"estimate\":"), "{ybody}");
    }

    fn extract(body: &str, key: &str) -> f64 {
        let start = body.find(key).expect(key) + key.len();
        let rest = &body[start..];
        let end = rest.find([',', '}']).expect("terminator");
        rest[..end].parse().expect("number")
    }

    #[test]
    fn expired_deadline_is_a_typed_504() {
        let e = engine();
        let req = parse_request(Mode::Sizing, "{\"grid\":16}").expect("req");
        let token = CancelToken::expiring_in(Duration::ZERO);
        let err = e.execute_with_token(&req, token).expect_err("expired");
        assert_eq!(err.kind, ErrorKind::DeadlineExceeded);
        assert_eq!(err.kind.status(), 504);
    }

    #[test]
    fn infeasible_point_and_region_map_to_422() {
        let e = engine();
        // No headroom at 1.5 V overdrives under a 3.3 V supply.
        let req = parse_request(
            Mode::Yield,
            "{\"vov_cs\":1.5,\"vov_sw\":1.5,\"trials\":100}",
        )
        .expect("req");
        let err = e.execute(&req).expect_err("no bias point");
        assert_eq!(err.kind, ErrorKind::Infeasible);
        assert_eq!(err.kind.status(), 422);

        // An absurd fixed margin empties the whole feasible region.
        let req = parse_request(
            Mode::Sizing,
            "{\"grid\":8,\"condition\":\"fixed_margin\",\"margin_v\":2.9}",
        )
        .expect("req");
        let err = e.execute(&req).expect_err("empty region");
        assert_eq!(err.kind, ErrorKind::Infeasible);
    }

    #[test]
    fn exhausted_fault_retries_map_to_internal_500() {
        let e = Engine::new(EngineConfig {
            default_deadline: None,
            // Panic every attempt of chunk 0: exhausts the retry budget.
            failpoints: Some(Registry::armed("panic@pool.chunk[0]", 0).expect("spec")),
            max_jobs: 2,
        });
        let req = parse_request(Mode::Sizing, "{\"grid\":8}").expect("req");
        let err = e.execute(&req).expect_err("retry exhaustion");
        assert_eq!(err.kind, ErrorKind::Internal);
        assert!(Engine::counts_toward_breaker(err.kind));
        assert!(!Engine::counts_toward_breaker(ErrorKind::Infeasible));
        assert!(!Engine::counts_toward_breaker(ErrorKind::DeadlineExceeded));
    }
}
