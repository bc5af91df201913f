//! Wire-level request/response types for the comparison service.
//!
//! The `anoncmp-serve` daemon and `anoncmp-loadgen` client both speak a
//! small JSON protocol (see `docs/WIRE_PROTOCOL.md`); the types live here,
//! beneath both, so client and server cannot drift apart. Everything is
//! plain data: requests decode from [`serde::json::Value`] (already parsed
//! under the hardened limits), responses serialize with the vendored
//! [`serde::Serialize`] JSON writer. No engine types appear — the serve
//! crate maps [`CompareRequest`] onto evaluation jobs itself — so the
//! protocol layer stays dependency-light and testable in isolation.

use serde::json::Value;
use serde::Serialize;

/// Machine-readable error classes, each with a fixed HTTP status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, unknown fields, or invalid parameter values.
    BadRequest,
    /// The request body exceeded the server's size limit.
    PayloadTooLarge,
    /// Admission control shed the request; retry later.
    Overloaded,
    /// Unknown endpoint or unsupported method.
    NotFound,
    /// The request exceeded its wall-clock budget; results are partial.
    DeadlineExceeded,
    /// The server failed internally.
    Internal,
}

impl ErrorCode {
    /// The stable wire identifier (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::PayloadTooLarge => "payload_too_large",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::NotFound => "not_found",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::Internal => "internal",
        }
    }

    /// The HTTP status this error maps to.
    pub fn http_status(self) -> u16 {
        match self {
            ErrorCode::BadRequest => 400,
            ErrorCode::PayloadTooLarge => 413,
            ErrorCode::Overloaded => 429,
            ErrorCode::NotFound => 404,
            ErrorCode::DeadlineExceeded => 408,
            ErrorCode::Internal => 500,
        }
    }
}

/// The JSON error envelope every failed request carries:
/// `{"error":{"code":"…","message":"…"}}`.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// Builds an error envelope.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorBody {
            code,
            message: message.into(),
        }
    }
}

impl Serialize for ErrorBody {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"error\":{\"code\":");
        self.code.as_str().serialize_json(out);
        out.push_str(",\"message\":");
        self.message.serialize_json(out);
        out.push_str("}}");
    }
}

/// Which dataset a request evaluates against. Only *specified* synthetic
/// datasets cross the wire — clients name a generator configuration, never
/// ship rows — so requests stay small and content-addressed caching on the
/// server stays sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDataset {
    /// The paper's synthetic census microdata.
    Census {
        /// Number of tuples.
        rows: usize,
        /// Generator seed.
        seed: u64,
        /// Number of distinct zip codes.
        zip_pool: usize,
    },
    /// The synthetic hospital-discharge dataset.
    Hospital {
        /// Number of discharge records.
        rows: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl WireDataset {
    /// Decodes `{"kind":"census"|"hospital", …}`.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("dataset: missing \"kind\"")?;
        let rows = v
            .get("rows")
            .and_then(Value::as_usize)
            .ok_or("dataset: missing or invalid \"rows\"")?;
        let seed = v
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("dataset: missing or invalid \"seed\"")?;
        match kind {
            "census" => Ok(WireDataset::Census {
                rows,
                seed,
                zip_pool: v
                    .get("zip_pool")
                    .and_then(Value::as_usize)
                    .ok_or("dataset: census requires \"zip_pool\"")?,
            }),
            "hospital" => Ok(WireDataset::Hospital { rows, seed }),
            other => Err(format!("dataset: unknown kind {other:?}")),
        }
    }
}

impl Serialize for WireDataset {
    fn serialize_json(&self, out: &mut String) {
        match self {
            WireDataset::Census {
                rows,
                seed,
                zip_pool,
            } => out.push_str(&format!(
                "{{\"kind\":\"census\",\"rows\":{rows},\"seed\":{seed},\"zip_pool\":{zip_pool}}}"
            )),
            WireDataset::Hospital { rows, seed } => out.push_str(&format!(
                "{{\"kind\":\"hospital\",\"rows\":{rows},\"seed\":{seed}}}"
            )),
        }
    }
}

/// `POST /compare` — evaluate a set of algorithms at one grid point and
/// return their canonical records in request order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRequest {
    /// Dataset specification.
    pub dataset: WireDataset,
    /// Algorithm names (empty = the server's standard suite).
    pub algorithms: Vec<String>,
    /// Perturbative method wire names (`noise:0.05`, `rankswap:8`, …)
    /// evaluated alongside the algorithms; empty = none.
    pub methods: Vec<String>,
    /// The k of k-anonymity.
    pub k: usize,
    /// Suppression budget in tuples (default 0).
    pub max_suppression: usize,
    /// Property names to extract (empty = `eq-class-size`).
    pub properties: Vec<String>,
    /// Optional per-request wall-clock budget in milliseconds.
    pub budget_ms: Option<u64>,
}

/// `POST /sweep` — evaluate a whole k-grid, streamed back one canonical
/// record per JSONL line, one chunk per grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Dataset specification.
    pub dataset: WireDataset,
    /// Algorithm names (empty = the server's standard suite).
    pub algorithms: Vec<String>,
    /// Perturbative method wire names (`noise:0.05`, `rankswap:8`, …)
    /// evaluated alongside the algorithms at every grid point; empty =
    /// none.
    pub methods: Vec<String>,
    /// The k values of the grid, evaluated in request order.
    pub ks: Vec<usize>,
    /// Suppression budget in tuples (default 0).
    pub max_suppression: usize,
    /// Property names to extract (empty = `eq-class-size`).
    pub properties: Vec<String>,
    /// Optional per-request wall-clock budget in milliseconds; when it
    /// expires the stream ends early with a `deadline_exceeded` trailer.
    pub budget_ms: Option<u64>,
}

fn string_list(v: &Value, field: &str) -> Result<Vec<String>, String> {
    match v.get(field) {
        None => Ok(Vec::new()),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("{field}: expected an array of strings"))
            })
            .collect(),
        Some(_) => Err(format!("{field}: expected an array of strings")),
    }
}

fn usize_list(v: &Value, field: &str) -> Result<Vec<usize>, String> {
    match v.get(field) {
        None => Ok(Vec::new()),
        Some(Value::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_usize()
                    .ok_or_else(|| format!("{field}: expected an array of unsigned integers"))
            })
            .collect(),
        Some(_) => Err(format!("{field}: expected an array of unsigned integers")),
    }
}

impl CompareRequest {
    /// Decodes a parsed request body.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let dataset = WireDataset::from_value(v.get("dataset").ok_or("missing \"dataset\"")?)?;
        let k = v
            .get("k")
            .and_then(Value::as_usize)
            .ok_or("missing or invalid \"k\"")?;
        if k == 0 {
            return Err("\"k\" must be at least 1".into());
        }
        Ok(CompareRequest {
            dataset,
            algorithms: string_list(v, "algorithms")?,
            methods: string_list(v, "methods")?,
            k,
            max_suppression: match v.get("max_suppression") {
                None => 0,
                Some(m) => m.as_usize().ok_or("invalid \"max_suppression\"")?,
            },
            properties: string_list(v, "properties")?,
            budget_ms: match v.get("budget_ms") {
                None => None,
                Some(b) => Some(b.as_u64().ok_or("invalid \"budget_ms\"")?),
            },
        })
    }
}

impl Serialize for CompareRequest {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"dataset\":");
        self.dataset.serialize_json(out);
        out.push_str(",\"algorithms\":");
        self.algorithms.serialize_json(out);
        out.push_str(",\"methods\":");
        self.methods.serialize_json(out);
        out.push_str(&format!(
            ",\"k\":{},\"max_suppression\":{},\"properties\":",
            self.k, self.max_suppression
        ));
        self.properties.serialize_json(out);
        if let Some(b) = self.budget_ms {
            out.push_str(&format!(",\"budget_ms\":{b}"));
        }
        out.push('}');
    }
}

impl SweepRequest {
    /// Decodes a parsed request body.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let dataset = WireDataset::from_value(v.get("dataset").ok_or("missing \"dataset\"")?)?;
        let ks = usize_list(v, "ks")?;
        if ks.is_empty() {
            return Err("\"ks\" must be a non-empty array".into());
        }
        if ks.contains(&0) {
            return Err("every k in \"ks\" must be at least 1".into());
        }
        Ok(SweepRequest {
            dataset,
            algorithms: string_list(v, "algorithms")?,
            methods: string_list(v, "methods")?,
            ks,
            max_suppression: match v.get("max_suppression") {
                None => 0,
                Some(m) => m.as_usize().ok_or("invalid \"max_suppression\"")?,
            },
            properties: string_list(v, "properties")?,
            budget_ms: match v.get("budget_ms") {
                None => None,
                Some(b) => Some(b.as_u64().ok_or("invalid \"budget_ms\"")?),
            },
        })
    }
}

impl Serialize for SweepRequest {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"dataset\":");
        self.dataset.serialize_json(out);
        out.push_str(",\"algorithms\":");
        self.algorithms.serialize_json(out);
        out.push_str(",\"methods\":");
        self.methods.serialize_json(out);
        out.push_str(",\"ks\":");
        self.ks.serialize_json(out);
        out.push_str(&format!(
            ",\"max_suppression\":{},\"properties\":",
            self.max_suppression
        ));
        self.properties.serialize_json(out);
        if let Some(b) = self.budget_ms {
            out.push_str(&format!(",\"budget_ms\":{b}"));
        }
        out.push('}');
    }
}

/// `GET /stats` — a snapshot of the daemon's counters. Everything here is
/// scheduling- and load-dependent by nature; determinism guarantees apply
/// to `compare`/`sweep` bodies, never to stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServerStats {
    /// Requests fully served (any endpoint, both protocols).
    pub requests_total: u64,
    /// `compare` requests served.
    pub compare_requests: u64,
    /// `sweep` requests served.
    pub sweep_requests: u64,
    /// Requests shed by admission control with `429 overloaded`.
    pub shed_total: u64,
    /// Requests rejected as malformed (4xx other than 429).
    pub rejected_total: u64,
    /// Requests in flight right now.
    pub inflight: u64,
    /// Serving threads.
    pub threads: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Release-cache hits since start.
    pub cache_hits: u64,
    /// Release-cache misses since start.
    pub cache_misses: u64,
    /// Releases currently cached.
    pub cache_entries: u64,
    /// Releases evicted by the LRU bound.
    pub cache_evictions: u64,
    /// Property-vector-cache hits since start.
    pub vector_hits: u64,
    /// Property-vector-cache misses since start.
    pub vector_misses: u64,
    /// Property vectors evicted by the LRU bound.
    pub vector_evictions: u64,
    /// Response-cache hits since start (whole batches of canonical
    /// record lines served without touching the engine).
    pub response_hits: u64,
    /// Response-cache misses since start.
    pub response_misses: u64,
    /// Response batches currently cached.
    pub response_entries: u64,
    /// Response batches evicted by the LRU bound.
    pub response_evictions: u64,
    /// Transient job failures the engine retried since start.
    pub engine_retries: u64,
    /// Jobs the engine quarantined (retry budget exhausted) since start.
    pub engine_quarantined: u64,
    /// Records appended to the engine's checkpoint journal since start
    /// (`0` when the server runs without a journal attached).
    pub journal_appends: u64,
}

impl ServerStats {
    /// Decodes a stats body (the load generator reads these back).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("stats: missing or invalid {name:?}"))
        };
        Ok(ServerStats {
            requests_total: field("requests_total")?,
            compare_requests: field("compare_requests")?,
            sweep_requests: field("sweep_requests")?,
            shed_total: field("shed_total")?,
            rejected_total: field("rejected_total")?,
            inflight: field("inflight")?,
            threads: field("threads")?,
            uptime_ms: field("uptime_ms")?,
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            cache_entries: field("cache_entries")?,
            cache_evictions: field("cache_evictions")?,
            vector_hits: field("vector_hits")?,
            vector_misses: field("vector_misses")?,
            vector_evictions: field("vector_evictions")?,
            response_hits: field("response_hits")?,
            response_misses: field("response_misses")?,
            response_entries: field("response_entries")?,
            response_evictions: field("response_evictions")?,
            engine_retries: field("engine_retries")?,
            engine_quarantined: field("engine_quarantined")?,
            journal_appends: field("journal_appends")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::parse;

    #[test]
    fn compare_request_round_trips() {
        let req = CompareRequest {
            dataset: WireDataset::Census {
                rows: 500,
                seed: 7,
                zip_pool: 20,
            },
            algorithms: vec!["datafly".into(), "mondrian".into()],
            methods: vec!["noise:0.05".into(), "rankswap:8".into()],
            k: 5,
            max_suppression: 10,
            properties: vec!["eq-class-size".into()],
            budget_ms: Some(2_000),
        };
        let json = req.to_json();
        let back = CompareRequest::from_value(&parse(&json).expect("valid json")).expect("decodes");
        assert_eq!(back, req);
    }

    #[test]
    fn sweep_request_round_trips() {
        let req = SweepRequest {
            dataset: WireDataset::Hospital { rows: 200, seed: 3 },
            algorithms: vec![],
            methods: vec!["mdav:5".into()],
            ks: vec![2, 5, 10],
            max_suppression: 0,
            properties: vec![],
            budget_ms: None,
        };
        let json = req.to_json();
        let back = SweepRequest::from_value(&parse(&json).expect("valid json")).expect("decodes");
        assert_eq!(back, req);
    }

    #[test]
    fn compare_request_defaults_apply() {
        let v = parse(r#"{"dataset":{"kind":"census","rows":100,"seed":1,"zip_pool":5},"k":3}"#)
            .unwrap();
        let req = CompareRequest::from_value(&v).unwrap();
        assert_eq!(req.max_suppression, 0);
        assert!(req.algorithms.is_empty());
        assert!(req.methods.is_empty());
        assert!(req.properties.is_empty());
        assert_eq!(req.budget_ms, None);
    }

    #[test]
    fn invalid_requests_are_rejected_with_reasons() {
        for (body, needle) in [
            (r#"{"k":3}"#, "dataset"),
            (
                r#"{"dataset":{"kind":"census","rows":10,"seed":1,"zip_pool":2}}"#,
                "\"k\"",
            ),
            (
                r#"{"dataset":{"kind":"census","rows":10,"seed":1,"zip_pool":2},"k":0}"#,
                "at least 1",
            ),
            (
                r#"{"dataset":{"kind":"nope","rows":10,"seed":1},"k":2}"#,
                "unknown kind",
            ),
            (
                r#"{"dataset":{"kind":"census","rows":10,"seed":1,"zip_pool":2},"k":2,"algorithms":[1]}"#,
                "array of strings",
            ),
        ] {
            let v = parse(body).unwrap();
            let err = CompareRequest::from_value(&v).unwrap_err();
            assert!(err.contains(needle), "{body} -> {err}");
        }
        let v = parse(r#"{"dataset":{"kind":"census","rows":10,"seed":1,"zip_pool":2},"ks":[]}"#)
            .unwrap();
        assert!(SweepRequest::from_value(&v)
            .unwrap_err()
            .contains("non-empty"));
    }

    #[test]
    fn error_body_envelope_shape() {
        let e = ErrorBody::new(ErrorCode::Overloaded, "queue full");
        assert_eq!(
            e.to_json(),
            r#"{"error":{"code":"overloaded","message":"queue full"}}"#
        );
        assert_eq!(ErrorCode::Overloaded.http_status(), 429);
        assert_eq!(ErrorCode::PayloadTooLarge.http_status(), 413);
    }

    #[test]
    fn server_stats_round_trip() {
        let stats = ServerStats {
            requests_total: 10,
            compare_requests: 6,
            sweep_requests: 2,
            shed_total: 1,
            rejected_total: 1,
            inflight: 3,
            threads: 4,
            uptime_ms: 1234,
            cache_hits: 5,
            cache_misses: 6,
            cache_entries: 6,
            cache_evictions: 0,
            vector_hits: 2,
            vector_misses: 6,
            vector_evictions: 0,
            response_hits: 4,
            response_misses: 2,
            response_entries: 2,
            response_evictions: 0,
            engine_retries: 1,
            engine_quarantined: 0,
            journal_appends: 8,
        };
        let v = parse(&stats.to_json()).expect("valid json");
        assert_eq!(ServerStats::from_value(&v).unwrap(), stats);
    }
}
