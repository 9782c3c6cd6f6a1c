//! JSONL request parsing for the serve loop.
//!
//! One request per line. A solve request names a netlist (by `file`
//! path or `netlist` inline text), a `goal` signal, and its own budget:
//!
//! ```json
//! {"id":"r1","file":"tests/golden/adder_sat.rtl","goal":"goal","timeout_ms":1000}
//! {"id":"r2","netlist":"netlist t\ninput a bool\n…","goal":"goal","engine":"hdpll"}
//! {"op":"shutdown"}
//! ```
//!
//! Unknown and duplicate keys are rejected (a typo'd budget knob
//! silently ignored, or one of two conflicting values silently picked,
//! would be a correctness hazard in a long-running service); unknown
//! *values* produce per-request errors, never parser panics. The parser
//! is the service's trust boundary: everything after it works with
//! typed, validated data.

use std::time::Duration;

use rtl_hdpll::FaultPlan;
use rtl_obs::json::{self, Value};

/// Where the request's netlist comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistSource {
    /// Read this path from the server's filesystem.
    File(String),
    /// Parse this inline netlist text.
    Inline(String),
}

/// A parsed solve request.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// Client-chosen request id, echoed on the response record.
    pub id: String,
    /// Netlist source (file path or inline text).
    pub source: NetlistSource,
    /// Goal signal name to assert.
    pub goal: String,
    /// Engine override; `None` uses the server default.
    pub engine: Option<String>,
    /// Per-request wall-clock budget; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// Per-request UNSAT cross-check toggle.
    pub check: Option<bool>,
    /// Per-request degradation-ladder toggle.
    pub fallback: Option<bool>,
    /// Per-request cross-check budget (clamped — see
    /// [`crate::check_budget`]).
    pub check_timeout_ms: Option<u64>,
    /// Per-request memory cap in bytes.
    pub max_memory: Option<u64>,
    /// Deterministic fault injection (testing only).
    pub fault: FaultPlan,
}

impl SolveRequest {
    /// The request's wall-clock budget as a `Duration`.
    #[must_use]
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout_ms.map(Duration::from_millis)
    }

    /// The request's cross-check budget as a `Duration`.
    #[must_use]
    pub fn check_timeout(&self) -> Option<Duration> {
        self.check_timeout_ms.map(Duration::from_millis)
    }
}

/// One parsed input line.
#[derive(Clone, Debug)]
pub enum RequestLine {
    /// A solve request.
    Solve(Box<SolveRequest>),
    /// The `{"op":"shutdown"}` control message: stop accepting, drain,
    /// summarize, exit.
    Shutdown,
    /// The `{"op":"status"}` control message: answer with a Prometheus
    /// text exposition of the live serve metrics.
    Status,
}

const KNOWN_KEYS: &[&str] = &[
    "id",
    "file",
    "netlist",
    "goal",
    "engine",
    "timeout_ms",
    "check",
    "fallback",
    "check_timeout_ms",
    "max_memory",
    "fault",
];

const KNOWN_FAULT_KEYS: &[&str] = &[
    "corrupt_learned_clause",
    "drop_narrowing",
    "spurious_conflict",
    "stall_propagation",
    "corrupt_deletion",
];

fn u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn bool_field(v: &Value, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(f) => f
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a boolean")),
    }
}

/// Moves a string field out of the request object, so a large inline
/// netlist is never copied.
fn take_str(v: &mut Value, key: &str) -> Result<Option<String>, String> {
    let Value::Obj(fields) = v else {
        return Ok(None);
    };
    let Some((_, f)) = fields.iter_mut().find(|(k, _)| k == key) else {
        return Ok(None);
    };
    match std::mem::replace(f, Value::Null) {
        Value::Str(s) => Ok(Some(s)),
        _ => Err(format!("`{key}` must be a string")),
    }
}

/// Rejects keys outside `known`, and keys given twice; `what` names
/// the object in the message.
fn check_keys(fields: &[(String, Value)], known: &[&str], what: &str) -> Result<(), String> {
    for (i, (key, _)) in fields.iter().enumerate() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown {what}key `{key}`"));
        }
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate {what}key `{key}`"));
        }
    }
    Ok(())
}

fn parse_fault(v: &Value) -> Result<FaultPlan, String> {
    let Some(fault) = v.get("fault") else {
        return Ok(FaultPlan::default());
    };
    let Value::Obj(fields) = fault else {
        return Err("`fault` must be an object".to_string());
    };
    check_keys(fields, KNOWN_FAULT_KEYS, "fault ")?;
    Ok(FaultPlan {
        corrupt_learned_clause: u64_field(fault, "corrupt_learned_clause")?,
        drop_narrowing: u64_field(fault, "drop_narrowing")?,
        spurious_conflict: u64_field(fault, "spurious_conflict")?,
        stall_propagation: u64_field(fault, "stall_propagation")?,
        corrupt_deletion: u64_field(fault, "corrupt_deletion")?,
    })
}

/// Parses one input line into a [`RequestLine`].
///
/// Every error is a plain message suitable for an `error` response
/// record; the caller decides how to report it. Blank lines are the
/// caller's concern (the serve loop skips them without a record).
pub fn parse_line(line: &str) -> Result<RequestLine, String> {
    let mut v = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    let Value::Obj(fields) = &v else {
        return Err("request must be a JSON object".to_string());
    };
    if let Some(op) = v.get("op") {
        if fields.iter().filter(|(k, _)| k == "op").count() > 1 {
            return Err("duplicate key `op`".to_string());
        }
        return match op.as_str() {
            Some("shutdown") => Ok(RequestLine::Shutdown),
            Some("status") => Ok(RequestLine::Status),
            Some(other) => Err(format!("unknown op `{other}`")),
            None => Err("`op` must be a string".to_string()),
        };
    }
    check_keys(fields, KNOWN_KEYS, "")?;
    let id = take_str(&mut v, "id")?.ok_or("missing `id`")?;
    if id.is_empty() || id.len() > 256 {
        return Err("`id` must be 1..=256 bytes".to_string());
    }
    let goal = take_str(&mut v, "goal")?.ok_or("missing `goal`")?;
    let source = match (take_str(&mut v, "file")?, take_str(&mut v, "netlist")?) {
        (Some(path), None) => NetlistSource::File(path),
        (None, Some(text)) => NetlistSource::Inline(text),
        (Some(_), Some(_)) => return Err("`file` and `netlist` are mutually exclusive".to_string()),
        (None, None) => return Err("missing netlist: give `file` or `netlist`".to_string()),
    };
    Ok(RequestLine::Solve(Box::new(SolveRequest {
        id,
        source,
        goal,
        engine: take_str(&mut v, "engine")?,
        timeout_ms: u64_field(&v, "timeout_ms")?,
        check: bool_field(&v, "check")?,
        fallback: bool_field(&v, "fallback")?,
        check_timeout_ms: u64_field(&v, "check_timeout_ms")?,
        max_memory: u64_field(&v, "max_memory")?,
        fault: parse_fault(&v)?,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(line: &str) -> SolveRequest {
        match parse_line(line).unwrap() {
            RequestLine::Solve(req) => *req,
            _ => panic!("expected a solve request"),
        }
    }

    #[test]
    fn minimal_file_request() {
        let req = solve(r#"{"id":"r1","file":"a.rtl","goal":"g"}"#);
        assert_eq!(req.id, "r1");
        assert_eq!(req.source, NetlistSource::File("a.rtl".to_string()));
        assert_eq!(req.goal, "g");
        assert_eq!(req.engine, None);
        assert_eq!(req.timeout(), None);
        assert!(req.fault.is_clean());
    }

    #[test]
    fn full_inline_request() {
        let req = solve(
            r#"{"id":"r2","netlist":"netlist t\n","goal":"g","engine":"hdpll",
                "timeout_ms":250,"check":true,"fallback":false,
                "check_timeout_ms":25,"max_memory":1024,
                "fault":{"stall_propagation":7}}"#,
        );
        assert_eq!(req.source, NetlistSource::Inline("netlist t\n".to_string()));
        assert_eq!(req.engine.as_deref(), Some("hdpll"));
        assert_eq!(req.timeout(), Some(Duration::from_millis(250)));
        assert_eq!(req.check, Some(true));
        assert_eq!(req.fallback, Some(false));
        assert_eq!(req.check_timeout(), Some(Duration::from_millis(25)));
        assert_eq!(req.max_memory, Some(1024));
        assert_eq!(req.fault.stall_propagation, Some(7));
    }

    #[test]
    fn shutdown_control_line() {
        assert!(matches!(
            parse_line(r#"{"op":"shutdown"}"#).unwrap(),
            RequestLine::Shutdown
        ));
        assert!(parse_line(r#"{"op":"reboot"}"#).is_err());
    }

    #[test]
    fn status_control_line() {
        assert!(matches!(
            parse_line(r#"{"op":"status"}"#).unwrap(),
            RequestLine::Status
        ));
    }

    #[test]
    fn malformed_inputs_are_rejected_with_messages() {
        for bad in [
            "not json at all",
            "[1,2,3]",
            r#"{"id":"x","goal":"g"}"#,                              // no netlist
            r#"{"id":"x","file":"a","netlist":"b","goal":"g"}"#,     // both
            r#"{"file":"a.rtl","goal":"g"}"#,                        // no id
            r#"{"id":"","file":"a.rtl","goal":"g"}"#,                // empty id
            r#"{"id":"x","file":"a.rtl","goal":"g","bogus":1}"#,     // unknown key
            r#"{"id":"x","file":"a.rtl","goal":"g","timeout_ms":"soon"}"#,
            r#"{"id":"x","file":"a.rtl","goal":"g","fault":{"nope":1}}"#,
            r#"{"id":"x","file":"a.rtl","goal":"g","fault":3}"#,
        ] {
            assert!(parse_line(bad).is_err(), "must reject: {bad}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        for (bad, key) in [
            (r#"{"goal":"a","goal":"b","id":"x","file":"f"}"#, "goal"),
            (r#"{"id":"x","file":"f","goal":"g","id":"y"}"#, "id"),
            (
                r#"{"id":"x","file":"f","goal":"g","fault":{"drop_narrowing":1,"drop_narrowing":2}}"#,
                "drop_narrowing",
            ),
            (r#"{"op":"status","op":"shutdown"}"#, "op"),
        ] {
            let err = parse_line(bad).unwrap_err();
            assert!(
                err.contains("duplicate") && err.contains(key),
                "{bad}: {err}"
            );
        }
    }
}
