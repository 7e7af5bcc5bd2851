//! The wire protocol: newline-delimited JSON frames (DESIGN.md §13).
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. Responses always carry `"ok"` (did the server
//! accept/complete the operation) and `"ev"` (the event kind), so clients
//! can dispatch without guessing. A submit fans out into an `accepted`
//! frame, zero or more `phase` frames (per-flow-phase telemetry sourced
//! from the job's `obs` capture), and exactly one terminal `done` frame.
//!
//! Parsing is strict about shape but tolerant about extras: unknown keys
//! are ignored (forward compatibility), unknown *ops* and malformed values
//! are protocol errors the connection survives.

use prebond3d_obs::json::Value;
use prebond3d_wcm::flow::{Method, Scenario};

/// Longest accepted request line, in bytes. A frame exceeding this is
/// answered with an error and discarded without buffering it whole.
pub const MAX_LINE: usize = 1 << 20;

/// Which testability probe prices cone sharing for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// The fast structural estimator (default).
    Structural,
    /// The measured ATPG probe — served from the warm cache so its memo
    /// tables survive across requests.
    Atpg,
}

/// Where the job's netlist comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A generated ITC'99-style benchmark die: `("b11", 0)`.
    Generated {
        /// Benchmark name.
        circuit: String,
        /// Die index within the benchmark's stack.
        die: usize,
    },
    /// An inline netlist in the workspace text format
    /// (`prebond3d_netlist::format`).
    Inline {
        /// The netlist text.
        text: String,
    },
}

/// One wrapper-cell-minimization job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen id, echoed on every frame of this job.
    pub id: String,
    /// The netlist to wrap.
    pub source: JobSource,
    /// The algorithm.
    pub method: Method,
    /// The timing scenario.
    pub scenario: Scenario,
    /// The testability probe.
    pub probe: ProbeKind,
    /// Include the full wrapper plan text in the `done` frame.
    pub return_plan: bool,
    /// Per-phase wall-clock budget for this job in milliseconds. Threads
    /// into the resilience `Deadline` machinery: over-budget phases
    /// degrade to best-so-far and the `done` frame reports what was cut
    /// short (`degraded`/`degradations`), exactly like batch runs under
    /// `PREBOND3D_BUDGET_MS`.
    pub budget_ms: Option<u64>,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Server/cache statistics.
    Stats,
    /// Stop accepting connections and drain the queue.
    Shutdown,
    /// Release a paused daemon's queue (see `--paused`); a no-op when
    /// the daemon is already draining.
    Resume,
    /// Run one job.
    Submit(Box<JobSpec>),
    /// Look up a job by idempotency key in the journal (16 hex digits).
    Status {
        /// The key, still in wire form.
        key: String,
    },
}

fn str_field(obj: &Value, key: &str) -> Option<String> {
    obj.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Parse one request line.
///
/// # Errors
///
/// A human-readable message naming what was wrong; the server echoes it in
/// an `error` frame and keeps the connection open.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = prebond3d_obs::json::parse(line).map_err(|e| format!("parse: {e}"))?;
    let Some(op) = doc.get("op").and_then(Value::as_str) else {
        return Err("missing string field `op`".into());
    };
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "resume" => Ok(Request::Resume),
        "status" => match str_field(&doc, "key") {
            Some(key) => Ok(Request::Status { key }),
            None => Err("status needs a string field `key`".into()),
        },
        "submit" => {
            let id = str_field(&doc, "id").unwrap_or_else(|| "job".into());
            let source = match (str_field(&doc, "netlist"), str_field(&doc, "circuit")) {
                (Some(text), _) => JobSource::Inline { text },
                (None, Some(circuit)) => JobSource::Generated {
                    circuit,
                    die: doc.get("die").and_then(Value::as_u64).unwrap_or(0) as usize,
                },
                (None, None) => {
                    return Err("submit needs either `circuit` or `netlist`".into());
                }
            };
            let method = match str_field(&doc, "method").as_deref() {
                None | Some("ours") => Method::Ours,
                Some("agrawal") => Method::Agrawal,
                Some("li") => Method::Li,
                Some("naive") => Method::Naive,
                Some(m) => return Err(format!("unknown method `{m}`")),
            };
            let scenario = match str_field(&doc, "scenario").as_deref() {
                None | Some("area") => Scenario::Area,
                Some("tight") => Scenario::Tight,
                Some(s) => return Err(format!("unknown scenario `{s}`")),
            };
            let probe = match str_field(&doc, "probe").as_deref() {
                None | Some("structural") => ProbeKind::Structural,
                Some("atpg") => ProbeKind::Atpg,
                Some(p) => return Err(format!("unknown probe `{p}`")),
            };
            let return_plan = doc
                .get("return_plan")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let budget_ms = doc.get("budget_ms").and_then(Value::as_u64);
            Ok(Request::Submit(Box::new(JobSpec {
                id,
                source,
                method,
                scenario,
                probe,
                return_plan,
                budget_ms,
            })))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Method label used in report payloads (lowercase wire form).
pub fn method_wire(m: Method) -> &'static str {
    match m {
        Method::Ours => "ours",
        Method::Agrawal => "agrawal",
        Method::Li => "li",
        Method::Naive => "naive",
    }
}

/// Scenario label used in report payloads.
pub fn scenario_wire(s: Scenario) -> &'static str {
    match s {
        Scenario::Area => "area",
        Scenario::Tight => "tight",
    }
}

/// Serialize a spec back to the submit request object it parsed from.
/// `parse_request(submit_json(spec).to_string()) == Submit(spec)` — the
/// journal stores this form so recovery replays exactly what the client
/// sent, and defaulted fields stay defaulted across a round trip.
pub fn submit_json(spec: &JobSpec) -> Value {
    let mut fields = vec![("op", "submit".into()), ("id", spec.id.as_str().into())];
    match &spec.source {
        JobSource::Inline { text } => fields.push(("netlist", text.as_str().into())),
        JobSource::Generated { circuit, die } => {
            fields.push(("circuit", circuit.as_str().into()));
            fields.push(("die", (*die).into()));
        }
    }
    fields.push(("method", method_wire(spec.method).into()));
    fields.push(("scenario", scenario_wire(spec.scenario).into()));
    fields.push((
        "probe",
        match spec.probe {
            ProbeKind::Structural => "structural".into(),
            ProbeKind::Atpg => "atpg".into(),
        },
    ));
    if spec.return_plan {
        fields.push(("return_plan", true.into()));
    }
    if let Some(ms) = spec.budget_ms {
        fields.push(("budget_ms", ms.into()));
    }
    Value::obj(fields)
}

/// `{"ok":true,"ev":"pong"}`.
pub fn pong() -> Value {
    Value::obj([("ok", true.into()), ("ev", "pong".into())])
}

/// `{"ok":true,"ev":"bye"}` — acknowledges a shutdown.
pub fn bye() -> Value {
    Value::obj([("ok", true.into()), ("ev", "bye".into())])
}

/// `{"ok":true,"ev":"resumed"}` — acknowledges a `resume` op.
pub fn resumed() -> Value {
    Value::obj([("ok", true.into()), ("ev", "resumed".into())])
}

/// `{"ok":true,"ev":"accepted","id":...,"key":...}` — `key` is the job's
/// idempotency key in wire form, usable with the `status` op after a
/// disconnect or daemon restart.
pub fn accepted(id: &str, key: &str) -> Value {
    Value::obj([
        ("ok", true.into()),
        ("ev", "accepted".into()),
        ("id", id.into()),
        ("key", key.into()),
    ])
}

/// `{"ok":false,"ev":"retry_after","id":...,"retry_after_ms":...}` — the
/// admission layer shed this submit (queue depth or byte budget over
/// limit). The client should back off at least `retry_after_ms` before
/// retrying; the job was **not** journaled and will not run.
pub fn retry_after(id: &str, retry_after_ms: u64, message: &str) -> Value {
    Value::obj([
        ("ok", false.into()),
        ("ev", "retry_after".into()),
        ("id", id.into()),
        ("retry_after_ms", retry_after_ms.into()),
        ("error", message.into()),
    ])
}

/// A protocol error frame. `id` is echoed when the frame belonged to an
/// identifiable job.
pub fn error(id: Option<&str>, message: &str) -> Value {
    let mut fields = vec![
        ("ok", false.into()),
        ("ev", "error".into()),
        ("error", message.into()),
    ];
    if let Some(id) = id {
        fields.push(("id", id.into()));
    }
    Value::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_op_family() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"resume"}"#).unwrap(),
            Request::Resume
        );
        let r = parse_request(r#"{"op":"submit","id":"j1","circuit":"b11","die":2}"#).unwrap();
        match r {
            Request::Submit(spec) => {
                assert_eq!(spec.id, "j1");
                assert_eq!(
                    spec.source,
                    JobSource::Generated {
                        circuit: "b11".into(),
                        die: 2
                    }
                );
                assert_eq!(spec.method, Method::Ours);
                assert_eq!(spec.probe, ProbeKind::Structural);
                assert!(!spec.return_plan);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn inline_netlist_wins_over_circuit() {
        let r = parse_request(
            r#"{"op":"submit","netlist":"circuit x\n","circuit":"b11","probe":"atpg"}"#,
        )
        .unwrap();
        match r {
            Request::Submit(spec) => {
                assert!(matches!(spec.source, JobSource::Inline { .. }));
                assert_eq!(spec.probe, ProbeKind::Atpg);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_status_and_budget_ms() {
        assert_eq!(
            parse_request(r#"{"op":"status","key":"00000000000000ab"}"#).unwrap(),
            Request::Status {
                key: "00000000000000ab".into()
            }
        );
        assert!(parse_request(r#"{"op":"status"}"#)
            .unwrap_err()
            .contains("key"));
        match parse_request(r#"{"op":"submit","circuit":"b11","budget_ms":250}"#).unwrap() {
            Request::Submit(spec) => assert_eq!(spec.budget_ms, Some(250)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn submit_json_round_trips_every_field() {
        for line in [
            r#"{"op":"submit","id":"j","circuit":"b12","die":1}"#,
            r#"{"op":"submit","id":"k","netlist":"circuit x\n","probe":"atpg","method":"li","scenario":"tight","return_plan":true,"budget_ms":9}"#,
        ] {
            let Ok(Request::Submit(spec)) = parse_request(line) else {
                panic!("fixture should parse: {line}");
            };
            let reparsed = parse_request(&submit_json(&spec).to_string()).unwrap();
            assert_eq!(reparsed, Request::Submit(spec.clone()), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_frames_with_messages() {
        assert!(parse_request("{").unwrap_err().starts_with("parse:"));
        assert!(parse_request(r#"{"no":"op"}"#).unwrap_err().contains("op"));
        assert!(parse_request(r#"{"op":"dance"}"#)
            .unwrap_err()
            .contains("dance"));
        assert!(parse_request(r#"{"op":"submit"}"#)
            .unwrap_err()
            .contains("circuit"));
        assert!(
            parse_request(r#"{"op":"submit","circuit":"b11","method":"x"}"#)
                .unwrap_err()
                .contains("method")
        );
    }
}
