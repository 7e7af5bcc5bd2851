//! JSON → type-schema reduction shared by the run-report schema tests
//! (`report_schema.rs`, `chaos.rs`).
//!
//! A document collapses to one sorted `path: type` line per distinct
//! field. The dynamically keyed `counters`/`gauges` objects collapse to a
//! single `map<number>` line and `hists` to `map<hist>`. The reduction
//! never panics: a non-numeric metric value or a malformed histogram
//! surfaces as an extra line, which the golden comparison then flags.

use std::collections::BTreeSet;

use prebond3d_obs::json::Value;

/// Reduce `doc` to its sorted set of `path: type` schema lines.
pub fn schema_lines(doc: &Value) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    walk("$", doc, &mut out);
    out
}

fn walk(path: &str, v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Null => {
            out.insert(format!("{path}: null"));
        }
        Value::Bool(_) => {
            out.insert(format!("{path}: bool"));
        }
        Value::Num(_) => {
            out.insert(format!("{path}: number"));
        }
        Value::Str(_) => {
            out.insert(format!("{path}: string"));
        }
        Value::Arr(items) => {
            out.insert(format!("{path}: array"));
            for item in items {
                walk(&format!("{path}[]"), item, out);
            }
        }
        Value::Obj(map) => {
            if path.ends_with(".counters") || path.ends_with(".gauges") {
                out.insert(format!("{path}: map<number>"));
                for (k, v) in map {
                    if !matches!(v, Value::Num(_)) {
                        walk(&format!("{path}.{k}"), v, out);
                    }
                }
                return;
            }
            // Histogram maps are keyed by dynamic metric/phase names; a
            // value that is not a full histogram summary is drift.
            if path.ends_with(".hists") {
                out.insert(format!("{path}: map<hist>"));
                for (k, v) in map {
                    if !is_hist_summary(v) {
                        walk(&format!("{path}.{k}"), v, out);
                    }
                }
                return;
            }
            out.insert(format!("{path}: object"));
            for (k, v) in map {
                walk(&format!("{path}.{k}"), v, out);
            }
        }
    }
}

/// Is `v` a histogram summary object (`count`/`sum`/`max`/`p50`/`p95`/
/// `p99`, all numeric)?
fn is_hist_summary(v: &Value) -> bool {
    ["count", "sum", "max", "p50", "p95", "p99"]
        .iter()
        .all(|field| matches!(v.get(field), Some(Value::Num(_))))
}
