//! JSON → type-schema reduction for the report-schema pass and the golden
//! tests in `tests/report_schema.rs`.
//!
//! A document collapses to one sorted `path: type` line per distinct
//! field, with the dynamically-keyed `counters`/`gauges` objects
//! collapsing to a single `map<number>` entry. The reduction never panics:
//! a non-numeric counter value surfaces as an extra schema line, which the
//! pass then reports as drift.

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
                // A non-numeric metric value is schema drift; emit its line
                // so the comparison against the golden set flags it.
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

/// Parse a golden schema file (one `path: type` line per row) into a set.
pub fn parse_golden(text: &str) -> BTreeSet<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// Schema lines present in `actual` but not sanctioned by `golden`.
///
/// Validation is closed-world on *fields*: every field the document
/// carries must appear in the golden schema with the same type. Fields the
/// golden schema names but the document omits are tolerated (reports only
/// emit sections for work that actually ran).
pub fn drift<'a>(actual: &'a BTreeSet<String>, golden: &BTreeSet<String>) -> Vec<&'a String> {
    actual
        .iter()
        .filter(|line| !golden.contains(*line))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_obs::json::parse;

    #[test]
    fn reduction_matches_expected_lines() {
        let doc = parse(r#"{"a":1,"b":[{"c":"x"},{"c":"y"}],"counters":{"k":2}}"#).unwrap();
        let lines = schema_lines(&doc);
        let expect: BTreeSet<String> = [
            "$: object",
            "$.a: number",
            "$.b: array",
            "$.b[]: object",
            "$.b[].c: string",
            "$.counters: map<number>",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        assert_eq!(lines, expect);
    }

    #[test]
    fn hist_maps_collapse_and_malformed_entries_surface() {
        let doc = parse(
            r#"{"hists":{"flow":{"count":1,"sum":2,"max":2,"p50":2,"p95":2,"p99":2},
                         "bad":{"count":1}}}"#,
        )
        .unwrap();
        let lines = schema_lines(&doc);
        assert!(lines.contains("$.hists: map<hist>"));
        // The well-formed entry stays collapsed...
        assert!(!lines.iter().any(|l| l.starts_with("$.hists.flow")));
        // ...the malformed one surfaces as drift lines.
        assert!(lines.contains("$.hists.bad: object"));
    }

    #[test]
    fn non_numeric_counter_shows_up_as_extra_line() {
        let doc = parse(r#"{"counters":{"bad":"oops"}}"#).unwrap();
        let lines = schema_lines(&doc);
        assert!(lines.contains("$.counters.bad: string"));
    }

    #[test]
    fn drift_is_one_sided() {
        let golden = parse_golden("$: object\n$.a: number\n$.b: string\n");
        let actual: BTreeSet<String> = ["$: object", "$.a: string"]
            .into_iter()
            .map(str::to_string)
            .collect();
        let d = drift(&actual, &golden);
        assert_eq!(d, vec!["$.a: string"]);
        // Missing `$.b` is tolerated.
        let subset: BTreeSet<String> = ["$: object"].into_iter().map(str::to_string).collect();
        assert!(drift(&subset, &golden).is_empty());
    }
}
