//! Report-schema pass.
//!
//! The bench binaries emit machine-readable run reports
//! (`results/run_<exp>.json`) that downstream tooling parses; a silent
//! schema drift breaks that tooling long after the run that introduced
//! it. This pass re-validates any report attached to the context:
//! unparsable JSON is P3601, and any field path whose shape is absent
//! from the golden schema is P3602.
//!
//! The golden is the same file `tests/report_schema.rs` pins
//! (`tests/golden/run_report.schema.txt`), embedded at compile time so the
//! lint binary needs no working directory. Drift is one-sided on purpose:
//! reports may legally *omit* optional sections (a run without failures
//! has no `failures[].partial`), but may not *invent* shapes the golden
//! never saw.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::context::LintContext;
use crate::diagnostic::{
    Code, Diagnostic, Location, REPORT_MISSING_TELEMETRY, REPORT_SCHEMA_DRIFT, REPORT_UNPARSABLE,
};
use crate::schema;
use crate::Pass;
use prebond3d_obs::json::Value;

/// Cap on drift findings per report, to keep a wholesale corruption from
/// flooding the output.
const MAX_DRIFT: usize = 5;

static RUN_GOLDEN: OnceLock<BTreeSet<String>> = OnceLock::new();

fn run_golden() -> &'static BTreeSet<String> {
    RUN_GOLDEN.get_or_init(|| {
        schema::parse_golden(include_str!(
            "../../../../tests/golden/run_report.schema.txt"
        ))
    })
}

/// Pick the golden schema for a report label (file basename); `None` for
/// artifacts the pass does not know how to validate.
fn golden_for(label: &str) -> Option<&'static BTreeSet<String>> {
    let base = label.rsplit('/').next().unwrap_or(label);
    base.starts_with("run_").then(run_golden)
}

/// The report-schema pass.
pub struct ReportSchemaPass;

impl Pass for ReportSchemaPass {
    fn name(&self) -> &'static str {
        "report-schema"
    }

    fn description(&self) -> &'static str {
        "run reports parse and match the golden schema"
    }

    fn codes(&self) -> &'static [Code] {
        &[
            REPORT_UNPARSABLE,
            REPORT_SCHEMA_DRIFT,
            REPORT_MISSING_TELEMETRY,
        ]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (label, text) in &ctx.reports {
            let Some(golden) = golden_for(label) else {
                continue;
            };
            let value = match prebond3d_obs::json::parse(text) {
                Ok(v) => v,
                Err(e) => {
                    out.push(Diagnostic::new(
                        REPORT_UNPARSABLE,
                        Location::item(&ctx.artifact, label.clone()),
                        format!("report is not valid JSON: {e}"),
                    ));
                    continue;
                }
            };
            let actual = schema::schema_lines(&value);
            let drift = schema::drift(&actual, golden);
            for line in drift.iter().take(MAX_DRIFT) {
                out.push(
                    Diagnostic::new(
                        REPORT_SCHEMA_DRIFT,
                        Location::item(&ctx.artifact, label.clone()),
                        format!("shape not in the golden schema: {line}"),
                    )
                    .with_help(
                        "if the new field is intentional, regenerate \
                         tests/golden/*.schema.txt via tests/report_schema.rs",
                    ),
                );
            }
            if drift.len() > MAX_DRIFT {
                out.push(Diagnostic::new(
                    REPORT_SCHEMA_DRIFT,
                    Location::item(&ctx.artifact, label.clone()),
                    format!("... and {} more drifting shapes", drift.len() - MAX_DRIFT),
                ));
            }
            check_telemetry_blocks(label, &value, &ctx.artifact, out);
        }
    }
}

/// Reports grown after the telemetry round carry `hists` + `mem`. A
/// report omitting them is probably produced by a stale binary — worth a
/// warning, not a failure, since lite fixtures legitimately skip optional
/// blocks.
fn check_telemetry_blocks(label: &str, value: &Value, artifact: &str, out: &mut Vec<Diagnostic>) {
    let missing: Vec<&str> = ["hists", "mem"]
        .iter()
        .copied()
        .filter(|key| !matches!(value.get(key), Some(Value::Obj(_))))
        .collect();
    if !missing.is_empty() {
        out.push(
            Diagnostic::new(
                REPORT_MISSING_TELEMETRY,
                Location::item(artifact, label.to_string()),
                format!("report omits telemetry block(s): {}", missing.join(", ")),
            )
            .with_help("regenerate the report with a current bench binary"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LintContext, Linter};

    /// Minimal run report that satisfies the golden schema, telemetry
    /// blocks included.
    fn valid_run_report() -> String {
        r#"{
            "elapsed_ms": 12.0,
            "experiment": "smoke",
            "threads": 4,
            "pool": {"chunk_wait": {"count": 1, "sum": 2, "max": 2,
                                    "p50": 2, "p95": 2, "p99": 2}},
            "hists": {"flow": {"count": 1, "sum": 9, "max": 9,
                               "p50": 9, "p95": 9, "p99": 9}},
            "mem": {"alloc_bytes_total": 100, "alloc_bytes_peak": 50,
                    "rss_now_kb": 10, "rss_peak_kb": 12,
                    "rss_sampled_kb": {"count": 1, "sum": 10, "max": 10,
                                       "p50": 10, "p95": 10, "p99": 10}},
            "sections": [{
                "label": "flow",
                "ms": 11.0,
                "counters": {"gates": 10},
                "gauges": {"wns": 4},
                "hists": {"probe.latency_ns": {"count": 2, "sum": 7, "max": 4,
                                               "p50": 4, "p95": 4, "p99": 4}},
                "spans": [{"name": "sta", "path": "flow/sta",
                           "count": 1, "depth": 1, "ms": 3.0}]
            }]
        }"#
        .to_string()
    }

    fn lint(label: &str, text: String) -> crate::LintReport {
        Linter::with_default_passes().run(&LintContext::new("t").with_report(label, text))
    }

    #[test]
    fn valid_report_is_clean() {
        let report = lint("run_smoke.json", valid_run_report());
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            report.with_code(REPORT_MISSING_TELEMETRY).is_empty(),
            "{}",
            report.render()
        );
    }

    #[test]
    fn missing_telemetry_blocks_warn_without_failing() {
        // A pre-telemetry report: parseable, schema-clean, but without
        // hists/mem blocks.
        let text = r#"{"elapsed_ms": 1.0, "experiment": "old", "sections": []}"#.to_string();
        let report = lint("run_old.json", text);
        let warns = report.with_code(REPORT_MISSING_TELEMETRY);
        assert_eq!(warns.len(), 1, "{}", report.render());
        assert!(warns[0].message.contains("hists, mem"));
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn truncated_report_is_unparsable() {
        let mut text = valid_run_report();
        text.truncate(text.len() / 2);
        let report = lint("run_smoke.json", text);
        assert_eq!(report.with_code(REPORT_UNPARSABLE).len(), 1);
    }

    #[test]
    fn invented_field_is_drift() {
        let text = valid_run_report().replace("\"experiment\": \"smoke\"", "\"experiment\": 42");
        let report = lint("run_smoke.json", text);
        let drift = report.with_code(REPORT_SCHEMA_DRIFT);
        assert_eq!(drift.len(), 1, "{}", report.render());
        assert!(drift[0].message.contains("$.experiment: number"));
    }

    #[test]
    fn missing_optional_section_is_not_drift() {
        // Omitting sections entirely leaves only known shapes behind.
        let text = r#"{"elapsed_ms": 1.0, "experiment": "lite", "sections": []}"#.to_string();
        let report = lint("run_lite.json", text);
        assert!(
            report.with_code(REPORT_SCHEMA_DRIFT).is_empty(),
            "{}",
            report.render()
        );
    }

    #[test]
    fn unknown_labels_are_skipped() {
        let report = lint("notes.json", "not json at all".to_string());
        assert!(report.with_code(REPORT_UNPARSABLE).is_empty());
    }
}
