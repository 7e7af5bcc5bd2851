//! Report-schema pass.
//!
//! The bench binaries emit machine-readable run reports
//! (`results/run_<exp>.json`, `results/BENCH_<exp>.json`) that downstream
//! tooling parses; a silent schema drift breaks that tooling long after
//! the run that introduced it. This pass re-validates any report attached
//! to the context: unparsable JSON is P3601, and any field path whose
//! shape is absent from the golden schema is P3602.
//!
//! The goldens are the same files `tests/report_schema.rs` pins
//! (`tests/golden/*.schema.txt`), embedded at compile time so the lint
//! binary needs no working directory. Drift is one-sided on purpose:
//! reports may legally *omit* optional sections (a lite run has no
//! speedup block), but may not *invent* shapes the golden never saw.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::context::LintContext;
use crate::diagnostic::{
    Code, Diagnostic, Location, REPORT_MISSING_TELEMETRY, REPORT_SCHEMA_DRIFT, REPORT_UNPARSABLE,
    SERVE_CACHE_COLD, SERVE_JOBS_UNACCOUNTED, SERVE_JOURNAL_UNACCOUNTED_JOB,
    SERVE_REPORT_MISSING_RECOVERY_TELEMETRY,
};
use crate::schema;
use crate::Pass;
use prebond3d_obs::json::Value;

/// Cap on drift findings per report, to keep a wholesale corruption from
/// flooding the output.
const MAX_DRIFT: usize = 5;

static RUN_GOLDEN: OnceLock<BTreeSet<String>> = OnceLock::new();
static BENCH_GOLDEN: OnceLock<BTreeSet<String>> = OnceLock::new();
static SERVE_GOLDEN: OnceLock<BTreeSet<String>> = OnceLock::new();

fn run_golden() -> &'static BTreeSet<String> {
    RUN_GOLDEN.get_or_init(|| {
        schema::parse_golden(include_str!(
            "../../../../tests/golden/run_report.schema.txt"
        ))
    })
}

fn bench_golden() -> &'static BTreeSet<String> {
    BENCH_GOLDEN.get_or_init(|| {
        schema::parse_golden(include_str!(
            "../../../../tests/golden/bench_report.schema.txt"
        ))
    })
}

fn serve_golden() -> &'static BTreeSet<String> {
    SERVE_GOLDEN.get_or_init(|| {
        schema::parse_golden(include_str!(
            "../../../../tests/golden/serve_report.schema.txt"
        ))
    })
}

/// Is this label the serving benchmark report (`BENCH_serve.json`)?
fn is_serve_report(base: &str) -> bool {
    base.starts_with("BENCH_serve")
}

/// Pick the golden schema for a report label (file basename); `None` for
/// artifacts the pass does not know how to validate. `BENCH_serve` must
/// match before the generic `BENCH_` prefix: the serving report has a
/// jobs/cache shape the per-die bench golden never saw.
fn golden_for(label: &str) -> Option<&'static BTreeSet<String>> {
    let base = label.rsplit('/').next().unwrap_or(label);
    if is_serve_report(base) {
        Some(serve_golden())
    } else if base.starts_with("BENCH_") {
        Some(bench_golden())
    } else if base.starts_with("run_") {
        Some(run_golden())
    } else {
        None
    }
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
            SERVE_JOBS_UNACCOUNTED,
            SERVE_CACHE_COLD,
            SERVE_JOURNAL_UNACCOUNTED_JOB,
            SERVE_REPORT_MISSING_RECOVERY_TELEMETRY,
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
            let base = label.rsplit('/').next().unwrap_or(label);
            if is_serve_report(base) {
                check_serve_consistency(label, &value, &ctx.artifact, out);
            }
        }
    }
}

/// Reports grown after the telemetry round carry `hists` + `mem` (run
/// reports) resp. `mem` + `pool` (bench reports); the serving report
/// carries `cache` + `jobs` + `mem`. A report omitting them is probably
/// produced by a stale binary — worth a warning, not a failure, since
/// lite fixtures legitimately skip optional blocks.
fn check_telemetry_blocks(label: &str, value: &Value, artifact: &str, out: &mut Vec<Diagnostic>) {
    let base = label.rsplit('/').next().unwrap_or(label);
    let expected: &[&str] = if is_serve_report(base) {
        &["cache", "jobs", "mem"]
    } else if base.starts_with("BENCH_") {
        &["mem", "pool"]
    } else {
        &["hists", "mem"]
    };
    let missing: Vec<&str> = expected
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

/// Cross-field invariants of the serving report that the schema cannot
/// express: every submitted job must drain to done or failed (a lost job
/// means the daemon's queue leaked under load), and a serving run whose
/// warm cache never hit is measuring nothing the daemon exists for.
fn check_serve_consistency(label: &str, value: &Value, artifact: &str, out: &mut Vec<Diagnostic>) {
    let num = |block: &str, key: &str| -> Option<u64> {
        value
            .get(block)
            .and_then(|b| b.get(key))
            .and_then(Value::as_u64)
    };
    if let (Some(submitted), Some(done), Some(failed)) = (
        num("jobs", "submitted"),
        num("jobs", "done"),
        num("jobs", "failed"),
    ) {
        if submitted != done + failed {
            out.push(
                Diagnostic::new(
                    SERVE_JOBS_UNACCOUNTED,
                    Location::item(artifact, label.to_string()),
                    format!(
                        "job accounting does not balance: {submitted} submitted, \
                         {done} done + {failed} failed"
                    ),
                )
                .with_help("a job vanished between the daemon's queue and its workers"),
            );
        }
    }
    if num("cache", "hits") == Some(0) {
        out.push(
            Diagnostic::new(
                SERVE_CACHE_COLD,
                Location::item(artifact, label.to_string()),
                "warm cache never hit during the serving run".to_string(),
            )
            .with_help("the loadgen mix should replay at least one substrate"),
        );
    }
    // Durability invariants (DESIGN.md §15). A report without a recovery
    // block was produced by a pre-journal loadgen binary — warn; a report
    // whose journal still holds pending jobs after the run drained means
    // accepted work was lost across the crash drill — that's an error.
    if matches!(value.get("recovery"), Some(Value::Obj(_))) {
        if let Some(pending) = num("recovery", "journal_pending") {
            if pending > 0 {
                out.push(
                    Diagnostic::new(
                        SERVE_JOURNAL_UNACCOUNTED_JOB,
                        Location::item(artifact, label.to_string()),
                        format!(
                            "{pending} journaled job(s) still pending after the \
                             recovery drill drained"
                        ),
                    )
                    .with_help(
                        "an accepted job was neither replayed to done nor failed \
                         — the daemon's crash recovery lost work",
                    ),
                );
            }
        }
    } else {
        out.push(
            Diagnostic::new(
                SERVE_REPORT_MISSING_RECOVERY_TELEMETRY,
                Location::item(artifact, label.to_string()),
                "report omits the recovery telemetry block".to_string(),
            )
            .with_help("regenerate the report with a current loadgen binary"),
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

    /// Minimal per-die bench report that satisfies the bench golden
    /// schema.
    fn valid_bench_report() -> String {
        r#"{
            "experiment": "perf",
            "threads": 4,
            "elapsed_ms": 10.0,
            "mem": {"alloc_bytes_total": 100, "alloc_bytes_peak": 50,
                    "rss_now_kb": 10, "rss_peak_kb": 12,
                    "rss_sampled_kb": {"count": 1, "sum": 10, "max": 10,
                                       "p50": 10, "p95": 10, "p99": 10}},
            "pool": {"chunk_wait": {"count": 1, "sum": 2, "max": 2,
                                    "p50": 2, "p95": 2, "p99": 2}},
            "phases": [{"path": "flow", "count": 1, "ms": 4.0,
                        "p50_ns": 0, "p95_ns": 0, "p99_ns": 0, "max_ns": 0}],
            "work": [{"counter": "atpg.gate_evals", "substrate": "b01 Die0",
                      "reference": 800, "optimized": 400, "reduction": 0.5},
                     {"counter": "atpg.pattern_batches",
                      "substrate": "b01 Die0 wide lanes",
                      "reference": 8, "optimized": 1, "reduction": 0.875}]
        }"#
        .to_string()
    }

    #[test]
    fn valid_bench_report_is_clean() {
        let report = lint("BENCH_perf.json", valid_bench_report());
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            report.with_code(REPORT_MISSING_TELEMETRY).is_empty(),
            "{}",
            report.render()
        );
    }

    /// Minimal serving report that satisfies the serve golden schema and
    /// both cross-field invariants.
    fn valid_serve_report() -> String {
        r#"{
            "experiment": "serve",
            "threads": 0,
            "elapsed_ms": 0.0,
            "clients": 3,
            "jobs_per_client": 6,
            "seed": 7,
            "phases": [{"path": "serve_place", "count": 3, "ms": 4.0,
                        "p50_ns": 0, "p95_ns": 0, "p99_ns": 0, "max_ns": 0}],
            "hists": {"serve.latency_warm_ns": {"count": 4, "sum": 8, "max": 3,
                                                "p50": 2, "p95": 3, "p99": 3}},
            "jobs": {"submitted": 21, "done": 21, "failed": 0,
                     "protocol_errors": 0},
            "cache": {"hits": 18, "misses": 3, "evictions": 0,
                      "entries": 3, "budget": 1000},
            "mem": {"rss_now_kb": 0, "rss_peak_kb": 0},
            "backpressure": {"shed": 3, "shed_deterministic": 3,
                             "retry_after_frames": 3},
            "recovery": {"recovered": 3, "deduped": 3, "journal_pending": 0,
                         "journal_done": 6, "kill_recovered": 4},
            "work": [{"counter": "serve.cache_misses", "substrate": "job mix",
                      "reference": 21, "optimized": 3, "reduction": 0.857}]
        }"#
        .to_string()
    }

    #[test]
    fn serve_report_routes_to_its_own_golden() {
        // A valid serving report is clean — in particular it does NOT
        // drift against the per-die bench golden the generic `BENCH_`
        // prefix would have picked.
        let report = lint("BENCH_serve.json", valid_serve_report());
        assert!(!report.has_errors(), "{}", report.render());
        assert!(
            report.with_code(REPORT_MISSING_TELEMETRY).is_empty(),
            "{}",
            report.render()
        );
    }

    #[test]
    fn serve_report_with_unbalanced_jobs_is_flagged() {
        let text = valid_serve_report().replace(r#""done": 21"#, r#""done": 19"#);
        let report = lint("BENCH_serve.json", text);
        let findings = report.with_code(SERVE_JOBS_UNACCOUNTED);
        assert_eq!(findings.len(), 1, "{}", report.render());
        assert!(findings[0].message.contains("21 submitted"));
        assert!(report.has_errors());
    }

    #[test]
    fn serve_report_with_cold_cache_warns() {
        let text = valid_serve_report().replace(r#""hits": 18"#, r#""hits": 0"#);
        let report = lint("BENCH_serve.json", text);
        assert_eq!(report.with_code(SERVE_CACHE_COLD).len(), 1);
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn serve_report_with_pending_journal_jobs_is_flagged() {
        let text =
            valid_serve_report().replace(r#""journal_pending": 0"#, r#""journal_pending": 2"#);
        let report = lint("BENCH_serve.json", text);
        let findings = report.with_code(SERVE_JOURNAL_UNACCOUNTED_JOB);
        assert_eq!(findings.len(), 1, "{}", report.render());
        assert!(findings[0].message.contains("2 journaled job(s)"));
        assert!(report.has_errors());
    }

    #[test]
    fn serve_report_without_recovery_block_warns() {
        let text = valid_serve_report().replace(r#""recovery":"#, r#""recovery_gone":"#);
        let report = lint("BENCH_serve.json", text);
        let warns = report.with_code(SERVE_REPORT_MISSING_RECOVERY_TELEMETRY);
        assert_eq!(warns.len(), 1, "{}", report.render());
    }

    #[test]
    fn serve_report_missing_cache_block_warns() {
        let text = valid_serve_report().replace(r#""cache":"#, r#""cache_gone":"#);
        let report = lint("BENCH_serve.json", text);
        let warns = report.with_code(REPORT_MISSING_TELEMETRY);
        assert_eq!(warns.len(), 1, "{}", report.render());
        assert!(warns[0].message.contains("cache"));
    }
}
