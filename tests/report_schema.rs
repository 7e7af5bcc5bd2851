//! Golden-file schema test for the machine-readable run report,
//! `results/run_<exp>.json` (per-die sections with spans and counters,
//! phase histograms, memory and pool telemetry, resilience records).
//!
//! The test runs a tiny synthetic experiment through the real
//! begin/die_scope/finish pipeline, parses the report with the in-tree
//! JSON parser, reduces them to a type-schema (one sorted
//! `path: type` line per distinct field) and compares against the golden
//! files in `tests/golden/`. Downstream tooling parses these reports;
//! changing a field name or type must be a conscious, reviewed act.

#[path = "schema_util/mod.rs"]
mod schema_util;

use std::collections::BTreeSet;

use prebond3d_bench::report;
use prebond3d_obs as obs;
use prebond3d_obs::json::{parse, Value};
use prebond3d_resilience::{chaos, degrade};
use schema_util::schema_lines;

/// The sorted `path: type` reduction of a report, one line per distinct
/// field. A non-numeric counter or malformed histogram surfaces as an
/// extra line, so the golden comparison fails on it.
fn schema_of(text: &str) -> String {
    let doc = parse(text).expect("report parses as JSON");
    let mut s = schema_lines(&doc)
        .into_iter()
        .collect::<Vec<_>>()
        .join("\n");
    s.push('\n');
    s
}

/// Compare against a golden file — or, with `PREBOND3D_REGEN_GOLDEN`
/// set, rewrite the golden in place (`golden_file` is relative to
/// `tests/`) so intentional schema changes don't need hand-editing.
fn assert_matches_golden(actual: &str, golden: &str, which: &str, golden_file: &str) {
    if std::env::var_os("PREBOND3D_REGEN_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join(golden_file);
        std::fs::write(&path, actual).expect("rewrite golden schema");
        return;
    }
    assert!(
        actual == golden,
        "{which} schema drifted from tests/golden.\n--- expected ---\n{golden}\n--- actual ---\n{actual}\n\
         If the change is intentional, regenerate it: \
         PREBOND3D_REGEN_GOLDEN=1 cargo test --test report_schema"
    );
}

/// Single test function: `begin`/`finish` use process-global state and
/// `PREBOND3D_REPORT_DIR` is a process-global env var, so the whole
/// scenario runs in one sequential body.
#[test]
fn report_files_match_the_golden_schemas() {
    let dir = std::env::temp_dir().join(format!("prebond3d-schema-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp report dir");
    std::env::set_var("PREBOND3D_REPORT_DIR", &dir);

    // Arm chaos at rate 0 (armed but never fires) and stage one synthetic
    // event/degradation/failure so the goldens pin the element shapes of
    // the resilience arrays, not just their presence.
    chaos::install(Some((1, 0.0)));
    report::begin("schema_probe");
    chaos::note("io.write", chaos::ChaosKind::Io);
    degrade::record("podem", "abort_faults", "schema probe");
    report::record_failure("synthetic Die9", "schema probe failure");
    for die in 0..2 {
        report::die_scope(&format!("synthetic Die{die}"), || {
            let _flow = obs::span("flow");
            {
                let _inner = obs::span("graph_build");
                obs::count("graph.edges", 3 + die as u64);
                obs::hist("probe.latency_ns", 1500 + die as u64);
            }
            obs::gauge("flow.reused_scan_ffs", die as u64);
        });
    }
    // One panicking unit with telemetry already recorded: its partial
    // capture must land in `failures[].partial` with section shape.
    report::resilient_par_die_scopes(
        "schema_panic",
        &[0u32],
        |case| format!("synthetic Panic{case}"),
        |_| {
            {
                let _span = obs::span("doomed_phase");
                obs::count("graph.edges", 1);
            }
            panic!("schema probe partial failure");
        },
        |_: &u32| Value::Null,
        |_| Some(0u32),
    );
    let run_path = report::finish().expect("report written");
    chaos::install(None);

    // The run report is the only file an experiment writes.
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("report dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(
        written,
        ["run_schema_probe.json"],
        "unexpected report files"
    );

    let run_schema = schema_of(&std::fs::read_to_string(&run_path).expect("run report"));

    assert_matches_golden(
        &run_schema,
        include_str!("golden/run_report.schema.txt"),
        "run_<exp>.json",
        "golden/run_report.schema.txt",
    );

    let _ = std::fs::remove_dir_all(&dir);
}

fn lines(doc: &str) -> BTreeSet<String> {
    schema_lines(&parse(doc).expect("test document parses"))
}

#[test]
fn reduction_matches_expected_lines() {
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
    assert_eq!(
        lines(r#"{"a":1,"b":[{"c":"x"},{"c":"y"}],"counters":{"k":2}}"#),
        expect
    );
}

#[test]
fn malformed_metrics_surface_as_extra_lines() {
    let hists = lines(
        r#"{"hists":{"flow":{"count":1,"sum":2,"max":2,"p50":2,"p95":2,"p99":2},
                     "bad":{"count":1}}}"#,
    );
    assert!(hists.contains("$.hists: map<hist>"));
    // The well-formed entry stays collapsed, the malformed one surfaces.
    assert!(!hists.iter().any(|l| l.starts_with("$.hists.flow")));
    assert!(hists.contains("$.hists.bad: object"));
    assert!(lines(r#"{"counters":{"bad":"oops"}}"#).contains("$.counters.bad: string"));
}
