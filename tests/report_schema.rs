//! Golden-file schema test for the two machine-readable reports:
//! `results/run_<exp>.json` (per-die sections with spans and counters)
//! and `results/BENCH_<exp>.json` (aggregated phases + speedup records).
//!
//! The test runs a tiny synthetic experiment through the real
//! begin/die_scope/record_speedup/finish pipeline, parses both files with
//! the in-tree JSON parser, reduces them to a type-schema (one sorted
//! `path: type` line per distinct field) and compares against the golden
//! files in `tests/golden/`. Downstream tooling parses these reports;
//! changing a field name or type must be a conscious, reviewed act.

use prebond3d_bench::report;
use prebond3d_lint::schema;
use prebond3d_obs as obs;
use prebond3d_obs::json::{parse, Value};
use prebond3d_resilience::{chaos, degrade};

/// The sorted `path: type` reduction the lint report pass validates
/// against (`prebond3d_lint::schema`), one line per distinct field. A
/// non-numeric counter or malformed histogram surfaces as an extra line,
/// so the golden comparison fails on it.
fn schema_of(text: &str) -> String {
    let doc = parse(text).expect("report parses as JSON");
    let mut s = schema::schema_lines(&doc)
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
    report::record_speedup("fault_simulation", "synthetic Die1", 4, 10.0, 4.0);
    report::record_work("atpg.gate_evals", "synthetic Die1", Some(1000), 400);
    report::record_work("probe.cache_hits", "synthetic Die1", None, 6);
    let run_path = report::finish().expect("reports written");
    chaos::install(None);
    let bench_path = run_path.with_file_name("BENCH_schema_probe.json");

    let run_schema = schema_of(&std::fs::read_to_string(&run_path).expect("run report"));
    let bench_schema = schema_of(&std::fs::read_to_string(&bench_path).expect("bench report"));

    assert_matches_golden(
        &run_schema,
        include_str!("golden/run_report.schema.txt"),
        "run_<exp>.json",
        "golden/run_report.schema.txt",
    );
    assert_matches_golden(
        &bench_schema,
        include_str!("golden/bench_report.schema.txt"),
        "BENCH_<exp>.json",
        "golden/bench_report.schema.txt",
    );

    let _ = std::fs::remove_dir_all(&dir);
}
