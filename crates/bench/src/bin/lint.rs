//! `prebond3d-lint` — run the static-analysis pipeline over the seed
//! benchmarks and any run reports on disk.
//!
//! Per selected die (see `PREBOND3D_CIRCUITS`), three staged contexts:
//!
//! 1. **netlist** — structure checks on the generated die;
//! 2. **scan** — chain connectivity after scan insertion;
//! 3. **flow** — the full Fig. 6 flow (Ours, both scenarios) at deep
//!    depth: wrapper wiring, TSV coverage with cone-overlap rationale,
//!    timing-model sanity, post-insertion slack and mission-mode
//!    co-simulation.
//!
//! Afterwards, every `run_*.json` in the report directory is
//! schema-checked. Findings print human-readably; the full
//! set is written to `results/lint_<exp>.json` (directory overridable via
//! `PREBOND3D_REPORT_DIR`, experiment name via the only CLI argument,
//! default `full`). Exit code 1 when any Error-severity finding survives,
//! 2 on a malformed command line, 3 when a die paniced while being
//! audited and the rest carried on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use prebond3d_bench::report::report_dir;
use prebond3d_bench::{context, driver, lintflow};
use prebond3d_dft::insert_scan;
use prebond3d_lint::{Depth, LintContext, LintReport, Linter, Severity};
use prebond3d_obs::json::Value;
use prebond3d_resilience as resil;
use prebond3d_wcm::flow::{FlowConfig, Method};
use prebond3d_wcm::run_flow;

/// The experiment name from the command line: at most one positional
/// argument, default `full`. An option or a second name is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let mut experiment = None;
    for arg in args {
        if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        }
        if experiment.is_some() {
            return Err(format!("unexpected second experiment name `{arg}`"));
        }
        experiment = Some(arg);
    }
    Ok(experiment.unwrap_or_else(|| "full".to_string()))
}

/// Lint one die through the staged contexts.
fn lint_die(case: &context::DieCase) -> Vec<LintReport> {
    let library = context::library();
    let label = case.label();
    let mut reports = Vec::new();

    // Stage 1: the raw generated netlist.
    reports.push(
        Linter::with_default_passes()
            .run(&LintContext::new(format!("{label}/netlist")).with_netlist(&case.netlist)),
    );

    // Stage 2: scan insertion.
    match insert_scan(&case.netlist) {
        Ok((scanned, chain)) => reports.push(
            Linter::with_default_passes().run(
                &LintContext::new(format!("{label}/scan"))
                    .with_netlist(&scanned)
                    .with_chain(&chain),
            ),
        ),
        Err(e) => eprintln!("{label}: scan insertion failed: {e}"),
    }

    // Stage 3: the full flow, both scenarios, deep depth.
    for config in [
        FlowConfig::area_optimized(Method::Ours),
        FlowConfig::performance_optimized(Method::Ours),
    ] {
        let stage = format!("{label}/flow-{:?}", config.scenario).to_lowercase();
        match run_flow(&case.netlist, &case.placement, &library, &config) {
            Ok(result) => reports.push(lintflow::lint_result(
                &stage,
                &case.netlist,
                &result,
                &library,
                &config,
                Depth::Deep,
            )),
            Err(e) => eprintln!("{stage}: flow failed: {e}"),
        }
    }
    reports
}

/// Schema-check every report file in the results directory.
fn lint_reports_on_disk(dir: &PathBuf) -> Option<LintReport> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut ctx = LintContext::new(dir.display().to_string());
    let mut found = false;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("run_") && name.ends_with(".json") {
            if let Ok(text) = std::fs::read_to_string(entry.path()) {
                ctx = ctx.with_report(name, text);
                found = true;
            }
        }
    }
    found.then(|| Linter::with_default_passes().run(&ctx))
}

fn main() -> ExitCode {
    let experiment = match parse_args(std::env::args().skip(1)) {
        Ok(experiment) => experiment,
        Err(e) => {
            eprintln!("prebond3d-lint: {e}\nusage: prebond3d-lint [experiment]");
            return ExitCode::from(2);
        }
    };
    let names = context::circuit_names();
    eprintln!("prebond3d-lint: auditing {}", names.join(", "));

    let cases = context::load_circuits(&names);
    let mut reports: Vec<LintReport> = Vec::new();
    let mut failed_dies = 0usize;
    for case in &cases {
        match catch_unwind(AssertUnwindSafe(|| lint_die(case))) {
            Ok(r) => reports.extend(r),
            Err(p) => {
                failed_dies += 1;
                eprintln!(
                    "{}: audit paniced: {}",
                    case.label(),
                    prebond3d_bench::report::panic_message(p.as_ref())
                );
            }
        }
    }
    let dir = report_dir();
    if let Some(r) = lint_reports_on_disk(&dir) {
        reports.push(r);
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut infos = 0usize;
    for report in &reports {
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warn);
        infos += report.count(Severity::Info);
        if !report.diagnostics.is_empty() {
            print!("{}", report.render());
        }
    }
    println!(
        "lint: {} artifact(s), {errors} error(s), {warnings} warning(s), {infos} info",
        reports.len()
    );

    let doc = Value::obj([
        ("experiment", experiment.as_str().into()),
        ("errors", errors.into()),
        ("warnings", warnings.into()),
        ("infos", infos.into()),
        (
            "reports",
            Value::Arr(reports.iter().map(LintReport::to_json).collect()),
        ),
    ]);
    let path = dir.join(format!("lint_{experiment}.json"));
    match resil::io::atomic_write(&path, &format!("{doc}\n")) {
        Ok(()) => eprintln!("lint report: {}", path.display()),
        Err(e) => eprintln!("lint report: {e}"),
    }

    if errors > 0 {
        ExitCode::from(1)
    } else if failed_dies > 0 {
        ExitCode::from(driver::EXIT_PARTIAL_FAILURE)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    #[test]
    fn takes_at_most_one_experiment_name_and_no_options() {
        let parse = |args: &[&str]| parse_args(args.iter().map(ToString::to_string));
        assert_eq!(parse(&[]).as_deref(), Ok("full"));
        assert_eq!(parse(&["dataflow"]).as_deref(), Ok("dataflow"));
        let err = parse(&["dataflow", "--out", "x.json"]).unwrap_err();
        assert!(err.contains("--out"), "{err}");
        assert!(parse(&["-h"]).is_err());
        assert!(parse(&["dataflow", "smoke"]).is_err());
    }
}
