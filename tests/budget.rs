//! Phase-budget degradation end to end (DESIGN.md §10): with
//! `PREBOND3D_BUDGET_MS` armed at zero, every budgeted search the flow
//! runs — the annealer, clique merging, the PODEM random and
//! deterministic phases, compaction — must cut itself off at
//! its first deadline poll, return its best-so-far (or abort-with-reason)
//! result, record a structured degradation that lands in the run report,
//! and still pass the slack contract, which an armed budget exempts.

use std::time::{Duration, Instant};

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::celllib::Library;
use prebond3d::dft::prebond_access;
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{FlowConfig, Method};
use prebond3d_bench::{context, report};
use prebond3d_obs::json::{parse, Value};
use prebond3d_resilience::budget;

#[test]
fn zero_budget_degrades_every_phase_and_still_meets_the_slack_contract() {
    let dir = std::env::temp_dir().join(format!("prebond3d-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp report dir");
    std::env::set_var("PREBOND3D_REPORT_DIR", &dir);
    budget::force_budget_ms(Some(Some(0)));
    let t = Instant::now();

    let spec = itc99::circuit("b12").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[0]);
    let lib = Library::nangate45_like();

    report::begin("budget_probe");
    let coverage = report::die_scope("b12 Die0", || {
        let placement = place(&netlist, &PlaceConfig::default(), 4);
        // The contract must hold under an armed budget: truncated searches
        // may leave negative post-insertion slack, which an armed budget
        // exempts — a degraded run is a recorded compromise, not a bug.
        let r = context::checked_run_flow(
            "b12 Die0",
            &netlist,
            &placement,
            &lib,
            &FlowConfig::performance_optimized(Method::Ours),
        )
        .expect("an armed budget exempts the run from the slack contract");
        let access = prebond_access(&r.testable);
        let atpg = run_stuck_at(&r.testable.netlist, &access, &AtpgConfig::default());
        atpg.test_coverage()
    });
    let run_path = report::finish().expect("report written");
    budget::force_budget_ms(None);

    // Termination: every poll interval is a few hundred iterations, so a
    // zero budget means each phase does at most one interval of work. The
    // bound is generous for slow CI; the point is "bounded", not "fast".
    assert!(
        t.elapsed() < Duration::from_secs(120),
        "budgeted pipeline ran {:?}; a phase is ignoring its deadline",
        t.elapsed()
    );
    // ATPG aborted its faults instead of searching; coverage collapses.
    assert!(
        coverage < 1.0,
        "zero-budget ATPG reports full coverage — the deadline never cut in"
    );

    let text = std::fs::read_to_string(&run_path).expect("run report");
    let doc = parse(&text).expect("report parses");
    let degradations = doc
        .get("degradations")
        .and_then(Value::as_arr)
        .expect("degradations array");
    let actions: Vec<(&str, &str)> = degradations
        .iter()
        .filter_map(|d| Some((d.get("phase")?.as_str()?, d.get("action")?.as_str()?)))
        .collect();
    for expected in [
        ("anneal", "best_so_far"),
        ("atpg", "stop_random_phase"),
        ("atpg", "abort_faults"),
    ] {
        assert!(
            actions.contains(&expected),
            "missing degradation {expected:?} in run report; got {actions:?}"
        );
    }
    for d in degradations {
        let detail = d.get("detail").and_then(Value::as_str).unwrap_or("");
        assert!(
            !detail.is_empty(),
            "every degradation must say what was compromised: {d}"
        );
    }

    std::env::remove_var("PREBOND3D_REPORT_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}
