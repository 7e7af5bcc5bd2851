//! Integration test for the observability layer: running the full Fig. 6
//! flow under `obs::record()` must produce the expected phase-span tree
//! and the headline counters every run report is built from.

use prebond3d::celllib::Library;
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, Method, Scenario};
use prebond3d_obs as obs;

// The obs registry and recording flag are process-global: serialize the
// tests in this binary so one test's probes never leak into the other's
// snapshot.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn run_flow_emits_the_expected_phase_spans() {
    let _l = LOCK.lock().unwrap();
    let spec = itc99::circuit("b11").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[0]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let lib = Library::nangate45_like();
    let config = FlowConfig {
        method: Method::Ours,
        scenario: Scenario::Tight,
        ordering: None,
        allow_overlap: None,
    };

    let _rec = obs::record();
    obs::reset();
    let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
    let snap = obs::snapshot();
    obs::reset();
    drop(_rec);

    // Phase spans of the paper's Fig. 6 flow, in hierarchical form.
    for path in [
        "flow",
        "flow/baseline_dft",
        "flow/baseline_sta",
        "flow/timing_model",
        "flow/plan",
        "flow/plan/graph_build",
        "flow/plan/clique_partition",
        "flow/dft_insert",
        "flow/post_sta",
    ] {
        let s = snap
            .span(path)
            .unwrap_or_else(|| panic!("missing phase span {path}"));
        assert!(s.count >= 1, "{path} must complete at least once");
    }
    // The tight scenario calibrates the threshold before planning.
    assert!(snap.span("flow/calibrate").is_some());
    // The root span is recorded exactly once per flow invocation.
    assert_eq!(snap.span("flow").unwrap().count, 1);

    // Headline counters line up with the flow's own result struct.
    assert_eq!(
        snap.gauge("flow.reused_scan_ffs"),
        Some(r.reused_scan_ffs as u64)
    );
    assert_eq!(
        snap.gauge("flow.additional_wrapper_cells"),
        Some(r.additional_wrapper_cells as u64)
    );
    assert!(snap.counter("graph.nodes") > 0);
    assert!(snap.counter("sta.runs") >= 2, "baseline + post STA");
    assert!(snap.counter("dft.wrapper_cells") > 0);
}

#[test]
fn probes_stay_silent_without_recording_or_sink() {
    let _l = LOCK.lock().unwrap();
    assert!(!obs::is_active(), "no probe is live outside a record scope");
    let spec = itc99::circuit("b11").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[0]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let lib = Library::nangate45_like();
    let config = FlowConfig {
        method: Method::Ours,
        scenario: Scenario::Area,
        ordering: None,
        allow_overlap: None,
    };
    run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
    assert!(
        obs::snapshot().is_empty(),
        "inactive probes must not aggregate"
    );
}
