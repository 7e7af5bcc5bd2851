//! Cross-crate integration tests: the complete pre-bond DFT story on a
//! benchmark die, exercising netlist generation, placement, STA, the WCM
//! flow, DFT insertion and ATPG together.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::atpg::TestAccess;
use prebond3d::celllib::Library;
use prebond3d::dft::prebond_access;
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig, Placement};
use prebond3d::wcm::flow::{run_flow, FlowConfig, FlowResult, Method, Scenario};

fn b11_die(die: usize) -> (prebond3d::netlist::Netlist, Placement, Library) {
    let spec = itc99::circuit("b11").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[die]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    (netlist, placement, Library::nangate45_like())
}

fn run(die: usize, method: Method, scenario: Scenario) -> FlowResult {
    let (netlist, placement, lib) = b11_die(die);
    let config = FlowConfig {
        method,
        scenario,
        ordering: None,
        allow_overlap: None,
    };
    run_flow(&netlist, &placement, &lib, &config).expect("flow runs")
}

#[test]
fn every_tsv_is_wrapped_by_every_method() {
    let (netlist, _, _) = b11_die(0);
    for method in [Method::Ours, Method::Agrawal, Method::Li, Method::Naive] {
        let r = run(0, method, Scenario::Area);
        r.plan.validate(&netlist).expect("plan covers all TSVs");
    }
}

#[test]
fn ours_never_violates_tight_timing() {
    for die in 0..4 {
        let r = run(die, Method::Ours, Scenario::Tight);
        assert!(
            !r.timing_violation,
            "b11 die{die}: ours must meet the tight clock (wns {})",
            r.wns_after
        );
    }
}

#[test]
fn ours_saves_cells_vs_agrawal_in_area_mode() {
    let mut ours_total = 0usize;
    let mut agrawal_total = 0usize;
    for die in 0..4 {
        ours_total += run(die, Method::Ours, Scenario::Area).additional_wrapper_cells;
        agrawal_total += run(die, Method::Agrawal, Scenario::Area).additional_wrapper_cells;
    }
    assert!(
        ours_total <= agrawal_total,
        "ours {ours_total} vs agrawal {agrawal_total}"
    );
}

#[test]
fn method_hierarchy_holds() {
    // Naive ≥ Li ≥ clique methods on additional wrapper cells.
    let naive = run(1, Method::Naive, Scenario::Area).additional_wrapper_cells;
    let li = run(1, Method::Li, Scenario::Area).additional_wrapper_cells;
    let ours = run(1, Method::Ours, Scenario::Area).additional_wrapper_cells;
    let (netlist, _, _) = b11_die(1);
    assert_eq!(naive, netlist.stats().tsvs());
    assert!(li <= naive);
    assert!(ours <= li, "ours {ours} vs li {li}");
}

#[test]
fn wrapping_recovers_pre_bond_coverage() {
    let (netlist, _, _) = b11_die(2); // 76 TSVs, only 3 scan FFs
    let bare = run_stuck_at(
        &netlist,
        &TestAccess::full_scan(&netlist),
        &AtpgConfig::fast(),
    );
    let r = run(2, Method::Ours, Scenario::Area);
    let wrapped = run_stuck_at(
        &r.testable.netlist,
        &prebond_access(&r.testable),
        &AtpgConfig::fast(),
    );
    // Raw coverage (detected / all faults) is the honest metric here:
    // wrapping converts *proven-untestable* faults into testable ones, so
    // the test-coverage ratio (which excludes untestables) would hide the
    // repair.
    assert!(
        wrapped.coverage() > bare.coverage() + 0.05,
        "wrapping must repair coverage: {:.3} → {:.3}",
        bare.coverage(),
        wrapped.coverage()
    );
    assert!(wrapped.test_coverage() > 0.85);
}

#[test]
fn flow_is_deterministic() {
    let a = run(0, Method::Ours, Scenario::Tight);
    let b = run(0, Method::Ours, Scenario::Tight);
    assert_eq!(a.plan, b.plan);
    assert_eq!(a.reused_scan_ffs, b.reused_scan_ffs);
    assert_eq!(a.wns_after, b.wns_after);
}

#[test]
fn reused_ffs_plus_cells_cover_costs() {
    // Conservation: every wrapper plan's assignment count equals reused +
    // additional (+ FF-only no-op assignments, which must not exist).
    let r = run(3, Method::Ours, Scenario::Area);
    let total: usize = r
        .plan
        .assignments
        .iter()
        .filter(|a| a.tsv_count() > 0)
        .count();
    assert_eq!(total, r.reused_scan_ffs + r.additional_wrapper_cells);
}

#[test]
fn dft_insertion_preserves_mission_behaviour() {
    // Co-simulate original vs wrapped die in mission mode with random
    // wrapper-cell states: the wrapper hardware must be transparent.
    for method in [Method::Ours, Method::Agrawal] {
        let (netlist, _, _) = b11_die(1);
        let r = run(1, method, Scenario::Area);
        prebond3d::dft::mission_equivalent(&netlist, &r.testable, 3, 17)
            .unwrap_or_else(|m| panic!("{method:?}: {m}"));
    }
}

/// A wrapped inbound TSV floats pre-bond, so in the testable die it must
/// feed only its `wrapmux__` mux: any other consumer would read floating
/// data in test mode and bypass the wrapper cell.
#[test]
fn wrapped_inbound_tsvs_feed_only_their_mux() {
    for die in 0..4 {
        let (netlist, placement, lib) = b11_die(die);
        for method in [Method::Ours, Method::Agrawal, Method::Li, Method::Naive] {
            for scenario in [Scenario::Area, Scenario::Tight] {
                let config = FlowConfig {
                    method,
                    scenario,
                    ordering: None,
                    allow_overlap: None,
                };
                let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
                let testable = &r.testable.netlist;
                for tsv in netlist.inbound_tsvs() {
                    let name = &netlist.gate(tsv).name;
                    let mux = testable
                        .find(&format!("wrapmux__{name}"))
                        .unwrap_or_else(|| {
                            panic!("b11 die{die} {method:?} {scenario:?}: {name} has no mux")
                        });
                    assert_eq!(
                        testable.fanout(tsv),
                        [mux],
                        "b11 die{die} {method:?} {scenario:?}: {name} feeds more than its mux"
                    );
                }
            }
        }
    }
}
