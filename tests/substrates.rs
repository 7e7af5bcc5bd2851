//! Cross-crate exercises of the supporting substrates: the native netlist
//! text format and fault diagnosis, both driven through the main flow's
//! artifacts.

use prebond3d::atpg::diagnosis::FaultDictionary;
use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::atpg::FaultList;
use prebond3d::celllib::Library;
use prebond3d::dft::prebond_access;
use prebond3d::netlist::{format, itc99};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, Method};

fn wrapped_flow() -> prebond3d::wcm::flow::FlowResult {
    let spec = itc99::circuit("b11").expect("known benchmark");
    let die = itc99::generate_die(&spec.dies[0]);
    let placement = place(&die, &PlaceConfig::default(), 1);
    let lib = Library::nangate45_like();
    run_flow(
        &die,
        &placement,
        &lib,
        &FlowConfig::performance_optimized(Method::Ours),
    )
    .expect("flow runs")
}

#[test]
fn testable_netlist_roundtrips_through_text() {
    let r = wrapped_flow();
    let text = format::write(&r.testable.netlist);
    let reparsed = format::parse(&text).expect("reparses");
    assert_eq!(reparsed.len(), r.testable.netlist.len());
    assert_eq!(reparsed.stats(), r.testable.netlist.stats());
}

#[test]
fn dictionary_resolution_survives_wrapping() {
    let r = wrapped_flow();
    let netlist = &r.testable.netlist;
    let access = prebond_access(&r.testable);
    let atpg = run_stuck_at(netlist, &access, &AtpgConfig::fast());
    let universe = FaultList::collapsed(netlist);
    let dict = FaultDictionary::build(netlist, &access, &universe.faults, &atpg.patterns);
    assert!(dict.resolution() > 0.1);
    assert_eq!(dict.len(), universe.len());
}
