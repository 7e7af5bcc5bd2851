//! Cross-crate exercise of the supporting substrates: the native netlist
//! text format, driven through the main flow's artifacts.

use prebond3d::celllib::Library;
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
