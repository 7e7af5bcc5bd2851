//! Sweep the sharing-distance threshold `d_th` and watch the paper's
//! area-vs-timing trade-off: short thresholds forgo reuse (more wrapper
//! cells, comfortable slack), long thresholds reuse aggressively until the
//! wire delay starts eating the margin.
//!
//! ```text
//! cargo run --release --example timing_tradeoff
//! ```

use prebond3d::celllib::{Distance, Library, Time};
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig};
use prebond3d::sta::analysis::analyze_with_statics;
use prebond3d::sta::StaConfig;
use prebond3d::wcm::flow::calibrate_tight_period;
use prebond3d::wcm::flow::{run_flow, FlowConfig, Method};
use prebond3d::wcm::{
    clique, graph, MergePolicy, ReuseKind, StructuralProbe, Thresholds, TimingModel,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = itc99::circuit("b12").expect("known benchmark");
    let die = itc99::generate_die(&spec.dies[2]);
    let placement = place(&die, &PlaceConfig::default(), 1);
    let library = Library::nangate45_like();
    let cones = graph::flow_cones(&die);

    let clock = calibrate_tight_period(&die, &placement, &library)?;
    println!(
        "die `{}` @ calibrated clock {} (die scale {})",
        die.name(),
        clock,
        placement.scale()
    );
    println!(
        "{:>10} {:>8} {:>8} {:>7} {:>12} {:>10}",
        "d_th (µm)", "edges", "reused", "+cells", "wns (ps)", "violation"
    );

    // The graph/partition machinery exposed directly: sweep d_th by hand.
    let sta = StaConfig::with_period(clock);
    let report = analyze_with_statics(&die, &placement, &library, &sta, &[]);
    for factor in [0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6] {
        let d_th = Distance(placement.scale().0 * factor);
        let mut th = Thresholds::performance_optimized(&library, d_th);
        th.s_th = Time(5.0);
        let model = TimingModel::new(&die, &placement, &library, &report, &report, true);
        let probe = StructuralProbe::default();
        let mut edges = 0usize;
        let mut reused = 0usize;
        let mut additional = 0usize;
        let mut available = die.flip_flops();
        for direction in [ReuseKind::Inbound, ReuseKind::Outbound] {
            let tsvs = match direction {
                ReuseKind::Inbound => die.inbound_tsvs(),
                ReuseKind::Outbound => die.outbound_tsvs(),
            };
            let g = graph::build(&model, &th, &probe, &cones, &available, &tsvs, direction);
            edges += g.edge_count;
            let p = clique::partition(&g, &model, &th, MergePolicy::Accurate);
            reused += p.reused();
            additional += p.additional() + g.ineligible_tsvs.len();
            for c in &p.cliques {
                if let (Some(ff), true) = (c.ff, c.tsv_count() > 0) {
                    available.retain(|&f| f != ff);
                }
            }
        }
        println!(
            "{:>10.1} {:>8} {:>8} {:>7} {:>12} {:>10}",
            d_th.0, edges, reused, additional, "-", "-"
        );
    }

    // And the packaged scenarios for reference.
    for (label, config) in [
        ("area", FlowConfig::area_optimized(Method::Ours)),
        ("tight", FlowConfig::performance_optimized(Method::Ours)),
        (
            "agrawal",
            FlowConfig::performance_optimized(Method::Agrawal),
        ),
    ] {
        let r = run_flow(&die, &placement, &library, &config)?;
        // Post-insertion STA at the scenario clock.
        let post = analyze_with_statics(
            &r.testable.netlist,
            &r.placement,
            &library,
            &StaConfig::with_period(r.clock_period),
            &[r.testable.test_en],
        );
        println!(
            "flow[{label:>7}]: reused {:>3}, +{:>3} cells, wns {}, violation {}",
            r.reused_scan_ffs, r.additional_wrapper_cells, post.wns, r.timing_violation
        );
    }
    Ok(())
}
