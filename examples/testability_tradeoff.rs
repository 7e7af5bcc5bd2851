//! Sweep the paper's testability thresholds (`cov_th`, `p_th`) and watch
//! the area-vs-testability trade-off of overlapped-cone sharing: looser
//! thresholds admit more sharing edges (fewer wrapper cells) at a measured
//! fault-coverage cost.
//!
//! ```text
//! cargo run --release --example testability_tradeoff
//! ```

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::celllib::Library;
use prebond3d::dft::prebond_access;
use prebond3d::dft::{testable, WrapAssignment, WrapPlan, WrapperSource};
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig};
use prebond3d::sta::{analyze, StaConfig};
use prebond3d::wcm::{
    clique, graph, MergePolicy, ReuseKind, StructuralProbe, Thresholds, TimingModel,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = itc99::circuit("b12").expect("known benchmark");
    let die = itc99::generate_die(&spec.dies[1]);
    let placement = place(&die, &PlaceConfig::default(), 1);
    let library = Library::nangate45_like();
    let cones = graph::flow_cones(&die);
    let report = analyze(&die, &placement, &library, &StaConfig::relaxed());
    let model = TimingModel::new(&die, &placement, &library, &report, &report, true);
    let probe = StructuralProbe::default();

    println!("die `{}`: {}", die.name(), die.stats());
    println!(
        "{:>8} {:>6} | {:>7} {:>13} | {:>8} {:>10} {:>9}",
        "cov_th", "p_th", "edges", "overlap edges", "+cells", "coverage", "patterns"
    );

    for (cov_th, p_th) in [
        (0.0, 0),    // overlap sharing off (Agrawal-style restriction)
        (0.001, 2),  // very strict
        (0.005, 10), // the paper's setting
        (0.02, 40),  // loose
        (0.10, 200), // anything goes
    ] {
        let mut th = Thresholds::area_optimized(&library);
        th.cov_th = cov_th;
        th.p_th = p_th;

        // Build the plan over both phases.
        let mut plan = WrapPlan::default();
        let mut available = die.flip_flops();
        let mut edges = 0usize;
        let mut overlap_edges = 0usize;
        for direction in [ReuseKind::Outbound, ReuseKind::Inbound] {
            let tsvs = match direction {
                ReuseKind::Inbound => die.inbound_tsvs(),
                ReuseKind::Outbound => die.outbound_tsvs(),
            };
            let g = graph::build(&model, &th, &probe, &cones, &available, &tsvs, direction);
            edges += g.edge_count;
            overlap_edges += g.overlap_edges;
            let partition = clique::partition(&g, &model, &th, MergePolicy::Accurate);
            for c in &partition.cliques {
                if c.tsv_count() == 0 {
                    continue;
                }
                let members: Vec<_> = c
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| Some(m) != c.ff)
                    .collect();
                let (inbound, outbound) = match direction {
                    ReuseKind::Inbound => (members, vec![]),
                    ReuseKind::Outbound => (vec![], members),
                };
                let source = match c.ff {
                    Some(ff) => {
                        available.retain(|&f| f != ff);
                        WrapperSource::ReusedScanFf(ff)
                    }
                    None => WrapperSource::Dedicated,
                };
                plan.assignments.push(WrapAssignment {
                    source,
                    inbound,
                    outbound,
                });
            }
            for &t in &g.ineligible_tsvs {
                let (inbound, outbound) = match direction {
                    ReuseKind::Inbound => (vec![t], vec![]),
                    ReuseKind::Outbound => (vec![], vec![t]),
                };
                plan.assignments.push(WrapAssignment {
                    source: WrapperSource::Dedicated,
                    inbound,
                    outbound,
                });
            }
        }

        // Measure the consequences with real ATPG.
        let wrapped = testable::apply(&die, &plan)?;
        let access = prebond_access(&wrapped);
        let atpg = run_stuck_at(&wrapped.netlist, &access, &AtpgConfig::fast());
        println!(
            "{:>7.3}% {:>6} | {:>7} {:>13} | {:>8} {:>9.2}% {:>9}",
            100.0 * cov_th,
            p_th,
            edges,
            overlap_edges,
            plan.additional_wrapper_cells(),
            100.0 * atpg.test_coverage(),
            atpg.pattern_count(),
        );
    }
    Ok(())
}
