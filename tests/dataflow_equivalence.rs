//! Dataflow-pruning equivalence sweep (DESIGN.md §14).
//!
//! The static dataflow analysis is an admission/pruning device, not an
//! algorithm change: retiring provably-undetectable faults before
//! simulation must leave every ATPG artifact — pattern set, coverage,
//! untestable count — byte-identical to the `PREBOND3D_NO_CACHE`
//! reference that never prunes, and the analysis itself must be
//! byte-identical at every thread count (each analysis is a serial pass
//! in combinational order; this sweep pins it).
//!
//! One `#[test]` function only: the no-cache override
//! (`tuning::force_no_cache`) is process-global, so the whole sweep runs
//! sequentially in a single body and restores the override at the end.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::atpg::TestAccess;
use prebond3d::dataflow::boundary;
use prebond3d::dataflow::constprop::{Constants, SourceModel};
use prebond3d::dataflow::scoring::{AccessView, Scores};
use prebond3d::netlist::{itc99, tuning};
use prebond3d_pool as pool;
use prebond3d_rng::StdRng;

/// Seeded random die specs: varied TSV counts so some dies have large X
/// cones (lots to prune) and some almost none.
fn random_specs() -> Vec<itc99::DieSpec> {
    let mut rng = StdRng::seed_from_u64(0xDA7A_F10D);
    (0..4u64)
        .map(|case| itc99::DieSpec {
            name: format!("dataflow_eq_die{case}"),
            scan_flip_flops: rng.gen_range(6usize..24),
            gates: rng.gen_range(80usize..280),
            inbound_tsvs: rng.gen_range(2usize..14),
            outbound_tsvs: rng.gen_range(2usize..14),
            primary_inputs: 4,
            primary_outputs: 4,
            seed: rng.gen_range(0u64..10_000),
        })
        .collect()
}

/// Everything the dataflow engine computes, rendered to one string so
/// ordering is pinned as well as content.
fn analysis_fingerprint(netlist: &prebond3d::netlist::Netlist) -> String {
    let pre = Constants::compute(netlist, &SourceModel::pre_bond(netlist));
    let wrapped = Constants::compute(netlist, &SourceModel::assume_wrapped(netlist));
    let scores = Scores::compute(netlist, &AccessView::pre_bond(netlist));
    let issues = boundary::check(netlist);
    format!(
        "pre_consts={:?}\npre_x={:?}\nwrapped_consts={:?}\n\
         cc0={:?}\ncc1={:?}\nco={:?}\nissues={:?}",
        pre.derived_constants(netlist),
        pre.x_only_nets(netlist),
        wrapped.derived_constants(netlist),
        scores.cc0,
        scores.cc1,
        scores.co,
        issues,
    )
}

#[test]
fn pruned_atpg_and_dataflow_analysis_are_byte_identical() {
    for (case, spec) in random_specs().iter().enumerate() {
        let netlist = itc99::generate_die(spec);
        let access = TestAccess::full_scan(&netlist);

        // The analysis itself must not depend on the pool size.
        let base_analysis = pool::with_threads(1, || analysis_fingerprint(&netlist));
        for threads in [4usize, 8] {
            let at_n = pool::with_threads(threads, || analysis_fingerprint(&netlist));
            assert_eq!(
                base_analysis, at_n,
                "case {case}: dataflow analysis diverged at {threads} threads"
            );
        }

        // Pruned ATPG must match the never-pruning reference exactly, at
        // every thread count (`Debug` pins pattern order and coverage).
        tuning::force_no_cache(Some(true));
        let reference = run_stuck_at(&netlist, &access, &AtpgConfig::fast());
        tuning::force_no_cache(Some(false));
        for threads in [1usize, 4, 8] {
            let pruned = pool::with_threads(threads, || {
                run_stuck_at(&netlist, &access, &AtpgConfig::fast())
            });
            assert_eq!(
                format!("{reference:?}"),
                format!("{pruned:?}"),
                "case {case}: pruned ATPG diverged from the \
                 PREBOND3D_NO_CACHE reference at {threads} threads"
            );
        }
        tuning::force_no_cache(None);
    }
}
