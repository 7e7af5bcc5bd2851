//! Dataflow-analysis thread-invariance sweep (DESIGN.md §14).
//!
//! The static dataflow analysis (constants, X cones, SCOAP, boundary
//! issues) must be byte-identical at every thread count: each analysis is
//! a serial pass in combinational order, and this sweep pins it. That
//! pruning leaves every ATPG artifact byte-identical to the never-pruning
//! reference is checked on the same seeded dies by the ATPG engine's own
//! unit tests (`cargo test -p prebond3d-atpg default_run_is_byte_identical`).

use prebond3d::atpg::TestAccess;
use prebond3d::dataflow::boundary;
use prebond3d::dataflow::constprop::{Constants, SourceModel};
use prebond3d::dataflow::scoring::Scores;
use prebond3d::netlist::itc99;
use prebond3d_pool as pool;
use prebond3d_rng::StdRng;

/// Seeded random die specs: varied TSV counts so some dies have large X
/// cones (lots to prune) and some almost none, plus one larger die.
fn die_specs() -> Vec<itc99::DieSpec> {
    let mut rng = StdRng::seed_from_u64(0xDA7A_F10D);
    let mut specs: Vec<itc99::DieSpec> = (0..4u64)
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
        .collect();
    specs.push(itc99::DieSpec {
        name: "df".into(),
        scan_flip_flops: 16,
        gates: 400,
        inbound_tsvs: 8,
        outbound_tsvs: 8,
        primary_inputs: 5,
        primary_outputs: 5,
        seed: 0xD47A,
    });
    specs
}

/// Everything the dataflow engine computes, rendered to one string so
/// ordering is pinned as well as content: the value set of every net
/// under both source models, and SCOAP under the full-scan access view
/// the ATPG pipeline runs.
fn analysis_fingerprint(netlist: &prebond3d::netlist::Netlist) -> String {
    let pre = Constants::compute(netlist, &SourceModel::pre_bond(netlist));
    let wrapped = Constants::compute(netlist, &SourceModel::assume_wrapped(netlist));
    let scores = Scores::compute(netlist, &TestAccess::full_scan(netlist).view());
    let issues = boundary::check(netlist);
    format!(
        "pre_sets={:?}\nwrapped_sets={:?}\n\
         cc0={:?}\ncc1={:?}\nco={:?}\nissues={:?}",
        pre.sets, wrapped.sets, scores.cc0, scores.cc1, scores.co, issues,
    )
}

#[test]
fn dataflow_analysis_is_byte_identical_across_thread_counts() {
    for (case, spec) in die_specs().iter().enumerate() {
        let netlist = itc99::generate_die(spec);
        let base_analysis = pool::with_threads(1, || analysis_fingerprint(&netlist));
        for threads in [4usize, 8] {
            let at_n = pool::with_threads(threads, || analysis_fingerprint(&netlist));
            assert_eq!(
                base_analysis, at_n,
                "case {case}: dataflow analysis diverged at {threads} threads"
            );
        }
    }
}
