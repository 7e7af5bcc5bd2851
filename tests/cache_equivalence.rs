//! Reference-vs-optimized equivalence sweep (DESIGN.md §11).
//!
//! The hot-path caches — cone word-span fast paths, memoized ATPG
//! probing, incremental clique scoring — are performance devices, not
//! algorithm changes: with caches enabled the flow must produce the same
//! sharing graphs, the same clique partitions and the same final fault
//! coverage as the straight-line reference code that
//! `PREBOND3D_NO_CACHE=1` selects. That mode also pins the fault
//! simulator to the single-lane walk, so the comparison checks W=1
//! against the default W=8 as well. This sweep runs seeded random
//! netlists through the full Fig. 6 flow in both modes and compares the
//! outputs byte-for-byte (via `Debug` fingerprints, which pin ordering
//! as well as content).
//!
//! One `#[test]` function only: the no-cache override
//! (`tuning::force_no_cache`) is process-global, so the whole sweep runs
//! sequentially in a single body and restores the override at the end.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::celllib::Library;
use prebond3d::netlist::{itc99, tuning};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, FlowResult, Method, Scenario};
use prebond3d_rng::StdRng;

/// Seeded random die specs: small enough that the sweep's 2×(flow+ATPG)
/// per case stays fast, varied enough to hit empty graphs, dense overlap
/// regions and multi-clique partitions.
fn random_specs() -> Vec<itc99::DieSpec> {
    let mut rng = StdRng::seed_from_u64(0xCAC4_E001);
    (0..4u64)
        .map(|case| itc99::DieSpec {
            name: format!("cache_eq_die{case}"),
            scan_flip_flops: rng.gen_range(6usize..28),
            gates: rng.gen_range(80usize..320),
            inbound_tsvs: rng.gen_range(3usize..12),
            outbound_tsvs: rng.gen_range(3usize..12),
            primary_inputs: 4,
            primary_outputs: 4,
            seed: rng.gen_range(0u64..10_000),
        })
        .collect()
}

/// Everything the caches could corrupt, rendered to one string: per-phase
/// graph statistics (nodes, edges, overlaps), the exact wrapper plan the
/// cliques produced, the reuse counters, and the stuck-at coverage of the
/// wrapped die.
fn fingerprint(r: &FlowResult) -> String {
    let access = prebond3d::dft::prebond_access(&r.testable);
    let atpg = run_stuck_at(&r.testable.netlist, &access, &AtpgConfig::fast());
    format!(
        "phases={:?}\nplan={:?}\nreused={} additional={} coverage={:.9} patterns={}",
        r.phases,
        r.plan,
        r.reused_scan_ffs,
        r.additional_wrapper_cells,
        atpg.test_coverage(),
        atpg.pattern_count(),
    )
}

#[test]
fn cached_and_reference_flows_are_byte_identical() {
    let lib = Library::nangate45_like();
    for (case, spec) in random_specs().iter().enumerate() {
        let netlist = itc99::generate_die(spec);
        let placement = place(&netlist, &PlaceConfig::default(), 1);
        for scenario in [Scenario::Area, Scenario::Tight] {
            let config = FlowConfig {
                method: Method::Ours,
                scenario,
                ordering: None,
                allow_overlap: Some(true),
            };
            let run = || {
                let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
                fingerprint(&r)
            };

            tuning::force_no_cache(Some(false));
            let cached = run();
            tuning::force_no_cache(Some(true));
            let reference = run();
            tuning::force_no_cache(None);

            assert_eq!(
                cached, reference,
                "case {case} ({scenario:?}): cached flow diverged from the \
                 PREBOND3D_NO_CACHE reference"
            );
        }
    }

    // The env-var spelling must select the same reference path as the
    // forced override (the override wins over the env, so clear it first).
    let spec = &random_specs()[0];
    let netlist = itc99::generate_die(spec);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let config = FlowConfig {
        method: Method::Ours,
        scenario: Scenario::Area,
        ordering: None,
        allow_overlap: Some(true),
    };
    let run = || {
        let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
        fingerprint(&r)
    };
    tuning::force_no_cache(Some(true));
    let forced = run();
    tuning::force_no_cache(None);
    std::env::set_var("PREBOND3D_NO_CACHE", "1");
    let via_env = run();
    std::env::remove_var("PREBOND3D_NO_CACHE");
    assert_eq!(forced, via_env, "env-var and forced no-cache paths differ");
}
