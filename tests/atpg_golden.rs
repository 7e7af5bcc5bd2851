//! Golden Table IV ATPG results.
//!
//! Each line pins one ATPG run on a testable die: the die, the method, the
//! fault model, the pattern count, an FNV-1a hash of the pattern bits and
//! the fault accounting. Any change to test generation (PODEM decisions,
//! random-phase stream, compaction, fault simulation) that moves a pattern
//! bit or a fault class shows up here as a mismatching line.
//!
//! The dies are placed exactly as the benchmark's `table4_small` workload
//! places them (seed 1, 24 moves per cell), and ATPG runs at
//! `AtpgConfig::fast()`.
//!
//! When a change is *meant* to move these numbers, the failure message
//! prints every actual line; paste them into `tests/golden/table4_atpg.txt`
//! and justify the change in review.

use prebond3d::atpg::engine::{run_stuck_at, run_transition, AtpgConfig, AtpgResult};
use prebond3d::celllib::Library;
use prebond3d::dft::prebond_access;
use prebond3d::netlist::itc99;
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, Method};
use prebond3d_resilience::{fnv1a, fnv1a_more};

const GOLDEN: &str = include_str!("golden/table4_atpg.txt");

/// FNV-1a over the pattern bits, eight bits to a byte, MSB first.
fn pattern_hash(r: &AtpgResult) -> u64 {
    let mut h = fnv1a(b"patterns");
    for p in &r.patterns {
        let bytes: Vec<u8> = p
            .bits
            .chunks(8)
            .map(|c| c.iter().fold(0u8, |b, &bit| (b << 1) | u8::from(bit)))
            .collect();
        h = fnv1a_more(h, &bytes);
    }
    h
}

fn line(die: &str, method: Method, model: &str, r: &AtpgResult) -> String {
    format!(
        "{die} {method:?} {model} patterns={} bits={:016x} total={} detected={} untestable={} aborted={}",
        r.pattern_count(),
        pattern_hash(r),
        r.total_faults,
        r.detected,
        r.untestable,
        r.aborted
    )
}

#[test]
fn table4_atpg_results_match_the_golden_file() {
    let library = Library::nangate45_like();
    let atpg = AtpgConfig::fast();
    let mut actual = Vec::new();
    for (circuit, index) in [("b11", 0usize), ("b11", 3), ("b12", 3)] {
        let spec = itc99::circuit(circuit).expect("known benchmark");
        let netlist = itc99::generate_die(&spec.dies[index]);
        let config = PlaceConfig {
            moves_per_cell: 24,
            ..PlaceConfig::default()
        };
        let placement = place(&netlist, &config, 1);
        let die = format!("{circuit}/Die{index}");
        for method in [Method::Agrawal, Method::Ours] {
            let flow = run_flow(
                &netlist,
                &placement,
                &library,
                &FlowConfig::performance_optimized(method),
            )
            .expect("flow runs");
            let access = prebond_access(&flow.testable);
            let testable = &flow.testable.netlist;
            let sa = run_stuck_at(testable, &access, &atpg);
            actual.push(line(&die, method, "stuck_at", &sa));
            let tr = run_transition(testable, &access, &atpg);
            actual.push(line(&die, method, "transition", &tr));
        }
    }
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(
        expected == actual,
        "Table IV ATPG results moved; the actual lines are:\n{}",
        actual.join("\n")
    );
}
