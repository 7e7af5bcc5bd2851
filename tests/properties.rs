//! Property-style tests over the core data structures and invariants.
//!
//! Each test sweeps a deterministic seeded case list (the registry-free
//! replacement for `proptest`; DESIGN.md §7): inputs are drawn from
//! `prebond3d_rng`, so failures reproduce exactly and the sweep costs the
//! same every run.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::atpg::TestAccess;
use prebond3d::celllib::Library;
use prebond3d::dft::{self, WrapAssignment, WrapPlan, WrapperSource};
use prebond3d::netlist::{format, itc99, BitSet, GateId, Netlist};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::sta::{analyze, StaConfig};
use prebond3d_rng::StdRng;

const CASES: u64 = 24;

/// BitSet agrees with a reference HashSet under arbitrary operations.
#[test]
fn bitset_matches_hashset() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB175 ^ case);
        let ops = rng.gen_range(1usize..120);
        let mut set = BitSet::new(200);
        let mut reference = std::collections::HashSet::new();
        for _ in 0..ops {
            let idx = rng.gen_range(0usize..200);
            if rng.gen::<bool>() {
                assert_eq!(set.insert(idx), reference.insert(idx), "case {case}");
            } else {
                assert_eq!(set.remove(idx), reference.remove(&idx), "case {case}");
            }
        }
        assert_eq!(set.count(), reference.len(), "case {case}");
        let collected: std::collections::HashSet<usize> = set.iter().collect();
        assert_eq!(collected, reference, "case {case}");
    }
}

/// Generated dies always match their spec exactly and round-trip through
/// the text format.
#[test]
fn generated_die_roundtrips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD1E5 ^ case);
        let ffs = rng.gen_range(4usize..24);
        let gates = rng.gen_range(60usize..240);
        let inbound = rng.gen_range(2usize..10);
        let outbound = rng.gen_range(2usize..10);
        let seed = rng.gen_range(0u64..1000);
        let spec = itc99::DieSpec {
            name: "prop_die".into(),
            scan_flip_flops: ffs,
            gates,
            inbound_tsvs: inbound,
            outbound_tsvs: outbound,
            primary_inputs: 3,
            primary_outputs: 3,
            seed,
        };
        let die = itc99::generate_die(&spec);
        let stats = die.stats();
        assert_eq!(stats.scan_flip_flops, ffs, "case {case}");
        assert_eq!(stats.combinational_gates, gates, "case {case}");
        assert_eq!(stats.inbound_tsvs, inbound, "case {case}");
        assert_eq!(stats.outbound_tsvs, outbound, "case {case}");

        let text = format::write(&die);
        let reparsed = format::parse(&text).expect("emitted text reparses");
        assert_eq!(die.len(), reparsed.len(), "case {case}");
        assert_eq!(die.stats(), reparsed.stats(), "case {case}");
    }
}

/// Reference order: scan every gate each step for the smallest id whose
/// combinational inputs are all placed.
fn naive_order(n: &Netlist) -> Vec<GateId> {
    let mut placed = vec![false; n.len()];
    let mut order = Vec::new();
    while let Some(id) = n.ids().find(|&id| {
        let gate = n.gate(id);
        !placed[id.index()]
            && (gate.kind.is_source() || gate.inputs.iter().all(|i| placed[i.index()]))
    }) {
        placed[id.index()] = true;
        order.push(id);
    }
    order
}

/// Reference level: the longest input path back to a source.
fn naive_level(n: &Netlist, id: GateId, memo: &mut [Option<u32>]) -> u32 {
    if let Some(level) = memo[id.index()] {
        return level;
    }
    let gate = n.gate(id);
    let level = if gate.kind.is_source() {
        0
    } else {
        gate.inputs
            .iter()
            .map(|&i| naive_level(n, i, memo) + 1)
            .max()
            .unwrap_or(0)
    };
    memo[id.index()] = Some(level);
    level
}

/// The netlist's order and levels equal the naive references on seeded
/// dies and on two wrapped versions of each: every TSV on a dedicated
/// cell, and the first inbound and outbound TSV on the first scan
/// flip-flop instead. The reference order places a gate only after its
/// drivers, so this also checks that the order respects every dependency.
#[test]
fn topological_order_is_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x0710 ^ case);
        let spec = itc99::DieSpec {
            name: "prop".into(),
            scan_flip_flops: 12,
            gates: 150,
            inbound_tsvs: rng.gen_range(1usize..8),
            outbound_tsvs: rng.gen_range(1usize..8),
            primary_inputs: 5,
            primary_outputs: 5,
            seed: rng.gen_range(0u64..500),
        };
        let die = itc99::generate_die(&spec);
        let (t_in, t_out) = (die.inbound_tsvs()[0], die.outbound_tsvs()[0]);
        let mut reused = WrapPlan::all_dedicated(&die);
        reused
            .assignments
            .retain(|a| a.inbound != [t_in] && a.outbound != [t_out]);
        reused.assignments.push(WrapAssignment {
            source: WrapperSource::ReusedScanFf(die.flip_flops()[0]),
            inbound: vec![t_in],
            outbound: vec![t_out],
        });
        let wrap = |plan: &WrapPlan| dft::apply(&die, plan).expect("plan applies").netlist;
        for netlist in [
            wrap(&WrapPlan::all_dedicated(&die)),
            wrap(&reused),
            die.clone(),
        ] {
            assert_eq!(netlist.order(), naive_order(&netlist), "case {case}");
            let mut memo = vec![None; netlist.len()];
            let levels: Vec<u32> = netlist
                .ids()
                .map(|id| naive_level(&netlist, id, &mut memo))
                .collect();
            assert_eq!(netlist.levels(), levels, "case {case}");
        }
    }
}

/// STA invariants: loads are non-negative, the worst endpoint slack equals
/// WNS, and a longer clock increases every endpoint slack by the same
/// amount.
#[test]
fn sta_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57A0 ^ case);
        let seed = rng.gen_range(0u64..200);
        let die = itc99::generate_flat("prop", 180, 14, 5, 5, seed);
        let placement = place(&die, &PlaceConfig::default(), 1);
        let lib = Library::nangate45_like();
        let r1 = analyze(
            &die,
            &placement,
            &lib,
            &StaConfig::with_period(prebond3d::celllib::Time(1000.0)),
        );
        let r2 = analyze(
            &die,
            &placement,
            &lib,
            &StaConfig::with_period(prebond3d::celllib::Time(1500.0)),
        );
        assert!(
            (r2.wns - r1.wns - prebond3d::celllib::Time(500.0)).0.abs() < 1e-6,
            "case {case}"
        );
        for id in die.ids() {
            assert!(r1.load(id).0 >= 0.0, "case {case}");
            assert_eq!(r1.load(id), r2.load(id), "case {case}");
            // Arrival is clock-independent.
            assert!(
                (r1.arrival(id) - r2.arrival(id)).0.abs() < 1e-9,
                "case {case}"
            );
        }
    }
}

/// ATPG patterns generated for a die always detect at least as many faults
/// as the engine claims (re-simulation agrees).
#[test]
fn atpg_accounting_is_consistent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA7B6 ^ case);
        let seed = rng.gen_range(0u64..60);
        let die = itc99::generate_flat("prop", 100, 8, 5, 5, seed);
        let access = TestAccess::full_scan(&die);
        let result = run_stuck_at(&die, &access, &AtpgConfig::fast());
        let list = prebond3d::atpg::FaultList::collapsed(&die);
        let detected =
            prebond3d::atpg::engine::detected_by(&die, &access, &list.faults, &result.patterns);
        let count = detected.iter().filter(|&&d| d).count();
        assert_eq!(count, result.detected, "case {case}");
        assert!(
            result.detected + result.untestable <= result.total_faults,
            "case {case}"
        );
    }
}
