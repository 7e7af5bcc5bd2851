//! Serial-vs-parallel equivalence: every stage the pool touches must be
//! bit-identical for any thread count (DESIGN.md §8).
//!
//! Each test computes a result under `PREBOND3D_THREADS`-equivalent
//! overrides of 1 (the exact serial path), 2 and 8 via
//! `prebond3d_pool::with_threads`, then compares byte-for-byte — either
//! the raw values or their `Debug` renderings, which pin down ordering as
//! well as content. Thread count 8 deliberately oversubscribes small
//! work lists so chunk claiming is maximally racy; determinism must come
//! from the merge order, not from scheduling luck.

use prebond3d::atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d::atpg::faultsim::FaultSimulator;
use prebond3d::atpg::sim::Pattern;
use prebond3d::atpg::{FaultList, TestAccess};
use prebond3d::celllib::Library;
use prebond3d::netlist::{itc99, Netlist};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, FlowResult, Method, Scenario};
use prebond3d_bench::{context, report, table3};
use prebond3d_obs::json::{parse, Value};
use prebond3d_pool::with_threads;
use prebond3d_rng::StdRng;

/// The deterministic substrates the suite sweeps: a small and a medium
/// ITC'99-style die, generated from fixed published parameters.
fn substrates() -> Vec<(String, Netlist)> {
    let mut out = Vec::new();
    for (name, dies) in [("b11", 2), ("b12", 1)] {
        let spec = itc99::circuit(name).expect("known benchmark");
        for (i, die) in spec.dies.iter().enumerate().take(dies) {
            out.push((format!("{name} Die{i}"), itc99::generate_die(die)));
        }
    }
    out
}

/// Run `f` at thread counts 1, 2 and 8 and assert all results equal.
fn assert_thread_invariant<T: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn() -> T) {
    let serial = with_threads(1, &f);
    for threads in [2usize, 8] {
        let parallel = with_threads(threads, &f);
        assert_eq!(
            serial, parallel,
            "{what}: serial and {threads}-thread results diverge"
        );
    }
}

#[test]
fn fault_coverage_maps_are_identical_across_thread_counts() {
    for (label, netlist) in substrates() {
        let access = TestAccess::full_scan(&netlist);
        let faults = FaultList::collapsed(&netlist);
        let alive = vec![true; faults.len()];
        let mut rng = StdRng::seed_from_u64(0xD1CE_0001);
        let patterns: Vec<Pattern> = (0..64)
            .map(|_| Pattern {
                bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
            })
            .collect();
        assert_thread_invariant(&format!("{label} detection masks"), || {
            let mut fs = FaultSimulator::new(&netlist);
            fs.simulate_batch_wide(&netlist, &access, &patterns, &faults.faults, &alive)
                .unwrap()
                .1
                .to_vec()
        });
    }
}

/// Sharing-graph edge sets, clique partitions and the final wrapper-cell
/// counts, all captured through the flow's own outputs: `PhaseStats`
/// carries the per-phase node/edge/overlap counts, `WrapPlan` the exact
/// reuse assignment the cliques produced, and the two counters the final
/// answer. `WrapPlan` is `Eq`, so a single adjacency-order difference in
/// the graph or a reordered merge in the partition shows up here.
#[test]
fn sharing_graphs_cliques_and_wrapper_counts_are_thread_invariant() {
    let lib = Library::nangate45_like();
    for (label, netlist) in substrates() {
        let placement = place(&netlist, &PlaceConfig::default(), 1);
        for scenario in [Scenario::Area, Scenario::Tight] {
            let fingerprint = |r: &FlowResult| {
                format!(
                    "{:?}\n{:?}\nreused={} additional={} wns={:?} violation={}",
                    r.phases,
                    r.plan,
                    r.reused_scan_ffs,
                    r.additional_wrapper_cells,
                    r.wns_after,
                    r.timing_violation,
                )
            };
            assert_thread_invariant(&format!("{label} flow ({scenario:?})"), || {
                let config = FlowConfig {
                    method: Method::Ours,
                    scenario,
                    ordering: None,
                    allow_overlap: Some(true),
                };
                let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
                fingerprint(&r)
            });
        }
    }
}

/// End-to-end: the testable netlist that comes out of the flow plus a
/// full deterministic ATPG run on it. This is the Fig. 6 pipeline exactly
/// as the bench drivers execute it.
#[test]
fn full_flow_and_atpg_results_are_thread_invariant() {
    let lib = Library::nangate45_like();
    let spec = itc99::circuit("b11").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[1]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    assert_thread_invariant("b11 Die1 flow + stuck-at ATPG", || {
        let r = run_flow(
            &netlist,
            &placement,
            &lib,
            &FlowConfig::performance_optimized(Method::Ours),
        )
        .expect("flow runs");
        let access = prebond3d::dft::prebond_access(&r.testable);
        let result = run_stuck_at(&r.testable.netlist, &access, &AtpgConfig::default());
        format!(
            "cells={} coverage={:.6} patterns={} wrapped_len={}",
            r.additional_wrapper_cells,
            result.test_coverage(),
            result.pattern_count(),
            r.testable.netlist.len(),
        )
    });
}

/// Wide-lane SIMD fault simulation (DESIGN.md §16) across thread counts:
/// the width-8 detection masks, wrapper counts and fault coverage must be
/// byte-identical serial and parallel. Threads change how fault chunks
/// are claimed and may not leak into any result bit; the W=1 oracle is
/// checked against the wide paths by the `engine` and `faultsim` unit
/// tests.
#[test]
fn wide_lane_masks_and_flow_are_thread_invariant() {
    let lib = Library::nangate45_like();
    let spec = itc99::circuit("b12").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[0]);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let access = TestAccess::full_scan(&netlist);
    let faults = FaultList::collapsed(&netlist);
    let alive = vec![true; faults.len()];
    let mut rng = StdRng::seed_from_u64(0x1A5E_D1CE);
    // 320 patterns = 5 blocks: a width-8 dispatch with a ragged tail.
    let patterns: Vec<Pattern> = (0..320)
        .map(|_| Pattern {
            bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
        })
        .collect();
    let blocks = patterns.len().div_ceil(64);

    let fingerprint = || {
        // Wide masks, normalized block-major so the rendering is
        // width-independent.
        let mut fs = FaultSimulator::new(&netlist);
        let (w, masks) = fs
            .simulate_batch_wide(&netlist, &access, &patterns, &faults.faults, &alive)
            .expect("batch within lane capacity");
        let normalized: Vec<u64> = (0..blocks)
            .flat_map(|b| (0..faults.len()).map(move |f| (f, b)))
            .map(|(f, b)| masks[f * w + b])
            .collect();
        // Flow wrapper counts + full ATPG on the wrapped die: the engine's
        // random phase, compaction and coverage accounting all batch
        // patterns through the wide lanes.
        let config = FlowConfig {
            method: Method::Ours,
            scenario: Scenario::Tight,
            ordering: None,
            allow_overlap: Some(true),
        };
        let r = run_flow(&netlist, &placement, &lib, &config).expect("flow runs");
        let atpg = run_stuck_at(
            &r.testable.netlist,
            &prebond3d::dft::prebond_access(&r.testable),
            &AtpgConfig::fast(),
        );
        format!(
            "masks={normalized:?} reused={} additional={} coverage={:.9} patterns={}",
            r.reused_scan_ffs,
            r.additional_wrapper_cells,
            atpg.test_coverage(),
            atpg.pattern_count(),
        )
    };

    assert_thread_invariant("b12 Die0 wide lanes", fingerprint);
}

/// Crash-safe checkpoint/resume (DESIGN.md §10): a sweep that is killed
/// mid-run and resumed — even with a torn final checkpoint line and a
/// different thread count — must converge to final reports byte-identical
/// to an uninterrupted run. Wall-clock fields are zeroed via the
/// stable-ms report setting so the comparison is exact.
#[test]
fn killed_and_resumed_sweep_produces_byte_identical_reports() {
    let base = std::env::temp_dir().join(format!("prebond3d-resume-{}", std::process::id()));
    let dir_a = base.join("uninterrupted");
    let dir_b = base.join("resumed");
    std::fs::create_dir_all(&dir_a).expect("temp dirs");
    std::fs::create_dir_all(&dir_b).expect("temp dirs");
    context::select_circuits(Ok(vec!["b11"]));
    let settings = |dir: &std::path::Path, resume: bool| report::Settings {
        dir: dir.to_path_buf(),
        stable_ms: true,
        resume,
    };

    let read = |dir: &std::path::Path, name: &str| {
        std::fs::read_to_string(dir.join(name))
            .unwrap_or_else(|e| panic!("{}/{name}: {e}", dir.display()))
    };

    // Reference: one uninterrupted run, serial.
    report::configure(settings(&dir_a, false));
    with_threads(1, || {
        report::begin("table3");
        table3::run();
        report::finish_summary()
    });

    // Crash scenario: run the sweep to build the checkpoint, then abandon
    // the collector without `finish` (the process "died" before writing
    // reports) and tear the checkpoint's final line mid-entry, as a kill
    // during an append would.
    report::configure(settings(&dir_b, false));
    with_threads(2, || {
        report::begin("table3");
        table3::run();
    });
    let ckpt = dir_b.join("checkpoint_table3.json");
    let text = read(&dir_b, "checkpoint_table3.json");
    assert!(
        text.lines().count() > 2,
        "checkpoint should hold several completed units"
    );
    let torn_key = parse(text.lines().last().expect("a final entry"))
        .expect("the final entry parses before it is torn")
        .get("key")
        .and_then(Value::as_str)
        .expect("entries carry their key")
        .to_string();
    std::fs::write(&ckpt, &text[..text.len() - 7]).expect("tear checkpoint");

    // Resume at a different thread count; the torn unit re-runs, the rest
    // replay from the checkpoint.
    report::configure(settings(&dir_b, true));
    let summary = with_threads(4, || {
        report::begin("table3");
        table3::run();
        report::finish_summary()
    });
    assert!(
        summary.resume_skipped > 0,
        "resume should replay finished units from the checkpoint"
    );
    assert_eq!(summary.failures, 0, "resumed sweep should be clean");

    let resumed = read(&dir_b, "run_table3.json");
    assert_eq!(
        read(&dir_a, "run_table3.json"),
        resumed,
        "run_table3.json: resumed run diverges from the uninterrupted run"
    );
    // The re-run unit recorded its telemetry: the comparison above saw
    // real counters, not two empty sections.
    let torn_label = torn_key.strip_prefix("table3/").expect("table3 scope");
    let doc = parse(&resumed).expect("run report parses");
    let torn_section = doc
        .get("sections")
        .and_then(Value::as_arr)
        .expect("sections")
        .iter()
        .find(|s| s.get("label").and_then(Value::as_str) == Some(torn_label))
        .unwrap_or_else(|| panic!("no section for the re-run unit {torn_label}"));
    assert!(
        matches!(torn_section.get("counters"), Some(Value::Obj(c)) if !c.is_empty()),
        "the re-run unit {torn_label} recorded no counters"
    );
    // The run report is the only file a finished sweep leaves behind.
    for dir in [&dir_a, &dir_b] {
        let files: Vec<_> = std::fs::read_dir(dir)
            .expect("report dir")
            .map(|e| e.expect("dir entry").file_name())
            .collect();
        assert_eq!(files, ["run_table3.json"], "{}", dir.display());
    }
    assert!(
        !ckpt.exists(),
        "checkpoint should be removed after a clean finish"
    );

    report::configure(report::Settings::default());
    context::select_circuits(Ok(itc99::CIRCUIT_NAMES.to_vec()));
    let _ = std::fs::remove_dir_all(&base);
}
