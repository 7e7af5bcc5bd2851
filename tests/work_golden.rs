//! Golden deterministic work counters of the hot paths (DESIGN.md §11).
//!
//! One probe on the fixed substrate b12 Die1 exercises each optimized
//! kernel once and reads its work counters from an isolated obs capture:
//!
//! * one sharing-graph build and one clique partition
//!   (`graph.cone_word_ops`, `clique.candidate_rescores`);
//! * two `AtpgProbe::sharing_cost` passes over three overlapping
//!   (flip-flop, TSV) pairs, then one `run_stuck_at(fast)` on the bare die
//!   (`probe.cache_*`, `atpg.gate_evals`, `podem.implication_evals`,
//!   `atpg.faults_pruned`);
//! * the same 512-pattern fault-simulation workload at lane width 1 and 8
//!   (`atpg.gate_evals`, `atpg.pattern_batches`).
//!
//! Each counter is one `substrate counter=value` line, compared exactly
//! with `tests/golden/work_counters.txt`: a kernel that does more work, or
//! less, fails here. The counters are machine-independent and must not
//! depend on the thread count, so the probe runs at 1 and at 4 threads.
//!
//! When a change is *meant* to move these numbers, the failure message
//! prints every actual line; paste them into the golden file and justify
//! the change in review.

use prebond3d::atpg::engine::run_stuck_at;
use prebond3d::atpg::fault::FaultList;
use prebond3d::atpg::faultsim::FaultSimulator;
use prebond3d::atpg::sim::Pattern;
use prebond3d::atpg::{AtpgConfig, TestAccess};
use prebond3d::celllib::Library;
use prebond3d::netlist::cone::ConeSet;
use prebond3d::netlist::{itc99, GateId};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::sta::{analyze, StaConfig};
use prebond3d::wcm::testability::{AtpgProbe, TestabilityProbe};
use prebond3d::wcm::{
    clique, graph, MergePolicy, ReuseKind, StructuralProbe, Thresholds, TimingModel,
};
use prebond3d_obs as obs;
use prebond3d_pool::with_threads;
use prebond3d_rng::StdRng;

const GOLDEN: &str = include_str!("golden/work_counters.txt");
const SUBSTRATE: &str = "b12 Die1";

/// Run the work probe and return one `substrate counter=value` line per
/// counter, in a fixed order.
fn probe() -> Vec<String> {
    let spec = itc99::circuit("b12").expect("known benchmark");
    let netlist = itc99::generate_die(&spec.dies[1]);
    let mut lines = Vec::new();
    let mut push = |substrate: &str, counter: &str, value: u64| {
        lines.push(format!("{substrate} {counter}={value}"));
    };

    // --- Cone/clique: one graph build and one clique partition ----------
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let library = Library::default();
    let sta = analyze(&netlist, &placement, &library, &StaConfig::relaxed());
    let model = TimingModel::new(&netlist, &placement, &library, &sta, &sta, true);
    let thresholds = Thresholds::area_optimized(&library);
    let ffs = netlist.flip_flops();
    let tsvs = netlist.inbound_tsvs();
    let mut roots: Vec<GateId> = ffs.clone();
    roots.extend(tsvs.iter().copied());
    let cones = ConeSet::compute(&netlist, &roots);
    let ((), snap) = obs::capture_recorded(|| {
        let g = graph::build(
            &model,
            &thresholds,
            &StructuralProbe::default(),
            &cones,
            &ffs,
            &tsvs,
            ReuseKind::Inbound,
        );
        clique::partition(&g, &model, &thresholds, MergePolicy::Accurate);
    });
    for counter in ["graph.cone_word_ops", "clique.candidate_rescores"] {
        push(SUBSTRATE, counter, snap.counter(counter));
    }

    // --- ATPG probe: memoized sharing costs, then stuck-at ATPG ---------
    // Up to three overlapping (flip-flop, TSV) pairs, selected outside the
    // measured run. The second pass over them is where memoization pays;
    // the floating TSVs of the bare die leave X cones whose faults the
    // dataflow pruning (DESIGN.md §14) retires before any simulation.
    let pairs: Vec<(GateId, GateId)> = tsvs
        .iter()
        .flat_map(|&t| ffs.iter().map(move |&f| (f, t)))
        .filter(|&(f, t)| cones.cones_overlap(f, t))
        .take(3)
        .collect();
    let access = TestAccess::full_scan(&netlist);
    let (_, snap) = obs::capture_recorded(|| {
        let probe = AtpgProbe::default();
        for _pass in 0..2 {
            for &(a, b) in &pairs {
                let _ = probe.sharing_cost(&netlist, &cones, a, b);
            }
        }
        run_stuck_at(&netlist, &access, &AtpgConfig::fast())
    });
    for counter in [
        "atpg.gate_evals",
        "probe.cache_hits",
        "probe.cache_misses",
        "podem.implication_evals",
        "atpg.faults_pruned",
    ] {
        push(SUBSTRATE, counter, snap.counter(counter));
    }

    // --- Wide lanes: one 512-pattern workload at W=1 and W=8 ------------
    let faults = FaultList::collapsed(&netlist);
    let alive = vec![true; faults.len()];
    let mut rng = StdRng::seed_from_u64(0x1A5E_BA5E);
    let patterns: Vec<Pattern> = (0..512)
        .map(|_| Pattern {
            bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
        })
        .collect();
    let total_blocks = patterns.len().div_ceil(64);
    let lanes = |width: usize| {
        obs::capture_recorded(|| {
            let mut fs = FaultSimulator::new(&netlist);
            // Per-64-block masks, re-indexed block-major/fault-minor so
            // the flattening is width-independent.
            let mut blocks = vec![0u64; total_blocks * faults.len()];
            for (win, window) in patterns.chunks(width * 64).enumerate() {
                let (w, masks) = fs
                    .simulate_batch_wide(&netlist, &access, window, &faults.faults, &alive)
                    .expect("window sized to lane capacity");
                for f in 0..faults.len() {
                    for b in 0..window.len().div_ceil(64) {
                        blocks[(win * width + b) * faults.len() + f] = masks[f * w + b];
                    }
                }
            }
            blocks
        })
    };
    let (w1_blocks, w1) = lanes(1);
    let (w8_blocks, w8) = lanes(8);
    assert!(
        w1_blocks == w8_blocks,
        "wide-lane detection masks must be bit-identical to single-lane"
    );
    let (w1_evals, w8_evals) = (w1.counter("atpg.gate_evals"), w8.counter("atpg.gate_evals"));
    assert!(
        w8_evals * 3 <= w1_evals,
        "wide lanes must amortize >= 3x: {w1_evals} evals at W=1 vs {w8_evals} at W=8"
    );
    for (width, snap) in [(1, &w1), (8, &w8)] {
        let substrate = format!("{SUBSTRATE} wide lanes W={width}");
        for counter in ["atpg.gate_evals", "atpg.pattern_batches"] {
            push(&substrate, counter, snap.counter(counter));
        }
    }
    lines
}

#[test]
fn work_counters_match_the_golden_file_at_every_thread_count() {
    let serial = with_threads(1, probe);
    let parallel = with_threads(4, probe);
    assert!(
        serial == parallel,
        "work counters depend on the thread count:\n1 thread:\n{}\n4 threads:\n{}",
        serial.join("\n"),
        parallel.join("\n")
    );
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    assert!(
        expected == serial,
        "work counters moved; the actual lines are:\n{}",
        serial.join("\n")
    );
}
