//! Wall-clock and deterministic-work probes for `BENCH_<exp>.json`.
//!
//! [`record_fault_sim_speedup`] measures the hottest phase of the flow —
//! PPSFP fault simulation — on the largest selected substrate, once with
//! one thread and once with the parallel pool, asserts the detection
//! masks are bit-identical (the determinism contract), and records the
//! speedup via [`crate::report::record_speedup`]. The measured numbers
//! are whatever the host machine gives: on a single-core container the
//! "parallel" run is oversubscribed and the speedup hovers around 1x;
//! the ≥1.5x target is only observable on multi-core hardware.
//!
//! [`record_work_reductions`] measures the hot paths (DESIGN.md §11) in
//! machine-independent units: it runs the cone/clique and ATPG-probe
//! workloads of the largest selected substrate once and records the
//! deterministic work counters (`atpg.gate_evals`, `atpg.faults_pruned`,
//! cone word-ops, `probe.cache_*`, …) via [`crate::report::record_work`].
//! Two rows also carry a direct reference implementation's count: the
//! single-lane fault simulator and the one-full-pass-per-step PODEM
//! implication. Unlike the wall-clock speedups these survive
//! `PREBOND3D_STABLE_MS`, so CI regression-gates them.

use std::time::Instant;

use prebond3d_atpg::engine::run_stuck_at;
use prebond3d_atpg::fault::FaultList;
use prebond3d_atpg::faultsim::FaultSimulator;
use prebond3d_atpg::sim::Pattern;
use prebond3d_atpg::{AtpgConfig, TestAccess};
use prebond3d_celllib::Library;
use prebond3d_netlist::cone::ConeSet;
use prebond3d_netlist::{itc99, GateId};
use prebond3d_obs as obs;
use prebond3d_place::{place, PlaceConfig};
use prebond3d_pool as pool;
use prebond3d_rng::StdRng;
use prebond3d_sta::{analyze, StaConfig};
use prebond3d_wcm::testability::{AtpgProbe, TestabilityProbe};
use prebond3d_wcm::{
    clique, graph, MergePolicy, ReuseKind, StructuralProbe, Thresholds, TimingModel,
};

use crate::report;

/// The largest selected substrate: most gates decides, dies within a
/// circuit too.
fn largest_substrate(circuits: &[&str]) -> Option<(String, itc99::DieSpec)> {
    circuits
        .iter()
        .filter_map(|name| itc99::circuit(name))
        .flat_map(|spec| {
            spec.dies
                .into_iter()
                .enumerate()
                .map(move |(i, d)| (spec.name, i, d))
        })
        .max_by_key(|(_, _, d)| d.gates + d.scan_flip_flops)
        .map(|(circuit, die_idx, d)| (format!("{circuit} Die{die_idx}"), d))
}

/// Measure one 64-pattern all-faults-alive batch on the largest die of
/// the largest circuit in `circuits`, serial vs parallel, and record the
/// result via [`report::record_speedup`]. The probe is optional
/// measurement, not a result: if it panics (a chaos injection in the
/// pool worker or die generation, or a genuine mask mismatch), the
/// speedup row is abandoned and a degradation is recorded instead of
/// taking down an otherwise-complete experiment.
pub fn record_fault_sim_speedup(circuits: &[&str]) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| probe(circuits))) {
        prebond3d_resilience::degrade::record(
            "perf",
            "skip_probe",
            format!(
                "speedup probe abandoned: {}",
                report::panic_message(p.as_ref())
            ),
        );
    }
}

fn probe(circuits: &[&str]) {
    let Some((substrate, die_spec)) = largest_substrate(circuits) else {
        return;
    };
    let netlist = itc99::generate_die(&die_spec);
    let access = TestAccess::full_scan(&netlist);
    let faults = FaultList::collapsed(&netlist);
    let alive = vec![true; faults.len()];
    let mut rng = StdRng::seed_from_u64(0x5EED_BA5E);
    let patterns: Vec<Pattern> = (0..64)
        .map(|_| Pattern {
            bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
        })
        .collect();

    // One batch is sub-millisecond on the small circuits; repeating it
    // inside the timed window keeps thread-spawn overhead from dominating
    // the parallel measurement.
    const REPS: usize = 16;
    let run = |threads: usize| {
        pool::with_threads(threads, || {
            let mut fs = FaultSimulator::new(&netlist);
            let t = Instant::now();
            let mut masks: Vec<u64> = Vec::new();
            for _ in 0..REPS {
                masks = fs
                    .simulate_batch(&netlist, &access, &patterns, &faults.faults, &alive)
                    .unwrap()
                    .to_vec();
            }
            (t.elapsed().as_secs_f64() * 1.0e3, masks)
        })
    };

    let parallel_threads = pool::threads().max(4);
    let _warmup = run(1); // page in the netlist and good machine once
    let (serial_ms, serial_masks) = run(1);
    let (parallel_ms, parallel_masks) = run(parallel_threads);
    assert_eq!(
        serial_masks, parallel_masks,
        "fault-sim masks must be bit-identical across thread counts"
    );
    report::record_speedup(
        "fault_simulation",
        &substrate,
        parallel_threads,
        serial_ms,
        parallel_ms,
    );
}

/// Work counters of the ATPG probe workload and the wide-lane fault-sim
/// probe, re-emitted into the run report's work-probe section.
struct AtpgSample {
    gate_evals: u64,
    cache_hits: u64,
    cache_misses: u64,
    faults_pruned: u64,
    implication_evals: u64,
    lanes_gate_evals: u64,
    lanes_pattern_batches: u64,
}

/// Measure the deterministic work counters of the hot paths (DESIGN.md
/// §11) on the largest selected substrate and record each counter via
/// [`report::record_work`]. Like the wall-clock probe this is optional
/// measurement: a panic records a degradation instead of failing the
/// experiment.
pub fn record_work_reductions(circuits: &[&str]) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    if let Err(p) = catch_unwind(AssertUnwindSafe(|| work_probe(circuits))) {
        prebond3d_resilience::degrade::record(
            "perf",
            "skip_work_probe",
            format!(
                "work-reduction probe abandoned: {}",
                report::panic_message(p.as_ref())
            ),
        );
    }
}

/// The ATPG portion runs full-universe stuck-at ATPG and the single-lane
/// fault-simulation reference, so it measures the largest substrate at or
/// below this node count (the cone/clique portion still runs on the
/// overall largest).
const ATPG_PROBE_MAX_NODES: usize = 2_000;

/// The largest selected substrate whose die is small enough for the ATPG
/// probe.
fn atpg_probe_substrate(circuits: &[&str]) -> Option<(String, itc99::DieSpec)> {
    circuits
        .iter()
        .filter_map(|name| itc99::circuit(name))
        .flat_map(|spec| {
            spec.dies
                .into_iter()
                .enumerate()
                .map(move |(i, d)| (spec.name, i, d))
        })
        .filter(|(_, _, d)| d.gates + d.scan_flip_flops <= ATPG_PROBE_MAX_NODES)
        .max_by_key(|(_, _, d)| d.gates + d.scan_flip_flops)
        .map(|(circuit, die_idx, d)| (format!("{circuit} Die{die_idx}"), d))
}

fn work_probe(circuits: &[&str]) {
    let Some((substrate, die_spec)) = largest_substrate(circuits) else {
        return;
    };

    // --- Cone/clique workload on the largest substrate -------------------
    // One sharing-graph build + clique partition: the build's
    // all-pairs cone scan tallies `graph.cone_word_ops`, the partition's
    // merge loop `clique.candidate_rescores`. `obs::capture` gives an
    // isolated registry, so the counters read are exactly this workload's.
    let netlist = itc99::generate_die(&die_spec);
    let placement = place(&netlist, &PlaceConfig::default(), 1);
    let library = Library::default();
    let sta = analyze(&netlist, &placement, &library, &StaConfig::relaxed());
    let model = TimingModel::new(&netlist, &placement, &library, &sta, &sta, true);
    let thresholds = Thresholds::area_optimized(&library);
    let ffs = netlist.flip_flops();
    let tsvs = netlist.inbound_tsvs();

    let (_, snap) = obs::capture(|| {
        let g = graph::build(
            &model,
            &thresholds,
            &StructuralProbe::default(),
            &ffs,
            &tsvs,
            ReuseKind::Inbound,
        );
        let _partition = clique::partition(&g, &model, &thresholds, MergePolicy::Accurate);
    });
    let word_ops = snap.counter("graph.cone_word_ops");
    let rescores = snap.counter("clique.candidate_rescores");

    // --- ATPG probe workload on a small-enough substrate -----------------
    let atpg = atpg_probe_substrate(circuits).map(|(atpg_substrate, atpg_spec)| {
        // Reuse the already-generated die when the caps coincide.
        let atpg_netlist = if atpg_substrate == substrate {
            None
        } else {
            Some(itc99::generate_die(&atpg_spec))
        };
        let atpg_netlist = atpg_netlist.as_ref().unwrap_or(&netlist);
        let ffs = atpg_netlist.flip_flops();
        let tsvs = atpg_netlist.inbound_tsvs();
        let mut roots: Vec<GateId> = ffs.clone();
        roots.extend(tsvs.iter().copied());

        // Up to three overlapping (flip-flop, TSV) pairs, selected outside
        // the measured run.
        let cones = ConeSet::compute(atpg_netlist, &roots);
        let mut pairs: Vec<(GateId, GateId)> = Vec::new();
        'outer: for &t in &tsvs {
            for &f in &ffs {
                if cones.cones_overlap(f, t) {
                    pairs.push((f, t));
                    if pairs.len() == 3 {
                        break 'outer;
                    }
                }
            }
        }

        // Two passes over the pairs (the second is where memoization
        // pays), then one full-universe ATPG run on the bare die: the
        // floating TSVs leave X cones whose faults the dataflow pruning
        // (DESIGN.md §14) retires before any simulation.
        let access = TestAccess::full_scan(atpg_netlist);
        let (_, snap) = obs::capture(|| {
            let probe = AtpgProbe::default();
            for _pass in 0..2 {
                for &(a, b) in &pairs {
                    let _ = probe.sharing_cost(atpg_netlist, &cones, a, b);
                }
            }
            run_stuck_at(atpg_netlist, &access, &AtpgConfig::fast())
        });
        // Gates PODEM implication would evaluate at one full pass per step.
        let full_pass_evals = snap.counter("podem.implications") * atpg_netlist.len() as u64;

        // --- Wide-lane fault-sim probe -------------------------------
        // The same 512-pattern full-universe workload at lane width 1
        // (the straight-line oracle) and 8: per-64-block detection masks
        // must agree bit-for-bit, while the wide run amortizes each cone
        // walk over 8x the patterns.
        let faults = FaultList::collapsed(atpg_netlist);
        let alive = vec![true; faults.len()];
        let mut rng = StdRng::seed_from_u64(0x1A5E_BA5E);
        let wide_patterns: Vec<Pattern> = (0..512)
            .map(|_| Pattern {
                bits: (0..access.width()).map(|_| rng.gen_bool(0.5)).collect(),
            })
            .collect();
        let total_blocks = wide_patterns.len().div_ceil(64);
        let lanes_mode = |width: usize| -> (u64, u64, Vec<u64>) {
            let (blocks, snap) = obs::capture(|| {
                let mut fs = FaultSimulator::new(atpg_netlist);
                // Per-64-block masks, re-indexed block-major/fault-minor
                // so the flattening is width-independent.
                let mut blocks = vec![0u64; total_blocks * faults.len()];
                for (win, window) in wide_patterns.chunks(width * 64).enumerate() {
                    let (w, masks) = fs
                        .simulate_batch_wide(
                            atpg_netlist,
                            &access,
                            window,
                            &faults.faults,
                            &alive,
                        )
                        .expect("probe window sized to lane capacity");
                    let win_blocks = window.len().div_ceil(64);
                    for f in 0..faults.len() {
                        for b in 0..win_blocks {
                            blocks[(win * width + b) * faults.len() + f] = masks[f * w + b];
                        }
                    }
                }
                blocks
            });
            (
                snap.counter("atpg.gate_evals"),
                snap.counter("atpg.pattern_batches"),
                blocks,
            )
        };
        let (w1_evals, w1_batches, w1_blocks) = lanes_mode(1);
        let (w8_evals, w8_batches, w8_blocks) = lanes_mode(8);
        assert_eq!(
            w1_blocks, w8_blocks,
            "wide-lane detection masks must be bit-identical to single-lane"
        );
        assert!(
            w8_evals * 3 <= w1_evals,
            "wide lanes must amortize >= 3x: {w1_evals} evals at W=1 vs {w8_evals} at W=8"
        );
        let lanes_substrate = format!("{atpg_substrate} wide lanes");
        report::record_work(
            "atpg.gate_evals",
            &lanes_substrate,
            Some(w1_evals),
            w8_evals,
        );
        report::record_work(
            "atpg.pattern_batches",
            &lanes_substrate,
            Some(w1_batches),
            w8_batches,
        );

        let sample = AtpgSample {
            gate_evals: snap.counter("atpg.gate_evals"),
            cache_hits: snap.counter("probe.cache_hits"),
            cache_misses: snap.counter("probe.cache_misses"),
            faults_pruned: snap.counter("atpg.faults_pruned"),
            implication_evals: snap.counter("podem.implication_evals"),
            lanes_gate_evals: w8_evals,
            lanes_pattern_batches: w8_batches,
        };
        report::record_work("atpg.gate_evals", &atpg_substrate, None, sample.gate_evals);
        report::record_work("probe.cache_hits", &atpg_substrate, None, sample.cache_hits);
        report::record_work(
            "probe.cache_misses",
            &atpg_substrate,
            None,
            sample.cache_misses,
        );
        // Event-driven PODEM (DESIGN.md §17): the reference is one full
        // pass per implication step, priced at the bare die's gate count.
        report::record_work(
            "podem.implication_evals",
            &atpg_substrate,
            Some(full_pass_evals),
            sample.implication_evals,
        );
        // obs-diff floor-gates the pruned count: a shrink means the static
        // analysis stopped seeing the X cones.
        report::record_work(
            "atpg.faults_pruned",
            &atpg_substrate,
            None,
            sample.faults_pruned,
        );
        sample
    });
    if atpg.is_none() {
        eprintln!(
            "perf: no selected substrate has <= {ATPG_PROBE_MAX_NODES} nodes; \
             ATPG work probe skipped (cone/clique counters still recorded)"
        );
    }

    report::record_work("graph.cone_word_ops", &substrate, None, word_ops);
    report::record_work("clique.candidate_rescores", &substrate, None, rescores);

    // Re-emit the counters into the run report (the captures above kept
    // them out of the experiment's collector), so `run_perf.json` carries
    // the cache hit/miss counters in a section.
    report::die_scope(&format!("{substrate} work probe"), || {
        obs::count("graph.cone_word_ops", word_ops);
        obs::count("clique.candidate_rescores", rescores);
        if let Some(a) = &atpg {
            obs::count("atpg.gate_evals", a.gate_evals + a.lanes_gate_evals);
            obs::count("atpg.pattern_batches", a.lanes_pattern_batches);
            obs::count("probe.cache_hits", a.cache_hits);
            obs::count("probe.cache_misses", a.cache_misses);
            obs::count("atpg.faults_pruned", a.faults_pruned);
            obs::count("podem.implication_evals", a.implication_evals);
        }
    });
}
