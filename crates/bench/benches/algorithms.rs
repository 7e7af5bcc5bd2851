//! Benchmarks over every substrate and the core algorithms, on a
//! hand-rolled harness (the workspace builds without a registry, so
//! `criterion` is not available; DESIGN.md §7).
//!
//! Groups:
//! * `netlist` — generation + topological traversal,
//! * `partition` — FM vs random vs level,
//! * `placement` — annealing refinement,
//! * `sta` — full timing analysis,
//! * `atpg` — bit-parallel fault-sim batches and PODEM,
//! * `wcm` — Algorithm 1 (graph construction) and Algorithm 2 (clique
//!   partitioning), in both timing-model fidelities,
//! * `flow` — the end-to-end Fig. 6 flow per method,
//! * `obs` — probe overhead with the sink disabled (must be ~ns/probe, so
//!   instrumentation can stay on in release builds).
//!
//! Run with `cargo bench -p prebond3d-bench`; pass a substring to filter:
//! `cargo bench -p prebond3d-bench -- wcm`. Each benchmark reports
//! min/mean/max per-iteration wall time. `PREBOND3D_BENCH_SECS` bounds
//! per-benchmark measuring time (default 1s).

use std::time::{Duration, Instant};

use prebond3d_atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d_atpg::faultsim::FaultSimulator;
use prebond3d_atpg::sim::Pattern;
use prebond3d_atpg::{FaultList, TestAccess};
use prebond3d_celllib::Library;
use prebond3d_netlist::{itc99, traverse, Netlist};
use prebond3d_obs as obs;
use prebond3d_partition::{fm, level, random as rpart, PartitionSpec};
use prebond3d_place::{anneal, grid, place, PlaceConfig, Placement};
use prebond3d_sta::{analyze, StaConfig};
use prebond3d_wcm::flow::{run_flow, FlowConfig, Method};
use prebond3d_wcm::{
    clique, graph, MergePolicy, ReuseKind, StructuralProbe, Thresholds, TimingModel,
};

/// Minimal fixed-effort benchmark runner.
struct Harness {
    filter: Option<String>,
    budget: Duration,
}

impl Harness {
    fn from_args() -> Harness {
        // `cargo bench -- <filter>` forwards trailing args; `--bench` is
        // injected by cargo's libtest convention — ignore flags.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let budget = std::env::var("PREBOND3D_BENCH_SECS")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map_or(Duration::from_secs(1), Duration::from_secs_f64);
        Harness { filter, budget }
    }

    /// Time `f` until the budget is spent (at least 3 iterations), and
    /// print min/mean/max per iteration.
    fn bench<T>(&self, group: &str, name: &str, mut f: impl FnMut() -> T) {
        let full = format!("{group}/{name}");
        if let Some(filter) = &self.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Warm-up (excluded from stats).
        std::hint::black_box(f());
        let mut times: Vec<Duration> = Vec::new();
        let started = Instant::now();
        while times.len() < 3 || (started.elapsed() < self.budget && times.len() < 1000) {
            let t = Instant::now();
            std::hint::black_box(f());
            times.push(t.elapsed());
        }
        let min = times.iter().min().unwrap();
        let max = times.iter().max().unwrap();
        let mean = times.iter().sum::<Duration>() / times.len() as u32;
        println!(
            "{full:<40} {:>5} iters  min {:>12?}  mean {:>12?}  max {:>12?}",
            times.len(),
            min,
            mean,
            max
        );
    }
}

fn medium_die() -> Netlist {
    let spec = itc99::circuit("b12").expect("known");
    itc99::generate_die(&spec.dies[1])
}

fn placed(die: &Netlist) -> Placement {
    place(die, &PlaceConfig::default(), 1)
}

fn bench_netlist(h: &Harness) {
    let spec = itc99::circuit("b12").expect("known");
    h.bench("netlist", "generate_b12_die1", || {
        itc99::generate_die(&spec.dies[1])
    });
    let die = medium_die();
    h.bench("netlist", "topological_order", || {
        traverse::combinational_order(&die)
    });
}

fn bench_partition(h: &Harness) {
    let flat = itc99::generate_flat("bench", 1500, 120, 16, 16, 3);
    let spec = PartitionSpec::new(4);
    h.bench("partition", "fm_4way_1500", || {
        fm::partition(&flat, &spec, 7)
    });
    h.bench("partition", "level_4way_1500", || {
        level::partition(&flat, &spec)
    });
    h.bench("partition", "random_4way_1500", || {
        rpart::partition(&flat, &spec, 7)
    });
}

fn bench_placement(h: &Harness) {
    let die = medium_die();
    let config = PlaceConfig::default();
    h.bench("placement", "anneal_b12_die1", || {
        let mut p = grid::initial(&die, &config);
        anneal::refine(&die, &mut p, &config, 1);
        p
    });
}

fn bench_sta(h: &Harness) {
    let die = medium_die();
    let placement = placed(&die);
    let lib = Library::nangate45_like();
    h.bench("sta", "analyze_b12_die1", || {
        analyze(&die, &placement, &lib, &StaConfig::relaxed())
    });
}

fn bench_atpg(h: &Harness) {
    let die = medium_die();
    let access = TestAccess::full_scan(&die);
    let list = FaultList::collapsed(&die);
    let mut fs = FaultSimulator::new(&die);
    let patterns: Vec<Pattern> = (0..64)
        .map(|i| Pattern {
            bits: (0..access.width()).map(|k| (i + k) % 3 == 0).collect(),
        })
        .collect();
    let alive = vec![true; list.len()];
    h.bench("atpg", "faultsim_64_patterns", || {
        fs.simulate_batch(&die, &access, &patterns, &list.faults, &alive)
            .unwrap()
            .iter()
            .fold(0u64, |acc, &m| acc ^ m)
    });
    h.bench("atpg", "stuck_at_atpg_fast", || {
        run_stuck_at(&die, &access, &AtpgConfig::fast())
    });
}

fn bench_wcm(h: &Harness) {
    let die = medium_die();
    let placement = placed(&die);
    let lib = Library::nangate45_like();
    let report = analyze(&die, &placement, &lib, &StaConfig::relaxed());
    let probe = StructuralProbe::default();
    let th = Thresholds::area_optimized(&lib);
    let ffs = die.flip_flops();
    let tsvs = die.inbound_tsvs();

    // Ablation: the paper's accurate timing model vs Agrawal's
    // capacitance-only model, at graph-construction time.
    for (label, include_wire) in [("graph_accurate", true), ("graph_cap_only", false)] {
        let model = TimingModel::new(&die, &placement, &lib, &report, &report, include_wire);
        h.bench("wcm", label, || {
            graph::build(&model, &th, &probe, &ffs, &tsvs, ReuseKind::Inbound)
        });
    }

    let model = TimingModel::new(&die, &placement, &lib, &report, &report, true);
    let built = graph::build(&model, &th, &probe, &ffs, &tsvs, ReuseKind::Inbound);
    h.bench("wcm", "clique_partition", || {
        clique::partition(&built, &model, &th, MergePolicy::Accurate)
    });
}

fn bench_flow(h: &Harness) {
    let die = medium_die();
    let placement = placed(&die);
    let lib = Library::nangate45_like();
    for method in [Method::Ours, Method::Agrawal, Method::Li, Method::Naive] {
        let name = format!("area_{}", method.label());
        // bench() takes &str; the leaked label is tiny and lives once.
        let name: &str = Box::leak(name.into_boxed_str());
        h.bench("flow", name, || {
            run_flow(&die, &placement, &lib, &FlowConfig::area_optimized(method))
                .expect("flow runs")
        });
    }
}

fn bench_obs(h: &Harness) {
    // With the sink off and recording off, a span + counter pair must cost
    // nanoseconds — this is the "instrumentation can stay on in release
    // builds" contract.
    assert!(
        !obs::is_active(),
        "obs must be disabled for the overhead bench (unset PREBOND3D_OBS)"
    );
    h.bench("obs", "disabled_span_and_count_x1000", || {
        for _ in 0..1000 {
            let _g = obs::span("bench_probe");
            obs::count("bench.counter", 1);
        }
    });
}

fn main() {
    let h = Harness::from_args();
    bench_netlist(&h);
    bench_partition(&h);
    bench_placement(&h);
    bench_sta(&h);
    bench_atpg(&h);
    bench_wcm(&h);
    bench_flow(&h);
    bench_obs(&h);
}
