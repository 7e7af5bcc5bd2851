//! The batch workloads and the interface every workload implements.
//!
//! A workload is set up once per repetition (its inputs made from the seed),
//! then runs identical *passes* until the run's time is used up. Every pass
//! does the same work, so pass times and per-operation times can be
//! reported as medians.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use prebond3d_atpg::engine::{run_stuck_at, run_transition, AtpgConfig, AtpgResult};
use prebond3d_atpg::faultsim::FaultSimulator;
use prebond3d_atpg::{FaultList, Pattern, TestAccess};
use prebond3d_celllib::Library;
use prebond3d_dft::{prebond_access, WrapPlan, WrapperSource};
use prebond3d_netlist::{itc99, Netlist};
use prebond3d_place::{place, PlaceConfig, Placement};
use prebond3d_resilience::{fnv1a, fnv1a_more};
use prebond3d_rng::StdRng;
use prebond3d_wcm::flow::{run_flow, FlowConfig, FlowResult, Method, Scenario};

use crate::layers::Layers;
use crate::trace::Tracer;

/// What a pass may use besides the workload's own state.
pub struct Ctx<'a> {
    pub tracer: &'a Tracer,
    /// The pass span, parent of every layer-call span.
    pub parent: Option<usize>,
    pub pass: usize,
}

/// The outcome of one pass.
#[derive(Default)]
pub struct Pass {
    /// Wall time of each operation (a Table IV cell, a flow call, a
    /// fault-simulation window, a serve job), in milliseconds.
    pub ops_ms: Vec<f64>,
    /// One line per failed check, flow error, panic or non-zero job code.
    pub failures: Vec<String>,
    /// FNV over every plan and ATPG result the pass produced.
    pub fingerprint: u64,
    /// Additional wrapper cells summed over the pass's Ours flows.
    pub wrapper_cells: u64,
}

pub trait Workload {
    /// Run one pass; `layers` is `Some` on traced passes.
    fn pass(&mut self, ctx: &Ctx<'_>, layers: Option<&mut Layers>) -> Pass;

    /// Operations that run at once (for the share of a pass spent in
    /// layer calls).
    fn concurrency(&self) -> usize {
        1
    }

    /// Per-layer values the workload only knows at the end of the run.
    fn finish(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Set-up time spent in the generator and the placer.
#[derive(Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub place_s: f64,
}

/// One generated and placed die.
pub struct Die {
    pub label: String,
    pub netlist: Netlist,
    pub placement: Placement,
}

/// Generate and place `circuit`'s die `index`, with the harness's placement
/// effort scaling.
pub fn load_die(circuit: &str, index: usize, place_seed: u64, times: &mut SetupTimes) -> Die {
    let spec = itc99::circuit(circuit).expect("workload names known circuits");
    let t = Instant::now();
    let netlist = itc99::generate_die(&spec.dies[index]);
    times.generate_s += t.elapsed().as_secs_f64();
    let moves = match netlist.len() {
        n if n > 20_000 => 4,
        n if n > 5_000 => 10,
        _ => 24,
    };
    let config = PlaceConfig {
        moves_per_cell: moves,
        ..PlaceConfig::default()
    };
    let t = Instant::now();
    let placement = place(&netlist, &config, place_seed);
    times.place_s += t.elapsed().as_secs_f64();
    Die {
        label: format!("{circuit} Die{index}"),
        netlist,
        placement,
    }
}

/// Fold a wrapper plan into a fingerprint.
fn fp_plan(mut h: u64, plan: &WrapPlan) -> u64 {
    for a in &plan.assignments {
        let ff = match a.source {
            WrapperSource::ReusedScanFf(ff) => u64::from(ff.0),
            WrapperSource::Dedicated => u64::MAX,
        };
        h = fnv1a_more(h, &ff.to_le_bytes());
        for t in &a.inbound {
            h = fnv1a_more(h, &t.0.to_le_bytes());
        }
        h = fnv1a_more(h, b"|");
        for t in &a.outbound {
            h = fnv1a_more(h, &t.0.to_le_bytes());
        }
    }
    h
}

/// Fold an ATPG result (pattern bits and fault accounting) into a
/// fingerprint.
fn fp_atpg(mut h: u64, r: &AtpgResult) -> u64 {
    for p in &r.patterns {
        let bytes: Vec<u8> = p
            .bits
            .chunks(8)
            .map(|c| c.iter().fold(0u8, |b, &bit| (b << 1) | u8::from(bit)))
            .collect();
        h = fnv1a_more(h, &bytes);
    }
    for n in [r.total_faults, r.detected, r.untestable, r.aborted] {
        h = fnv1a_more(h, &(n as u64).to_le_bytes());
    }
    h
}

/// Run `op` with panic isolation, recording a panic as a failure.
fn guarded<T>(label: &str, failures: &mut Vec<String>, op: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(v) => Some(v),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            failures.push(format!("{label}: panic: {msg}"));
            None
        }
    }
}

/// Run the flow and check its output: a valid plan, and no timing
/// violation from the timing-aware method under tight timing.
fn checked_flow(
    ctx: &Ctx<'_>,
    die: &Die,
    library: &Library,
    config: &FlowConfig,
    failures: &mut Vec<String>,
) -> Option<FlowResult> {
    let label = format!("{} {:?}/{:?}", die.label, config.method, config.scenario);
    let result = guarded(&label, failures, || {
        let _s = ctx.tracer.span("core.run_flow", &label, ctx.parent, 0);
        run_flow(&die.netlist, &die.placement, library, config)
    })?;
    match result {
        Err(e) => {
            failures.push(format!("{label}: flow error: {e}"));
            None
        }
        Ok(r) => {
            if let Err(e) = r.plan.validate(&die.netlist) {
                failures.push(format!("{label}: invalid plan: {e}"));
            }
            if config.method == Method::Ours
                && config.scenario == Scenario::Tight
                && r.timing_violation
            {
                failures.push(format!("{label}: timing violation"));
            }
            Some(r)
        }
    }
}

fn check_atpg(label: &str, r: &AtpgResult, failures: &mut Vec<String>) {
    if r.detected > r.total_faults || r.untestable + r.aborted > r.total_faults {
        failures.push(format!(
            "{label}: inconsistent accounting {}/{} detected, {} untestable, {} aborted",
            r.detected, r.total_faults, r.untestable, r.aborted
        ));
    }
}

/// Table IV cells: flow under tight timing, then stuck-at and transition
/// ATPG on the testable die, for Agrawal's method and ours.
pub struct Table4 {
    dies: Vec<Die>,
    atpg: AtpgConfig,
    library: Library,
}

impl Table4 {
    pub fn setup(seed: u64, smoke: bool, times: &mut SetupTimes) -> Table4 {
        let cells: &[(&str, usize)] = if smoke {
            &[("b11", 0)]
        } else {
            &[("b11", 0), ("b11", 3), ("b12", 3)]
        };
        // The seed moves only the ATPG stream here: on three small dies the
        // wrapper-cell count swings by ~9 % with the placement seed, more
        // than a useful bound on it.
        Table4 {
            dies: cells
                .iter()
                .map(|&(c, i)| load_die(c, i, 1, times))
                .collect(),
            // Seed 1 is the experiment harness's ATPG seed, 0xA79C.
            atpg: AtpgConfig {
                seed: AtpgConfig::fast().seed.wrapping_add(seed.wrapping_sub(1)),
                ..AtpgConfig::fast()
            },
            library: Library::nangate45_like(),
        }
    }
}

impl Workload for Table4 {
    fn pass(&mut self, ctx: &Ctx<'_>, mut layers: Option<&mut Layers>) -> Pass {
        let mut out = Pass {
            fingerprint: fnv1a(b"table4_small"),
            ..Pass::default()
        };
        for die in &self.dies {
            for method in [Method::Agrawal, Method::Ours] {
                let label = format!("{} {method:?}", die.label);
                let t = Instant::now();
                let config = FlowConfig::performance_optimized(method);
                let Some(flow) = checked_flow(ctx, die, &self.library, &config, &mut out.failures)
                else {
                    continue;
                };
                let testable = &flow.testable.netlist;
                let results = guarded(&label, &mut out.failures, || {
                    let access = {
                        let _s = ctx.tracer.span("dft.prebond_access", &label, ctx.parent, 0);
                        prebond_access(&flow.testable)
                    };
                    let sa = {
                        let _s = ctx.tracer.span("atpg.run_stuck_at", &label, ctx.parent, 0);
                        run_stuck_at(testable, &access, &self.atpg)
                    };
                    let tr = {
                        let _s = ctx
                            .tracer
                            .span("atpg.run_transition", &label, ctx.parent, 0);
                        run_transition(testable, &access, &self.atpg)
                    };
                    (sa, tr)
                });
                out.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.fingerprint = fp_plan(out.fingerprint, &flow.plan);
                if method == Method::Ours {
                    out.wrapper_cells += flow.additional_wrapper_cells as u64;
                }
                let Some((sa, tr)) = results else { continue };
                for r in [&sa, &tr] {
                    check_atpg(&label, r, &mut out.failures);
                    out.fingerprint = fp_atpg(out.fingerprint, r);
                    if let Some(l) = layers.as_deref_mut() {
                        l.add("aborted", r.aborted as f64);
                        l.add("coverage_pct", 100.0 * r.test_coverage());
                        l.add("coverage_n", 1.0);
                        l.add("test_patterns", r.pattern_count() as f64);
                    }
                }
            }
        }
        out
    }
}

/// Table III cells: the flow alone, {Agrawal, Ours} × {area, tight}.
pub struct Table3 {
    dies: Vec<Die>,
    library: Library,
}

impl Table3 {
    pub fn setup(seed: u64, smoke: bool, times: &mut SetupTimes) -> Table3 {
        let circuits: &[&str] = if smoke {
            &["b11"]
        } else {
            &["b20", "b21", "b22"]
        };
        let dies = circuits
            .iter()
            .flat_map(|c| [0, 3].map(|i| (*c, i)))
            .map(|(c, i)| load_die(c, i, seed, times))
            .collect();
        Table3 {
            dies,
            library: Library::nangate45_like(),
        }
    }
}

impl Workload for Table3 {
    fn pass(&mut self, ctx: &Ctx<'_>, _layers: Option<&mut Layers>) -> Pass {
        let mut out = Pass {
            fingerprint: fnv1a(b"table3_mid"),
            ..Pass::default()
        };
        for die in &self.dies {
            for method in [Method::Agrawal, Method::Ours] {
                for scenario in [Scenario::Area, Scenario::Tight] {
                    let config = FlowConfig {
                        method,
                        scenario,
                        ordering: None,
                        allow_overlap: None,
                    };
                    let t = Instant::now();
                    let flow = checked_flow(ctx, die, &self.library, &config, &mut out.failures);
                    out.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let Some(flow) = flow else { continue };
                    out.fingerprint = fp_plan(out.fingerprint, &flow.plan);
                    out.fingerprint =
                        fnv1a_more(out.fingerprint, &[u8::from(flow.timing_violation)]);
                    if method == Method::Ours {
                        out.wrapper_cells += flow.additional_wrapper_cells as u64;
                    }
                }
            }
        }
        out
    }
}

/// One die prepared for grading: its testable netlist, access, collapsed
/// stuck-at universe and the seeded grading patterns.
struct GradeDie {
    label: String,
    netlist: Netlist,
    access: TestAccess,
    faults: FaultList,
    windows: Vec<Vec<Pattern>>,
}

/// Fault grading of seeded random patterns on large testable dies, in
/// 512-pattern windows with fault dropping.
pub struct FaultsimGrade {
    dies: Vec<GradeDie>,
    wrapper_cells: u64,
}

/// Patterns per fault-simulation call (the widest lane bundle).
const WINDOW: usize = 512;

impl FaultsimGrade {
    pub fn setup(seed: u64, smoke: bool, times: &mut SetupTimes) -> FaultsimGrade {
        let circuits: &[&str] = if smoke {
            &["b11"]
        } else {
            &["b20", "b21", "b22"]
        };
        let library = Library::nangate45_like();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut wrapper_cells = 0;
        let dies = circuits
            .iter()
            .map(|c| {
                let die = load_die(c, 1, seed, times);
                let flow = run_flow(
                    &die.netlist,
                    &die.placement,
                    &library,
                    &FlowConfig::performance_optimized(Method::Ours),
                )
                .expect("the Ours flow runs on every benchmark die");
                wrapper_cells += flow.additional_wrapper_cells as u64;
                let access = prebond_access(&flow.testable);
                let faults = FaultList::collapsed(&flow.testable.netlist);
                let windows = (0..2)
                    .map(|_| {
                        (0..WINDOW)
                            .map(|_| random_pattern(&mut rng, &access))
                            .collect()
                    })
                    .collect();
                GradeDie {
                    label: die.label,
                    netlist: flow.testable.netlist,
                    access,
                    faults,
                    windows,
                }
            })
            .collect();
        FaultsimGrade {
            dies,
            wrapper_cells,
        }
    }
}

fn random_pattern(rng: &mut StdRng, access: &TestAccess) -> Pattern {
    let mut bits: Vec<bool> = (0..access.width()).map(|_| rng.gen()).collect();
    for &(node, v) in access.pinned() {
        bits[access
            .rank_of(node)
            .expect("pinned sources are controllable")] = v;
    }
    Pattern { bits }
}

impl Workload for FaultsimGrade {
    fn pass(&mut self, ctx: &Ctx<'_>, mut layers: Option<&mut Layers>) -> Pass {
        let mut out = Pass {
            fingerprint: fnv1a(b"faultsim_grade"),
            wrapper_cells: self.wrapper_cells,
            ..Pass::default()
        };
        for die in &self.dies {
            let mut sim = FaultSimulator::new(&die.netlist);
            let mut alive = vec![true; die.faults.len()];
            for (w, window) in die.windows.iter().enumerate() {
                let label = format!("{} window {w}", die.label);
                let t = Instant::now();
                let result = {
                    let _s = ctx
                        .tracer
                        .span("atpg.simulate_batch_any_wide", &label, ctx.parent, 0);
                    sim.simulate_batch_any_wide(
                        &die.netlist,
                        &die.access,
                        window,
                        &die.faults.faults,
                        &alive,
                    )
                };
                match result {
                    Ok((width, masks)) => {
                        for (f, a) in alive.iter_mut().enumerate() {
                            if *a && masks[f * width..(f + 1) * width].iter().any(|&m| m != 0) {
                                *a = false;
                            }
                        }
                    }
                    Err(e) => out.failures.push(format!("{label}: {e}")),
                }
                out.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let detected = alive.iter().filter(|&&a| !a).count();
            let mask: Vec<u8> = alive.iter().map(|&a| u8::from(a)).collect();
            out.fingerprint = fnv1a_more(out.fingerprint, &mask);
            if detected == 0 || detected > die.faults.len() {
                out.failures.push(format!(
                    "{}: graded {detected} of {} faults",
                    die.label,
                    die.faults.len()
                ));
            }
            if let Some(l) = layers.as_deref_mut() {
                l.add(
                    "coverage_pct",
                    100.0 * detected as f64 / die.faults.len() as f64,
                );
                l.add("coverage_n", 1.0);
            }
        }
        out
    }
}
