//! The full design flow (the paper's Fig. 6).
//!
//! ```text
//! netlist → TSV analysis (ordering) → graph construction (Alg. 1)
//!        → clique partitioning (Alg. 2) → testable netlist (DFT insert)
//!        → ATPG check / STA check
//! ```
//!
//! [`run_flow`] executes the flow for the paper's method and for the
//! prior-art baselines ([`Method`]), under the paper's two evaluation
//! scenarios ([`Scenario`]). It returns the wrapper plan, per-phase graph
//! statistics, the materialized testable die and the post-insertion STA
//! verdict — everything the experiment harness needs for Tables I/III/IV/V
//! and Fig. 7.

use prebond3d_celllib::{Distance, Library, Time};
use prebond3d_dft::{testable, TestableDie, WrapAssignment, WrapPlan, WrapperSource};
use prebond3d_netlist::{ConeSet, GateId, Netlist};
use prebond3d_obs as obs;
use prebond3d_place::Placement;
use prebond3d_sta::{analyze, StaConfig};

use crate::baseline;
use crate::clique::{self, MergePolicy};
use crate::graph;
use crate::ordering::OrderingPolicy;
use crate::testability::StructuralProbe;
use crate::thresholds::Thresholds;
use crate::timing_model::{ReuseKind, TimingModel};

/// A typed flow failure.
///
/// Replaces the old `Box<dyn Error>` so drivers and the panic-isolation
/// recovery in the bench harness can map causes to exit codes and report
/// entries without matching on error strings.
#[derive(Debug)]
pub enum FlowError {
    /// DFT insertion rejected the wrapper plan (a bug in the produced
    /// plan, surfaced rather than panicked on). `stage` names the flow
    /// step that applied the plan.
    Dft {
        /// Flow step (`baseline_dft`, `dft_insert`, `calibrate`).
        stage: &'static str,
        /// The underlying plan-validation message.
        message: String,
    },
    /// A flow that promises timing closure (Ours under tight timing)
    /// left negative or NaN post-insertion worst slack (constructed by
    /// the bench harness, not by `run_flow` itself).
    SlackContract {
        /// The experiment cell label.
        label: String,
        /// The post-insertion worst slack.
        wns: Time,
        /// The scenario clock period.
        clock_period: Time,
    },
    /// A report or checkpoint write failed; the path names the file.
    Io {
        /// The file being written.
        path: std::path::PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The ATPG pattern-batch machinery rejected a malformed batch
    /// (oversized for its lane bundle, or width-mismatched patterns).
    /// Carries the typed `SimError` so callers degrade instead of
    /// tripping the panic-isolation path.
    Sim {
        /// The underlying batch-formation error.
        source: prebond3d_atpg::SimError,
    },
}

impl FlowError {
    /// The process exit code a driver should map this cause to. Distinct
    /// from `0` (success), `2` (bad circuit selection) and `3` (partial
    /// failure: some units failed but the sweep completed).
    pub fn exit_code(&self) -> i32 {
        match self {
            FlowError::Dft { .. } => 4,
            FlowError::SlackContract { .. } => 1,
            FlowError::Io { .. } => 4,
            FlowError::Sim { .. } => 4,
        }
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Dft { stage, message } => {
                write!(f, "DFT insertion failed during {stage}: {message}")
            }
            FlowError::SlackContract {
                label,
                wns,
                clock_period,
            } => write!(
                f,
                "slack contract broken after flow `{label}`: post-insertion worst slack is \
                 {:.2} ps at a {:.0} ps clock",
                wns.0, clock_period.0
            ),
            FlowError::Io { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
            FlowError::Sim { source } => {
                write!(f, "fault-simulation batch rejected: {source}")
            }
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Io { source, .. } => Some(source),
            FlowError::Sim { source } => Some(source),
            _ => None,
        }
    }
}

impl From<prebond3d_atpg::SimError> for FlowError {
    fn from(source: prebond3d_atpg::SimError) -> Self {
        FlowError::Sim { source }
    }
}

/// Which algorithm produces the wrapper plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's method: larger-set-first ordering, accurate timing
    /// model, overlapped-cone sharing under testability constraints.
    Ours,
    /// Agrawal et al. (TCAD 2015): clique partitioning with a
    /// capacitance-only model, inbound-first, no overlapped sharing.
    Agrawal,
    /// Li & Xiang (ICCD 2010): each scan flip-flop reused at most once,
    /// for at most one TSV, cones disjoint.
    Li,
    /// Marinissen-style baseline: a dedicated wrapper cell on every TSV.
    Naive,
}

impl Method {
    /// Display label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Method::Ours => "Ours",
            Method::Agrawal => "Agrawal",
            Method::Li => "Li",
            Method::Naive => "Naive",
        }
    }
}

/// The paper's two evaluation scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// "No timing constraint at all" (area-optimized).
    Area,
    /// Tight timing: clock calibrated just above the wrapped critical
    /// path (performance-optimized).
    Tight,
}

/// Flow configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// The algorithm to run.
    pub method: Method,
    /// The timing scenario.
    pub scenario: Scenario,
    /// Force a TSV-set ordering (defaults to the method's own policy).
    pub ordering: Option<OrderingPolicy>,
    /// Force overlapped-cone sharing on/off (defaults to the method's
    /// policy; used by the Table V / Fig. 7 ablation).
    pub allow_overlap: Option<bool>,
}

impl FlowConfig {
    /// Area-optimized scenario defaults.
    pub fn area_optimized(method: Method) -> Self {
        FlowConfig {
            method,
            scenario: Scenario::Area,
            ordering: None,
            allow_overlap: None,
        }
    }

    /// Performance-optimized (tight-timing) scenario defaults.
    pub fn performance_optimized(method: Method) -> Self {
        FlowConfig {
            method,
            scenario: Scenario::Tight,
            ordering: None,
            allow_overlap: None,
        }
    }
}

/// Per-phase graph statistics (feeds Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Phase direction.
    pub direction: ReuseKind,
    /// Node count (available FFs + eligible TSVs).
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Edges admitted via overlapped-cone sharing.
    pub overlap_edges: usize,
}

/// The outcome of one flow run.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The wrapper plan.
    pub plan: WrapPlan,
    /// Scan flip-flops reused as wrapper cells.
    pub reused_scan_ffs: usize,
    /// Additional (dedicated) wrapper cells inserted.
    pub additional_wrapper_cells: usize,
    /// Per-phase graph statistics (empty for Li/Naive).
    pub phases: Vec<PhaseStats>,
    /// The DFT-inserted die.
    pub testable: TestableDie,
    /// Placement extended over the testable die.
    pub placement: Placement,
    /// Post-insertion worst slack at the scenario clock.
    pub wns_after: Time,
    /// `true` when the testable die misses the scenario clock.
    pub timing_violation: bool,
    /// The clock period the scenario used.
    pub clock_period: Time,
}

/// Calibrate the tight-timing clock: the die wrapped with all-dedicated
/// cells (the minimum hardware any method must insert) must just meet
/// timing, with a 0.5 % guard band. Reuse decisions that add long wires or
/// deep XOR chains then stand out as violations.
pub fn calibrate_tight_period(
    die: &Netlist,
    placement: &Placement,
    library: &Library,
) -> Result<Time, FlowError> {
    let plan = WrapPlan::all_dedicated(die);
    let wrapped = testable::apply(die, &plan).map_err(|e| FlowError::Dft {
        stage: "calibrate",
        message: e.to_string(),
    })?;
    let p = wrapped.placement_for(placement);
    Ok(tight_period(&wrapped, &p, library))
}

/// [`calibrate_tight_period`] on an already-built all-dedicated die and
/// its extended placement.
fn tight_period(dedicated: &TestableDie, placement: &Placement, library: &Library) -> Time {
    let relaxed = StaConfig::relaxed();
    let report = prebond3d_sta::analysis::analyze_with_statics(
        &dedicated.netlist,
        placement,
        library,
        &relaxed,
        &[dedicated.test_en],
    );
    let critical = relaxed.clock_period - report.wns;
    critical * 1.005
}

/// The thresholds a flow runs with: the scenario's set, with overlapped
/// cones off unless the method (or the ablation) allows them, and the
/// slack and distance bounds lifted for the timing-blind baselines.
/// `scale` is the placement's [`Placement::scale`].
fn flow_thresholds(config: &FlowConfig, library: &Library, scale: Distance) -> Thresholds {
    let mut thresholds = match config.scenario {
        Scenario::Area => Thresholds::area_optimized(library),
        Scenario::Tight => {
            // d_th: a fifth of the die half-perimeter. s_th stays at zero:
            // the calibrated clock already absorbs the dedicated-wrapper
            // overhead, so any reuse whose *additional* penalty fits the
            // remaining slack is safe.
            let d_th = Distance(scale.0 * 0.4);
            let mut th = Thresholds::performance_optimized(library, d_th);
            // A small positive slack floor absorbs the model's wire/anchor
            // approximations (the paper's s_th is likewise user-tuned).
            th.s_th = Time(5.0);
            th
        }
    };
    let allow_overlap = config
        .allow_overlap
        .unwrap_or(matches!(config.method, Method::Ours));
    if !allow_overlap {
        thresholds = thresholds.without_overlap();
    }
    if matches!(config.method, Method::Agrawal | Method::Li) {
        // The prior-art models know only pin capacitance: they have no
        // slack or distance information to constrain themselves with, even
        // when the scenario is timing-critical — that blindness is what
        // Table III's violation column exposes.
        thresholds.s_th = Time(f64::NEG_INFINITY);
        thresholds.d_th = Distance(f64::INFINITY);
    }
    thresholds
}

/// Execute the flow.
///
/// # Errors
///
/// Propagates DFT-insertion and netlist validation failures (a bug in the
/// produced plan, surfaced rather than panicked on).
pub fn run_flow(
    die: &Netlist,
    placement: &Placement,
    library: &Library,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    run_flow_with_probe(die, placement, library, config, &StructuralProbe::default())
}

/// [`run_flow`] with an explicit testability probe.
///
/// The default flow prices cone sharing with the structural estimator; a
/// caller that keeps a warm [`crate::testability::AtpgProbe`] across runs
/// (the serve daemon) injects it here so its memo tables survive and pay
/// off on repeat jobs.
///
/// # Errors
///
/// Same contract as [`run_flow`].
pub fn run_flow_with_probe(
    die: &Netlist,
    placement: &Placement,
    library: &Library,
    config: &FlowConfig,
    probe: &dyn crate::testability::TestabilityProbe,
) -> Result<FlowResult, FlowError> {
    let _flow_span = obs::span("flow");

    // --- Baseline hardware: the all-dedicated wrapped die ----------------
    // Every method must insert at least this hardware; the timing model
    // prices reuse decisions against it, and the tight clock is calibrated
    // on it.
    let (dedicated, dedicated_placement) = {
        let _s = obs::span("baseline_dft");
        let dedicated =
            testable::apply(die, &WrapPlan::all_dedicated(die)).map_err(|e| FlowError::Dft {
                stage: "baseline_dft",
                message: e.to_string(),
            })?;
        let dedicated_placement = dedicated.placement_for(placement);
        (dedicated, dedicated_placement)
    };

    // --- Scenario: clock + thresholds -----------------------------------
    let clock = match config.scenario {
        Scenario::Area => StaConfig::relaxed().clock_period,
        Scenario::Tight => {
            let _s = obs::span("calibrate");
            tight_period(&dedicated, &dedicated_placement, library)
        }
    };
    let sta = StaConfig::with_period(clock);
    let (baseline_report, fanout_report) = {
        let _s = obs::span("baseline_sta");
        let baseline_report = prebond3d_sta::analysis::analyze_with_statics(
            &dedicated.netlist,
            &dedicated_placement,
            library,
            &sta,
            &[dedicated.test_en],
        );
        let fanout_report = analyze(die, placement, library, &sta);
        (baseline_report, fanout_report)
    };

    let thresholds = flow_thresholds(config, library, placement.scale());

    // --- Method wiring ----------------------------------------------------
    let (include_wire, merge_policy, default_ordering) = match config.method {
        Method::Ours => (true, MergePolicy::Accurate, OrderingPolicy::LargerFirst),
        Method::Agrawal => (
            false,
            MergePolicy::CapacitanceOnly,
            OrderingPolicy::InboundFirst,
        ),
        Method::Li | Method::Naive => (
            false,
            MergePolicy::CapacitanceOnly,
            OrderingPolicy::InboundFirst,
        ),
    };
    let ordering = config.ordering.unwrap_or(default_ordering);
    // TSV → dedicated wrapper cell in the baseline netlist, so the model
    // can read test-path slacks at the right launch points.
    let dedicated_plan = WrapPlan::all_dedicated(die);
    let mut wrapper_of = std::collections::HashMap::new();
    for (assignment, &cell) in dedicated_plan
        .assignments
        .iter()
        .zip(dedicated.cells.iter())
    {
        for &t in assignment.inbound.iter().chain(assignment.outbound.iter()) {
            wrapper_of.insert(t, cell);
        }
    }
    let model = {
        let _s = obs::span("timing_model");
        TimingModel::new(
            die,
            placement,
            library,
            &baseline_report,
            &fanout_report,
            include_wire,
        )
        .with_wrapper_map(wrapper_of)
    };

    // --- Plan construction --------------------------------------------------
    let _plan_span = obs::span("plan");
    let (plan, phases) = match config.method {
        Method::Naive => (WrapPlan::all_dedicated(die), Vec::new()),
        Method::Li => (baseline::li::plan(&model, &thresholds), Vec::new()),
        Method::Ours | Method::Agrawal => {
            // One cone set serves every graph build of the flow: both
            // phases, and the strict re-solve below.
            let cones = graph::flow_cones(die);
            let solve = |thresholds: &Thresholds| {
                clique_flow(
                    die,
                    &model,
                    thresholds,
                    &cones,
                    merge_policy,
                    ordering,
                    probe,
                )
            };
            let (plan, phases) = solve(&thresholds);
            // Overlapped-cone expansion is an *offer*, not a commitment:
            // the greedy partitioner is not monotone in edge count (extra
            // edges can also deplete flip-flops early and starve the
            // second phase), so solve the restricted problem too and keep
            // the globally better plan.
            if thresholds.allows_overlap() && phases.iter().any(|p| p.overlap_edges > 0) {
                let strict = thresholds.without_overlap();
                let (plan2, phases2) = solve(&strict);
                let better = (
                    plan2.additional_wrapper_cells(),
                    std::cmp::Reverse(plan2.reused_scan_ffs()),
                ) < (
                    plan.additional_wrapper_cells(),
                    std::cmp::Reverse(plan.reused_scan_ffs()),
                );
                if better {
                    // Keep the expanded graph's statistics for Fig. 7 but
                    // the restricted plan's hardware.
                    (plan2, phases)
                } else {
                    let _ = phases2;
                    (plan, phases)
                }
            } else {
                (plan, phases)
            }
        }
    };

    drop(_plan_span);

    // --- DFT insertion + post-insertion STA ---------------------------------
    let reused = plan.reused_scan_ffs();
    let additional = plan.additional_wrapper_cells();
    obs::gauge("flow.reused_scan_ffs", reused as u64);
    obs::gauge("flow.additional_wrapper_cells", additional as u64);
    let (testable_die, testable_placement) = {
        let _s = obs::span("dft_insert");
        let testable_die = testable::apply(die, &plan).map_err(|e| FlowError::Dft {
            stage: "dft_insert",
            message: e.to_string(),
        })?;
        let testable_placement = testable_die.placement_for(placement);
        (testable_die, testable_placement)
    };
    let post = {
        let _s = obs::span("post_sta");
        prebond3d_sta::analysis::analyze_with_statics(
            &testable_die.netlist,
            &testable_placement,
            library,
            &sta,
            &[testable_die.test_en],
        )
    };

    Ok(FlowResult {
        plan,
        reused_scan_ffs: reused,
        additional_wrapper_cells: additional,
        phases,
        testable: testable_die,
        placement: testable_placement,
        wns_after: post.wns,
        timing_violation: post.has_violation(),
        clock_period: clock,
    })
}

/// The two-phase clique flow shared by Ours and the Agrawal baseline.
fn clique_flow(
    die: &Netlist,
    model: &TimingModel<'_>,
    thresholds: &Thresholds,
    cones: &ConeSet,
    merge_policy: MergePolicy,
    ordering: OrderingPolicy,
    probe: &dyn crate::testability::TestabilityProbe,
) -> (WrapPlan, Vec<PhaseStats>) {
    let mut available: Vec<GateId> = die.flip_flops();
    let mut plan = WrapPlan::default();
    let mut phases = Vec::with_capacity(2);

    for direction in ordering.phases(die) {
        let tsvs = match direction {
            ReuseKind::Inbound => die.inbound_tsvs(),
            ReuseKind::Outbound => die.outbound_tsvs(),
        };
        let g = graph::build(
            model, thresholds, probe, cones, &available, &tsvs, direction,
        );
        let partition = clique::partition(&g, model, thresholds, merge_policy);
        phases.push(PhaseStats {
            direction,
            nodes: g.len(),
            edges: g.edge_count,
            overlap_edges: g.overlap_edges,
        });

        for c in &partition.cliques {
            if c.tsv_count() == 0 {
                continue; // an unused flip-flop
            }
            let members: Vec<GateId> = c
                .members
                .iter()
                .copied()
                .filter(|&m| Some(m) != c.ff)
                .collect();
            let (inbound, outbound) = match direction {
                ReuseKind::Inbound => (members, Vec::new()),
                ReuseKind::Outbound => (Vec::new(), members),
            };
            let source = match c.ff {
                Some(ff) => {
                    available.retain(|&f| f != ff);
                    WrapperSource::ReusedScanFf(ff)
                }
                None => WrapperSource::Dedicated,
            };
            plan.assignments.push(WrapAssignment {
                source,
                inbound,
                outbound,
            });
        }
        // TSVs that failed node eligibility: dedicated wrapper each.
        for &t in &g.ineligible_tsvs {
            let (inbound, outbound) = match direction {
                ReuseKind::Inbound => (vec![t], Vec::new()),
                ReuseKind::Outbound => (Vec::new(), vec![t]),
            };
            plan.assignments.push(WrapAssignment {
                source: WrapperSource::Dedicated,
                inbound,
                outbound,
            });
        }
    }
    (plan, phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};

    fn rig() -> (Netlist, Placement, Library) {
        let spec = itc99::circuit("b11").expect("known");
        let die = itc99::generate_die(&spec.dies[0]);
        let placement = place(&die, &PlaceConfig::default(), 1);
        (die, placement, Library::nangate45_like())
    }

    #[test]
    fn every_method_produces_a_valid_plan() {
        let (die, placement, lib) = rig();
        for method in [Method::Ours, Method::Agrawal, Method::Li, Method::Naive] {
            let config = FlowConfig::area_optimized(method);
            let result = run_flow(&die, &placement, &lib, &config).expect("flow runs");
            result.plan.validate(&die).expect("plan covers all TSVs");
            let total_tsvs = die.stats().tsvs();
            assert!(
                result.reused_scan_ffs + result.additional_wrapper_cells <= total_tsvs,
                "{method:?}"
            );
        }
    }

    #[test]
    fn ours_beats_or_matches_agrawal_on_cells() {
        let (die, placement, lib) = rig();
        let ours = run_flow(
            &die,
            &placement,
            &lib,
            &FlowConfig::area_optimized(Method::Ours),
        )
        .unwrap();
        let agrawal = run_flow(
            &die,
            &placement,
            &lib,
            &FlowConfig::area_optimized(Method::Agrawal),
        )
        .unwrap();
        assert!(
            ours.additional_wrapper_cells <= agrawal.additional_wrapper_cells,
            "ours {} vs agrawal {}",
            ours.additional_wrapper_cells,
            agrawal.additional_wrapper_cells
        );
    }

    #[test]
    fn clique_methods_beat_naive_and_li() {
        let (die, placement, lib) = rig();
        let cells = |m: Method| {
            run_flow(&die, &placement, &lib, &FlowConfig::area_optimized(m))
                .unwrap()
                .additional_wrapper_cells
        };
        let ours = cells(Method::Ours);
        let li = cells(Method::Li);
        let naive = cells(Method::Naive);
        assert_eq!(naive, die.stats().tsvs());
        assert!(li <= naive);
        assert!(ours <= li, "ours {ours} vs li {li}");
    }

    #[test]
    fn tight_scenario_ours_meets_timing() {
        let (die, placement, lib) = rig();
        let ours = run_flow(
            &die,
            &placement,
            &lib,
            &FlowConfig::performance_optimized(Method::Ours),
        )
        .unwrap();
        assert!(
            !ours.timing_violation,
            "the accurate model must not violate: wns {}",
            ours.wns_after
        );
    }

    #[test]
    fn area_scenario_never_violates() {
        let (die, placement, lib) = rig();
        for method in [Method::Ours, Method::Agrawal] {
            let r = run_flow(&die, &placement, &lib, &FlowConfig::area_optimized(method)).unwrap();
            assert!(!r.timing_violation, "{method:?}");
        }
    }

    #[test]
    fn ordering_override_is_respected() {
        let (die, placement, lib) = rig();
        let mut config = FlowConfig::area_optimized(Method::Agrawal);
        config.ordering = Some(OrderingPolicy::OutboundFirst);
        let r = run_flow(&die, &placement, &lib, &config).unwrap();
        assert_eq!(r.phases[0].direction, ReuseKind::Outbound);
    }

    /// The thresholds every flow configuration runs with are usable:
    /// `cap_th` positive, `s_th` and `d_th` not NaN (the area scenario's
    /// `s_th = −∞` and `d_th = +∞` mean "unconstrained"), `s_th` never
    /// `+∞` (it would reject every reuse), `d_th` never negative, and
    /// `cov_th` a fraction.
    #[test]
    fn flow_thresholds_are_sane_for_every_configuration() {
        let lib = Library::nangate45_like();
        for scenario in [Scenario::Area, Scenario::Tight] {
            for method in [Method::Ours, Method::Agrawal, Method::Li, Method::Naive] {
                for allow_overlap in [None, Some(false), Some(true)] {
                    let config = FlowConfig {
                        method,
                        scenario,
                        ordering: None,
                        allow_overlap,
                    };
                    let th = flow_thresholds(&config, &lib, Distance(500.0));
                    let what = format!("{method:?} {scenario:?} {allow_overlap:?}: {th:?}");
                    assert!(th.cap_th.0 > 0.0, "{what}");
                    assert!(!th.s_th.0.is_nan() && th.s_th.0 != f64::INFINITY, "{what}");
                    assert!(th.d_th.0 >= 0.0, "{what}");
                    assert!((0.0..=1.0).contains(&th.cov_th), "{what}");
                }
            }
        }
        let tight = flow_thresholds(
            &FlowConfig::performance_optimized(Method::Ours),
            &lib,
            Distance(500.0),
        );
        assert_eq!((tight.d_th.0, tight.s_th.0), (200.0, 5.0));
        assert!(tight.allows_overlap());
    }
}
