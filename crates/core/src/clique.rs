//! Algorithm 2: the heuristic clique-partitioning solver.
//!
//! All nodes start as singleton cliques. Repeatedly take the lowest-degree
//! node `n1` and its lowest-degree neighbour `n2`; if the merged clique's
//! wrapper cell would stay within its budgets, merge them (the new node
//! inherits the *common* neighbours, preserving clique-ness); otherwise
//! delete the edge. Terminates when no edges remain.
//!
//! The budget check is the paper's `cap < cap_th` guard made concrete, in
//! two fidelities:
//!
//! * [`MergePolicy::CapacitanceOnly`] (Agrawal) — only the accumulated pin
//!   capacitance on the shared cell is bounded;
//! * [`MergePolicy::Accurate`] (the paper) — additionally the *delay*
//!   consequences are bounded against the members' slack: the drive-delay
//!   growth of the shared cell's Q net plus wire delay for inbound
//!   cliques, and the XOR-chain depth plus wire delay for outbound
//!   cliques. This clique-level accumulation is what pairwise edge checks
//!   alone cannot see, and skipping it is precisely how Agrawal's method
//!   ends up violating timing in Table III.

use prebond3d_celllib::{Capacitance, Distance, Time};
use prebond3d_netlist::{BitSet, GateId, GateKind};
use prebond3d_obs as obs;

use crate::graph::{NodeKind, SharingGraph};
use crate::thresholds::Thresholds;
use crate::timing_model::{ReuseKind, TimingModel};

/// How merges are priced (the ablation lever between the paper's model and
/// Agrawal's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Capacitance + wire delay + slack accumulation (paper).
    Accurate,
    /// Capacitance only (Agrawal).
    CapacitanceOnly,
}

/// One clique of the final partition.
#[derive(Debug, Clone, PartialEq)]
pub struct Clique {
    /// Member gate ids (TSVs, plus at most one scan flip-flop).
    pub members: Vec<GateId>,
    /// The reused scan flip-flop, if the clique has one.
    pub ff: Option<GateId>,
    /// Accumulated drive load on the shared cell (inbound phases).
    pub drive_load: Capacitance,
    /// Accumulated observation-chain delay (outbound phases).
    pub capture_delay: Time,
    /// Physical anchor: the flip-flop if present, else the first TSV.
    pub anchor: GateId,
    /// Worst member slack (headroom for accumulated delays).
    pub min_slack: Time,
}

impl Clique {
    /// Number of TSVs in the clique.
    pub fn tsv_count(&self) -> usize {
        self.members.len() - usize::from(self.ff.is_some())
    }
}

/// The result of the partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct CliquePartition {
    /// Final cliques (singletons included).
    pub cliques: Vec<Clique>,
    /// Merges performed.
    pub merges: usize,
    /// Merge attempts rejected by the load/slack budget.
    pub rejected: usize,
}

impl CliquePartition {
    /// Cliques that reuse a scan flip-flop for at least one TSV.
    pub fn reused(&self) -> usize {
        self.cliques
            .iter()
            .filter(|c| c.ff.is_some() && c.tsv_count() > 0)
            .count()
    }

    /// Cliques of TSVs with no flip-flop: each needs one additional
    /// wrapper cell.
    pub fn additional(&self) -> usize {
        self.cliques
            .iter()
            .filter(|c| c.ff.is_none() && c.tsv_count() > 0)
            .count()
    }
}

/// Internal clique state during partitioning.
#[derive(Clone)]
struct State {
    members: Vec<usize>,
    ff: Option<GateId>,
    /// Pin + wire capacitance the shared cell's Q must drive.
    drive_load: Capacitance,
    /// Baseline load already absorbed by calibration (the flip-flop's
    /// pre-existing fanout, or a dedicated cell's single adjacent mux).
    base_load: Capacitance,
    /// Accumulated wire delay on the drive side (inbound).
    wire_delay: Time,
    /// Accumulated observation-chain delay (outbound).
    capture_delay: Time,
    anchor: GateId,
    /// Worst slack among TSV members (the paths the penalties land on).
    min_slack: Time,
    /// Q-side slack of the reused flip-flop (its functional fanout paths
    /// absorb the drive-delay growth); `INFINITY` when no FF.
    q_slack: Time,
}

/// Candidate score of node `j` — (carries a flip-flop, degree) — through
/// the generation-stamped cache. A cached value is valid while no merge
/// or rejection has touched `j`'s neighborhood since it was computed.
#[allow(clippy::too_many_arguments)]
fn candidate_score(
    j: usize,
    generation: u64,
    states: &[State],
    degree: &[usize],
    touch_gen: &[u64],
    score_gen: &mut [u64],
    score_val: &mut [(bool, usize)],
    rescores: &mut u64,
) -> (bool, usize) {
    if score_gen[j] >= touch_gen[j] {
        debug_assert_eq!(
            score_val[j],
            (states[j].ff.is_some(), degree[j]),
            "stale candidate score for node {j}"
        );
        return score_val[j];
    }
    *rescores += 1;
    let s = (states[j].ff.is_some(), degree[j]);
    score_val[j] = s;
    score_gen[j] = generation;
    s
}

/// Combine two clique states across a wire of length `dist`.
fn merge_states(
    a: &State,
    b: &State,
    dist: Distance,
    include_wire: bool,
    model: &TimingModel<'_>,
) -> State {
    let library = model.library();
    let reuse = library.reuse();
    let wire_cap = if include_wire {
        library.wire().driver_load(dist)
    } else {
        Capacitance::ZERO
    };
    let wire_delay_step = if include_wire {
        library.wire().elmore_delay(dist, reuse.mux_input_cap)
    } else {
        Time(0.0)
    };
    let xor_step = model.chain_stage_delay(dist);
    let (base_load, q_slack, anchor, ff) = if a.ff.is_some() {
        (a.base_load, a.q_slack, a.anchor, a.ff)
    } else if b.ff.is_some() {
        (b.base_load, b.q_slack, b.anchor, b.ff)
    } else {
        (a.base_load, a.q_slack.min(b.q_slack), a.anchor, None)
    };
    State {
        members: a.members.iter().chain(b.members.iter()).copied().collect(),
        ff,
        // The shared cell's load accumulates pins plus (accurate model)
        // buffered wire segments — the same charges the signoff STA makes.
        drive_load: a.drive_load + b.drive_load + wire_cap,
        base_load,
        wire_delay: a.wire_delay.max(b.wire_delay) + wire_delay_step,
        capture_delay: a.capture_delay.max(b.capture_delay) + xor_step,
        anchor,
        min_slack: a.min_slack.min(b.min_slack),
        q_slack,
    }
}

/// Merge `a` and `b` if the merged wrapper cell stays within its budgets
/// (`cap < cap_th`, plus the accurate model's delay accumulation);
/// `None` when the merge is rejected.
fn try_merge(
    a: &State,
    b: &State,
    direction: ReuseKind,
    policy: MergePolicy,
    model: &TimingModel<'_>,
    thresholds: &Thresholds,
) -> Option<State> {
    let include_wire = policy == MergePolicy::Accurate;
    let dist = if include_wire {
        model.distance(a.anchor, b.anchor)
    } else {
        Distance(0.0)
    };
    let merged = merge_states(a, b, dist, include_wire, model);
    let feasible = match direction {
        ReuseKind::Inbound => {
            let cap_ok = merged.drive_load <= thresholds.cap_th;
            if !include_wire {
                cap_ok
            } else {
                // Drive-delay growth beyond the baseline lands on every
                // path from the shared cell and on every member TSV's
                // functional path (plus its wire).
                let rd = model.library().timing(GateKind::ScanDff).drive_resistance;
                let drive_penalty = rd * (merged.drive_load - merged.base_load);
                cap_ok
                    && merged.min_slack - drive_penalty - merged.wire_delay >= thresholds.s_th
                    && merged.q_slack - drive_penalty >= thresholds.s_th
            }
        }
        ReuseKind::Outbound => {
            if !include_wire {
                // Agrawal bounds only the XOR tap capacitance, which is
                // constant per member — nothing accumulates in his
                // model, so any merge passes.
                true
            } else {
                // Tap-driver slacks already include the capture setup;
                // the capture-hardware insertion (XOR + mux, exact
                // delays) sits on top of the XOR chain.
                let capture_overhead = model.capture_insertion_delay();
                merged.min_slack - merged.capture_delay - capture_overhead >= thresholds.s_th
            }
        }
    };
    feasible.then_some(merged)
}

/// Every node's singleton clique state, in node order.
///
/// Each state is an independent set of timing-model queries (loads,
/// slacks, anchor contributions), so they run on the pool;
/// `par_range_map` returns them in node order, identical to a serial loop.
fn singleton_states(graph: &SharingGraph, model: &TimingModel<'_>) -> Vec<State> {
    let report = model.report();
    let netlist = model.netlist();
    prebond3d_pool::par_range_map(graph.len(), |i| {
        let gate = graph.nodes[i];
        match graph.kinds[i] {
            NodeKind::ScanFf => {
                // For outbound sharing the relevant flip-flop slack is
                // the D-side (capture) path; for inbound it is the Q
                // side. Track both.
                let d_driver = netlist.gate(gate).inputs[0];
                State {
                    members: vec![i],
                    ff: Some(gate),
                    drive_load: report.load(gate),
                    base_load: report.load(gate),
                    wire_delay: Time(0.0),
                    capture_delay: Time(0.0),
                    anchor: gate,
                    min_slack: match graph.direction {
                        ReuseKind::Inbound => Time(f64::INFINITY),
                        ReuseKind::Outbound => report.slack(d_driver),
                    },
                    q_slack: report.slack(gate),
                }
            }
            NodeKind::Tsv => State {
                members: vec![i],
                ff: None,
                // The shared cell pays one mux pin per inbound TSV; a
                // dedicated cell's baseline (one adjacent mux) is
                // already absorbed by the tight-clock calibration.
                drive_load: match graph.direction {
                    ReuseKind::Inbound => model.drive_contribution(Distance(0.0)),
                    ReuseKind::Outbound => Capacitance::ZERO,
                },
                base_load: match graph.direction {
                    ReuseKind::Inbound => model.drive_contribution(Distance(0.0)),
                    ReuseKind::Outbound => Capacitance::ZERO,
                },
                wire_delay: Time(0.0),
                capture_delay: Time(0.0),
                anchor: gate,
                min_slack: match graph.direction {
                    ReuseKind::Inbound => model.inbound_anchor_slack(gate),
                    ReuseKind::Outbound => model.outbound_tap_slack(gate),
                },
                q_slack: Time(f64::INFINITY),
            },
        }
    })
}

/// The partition's cliques: the live states, in id order.
fn cliques_of(graph: &SharingGraph, states: &[State], alive: &[bool]) -> Vec<Clique> {
    states
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(s, _)| Clique {
            members: s.members.iter().map(|&i| graph.nodes[i]).collect(),
            ff: s.ff,
            drive_load: s.drive_load,
            capture_delay: s.capture_delay,
            anchor: s.anchor,
            min_slack: s.min_slack,
        })
        .collect()
}

/// Run Algorithm 2 on `graph`.
pub fn partition(
    graph: &SharingGraph,
    model: &TimingModel<'_>,
    thresholds: &Thresholds,
    policy: MergePolicy,
) -> CliquePartition {
    let _span = obs::span("clique_partition");
    let n = graph.len();
    // The merge loop below is inherently sequential — each merge decision
    // depends on the partition produced by all previous ones.
    let mut states = singleton_states(graph, model);

    // Bit-row adjacency over every id the merge can create: `n`
    // singletons plus at most `n - 1` merged cliques (DESIGN.md §11). Rows
    // hold live nodes only, so common neighbours are a row AND, and
    // retiring a node clears one bit per neighbour. Degrees are kept
    // alongside; a retired node has degree 0.
    let ids = 2 * n;
    let mut rows: Vec<BitSet> = (0..n)
        .map(|i| {
            let mut row = BitSet::new(ids);
            row.extend(graph.neighbors(i).iter().map(|&j| j as usize));
            row
        })
        .collect();
    let mut degree: Vec<usize> = (0..n).map(|i| graph.degree(i)).collect();
    let mut alive: Vec<bool> = vec![true; n];

    // Incremental candidate scoring (DESIGN.md §11): a node's selection
    // score — (carries a flip-flop, current degree) — is cached under a
    // generation stamp and recomputed only after a merge or rejection
    // touched that node's neighborhood, instead of on every read.
    // Recomputes are tallied as `clique.candidate_rescores`.
    let mut generation: u64 = 1;
    let mut touch_gen: Vec<u64> = vec![1; n];
    let mut score_gen: Vec<u64> = vec![0; n];
    let mut score_val: Vec<(bool, usize)> = vec![(false, 0); n];
    let mut rescores = 0u64;

    let mut merges = 0usize;
    let mut rejected = 0usize;
    // Phase budget: each merge decision is independent of time, so the
    // partition built so far is always valid — on expiry we simply stop
    // merging and emit the current (coarser) partition.
    let deadline = prebond3d_resilience::Deadline::for_phase();

    // `n1`: the lowest (degree, index) among live nodes that still have
    // edges.
    while let Some(n1) = (0..degree.len())
        .filter(|&i| degree[i] > 0)
        .min_by_key(|&i| (degree[i], i))
    {
        if deadline.expired() {
            let candidates = degree.iter().filter(|&&d| d > 0).count();
            prebond3d_resilience::degrade::record(
                "clique",
                "stop_merging",
                format!("{merges} merges done, {candidates} candidates dropped at phase budget"),
            );
            break;
        }
        // Lowest-degree neighbour, preferring one that brings a
        // (cost-free) reused flip-flop into the clique: the WCM objective
        // counts only flip-flop-less cliques, so gluing TSVs onto
        // flip-flop cliques first converts would-be dedicated cells into
        // reuse.
        let n1_has_ff = states[n1].ff.is_some();
        let mut best: Option<((usize, usize, usize), usize)> = None;
        for j in rows[n1].iter() {
            let (has_ff, deg) = candidate_score(
                j,
                generation,
                &states,
                &degree,
                &touch_gen,
                &mut score_gen,
                &mut score_val,
                &mut rescores,
            );
            let brings_ff = !n1_has_ff && has_ff;
            let key = (usize::from(!brings_ff), deg, j);
            if best.is_none_or(|(k, _)| key < k) {
                best = Some((key, j));
            }
        }
        let (_, n2) = best.expect("a node with edges has a live neighbour");

        generation += 1;
        let Some(merged) = try_merge(
            &states[n1],
            &states[n2],
            graph.direction,
            policy,
            model,
            thresholds,
        ) else {
            rejected += 1;
            for (a, b) in [(n1, n2), (n2, n1)] {
                rows[a].remove(b);
                degree[a] -= 1;
                touch_gen[a] = generation;
            }
            continue;
        };

        // --- Merge: the new node inherits the common neighbours -------------
        merges += 1;
        let new_id = states.len();
        let mut common = rows[n1].clone();
        common.intersect_with(&rows[n2]);
        for c in common.iter() {
            rows[c].insert(new_id);
            degree[c] += 1;
            touch_gen[c] = generation;
        }
        degree.push(common.count());
        rows.push(common);
        states.push(merged);
        alive.push(true);
        touch_gen.push(generation);
        score_gen.push(0);
        score_val.push((false, 0));
        // Retire n1, n2.
        for old in [n1, n2] {
            alive[old] = false;
            degree[old] = 0;
            for j in std::mem::take(&mut rows[old]).iter() {
                rows[j].remove(old);
                degree[j] -= 1;
                touch_gen[j] = generation;
            }
        }
    }

    let cliques = cliques_of(graph, &states, &alive);

    // Aggregated per partition() call — the merge loop stays probe-free.
    obs::count("clique.merge_attempts", (merges + rejected) as u64);
    obs::count("clique.merges", merges as u64);
    obs::count("clique.rejected", rejected as u64);
    obs::count("clique.candidate_rescores", rescores);

    CliquePartition {
        cliques,
        merges,
        rejected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph;
    use crate::testability::StructuralProbe;
    use prebond3d_celllib::Library;
    use prebond3d_netlist::{itc99, Netlist};
    use prebond3d_place::{place, PlaceConfig, Placement};
    use prebond3d_sta::analysis::TimingReport;
    use prebond3d_sta::{analyze, StaConfig};

    struct Rig {
        die: Netlist,
        placement: Placement,
        library: Library,
        report: TimingReport,
    }

    impl Rig {
        /// A placed die analyzed at `period`, or at its calibrated tight
        /// clock when `period` is `None`.
        fn new(spec: &itc99::DieSpec, period: Option<Time>) -> Rig {
            let die = itc99::generate_die(spec);
            let placement = place(&die, &PlaceConfig::default(), 1);
            let library = Library::nangate45_like();
            let period = period.unwrap_or_else(|| {
                crate::flow::calibrate_tight_period(&die, &placement, &library)
                    .expect("the all-dedicated plan applies")
            });
            let report = analyze(&die, &placement, &library, &StaConfig::with_period(period));
            Rig {
                die,
                placement,
                library,
                report,
            }
        }

        fn model(&self) -> TimingModel<'_> {
            TimingModel::new(
                &self.die,
                &self.placement,
                &self.library,
                &self.report,
                &self.report,
                true,
            )
        }

        fn tsvs(&self, direction: ReuseKind) -> Vec<GateId> {
            match direction {
                ReuseKind::Inbound => self.die.inbound_tsvs(),
                ReuseKind::Outbound => self.die.outbound_tsvs(),
            }
        }

        /// The sharing graph of one phase over every flip-flop of the die.
        fn graph(
            &self,
            model: &TimingModel<'_>,
            th: &Thresholds,
            direction: ReuseKind,
        ) -> SharingGraph {
            graph::build(
                model,
                th,
                &StructuralProbe::default(),
                &graph::flow_cones(&self.die),
                &self.die.flip_flops(),
                &self.tsvs(direction),
                direction,
            )
        }
    }

    fn spec(name: &str, ffs: usize, gates: usize, tsvs: usize, seed: u64) -> itc99::DieSpec {
        itc99::DieSpec {
            name: name.into(),
            scan_flip_flops: ffs,
            gates,
            inbound_tsvs: tsvs,
            outbound_tsvs: tsvs,
            primary_inputs: 4,
            primary_outputs: 4,
            seed,
        }
    }

    fn run(direction: ReuseKind) -> (CliquePartition, usize, usize) {
        let rig = Rig::new(&spec("die", 16, 250, 12, 5), Some(Time(3000.0)));
        let model = rig.model();
        let th = Thresholds::area_optimized(&rig.library);
        let g = rig.graph(&model, &th, direction);
        let p = partition(&g, &model, &th, MergePolicy::Accurate);
        (p, rig.die.flip_flops().len(), rig.tsvs(direction).len())
    }

    /// Algorithm 2 as the paper states it, over a dense adjacency matrix:
    /// degrees are recounted on every read, `n1` is found by scanning
    /// every node, and no score is cached. It shares only the singleton
    /// states, the merge pricing (`try_merge`) and the clique read-out
    /// with [`partition`].
    fn reference_partition(
        graph: &SharingGraph,
        model: &TimingModel<'_>,
        thresholds: &Thresholds,
        policy: MergePolicy,
    ) -> CliquePartition {
        let mut states = singleton_states(graph, model);
        let ids = 2 * graph.len();
        let mut adj = vec![vec![false; ids]; ids];
        for (i, j) in graph.edges() {
            adj[i][j] = true;
            adj[j][i] = true;
        }
        let degree = |adj: &[Vec<bool>], v: usize| adj[v].iter().filter(|&&e| e).count();
        let mut alive = vec![true; graph.len()];
        let (mut merges, mut rejected) = (0, 0);
        loop {
            let created = states.len();
            let Some(n1) = (0..created)
                .filter(|&v| degree(&adj, v) > 0)
                .min_by_key(|&v| (degree(&adj, v), v))
            else {
                break;
            };
            let n1_has_ff = states[n1].ff.is_some();
            let n2 = (0..created)
                .filter(|&j| adj[n1][j])
                .min_by_key(|&j| {
                    let brings_ff = !n1_has_ff && states[j].ff.is_some();
                    (!brings_ff, degree(&adj, j), j)
                })
                .expect("n1 has a neighbour");
            let merged = try_merge(
                &states[n1],
                &states[n2],
                graph.direction,
                policy,
                model,
                thresholds,
            );
            let Some(merged) = merged else {
                rejected += 1;
                adj[n1][n2] = false;
                adj[n2][n1] = false;
                continue;
            };
            merges += 1;
            let common: Vec<usize> = (0..created).filter(|&c| adj[n1][c] && adj[n2][c]).collect();
            for c in common {
                adj[created][c] = true;
                adj[c][created] = true;
            }
            for old in [n1, n2] {
                alive[old] = false;
                adj[old].fill(false);
                for row in &mut adj {
                    row[old] = false;
                }
            }
            states.push(merged);
            alive.push(true);
        }
        CliquePartition {
            cliques: cliques_of(graph, &states, &alive),
            merges,
            rejected,
        }
    }

    /// The bit-row merge gives the reference's partition (cliques in
    /// order, merges, rejections) on seeded dies, for both directions,
    /// both merge policies, and area and tight thresholds.
    #[test]
    fn bit_row_merge_matches_the_dense_reference() {
        let mut rng = prebond3d_rng::StdRng::seed_from_u64(0xA1_6002);
        let (mut merges, mut rejected) = (0, 0);
        for case in 0..3 {
            let die_spec = spec(
                &format!("ref{case}"),
                rng.gen_range(12usize..40),
                rng.gen_range(200usize..400),
                rng.gen_range(20usize..45),
                rng.gen_range(0u64..10_000),
            );
            let rig = Rig::new(&die_spec, None);
            let model = rig.model();
            let mut tight = Thresholds::performance_optimized(
                &rig.library,
                Distance(rig.placement.scale().0 * 0.4),
            );
            tight.s_th = Time(5.0);
            for th in [Thresholds::area_optimized(&rig.library), tight] {
                for direction in [ReuseKind::Inbound, ReuseKind::Outbound] {
                    let g = rig.graph(&model, &th, direction);
                    for policy in [MergePolicy::Accurate, MergePolicy::CapacitanceOnly] {
                        let want = reference_partition(&g, &model, &th, policy);
                        let got = partition(&g, &model, &th, policy);
                        assert_eq!(got, want, "case {case} {direction:?} {policy:?} {th:?}");
                        merges += got.merges;
                        rejected += got.rejected;
                    }
                }
            }
        }
        assert!(
            merges > 0 && rejected > 0,
            "{merges} merges, {rejected} rejections"
        );
    }

    /// A zero phase budget stops merging before the first merge, still
    /// puts every node in exactly one clique, and records the live nodes
    /// that still had edges.
    #[test]
    fn zero_budget_stops_merging_and_still_covers_every_node() {
        let rig = Rig::new(&spec("budget", 16, 250, 12, 5), Some(Time(3000.0)));
        let model = rig.model();
        let th = Thresholds::area_optimized(&rig.library);
        for direction in [ReuseKind::Inbound, ReuseKind::Outbound] {
            let g = rig.graph(&model, &th, direction);
            // A job-scoped budget: other tests of this crate keep running
            // unbudgeted on their own threads.
            let (p, degradations) = prebond3d_resilience::job::run(Some(0), || {
                partition(&g, &model, &th, MergePolicy::Accurate)
            });
            assert_eq!((p.merges, p.rejected), (0, 0), "{direction:?}");
            let mut members: Vec<GateId> =
                p.cliques.iter().flat_map(|c| c.members.clone()).collect();
            let mut nodes = g.nodes.clone();
            members.sort();
            nodes.sort();
            assert_eq!(members, nodes, "{direction:?}: every node exactly once");
            let with_edges = (0..g.len()).filter(|&i| g.degree(i) > 0).count();
            assert!(with_edges > 0, "{direction:?}");
            let stops: Vec<_> = degradations
                .iter()
                .filter(|d| (d.phase, d.action) == ("clique", "stop_merging"))
                .collect();
            assert_eq!(stops.len(), 1, "{direction:?}: {degradations:?}");
            assert_eq!(
                stops[0].detail,
                format!("0 merges done, {with_edges} candidates dropped at phase budget")
            );
        }
    }

    #[test]
    fn partition_covers_every_node_once() {
        for direction in [ReuseKind::Inbound, ReuseKind::Outbound] {
            let (p, ffs, tsvs) = run(direction);
            let total_members: usize = p.cliques.iter().map(|c| c.members.len()).sum();
            assert_eq!(total_members, ffs + tsvs, "{direction:?}");
            // At most one FF per clique.
            for c in &p.cliques {
                let ff_members = c.members.iter().filter(|&&m| Some(m) == c.ff).count();
                assert!(ff_members <= 1);
            }
        }
    }

    #[test]
    fn merging_reduces_wrapper_cells_vs_naive() {
        let (p, _, tsvs) = run(ReuseKind::Inbound);
        // The paper's cost metric is *additional* wrapper cells: reused
        // scan flip-flops are free. Naive inserts one cell per TSV.
        assert!(
            p.additional() < tsvs,
            "reuse should beat the naive bound: {} vs {tsvs}",
            p.additional()
        );
        assert!(p.merges > 0);
        assert!(p.reused() > 0);
    }

    #[test]
    fn inbound_cliques_respect_cap_threshold() {
        let (p, _, _) = run(ReuseKind::Inbound);
        let lib = Library::nangate45_like();
        let th = Thresholds::area_optimized(&lib);
        for c in &p.cliques {
            assert!(
                c.drive_load <= th.cap_th,
                "clique load {} exceeds cap_th {}",
                c.drive_load,
                th.cap_th
            );
        }
    }

    #[test]
    fn outbound_cliques_track_chain_delay() {
        let (p, _, _) = run(ReuseKind::Outbound);
        let lib = Library::nangate45_like();
        for c in &p.cliques {
            if c.tsv_count() >= 2 {
                // A k-member chain has at least k-1 XOR stages of delay.
                let floor = lib.reuse().xor_delay * (c.tsv_count() as f64 - 1.0);
                assert!(
                    c.capture_delay >= floor,
                    "chain delay {} below floor {}",
                    c.capture_delay,
                    floor
                );
            }
        }
    }
}
