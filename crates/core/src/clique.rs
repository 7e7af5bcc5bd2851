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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use prebond3d_celllib::{Capacitance, Distance, Time};
use prebond3d_netlist::{GateId, GateKind};
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

/// Remove `x` from the sorted list `v`; no-op when absent.
fn remove_sorted(v: &mut Vec<usize>, x: usize) {
    if let Ok(p) = v.binary_search(&x) {
        v.remove(p);
    }
}

/// Candidate score of node `j` — (carries a flip-flop, degree) — through
/// the generation-stamped cache. A cached value is valid while no merge
/// or rejection has touched `j`'s neighborhood since it was computed.
#[allow(clippy::too_many_arguments)]
fn candidate_score(
    j: usize,
    generation: u64,
    states: &[State],
    neighbors: &[Vec<usize>],
    touch_gen: &[u64],
    score_gen: &mut [u64],
    score_val: &mut [(bool, usize)],
    rescores: &mut u64,
) -> (bool, usize) {
    if score_gen[j] >= touch_gen[j] {
        debug_assert_eq!(
            score_val[j],
            (states[j].ff.is_some(), neighbors[j].len()),
            "stale candidate score for node {j}"
        );
        return score_val[j];
    }
    *rescores += 1;
    let s = (states[j].ff.is_some(), neighbors[j].len());
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

/// Run Algorithm 2 on `graph`.
pub fn partition(
    graph: &SharingGraph,
    model: &TimingModel<'_>,
    thresholds: &Thresholds,
    policy: MergePolicy,
) -> CliquePartition {
    let _span = obs::span("clique_partition");
    let n = graph.len();
    let report = model.report();
    let library = model.library();
    let netlist = model.netlist();
    let rd = library.timing(GateKind::ScanDff).drive_resistance;
    let include_wire = policy == MergePolicy::Accurate;

    // Candidate scoring: each node's initial budget state is an
    // independent set of timing-model queries (loads, slacks, anchor
    // contributions), so it runs on the pool; `par_range_map` returns the
    // states in node order, identical to the serial loop. The merge loop
    // below is inherently sequential — each merge decision depends on the
    // partition produced by all previous ones.
    let mut states: Vec<State> = prebond3d_pool::par_range_map(n, |i| {
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
    });

    // Sorted neighbor vectors (CSR rows are already ascending): binary
    // search for removal, two-pointer walks for intersection — no
    // per-node tree allocations.
    let mut neighbors: Vec<Vec<usize>> = (0..n)
        .map(|i| graph.neighbors(i).iter().map(|&j| j as usize).collect())
        .collect();
    let mut alive: Vec<bool> = vec![true; n];
    // (degree, node) min-heap with lazy invalidation.
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = (0..n)
        .filter(|&i| !neighbors[i].is_empty())
        .map(|i| Reverse((neighbors[i].len(), i)))
        .collect();

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

    while let Some(Reverse((deg, n1))) = heap.pop() {
        if deadline.expired() {
            prebond3d_resilience::degrade::record(
                "clique",
                "stop_merging",
                format!(
                    "{merges} merges done, {} candidates dropped at phase budget",
                    heap.len()
                ),
            );
            break;
        }
        if n1 >= alive.len() || !alive[n1] || neighbors[n1].len() != deg || deg == 0 {
            continue; // stale entry
        }
        // Lowest-degree live neighbour, preferring one that brings a
        // (cost-free) reused flip-flop into the clique: the WCM objective
        // counts only flip-flop-less cliques, so gluing TSVs onto
        // flip-flop cliques first converts would-be dedicated cells into
        // reuse.
        let n1_has_ff = states[n1].ff.is_some();
        let mut best: Option<((usize, usize, usize), usize)> = None;
        for idx in 0..neighbors[n1].len() {
            let j = neighbors[n1][idx];
            if !alive[j] {
                continue;
            }
            let (has_ff, deg) = candidate_score(
                j,
                generation,
                &states,
                &neighbors,
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
        let n2 = match best {
            Some((_, j)) => j,
            None => continue,
        };

        // --- Merge feasibility (`cap < cap_th`, plus the accurate model's
        // delay accumulation) -------------------------------------------------
        let (a, b) = (&states[n1], &states[n2]);
        let dist = if include_wire {
            model.distance(a.anchor, b.anchor)
        } else {
            Distance(0.0)
        };
        let merged = merge_states(a, b, dist, include_wire, model);
        let feasible = match graph.direction {
            ReuseKind::Inbound => {
                let cap_ok = merged.drive_load <= thresholds.cap_th;
                if !include_wire {
                    cap_ok
                } else {
                    // Drive-delay growth beyond the baseline lands on every
                    // path from the shared cell and on every member TSV's
                    // functional path (plus its wire).
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

        if !feasible {
            rejected += 1;
            generation += 1;
            remove_sorted(&mut neighbors[n1], n2);
            remove_sorted(&mut neighbors[n2], n1);
            touch_gen[n1] = generation;
            touch_gen[n2] = generation;
            if !neighbors[n1].is_empty() {
                heap.push(Reverse((neighbors[n1].len(), n1)));
            }
            if !neighbors[n2].is_empty() {
                heap.push(Reverse((neighbors[n2].len(), n2)));
            }
            continue;
        }

        // --- Merge ---------------------------------------------------------
        merges += 1;
        generation += 1;
        // Common live neighbors by a two-pointer walk over the sorted rows.
        let (row1, row2) = (&neighbors[n1], &neighbors[n2]);
        let mut common: Vec<usize> = Vec::with_capacity(row1.len().min(row2.len()));
        let (mut p, mut q) = (0usize, 0usize);
        while p < row1.len() && q < row2.len() {
            match row1[p].cmp(&row2[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    if alive[row1[p]] {
                        common.push(row1[p]);
                    }
                    p += 1;
                    q += 1;
                }
            }
        }
        let new_id = states.len();
        states.push(merged);
        alive.push(true);
        neighbors.push(common.clone());
        touch_gen.push(generation);
        score_gen.push(0);
        score_val.push((false, 0));
        for &c in &common {
            // `new_id` exceeds every existing index, so push keeps the
            // row sorted.
            neighbors[c].push(new_id);
            touch_gen[c] = generation;
        }
        // Retire n1, n2.
        for &old in &[n1, n2] {
            alive[old] = false;
            let olds = std::mem::take(&mut neighbors[old]);
            for j in olds {
                remove_sorted(&mut neighbors[j], old);
                touch_gen[j] = generation;
                if alive[j] && !neighbors[j].is_empty() {
                    heap.push(Reverse((neighbors[j].len(), j)));
                }
            }
        }
        if !neighbors[new_id].is_empty() {
            heap.push(Reverse((neighbors[new_id].len(), new_id)));
        }
    }

    let cliques = states
        .iter()
        .zip(alive.iter())
        .filter(|(_, &a)| a)
        .map(|(s, _)| Clique {
            members: s.members.iter().map(|&i| graph.nodes[i]).collect(),
            ff: s.ff,
            drive_load: s.drive_load,
            capture_delay: s.capture_delay,
            anchor: s.anchor,
            min_slack: s.min_slack,
        })
        .collect();

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
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};
    use prebond3d_sta::{analyze, StaConfig};

    fn run(direction: ReuseKind) -> (CliquePartition, usize, usize) {
        let spec = itc99::DieSpec {
            name: "die".into(),
            scan_flip_flops: 16,
            gates: 250,
            inbound_tsvs: 12,
            outbound_tsvs: 12,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 5,
        };
        let die = itc99::generate_die(&spec);
        let placement = place(&die, &PlaceConfig::default(), 1);
        let library = Library::nangate45_like();
        let report = analyze(
            &die,
            &placement,
            &library,
            &StaConfig::with_period(Time(3000.0)),
        );
        let model = TimingModel::new(&die, &placement, &library, &report, &report, true);
        let th = Thresholds::area_optimized(&library);
        let tsvs = match direction {
            ReuseKind::Inbound => die.inbound_tsvs(),
            ReuseKind::Outbound => die.outbound_tsvs(),
        };
        let g = graph::build(
            &model,
            &th,
            &StructuralProbe::default(),
            &die.flip_flops(),
            &tsvs,
            direction,
        );
        let p = partition(&g, &model, &th, MergePolicy::Accurate);
        (p, die.flip_flops().len(), tsvs.len())
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
