//! Algorithm 1: sharing-graph construction.
//!
//! Nodes are the available scan flip-flops plus the *eligible* TSVs of the
//! phase's direction (inbound TSVs under the `cap_th` load check, outbound
//! TSVs under the `s_th` slack check). An edge means "these two nodes can
//! share one wrapper cell":
//!
//! * within the distance threshold `d_th`,
//! * timing-safe per the [`TimingModel`] (pin caps, and — in the accurate
//!   model — wire delay),
//! * cones disjoint, **or** overlapped with a testability cost inside
//!   (`cov_th`, `p_th`) — the paper's solution-space expansion (Fig. 7).
//!
//! No scan-flip-flop pair is ever connected (a clique may use at most one
//! reused cell), which the clique construction then preserves for free.

use prebond3d_netlist::{cone::ConeSet, Csr, GateId, Netlist};
use prebond3d_obs as obs;
use prebond3d_pool as pool;

use crate::testability::TestabilityProbe;
use crate::thresholds::Thresholds;
use crate::timing_model::{ReuseKind, TimingModel};

/// Role of a node in the sharing graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An available scan flip-flop.
    ScanFf,
    /// An eligible TSV of the phase's direction.
    Tsv,
}

/// The sharing graph for one phase (one TSV direction).
#[derive(Debug, Clone)]
pub struct SharingGraph {
    /// Direction this graph was built for.
    pub direction: ReuseKind,
    /// Node payloads (netlist gate ids).
    pub nodes: Vec<GateId>,
    /// Node roles, parallel to `nodes`.
    pub kinds: Vec<NodeKind>,
    /// CSR adjacency over local node indices (DESIGN.md §11): one flat
    /// edge arena instead of one heap allocation per node.
    adj: Csr,
    /// Total undirected edges.
    pub edge_count: usize,
    /// Edges admitted through the overlapped-cone testability branch.
    pub overlap_edges: usize,
    /// TSVs excluded by node-eligibility checks (they must fall back to
    /// dedicated wrapper cells).
    pub ineligible_tsvs: Vec<GateId>,
}

impl SharingGraph {
    /// Neighbors of local node `i`, sorted ascending — a borrowed slice
    /// of the CSR edge arena, so iterating never clones a row.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.adj.neighbors(i)
    }

    /// Degree of local node `i` in O(1).
    pub fn degree(&self, i: usize) -> usize {
        self.adj.degree(i)
    }

    /// Iterate every undirected edge once, as `(i, j)` with `i < j`, in
    /// ascending node order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .arcs()
            .filter(|&(i, j)| i < j)
            .map(|(i, j)| (i as usize, j as usize))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Local index of the first node holding `gate`, if present.
    pub fn index_of(&self, gate: GateId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == gate)
    }
}

/// The cone set a flow shares across its graph builds: every scan
/// flip-flop, then the inbound and the outbound TSVs.
pub fn flow_cones(die: &Netlist) -> ConeSet {
    let mut roots = die.flip_flops();
    roots.extend(die.inbound_tsvs());
    roots.extend(die.outbound_tsvs());
    ConeSet::compute(die, &roots)
}

/// Build the sharing graph for one phase.
///
/// `ffs` are the scan flip-flops still available; `tsvs` the TSVs of
/// `direction`. `probe` prices overlapped-cone sharing (ignored when the
/// thresholds forbid overlap). `cones` holds the cones of every `ffs` and
/// `tsvs` entry, and may hold more: a flow computes one set for all its
/// builds. The build emits the words its own queries walked as
/// `graph.cone_word_ops`.
///
/// # Panics
///
/// Panics if an eligible node is not a root of `cones`.
pub fn build(
    model: &TimingModel<'_>,
    thresholds: &Thresholds,
    probe: &dyn TestabilityProbe,
    cones: &ConeSet,
    ffs: &[GateId],
    tsvs: &[GateId],
    direction: ReuseKind,
) -> SharingGraph {
    let _span = obs::span("graph_build");
    let netlist: &Netlist = model.netlist();
    let word_ops_before = cones.word_ops();

    // --- Node construction (Algorithm 1 lines 1–14) -----------------------
    let mut nodes: Vec<GateId> = Vec::new();
    let mut kinds: Vec<NodeKind> = Vec::new();
    let mut ineligible = Vec::new();
    for &ff in ffs {
        nodes.push(ff);
        kinds.push(NodeKind::ScanFf);
    }
    for &t in tsvs {
        let eligible = match direction {
            ReuseKind::Inbound => model.inbound_eligible(t, thresholds),
            ReuseKind::Outbound => model.outbound_eligible(t, thresholds),
        };
        if eligible {
            nodes.push(t);
            kinds.push(NodeKind::Tsv);
        } else {
            ineligible.push(t);
        }
    }

    // Node `i`'s cones are row `rows[i]` of the shared set.
    let rows: Vec<usize> = nodes
        .iter()
        .map(|&g| {
            cones
                .row_of(g)
                .expect("every graph node must be a root of the cone set")
        })
        .collect();

    // --- Edge construction (Algorithm 1 lines 16–26) ----------------------
    // Each pair's admission — the timing what-if plus the cone-overlap /
    // testability pricing — reads only shared immutable state, so the
    // O(n²) scan is partitioned by row across the pool. Workers return
    // each row's admitted edges; the replay below applies them serially
    // in ascending (i, j) order, which reproduces the serial double
    // loop's adjacency-list push order (and counters) exactly for any
    // thread count — `PREBOND3D_THREADS=1` short-circuits to an inline
    // loop inside the pool itself.
    let n = nodes.len();
    let kinds_ref = &kinds;
    let nodes_ref = &nodes;
    let scan_row = |i: usize| -> (usize, Vec<(usize, bool)>) {
        let mut pairs = 0usize;
        let mut admitted: Vec<(usize, bool)> = Vec::new();
        for j in (i + 1)..n {
            // At least one endpoint must be a TSV.
            if kinds_ref[i] == NodeKind::ScanFf && kinds_ref[j] == NodeKind::ScanFf {
                continue;
            }
            pairs += 1;
            let (a, b) = (nodes_ref[i], nodes_ref[j]);
            // Timing admission (distance + cap/slack what-if).
            let timing_ok = match (kinds_ref[i], kinds_ref[j]) {
                (NodeKind::ScanFf, NodeKind::Tsv) => {
                    model.reuse_is_safe(a, b, direction, thresholds)
                }
                (NodeKind::Tsv, NodeKind::ScanFf) => {
                    model.reuse_is_safe(b, a, direction, thresholds)
                }
                _ => model.tsv_pair_is_safe(a, b, direction, thresholds),
            };
            if !timing_ok {
                continue;
            }
            // Cone admission. Overlapped-cone sharing is the paper's
            // Fig. 4 scenario — a *scan flip-flop* serving a TSV whose
            // cones overlap its own; TSV–TSV grouping keeps the strict
            // disjointness rule (correlated test values across two TSV
            // fanouts compound, and admitting them mostly destabilizes
            // the clique heuristic).
            let overlapped = cones.cones_overlap_at(rows[i], rows[j]);
            let ff_pair = kinds_ref[i] == NodeKind::ScanFf || kinds_ref[j] == NodeKind::ScanFf;
            let admit = if !overlapped {
                true
            } else if ff_pair && thresholds.allows_overlap() {
                probe
                    .sharing_cost(netlist, cones, a, b)
                    .within(thresholds.cov_th, thresholds.p_th)
            } else {
                false
            };
            if admit {
                admitted.push((j, overlapped));
            }
        }
        (pairs, admitted)
    };
    let rows = pool::par_range_map(n, scan_row);

    // Submission-order replay: deterministic merge of the parallel scan.
    // Both arc directions are pushed in ascending (i, j) order, which the
    // stable CSR fill turns into ascending neighbor slices — the same row
    // contents the old per-row `Vec` pushes produced.
    let mut arcs: Vec<(u32, u32)> = Vec::new();
    let mut edge_count = 0usize;
    let mut overlap_edges = 0usize;
    let mut pairs_considered = 0usize;
    for (i, (pairs, admitted)) in rows.into_iter().enumerate() {
        pairs_considered += pairs;
        for (j, overlapped) in admitted {
            arcs.push((i as u32, j as u32));
            arcs.push((j as u32, i as u32));
            edge_count += 1;
            if overlapped {
                overlap_edges += 1;
            }
        }
    }
    let adj = Csr::from_arcs(n, &arcs);

    // One emission per build keeps the probes out of the O(n²) inner loop.
    obs::count("graph.nodes", n as u64);
    obs::count("graph.pairs_considered", pairs_considered as u64);
    obs::count("graph.edges", edge_count as u64);
    obs::count("graph.overlap_edges", overlap_edges as u64);
    obs::count("graph.ineligible_tsvs", ineligible.len() as u64);
    obs::count("graph.cone_word_ops", cones.word_ops() - word_ops_before);

    SharingGraph {
        direction,
        nodes,
        kinds,
        adj,
        edge_count,
        overlap_edges,
        ineligible_tsvs: ineligible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testability::StructuralProbe;
    use prebond3d_celllib::{Library, Time};
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};
    use prebond3d_sta::{analyze, StaConfig};

    struct Rig {
        die: Netlist,
        placement: prebond3d_place::Placement,
        library: Library,
        report: prebond3d_sta::analysis::TimingReport,
        cones: ConeSet,
    }

    fn rig() -> Rig {
        rig_for(&itc99::DieSpec {
            name: "die".into(),
            scan_flip_flops: 16,
            gates: 250,
            inbound_tsvs: 10,
            outbound_tsvs: 10,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 5,
        })
    }

    fn rig_for(spec: &itc99::DieSpec) -> Rig {
        let die = itc99::generate_die(spec);
        let placement = place(&die, &PlaceConfig::default(), 1);
        let library = Library::nangate45_like();
        let report = analyze(
            &die,
            &placement,
            &library,
            &StaConfig::with_period(Time(3000.0)),
        );
        let cones = flow_cones(&die);
        Rig {
            die,
            placement,
            library,
            report,
            cones,
        }
    }

    #[test]
    fn graph_has_no_ff_ff_edges() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let th = Thresholds::area_optimized(&r.library);
        let g = build(
            &model,
            &th,
            &StructuralProbe::default(),
            &r.cones,
            &r.die.flip_flops(),
            &r.die.inbound_tsvs(),
            ReuseKind::Inbound,
        );
        for i in 0..g.len() {
            for &j in g.neighbors(i) {
                assert!(
                    g.kinds[i] == NodeKind::Tsv || g.kinds[j as usize] == NodeKind::Tsv,
                    "FF–FF edge found"
                );
            }
            assert_eq!(g.degree(i), g.neighbors(i).len());
            assert!(g.neighbors(i).is_sorted(), "CSR rows stay sorted");
        }
        assert!(g.edge_count > 0, "area mode should admit edges");
        // The edge iterator visits each undirected edge exactly once.
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges.len(), g.edge_count);
        assert!(edges.iter().all(|&(i, j)| i < j));
    }

    #[test]
    fn overlap_allowance_expands_the_graph() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let th = Thresholds::area_optimized(&r.library);
        let probe = StructuralProbe::default();
        let with = build(
            &model,
            &th,
            &probe,
            &r.cones,
            &r.die.flip_flops(),
            &r.die.inbound_tsvs(),
            ReuseKind::Inbound,
        );
        let without = build(
            &model,
            &th.without_overlap(),
            &probe,
            &r.cones,
            &r.die.flip_flops(),
            &r.die.inbound_tsvs(),
            ReuseKind::Inbound,
        );
        assert!(with.edge_count >= without.edge_count);
        assert_eq!(without.overlap_edges, 0);
        assert_eq!(with.edge_count - without.edge_count, with.overlap_edges);
    }

    #[test]
    fn distance_threshold_prunes_edges() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let loose = Thresholds::area_optimized(&r.library);
        let tight = Thresholds {
            d_th: prebond3d_celllib::Distance(20.0),
            ..loose
        };
        let probe = StructuralProbe::default();
        let g_loose = build(
            &model,
            &loose,
            &probe,
            &r.cones,
            &r.die.flip_flops(),
            &r.die.outbound_tsvs(),
            ReuseKind::Outbound,
        );
        let g_tight = build(
            &model,
            &tight,
            &probe,
            &r.cones,
            &r.die.flip_flops(),
            &r.die.outbound_tsvs(),
            ReuseKind::Outbound,
        );
        assert!(g_tight.edge_count < g_loose.edge_count);
    }

    /// A build over the flow's shared cone set (every flip-flop and both
    /// TSV directions, rows in another order than the phase's nodes) gives
    /// the graph and the per-build counters a set of the phase's own nodes
    /// gives, inbound and outbound, on seeded dies.
    #[test]
    fn a_shared_cone_set_builds_the_same_graph_as_the_phase_own_set() {
        let mut rng = prebond3d_rng::StdRng::seed_from_u64(0x5EED_C0E5);
        let mut overlap_edges = 0;
        for case in 0..3 {
            let r = rig_for(&itc99::DieSpec {
                name: format!("shared{case}"),
                scan_flip_flops: rng.gen_range(10usize..30),
                gates: rng.gen_range(200usize..400),
                inbound_tsvs: rng.gen_range(4usize..16),
                outbound_tsvs: rng.gen_range(4usize..16),
                primary_inputs: 4,
                primary_outputs: 4,
                seed: rng.gen_range(0u64..10_000),
            });
            let model =
                TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
            let th = Thresholds::area_optimized(&r.library);
            let probe = StructuralProbe::default();
            let ffs = r.die.flip_flops();
            for direction in [ReuseKind::Inbound, ReuseKind::Outbound] {
                let tsvs = match direction {
                    ReuseKind::Inbound => r.die.inbound_tsvs(),
                    ReuseKind::Outbound => r.die.outbound_tsvs(),
                };
                let build_with = |cones: &ConeSet| {
                    obs::capture_recorded(|| {
                        build(&model, &th, &probe, cones, &ffs, &tsvs, direction)
                    })
                };
                let (shared, shared_snap) = build_with(&r.cones);
                let own = ConeSet::compute(&r.die, &shared.nodes);
                let (alone, alone_snap) = build_with(&own);
                let what = format!("case {case} {direction:?}");
                assert_eq!(shared.nodes, alone.nodes, "{what}");
                assert_eq!(shared.kinds, alone.kinds, "{what}");
                for i in 0..shared.len() {
                    assert_eq!(shared.neighbors(i), alone.neighbors(i), "{what} row {i}");
                }
                assert_eq!(shared.edge_count, alone.edge_count, "{what}");
                assert_eq!(shared.overlap_edges, alone.overlap_edges, "{what}");
                assert_eq!(shared.ineligible_tsvs, alone.ineligible_tsvs, "{what}");
                for counter in ["graph.cone_word_ops", "graph.pairs_considered"] {
                    let (a, b) = (shared_snap.counter(counter), alone_snap.counter(counter));
                    assert_eq!(a, b, "{what} {counter}");
                    assert!(a > 0, "{what} {counter}");
                }
                overlap_edges += shared.overlap_edges;
            }
        }
        assert!(overlap_edges > 0, "the probe branch must be exercised");
    }

    #[test]
    fn ineligible_tsvs_are_reported() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        // Impossible slack floor: every outbound TSV is ineligible.
        let th = Thresholds {
            s_th: Time(f64::INFINITY),
            ..Thresholds::area_optimized(&r.library)
        };
        let g = build(
            &model,
            &th,
            &StructuralProbe::default(),
            &r.cones,
            &r.die.flip_flops(),
            &r.die.outbound_tsvs(),
            ReuseKind::Outbound,
        );
        assert_eq!(g.ineligible_tsvs.len(), r.die.outbound_tsvs().len());
        assert!(g.nodes.iter().all(|n| !r.die.outbound_tsvs().contains(n)));
    }
}
