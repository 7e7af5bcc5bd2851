//! Exact minimal clique partitioning by branch-and-bound.
//!
//! The WCM is NP-hard, so the paper (like Agrawal et al.) solves it with
//! the Algorithm 2 heuristic. For *small* instances an exact optimum is
//! affordable, which lets the unit tests below measure the heuristic's
//! optimality gap instead of taking it on faith. Only those tests reach
//! it: no flow, experiment or benchmark calls the exact solver.
//!
//! The solver enumerates nodes in a fixed order and assigns each either to
//! an existing clique it is fully adjacent to, or to a fresh clique,
//! pruning branches that cannot beat the incumbent. An at-most-one
//! flip-flop-per-clique rule is inherited for free from the graph (no
//! FF–FF edges exist, and clique membership requires full adjacency).

use crate::graph::SharingGraph;

/// Result of the exact search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactPartition {
    /// Clique membership: `cliques[c]` lists local node indices.
    pub cliques: Vec<Vec<usize>>,
    /// Number of branch-and-bound nodes explored.
    pub explored: usize,
    /// `true` if the search finished (always, unless `node_budget` hit).
    pub optimal: bool,
}

impl ExactPartition {
    /// Number of cliques in the optimum.
    pub fn count(&self) -> usize {
        self.cliques.len()
    }
}

/// Exact minimum clique partition of `graph`.
///
/// `node_budget` bounds the branch-and-bound tree; when exhausted the
/// incumbent is returned with `optimal = false`. Instances up to roughly
/// 40 nodes solve instantly; the experiment dies are far larger, which is
/// exactly why the paper uses the heuristic.
pub fn partition(graph: &SharingGraph, node_budget: usize) -> ExactPartition {
    let n = graph.len();
    // Adjacency as bit rows for O(1) full-adjacency tests (n ≤ 64 words).
    let words = n.div_ceil(64);
    let mut adj = vec![vec![0u64; words]; n];
    for (i, row) in adj.iter_mut().enumerate() {
        for &j in graph.neighbors(i) {
            let j = j as usize;
            row[j / 64] |= 1 << (j % 64);
        }
    }

    // Order nodes by descending degree: constrained nodes first shrink the
    // search tree.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(graph.degree(i)));

    struct Search<'a> {
        adj: &'a [Vec<u64>],
        order: &'a [usize],
        // Clique members (as bit rows) and member lists.
        clique_bits: Vec<Vec<u64>>,
        clique_members: Vec<Vec<usize>>,
        best: Option<Vec<Vec<usize>>>,
        best_count: usize,
        explored: usize,
        budget: usize,
        words: usize,
        deadline: prebond3d_resilience::Deadline,
        timed_out: bool,
    }

    impl Search<'_> {
        fn fully_adjacent(&self, node: usize, clique: usize) -> bool {
            let row = &self.adj[node];
            self.clique_bits[clique]
                .iter()
                .zip(row.iter())
                .all(|(&m, &a)| m & !a == 0)
        }

        fn recurse(&mut self, depth: usize) {
            if self.explored >= self.budget {
                return;
            }
            // Phase budget: poll the clock every 512 nodes; on expiry,
            // collapse the node budget so every open frame unwinds and the
            // incumbent is returned with `optimal = false`.
            if self.explored.is_multiple_of(512) && self.deadline.expired() {
                prebond3d_resilience::degrade::record(
                    "clique.exact",
                    "best_so_far",
                    format!(
                        "search stopped after {} nodes at phase budget",
                        self.explored
                    ),
                );
                self.timed_out = true;
                self.budget = self.explored;
                return;
            }
            self.explored += 1;
            if self.clique_bits.len() >= self.best_count {
                return; // cannot beat the incumbent
            }
            if depth == self.order.len() {
                self.best_count = self.clique_bits.len();
                self.best = Some(self.clique_members.clone());
                return;
            }
            let node = self.order[depth];
            // Try existing cliques.
            for c in 0..self.clique_bits.len() {
                if self.fully_adjacent(node, c) {
                    self.clique_bits[c][node / 64] |= 1 << (node % 64);
                    self.clique_members[c].push(node);
                    self.recurse(depth + 1);
                    self.clique_members[c].pop();
                    self.clique_bits[c][node / 64] &= !(1 << (node % 64));
                }
            }
            // Open a fresh clique.
            let mut bits = vec![0u64; self.words];
            bits[node / 64] |= 1 << (node % 64);
            self.clique_bits.push(bits);
            self.clique_members.push(vec![node]);
            self.recurse(depth + 1);
            self.clique_members.pop();
            self.clique_bits.pop();
        }
    }

    let mut search = Search {
        adj: &adj,
        order: &order,
        clique_bits: Vec::new(),
        clique_members: Vec::new(),
        best: None,
        best_count: n + 1,
        explored: 0,
        budget: node_budget,
        words,
        deadline: prebond3d_resilience::Deadline::for_phase(),
        timed_out: false,
    };
    search.recurse(0);

    let optimal = search.explored < node_budget && !search.timed_out;
    let cliques = search.best.unwrap_or_else(|| {
        // Degenerate: budget exhausted before any leaf — singletons.
        (0..n).map(|i| vec![i]).collect()
    });
    ExactPartition {
        cliques,
        explored: search.explored,
        optimal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clique::{self, MergePolicy};
    use crate::graph;
    use crate::testability::StructuralProbe;
    use crate::thresholds::Thresholds;
    use crate::timing_model::{ReuseKind, TimingModel};
    use prebond3d_celllib::{Capacitance, Library, Time};
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};
    use prebond3d_sta::{analyze, StaConfig};

    fn small_graph(seed: u64) -> (SharingGraph, prebond3d_netlist::Netlist) {
        let spec = itc99::DieSpec {
            name: "exact_die".into(),
            scan_flip_flops: 6,
            gates: 120,
            inbound_tsvs: 8,
            outbound_tsvs: 4,
            primary_inputs: 3,
            primary_outputs: 3,
            seed,
        };
        let die = itc99::generate_die(&spec);
        let placement = place(&die, &PlaceConfig::default(), 1);
        let library = Library::nangate45_like();
        let report = analyze(&die, &placement, &library, &StaConfig::relaxed());
        let model = TimingModel::new(&die, &placement, &library, &report, &report, true);
        let th = Thresholds::area_optimized(&library);
        let g = graph::build(
            &model,
            &th,
            &StructuralProbe::default(),
            &graph::flow_cones(&die),
            &die.flip_flops(),
            &die.inbound_tsvs(),
            ReuseKind::Inbound,
        );
        (g, die)
    }

    fn is_valid_partition(graph: &SharingGraph, cliques: &[Vec<usize>]) -> bool {
        let mut seen = vec![false; graph.len()];
        for clique in cliques {
            for &m in clique {
                if seen[m] {
                    return false;
                }
                seen[m] = true;
            }
            // All pairs adjacent.
            for (a, &x) in clique.iter().enumerate() {
                for &y in clique.iter().skip(a + 1) {
                    if !graph.neighbors(x).contains(&(y as u32)) {
                        return false;
                    }
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn exact_result_is_a_valid_partition() {
        for seed in [1u64, 2, 3] {
            let (g, _) = small_graph(seed);
            let exact = partition(&g, 5_000_000);
            assert!(exact.optimal, "budget should suffice for tiny graphs");
            assert!(is_valid_partition(&g, &exact.cliques));
        }
    }

    #[test]
    fn heuristic_never_beats_the_optimum() {
        let lib = Library::nangate45_like();
        // Unlimited physical budgets: compare pure clique structure.
        let th = Thresholds {
            cap_th: Capacitance(f64::INFINITY),
            s_th: Time(f64::NEG_INFINITY),
            ..Thresholds::area_optimized(&lib)
        };
        for seed in [1u64, 2, 3, 4] {
            let (g, die) = small_graph(seed);
            let placement = place(&die, &PlaceConfig::default(), 1);
            let report = analyze(&die, &placement, &lib, &StaConfig::relaxed());
            let model = TimingModel::new(&die, &placement, &lib, &report, &report, true);
            let heur = clique::partition(&g, &model, &th, MergePolicy::Accurate);
            let exact = partition(&g, 5_000_000);
            assert!(exact.optimal);
            assert!(
                heur.cliques.len() >= exact.count(),
                "seed {seed}: heuristic {} cliques vs optimum {}",
                heur.cliques.len(),
                exact.count()
            );
            // The heuristic should be reasonably close on these sizes.
            assert!(
                heur.cliques.len() <= exact.count() + g.len() / 3,
                "seed {seed}: gap too large ({} vs {})",
                heur.cliques.len(),
                exact.count()
            );
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let (g, _) = small_graph(1);
        let exact = partition(&g, 3);
        assert!(!exact.optimal);
        assert!(is_valid_partition(&g, &exact.cliques) || exact.cliques.len() == g.len());
    }
}
