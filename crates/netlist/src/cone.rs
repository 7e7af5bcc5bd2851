//! Fan-in / fan-out cone computation.
//!
//! The paper's edge-construction rule (Algorithm 1, line 19) admits an edge
//! between a scan flip-flop and a TSV outright when their fan-in/fan-out
//! cones do **not** overlap, and only then falls back to the testability
//! probe. Cones are therefore on the hot path of graph construction; they
//! are represented as [`BitSet`]s over gate ids so overlap tests are a few
//! word-AND operations.
//!
//! [`fanin_cone`] / [`fanout_cone`] walk one root at a time: on-demand
//! callers use them, and they are the oracle for [`ConeSet::compute`].
//! That builds all its roots' cones with a bit-parallel kernel, 64 roots
//! per machine word, in two passes over the combinational order per 64
//! roots (DESIGN.md §11). A flow computes one set over all its scan
//! flip-flops and TSVs and shares it across every graph build; a build
//! maps its nodes to rows once ([`ConeSet::row_of`]) and queries by row
//! ([`ConeSet::cones_overlap_at`]).

use crate::bitset::BitSet;
use crate::gate::GateId;
use crate::netlist::Netlist;

/// The transitive fan-in cone of `root`, i.e. every gate whose output can
/// combinationally influence `root`'s value.
///
/// Traversal stops at combinational sources (primary inputs, constants,
/// flip-flop outputs, inbound TSVs): the source itself is included, but the
/// logic behind a flip-flop is not (it belongs to the previous cycle).
/// `root` itself is included.
pub fn fanin_cone(netlist: &Netlist, root: GateId) -> BitSet {
    let mut set = BitSet::new(netlist.len());
    let mut stack = vec![root];
    set.insert(root.index());
    while let Some(id) = stack.pop() {
        let gate = netlist.gate(id);
        // Do not cross sequential boundaries except at the root: a flip-flop
        // *root* asks "what feeds my D pin", but a flip-flop found inside
        // the cone is a source and terminates traversal.
        if id != root && gate.kind.is_source() {
            continue;
        }
        for &input in &gate.inputs {
            if set.insert(input.index()) {
                stack.push(input);
            }
        }
    }
    set
}

/// The transitive fan-out cone of `root`, i.e. every gate whose value can be
/// combinationally influenced by `root`'s output.
///
/// Traversal stops at combinational sinks (primary outputs, flip-flop D
/// inputs, outbound TSVs): the sink is included but not crossed. `root`
/// itself is included.
pub fn fanout_cone(netlist: &Netlist, root: GateId) -> BitSet {
    let mut set = BitSet::new(netlist.len());
    let mut stack = vec![root];
    set.insert(root.index());
    while let Some(id) = stack.pop() {
        let gate = netlist.gate(id);
        if id != root && gate.kind.is_sink() {
            continue;
        }
        for &fo in netlist.fanout(id) {
            if set.insert(fo.index()) {
                stack.push(fo);
            }
        }
    }
    set
}

/// The fan-in and fan-out cones of every root, 64 roots per machine word
/// (see the module docs). Same sets as [`fanin_cone`] / [`fanout_cone`].
fn bit_parallel_cones(netlist: &Netlist, roots: &[GateId]) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = netlist.len();
    let mut fanin = vec![BitSet::new(n); roots.len()];
    let mut fanout = vec![BitSet::new(n); roots.len()];
    if roots.is_empty() {
        return (fanin, fanout);
    }
    // Every combinational gate comes after its drivers. Sequential gates
    // depend only on combinational words and on their own bit (they are
    // both sinks and sources), so they go last in both passes.
    let order = netlist.order();
    let is_seq = |g: &GateId| netlist.gate(*g).kind.is_sequential();
    let comb = || order.iter().filter(move |g| !is_seq(g));
    let seq = || order.iter().filter(move |g| is_seq(g));
    // A word per gate, padded to whole 64-gate blocks for the transpose.
    let words = n.div_ceil(64) * 64;
    let (mut own, mut fi, mut fo) = (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
    // What a gate passes on to the next gate of a pass: its whole word, or
    // only its own root bit where the walk may not cross it.
    let mut pass = vec![0u64; words];
    for (c, chunk) in roots.chunks(64).enumerate() {
        own.fill(0);
        for (k, root) in chunk.iter().enumerate() {
            own[root.index()] |= 1 << k;
        }
        pass.copy_from_slice(&own);
        for &g in comb().chain(seq()) {
            let gate = netlist.gate(g);
            let w = gate
                .inputs
                .iter()
                .fold(own[g.index()], |w, &i| w | pass[i.index()]);
            fo[g.index()] = w;
            if !gate.kind.is_sink() {
                pass[g.index()] = w;
            }
        }
        pass.copy_from_slice(&own);
        for &g in comb().rev().chain(seq()) {
            let fanout = netlist.fanout(g).iter();
            let w = fanout.fold(own[g.index()], |w, &f| w | pass[f.index()]);
            fi[g.index()] = w;
            if !netlist.gate(g).kind.is_source() {
                pass[g.index()] = w;
            }
        }
        // Row `k` of a transposed 64-gate block is word `b` of root `k`.
        for (rows, cones) in [(&fi, &mut fanin), (&fo, &mut fanout)] {
            for (b, block) in rows.chunks_exact(64).enumerate() {
                let mut block: [u64; 64] = block.try_into().expect("64-word block");
                transpose64(&mut block);
                for (cone, &word) in cones[c * 64..].iter_mut().zip(&block) {
                    cone.words_mut()[b] = word;
                }
            }
        }
    }
    (fanin, fanout)
}

/// Transpose a 64×64 bit matrix in place: bit `c` of row `r` trades
/// places with bit `r` of row `c` (recursive block swaps, six rounds).
fn transpose64(a: &mut [u64; 64]) {
    let (mut j, mut m) = (32, 0x0000_0000_FFFF_FFFFu64);
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k] ^= t << j;
            a[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Precomputed fan-in and fan-out cones for a set of roots; row `i` is
/// `roots[i]`.
///
/// Graph construction queries overlap between every (scan-FF, TSV) and
/// (TSV, TSV) pair; caching the cones turns the quadratic pair loop into
/// pure bitset intersections. The set also caches each cone's non-zero
/// word span, so overlap queries only walk the words where both cones can
/// have bits (DESIGN.md §11). Every word walked is tallied in a relaxed
/// atomic, readable via [`Self::word_ops`]; the tally is exact at any
/// thread count because it only ever accumulates.
#[derive(Debug)]
pub struct ConeSet {
    roots: Vec<GateId>,
    fanin: Vec<BitSet>,
    fanout: Vec<BitSet>,
    /// Non-zero word span (inclusive) per cone; never empty in practice
    /// since every cone contains its root, but stored as `(1, 0)` if so.
    fanin_span: Vec<(usize, usize)>,
    fanout_span: Vec<(usize, usize)>,
    index_of: std::collections::HashMap<GateId, usize>,
    word_ops: std::sync::atomic::AtomicU64,
}

impl ConeSet {
    /// Compute both cones (plus their spans) for each root in `roots`.
    pub fn compute(netlist: &Netlist, roots: &[GateId]) -> Self {
        let (fanin, fanout) = bit_parallel_cones(netlist, roots);
        let span_of = |set: &BitSet| set.nonzero_word_span().unwrap_or((1, 0));
        ConeSet {
            fanin_span: fanin.iter().map(span_of).collect(),
            fanout_span: fanout.iter().map(span_of).collect(),
            index_of: roots.iter().enumerate().map(|(i, &r)| (r, i)).collect(),
            roots: roots.to_vec(),
            fanin,
            fanout,
            word_ops: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The roots this set was computed for, in row order.
    pub fn roots(&self) -> &[GateId] {
        &self.roots
    }

    /// The row of `root`, if `root` was in the computed set (the last row
    /// holding it when it was given more than once).
    pub fn row_of(&self, root: GateId) -> Option<usize> {
        self.index_of.get(&root).copied()
    }

    /// Fan-in cone of `root`, if `root` was in the computed set.
    pub fn fanin(&self, root: GateId) -> Option<&BitSet> {
        self.index_of.get(&root).map(|&i| &self.fanin[i])
    }

    /// Fan-out cone of `root`, if `root` was in the computed set.
    pub fn fanout(&self, root: GateId) -> Option<&BitSet> {
        self.index_of.get(&root).map(|&i| &self.fanout[i])
    }

    /// Bitset words examined by overlap queries so far — the
    /// deterministic work counter behind `graph.cone_word_ops`.
    pub fn word_ops(&self) -> u64 {
        self.word_ops.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The rows of `a` and `b`, if both were in the computed set.
    fn rows(&self, a: GateId, b: GateId) -> Option<(usize, usize)> {
        Some((*self.index_of.get(&a)?, *self.index_of.get(&b)?))
    }

    /// The words inside both cones' non-zero spans, tallied as walked;
    /// `None` (nothing walked) when the spans are disjoint.
    fn clip(&self, spans: &[(usize, usize)], i: usize, j: usize) -> Option<(usize, usize)> {
        let lo = spans[i].0.max(spans[j].0);
        let hi = spans[i].1.min(spans[j].1);
        if lo > hi {
            return None;
        }
        let walked = (hi + 1 - lo) as u64;
        self.word_ops
            .fetch_add(walked, std::sync::atomic::Ordering::Relaxed);
        Some((lo, hi))
    }

    /// Span-clipped overlap test of rows `i` and `j` of one cone family.
    fn overlap(&self, cones: &[BitSet], spans: &[(usize, usize)], i: usize, j: usize) -> bool {
        self.clip(spans, i, j)
            .is_some_and(|(lo, hi)| cones[i].intersects_clipped(&cones[j], lo, hi))
    }

    /// Span-clipped intersection count of rows `i` and `j` of one family.
    fn overlap_count(
        &self,
        cones: &[BitSet],
        spans: &[(usize, usize)],
        i: usize,
        j: usize,
    ) -> usize {
        self.clip(spans, i, j).map_or(0, |(lo, hi)| {
            cones[i].intersection_count_clipped(&cones[j], lo, hi)
        })
    }

    /// Number of gates shared by the fan-in cones of `a` and `b`, or
    /// `None` if either root was not in the computed set.
    pub fn try_fanin_overlap_count(&self, a: GateId, b: GateId) -> Option<usize> {
        let (i, j) = self.rows(a, b)?;
        Some(self.overlap_count(&self.fanin, &self.fanin_span, i, j))
    }

    /// Number of gates shared by the fan-out cones of `a` and `b`, or
    /// `None` if either root was not in the computed set.
    pub fn try_fanout_overlap_count(&self, a: GateId, b: GateId) -> Option<usize> {
        let (i, j) = self.rows(a, b)?;
        Some(self.overlap_count(&self.fanout, &self.fanout_span, i, j))
    }

    /// The paper's "overlapped fan-in or fan-out cones" predicate
    /// (Algorithm 1 line 19), or `None` if either root was not in the
    /// computed set.
    pub fn try_cones_overlap(&self, a: GateId, b: GateId) -> Option<bool> {
        let (i, j) = self.rows(a, b)?;
        Some(self.cones_overlap_at(i, j))
    }

    /// [`Self::cones_overlap`] by row, with no lookup.
    ///
    /// # Panics
    ///
    /// Panics if either row is out of range.
    pub fn cones_overlap_at(&self, i: usize, j: usize) -> bool {
        self.overlap(&self.fanin, &self.fanin_span, i, j)
            || self.overlap(&self.fanout, &self.fanout_span, i, j)
    }

    /// `true` when the fan-in cones of `a` and `b` share any gate.
    ///
    /// # Panics
    ///
    /// Panics if either root was not in the computed set.
    pub fn fanin_overlaps(&self, a: GateId, b: GateId) -> bool {
        let (i, j) = self.rows(a, b).expect(NOT_A_ROOT);
        self.overlap(&self.fanin, &self.fanin_span, i, j)
    }

    /// `true` when the fan-out cones of `a` and `b` share any gate.
    ///
    /// # Panics
    ///
    /// Panics if either root was not in the computed set.
    pub fn fanout_overlaps(&self, a: GateId, b: GateId) -> bool {
        let (i, j) = self.rows(a, b).expect(NOT_A_ROOT);
        self.overlap(&self.fanout, &self.fanout_span, i, j)
    }

    /// The paper's "overlapped fan-in or fan-out cones" predicate
    /// (Algorithm 1 line 19).
    ///
    /// # Panics
    ///
    /// Panics if either root was not in the computed set; callers that
    /// cannot guarantee membership should use [`Self::try_cones_overlap`].
    pub fn cones_overlap(&self, a: GateId, b: GateId) -> bool {
        self.try_cones_overlap(a, b).expect(NOT_A_ROOT)
    }
}

const NOT_A_ROOT: &str = "both overlap roots must be in the computed cone set";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::gate::{Gate, GateKind};

    /// Two disjoint AND trees and one shared input.
    fn two_trees() -> (Netlist, GateId, GateId, GateId) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let g1 = b.gate(GateKind::And, &[a, c], "g1");
        let g2 = b.gate(GateKind::And, &[d, e], "g2");
        let o1 = b.output(g1, "o1");
        let o2 = b.output(g2, "o2");
        let n = b.finish().unwrap();
        let _ = (o1, o2);
        (n, g1, g2, a)
    }

    #[test]
    fn disjoint_cones_do_not_overlap() {
        let (n, g1, g2, _) = two_trees();
        let cones = ConeSet::compute(&n, &[g1, g2]);
        assert!(!cones.fanin_overlaps(g1, g2));
        assert!(!cones.fanout_overlaps(g1, g2));
        assert!(!cones.cones_overlap(g1, g2));
    }

    #[test]
    fn fanin_contains_inputs() {
        let (n, g1, _, a) = two_trees();
        let cone = fanin_cone(&n, g1);
        assert!(cone.contains(a.index()));
        assert!(cone.contains(g1.index()));
        assert_eq!(cone.count(), 3); // a, b, g1
    }

    #[test]
    fn fanout_reaches_outputs() {
        let (n, g1, _, a) = two_trees();
        let cone = fanout_cone(&n, a);
        assert!(cone.contains(g1.index()));
        let o1 = n.find("o1").unwrap();
        assert!(cone.contains(o1.index()));
        assert!(!cone.contains(n.find("g2").unwrap().index()));
    }

    #[test]
    fn cones_stop_at_flip_flops() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, &[a], "g1");
        let q = b.dff(g1, "q");
        let g2 = b.gate(GateKind::Not, &[q], "g2");
        b.output(g2, "o");
        let n = b.finish().unwrap();
        let q_id = n.find("q").unwrap();
        let g2_id = n.find("g2").unwrap();

        // Fan-in of g2 stops at the flip-flop: includes q, not g1 or a.
        let cone = fanin_cone(&n, g2_id);
        assert!(cone.contains(q_id.index()));
        assert!(!cone.contains(n.find("g1").unwrap().index()));

        // Fan-in of the flip-flop itself crosses to its D logic.
        let cone_q = fanin_cone(&n, q_id);
        assert!(cone_q.contains(n.find("g1").unwrap().index()));
        assert!(cone_q.contains(n.find("a").unwrap().index()));

        // Fan-out of g1 stops at the flip-flop.
        let cone_f = fanout_cone(&n, n.find("g1").unwrap());
        assert!(cone_f.contains(q_id.index()));
        assert!(!cone_f.contains(g2_id.index()));
    }

    #[test]
    fn try_variants_return_none_for_unknown_roots() {
        let (n, g1, g2, a) = two_trees();
        let cones = ConeSet::compute(&n, &[g1, g2]);
        assert_eq!(cones.try_fanin_overlap_count(g1, a), None);
        assert_eq!(cones.try_fanout_overlap_count(a, g2), None);
        assert_eq!(cones.try_cones_overlap(a, a), None);
        assert_eq!(cones.try_cones_overlap(g1, g2), Some(false));
    }

    #[test]
    fn shared_input_overlaps_fanin() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let g1 = b.gate(GateKind::And, &[a, c], "g1");
        let g2 = b.gate(GateKind::And, &[a, d], "g2");
        b.output(g1, "o1");
        b.output(g2, "o2");
        let n = b.finish().unwrap();
        let cones = ConeSet::compute(&n, &[g1, g2]);
        assert!(cones.fanin_overlaps(g1, g2));
        assert!(cones.cones_overlap(g1, g2));
    }

    /// A miniature of `dft::testable::apply`: each inbound TSV feeds its
    /// logic through a mux behind a dedicated `Wrapper` cell that observes
    /// the driver of the outbound TSV it is paired with, and the first scan
    /// flip-flop is reused to observe the first outbound TSV's driver
    /// through an XOR and a capture mux. One more cell captures that
    /// flip-flop and drives the second scan flip-flop's D directly, so
    /// flip-flops feed flip-flops in both id orders.
    fn wrapped(die: &Netlist) -> Netlist {
        let mut gates: Vec<Gate> = die.iter().map(|(_, g)| g.clone()).collect();
        let push = |gates: &mut Vec<Gate>, kind, inputs: Vec<GateId>| {
            gates.push(Gate::new(format!("w{}", gates.len()), kind, inputs));
            GateId(gates.len() as u32 - 1)
        };
        let test_en = push(&mut gates, GateKind::Input, vec![]);
        let outbound = die.outbound_tsvs();
        let mut mux_of = std::collections::HashMap::new();
        for (&t_in, &t_out) in die.inbound_tsvs().iter().zip(&outbound) {
            let tap = gates[t_out.index()].inputs[0];
            let cell = push(&mut gates, GateKind::Wrapper, vec![tap]);
            mux_of.insert(
                t_in,
                push(&mut gates, GateKind::Mux2, vec![t_in, cell, test_en]),
            );
        }
        for gate in &mut gates[..die.len()] {
            for input in &mut gate.inputs {
                *input = mux_of.get(input).copied().unwrap_or(*input);
            }
        }
        let ffs = die.of_kind(GateKind::ScanDff);
        let (func_d, tap) = (
            gates[ffs[0].index()].inputs[0],
            die.gate(outbound[0]).inputs[0],
        );
        let xor = push(&mut gates, GateKind::Xor, vec![func_d, tap]);
        let dmux = push(&mut gates, GateKind::Mux2, vec![func_d, xor, test_en]);
        gates[ffs[0].index()].inputs = vec![dmux];
        let hop = push(&mut gates, GateKind::Wrapper, vec![ffs[0]]);
        gates[ffs[1].index()].inputs = vec![hop];
        Netlist::from_gates("wrapped", gates).unwrap()
    }

    /// The kernel's cones equal the per-root walks for every row. Each row
    /// query and each span-clipped `GateId` query, per cone family and
    /// combined, answers what full-width `BitSet` operations on the walks'
    /// cones answer, and a row query tallies the words its `GateId` form
    /// tallies.
    fn assert_kernel_matches_walks(n: &Netlist, roots: &[GateId]) {
        let cones = ConeSet::compute(n, roots);
        assert_eq!(cones.roots(), roots);
        let walks: Vec<_> = roots
            .iter()
            .map(|&r| (fanin_cone(n, r), fanout_cone(n, r)))
            .collect();
        for (i, &a) in roots.iter().enumerate() {
            let (fi, fo) = &walks[i];
            assert_eq!(&cones.fanin[i], fi, "{}: fan-in of {a:?}", n.name());
            assert_eq!(&cones.fanout[i], fo, "{}: fan-out of {a:?}", n.name());
            for (j, &b) in roots.iter().enumerate() {
                let fam = (fi.intersects(&walks[j].0), fo.intersects(&walks[j].1));
                let (truth, before) = (fam.0 || fam.1, cones.word_ops());
                assert_eq!(cones.cones_overlap_at(i, j), truth, "rows {i}, {j}");
                let row_words = cones.word_ops() - before;
                assert_eq!(cones.cones_overlap(a, b), truth, "{a:?}, {b:?}");
                assert_eq!(cones.word_ops() - before, 2 * row_words, "rows {i}, {j}");
                let by_family = (cones.fanin_overlaps(a, b), cones.fanout_overlaps(a, b));
                assert_eq!(by_family, fam, "{a:?}, {b:?}");
                let counts = (
                    fi.intersection_count(&walks[j].0),
                    fo.intersection_count(&walks[j].1),
                );
                assert_eq!(cones.try_fanin_overlap_count(a, b), Some(counts.0));
                assert_eq!(cones.try_fanout_overlap_count(a, b), Some(counts.1));
            }
        }
        // A root's cones share its own word, so any root set tallies words.
        assert_eq!(cones.word_ops() > 0, !roots.is_empty(), "{}", n.name());
    }

    /// Seeded random dies and their wrapped versions, with roots of every
    /// kind (scan FF, inbound and outbound TSV, PI, PO, wrapper cell,
    /// internal gate) at counts around the 64-root chunk boundaries, plus
    /// a duplicated root.
    #[test]
    fn bit_parallel_kernel_matches_the_per_root_walks() {
        let mut rng = prebond3d_rng::StdRng::seed_from_u64(0x0B17_C0DE);
        for case in 0..3u64 {
            let spec = crate::itc99::DieSpec {
                name: format!("kernel{case}"),
                scan_flip_flops: rng.gen_range(8usize..24),
                gates: rng.gen_range(150usize..300),
                inbound_tsvs: rng.gen_range(2usize..10),
                outbound_tsvs: rng.gen_range(2usize..10),
                primary_inputs: 4,
                primary_outputs: 4,
                seed: rng.gen_range(0u64..10_000),
            };
            let die = crate::itc99::generate_die(&spec);
            for n in [wrapped(&die), die] {
                let mut by_kind: Vec<Vec<GateId>> = [
                    GateKind::ScanDff,
                    GateKind::TsvIn,
                    GateKind::TsvOut,
                    GateKind::Input,
                    GateKind::Output,
                    GateKind::Wrapper,
                ]
                .into_iter()
                .map(|k| n.of_kind(k))
                .collect();
                by_kind.push(
                    n.ids()
                        .filter(|&g| n.gate(g).kind.is_combinational())
                        .collect(),
                );
                by_kind.retain(|ids| !ids.is_empty());
                // Round-robin over the kinds, so every kind is in the first
                // few roots and the larger counts repeat some.
                let pick = |r: usize| {
                    let ids = &by_kind[r % by_kind.len()];
                    ids[(r / by_kind.len()) % ids.len()]
                };
                for count in [0, 1, 63, 64, 65, 130] {
                    let roots: Vec<GateId> = (0..count).map(pick).collect();
                    assert_kernel_matches_walks(&n, &roots);
                }
                assert_kernel_matches_walks(&n, &[pick(0), pick(6), pick(0)]);
            }
        }
    }
}
