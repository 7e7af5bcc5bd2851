//! Fan-in / fan-out cone computation.
//!
//! The paper's edge-construction rule (Algorithm 1, line 19) admits an edge
//! between a scan flip-flop and a TSV outright when their fan-in/fan-out
//! cones do **not** overlap, and only then falls back to the testability
//! probe. Cones are therefore on the hot path of graph construction; they
//! are represented as [`BitSet`]s over gate ids so overlap tests are a few
//! word-AND operations.

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

/// Precomputed fan-in and fan-out cones for a set of roots.
///
/// Graph construction queries overlap between every (scan-FF, TSV) and
/// (TSV, TSV) pair; caching the cones turns the quadratic pair loop into
/// pure bitset intersections. On top of the raw cones the set caches each
/// cone's non-zero word span and population at compute time, so overlap
/// queries only walk the words where both cones can have bits (DESIGN.md
/// §11). Every word actually examined is tallied in a relaxed atomic,
/// readable via [`Self::word_ops`]; the tally is exact at any thread
/// count because it only ever accumulates.
#[derive(Debug)]
pub struct ConeSet {
    roots: Vec<GateId>,
    fanin: Vec<BitSet>,
    fanout: Vec<BitSet>,
    /// Non-zero word span (inclusive) per cone; never `None` in practice
    /// since every cone contains its root, but stored clipped-empty-safe.
    fanin_span: Vec<(usize, usize)>,
    fanout_span: Vec<(usize, usize)>,
    fanin_pop: Vec<usize>,
    fanout_pop: Vec<usize>,
    index_of: std::collections::HashMap<GateId, usize>,
    word_ops: std::sync::atomic::AtomicU64,
}

impl Clone for ConeSet {
    fn clone(&self) -> Self {
        ConeSet {
            roots: self.roots.clone(),
            fanin: self.fanin.clone(),
            fanout: self.fanout.clone(),
            fanin_span: self.fanin_span.clone(),
            fanout_span: self.fanout_span.clone(),
            fanin_pop: self.fanin_pop.clone(),
            fanout_pop: self.fanout_pop.clone(),
            index_of: self.index_of.clone(),
            word_ops: std::sync::atomic::AtomicU64::new(
                self.word_ops.load(std::sync::atomic::Ordering::Relaxed),
            ),
        }
    }
}

impl ConeSet {
    /// Compute both cones (plus their spans and populations) for each
    /// root in `roots`.
    pub fn compute(netlist: &Netlist, roots: &[GateId]) -> Self {
        let mut index_of = std::collections::HashMap::with_capacity(roots.len());
        let mut fanin = Vec::with_capacity(roots.len());
        let mut fanout = Vec::with_capacity(roots.len());
        for (i, &root) in roots.iter().enumerate() {
            index_of.insert(root, i);
            fanin.push(fanin_cone(netlist, root));
            fanout.push(fanout_cone(netlist, root));
        }
        let span_of = |set: &BitSet| set.nonzero_word_span().unwrap_or((1, 0));
        ConeSet {
            fanin_span: fanin.iter().map(span_of).collect(),
            fanout_span: fanout.iter().map(span_of).collect(),
            fanin_pop: fanin.iter().map(BitSet::count).collect(),
            fanout_pop: fanout.iter().map(BitSet::count).collect(),
            roots: roots.to_vec(),
            fanin,
            fanout,
            index_of,
            word_ops: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The roots this set was computed for.
    pub fn roots(&self) -> &[GateId] {
        &self.roots
    }

    /// Fan-in cone of `root`, if `root` was in the computed set.
    pub fn fanin(&self, root: GateId) -> Option<&BitSet> {
        self.index_of.get(&root).map(|&i| &self.fanin[i])
    }

    /// Fan-out cone of `root`, if `root` was in the computed set.
    pub fn fanout(&self, root: GateId) -> Option<&BitSet> {
        self.index_of.get(&root).map(|&i| &self.fanout[i])
    }

    /// Cached population of `root`'s fan-in cone.
    pub fn fanin_population(&self, root: GateId) -> Option<usize> {
        self.index_of.get(&root).map(|&i| self.fanin_pop[i])
    }

    /// Cached population of `root`'s fan-out cone.
    pub fn fanout_population(&self, root: GateId) -> Option<usize> {
        self.index_of.get(&root).map(|&i| self.fanout_pop[i])
    }

    /// Bitset words examined by overlap queries so far — the
    /// deterministic work counter behind `graph.cone_word_ops`.
    pub fn word_ops(&self) -> u64 {
        self.word_ops.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Span-clipped overlap test over one cone family: only the words
    /// inside both cones' non-zero spans are walked (zero when the spans
    /// are disjoint).
    fn overlap(&self, cones: &[BitSet], spans: &[(usize, usize)], i: usize, j: usize) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        let (a, b) = (&cones[i], &cones[j]);
        let lo = spans[i].0.max(spans[j].0);
        let hi = spans[i].1.min(spans[j].1);
        if lo > hi {
            return false;
        }
        let walked = (hi + 1).min(a.words().len()).min(b.words().len()) - lo;
        self.word_ops.fetch_add(walked as u64, Relaxed);
        a.intersects_clipped(b, lo, hi)
    }

    /// Span-clipped intersection count over one cone family; same walking
    /// discipline as [`Self::overlap`].
    fn overlap_count(
        &self,
        cones: &[BitSet],
        spans: &[(usize, usize)],
        i: usize,
        j: usize,
    ) -> usize {
        use std::sync::atomic::Ordering::Relaxed;
        let (a, b) = (&cones[i], &cones[j]);
        let lo = spans[i].0.max(spans[j].0);
        let hi = spans[i].1.min(spans[j].1);
        if lo > hi {
            return 0;
        }
        let walked = (hi + 1).min(a.words().len()).min(b.words().len()) - lo;
        self.word_ops.fetch_add(walked as u64, Relaxed);
        a.intersection_count_clipped(b, lo, hi)
    }

    /// `true` when the fan-in cones of `a` and `b` share any gate, or
    /// `None` if either root was not in the computed set.
    pub fn try_fanin_overlaps(&self, a: GateId, b: GateId) -> Option<bool> {
        let (&i, &j) = (self.index_of.get(&a)?, self.index_of.get(&b)?);
        Some(self.overlap(&self.fanin, &self.fanin_span, i, j))
    }

    /// `true` when the fan-out cones of `a` and `b` share any gate, or
    /// `None` if either root was not in the computed set.
    pub fn try_fanout_overlaps(&self, a: GateId, b: GateId) -> Option<bool> {
        let (&i, &j) = (self.index_of.get(&a)?, self.index_of.get(&b)?);
        Some(self.overlap(&self.fanout, &self.fanout_span, i, j))
    }

    /// Number of gates shared by the fan-in cones of `a` and `b`, or
    /// `None` if either root was not in the computed set.
    pub fn try_fanin_overlap_count(&self, a: GateId, b: GateId) -> Option<usize> {
        let (&i, &j) = (self.index_of.get(&a)?, self.index_of.get(&b)?);
        Some(self.overlap_count(&self.fanin, &self.fanin_span, i, j))
    }

    /// Number of gates shared by the fan-out cones of `a` and `b`, or
    /// `None` if either root was not in the computed set.
    pub fn try_fanout_overlap_count(&self, a: GateId, b: GateId) -> Option<usize> {
        let (&i, &j) = (self.index_of.get(&a)?, self.index_of.get(&b)?);
        Some(self.overlap_count(&self.fanout, &self.fanout_span, i, j))
    }

    /// The paper's "overlapped fan-in or fan-out cones" predicate
    /// (Algorithm 1 line 19), or `None` if either root was not in the
    /// computed set.
    pub fn try_cones_overlap(&self, a: GateId, b: GateId) -> Option<bool> {
        Some(self.try_fanin_overlaps(a, b)? || self.try_fanout_overlaps(a, b)?)
    }

    /// `true` when the fan-in cones of `a` and `b` share any gate.
    ///
    /// # Panics
    ///
    /// Panics if either root was not in the computed set; callers that
    /// cannot guarantee membership should use [`Self::try_fanin_overlaps`].
    pub fn fanin_overlaps(&self, a: GateId, b: GateId) -> bool {
        self.try_fanin_overlaps(a, b)
            .expect("both overlap roots must be in the computed cone set")
    }

    /// `true` when the fan-out cones of `a` and `b` share any gate.
    ///
    /// # Panics
    ///
    /// Panics if either root was not in the computed set; callers that
    /// cannot guarantee membership should use [`Self::try_fanout_overlaps`].
    pub fn fanout_overlaps(&self, a: GateId, b: GateId) -> bool {
        self.try_fanout_overlaps(a, b)
            .expect("both overlap roots must be in the computed cone set")
    }

    /// The paper's "overlapped fan-in or fan-out cones" predicate
    /// (Algorithm 1 line 19): `true` when either cone pair intersects
    /// beyond the trivial case.
    ///
    /// # Panics
    ///
    /// Panics if either root was not in the computed set; callers that
    /// cannot guarantee membership should use [`Self::try_cones_overlap`].
    pub fn cones_overlap(&self, a: GateId, b: GateId) -> bool {
        self.try_cones_overlap(a, b)
            .expect("both overlap roots must be in the computed cone set")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::gate::GateKind;

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
        assert_eq!(cones.try_fanin_overlaps(g1, a), None);
        assert_eq!(cones.try_fanout_overlaps(a, g2), None);
        assert_eq!(cones.try_cones_overlap(a, a), None);
        assert_eq!(cones.try_cones_overlap(g1, g2), Some(false));
    }

    /// The span-clipped queries answer exactly what the plain full-width
    /// `BitSet` operations on the stored cones answer, over every root
    /// pair of seeded random dies, and the work tally counts what they
    /// walked.
    #[test]
    fn span_clipped_queries_match_full_width_bitset_ops() {
        let mut rng = prebond3d_rng::StdRng::seed_from_u64(0xC0DE_5EED);
        for case in 0..4u64 {
            let spec = crate::itc99::DieSpec {
                name: format!("cone_sweep{case}"),
                scan_flip_flops: rng.gen_range(4usize..20),
                gates: rng.gen_range(60usize..260),
                inbound_tsvs: rng.gen_range(2usize..10),
                outbound_tsvs: rng.gen_range(2usize..10),
                primary_inputs: 4,
                primary_outputs: 4,
                seed: rng.gen_range(0u64..10_000),
            };
            let n = crate::itc99::generate_die(&spec);
            let mut roots = n.flip_flops();
            roots.extend(n.inbound_tsvs());
            roots.extend(n.outbound_tsvs());
            let cones = ConeSet::compute(&n, &roots);
            for &a in &roots {
                let (fia, foa) = (cones.fanin(a).unwrap(), cones.fanout(a).unwrap());
                assert_eq!(cones.fanin_population(a), Some(fia.count()));
                assert_eq!(cones.fanout_population(a), Some(foa.count()));
                for &b in &roots {
                    let (fib, fob) = (cones.fanin(b).unwrap(), cones.fanout(b).unwrap());
                    assert_eq!(cones.try_fanin_overlaps(a, b), Some(fia.intersects(fib)));
                    assert_eq!(cones.try_fanout_overlaps(a, b), Some(foa.intersects(fob)));
                    assert_eq!(
                        cones.try_fanin_overlap_count(a, b),
                        Some(fia.intersection_count(fib))
                    );
                    assert_eq!(
                        cones.try_fanout_overlap_count(a, b),
                        Some(foa.intersection_count(fob))
                    );
                }
            }
            assert!(
                cones.word_ops() > 0,
                "case {case}: queries tally their words"
            );
            // Cloning carries the tally forward.
            assert_eq!(cones.clone().word_ops(), cones.word_ops());
        }
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
}
