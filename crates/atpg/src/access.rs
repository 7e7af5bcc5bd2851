//! The test access model: what a tester can control and observe.
//!
//! Pre-bond, a die is tested through its pads and scan chain only. The
//! access model classifies every netlist node:
//!
//! * **controllable sources** — primary inputs, scan flip-flops and wrapper
//!   cells: the tester sets their value each test cycle;
//! * **uncontrollable sources** — unwrapped inbound TSVs (floating before
//!   bonding) and plain flip-flops: permanent X;
//! * **observation points** — primary outputs, scan flip-flop / wrapper
//!   cell D-inputs; unwrapped outbound TSVs observe nothing;
//! * **pinned nodes** — test-mode configuration inputs (e.g. a `test_en`
//!   signal) frozen to a constant in every pattern.

use prebond3d_dataflow::AccessView;
use prebond3d_netlist::{BitSet, GateId, GateKind, Netlist};

/// Test access description for one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct TestAccess {
    /// Controllable source nodes, in pattern-bit order.
    controllable: Vec<GateId>,
    /// Membership/rank lookup for `controllable`.
    control_rank: Vec<Option<u32>>,
    /// Observation points: nodes whose *output value* the tester compares.
    /// For sequential observers this is the value captured at the D pin,
    /// i.e. the FF's driver; the conversion happens at construction.
    observed: Vec<GateId>,
    observed_set: BitSet,
    /// Nodes frozen to constants in every pattern.
    pinned: Vec<(GateId, bool)>,
}

impl TestAccess {
    /// Standard pre-bond full-scan access:
    ///
    /// * controllable: [`GateKind::Input`], [`GateKind::ScanDff`],
    ///   [`GateKind::Wrapper`];
    /// * observed: drivers of [`GateKind::Output`], and of scan/wrapper
    ///   D-pins;
    /// * unwrapped [`GateKind::TsvIn`]/[`GateKind::TsvOut`] endpoints are
    ///   neither.
    pub fn full_scan(netlist: &Netlist) -> Self {
        let mut controllable = Vec::new();
        let mut observed = Vec::new();
        for (id, gate) in netlist.iter() {
            match gate.kind {
                GateKind::Input | GateKind::ScanDff | GateKind::Wrapper => {
                    controllable.push(id);
                }
                _ => {}
            }
            match gate.kind {
                GateKind::Output | GateKind::ScanDff | GateKind::Wrapper => {
                    observed.push(gate.inputs[0]);
                }
                _ => {}
            }
        }
        observed.sort_unstable();
        observed.dedup();
        Self::new(netlist, controllable, observed, Vec::new())
    }

    /// Build a custom access model.
    ///
    /// `observed` entries are node ids whose output value is compared
    /// directly (callers converting a sink pin should pass the pin's
    /// driver).
    ///
    /// # Panics
    ///
    /// Panics if a controllable node is not a source kind.
    pub fn new(
        netlist: &Netlist,
        controllable: Vec<GateId>,
        observed: Vec<GateId>,
        pinned: Vec<(GateId, bool)>,
    ) -> Self {
        let mut control_rank = vec![None; netlist.len()];
        for (rank, &id) in controllable.iter().enumerate() {
            assert!(
                netlist.gate(id).kind.is_source(),
                "controllable node {} must be a source",
                netlist.gate(id).name
            );
            control_rank[id.index()] = Some(rank as u32);
        }
        let mut observed_set = BitSet::new(netlist.len());
        for &id in &observed {
            observed_set.insert(id.index());
        }
        TestAccess {
            controllable,
            control_rank,
            observed,
            observed_set,
            pinned,
        }
    }

    /// Pin `node` to `value` in every generated pattern (e.g. `test_en`).
    ///
    /// The node must already be controllable.
    pub fn pin(&mut self, node: GateId, value: bool) {
        assert!(
            self.control_rank[node.index()].is_some(),
            "pinned node must be controllable"
        );
        self.pinned.push((node, value));
    }

    /// Controllable sources in pattern-bit order.
    pub fn controllable(&self) -> &[GateId] {
        &self.controllable
    }

    /// Pattern-bit rank of `node`, if controllable.
    pub fn rank_of(&self, node: GateId) -> Option<usize> {
        self.control_rank[node.index()].map(|r| r as usize)
    }

    /// Observation points (values compared by the tester).
    pub fn observed(&self) -> &[GateId] {
        &self.observed
    }

    /// `true` when `node`'s output value is directly observed.
    pub fn is_observed(&self, node: GateId) -> bool {
        self.observed_set.contains(node.index())
    }

    /// Frozen test-mode assignments.
    pub fn pinned(&self) -> &[(GateId, bool)] {
        &self.pinned
    }

    /// Number of pattern bits.
    pub fn width(&self) -> usize {
        self.controllable.len()
    }

    /// The per-net view the SCOAP scoring pass reads: a net is
    /// controllable when it has a pattern bit (pinned nodes included) and
    /// observed when the tester compares it.
    pub fn view(&self) -> AccessView {
        AccessView {
            controllable: self.control_rank.iter().map(Option::is_some).collect(),
            observed: (0..self.control_rank.len())
                .map(|i| self.observed_set.contains(i))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::NetlistBuilder;

    fn die() -> Netlist {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let ti = b.tsv_in("ti");
        let g = b.gate(GateKind::And, &[a, ti], "g");
        let q = b.scan_dff(g, "q");
        let g2 = b.gate(GateKind::Or, &[q, a], "g2");
        b.tsv_out(g2, "to");
        b.output(g2, "o");
        b.finish().unwrap()
    }

    #[test]
    fn full_scan_classification() {
        let n = die();
        let acc = TestAccess::full_scan(&n);
        let a = n.find("a").unwrap();
        let ti = n.find("ti").unwrap();
        let q = n.find("q").unwrap();
        let g = n.find("g").unwrap();
        let g2 = n.find("g2").unwrap();
        // a and q controllable; ti not.
        assert!(acc.rank_of(a).is_some());
        assert!(acc.rank_of(q).is_some());
        assert!(acc.rank_of(ti).is_none());
        assert_eq!(acc.width(), 2);
        // g observed (q's D); g2 observed (o's driver); TsvOut side not
        // separately observed.
        assert!(acc.is_observed(g));
        assert!(acc.is_observed(g2));
        assert!(!acc.is_observed(ti));
        assert_eq!(acc.observed().len(), 2);
    }

    #[test]
    fn pinning_requires_controllability() {
        let n = die();
        let mut acc = TestAccess::full_scan(&n);
        let a = n.find("a").unwrap();
        acc.pin(a, true);
        assert_eq!(acc.pinned(), &[(a, true)]);
    }

    #[test]
    #[should_panic(expected = "must be controllable")]
    fn pinning_uncontrollable_panics() {
        let n = die();
        let mut acc = TestAccess::full_scan(&n);
        acc.pin(n.find("ti").unwrap(), true);
    }

    /// SCOAP under a custom access model: a pinned `test_en`, an unscanned
    /// flip-flop and an unwrapped outbound TSV, measures computed by hand.
    #[test]
    fn view_drives_scoap_under_a_custom_access_model() {
        use prebond3d_dataflow::scoring::{Scores, INF};
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let te = b.input("test_en");
        let m = b.gate(GateKind::And, &[a, te], "m");
        let q = b.dff(m, "q"); // unscanned: uncontrollable, captures nothing
        let g = b.gate(GateKind::Or, &[q, a], "g");
        b.output(g, "o");
        let h = b.gate(GateKind::Not, &[m], "h");
        b.tsv_out(h, "to"); // unwrapped: observes nothing
        let p = b.gate(GateKind::Nand, &[a, te], "p");
        b.output(p, "op");
        let n = b.finish().unwrap();
        let mut acc = TestAccess::full_scan(&n);
        acc.pin(te, true);
        let view = acc.view();
        assert!(
            view.controllable[te.index()],
            "pinned inputs keep their bit"
        );
        assert!(!view.controllable[q.index()]);
        assert!(view.observed[g.index()]);
        assert!(!view.observed[m.index()] && !view.observed[h.index()]);

        let s = Scores::compute(&n, &view);
        let cc = |id: GateId| (s.cc0[id.index()], s.cc1[id.index()]);
        assert_eq!(cc(a), (1, 1));
        assert_eq!(cc(te), (1, 1));
        assert_eq!(cc(q), (INF, INF));
        // m = a & test_en: cc0 = min(1, 1) + 1, cc1 = 1 + 1 + 1.
        assert_eq!(cc(m), (2, 3));
        // h = !m swaps m's costs, plus one.
        assert_eq!(cc(h), (4, 3));
        // g = q | a: cc0 needs q = 0 (INF); cc1 = min(INF, 1) + 1.
        assert_eq!(cc(g), (INF, 2));
        // p = !(a & test_en): cc0 = 1 + 1 + 1, cc1 = min(1, 1) + 1.
        assert_eq!(cc(p), (3, 2));
        assert_eq!(s.co[g.index()], 0);
        assert_eq!(s.co[p.index()], 0);
        // m's only observers are the unscanned Dff and the unwrapped TSV.
        assert_eq!(s.co[m.index()], INF);
        assert_eq!(s.co[h.index()], INF);
        // a through g needs q = 0 (INF); through p it needs test_en = 1:
        // co = 0 + cc1(test_en) + 1. Symmetrically for test_en.
        assert_eq!(s.co[a.index()], 2);
        assert_eq!(s.co[te.index()], 2);
        assert_eq!(s.detect_cost(m, true), INF);
        assert_eq!(s.detect_cost(a, false), 3);
    }

    #[test]
    #[should_panic(expected = "must be a source")]
    fn controllable_must_be_source() {
        let n = die();
        let g = n.find("g").unwrap();
        TestAccess::new(&n, vec![g], vec![], vec![]);
    }
}
