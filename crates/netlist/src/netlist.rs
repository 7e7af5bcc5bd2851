//! The netlist container: a validated single-output gate DAG that owns its
//! topology (fanout and combinational order).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::error::NetlistError;
use crate::gate::{Gate, GateId, GateKind};
use crate::stats::NetlistStats;

/// A validated gate-level netlist.
///
/// Construct through [`crate::NetlistBuilder`] or the text format parser
/// ([`crate::format::parse`]); both enforce the structural invariants:
///
/// * every gate's arity matches its [`GateKind`],
/// * all input references resolve and point at driving kinds,
/// * instance names are unique,
/// * the combinational subgraph is acyclic.
///
/// Validation leaves two facts every pass borrows: the fanout of each gate
/// ([`Self::fanout`]) and the combinational order ([`Self::order`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    /// Fan-out CSR: the consumers of gate `i` are
    /// `fanout[fanout_start[i]..fanout_start[i + 1]]`, in ascending id order.
    fanout_start: Vec<u32>,
    fanout: Vec<GateId>,
    /// Every gate once, each combinational gate after its drivers.
    order: Vec<GateId>,
    name_index: HashMap<String, GateId>,
}

impl Netlist {
    /// Assemble and validate a netlist from parts. Used by the builder and
    /// parser; library users normally go through [`crate::NetlistBuilder`].
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant.
    pub fn from_gates(name: impl Into<String>, gates: Vec<Gate>) -> Result<Self, NetlistError> {
        let name = name.into();
        let mut name_index = HashMap::with_capacity(gates.len());
        for (i, gate) in gates.iter().enumerate() {
            if gate.inputs.len() != gate.kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    gate: gate.name.clone(),
                    kind: gate.kind,
                    got: gate.inputs.len(),
                });
            }
            if name_index
                .insert(gate.name.clone(), GateId(i as u32))
                .is_some()
            {
                return Err(NetlistError::DuplicateName(gate.name.clone()));
            }
        }
        let mut fanout_start = vec![0u32; gates.len() + 1];
        for gate in &gates {
            for &input in &gate.inputs {
                let driver = gates
                    .get(input.index())
                    .ok_or(NetlistError::DanglingInput {
                        gate: gate.name.clone(),
                        input,
                    })?;
                if matches!(driver.kind, GateKind::Output | GateKind::TsvOut) {
                    return Err(NetlistError::NonDrivingInput {
                        gate: gate.name.clone(),
                        driver: driver.name.clone(),
                    });
                }
                fanout_start[input.index() + 1] += 1;
            }
        }
        for i in 1..fanout_start.len() {
            fanout_start[i] += fanout_start[i - 1];
        }
        // Filling in consumer id order keeps each slice ascending.
        let mut fanout = vec![GateId(0); fanout_start[gates.len()] as usize];
        let mut cursor = fanout_start[..gates.len()].to_vec();
        for (i, gate) in gates.iter().enumerate() {
            for &input in &gate.inputs {
                let slot = &mut cursor[input.index()];
                fanout[*slot as usize] = GateId(i as u32);
                *slot += 1;
            }
        }
        let mut netlist = Netlist {
            name,
            gates,
            fanout_start,
            fanout,
            order: Vec::new(),
            name_index,
        };
        netlist.order = netlist.combinational_order()?;
        Ok(netlist)
    }

    /// Kahn's algorithm over combinational edges only, taking the smallest
    /// ready id first so the order is deterministic. Sequential outputs are
    /// sources, so flip-flop "loops" are legal; a gate left unordered lies
    /// on or behind a combinational cycle.
    fn combinational_order(&self) -> Result<Vec<GateId>, NetlistError> {
        let n = self.gates.len();
        let mut indeg: Vec<usize> = self
            .gates
            .iter()
            .map(|g| {
                if g.kind.is_source() {
                    0
                } else {
                    g.inputs.len()
                }
            })
            .collect();
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| indeg[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(GateId(i as u32));
            for &fo in self.fanout(GateId(i as u32)) {
                let j = fo.index();
                if self.gates[j].kind.is_sequential() {
                    continue;
                }
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(Reverse(j));
                }
            }
        }
        if order.len() == n {
            return Ok(order);
        }
        // An unordered gate has an unordered input, so following those
        // from any unordered gate must revisit one: that gate is on a cycle.
        let mut seen = vec![false; n];
        let mut i = indeg
            .iter()
            .position(|&d| d > 0)
            .expect("a gate is unordered");
        while !seen[i] {
            seen[i] = true;
            i = self.gates[i]
                .inputs
                .iter()
                .map(|input| input.index())
                .find(|&j| indeg[j] > 0)
                .expect("an unordered gate has an unordered input");
        }
        Err(NetlistError::CombinationalCycle(self.gates[i].name.clone()))
    }

    /// The netlist (module) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (nodes) including ports and TSV endpoints.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// `true` when the netlist has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Access a gate by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Access a gate by id, `None` if out of range.
    pub fn get(&self, id: GateId) -> Option<&Gate> {
        self.gates.get(id.index())
    }

    /// Look up a gate id by instance name.
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.name_index.get(name).copied()
    }

    /// Iterate over `(GateId, &Gate)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (GateId(i as u32), g))
    }

    /// All gate ids in id order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len() as u32).map(GateId)
    }

    /// Gates consuming `id`'s output, in ascending id order (a gate that
    /// reads `id` on two pins appears twice).
    #[inline]
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        let i = id.index();
        &self.fanout[self.fanout_start[i] as usize..self.fanout_start[i + 1] as usize]
    }

    /// Every gate exactly once, sources first (primary inputs, constants,
    /// flip-flop outputs, inbound TSVs) and every combinational gate after
    /// all of its drivers; among ready gates the smallest id comes first.
    /// A sequential gate appears as a source (its Q pin); its D-pin side is
    /// read like any other sink's. Evaluating gates in this order is a
    /// complete single-cycle simulation.
    #[inline]
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Combinational logic level of every gate: sources (flip-flops
    /// included) are level 0 and every other gate is one more than its
    /// deepest driver. Derived from [`Self::order`] on each call.
    pub fn levels(&self) -> Vec<u32> {
        let mut level = vec![0u32; self.len()];
        for &id in &self.order {
            let gate = self.gate(id);
            if !gate.kind.is_source() {
                level[id.index()] = gate
                    .inputs
                    .iter()
                    .map(|&i| level[i.index()] + 1)
                    .max()
                    .unwrap_or(0);
            }
        }
        level
    }

    /// Ids of all gates of the given kind, in id order.
    pub fn of_kind(&self, kind: GateKind) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind == kind)
            .map(|(id, _)| id)
            .collect()
    }

    /// Primary inputs.
    pub fn inputs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::Input)
    }

    /// Primary outputs.
    pub fn outputs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::Output)
    }

    /// Flip-flops (plain and scan).
    pub fn flip_flops(&self) -> Vec<GateId> {
        self.iter()
            .filter(|(_, g)| g.kind.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    /// Inbound TSV endpoints (die inputs fed through TSVs).
    pub fn inbound_tsvs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::TsvIn)
    }

    /// Outbound TSV endpoints (die outputs feeding TSVs).
    pub fn outbound_tsvs(&self) -> Vec<GateId> {
        self.of_kind(GateKind::TsvOut)
    }

    /// Aggregate statistics used by reports and Table II.
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    /// Content signature: FNV-1a over the name plus every gate's kind and
    /// input wiring, in id order.
    ///
    /// Two netlists share a signature only when they are structurally
    /// identical (same name, same gates in the same order, same wiring) —
    /// gate *instance names* are deliberately excluded, so a pure rename
    /// of internal nodes keeps the signature (and any caches keyed on it)
    /// valid. This is the invalidation key for everything that memoizes
    /// work per netlist (`AtpgProbe`, the serve warm cache): a mutated
    /// netlist that keeps a colliding module name must still miss.
    pub fn signature(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.name.as_bytes());
        eat(&(self.gates.len() as u64).to_le_bytes());
        for gate in &self.gates {
            eat(&[gate.kind as u8]);
            for &input in &gate.inputs {
                eat(&input.0.to_le_bytes());
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::And, &[a, c], "g");
        b.output(g, "o");
        b.finish().unwrap()
    }

    #[test]
    fn lookup_and_fanout() {
        let n = tiny();
        let a = n.find("a").unwrap();
        let g = n.find("g").unwrap();
        assert_eq!(n.fanout(a), &[g]);
        assert_eq!(n.gate(g).inputs.len(), 2);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert!(n.find("nope").is_none());
    }

    #[test]
    fn signature_tracks_content_not_just_name_and_len() {
        let n = tiny();
        assert_eq!(n.signature(), tiny().signature(), "deterministic");
        // Same module name, same gate count, different wiring: the b input
        // feeds an OR instead of an AND. Name+len keying would collide.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::Or, &[a, c], "g");
        b.output(g, "o");
        let mutated = b.finish().unwrap();
        assert_eq!(n.len(), mutated.len());
        assert_eq!(n.name(), mutated.name());
        assert_ne!(n.signature(), mutated.signature());
        // Renaming internal instances keeps the signature: the structure
        // (kinds + wiring) is unchanged.
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("x");
        let c = b.input("y");
        let g = b.gate(GateKind::And, &[a, c], "z");
        b.output(g, "w");
        let renamed = b.finish().unwrap();
        assert_eq!(n.signature(), renamed.signature());
    }

    #[test]
    fn rejects_duplicate_names() {
        let gates = vec![
            Gate::new("x", GateKind::Input, vec![]),
            Gate::new("x", GateKind::Input, vec![]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::DuplicateName(_))
        ));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let gates = vec![
            Gate::new("a", GateKind::Input, vec![]),
            Gate::new("g", GateKind::And, vec![GateId(0)]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_dangling_input() {
        let gates = vec![Gate::new("g", GateKind::Not, vec![GateId(9)])];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::DanglingInput { .. })
        ));
    }

    #[test]
    fn rejects_combinational_cycle() {
        // g0 = not(g1), g1 = not(g0): a combinational loop.
        let gates = vec![
            Gate::new("g0", GateKind::Not, vec![GateId(1)]),
            Gate::new("g1", GateKind::Not, vec![GateId(0)]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn cycle_error_names_a_gate_on_the_cycle() {
        // `down` only reads the x/y loop, so it must not be named: the walk
        // from it through unordered inputs revisits x first.
        let gates = vec![
            Gate::new("down", GateKind::Not, vec![GateId(1)]),
            Gate::new("x", GateKind::Not, vec![GateId(2)]),
            Gate::new("y", GateKind::Not, vec![GateId(1)]),
        ];
        assert_eq!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::CombinationalCycle("x".into()))
        );
    }

    #[test]
    fn allows_sequential_loop() {
        // q = dff(d), d = not(q): legal feedback through a flip-flop.
        let gates = vec![
            Gate::new("q", GateKind::Dff, vec![GateId(1)]),
            Gate::new("d", GateKind::Not, vec![GateId(0)]),
        ];
        assert!(Netlist::from_gates("d", gates).is_ok());
    }

    #[test]
    fn rejects_output_as_driver() {
        let gates = vec![
            Gate::new("a", GateKind::Input, vec![]),
            Gate::new("o", GateKind::Output, vec![GateId(0)]),
            Gate::new("g", GateKind::Not, vec![GateId(1)]),
        ];
        assert!(matches!(
            Netlist::from_gates("d", gates),
            Err(NetlistError::NonDrivingInput { .. })
        ));
    }

    fn chain(depth: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut sig = b.input("a");
        for i in 0..depth {
            sig = b.gate(GateKind::Not, &[sig], format!("n{i}"));
        }
        b.output(sig, "o");
        b.finish().unwrap()
    }

    #[test]
    fn levels_of_chain() {
        let n = chain(5);
        let l = n.levels();
        assert_eq!(l.iter().max(), Some(&6)); // 5 inverters + output marker
        assert_eq!(l[n.find("a").unwrap().index()], 0);
        assert_eq!(l[n.find("n4").unwrap().index()], 5);
    }

    #[test]
    fn ff_cuts_levels() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g1 = b.gate(GateKind::Not, &[a], "g1");
        let q = b.dff(g1, "q");
        let g2 = b.gate(GateKind::Not, &[q], "g2");
        b.output(g2, "o");
        let n = b.finish().unwrap();
        let l = n.levels();
        assert_eq!(l[n.find("q").unwrap().index()], 0);
        assert_eq!(l[n.find("g2").unwrap().index()], 1);
    }

    /// Reference order: scan every gate each step for the smallest id whose
    /// combinational inputs are all placed. It places every gate after its
    /// drivers, so matching it also checks that the order respects them.
    fn naive_order(n: &Netlist) -> Vec<GateId> {
        let mut placed = vec![false; n.len()];
        let mut order = Vec::new();
        while let Some(id) = n.ids().find(|&id| {
            let gate = n.gate(id);
            !placed[id.index()]
                && (gate.kind.is_source() || gate.inputs.iter().all(|i| placed[i.index()]))
        }) {
            placed[id.index()] = true;
            order.push(id);
        }
        order
    }

    /// Reference level: the longest input path back to a source.
    fn naive_level(n: &Netlist, id: GateId, memo: &mut [Option<u32>]) -> u32 {
        if let Some(level) = memo[id.index()] {
            return level;
        }
        let gate = n.gate(id);
        let level = if gate.kind.is_source() {
            0
        } else {
            gate.inputs
                .iter()
                .map(|&i| naive_level(n, i, memo) + 1)
                .max()
                .unwrap_or(0)
        };
        memo[id.index()] = Some(level);
        level
    }

    #[test]
    fn order_and_levels_match_naive_references_on_seeded_dies() {
        use crate::itc99;
        use prebond3d_rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x0DE7);
        for case in 0..8 {
            let spec = itc99::DieSpec {
                name: format!("order_die{case}"),
                scan_flip_flops: rng.gen_range(2usize..20),
                gates: rng.gen_range(20usize..200),
                inbound_tsvs: rng.gen_range(0usize..10),
                outbound_tsvs: rng.gen_range(0usize..10),
                primary_inputs: 3,
                primary_outputs: 3,
                seed: rng.gen_range(0u64..10_000),
            };
            let die = itc99::generate_die(&spec);
            assert_eq!(die.order(), naive_order(&die), "case {case}");
            let mut sorted = die.order().to_vec();
            sorted.sort_unstable();
            assert!(
                sorted.into_iter().eq(die.ids()),
                "case {case}: not a permutation"
            );
            let mut memo = vec![None; die.len()];
            let levels: Vec<u32> = die
                .ids()
                .map(|id| naive_level(&die, id, &mut memo))
                .collect();
            assert_eq!(die.levels(), levels, "case {case}");
        }
    }
}
