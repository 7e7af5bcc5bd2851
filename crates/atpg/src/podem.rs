//! PODEM deterministic test generation (Goel 1981).
//!
//! Two-machine three-valued search: decisions are made only at controllable
//! sources (PODEM's defining trait), candidate objectives come from fault
//! excitation and the D-frontier, backtrace is guided by SCOAP
//! controllability, and an X-path check prunes dead branches. A backtrack
//! limit bounds worst-case effort; aborted faults are reported as such so
//! coverage accounting can distinguish *undetectable* from *unresolved*.

use prebond3d_dataflow::scoring::{Scores, INF};
use prebond3d_netlist::{eval_v3, GateId, GateKind, Netlist, V3};
use prebond3d_obs as obs;
use prebond3d_resilience::Deadline;

use crate::access::TestAccess;
use crate::fault::{Fault, FaultSite};

/// PODEM search limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum backtracks before a fault is abandoned.
    pub backtrack_limit: usize,
    /// Cooperative wall-clock deadline: checked once per implication pass,
    /// so an expired budget aborts the fault within one pass of the limit.
    /// [`Deadline::none`] (the default) never reads the clock.
    pub deadline: Deadline,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 400,
            deadline: Deadline::none(),
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemOutcome {
    /// A test cube: per-controllable-rank values, X = don't-care.
    Test(Vec<V3>),
    /// Proven untestable under the access model (redundant or blocked by
    /// uncontrollable/unobservable structure).
    Untestable,
    /// Backtrack limit exhausted.
    Aborted,
}

/// A prepared PODEM engine for one (netlist, access) pair.
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    access: &'a TestAccess,
    scoap: &'a Scores,
    order: Vec<GateId>,
    config: PodemConfig,
    // Scratch, reused across faults:
    good: Vec<V3>,
    faulty: Vec<V3>,
    pi_values: Vec<V3>,
}

impl<'a> Podem<'a> {
    /// Build the engine.
    pub fn new(
        netlist: &'a Netlist,
        access: &'a TestAccess,
        scoap: &'a Scores,
        config: PodemConfig,
    ) -> Self {
        Podem {
            netlist,
            access,
            scoap,
            order: prebond3d_netlist::traverse::combinational_order(netlist),
            config,
            good: vec![V3::X; netlist.len()],
            faulty: vec![V3::X; netlist.len()],
            pi_values: vec![V3::X; access.width()],
        }
    }

    /// Find a cube that *justifies* `value` on `target`'s output in the
    /// good machine (no fault, no propagation requirement). Used to build
    /// the initialization vector of two-pattern transition tests.
    pub fn justify(&mut self, target: GateId, value: bool) -> PodemOutcome {
        let mut backtracks = 0usize;
        let outcome = self.justify_search(target, value, &mut backtracks);
        obs::count("podem.justify_calls", 1);
        obs::count("podem.backtracks", backtracks as u64);
        outcome
    }

    fn justify_search(
        &mut self,
        target: GateId,
        value: bool,
        backtracks: &mut usize,
    ) -> PodemOutcome {
        self.pi_values.iter_mut().for_each(|v| *v = V3::X);
        for &(node, v) in self.access.pinned() {
            let rank = self.access.rank_of(node).expect("pinned is controllable");
            self.pi_values[rank] = V3::from_bool(v);
        }
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        loop {
            if self.config.deadline.expired() {
                return PodemOutcome::Aborted;
            }
            self.imply_good();
            match self.good[target.index()].to_bool() {
                Some(v) if v == value => return PodemOutcome::Test(self.pi_values.clone()),
                Some(_) => {
                    // Wrong value under current decisions: backtrack.
                    if !Self::backtrack(
                        &mut decisions,
                        &mut self.pi_values,
                        backtracks,
                        self.config.backtrack_limit,
                    ) {
                        return if *backtracks > self.config.backtrack_limit {
                            PodemOutcome::Aborted
                        } else {
                            PodemOutcome::Untestable
                        };
                    }
                }
                None => match self.backtrace(target, value) {
                    Some((rank, v)) => {
                        decisions.push((rank, v, false));
                        self.pi_values[rank] = V3::from_bool(v);
                    }
                    None => {
                        if !Self::backtrack(
                            &mut decisions,
                            &mut self.pi_values,
                            backtracks,
                            self.config.backtrack_limit,
                        ) {
                            return if *backtracks > self.config.backtrack_limit {
                                PodemOutcome::Aborted
                            } else {
                                PodemOutcome::Untestable
                            };
                        }
                    }
                },
            }
        }
    }

    /// Pop/flip the decision stack; `false` when the search is exhausted
    /// or the backtrack budget ran out.
    fn backtrack(
        decisions: &mut Vec<(usize, bool, bool)>,
        pi_values: &mut [V3],
        backtracks: &mut usize,
        limit: usize,
    ) -> bool {
        loop {
            match decisions.pop() {
                None => return false,
                Some((rank, v, false)) => {
                    *backtracks += 1;
                    if *backtracks > limit {
                        return false;
                    }
                    decisions.push((rank, !v, true));
                    pi_values[rank] = V3::from_bool(!v);
                    return true;
                }
                Some((rank, _, true)) => {
                    pi_values[rank] = V3::X;
                }
            }
        }
    }

    /// Good-machine-only forward implication.
    fn imply_good(&mut self) {
        let order = std::mem::take(&mut self.order);
        for &id in &order {
            let gate = self.netlist.gate(id);
            self.good[id.index()] = match gate.kind {
                GateKind::Const0 => V3::Zero,
                GateKind::Const1 => V3::One,
                _ if gate.kind.is_source() => match self.access.rank_of(id) {
                    Some(rank) => self.pi_values[rank],
                    None => V3::X,
                },
                _ => {
                    let inputs: Vec<V3> =
                        gate.inputs.iter().map(|&x| self.good[x.index()]).collect();
                    eval_v3(gate.kind, &inputs)
                }
            };
        }
        self.order = order;
    }

    /// Try to generate a test for `fault`.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        let mut backtracks = 0usize;
        let outcome = self.generate_search(fault, &mut backtracks);
        obs::count("podem.generate_calls", 1);
        obs::count("podem.backtracks", backtracks as u64);
        outcome
    }

    fn generate_search(&mut self, fault: Fault, backtracks: &mut usize) -> PodemOutcome {
        self.pi_values.iter_mut().for_each(|v| *v = V3::X);
        for &(node, v) in self.access.pinned() {
            let rank = self.access.rank_of(node).expect("pinned is controllable");
            self.pi_values[rank] = V3::from_bool(v);
        }

        // Decision stack: (rank, value, already-flipped).
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();

        loop {
            if self.config.deadline.expired() {
                return PodemOutcome::Aborted;
            }
            self.imply(fault);
            if self.detected() {
                return PodemOutcome::Test(self.pi_values.clone());
            }

            let step = self
                .objective(fault)
                .and_then(|(target, value)| self.backtrace(target, value));

            match step {
                Some((rank, value)) => {
                    decisions.push((rank, value, false));
                    self.pi_values[rank] = V3::from_bool(value);
                }
                None => {
                    // Dead end: backtrack.
                    loop {
                        match decisions.pop() {
                            None => return PodemOutcome::Untestable,
                            Some((rank, v, false)) => {
                                *backtracks += 1;
                                if *backtracks > self.config.backtrack_limit {
                                    return PodemOutcome::Aborted;
                                }
                                decisions.push((rank, !v, true));
                                self.pi_values[rank] = V3::from_bool(!v);
                                break;
                            }
                            Some((rank, _, true)) => {
                                self.pi_values[rank] = V3::X;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Full forward implication of both machines.
    fn imply(&mut self, fault: Fault) {
        let order = std::mem::take(&mut self.order);
        for &id in &order {
            let gate = self.netlist.gate(id);
            let i = id.index();
            let g = match gate.kind {
                GateKind::Const0 => V3::Zero,
                GateKind::Const1 => V3::One,
                _ if gate.kind.is_source() => match self.access.rank_of(id) {
                    Some(rank) => self.pi_values[rank],
                    None => V3::X,
                },
                _ => {
                    let inputs: Vec<V3> =
                        gate.inputs.iter().map(|&x| self.good[x.index()]).collect();
                    eval_v3(gate.kind, &inputs)
                }
            };
            self.good[i] = g;

            // Faulty machine with injection.
            let f = match fault.site {
                FaultSite::Output(site) if site == id => V3::from_bool(fault.stuck.value()),
                FaultSite::Input { gate: fg, pin } if fg == id && gate.kind.is_combinational() => {
                    let inputs: Vec<V3> = gate
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(k, &x)| {
                            if k == pin as usize {
                                V3::from_bool(fault.stuck.value())
                            } else {
                                self.faulty[x.index()]
                            }
                        })
                        .collect();
                    eval_v3(gate.kind, &inputs)
                }
                _ => {
                    if gate.kind.is_source() || !gate.kind.is_combinational() {
                        g
                    } else {
                        let inputs: Vec<V3> = gate
                            .inputs
                            .iter()
                            .map(|&x| self.faulty[x.index()])
                            .collect();
                        eval_v3(gate.kind, &inputs)
                    }
                }
            };
            self.faulty[i] = f;
        }
        self.order = order;
    }

    /// `true` when some observed node shows a known miscompare.
    fn detected(&self) -> bool {
        self.access.observed().iter().any(|&id| {
            let (g, f) = (self.good[id.index()], self.faulty[id.index()]);
            g.is_known() && f.is_known() && g != f
        })
    }

    /// Choose the next (signal, value) objective.
    fn objective(&self, fault: Fault) -> Option<(GateId, bool)> {
        let driver = fault.site.driver(self.netlist);
        let need = fault.stuck.excitation();
        match self.good[driver.index()] {
            V3::X => return Some((driver, need)),
            v if v.to_bool() == Some(!need) => return None, // unexcitable here
            _ => {}
        }
        // Excited: drive the D-frontier. Pick the frontier gate with the
        // cheapest observability whose X-path survives; the X-path DFS is
        // run lazily on the sorted candidates since it is the costly part.
        let mut candidates: Vec<(u32, GateId)> = Vec::new();
        for (id, gate) in self.netlist.iter() {
            if !gate.kind.is_combinational() {
                continue;
            }
            let out_g = self.good[id.index()];
            let out_f = self.faulty[id.index()];
            if out_g.is_known() && out_f.is_known() {
                continue; // already propagated or permanently blocked
            }
            if self.input_has_d(id, fault) {
                candidates.push((self.scoap.co[id.index()], id));
            }
        }
        candidates.sort_unstable();
        for (_, frontier) in candidates {
            if !self.x_path_exists(frontier) {
                continue;
            }
            if let Some(obj) = self.frontier_objective(frontier, fault) {
                return Some(obj);
            }
        }
        None
    }

    /// Pick a justifiable (input, value) objective that sensitizes
    /// `frontier`. Returns `None` when the gate cannot propagate under any
    /// completion (statically unjustifiable side input) — the caller then
    /// tries the next frontier gate, keeping dead-end detection sound.
    fn frontier_objective(&self, frontier: GateId, fault: Fault) -> Option<(GateId, bool)> {
        let gate = self.netlist.gate(frontier);
        let is_d_input = |k: usize| -> bool {
            let input = gate.inputs[k];
            let g = self.good[input.index()];
            let f = match fault.site {
                FaultSite::Input { gate: fg, pin } if fg == frontier && pin as usize == k => {
                    V3::from_bool(fault.stuck.value())
                }
                _ => self.faulty[input.index()],
            };
            g.is_known() && f.is_known() && g != f
        };
        match gate.kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let nc = !gate.kind.controlling_value().expect("controlled kind");
                // Every X side input must reach the non-controlling value;
                // any statically-impossible one kills this gate.
                let mut first_x: Option<GateId> = None;
                for (k, &input) in gate.inputs.iter().enumerate() {
                    if is_d_input(k) || self.good[input.index()] != V3::X {
                        continue;
                    }
                    if self.cc_for(input, nc) >= INF {
                        return None;
                    }
                    first_x.get_or_insert(input);
                }
                first_x.map(|i| (i, nc))
            }
            GateKind::Xor | GateKind::Xnor => {
                // Side input just needs a known value; pick the cheaper
                // justifiable polarity.
                for (k, &input) in gate.inputs.iter().enumerate() {
                    if is_d_input(k) || self.good[input.index()] != V3::X {
                        continue;
                    }
                    let (c0, c1) = (self.cc_for(input, false), self.cc_for(input, true));
                    if c0.min(c1) >= INF {
                        return None;
                    }
                    return Some((input, c1 < c0));
                }
                None
            }
            GateKind::Mux2 => {
                // Mux sensitization interacts with multi-pin D arrival
                // (the same D can sit on data *and* select); rather than
                // enumerate cases, assign any justifiable X input with a
                // steering preference and let implication + the decision
                // flip mechanism sort out wrong guesses. `None` is returned
                // only when every X input is statically frozen — then the
                // mux output can never become known and cannot propagate.
                let (a, b, s) = (gate.inputs[0], gate.inputs[1], gate.inputs[2]);
                let mut candidates: Vec<(GateId, bool)> = Vec::new();
                if self.good[s.index()] == V3::X {
                    // Prefer steering the select toward a D-carrying data
                    // pin.
                    let want = if is_d_input(1) {
                        true
                    } else if is_d_input(0) {
                        false
                    } else {
                        self.cc_for(s, true) < self.cc_for(s, false)
                    };
                    candidates.push((s, want));
                    candidates.push((s, !want));
                }
                for (pin, data) in [(0usize, a), (1usize, b)] {
                    if self.good[data.index()] != V3::X || is_d_input(pin) {
                        continue;
                    }
                    let other = self.good[gate.inputs[1 - pin].index()].to_bool();
                    let prefer = match other {
                        Some(v) => !v, // differ from the other data pin
                        None => self.cc_for(data, true) < self.cc_for(data, false),
                    };
                    candidates.push((data, prefer));
                    candidates.push((data, !prefer));
                }
                candidates
                    .into_iter()
                    .find(|&(line, v)| self.cc_for(line, v) < INF)
            }
            // Single-input kinds propagate unconditionally.
            _ => None,
        }
    }

    /// `true` if some input of `id` carries a D (good≠faulty, both known).
    fn input_has_d(&self, id: GateId, fault: Fault) -> bool {
        let gate = self.netlist.gate(id);
        for (k, &input) in gate.inputs.iter().enumerate() {
            let g = self.good[input.index()];
            let f = match fault.site {
                FaultSite::Input { gate: fg, pin } if fg == id && pin as usize == k => {
                    V3::from_bool(fault.stuck.value())
                }
                _ => self.faulty[input.index()],
            };
            if g.is_known() && f.is_known() && g != f {
                return true;
            }
        }
        false
    }

    /// X-path check: a path of X-valued gates from `from` to an observed
    /// node.
    fn x_path_exists(&self, from: GateId) -> bool {
        let mut seen = vec![false; self.netlist.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(id) = stack.pop() {
            if self.access.is_observed(id) {
                return true;
            }
            for &fo in self.netlist.fanout(id) {
                let kind = self.netlist.gate(fo).kind;
                if kind.is_sequential() || matches!(kind, GateKind::Output | GateKind::TsvOut) {
                    continue;
                }
                if seen[fo.index()] {
                    continue;
                }
                // Traversable if the gate's output could still change.
                if self.good[fo.index()].is_known() && self.faulty[fo.index()].is_known() {
                    continue;
                }
                seen[fo.index()] = true;
                stack.push(fo);
            }
        }
        false
    }

    /// Backtrace an objective to an unassigned controllable source.
    ///
    /// Soundness contract: `None` is returned **only** when the objective
    /// `(target, value)` is unachievable under *any* completion of the
    /// current assignment — every descent is guarded by finite-SCOAP
    /// checks, so the caller may treat `None` as a proven dead end.
    fn backtrace(&self, mut target: GateId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            if self.cc_for(target, value) >= INF {
                return None; // statically unjustifiable line/value
            }
            let gate = self.netlist.gate(target);
            if gate.kind.is_source() {
                let rank = self.access.rank_of(target)?;
                if self.pi_values[rank] != V3::X {
                    return None; // already decided: contradiction
                }
                return Some((rank, value));
            }
            match gate.kind {
                GateKind::Buf | GateKind::Output | GateKind::TsvOut => {
                    target = gate.inputs[0];
                }
                GateKind::Not => {
                    target = gate.inputs[0];
                    value = !value;
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let inverted = gate.kind.inverts();
                    let needed_pre = if inverted { !value } else { value };
                    let controlling = gate.kind.controlling_value().expect("has ctrl value");
                    let needed_in = if needed_pre == controlling {
                        controlling
                    } else {
                        !controlling
                    };
                    let xs: Vec<GateId> = gate
                        .inputs
                        .iter()
                        .copied()
                        .filter(|&i| self.good[i.index()] == V3::X)
                        .collect();
                    // Setting the controlling value: the cheapest *finitely
                    // justifiable* X input wins. Setting the non-controlling
                    // value: all inputs must be justified eventually; start
                    // with the hardest finite one (classic hardest-first).
                    let finite: Vec<GateId> = xs
                        .iter()
                        .copied()
                        .filter(|&i| self.cc_for(i, needed_in) < INF)
                        .collect();
                    if needed_pre == controlling {
                        let pick = finite
                            .iter()
                            .copied()
                            .min_by_key(|&i| self.cc_for(i, needed_in))?;
                        target = pick;
                    } else {
                        // All X inputs must be justifiable; INF on any means
                        // the output can never be non-controlling… but only
                        // if that input can't be avoided — for AND-family it
                        // can't (every input matters), so this is a proof.
                        if finite.len() != xs.len() || xs.is_empty() {
                            return None;
                        }
                        let pick = finite
                            .iter()
                            .copied()
                            .max_by_key(|&i| self.cc_for(i, needed_in))
                            .expect("nonempty");
                        target = pick;
                    }
                    value = needed_in;
                }
                GateKind::Xor | GateKind::Xnor => {
                    let needed_pre = if gate.kind.inverts() { !value } else { value };
                    let (a, b) = (gate.inputs[0], gate.inputs[1]);
                    let (ga, gb) = (self.good[a.index()], self.good[b.index()]);
                    let (t, v) = match (ga.to_bool(), gb.to_bool()) {
                        (Some(va), None) => (b, needed_pre ^ va),
                        (None, Some(vb)) => (a, needed_pre ^ vb),
                        (None, None) => {
                            // Both free: pick the cheapest finite
                            // (va, vb = needed ^ va) combination.
                            let combos = [(false, needed_pre), (true, !needed_pre)];
                            let best = combos
                                .iter()
                                .filter(|&&(va, vb)| {
                                    self.cc_for(a, va) < INF && self.cc_for(b, vb) < INF
                                })
                                .min_by_key(|&&(va, vb)| {
                                    self.cc_for(a, va).saturating_add(self.cc_for(b, vb))
                                })?;
                            (a, best.0)
                        }
                        (Some(_), Some(_)) => return None,
                    };
                    target = t;
                    value = v;
                }
                GateKind::Mux2 => {
                    let (a, b, s) = (gate.inputs[0], gate.inputs[1], gate.inputs[2]);
                    match self.good[s.index()].to_bool() {
                        Some(false) => target = a,
                        Some(true) => target = b,
                        None => {
                            // Pick the cheapest finite (select, data) path;
                            // also allow the select-free path where both
                            // data inputs carry the value.
                            let via0 = self.cc_for(s, false).saturating_add(self.cc_for(a, value));
                            let via1 = self.cc_for(s, true).saturating_add(self.cc_for(b, value));
                            if via0.min(via1) >= INF {
                                let both =
                                    self.cc_for(a, value).saturating_add(self.cc_for(b, value));
                                if both >= INF {
                                    return None;
                                }
                                // Select is unjustifiable either way: both
                                // data inputs must carry the value. Walk
                                // into whichever is still X (one must be,
                                // or the mux output would be known).
                                target = if self.good[a.index()] == V3::X {
                                    a
                                } else if self.good[b.index()] == V3::X {
                                    b
                                } else {
                                    return None;
                                };
                                continue;
                            }
                            target = s;
                            value = via1 < via0;
                            continue;
                        }
                    }
                }
                _ => return None,
            }
        }
    }

    fn cc_for(&self, id: GateId, value: bool) -> u32 {
        if value {
            self.scoap.cc1[id.index()]
        } else {
            self.scoap.cc0[id.index()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::StuckAt;
    use prebond3d_netlist::NetlistBuilder;

    fn engine_parts(n: &Netlist) -> (TestAccess, Scores) {
        let acc = TestAccess::full_scan(n);
        let scoap = Scores::compute(n, &acc.view());
        (acc, scoap)
    }

    #[test]
    fn finds_test_for_and_output_sa0() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::And, &[a, c], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let (acc, scoap) = engine_parts(&n);
        let mut podem = Podem::new(&n, &acc, &scoap, PodemConfig::default());
        match podem.generate(Fault::output(g, StuckAt::Zero)) {
            PodemOutcome::Test(cube) => {
                // Needs a=1, b=1.
                assert_eq!(cube[0], V3::One);
                assert_eq!(cube[1], V3::One);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        // g = and(a, not(a)) is constant 0 → g/sa0 is untestable.
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let na = b.gate(GateKind::Not, &[a], "na");
        let g = b.gate(GateKind::And, &[a, na], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let (acc, scoap) = engine_parts(&n);
        let mut podem = Podem::new(&n, &acc, &scoap, PodemConfig::default());
        assert_eq!(
            podem.generate(Fault::output(g, StuckAt::Zero)),
            PodemOutcome::Untestable
        );
        // …and g/sa1 is testable (any a works: good is always 0).
        assert!(matches!(
            podem.generate(Fault::output(g, StuckAt::One)),
            PodemOutcome::Test(_)
        ));
    }

    #[test]
    fn floating_tsv_fault_is_untestable() {
        let mut b = NetlistBuilder::new("t");
        let ti = b.tsv_in("ti");
        let a = b.input("a");
        let g = b.gate(GateKind::And, &[ti, a], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let (acc, scoap) = engine_parts(&n);
        let mut podem = Podem::new(&n, &acc, &scoap, PodemConfig::default());
        // sa0 needs good(g)=1, which needs ti=1 — uncontrollable.
        assert_eq!(
            podem.generate(Fault::output(g, StuckAt::Zero)),
            PodemOutcome::Untestable
        );
    }

    #[test]
    fn unobservable_cone_fault_is_untestable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a], "g");
        b.tsv_out(g, "to");
        b.output(a, "keep"); // keep `a` observable so only g's cone is dark
        let n = b.finish().unwrap();
        let (acc, scoap) = engine_parts(&n);
        let mut podem = Podem::new(&n, &acc, &scoap, PodemConfig::default());
        assert_eq!(
            podem.generate(Fault::output(g, StuckAt::Zero)),
            PodemOutcome::Untestable
        );
    }

    #[test]
    fn generated_tests_verified_by_fault_sim() {
        use crate::fault::FaultList;
        use crate::faultsim::FaultSimulator;
        use crate::sim::Pattern;
        use prebond3d_netlist::itc99;

        let die = itc99::generate_flat("d", 150, 12, 6, 6, 21);
        let acc = TestAccess::full_scan(&die);
        let scoap = Scores::compute(&die, &acc.view());
        let list = FaultList::collapsed(&die);
        let mut podem = Podem::new(&die, &acc, &scoap, PodemConfig::default());
        let mut fs = FaultSimulator::new(&die);

        let mut tested = 0;
        for fault in list.faults.iter().take(60) {
            if let PodemOutcome::Test(cube) = podem.generate(*fault) {
                let pattern = Pattern::from_v3(&cube, false);
                let masks = fs
                    .simulate_batch(&die, &acc, &[pattern], &[*fault], &[true])
                    .unwrap();
                assert_ne!(
                    masks[0] & 1,
                    0,
                    "PODEM test must detect its own fault {}",
                    fault.describe(&die)
                );
                tested += 1;
            }
        }
        assert!(tested > 30, "most faults should get tests, got {tested}");
    }
}
