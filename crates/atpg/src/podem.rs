//! PODEM deterministic test generation (Goel 1981).
//!
//! Two-machine three-valued search: decisions are made only at controllable
//! sources (PODEM's defining trait), candidate objectives come from fault
//! excitation and the D-frontier, backtrace is guided by SCOAP
//! controllability, and an X-path check prunes dead branches. A backtrack
//! limit bounds worst-case effort; aborted faults are reported as such so
//! coverage accounting can distinguish *undetectable* from *unresolved*.
//!
//! Implication is event-driven (DESIGN.md §17). Good and faulty values are
//! a pure function of the source assignment, so each search opens with one
//! full topological pass and afterwards re-evaluates only what a decision
//! or a backtrack changed: every write to the source assignment queues its
//! source gate, and `Podem::imply` re-evaluates queued gates level by
//! level, queueing a gate's fanout only when one of its two values moved.
//! Outside the fault's fanout cone the faulty machine equals the good one,
//! so the faulty evaluation and the D-frontier scan stay inside the cone.
//! In unit tests every implication step is checked against a fresh full
//! pass.

use prebond3d_dataflow::scoring::{Scores, INF};
use prebond3d_netlist::{eval_v3, Csr, GateId, GateKind, Netlist, V3};
use prebond3d_obs as obs;
use prebond3d_resilience::Deadline;

use crate::access::TestAccess;
use crate::fault::{Fault, FaultSite};

/// PODEM search limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum backtracks before a fault is abandoned.
    pub backtrack_limit: usize,
    /// Cooperative wall-clock deadline: checked once per implication step,
    /// so an expired budget aborts the fault within one step of the limit.
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

/// What a search is after.
#[derive(Debug, Clone, Copy)]
enum Goal {
    /// A miscompare of `fault` at an observed node.
    Detect(Fault),
    /// A good-machine value on a gate's output.
    Justify(GateId, bool),
}

/// A prepared PODEM engine for one (netlist, access) pair.
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    access: &'a TestAccess,
    scoap: &'a Scores,
    /// Each gate's fanout, less the sequential gates: those are sources,
    /// whose value is the assignment's rather than their input's.
    fanout: Csr,
    config: PodemConfig,
    // Scratch, reused across faults:
    good: Vec<V3>,
    faulty: Vec<V3>,
    pi_values: Vec<V3>,
    /// Set when `pi_values` was reset: the next implication is a full pass.
    full_pass_due: bool,
    events: Events,
    /// Combinational gates of the current fault's fanout cone.
    cone: Vec<GateId>,
    /// Every gate of that cone, its root included.
    in_cone: Marks,
    /// D-frontier candidates `(observability, gate)`.
    frontier: Vec<(u32, GateId)>,
    /// The X-path walk's visited gates and stack.
    visited: Marks,
    stack: Vec<GateId>,
    /// Work of the current call: implication steps and gates evaluated.
    implications: u64,
    evals: u64,
}

impl<'a> Podem<'a> {
    /// Build the engine.
    pub fn new(
        netlist: &'a Netlist,
        access: &'a TestAccess,
        scoap: &'a Scores,
        config: PodemConfig,
    ) -> Self {
        let arcs: Vec<(u32, u32)> = netlist
            .iter()
            .flat_map(|(id, _)| netlist.fanout(id).iter().map(move |&fo| (id.0, fo.0)))
            .filter(|&(_, fo)| !netlist.gate(GateId(fo)).kind.is_source())
            .collect();
        Podem {
            netlist,
            access,
            scoap,
            fanout: Csr::from_arcs(netlist.len(), &arcs),
            config,
            good: vec![V3::X; netlist.len()],
            faulty: vec![V3::X; netlist.len()],
            pi_values: vec![V3::X; access.width()],
            full_pass_due: true,
            events: Events::new(netlist.levels()),
            cone: Vec::new(),
            frontier: Vec::new(),
            in_cone: Marks::new(netlist.len()),
            visited: Marks::new(netlist.len()),
            stack: Vec::new(),
            implications: 0,
            evals: 0,
        }
    }

    /// Find a cube that *justifies* `value` on `target`'s output in the
    /// good machine (no fault, no propagation requirement). Used to build
    /// the initialization vector of two-pattern transition tests.
    pub fn justify(&mut self, target: GateId, value: bool) -> PodemOutcome {
        self.run(Goal::Justify(target, value))
    }

    /// Try to generate a test for `fault`.
    pub fn generate(&mut self, fault: Fault) -> PodemOutcome {
        self.run(Goal::Detect(fault))
    }

    /// Search for `goal` and emit the call's work counters.
    fn run(&mut self, goal: Goal) -> PodemOutcome {
        let mut backtracks = 0usize;
        self.implications = 0;
        self.evals = 0;
        let outcome = self.search(goal, &mut backtracks);
        let calls = match goal {
            Goal::Detect(_) => "podem.generate_calls",
            Goal::Justify(..) => "podem.justify_calls",
        };
        obs::count(calls, 1);
        obs::count("podem.backtracks", backtracks as u64);
        obs::count("podem.implications", self.implications);
        obs::count("podem.implication_evals", self.evals);
        outcome
    }

    fn search(&mut self, goal: Goal, backtracks: &mut usize) -> PodemOutcome {
        let fault = match goal {
            Goal::Detect(fault) => Some(fault),
            Goal::Justify(..) => None,
        };
        self.pi_values.fill(V3::X);
        for &(node, v) in self.access.pinned() {
            let rank = self.access.rank_of(node).expect("pinned is controllable");
            self.pi_values[rank] = V3::from_bool(v);
        }
        self.full_pass_due = true;
        if let Some(fault) = fault {
            self.collect_cone(fault.site.propagation_root());
        }

        // Decision stack: (rank, value, already-flipped).
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();

        loop {
            if self.config.deadline.expired() {
                return PodemOutcome::Aborted;
            }
            self.imply(fault);
            let step = match goal {
                Goal::Detect(fault) => {
                    if self.detected() {
                        return PodemOutcome::Test(self.pi_values.clone());
                    }
                    self.objective(fault)
                        .and_then(|(target, value)| self.backtrace(target, value))
                }
                Goal::Justify(target, value) => match self.good[target.index()].to_bool() {
                    Some(v) if v == value => return PodemOutcome::Test(self.pi_values.clone()),
                    // Wrong value under current decisions: backtrack.
                    Some(_) => None,
                    None => self.backtrace(target, value),
                },
            };
            match step {
                Some((rank, value)) => {
                    decisions.push((rank, value, false));
                    self.assign(rank, V3::from_bool(value));
                }
                // Dead end: backtrack.
                None => {
                    if !self.backtrack(&mut decisions, backtracks) {
                        return if *backtracks > self.config.backtrack_limit {
                            PodemOutcome::Aborted
                        } else {
                            PodemOutcome::Untestable
                        };
                    }
                }
            }
        }
    }

    /// Pop/flip the decision stack; `false` when the search is exhausted
    /// or the backtrack budget ran out.
    fn backtrack(
        &mut self,
        decisions: &mut Vec<(usize, bool, bool)>,
        backtracks: &mut usize,
    ) -> bool {
        loop {
            match decisions.pop() {
                None => return false,
                Some((rank, v, false)) => {
                    *backtracks += 1;
                    if *backtracks > self.config.backtrack_limit {
                        return false;
                    }
                    decisions.push((rank, !v, true));
                    self.assign(rank, V3::from_bool(!v));
                    return true;
                }
                Some((rank, _, true)) => self.assign(rank, V3::X),
            }
        }
    }

    /// Set a source's value and queue its gate: the only write to
    /// `pi_values` after a search's initial pass.
    fn assign(&mut self, rank: usize, value: V3) {
        self.pi_values[rank] = value;
        self.events.push(self.access.controllable()[rank].0);
    }

    /// One implication step: bring `good` and `faulty` up to date with
    /// `pi_values`. The first step of a search is a full topological pass;
    /// later steps re-evaluate the queued gates level by level and queue a
    /// gate's fanout only when it changed.
    fn imply(&mut self, fault: Option<Fault>) {
        self.implications += 1;
        if std::mem::take(&mut self.full_pass_due) {
            self.events.clear();
            let order = self.netlist.order();
            for &id in order {
                self.eval_gate(id, fault);
            }
            self.evals += order.len() as u64;
        } else {
            let mut level = 0;
            while self.events.pending > 0 {
                let mut bucket = std::mem::take(&mut self.events.buckets[level]);
                for &i in &bucket {
                    self.events.queued[i as usize] = false;
                    if self.eval_gate(GateId(i), fault) {
                        for &fo in self.fanout.neighbors(i as usize) {
                            self.events.push(fo);
                        }
                    }
                }
                self.events.pending -= bucket.len();
                self.evals += bucket.len() as u64;
                bucket.clear();
                self.events.buckets[level] = bucket;
                level += 1;
            }
        }
        #[cfg(test)]
        self.assert_matches_full_pass(fault);
    }

    /// Evaluate `id` in both machines from its inputs' current values;
    /// `true` when either value changed.
    fn eval_gate(&mut self, id: GateId, fault: Option<Fault>) -> bool {
        // Outside the fault's cone the faulty machine is the good one.
        let fault = fault.filter(|_| self.in_cone.contains(id));
        let (g, f) = self.gate_values(id, fault, &self.good, &self.faulty);
        let i = id.index();
        let changed = self.good[i] != g || self.faulty[i] != f;
        self.good[i] = g;
        self.faulty[i] = f;
        changed
    }

    /// The good and faulty value of `id`, read from its inputs' values in
    /// `good` and `faulty`. Without a fault the faulty machine is the good
    /// one.
    fn gate_values(
        &self,
        id: GateId,
        fault: Option<Fault>,
        good: &[V3],
        faulty: &[V3],
    ) -> (V3, V3) {
        let gate = self.netlist.gate(id);
        let g = match gate.kind {
            GateKind::Const0 => V3::Zero,
            GateKind::Const1 => V3::One,
            _ if gate.kind.is_source() => match self.access.rank_of(id) {
                Some(rank) => self.pi_values[rank],
                None => V3::X,
            },
            _ => eval_inputs(gate.kind, &gate.inputs, good, None),
        };
        let Some(fault) = fault else {
            return (g, g);
        };
        // Faulty machine with injection.
        let f = match fault.site {
            FaultSite::Output(site) if site == id => V3::from_bool(fault.stuck.value()),
            FaultSite::Input { gate: fg, pin } if fg == id && gate.kind.is_combinational() => {
                let stuck = V3::from_bool(fault.stuck.value());
                eval_inputs(gate.kind, &gate.inputs, faulty, Some((pin as usize, stuck)))
            }
            _ if gate.kind.is_source() || !gate.kind.is_combinational() => g,
            _ => eval_inputs(gate.kind, &gate.inputs, faulty, None),
        };
        (g, f)
    }

    /// Test-only oracle: the event-driven values equal a fresh full pass.
    #[cfg(test)]
    fn assert_matches_full_pass(&self, fault: Option<Fault>) {
        let mut good = vec![V3::X; self.netlist.len()];
        let mut faulty = vec![V3::X; self.netlist.len()];
        for &id in self.netlist.order() {
            let (g, f) = self.gate_values(id, fault, &good, &faulty);
            good[id.index()] = g;
            faulty[id.index()] = f;
        }
        assert!(
            good == self.good && faulty == self.faulty,
            "event-driven implication diverged from a full pass (fault {fault:?})"
        );
    }

    /// Collect `root`'s fanout cone into `in_cone`, and its combinational
    /// gates into `cone`. The walk stops at sequential gates: they are
    /// sources, whose faulty value is their good one.
    fn collect_cone(&mut self, root: GateId) {
        self.in_cone.reset();
        self.in_cone.insert(root);
        self.cone.clear();
        self.stack.clear();
        self.stack.push(root);
        while let Some(id) = self.stack.pop() {
            if self.netlist.gate(id).kind.is_combinational() {
                self.cone.push(id);
            }
            for &fo in self.fanout.neighbors(id.index()) {
                if self.in_cone.insert(GateId(fo)) {
                    self.stack.push(GateId(fo));
                }
            }
        }
    }

    /// `true` when some observed node shows a known miscompare.
    fn detected(&self) -> bool {
        self.access.observed().iter().any(|&id| {
            let (g, f) = (self.good[id.index()], self.faulty[id.index()]);
            g.is_known() && f.is_known() && g != f
        })
    }

    /// Choose the next (signal, value) objective.
    fn objective(&mut self, fault: Fault) -> Option<(GateId, bool)> {
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
        // Only the fault's cone can carry a D, and `(co, id)` is unique,
        // so scanning the cone finds the same candidates in the same order
        // as scanning the netlist.
        let mut candidates = std::mem::take(&mut self.frontier);
        candidates.clear();
        for &id in &self.cone {
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
        let mut found = None;
        for &(_, frontier) in &candidates {
            if !self.x_path_exists(frontier) {
                continue;
            }
            found = self.frontier_objective(frontier, fault);
            if found.is_some() {
                break;
            }
        }
        self.frontier = candidates;
        found
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
                let mut candidates = [(s, false); 6];
                let mut len = 0;
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
                    candidates[..2].copy_from_slice(&[(s, want), (s, !want)]);
                    len = 2;
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
                    candidates[len..len + 2].copy_from_slice(&[(data, prefer), (data, !prefer)]);
                    len += 2;
                }
                candidates[..len]
                    .iter()
                    .copied()
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
    fn x_path_exists(&mut self, from: GateId) -> bool {
        self.visited.reset();
        self.visited.insert(from);
        self.stack.clear();
        self.stack.push(from);
        while let Some(id) = self.stack.pop() {
            if self.access.is_observed(id) {
                return true;
            }
            for &fo in self.fanout.neighbors(id.index()) {
                let fo = GateId(fo);
                if matches!(
                    self.netlist.gate(fo).kind,
                    GateKind::Output | GateKind::TsvOut
                ) {
                    continue;
                }
                // Traversable if the gate's output could still change.
                if self.good[fo.index()].is_known() && self.faulty[fo.index()].is_known() {
                    continue;
                }
                if self.visited.insert(fo) {
                    self.stack.push(fo);
                }
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
                    // Setting the controlling value: the cheapest *finitely
                    // justifiable* X input wins (the first on ties).
                    // Setting the non-controlling value: all inputs must be
                    // justified eventually; start with the hardest finite
                    // one (classic hardest-first, the last on ties).
                    let mut any_x = false;
                    let mut all_finite = true;
                    let mut easiest: Option<(u32, GateId)> = None;
                    let mut hardest: Option<(u32, GateId)> = None;
                    for &i in &gate.inputs {
                        if self.good[i.index()] != V3::X {
                            continue;
                        }
                        any_x = true;
                        let cost = self.cc_for(i, needed_in);
                        if cost >= INF {
                            all_finite = false;
                            continue;
                        }
                        if easiest.is_none_or(|(c, _)| cost < c) {
                            easiest = Some((cost, i));
                        }
                        if hardest.is_none_or(|(c, _)| cost >= c) {
                            hardest = Some((cost, i));
                        }
                    }
                    if needed_pre == controlling {
                        target = easiest?.1;
                    } else {
                        // All X inputs must be justifiable; INF on any means
                        // the output can never be non-controlling… but only
                        // if that input can't be avoided — for AND-family it
                        // can't (every input matters), so this is a proof.
                        if !all_finite || !any_x {
                            return None;
                        }
                        target = hardest.expect("nonempty").1;
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

/// Gates awaiting re-evaluation, bucketed by logic level. A gate's inputs
/// all sit at lower levels, so draining the buckets in ascending order
/// evaluates every gate after all of its changed inputs, which is what a
/// topological pass does.
#[derive(Debug)]
struct Events {
    level: Vec<u32>,
    buckets: Vec<Vec<u32>>,
    queued: Vec<bool>,
    pending: usize,
}

impl Events {
    fn new(level: Vec<u32>) -> Self {
        let depth = level.iter().max().map_or(0, |&l| l as usize + 1);
        Events {
            queued: vec![false; level.len()],
            buckets: vec![Vec::new(); depth],
            level,
            pending: 0,
        }
    }

    /// Queue gate `id` unless it is already queued.
    fn push(&mut self, id: u32) {
        let i = id as usize;
        if !self.queued[i] {
            self.queued[i] = true;
            self.buckets[self.level[i] as usize].push(id);
            self.pending += 1;
        }
    }

    /// Drop every queued gate.
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            for &i in bucket.iter() {
                self.queued[i as usize] = false;
            }
            bucket.clear();
        }
        self.pending = 0;
    }
}

/// A set of gates, emptied in O(1) by moving to a new generation stamp.
#[derive(Debug)]
struct Marks {
    mark: Vec<u32>,
    stamp: u32,
}

impl Marks {
    fn new(len: usize) -> Self {
        Marks {
            mark: vec![0; len],
            stamp: 1,
        }
    }

    fn reset(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.mark.fill(0);
            self.stamp = 1;
        }
    }

    /// Add `id`; `false` when it was already present.
    fn insert(&mut self, id: GateId) -> bool {
        let m = &mut self.mark[id.index()];
        let fresh = *m != self.stamp;
        *m = self.stamp;
        fresh
    }

    fn contains(&self, id: GateId) -> bool {
        self.mark[id.index()] == self.stamp
    }
}

/// `eval_v3` over the values in `values` of `inputs`, with `forced`'s pin
/// overridden, evaluated from a stack buffer (the widest gate, `Mux2`, has
/// three inputs).
fn eval_inputs(
    kind: GateKind,
    inputs: &[GateId],
    values: &[V3],
    forced: Option<(usize, V3)>,
) -> V3 {
    let mut buf = [V3::X; 3];
    for (slot, &x) in buf.iter_mut().zip(inputs) {
        *slot = values[x.index()];
    }
    if let Some((pin, v)) = forced {
        buf[pin] = v;
    }
    eval_v3(kind, &buf[..inputs.len()])
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

    /// Drives every collapsed fault and every justification target of a
    /// b11 die through the search; `imply`'s test-only oracle checks each
    /// event-driven step against a fresh full pass.
    #[test]
    fn event_driven_implication_matches_a_full_pass_at_every_step() {
        use crate::fault::FaultList;
        use prebond3d_netlist::itc99;

        let spec = itc99::circuit("b11").expect("known benchmark");
        let die = itc99::generate_die(&spec.dies[0]);
        let kinds: Vec<GateKind> = die.iter().map(|(_, g)| g.kind).collect();
        for kind in [GateKind::Mux2, GateKind::Xor, GateKind::TsvIn] {
            assert!(kinds.contains(&kind), "die must contain {kind:?}");
        }
        let mut acc = TestAccess::full_scan(&die);
        let pin = die.of_kind(GateKind::Input)[0];
        acc.pin(pin, true);
        let scoap = Scores::compute(&die, &acc.view());
        let config = PodemConfig {
            backtrack_limit: 64,
            ..PodemConfig::default()
        };
        let mut podem = Podem::new(&die, &acc, &scoap, config);
        let list = FaultList::collapsed(&die);
        assert!(list
            .faults
            .iter()
            .any(|f| matches!(f.site, FaultSite::Input { .. })));

        let ((), snap) = obs::capture_recorded(|| {
            for fault in &list.faults {
                podem.generate(*fault);
            }
            for (id, gate) in die.iter() {
                if gate.kind.is_combinational() {
                    podem.justify(id, false);
                    podem.justify(id, true);
                }
            }
        });
        let calls = snap.counter("podem.generate_calls") + snap.counter("podem.justify_calls");
        let steps = snap.counter("podem.implications");
        assert!(
            steps > calls,
            "searches must take event-driven steps: {steps} steps in {calls} calls"
        );
        assert!(
            snap.counter("podem.implication_evals") < steps * die.len() as u64,
            "event-driven steps must evaluate less than a full pass each"
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
                    .simulate_batch_wide(&die, &acc, &[pattern], &[*fault], &[true])
                    .unwrap()
                    .1;
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
