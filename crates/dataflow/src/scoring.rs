//! SCOAP testability measures (Goldstein 1979) under a pre-bond access
//! view.
//!
//! Controllability `CC0`/`CC1` counts how many assignments it takes to set
//! a net to 0/1; observability `CO` counts how many to propagate it to an
//! observation point. Uncontrollable sources (floating TSVs, unscanned
//! flip-flops) and unobservable sinks saturate at [`INF`], so the measures
//! directly express pre-bond reachability.
//!
//! This is the one SCOAP of the tool-suite: the ATPG engine reads it
//! under a view built from its run's test access model — PODEM
//! backtrace guidance, the structural untestability pre-screen and the
//! static pruning mask.
//!
//! On the netlist DAG the minimum-cost fixpoint is reached in one pass
//! each way: controllability forward in combinational order, observability
//! backward in the reverse order.

use prebond3d_netlist::{GateId, GateKind, Netlist};

/// Saturating "unreachable" cost.
pub const INF: u32 = u32::MAX / 4;

fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b).min(INF)
}

/// The access view the scoring pass runs under.
#[derive(Debug, Clone)]
pub struct AccessView {
    /// Scan-accessible (controllable) source nets.
    pub controllable: Vec<bool>,
    /// Observed nets (sink drivers).
    pub observed: Vec<bool>,
}

impl AccessView {
    /// Full-scan pre-bond access: `Input`/`ScanDff`/`Wrapper` control;
    /// drivers of `Output`/`ScanDff`/`Wrapper` observe. The pipeline builds
    /// its view from the ATPG run's access model instead.
    #[cfg(test)]
    pub fn pre_bond(netlist: &Netlist) -> AccessView {
        let n = netlist.len();
        let mut controllable = vec![false; n];
        let mut observed = vec![false; n];
        for (id, gate) in netlist.iter() {
            match gate.kind {
                GateKind::Input | GateKind::ScanDff | GateKind::Wrapper => {
                    controllable[id.index()] = true;
                }
                _ => {}
            }
            if matches!(
                gate.kind,
                GateKind::Output | GateKind::ScanDff | GateKind::Wrapper
            ) {
                observed[gate.inputs[0].index()] = true;
            }
        }
        AccessView {
            controllable,
            observed,
        }
    }
}

/// SCOAP measures for every net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scores {
    /// Cost to force each net to 0.
    pub cc0: Vec<u32>,
    /// Cost to force each net to 1.
    pub cc1: Vec<u32>,
    /// Cost to observe each net.
    pub co: Vec<u32>,
}

impl Scores {
    /// Compute all three measures under `access`.
    pub fn compute(netlist: &Netlist, access: &AccessView) -> Scores {
        let n = netlist.len();
        let order = netlist.order();
        let mut cc0 = vec![INF; n];
        let mut cc1 = vec![INF; n];

        // --- Controllability (forward) --------------------------------
        for &id in order {
            let gate = netlist.gate(id);
            let i = id.index();
            if gate.kind.is_source() {
                match gate.kind {
                    GateKind::Const0 => {
                        cc0[i] = 0;
                        cc1[i] = INF;
                    }
                    GateKind::Const1 => {
                        cc0[i] = INF;
                        cc1[i] = 0;
                    }
                    _ if access.controllable[i] => {
                        cc0[i] = 1;
                        cc1[i] = 1;
                    }
                    _ => { /* uncontrollable: INF */ }
                }
                continue;
            }
            let in0: Vec<u32> = gate.inputs.iter().map(|x| cc0[x.index()]).collect();
            let in1: Vec<u32> = gate.inputs.iter().map(|x| cc1[x.index()]).collect();
            let (c0, c1) = match gate.kind {
                GateKind::Buf | GateKind::Output | GateKind::TsvOut => (in0[0], in1[0]),
                GateKind::Not => (in1[0], in0[0]),
                GateKind::And => (in0.iter().copied().min().unwrap(), sat_add(in1[0], in1[1])),
                GateKind::Nand => (sat_add(in1[0], in1[1]), in0.iter().copied().min().unwrap()),
                GateKind::Or => (sat_add(in0[0], in0[1]), in1.iter().copied().min().unwrap()),
                GateKind::Nor => (in1.iter().copied().min().unwrap(), sat_add(in0[0], in0[1])),
                GateKind::Xor => (
                    sat_add(in0[0], in0[1]).min(sat_add(in1[0], in1[1])),
                    sat_add(in0[0], in1[1]).min(sat_add(in1[0], in0[1])),
                ),
                GateKind::Xnor => (
                    sat_add(in0[0], in1[1]).min(sat_add(in1[0], in0[1])),
                    sat_add(in0[0], in0[1]).min(sat_add(in1[0], in1[1])),
                ),
                GateKind::Mux2 => {
                    // select=0 path via a, select=1 path via b.
                    let c0 = sat_add(in0[2], in0[0]).min(sat_add(in1[2], in0[1]));
                    let c1 = sat_add(in0[2], in1[0]).min(sat_add(in1[2], in1[1]));
                    (c0, c1)
                }
                _ => (INF, INF),
            };
            cc0[i] = sat_add(c0, 1);
            cc1[i] = sat_add(c1, 1);
        }

        // --- Observability (backward) -----------------------------------
        let mut co: Vec<u32> = access
            .observed
            .iter()
            .map(|&o| if o { 0 } else { INF })
            .collect();
        for &id in order.iter().rev() {
            let gate = netlist.gate(id);
            // Cost to observe each *input* of this gate through it.
            if gate.kind.is_sequential() && !access.controllable[id.index()] {
                // Capturing into an unobservable (unscanned) flip-flop
                // observes nothing within this test frame.
                continue;
            }
            let co_out = co[id.index()];
            if co_out >= INF {
                continue;
            }
            for (pin, &input) in gate.inputs.iter().enumerate() {
                let side_cost: u32 = match gate.kind {
                    GateKind::Buf
                    | GateKind::Not
                    | GateKind::Output
                    | GateKind::TsvOut
                    | GateKind::Wrapper
                    | GateKind::Dff
                    | GateKind::ScanDff => 0,
                    // The other input must be non-controlling.
                    GateKind::And | GateKind::Nand => cc1[gate.inputs[1 - pin].index()],
                    GateKind::Or | GateKind::Nor => cc0[gate.inputs[1 - pin].index()],
                    GateKind::Xor | GateKind::Xnor => {
                        let other = gate.inputs[1 - pin].index();
                        cc0[other].min(cc1[other])
                    }
                    GateKind::Mux2 => match pin {
                        0 => cc0[gate.inputs[2].index()],
                        1 => cc1[gate.inputs[2].index()],
                        _ => {
                            // Observing the select needs differing data —
                            // approximate with the cheaper data control.
                            let (a, b) = (gate.inputs[0].index(), gate.inputs[1].index());
                            sat_add(cc0[a].min(cc1[a]), cc0[b].min(cc1[b]))
                        }
                    },
                    _ => INF,
                };
                // Sequential capture (scan FF / wrapper): the D pin is the
                // observation point itself if the FF is scan-accessible.
                let base = if gate.kind.is_sequential() { 0 } else { co_out };
                let cost = sat_add(sat_add(base, side_cost), 1);
                if cost < co[input.index()] {
                    co[input.index()] = cost;
                }
            }
        }

        Scores { cc0, cc1, co }
    }

    /// Combined difficulty of detecting a stuck-at fault at `id`:
    /// excitation controllability + observability (saturating).
    pub fn detect_cost(&self, id: GateId, stuck_at_one: bool) -> u32 {
        let cc = if stuck_at_one {
            self.cc0[id.index()]
        } else {
            self.cc1[id.index()]
        };
        sat_add(cc, self.co[id.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::NetlistBuilder;

    #[test]
    fn and_gate_measures_match_goldstein() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::And, &[a, c], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let s = Scores::compute(&n, &AccessView::pre_bond(&n));
        assert_eq!(s.cc0[g.index()], 2);
        assert_eq!(s.cc1[g.index()], 3);
        assert_eq!(s.co[g.index()], 0);
        assert_eq!(s.co[a.index()], 2);
    }

    #[test]
    fn floating_tsv_saturates_both_directions() {
        let mut b = NetlistBuilder::new("t");
        let ti = b.tsv_in("ti");
        let a = b.input("a");
        let g = b.gate(GateKind::And, &[ti, a], "g");
        b.output(g, "o");
        let h = b.gate(GateKind::Not, &[a], "h");
        b.tsv_out(h, "to");
        let n = b.finish().unwrap();
        let s = Scores::compute(&n, &AccessView::pre_bond(&n));
        assert!(s.cc1[g.index()] >= INF, "needs ti=1");
        assert!(s.cc0[g.index()] < INF, "a=0 suffices");
        assert!(s.co[h.index()] >= INF, "only sink is an unwrapped TSV");
        assert!(s.detect_cost(h, true) >= INF);
    }

    #[test]
    fn scan_capture_observes_directly() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a], "g");
        b.scan_dff(g, "q");
        let n = b.finish().unwrap();
        let s = Scores::compute(&n, &AccessView::pre_bond(&n));
        assert_eq!(s.co[g.index()], 0);
        assert!(s.detect_cost(g, false) < INF);
    }
}
