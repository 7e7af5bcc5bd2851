//! Netlist editing and cleanup passes.
//!
//! Small structural transforms used around DFT insertion and benchmark
//! preparation:
//!
//! * [`rewire`] — redirect every consumer of one signal to another,
//! * [`propagate_constants`] — fold logic fed by `const0`/`const1`
//!   (e.g. specialise a testable netlist for one value of `test_en`),
//! * [`sweep_dead`] — remove gates that can no longer reach any sink.
//!
//! All passes return fresh, revalidated netlists; ids are *not* preserved
//! across [`sweep_dead`] (a mapping is returned instead).

use std::collections::HashMap;

use crate::gate::{Gate, GateId, GateKind};
use crate::logic::{eval_v3, V3};
use crate::netlist::Netlist;
use crate::NetlistError;

/// Redirect every consumer of `from` to `to`.
///
/// # Errors
///
/// Propagates validation errors (e.g. if the rewiring creates a
/// combinational cycle).
pub fn rewire(netlist: &Netlist, from: GateId, to: GateId) -> Result<Netlist, NetlistError> {
    let gates: Vec<Gate> = netlist
        .iter()
        .map(|(_, g)| {
            let mut g = g.clone();
            for input in &mut g.inputs {
                if *input == from {
                    *input = to;
                }
            }
            g
        })
        .collect();
    Netlist::from_gates(netlist.name().to_string(), gates)
}

/// Fold constants through the combinational logic: every gate whose output
/// is statically implied by `const0`/`const1` sources (plus the optional
/// `forced` assignments, e.g. `test_en = 1`) is replaced by a constant
/// source; the remaining structure is untouched.
///
/// Returns the new netlist; gate count and ids are preserved (constant
/// gates are re-kinded in place), so downstream id-based bookkeeping keeps
/// working.
///
/// # Errors
///
/// Propagates validation errors.
pub fn propagate_constants(
    netlist: &Netlist,
    forced: &[(GateId, bool)],
) -> Result<Netlist, NetlistError> {
    let order = crate::traverse::combinational_order(netlist);
    let mut values = vec![V3::X; netlist.len()];
    for &(id, v) in forced {
        // A forced id outside the netlist is a caller bug, but one that is
        // easy to hit when ids from a pre-edit netlist leak through; report
        // it as a dangling reference instead of panicking on the index.
        if netlist.get(id).is_none() {
            return Err(NetlistError::DanglingInput {
                gate: "<forced assignment>".to_string(),
                input: id,
            });
        }
        values[id.index()] = V3::from_bool(v);
    }
    for &id in &order {
        if values[id.index()].is_known() {
            continue;
        }
        let gate = netlist.gate(id);
        values[id.index()] = match gate.kind {
            GateKind::Const0 => V3::Zero,
            GateKind::Const1 => V3::One,
            _ if !gate.kind.is_combinational() => V3::X,
            _ => {
                let ins: Vec<V3> = gate.inputs.iter().map(|&i| values[i.index()]).collect();
                eval_v3(gate.kind, &ins)
            }
        };
    }

    let gates: Vec<Gate> = netlist
        .iter()
        .map(|(id, g)| {
            let mut g = g.clone();
            // Sinks and sources keep their role; internal logic with a
            // known value becomes a constant source.
            if g.kind.is_combinational() && !matches!(g.kind, GateKind::Output | GateKind::TsvOut) {
                if let Some(v) = values[id.index()].to_bool() {
                    g.kind = if v {
                        GateKind::Const1
                    } else {
                        GateKind::Const0
                    };
                    g.inputs.clear();
                }
            }
            g
        })
        .collect();
    Netlist::from_gates(netlist.name().to_string(), gates)
}

/// Remove every gate that reaches no sink (primary output, TSV endpoint
/// or flip-flop). Returns the swept netlist and, for each surviving
/// original id, its new id.
///
/// # Errors
///
/// Propagates validation errors.
pub fn sweep_dead(netlist: &Netlist) -> Result<(Netlist, HashMap<GateId, GateId>), NetlistError> {
    // Mark everything that transitively feeds a sink (crossing flip-flops:
    // a gate feeding a flip-flop's D is alive, and the flip-flop's own Q
    // fanout keeps the flip-flop alive).
    let mut alive = vec![false; netlist.len()];
    let mut stack: Vec<GateId> = netlist
        .iter()
        .filter(|(_, g)| matches!(g.kind, GateKind::Output | GateKind::TsvOut))
        .map(|(id, _)| id)
        .collect();
    // Flip-flops stay: they are architectural state.
    stack.extend(netlist.flip_flops());
    for &id in &stack {
        alive[id.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &input in &netlist.gate(id).inputs {
            if !alive[input.index()] {
                alive[input.index()] = true;
                stack.push(input);
            }
        }
    }
    // Sources stay too (ports must survive even when unconnected).
    for (id, gate) in netlist.iter() {
        if gate.kind.is_source() && !gate.kind.is_sequential() {
            alive[id.index()] = true;
        }
    }

    let mut mapping: HashMap<GateId, GateId> = HashMap::new();
    let mut gates: Vec<Gate> = Vec::new();
    for (id, gate) in netlist.iter() {
        if alive[id.index()] {
            mapping.insert(id, GateId(gates.len() as u32));
            gates.push(gate.clone());
        }
    }
    for gate in &mut gates {
        for input in &mut gate.inputs {
            // Liveness is closed over inputs: every input of a surviving
            // gate was marked alive above, so it must be in the mapping.
            *input = *mapping
                .get(input)
                .expect("sweep keeps live-input closure: inputs of live gates are live");
        }
    }
    let swept = Netlist::from_gates(netlist.name().to_string(), gates)?;
    Ok((swept, mapping))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn rewire_moves_fanout() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::Not, &[a], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let n2 = rewire(&n, a, c).unwrap();
        let g2 = n2.find("g").unwrap();
        assert_eq!(n2.gate(g2).inputs, vec![c]);
        assert!(n2.fanout(a).is_empty());
    }

    #[test]
    fn constants_fold_through_logic() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let zero = b.gate(GateKind::Const0, &[], "zero");
        let g1 = b.gate(GateKind::And, &[a, zero], "g1"); // = 0
        let g2 = b.gate(GateKind::Or, &[g1, a], "g2"); // = a (unknown)
        let g3 = b.gate(GateKind::Nor, &[g1, g1], "g3"); // = 1
        b.output(g2, "o1");
        b.output(g3, "o2");
        let n = b.finish().unwrap();
        let folded = propagate_constants(&n, &[]).unwrap();
        assert_eq!(
            folded.gate(folded.find("g1").unwrap()).kind,
            GateKind::Const0
        );
        assert_eq!(
            folded.gate(folded.find("g3").unwrap()).kind,
            GateKind::Const1
        );
        assert_eq!(folded.gate(folded.find("g2").unwrap()).kind, GateKind::Or);
    }

    #[test]
    fn forced_values_specialize_muxes() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let sel = b.input("test_en");
        let m = b.gate(GateKind::Mux2, &[a, c, sel], "m");
        b.output(m, "o");
        let n = b.finish().unwrap();
        // With test_en forced to 0 the mux is NOT constant (it follows a),
        // so it must survive; but with both data constant it would fold.
        let folded = propagate_constants(&n, &[(sel, false)]).unwrap();
        assert_eq!(folded.gate(folded.find("m").unwrap()).kind, GateKind::Mux2);
        // Force `a` too: now the mux folds to a's value.
        let folded2 = propagate_constants(&n, &[(sel, false), (a, true)]).unwrap();
        assert_eq!(
            folded2.gate(folded2.find("m").unwrap()).kind,
            GateKind::Const1
        );
    }

    #[test]
    fn sweep_removes_unreachable_logic() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let live = b.gate(GateKind::Not, &[a], "live");
        let dead = b.gate(GateKind::Not, &[a], "dead");
        let dead2 = b.gate(GateKind::Not, &[dead], "dead2");
        b.output(live, "o");
        let n = b.finish().unwrap();
        let _ = dead2;
        let (swept, mapping) = sweep_dead(&n).unwrap();
        assert!(swept.find("dead").is_none());
        assert!(swept.find("dead2").is_none());
        assert!(swept.find("live").is_some());
        assert!(mapping.contains_key(&live));
        assert_eq!(swept.len(), 3); // a, live, o
    }

    #[test]
    fn forced_id_outside_netlist_is_an_error_not_a_panic() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.output(a, "o");
        let n = b.finish().unwrap();
        let err = propagate_constants(&n, &[(GateId(99), true)]).unwrap_err();
        assert!(matches!(
            err,
            NetlistError::DanglingInput {
                input: GateId(99),
                ..
            }
        ));
    }

    #[test]
    fn sweep_keeps_flip_flop_state() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a], "g");
        // Flip-flop with no downstream consumer: architectural state stays.
        b.scan_dff(g, "q");
        b.output(a, "o");
        let n = b.finish().unwrap();
        let (swept, _) = sweep_dead(&n).unwrap();
        assert!(swept.find("q").is_some());
        assert!(swept.find("g").is_some(), "its D cone stays too");
    }
}
