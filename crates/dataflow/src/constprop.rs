//! Ternary constant propagation: per-net value sets under a test-access
//! source model.
//!
//! A [`SourceModel`] fixes the abstract value of every *source* net
//! (primary inputs, constants, flip-flop outputs, TSV endpoints); one
//! topological pass then derives the value set of every combinational
//! net. The two stock models mirror the simulator's pre-bond access
//! semantics:
//!
//! * [`SourceModel::pre_bond`] — scan-accessible sources (`Input`,
//!   `ScanDff`, `Wrapper`) take `{0,1}`; floating TSVs and unscanned
//!   flip-flops take `{X}`; constants take their singleton.
//! * [`SourceModel::assume_wrapped`] — like `pre_bond`, but inbound TSVs
//!   are `{0,1}` (they *will* receive a wrapper cell), which is the right
//!   view for judging whether a wrapper boundary is testable at all.
//!
//! Custom models ([`SourceModel::set_source`]) let the ATPG layer mirror
//! its exact `TestAccess` — including pinned nodes — so the derived facts
//! are sound for the very patterns the engine simulates.

use prebond3d_netlist::{GateId, GateKind, Netlist};

use crate::lattice::{eval_set, ValueSet};

/// Per-source abstract values; combinational nets are ignored.
#[derive(Debug, Clone)]
pub struct SourceModel {
    sets: Vec<ValueSet>,
}

fn base_model(netlist: &Netlist, tsv_in: ValueSet) -> Vec<ValueSet> {
    netlist
        .iter()
        .map(|(_, gate)| match gate.kind {
            GateKind::Const0 => ValueSet::ZERO,
            GateKind::Const1 => ValueSet::ONE,
            GateKind::Input | GateKind::ScanDff | GateKind::Wrapper => ValueSet::BOOL,
            GateKind::TsvIn => tsv_in,
            GateKind::Dff => ValueSet::X,
            // Combinational nets: derived by the pass, not the model.
            _ => ValueSet::EMPTY,
        })
        .collect()
}

impl SourceModel {
    /// Pre-bond full-scan access: floating TSVs are uncontrollable.
    pub fn pre_bond(netlist: &Netlist) -> SourceModel {
        SourceModel {
            sets: base_model(netlist, ValueSet::X),
        }
    }

    /// Pre-bond access assuming every inbound TSV gets a wrapper cell.
    pub fn assume_wrapped(netlist: &Netlist) -> SourceModel {
        SourceModel {
            sets: base_model(netlist, ValueSet::BOOL),
        }
    }

    /// Override one source's abstract value (pinned test-enable nets,
    /// custom access models). Constants cannot be overridden — the
    /// simulator reasserts them on every evaluation — and overrides of
    /// combinational nets are ignored for the same reason.
    pub fn set_source(&mut self, id: GateId, set: ValueSet) {
        self.sets[id.index()] = set;
    }
}

/// The value set of every net under one source model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constants {
    /// Value set per gate output, indexed by `GateId`.
    pub sets: Vec<ValueSet>,
}

impl Constants {
    /// Derive every net's value set under `model` in one topological
    /// pass. Sequential Q pins act as sources (the D-pin side never feeds
    /// back within a test frame), so the combinational netlist is a DAG
    /// and the pass computes its unique fixpoint.
    pub fn compute(netlist: &Netlist, model: &SourceModel) -> Constants {
        let mut sets = model.sets.clone();
        for &id in netlist.order() {
            let gate = netlist.gate(id);
            sets[id.index()] = match gate.kind {
                // Constants always win, matching the simulator's evaluation
                // order (they are reasserted inside the topological sweep).
                GateKind::Const0 => ValueSet::ZERO,
                GateKind::Const1 => ValueSet::ONE,
                kind if kind.is_combinational() => {
                    let mut inputs = [ValueSet::EMPTY; 3];
                    for (slot, &i) in inputs.iter_mut().zip(gate.inputs.iter()) {
                        *slot = sets[i.index()];
                    }
                    eval_set(kind, &inputs[..gate.inputs.len()])
                }
                // Sources and sequential Q pins hold their modeled value.
                _ => continue,
            };
        }
        Constants { sets }
    }

    /// The value set of one net.
    pub fn set(&self, id: GateId) -> ValueSet {
        self.sets[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::NetlistBuilder;

    #[test]
    fn constants_propagate_through_logic() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c0 = b.gate(GateKind::Const0, &[], "c0");
        let g = b.gate(GateKind::And, &[a, c0], "g"); // a & 0 = 0
        let h = b.gate(GateKind::Not, &[g], "h"); // ¬0 = 1
        b.output(h, "o");
        let n = b.finish().unwrap();
        let consts = Constants::compute(&n, &SourceModel::pre_bond(&n));
        assert_eq!(consts.set(g).is_constant(), Some(false));
        assert_eq!(consts.set(h).is_constant(), Some(true));
        assert_eq!(consts.set(a).is_constant(), None);
    }

    #[test]
    fn x_cones_grow_from_floating_tsvs_and_plain_dffs() {
        let mut b = NetlistBuilder::new("t");
        let ti = b.tsv_in("ti");
        let a = b.input("a");
        let g = b.gate(GateKind::Xor, &[ti, a], "g"); // X ^ a = X
        let h = b.gate(GateKind::And, &[g, a], "h"); // X & {0,1} = {0,X}
        b.output(h, "o");
        let n = b.finish().unwrap();
        let consts = Constants::compute(&n, &SourceModel::pre_bond(&n));
        assert!(consts.set(ti).is_x_only());
        assert!(consts.set(g).is_x_only());
        assert!(!consts.set(h).is_x_only());
        assert!(consts.set(h).contains_x());
        assert!(consts.set(h).contains(false));
        assert!(!consts.set(h).contains(true));
    }

    #[test]
    fn assume_wrapped_recovers_tsv_cones() {
        let mut b = NetlistBuilder::new("t");
        let ti = b.tsv_in("ti");
        let g = b.gate(GateKind::Not, &[ti], "g");
        b.tsv_out(g, "to");
        let n = b.finish().unwrap();
        let pre = Constants::compute(&n, &SourceModel::pre_bond(&n));
        assert!(pre.set(g).is_x_only());
        let wrapped = Constants::compute(&n, &SourceModel::assume_wrapped(&n));
        assert_eq!(wrapped.set(g), ValueSet::BOOL);
    }

    #[test]
    fn pinned_sources_narrow_the_model() {
        let mut b = NetlistBuilder::new("t");
        let en = b.input("en");
        let a = b.input("a");
        let g = b.gate(GateKind::And, &[en, a], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let mut model = SourceModel::pre_bond(&n);
        model.set_source(en, ValueSet::ONE);
        // en pinned to 1 → g ≡ a.
        assert_eq!(Constants::compute(&n, &model).set(g), ValueSet::BOOL);
        model.set_source(en, ValueSet::ZERO);
        assert_eq!(
            Constants::compute(&n, &model).set(g).is_constant(),
            Some(false)
        );
    }
}
