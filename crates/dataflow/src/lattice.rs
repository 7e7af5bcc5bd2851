//! The ternary value-set lattice and its exact abstract transfer functions.
//!
//! Each net is abstracted by the **set of three-valued simulation values**
//! it can take across all test patterns: a subset of `{0, 1, X}`. The
//! abstraction is sound with respect to the dual-rail good-machine
//! simulator: if a concrete pattern produces value `v` on a net, `v` is a
//! member of the net's [`ValueSet`]. Transfer functions are computed as
//! the *image* of the scalar ternary gate evaluation over the cartesian
//! product of the input sets (through the one scalar evaluator,
//! [`prebond3d_netlist::eval_v3`]), so they are both sound and as precise
//! as a correlation-free abstraction can be.
//!
//! The join is set union; the bottom element is the empty set.

use prebond3d_netlist::{eval_v3, GateKind, V3};

/// A subset of `{0, 1, X}` — the possible three-valued simulation values
/// of one net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueSet(u8);

const BIT_ZERO: u8 = 1;
const BIT_ONE: u8 = 2;
const BIT_X: u8 = 4;

impl ValueSet {
    /// Bottom: no value reached yet.
    pub const EMPTY: ValueSet = ValueSet(0);
    /// Exactly `{0}`.
    pub const ZERO: ValueSet = ValueSet(BIT_ZERO);
    /// Exactly `{1}`.
    pub const ONE: ValueSet = ValueSet(BIT_ONE);
    /// Exactly `{X}`.
    pub const X: ValueSet = ValueSet(BIT_X);
    /// `{0, 1}`: a fully controllable known net.
    pub const BOOL: ValueSet = ValueSet(BIT_ZERO | BIT_ONE);
    /// Top: `{0, 1, X}`.
    pub const TOP: ValueSet = ValueSet(BIT_ZERO | BIT_ONE | BIT_X);

    /// The singleton of a known boolean.
    pub fn of(v: bool) -> ValueSet {
        if v {
            ValueSet::ONE
        } else {
            ValueSet::ZERO
        }
    }

    /// The singleton of a scalar ternary value.
    pub fn of_v3(v: V3) -> ValueSet {
        match v {
            V3::Zero => ValueSet::ZERO,
            V3::One => ValueSet::ONE,
            V3::X => ValueSet::X,
        }
    }

    /// Set union (the lattice join).
    #[must_use]
    pub fn join(self, other: ValueSet) -> ValueSet {
        ValueSet(self.0 | other.0)
    }

    /// Does the set contain the known value `v`?
    pub fn contains(self, v: bool) -> bool {
        self.0 & if v { BIT_ONE } else { BIT_ZERO } != 0
    }

    /// Does the set contain X?
    pub fn contains_x(self) -> bool {
        self.0 & BIT_X != 0
    }

    /// No value at all (only for nets downstream of an empty set).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `Some(v)` when the net provably carries the known constant `v` on
    /// every pattern.
    pub fn is_constant(self) -> Option<bool> {
        match self.0 {
            x if x == BIT_ZERO => Some(false),
            x if x == BIT_ONE => Some(true),
            _ => None,
        }
    }

    /// The net is X on every pattern: nothing pre-bond test can control.
    pub fn is_x_only(self) -> bool {
        self.0 == BIT_X
    }

    /// Iterate the members as scalar values, in the fixed order 0, 1, X.
    pub fn members(self) -> impl Iterator<Item = V3> {
        [(BIT_ZERO, V3::Zero), (BIT_ONE, V3::One), (BIT_X, V3::X)]
            .into_iter()
            .filter_map(move |(bit, v)| (self.0 & bit != 0).then_some(v))
    }

    /// Compact display for diagnostics: e.g. `{0}`, `{0,X}`, `{0,1,X}`.
    pub fn render(self) -> String {
        let parts: Vec<&str> = [(BIT_ZERO, "0"), (BIT_ONE, "1"), (BIT_X, "X")]
            .iter()
            .filter_map(|&(bit, s)| (self.0 & bit != 0).then_some(s))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// Abstract transfer: the image of [`eval_v3`] over the cartesian product
/// of the input sets. Any input with an empty set yields the empty set
/// (no concrete evaluation exists yet).
pub fn eval_set(kind: GateKind, inputs: &[ValueSet]) -> ValueSet {
    debug_assert_eq!(inputs.len(), kind.arity(), "arity mismatch for {kind:?}");
    let mut out = ValueSet::EMPTY;
    let mut combo = [V3::X; 3];
    // Max arity is 3 and |set| ≤ 3, so this enumerates ≤ 27 combinations.
    match inputs.len() {
        1 => {
            for a in inputs[0].members() {
                combo[0] = a;
                out = out.join(ValueSet::of_v3(eval_v3(kind, &combo[..1])));
            }
        }
        2 => {
            for a in inputs[0].members() {
                for b in inputs[1].members() {
                    combo[0] = a;
                    combo[1] = b;
                    out = out.join(ValueSet::of_v3(eval_v3(kind, &combo[..2])));
                }
            }
        }
        3 => {
            for a in inputs[0].members() {
                for b in inputs[1].members() {
                    for s in inputs[2].members() {
                        combo[0] = a;
                        combo[1] = b;
                        combo[2] = s;
                        out = out.join(ValueSet::of_v3(eval_v3(kind, &combo[..3])));
                    }
                }
            }
        }
        _ => unreachable!("no 0-input combinational kinds"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_membership() {
        let s = ValueSet::ZERO.join(ValueSet::X);
        assert!(s.contains(false));
        assert!(!s.contains(true));
        assert!(s.contains_x());
        assert_eq!(s.render(), "{0,X}");
        assert_eq!(ValueSet::ONE.is_constant(), Some(true));
        assert_eq!(s.is_constant(), None);
        assert!(ValueSet::X.is_x_only());
        assert!(!s.is_x_only());
    }

    #[test]
    fn and_absorbs_zero_even_against_x() {
        // 0 & X = 0: the controlling value dominates the unknown.
        let out = eval_set(GateKind::And, &[ValueSet::ZERO, ValueSet::X]);
        assert_eq!(out, ValueSet::ZERO);
        // {0,1} & X = {0, X}.
        let out = eval_set(GateKind::And, &[ValueSet::BOOL, ValueSet::X]);
        assert_eq!(out, ValueSet::ZERO.join(ValueSet::X));
    }

    #[test]
    fn xor_loses_precision_on_x() {
        let out = eval_set(GateKind::Xor, &[ValueSet::BOOL, ValueSet::X]);
        assert_eq!(out, ValueSet::X);
        let out = eval_set(GateKind::Xor, &[ValueSet::ONE, ValueSet::ONE]);
        assert_eq!(out, ValueSet::ZERO);
    }

    #[test]
    fn mux_consensus_matches_the_simulator() {
        // sel=X but both data inputs constant 1 → output known 1.
        let out = eval_set(GateKind::Mux2, &[ValueSet::ONE, ValueSet::ONE, ValueSet::X]);
        assert_eq!(out, ValueSet::ONE);
        // sel=X, data disagree → X creeps in.
        let out = eval_set(
            GateKind::Mux2,
            &[ValueSet::ZERO, ValueSet::ONE, ValueSet::X],
        );
        assert_eq!(out, ValueSet::X);
        // sel constant 0 routes input a through untouched.
        let out = eval_set(
            GateKind::Mux2,
            &[ValueSet::BOOL, ValueSet::X, ValueSet::ZERO],
        );
        assert_eq!(out, ValueSet::BOOL);
    }

    #[test]
    fn empty_inputs_stay_empty() {
        let out = eval_set(GateKind::And, &[ValueSet::EMPTY, ValueSet::BOOL]);
        assert!(out.is_empty());
    }

    #[test]
    fn transfer_is_monotone_in_every_argument() {
        // Exhaustive: growing any input set can only grow the output set.
        let all: Vec<ValueSet> = (0u8..8).map(ValueSet).collect();
        let supersets = |s: ValueSet| all.iter().copied().filter(move |t| t.0 & s.0 == s.0);
        for kind in [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let arity = kind.arity();
            for &a in &all {
                for &b in &all {
                    let base = if arity == 1 {
                        eval_set(kind, &[a])
                    } else {
                        eval_set(kind, &[a, b])
                    };
                    for a2 in supersets(a) {
                        for b2 in supersets(b) {
                            let grown = if arity == 1 {
                                eval_set(kind, &[a2])
                            } else {
                                eval_set(kind, &[a2, b2])
                            };
                            assert_eq!(
                                grown.0 & base.0,
                                base.0,
                                "{kind:?} not monotone: {a:?},{b:?} → {base:?} vs {a2:?},{b2:?} → {grown:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
