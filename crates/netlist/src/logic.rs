//! Three-valued scalar logic: the single truth table every consumer of
//! gate semantics shares.
//!
//! PODEM implies over [`V3`] gate by gate, constant propagation folds with
//! it, the dataflow value-set lattice takes its image over input sets, and
//! the bit-parallel dual-rail kernel in `prebond3d-atpg` is checked
//! exhaustively against it.

use crate::gate::GateKind;

/// Three-valued logic: known 0, known 1, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum V3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown / unassigned.
    #[default]
    X,
}

impl V3 {
    /// Lift a concrete bool.
    #[inline]
    pub fn from_bool(b: bool) -> V3 {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// The concrete value, if known.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// `true` when not X.
    #[inline]
    pub fn is_known(self) -> bool {
        self != V3::X
    }

    /// Three-valued negation. Deliberately named like `ops::Not::not`,
    /// but kept inherent: `V3` is three-valued, so the trait's boolean
    /// contract does not apply.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn not(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }

    #[inline]
    fn and(self, other: V3) -> V3 {
        match (self, other) {
            (V3::Zero, _) | (_, V3::Zero) => V3::Zero,
            (V3::One, V3::One) => V3::One,
            _ => V3::X,
        }
    }

    #[inline]
    fn or(self, other: V3) -> V3 {
        match (self, other) {
            (V3::One, _) | (_, V3::One) => V3::One,
            (V3::Zero, V3::Zero) => V3::Zero,
            _ => V3::X,
        }
    }

    #[inline]
    fn xor(self, other: V3) -> V3 {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => V3::from_bool(a ^ b),
            _ => V3::X,
        }
    }
}

/// Evaluate `kind` over three-valued inputs.
///
/// Sequential/source kinds are not evaluable here; the caller supplies
/// their values (from the pattern, or X for uncontrollable sources).
///
/// # Panics
///
/// Panics on a non-combinational kind, and (debug) on arity mismatch.
// PODEM implies once per gate through this. With only the `#[inline]`
// hint, a release build without LTO keeps it an out-of-line call from
// PODEM's implication loop.
#[inline(always)]
pub fn eval_v3(kind: GateKind, inputs: &[V3]) -> V3 {
    debug_assert_eq!(inputs.len(), kind.arity());
    match kind {
        GateKind::Buf | GateKind::Output | GateKind::TsvOut => inputs[0],
        GateKind::Not => inputs[0].not(),
        GateKind::And => inputs[0].and(inputs[1]),
        GateKind::Or => inputs[0].or(inputs[1]),
        GateKind::Nand => inputs[0].and(inputs[1]).not(),
        GateKind::Nor => inputs[0].or(inputs[1]).not(),
        GateKind::Xor => inputs[0].xor(inputs[1]),
        GateKind::Xnor => inputs[0].xor(inputs[1]).not(),
        GateKind::Mux2 => match inputs[2] {
            V3::Zero => inputs[0],
            V3::One => inputs[1],
            // Unknown select: output known only if both data agree.
            V3::X => {
                if inputs[0] == inputs[1] {
                    inputs[0]
                } else {
                    V3::X
                }
            }
        },
        _ => unreachable!("eval_v3 on non-combinational {kind:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values_beat_x() {
        assert_eq!(eval_v3(GateKind::And, &[V3::Zero, V3::X]), V3::Zero);
        assert_eq!(eval_v3(GateKind::Or, &[V3::One, V3::X]), V3::One);
        assert_eq!(eval_v3(GateKind::Nand, &[V3::Zero, V3::X]), V3::One);
        assert_eq!(eval_v3(GateKind::Nor, &[V3::One, V3::X]), V3::Zero);
    }

    #[test]
    fn x_propagates_otherwise() {
        assert_eq!(eval_v3(GateKind::And, &[V3::One, V3::X]), V3::X);
        assert_eq!(eval_v3(GateKind::Xor, &[V3::One, V3::X]), V3::X);
        assert_eq!(eval_v3(GateKind::Not, &[V3::X]), V3::X);
    }

    #[test]
    fn mux_with_unknown_select() {
        assert_eq!(eval_v3(GateKind::Mux2, &[V3::One, V3::One, V3::X]), V3::One);
        assert_eq!(eval_v3(GateKind::Mux2, &[V3::Zero, V3::One, V3::X]), V3::X);
        assert_eq!(eval_v3(GateKind::Mux2, &[V3::X, V3::X, V3::X]), V3::X);
        assert_eq!(
            eval_v3(GateKind::Mux2, &[V3::Zero, V3::One, V3::One]),
            V3::One
        );
        assert_eq!(
            eval_v3(GateKind::Mux2, &[V3::Zero, V3::One, V3::Zero]),
            V3::Zero
        );
    }

    #[test]
    fn known_inputs_follow_boolean_truth_tables() {
        use GateKind::*;
        for kind in [And, Or, Nand, Nor, Xor, Xnor] {
            for a in [false, true] {
                for b in [false, true] {
                    let want = match kind {
                        And => a & b,
                        Or => a | b,
                        Nand => !(a & b),
                        Nor => !(a | b),
                        Xor => a ^ b,
                        _ => !(a ^ b),
                    };
                    let got = eval_v3(kind, &[V3::from_bool(a), V3::from_bool(b)]);
                    assert_eq!(got, V3::from_bool(want), "{kind:?}({a},{b})");
                }
            }
        }
    }

    #[test]
    fn bool_roundtrip() {
        assert_eq!(V3::from_bool(true).to_bool(), Some(true));
        assert_eq!(V3::from_bool(false).to_bool(), Some(false));
        assert_eq!(V3::X.to_bool(), None);
        assert!(V3::One.is_known());
        assert!(!V3::X.is_known());
    }
}
