//! Gate kinds and the single-output gate node.

use std::fmt;

/// Identifier of a gate inside one [`crate::Netlist`].
///
/// Because every gate drives exactly one signal, a `GateId` doubles as the
/// identifier of the signal the gate drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

impl GateId {
    /// Index into per-gate side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// The primitive cell alphabet of the netlist IR.
///
/// The alphabet intentionally mirrors what a 45 nm standard-cell mapping of
/// the ITC'99 benchmarks produces after synthesis: 1- and 2-input logic,
/// a 2:1 mux, D flip-flops (plain and scan variants) and the pre-bond-test
/// specific endpoints (TSV ports and wrapper cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GateKind {
    /// Primary input. 0 gate inputs.
    Input,
    /// Primary output marker. 1 gate input; drives nothing downstream.
    Output,
    /// Constant logic 0 source. 0 inputs.
    Const0,
    /// Constant logic 1 source. 0 inputs.
    Const1,
    /// Buffer. 1 input.
    Buf,
    /// Inverter. 1 input.
    Not,
    /// 2-input AND.
    And,
    /// 2-input OR.
    Or,
    /// 2-input NAND.
    Nand,
    /// 2-input NOR.
    Nor,
    /// 2-input XOR.
    Xor,
    /// 2-input XNOR.
    Xnor,
    /// 2:1 multiplexer; inputs are `[a, b, sel]`, output `sel ? b : a`.
    Mux2,
    /// D flip-flop. Input `[d]`, output is `q`. Clock is implicit (single
    /// clock domain, as in the ITC'99 benchmarks).
    Dff,
    /// Scan-converted D flip-flop. Functionally identical to [`Self::Dff`]
    /// in mission mode; in test mode it is fully controllable/observable
    /// through the scan chain. Input `[d]`.
    ScanDff,
    /// Inbound TSV endpoint: a die input driven by another die through a
    /// TSV. Pre-bond it floats, i.e. it is *not* controllable. 0 inputs.
    TsvIn,
    /// Outbound TSV endpoint: a die output driving another die through a
    /// TSV. Pre-bond it is *not* observable. 1 input.
    TsvOut,
    /// Dedicated wrapper cell inserted by DFT (a gated scan cell).
    /// 1 input.
    Wrapper,
}

impl GateKind {
    /// Number of inputs this kind requires, or `None` for variable arity.
    ///
    /// All kinds in this alphabet are fixed-arity.
    pub fn arity(self) -> usize {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::TsvIn => 0,
            GateKind::Output
            | GateKind::Buf
            | GateKind::Not
            | GateKind::Dff
            | GateKind::ScanDff
            | GateKind::TsvOut
            | GateKind::Wrapper => 1,
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => 2,
            GateKind::Mux2 => 3,
        }
    }

    /// `true` for the kinds that evaluate combinationally from their inputs.
    pub fn is_combinational(self) -> bool {
        matches!(
            self,
            GateKind::Buf
                | GateKind::Not
                | GateKind::And
                | GateKind::Or
                | GateKind::Nand
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
                | GateKind::Mux2
                | GateKind::Output
                | GateKind::TsvOut
        )
    }

    /// `true` for state-holding kinds (combinational boundaries).
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff | GateKind::ScanDff | GateKind::Wrapper)
    }

    /// `true` for kinds whose output is a combinational source: primary
    /// inputs, constants, flip-flop outputs and inbound TSVs.
    pub fn is_source(self) -> bool {
        matches!(
            self,
            GateKind::Input
                | GateKind::Const0
                | GateKind::Const1
                | GateKind::Dff
                | GateKind::ScanDff
                | GateKind::Wrapper
                | GateKind::TsvIn
        )
    }

    /// `true` for kinds that terminate combinational paths: primary
    /// outputs, flip-flop data inputs and outbound TSVs.
    ///
    /// Note flip-flops are both sources (their Q) and sinks (their D); this
    /// predicate is about the *sink* role.
    pub fn is_sink(self) -> bool {
        matches!(
            self,
            GateKind::Output
                | GateKind::Dff
                | GateKind::ScanDff
                | GateKind::Wrapper
                | GateKind::TsvOut
        )
    }

    /// The controlling value of the gate, if it has one (e.g. 0 for AND,
    /// 1 for OR). Used by SCOAP and PODEM backtracing.
    pub fn controlling_value(self) -> Option<bool> {
        match self {
            GateKind::And | GateKind::Nand => Some(false),
            GateKind::Or | GateKind::Nor => Some(true),
            _ => None,
        }
    }

    /// Whether the gate inverts its (non-controlling) inputs on the way to
    /// the output: NAND/NOR/NOT/XNOR.
    pub fn inverts(self) -> bool {
        matches!(
            self,
            GateKind::Nand | GateKind::Nor | GateKind::Not | GateKind::Xnor
        )
    }

    /// Short lowercase mnemonic used by the text format and reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Input => "input",
            GateKind::Output => "output",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Mux2 => "mux2",
            GateKind::Dff => "dff",
            GateKind::ScanDff => "sdff",
            GateKind::TsvIn => "tsv_in",
            GateKind::TsvOut => "tsv_out",
            GateKind::Wrapper => "wrapper",
        }
    }

    /// Parse a mnemonic produced by [`Self::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<GateKind> {
        Some(match s {
            "input" => GateKind::Input,
            "output" => GateKind::Output,
            "const0" => GateKind::Const0,
            "const1" => GateKind::Const1,
            "buf" => GateKind::Buf,
            "not" => GateKind::Not,
            "and" => GateKind::And,
            "or" => GateKind::Or,
            "nand" => GateKind::Nand,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "mux2" => GateKind::Mux2,
            "dff" => GateKind::Dff,
            "sdff" => GateKind::ScanDff,
            "tsv_in" => GateKind::TsvIn,
            "tsv_out" => GateKind::TsvOut,
            "wrapper" => GateKind::Wrapper,
            _ => return None,
        })
    }

    /// All kinds, for iteration in tests and statistics.
    pub const ALL: [GateKind; 18] = [
        GateKind::Input,
        GateKind::Output,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux2,
        GateKind::Dff,
        GateKind::ScanDff,
        GateKind::TsvIn,
        GateKind::TsvOut,
        GateKind::Wrapper,
    ];
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One single-output node of the netlist DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Instance name; unique within the netlist.
    pub name: String,
    /// Primitive kind.
    pub kind: GateKind,
    /// Driving signals, ordered per the kind's pin convention.
    pub inputs: Vec<GateId>,
}

impl Gate {
    /// Construct a gate node. Arity is validated by the builder, not here.
    pub fn new(name: impl Into<String>, kind: GateKind, inputs: Vec<GateId>) -> Self {
        Gate {
            name: name.into(),
            kind,
            inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip() {
        for kind in GateKind::ALL {
            assert_eq!(GateKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(GateKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(GateKind::And.controlling_value(), Some(false));
        assert_eq!(GateKind::Nand.controlling_value(), Some(false));
        assert_eq!(GateKind::Or.controlling_value(), Some(true));
        assert_eq!(GateKind::Nor.controlling_value(), Some(true));
        assert_eq!(GateKind::Xor.controlling_value(), None);
        assert_eq!(GateKind::Buf.controlling_value(), None);
    }

    #[test]
    fn source_sink_classification() {
        assert!(GateKind::Input.is_source());
        assert!(GateKind::TsvIn.is_source());
        assert!(GateKind::Dff.is_source());
        assert!(GateKind::Dff.is_sink());
        assert!(GateKind::TsvOut.is_sink());
        assert!(GateKind::Output.is_sink());
        assert!(!GateKind::And.is_source());
        assert!(!GateKind::And.is_sink());
    }
}
