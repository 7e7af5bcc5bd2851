//! Bit-parallel three-valued good-machine simulation.
//!
//! Values are dual-rail encoded per gate: a `val` word and an `unk` word.
//! Each word is a [`Lanes<W>`] bundle of `W` 64-bit lanes (W ∈ {1, 4, 8}),
//! so one batch carries up to `W * 64` independent patterns; lane `l`
//! holds pattern bits `l*64 ..= l*64+63`. All lane arithmetic is plain
//! bitwise ops over `[u64; W]` — stable Rust the compiler auto-vectorizes,
//! no `unsafe`, no intrinsics. Uncontrollable sources (floating TSVs,
//! non-scan flip-flops) simulate as X, so anything a pre-bond tester could
//! not actually predict is never credited as observed.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not};

use prebond3d_netlist::{GateId, GateKind, Netlist, V3};

use crate::access::TestAccess;

/// A bundle of `W` pattern lanes: bitwise SIMD words the simulator's
/// dual-rail algebra runs over unchanged at any width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes<const W: usize>(pub [u64; W]);

impl<const W: usize> Lanes<W> {
    /// All bits clear.
    pub const ZERO: Self = Lanes([0; W]);
    /// All bits set.
    pub const MAX: Self = Lanes([u64::MAX; W]);

    /// Any bit set in any lane?
    #[inline]
    pub fn any(self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// One lane's word.
    #[inline]
    pub fn lane(self, l: usize) -> u64 {
        self.0[l]
    }

    /// The used-bit mask for a batch of `count` patterns (`count <= W*64`):
    /// lane `l` covers patterns `l*64..(l+1)*64`, partial tail lane included.
    #[inline]
    pub fn used_mask(count: usize) -> Self {
        let mut m = [0u64; W];
        for (l, word) in m.iter_mut().enumerate() {
            let filled = count.saturating_sub(l * 64).min(64);
            *word = if filled == 64 {
                u64::MAX
            } else {
                (1u64 << filled) - 1
            };
        }
        Lanes(m)
    }
}

macro_rules! lanes_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const W: usize> $trait for Lanes<W> {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: Self) -> Self {
                let mut out = [0u64; W];
                for l in 0..W {
                    out[l] = self.0[l] $op rhs.0[l];
                }
                Lanes(out)
            }
        }
    };
}
lanes_binop!(BitAnd, bitand, &);
lanes_binop!(BitOr, bitor, |);
lanes_binop!(BitXor, bitxor, ^);

impl<const W: usize> Not for Lanes<W> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        let mut out = [0u64; W];
        for (o, x) in out.iter_mut().zip(self.0) {
            *o = !x;
        }
        Lanes(out)
    }
}

impl<const W: usize> BitOrAssign for Lanes<W> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for l in 0..W {
            self.0[l] |= rhs.0[l];
        }
    }
}

impl<const W: usize> BitAndAssign for Lanes<W> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for l in 0..W {
            self.0[l] &= rhs.0[l];
        }
    }
}

/// Batch-formation error: the caller handed the simulator a batch it cannot
/// represent. Surfaced as a typed error (mapped to the `FlowError` exit-code
/// contract by the flow layer) instead of a panic, so an oversized batch
/// from a future caller degrades instead of tripping panic isolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// More patterns than the batch word can carry.
    TooManyPatterns {
        /// Patterns supplied.
        given: usize,
        /// Patterns the lane bundle can hold.
        capacity: usize,
    },
    /// A pattern's bit vector does not match the access-model width.
    WidthMismatch {
        /// Index of the offending pattern within the batch.
        pattern: usize,
        /// Controllable width the access model expects.
        expected: usize,
        /// Width actually supplied.
        got: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TooManyPatterns { given, capacity } => write!(
                f,
                "batch of {given} patterns exceeds the {capacity}-pattern lane capacity"
            ),
            SimError::WidthMismatch {
                pattern,
                expected,
                got,
            } => write!(
                f,
                "pattern {pattern} is {got} bits wide but the access model has {expected} controllable sources"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One test pattern: a value per controllable source, in
/// [`TestAccess::controllable`] rank order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Pattern bits, indexed by controllable rank.
    pub bits: Vec<bool>,
}

impl Pattern {
    /// The all-zero pattern of the given width.
    pub fn zeroes(width: usize) -> Pattern {
        Pattern {
            bits: vec![false; width],
        }
    }

    /// Build from a V3 assignment, filling X with `fill`.
    pub fn from_v3(values: &[V3], fill: bool) -> Pattern {
        Pattern {
            bits: values.iter().map(|v| v.to_bool().unwrap_or(fill)).collect(),
        }
    }
}

/// Dual-rail word pair: (`val`, `unk`). Bit known ⇔ `unk` bit clear.
pub type Rail = (u64, u64);

/// Dual-rail lane-bundle pair: the wide analogue of [`Rail`].
pub type RailW<const W: usize> = (Lanes<W>, Lanes<W>);

/// Evaluate `kind` over dual-rail lane bundles. The single truth-table
/// implementation every width shares, so wide and narrow simulation
/// cannot drift apart.
pub fn eval_rail_wide<const W: usize>(kind: GateKind, inputs: &[RailW<W>]) -> RailW<W> {
    #[inline]
    fn ones<const W: usize>(r: RailW<W>) -> Lanes<W> {
        r.0 & !r.1
    }
    #[inline]
    fn zeros<const W: usize>(r: RailW<W>) -> Lanes<W> {
        !r.0 & !r.1
    }
    #[inline]
    fn from01<const W: usize>(one: Lanes<W>, zero: Lanes<W>) -> RailW<W> {
        (one, !(one | zero))
    }
    match kind {
        GateKind::Buf | GateKind::Output | GateKind::TsvOut => inputs[0],
        GateKind::Not => from01(zeros(inputs[0]), ones(inputs[0])),
        GateKind::And => from01(
            ones(inputs[0]) & ones(inputs[1]),
            zeros(inputs[0]) | zeros(inputs[1]),
        ),
        GateKind::Or => from01(
            ones(inputs[0]) | ones(inputs[1]),
            zeros(inputs[0]) & zeros(inputs[1]),
        ),
        GateKind::Nand => from01(
            zeros(inputs[0]) | zeros(inputs[1]),
            ones(inputs[0]) & ones(inputs[1]),
        ),
        GateKind::Nor => from01(
            zeros(inputs[0]) & zeros(inputs[1]),
            ones(inputs[0]) | ones(inputs[1]),
        ),
        GateKind::Xor => {
            let known = !inputs[0].1 & !inputs[1].1;
            ((inputs[0].0 ^ inputs[1].0) & known, !known)
        }
        GateKind::Xnor => {
            let known = !inputs[0].1 & !inputs[1].1;
            (!(inputs[0].0 ^ inputs[1].0) & known, !known)
        }
        GateKind::Mux2 => {
            let (a, b, s) = (inputs[0], inputs[1], inputs[2]);
            let one = (zeros(s) & ones(a)) | (ones(s) & ones(b)) | (ones(a) & ones(b));
            let zero = (zeros(s) & zeros(a)) | (ones(s) & zeros(b)) | (zeros(a) & zeros(b));
            from01(one, zero)
        }
        _ => unreachable!("eval_rail_wide on non-combinational {kind:?}"),
    }
}

/// One gate in rank order: the fields the simulation loops read, copied
/// out of the netlist's `Gate { name, inputs: Vec }` into one flat record.
#[derive(Debug, Clone, Copy)]
struct RankedGate {
    id: u32,
    /// Driver gate indices; the first `arity` are valid (max arity is 3).
    inputs: [u32; 3],
    kind: GateKind,
    arity: u8,
}

impl RankedGate {
    /// The gate's id, kind and driver indices.
    #[inline]
    fn parts(&self) -> (GateId, GateKind, &[u32]) {
        (
            GateId(self.id),
            self.kind,
            &self.inputs[..self.arity as usize],
        )
    }
}

/// A prepared simulator: the topological order of one netlist, flattened
/// into rank-indexed arrays the good-machine pass and the faulty cone walk
/// read without touching the netlist.
#[derive(Debug, Clone)]
pub struct Simulator {
    /// Gates in topological order: entry `r` is the gate of rank `r`.
    gates: Vec<RankedGate>,
    /// Topological rank per gate (for cone-restricted faulty passes).
    rank: Vec<u32>,
    /// Propagation CSR: the ranks of rank `r`'s fanouts a fault effect
    /// travels through are `fanout[fanout_start[r]..fanout_start[r + 1]]`.
    /// Frame boundaries (flip-flops, wrapper cells, outputs, outbound
    /// TSVs) are dropped: detection there is checked at the driver.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
}

impl Simulator {
    /// Prepare for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        let order = netlist.order();
        let mut rank = vec![0u32; netlist.len()];
        for (r, id) in order.iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        let mut gates = Vec::with_capacity(order.len());
        let mut fanout_start = Vec::with_capacity(order.len() + 1);
        let mut fanout = Vec::new();
        for &id in order {
            let gate = netlist.gate(id);
            let mut inputs = [0u32; 3];
            for (slot, i) in inputs.iter_mut().zip(&gate.inputs) {
                *slot = i.0;
            }
            gates.push(RankedGate {
                id: id.0,
                inputs,
                kind: gate.kind,
                arity: gate.inputs.len() as u8,
            });
            fanout_start.push(fanout.len() as u32);
            for &fo in netlist.fanout(id) {
                let kind = netlist.gate(fo).kind;
                if !(kind.is_sequential() || matches!(kind, GateKind::Output | GateKind::TsvOut)) {
                    fanout.push(rank[fo.index()]);
                }
            }
        }
        fanout_start.push(fanout.len() as u32);
        Simulator {
            gates,
            rank,
            fanout_start,
            fanout,
        }
    }

    /// Topological rank of a gate.
    pub fn rank(&self, id: GateId) -> u32 {
        self.rank[id.index()]
    }

    /// The gate of rank `r`: its id, kind and driver indices.
    #[inline]
    pub(crate) fn gate_at(&self, r: u32) -> (GateId, GateKind, &[u32]) {
        self.gates[r as usize].parts()
    }

    /// Ranks of the gates a fault effect at rank `r` propagates into: its
    /// combinational fanouts, each ranked strictly above `r`.
    #[inline]
    pub(crate) fn fanout_ranks(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.fanout[self.fanout_start[r] as usize..self.fanout_start[r + 1] as usize]
    }

    /// Simulate up to 64 patterns at once; returns dual-rail values per
    /// gate. Bits beyond `patterns.len()` are X. The `W=1` view of
    /// [`Simulator::run_batch_wide`].
    pub fn run_batch(
        &self,
        netlist: &Netlist,
        access: &TestAccess,
        patterns: &[Pattern],
    ) -> Result<Vec<Rail>, SimError> {
        let wide = self.run_batch_wide::<1>(netlist, access, patterns)?;
        Ok(wide.into_iter().map(|(v, u)| (v.0[0], u.0[0])).collect())
    }

    /// Simulate up to `W * 64` patterns at once; returns dual-rail lane
    /// bundles per gate. Pattern `p` lives in lane `p / 64`, bit `p % 64`;
    /// bits beyond `patterns.len()` are X.
    pub fn run_batch_wide<const W: usize>(
        &self,
        netlist: &Netlist,
        access: &TestAccess,
        patterns: &[Pattern],
    ) -> Result<Vec<RailW<W>>, SimError> {
        if patterns.len() > W * 64 {
            return Err(SimError::TooManyPatterns {
                given: patterns.len(),
                capacity: W * 64,
            });
        }
        for (p, pattern) in patterns.iter().enumerate() {
            if pattern.bits.len() != access.width() {
                return Err(SimError::WidthMismatch {
                    pattern: p,
                    expected: access.width(),
                    got: pattern.bits.len(),
                });
            }
        }
        let used = Lanes::<W>::used_mask(patterns.len());
        let unk_tail = !used;
        let mut values: Vec<RailW<W>> = vec![(Lanes::ZERO, Lanes::MAX); netlist.len()];

        // Load controllable sources from the pattern bits.
        for (rank, &src) in access.controllable().iter().enumerate() {
            let mut word = Lanes::<W>::ZERO;
            for (p, pattern) in patterns.iter().enumerate() {
                if pattern.bits[rank] {
                    word.0[p / 64] |= 1 << (p % 64);
                }
            }
            values[src.index()] = (word, unk_tail);
        }
        // Apply pinned overrides.
        for &(node, v) in access.pinned() {
            values[node.index()] = (if v { used } else { Lanes::ZERO }, unk_tail);
        }

        // Constants and uncontrollable sources.
        for (id, kind, inputs) in self.gates.iter().map(RankedGate::parts) {
            match kind {
                GateKind::Const0 => values[id.index()] = (Lanes::ZERO, unk_tail),
                GateKind::Const1 => values[id.index()] = (used, unk_tail),
                _ if kind.is_combinational() => {
                    let mut buf = [(Lanes::<W>::ZERO, Lanes::<W>::ZERO); 3];
                    for (slot, &i) in buf.iter_mut().zip(inputs) {
                        *slot = values[i as usize];
                    }
                    values[id.index()] = eval_rail_wide(kind, &buf[..inputs.len()]);
                }
                // Sources (Input/ScanDff/TsvIn/Wrapper) keep whatever was
                // loaded — X by default.
                _ => {}
            }
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::NetlistBuilder;

    fn rig() -> (Netlist, TestAccess, Simulator) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let ti = b.tsv_in("ti");
        let x = b.gate(GateKind::Xor, &[a, c], "x");
        let y = b.gate(GateKind::And, &[x, ti], "y");
        let z = b.gate(GateKind::Or, &[x, ti], "z");
        b.output(y, "oy");
        b.output(z, "oz");
        let n = b.finish().unwrap();
        let acc = TestAccess::full_scan(&n);
        let sim = Simulator::new(&n);
        (n, acc, sim)
    }

    fn known(values: &[Rail], id: GateId, bit: usize) -> Option<bool> {
        let (v, u) = values[id.index()];
        if u >> bit & 1 == 1 {
            None
        } else {
            Some(v >> bit & 1 == 1)
        }
    }

    #[test]
    fn computes_logic_and_propagates_x() {
        let (n, acc, sim) = rig();
        // pattern 0: a=1, b=0 → x=1; y = 1&X = X; z = 1|X = 1.
        // pattern 1: a=1, b=1 → x=0; y = 0&X = 0; z = 0|X = X.
        let p0 = Pattern {
            bits: vec![true, false],
        };
        let p1 = Pattern {
            bits: vec![true, true],
        };
        let vals = sim.run_batch(&n, &acc, &[p0, p1]).unwrap();
        let x = n.find("x").unwrap();
        let y = n.find("y").unwrap();
        let z = n.find("z").unwrap();
        assert_eq!(known(&vals, x, 0), Some(true));
        assert_eq!(known(&vals, y, 0), None);
        assert_eq!(known(&vals, z, 0), Some(true));
        assert_eq!(known(&vals, x, 1), Some(false));
        assert_eq!(known(&vals, y, 1), Some(false));
        assert_eq!(known(&vals, z, 1), None);
        // Unused bit positions stay X.
        assert_eq!(known(&vals, x, 5), None);
    }

    #[test]
    fn pinned_values_apply() {
        let (n, mut acc, sim) = rig();
        acc.pin(n.find("a").unwrap(), true);
        let p = Pattern {
            bits: vec![false, false],
        }; // a bit ignored
        let vals = sim.run_batch(&n, &acc, &[p]).unwrap();
        let a = n.find("a").unwrap();
        assert_eq!(known(&vals, a, 0), Some(true));
    }

    #[test]
    fn rail_eval_matches_scalar_v3() {
        use prebond3d_netlist::eval_v3;
        let vals = [V3::Zero, V3::One, V3::X];
        let to_rail = |v: V3| -> RailW<1> {
            let (val, unk) = match v {
                V3::Zero => (0, 0),
                V3::One => (1, 0),
                V3::X => (0, 1),
            };
            (Lanes([val]), Lanes([unk]))
        };
        let from_rail = |(val, unk): RailW<1>| -> V3 {
            if unk.lane(0) & 1 == 1 {
                V3::X
            } else if val.lane(0) & 1 == 1 {
                V3::One
            } else {
                V3::Zero
            }
        };
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for &a in &vals {
                for &b in &vals {
                    let want = eval_v3(kind, &[a, b]);
                    let got = from_rail(eval_rail_wide(kind, &[to_rail(a), to_rail(b)]));
                    assert_eq!(got, want, "{kind:?}({a:?},{b:?})");
                }
            }
        }
        for &a in &vals {
            assert_eq!(
                from_rail(eval_rail_wide(GateKind::Not, &[to_rail(a)])),
                eval_v3(GateKind::Not, &[a])
            );
        }
        for &a in &vals {
            for &b in &vals {
                for &s in &vals {
                    let want = eval_v3(GateKind::Mux2, &[a, b, s]);
                    let got = from_rail(eval_rail_wide(
                        GateKind::Mux2,
                        &[to_rail(a), to_rail(b), to_rail(s)],
                    ));
                    assert_eq!(got, want, "mux({a:?},{b:?},{s:?})");
                }
            }
        }
    }

    #[test]
    fn oversized_batch_is_a_typed_error_not_a_panic() {
        let (n, acc, sim) = rig();
        let ps: Vec<Pattern> = (0..65).map(|_| Pattern::zeroes(acc.width())).collect();
        assert_eq!(
            sim.run_batch(&n, &acc, &ps),
            Err(SimError::TooManyPatterns {
                given: 65,
                capacity: 64
            })
        );
        // The wide entry point scales the capacity with the lane count...
        assert!(sim.run_batch_wide::<4>(&n, &acc, &ps).is_ok());
        let ps: Vec<Pattern> = (0..257).map(|_| Pattern::zeroes(acc.width())).collect();
        assert_eq!(
            sim.run_batch_wide::<4>(&n, &acc, &ps),
            Err(SimError::TooManyPatterns {
                given: 257,
                capacity: 256
            })
        );
        // ...and malformed patterns are rejected the same way.
        let bad = [Pattern::zeroes(acc.width() + 1)];
        assert_eq!(
            sim.run_batch(&n, &acc, &bad),
            Err(SimError::WidthMismatch {
                pattern: 0,
                expected: acc.width(),
                got: acc.width() + 1
            })
        );
    }

    #[test]
    fn wide_lanes_match_narrow_blocks_bit_for_bit() {
        use prebond3d_rng::StdRng;
        let (n, acc, sim) = rig();
        let mut rng = StdRng::seed_from_u64(0x1A5E_55ED);
        let patterns: Vec<Pattern> = (0..200)
            .map(|_| Pattern {
                bits: (0..acc.width()).map(|_| rng.gen::<bool>()).collect(),
            })
            .collect();
        let wide = sim.run_batch_wide::<4>(&n, &acc, &patterns).unwrap();
        for (block, chunk) in patterns.chunks(64).enumerate() {
            let narrow = sim.run_batch(&n, &acc, chunk).unwrap();
            for (id, &(v, u)) in narrow.iter().enumerate() {
                assert_eq!(
                    (wide[id].0 .0[block], wide[id].1 .0[block]),
                    (v, u),
                    "gate {id} lane {block}"
                );
            }
        }
    }
}
