//! Static testability of the wrapper boundary.
//!
//! The wrapper-cell reduction flow spends its ATPG budget proving which
//! TSV wrapper cells can be shared or dropped. That work is wasted — and
//! the resulting coverage tables silently skewed — when a boundary net is
//! *statically* untestable no matter how the die is wrapped:
//!
//! * an **outbound TSV whose driver can never toggle**: even with every
//!   inbound TSV wrapped (fully controllable), the captured value is a
//!   provable constant or a provable X — no pattern exercises the
//!   boundary;
//! * an **inbound TSV with a dead fanout cone**: the value a wrapper cell
//!   would inject can never reach any capture point (output, scan
//!   flip-flop, wrapper cell, or wrapped outbound TSV), so the inserted
//!   cell is unverifiable.
//!
//! [`check`] returns these findings in deterministic (ascending TSV id)
//! order; the serve daemon uses it as a submit-time admission gate.

use prebond3d_netlist::{GateId, GateKind, Netlist};

use crate::constprop::{Constants, SourceModel};
use crate::reach;

/// Why a boundary net is statically untestable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryIssue {
    /// The outbound TSV's driver is a provable constant.
    ConstantDriver {
        /// The outbound TSV endpoint.
        tsv: GateId,
        /// The driving net.
        driver: GateId,
        /// The constant value.
        value: bool,
    },
    /// The outbound TSV's driver is X on every pattern even with all
    /// inbound TSVs wrapped.
    UncontrollableDriver {
        /// The outbound TSV endpoint.
        tsv: GateId,
        /// The driving net.
        driver: GateId,
    },
    /// The inbound TSV's fanout cone reaches no capture point.
    DeadFanout {
        /// The inbound TSV endpoint.
        tsv: GateId,
    },
}

impl BoundaryIssue {
    /// The TSV endpoint this issue is about.
    pub fn tsv(&self) -> GateId {
        match *self {
            BoundaryIssue::ConstantDriver { tsv, .. }
            | BoundaryIssue::UncontrollableDriver { tsv, .. }
            | BoundaryIssue::DeadFanout { tsv } => tsv,
        }
    }

    /// Human-readable description naming the TSV by netlist name.
    pub fn describe(&self, netlist: &Netlist) -> String {
        match *self {
            BoundaryIssue::ConstantDriver { tsv, driver, value } => format!(
                "outbound TSV `{}` is driven by `{}` which is provably constant {}",
                netlist.gate(tsv).name,
                netlist.gate(driver).name,
                u8::from(value),
            ),
            BoundaryIssue::UncontrollableDriver { tsv, driver } => format!(
                "outbound TSV `{}` is driven by `{}` which is X on every pattern",
                netlist.gate(tsv).name,
                netlist.gate(driver).name,
            ),
            BoundaryIssue::DeadFanout { tsv } => format!(
                "inbound TSV `{}` has no path to any capture point",
                netlist.gate(tsv).name,
            ),
        }
    }
}

/// Statically check every TSV boundary net of `netlist`. Empty result ⇔
/// every boundary can, at least structurally, be exercised once wrapped.
pub fn check(netlist: &Netlist) -> Vec<BoundaryIssue> {
    // Controllability side: every inbound TSV modeled as wrapped.
    let consts = Constants::compute(netlist, &SourceModel::assume_wrapped(netlist));
    // Observability side: capture points assuming outbound TSVs are
    // wrapped too — their drivers become observable.
    let mut observed = vec![false; netlist.len()];
    for (_, gate) in netlist.iter() {
        if matches!(
            gate.kind,
            GateKind::Output | GateKind::ScanDff | GateKind::Wrapper | GateKind::TsvOut
        ) {
            observed[gate.inputs[0].index()] = true;
        }
    }
    let observable = reach::observable(netlist, &observed);

    let mut issues = Vec::new();
    for tsv in netlist.outbound_tsvs() {
        let driver = netlist.gate(tsv).inputs[0];
        let set = consts.set(driver);
        if let Some(value) = set.is_constant() {
            issues.push(BoundaryIssue::ConstantDriver { tsv, driver, value });
        } else if set.is_x_only() {
            issues.push(BoundaryIssue::UncontrollableDriver { tsv, driver });
        }
    }
    for tsv in netlist.inbound_tsvs() {
        if !observable[tsv.index()] {
            issues.push(BoundaryIssue::DeadFanout { tsv });
        }
    }
    issues.sort_by_key(BoundaryIssue::tsv);
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::NetlistBuilder;

    #[test]
    fn healthy_boundary_is_clean() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let ti = b.tsv_in("ti");
        let g = b.gate(GateKind::Xor, &[a, ti], "g");
        b.tsv_out(g, "to");
        b.output(g, "o");
        let n = b.finish().unwrap();
        assert!(check(&n).is_empty());
    }

    #[test]
    fn constant_driver_is_flagged() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c1 = b.gate(GateKind::Const1, &[], "c1");
        let g = b.gate(GateKind::Or, &[a, c1], "g"); // a | 1 ≡ 1
        let to = b.tsv_out(g, "to");
        b.output(a, "o");
        let n = b.finish().unwrap();
        let issues = check(&n);
        assert_eq!(
            issues,
            vec![BoundaryIssue::ConstantDriver {
                tsv: to,
                driver: g,
                value: true
            }]
        );
        assert!(issues[0].describe(&n).contains("to"));
    }

    #[test]
    fn unscanned_state_makes_driver_uncontrollable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let q = b.dff(a, "q"); // plain (unscanned) flip-flop: X pre-bond
        let g = b.gate(GateKind::Buf, &[q], "g");
        let to = b.tsv_out(g, "to");
        b.output(a, "o");
        let n = b.finish().unwrap();
        let issues = check(&n);
        assert_eq!(
            issues,
            vec![BoundaryIssue::UncontrollableDriver { tsv: to, driver: g }]
        );
    }

    #[test]
    fn dead_inbound_cone_is_flagged_and_wrapped_outbound_counts_as_capture() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        // ti1 feeds only an unscanned flip-flop: dead pre-bond cone.
        let ti1 = b.tsv_in("ti1");
        let g1 = b.gate(GateKind::And, &[ti1, a], "g1");
        b.dff(g1, "q");
        // ti2 feeds an outbound TSV: once both are wrapped this is a
        // perfectly testable through-path.
        let ti2 = b.tsv_in("ti2");
        let g2 = b.gate(GateKind::Not, &[ti2], "g2");
        b.tsv_out(g2, "to");
        b.output(a, "o");
        let n = b.finish().unwrap();
        let issues = check(&n);
        assert_eq!(issues, vec![BoundaryIssue::DeadFanout { tsv: ti1 }]);
    }
}
