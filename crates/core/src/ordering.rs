//! TSV-set ordering (the paper's Table I insight).
//!
//! The flow processes one TSV direction at a time; flip-flops consumed by
//! the first phase are gone for the second. Starting from the **larger**
//! set lets the set with more demand claim flip-flops first, which the
//! paper shows improves both fault coverage and wrapper-cell count.

use prebond3d_netlist::Netlist;

use crate::timing_model::ReuseKind;

/// Which TSV set to process first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingPolicy {
    /// The paper's choice: larger set first (ties → inbound).
    LargerFirst,
    /// Always inbound first (Agrawal's implicit order).
    InboundFirst,
    /// Always outbound first.
    OutboundFirst,
}

impl OrderingPolicy {
    /// The two phases in processing order for `die`.
    pub fn phases(self, die: &Netlist) -> [ReuseKind; 2] {
        match self {
            OrderingPolicy::InboundFirst => [ReuseKind::Inbound, ReuseKind::Outbound],
            OrderingPolicy::OutboundFirst => [ReuseKind::Outbound, ReuseKind::Inbound],
            OrderingPolicy::LargerFirst => {
                let stats = die.stats();
                if stats.outbound_tsvs > stats.inbound_tsvs {
                    [ReuseKind::Outbound, ReuseKind::Inbound]
                } else {
                    [ReuseKind::Inbound, ReuseKind::Outbound]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;

    #[test]
    fn larger_first_follows_counts() {
        let spec = itc99::DieSpec {
            name: "d".into(),
            scan_flip_flops: 8,
            gates: 120,
            inbound_tsvs: 4,
            outbound_tsvs: 9,
            primary_inputs: 3,
            primary_outputs: 3,
            seed: 1,
        };
        let die = itc99::generate_die(&spec);
        assert_eq!(
            OrderingPolicy::LargerFirst.phases(&die),
            [ReuseKind::Outbound, ReuseKind::Inbound]
        );
        assert_eq!(
            OrderingPolicy::InboundFirst.phases(&die),
            [ReuseKind::Inbound, ReuseKind::Outbound]
        );
        assert_eq!(
            OrderingPolicy::OutboundFirst.phases(&die),
            [ReuseKind::Outbound, ReuseKind::Inbound]
        );
    }

    #[test]
    fn ties_go_inbound() {
        let spec = itc99::DieSpec {
            name: "d".into(),
            scan_flip_flops: 8,
            gates: 120,
            inbound_tsvs: 6,
            outbound_tsvs: 6,
            primary_inputs: 3,
            primary_outputs: 3,
            seed: 1,
        };
        let die = itc99::generate_die(&spec);
        assert_eq!(
            OrderingPolicy::LargerFirst.phases(&die),
            [ReuseKind::Inbound, ReuseKind::Outbound]
        );
    }
}
