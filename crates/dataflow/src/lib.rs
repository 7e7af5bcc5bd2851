//! # prebond3d-dataflow
//!
//! Zero-dependency dataflow analyses over the netlist DAG, the three the
//! flow consumes (DESIGN.md §14):
//!
//! 1. **Ternary constant propagation** ([`constprop`]) on the value-set
//!    lattice `℘({0,1,X})`, one topological pass: flags provably-constant
//!    nets, dead gates, and — combined with [`reach`] — provably-untestable
//!    stuck-at faults.
//! 2. **X-propagation** (the same pass, read through
//!    [`constprop::Constants::x_only_nets`]): cones dominated by unscanned
//!    state elements and floating TSVs that pre-bond test cannot control.
//! 3. **SCOAP scoring** ([`scoring`]): controllability and observability
//!    costs per net in one levelized pass each way — the measures PODEM's
//!    backtrace and the ATPG untestability pre-screen read.
//!
//! [`boundary::check`] composes the analyses into the wrapper-boundary
//! admission gate used by `prebond3d-serve`.
//!
//! ## Determinism
//!
//! Every analysis is a serial pass in the netlist's deterministic
//! combinational order, so every fact vector is **byte-identical at any
//! `PREBOND3D_THREADS`**. Downstream consumers (ATPG pruning, the serve
//! gate) inherit that contract.

pub mod boundary;
pub mod constprop;
pub mod lattice;
pub mod reach;
pub mod scoring;

pub use boundary::BoundaryIssue;
pub use constprop::{Constants, SourceModel};
pub use lattice::{eval_set, ValueSet};
pub use scoring::{AccessView, Scores};

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;
    use prebond3d_pool as pool;

    /// The headline determinism contract: every analysis produces
    /// byte-identical results at any thread count.
    #[test]
    fn analyses_are_byte_identical_across_thread_counts() {
        let spec = itc99::DieSpec {
            name: "df".into(),
            scan_flip_flops: 16,
            gates: 400,
            inbound_tsvs: 8,
            outbound_tsvs: 8,
            primary_inputs: 5,
            primary_outputs: 5,
            seed: 0xD47A,
        };
        let die = itc99::generate_die(&spec);
        let run = || {
            let consts = Constants::compute(&die, &SourceModel::pre_bond(&die));
            let scores = Scores::compute(&die, &AccessView::pre_bond(&die));
            let issues = boundary::check(&die);
            (consts, scores, issues)
        };
        let base = pool::with_threads(1, run);
        for t in [4, 8] {
            let got = pool::with_threads(t, run);
            assert_eq!(got.0, base.0, "constprop differs at {t} threads");
            assert_eq!(got.1, base.1, "scoring differs at {t} threads");
            assert_eq!(got.2, base.2, "boundary differs at {t} threads");
        }
    }
}
