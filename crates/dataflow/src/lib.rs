//! # prebond3d-dataflow
//!
//! A zero-dependency monotone-framework fixpoint engine over the netlist
//! DAG, plus the three concrete analyses the flow consumes (DESIGN.md
//! §14):
//!
//! 1. **Ternary constant propagation** ([`constprop`]) on the value-set
//!    lattice `℘({0,1,X})`: flags provably-constant nets, dead gates, and
//!    — combined with [`reach`] — provably-untestable stuck-at faults.
//! 2. **X-propagation** (the same fixpoint, read through
//!    [`constprop::Constants::x_only_nets`]): cones dominated by unscanned
//!    state elements and floating TSVs that pre-bond test cannot control.
//! 3. **SCOAP scoring** ([`scoring`]): controllability and observability
//!    costs per net in one levelized pass each way — the measures PODEM's
//!    backtrace, the ATPG untestability pre-screen and the P3806 lint all
//!    read.
//!
//! [`boundary::check`] composes the analyses into the wrapper-boundary
//! admission gate used by `prebond3d-serve` and the `P3805` lint.
//!
//! ## Determinism
//!
//! The solver ([`solver::solve`]) iterates in Jacobi rounds and relies on
//! the pool's order-preserving merge, so every fact vector — and the
//! round/evaluation statistics — is **byte-identical at any
//! `PREBOND3D_THREADS`**. Downstream consumers (ATPG pruning, P38xx
//! diagnostics, the serve gate) inherit that contract.

pub mod boundary;
pub mod constprop;
pub mod lattice;
pub mod reach;
pub mod scoring;
pub mod solver;

pub use boundary::BoundaryIssue;
pub use constprop::{Constants, SourceModel};
pub use lattice::{eval_set, ValueSet};
pub use scoring::{AccessView, Scores};
pub use solver::{solve, Fixpoint, Framework};

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

    /// The fixpoint must agree with a plain topological evaluation on the
    /// DAG (the solver's generality is for ordering-freedom, not for a
    /// different answer).
    #[test]
    fn fixpoint_matches_topological_reference() {
        let die = itc99::generate_flat("df", 300, 12, 6, 6, 7);
        let model = SourceModel::pre_bond(&die);
        let consts = Constants::compute(&die, &model);
        let order = prebond3d_netlist::traverse::combinational_order(&die);
        let mut reference = vec![ValueSet::EMPTY; die.len()];
        for id in order {
            let gate = die.gate(id);
            reference[id.index()] = match gate.kind {
                prebond3d_netlist::GateKind::Const0 => ValueSet::ZERO,
                prebond3d_netlist::GateKind::Const1 => ValueSet::ONE,
                kind if kind.is_combinational() => {
                    let inputs: Vec<ValueSet> =
                        gate.inputs.iter().map(|&i| reference[i.index()]).collect();
                    eval_set(kind, &inputs)
                }
                _ => model.source(id),
            };
        }
        assert_eq!(consts.sets, reference);
    }
}
