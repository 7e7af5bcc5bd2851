//! Static untestable-fault pruning from the dataflow analyses.
//!
//! Before the engine spends a single simulation event on a fault, two
//! structural certificates from `prebond3d-dataflow` can already retire
//! it (DESIGN.md §14):
//!
//! * **unexcitable** — the value-set fixpoint proves the fault site's good
//!   value never equals the excitation value, so the faulty machine is an
//!   information-order refinement of the good machine everywhere and no
//!   observation point can ever miscompare;
//! * **unobservable** — backward reachability over the fault simulator's
//!   exact propagation rule proves no fault effect at the propagation
//!   root can reach an observation point.
//!
//! Soundness alone is not enough for the engine's byte-identity contract,
//! though: a pruned fault must also be one the *unpruned* run classifies
//! untestable without touching the shared RNG or the pattern stream. The
//! engine's SCOAP pre-screen is exactly that classifier — it retires a
//! fault before PODEM runs and before any don't-care fill is drawn — so
//! [`prune_mask`] only prunes faults that are **both**
//! dataflow-undetectable **and** SCOAP-saturated. The result: the pruned
//! run skips the per-fault cone resimulations (`atpg.gate_evals` drops)
//! while every pattern, coverage number and untestable count stays
//! byte-identical to the engine's never-pruning reference run.

use prebond3d_dataflow::{reach, Constants, Scores, SourceModel, ValueSet};
use prebond3d_netlist::{GateKind, Netlist};

use crate::access::TestAccess;
use crate::engine::scoap_untestable;
use crate::fault::{Fault, FaultSite};

/// The access-faithful dataflow facts one stuck-at pruning pass needs.
#[derive(Debug, Clone)]
pub struct PruneAnalysis {
    /// Good-machine value set per net under the exact access model
    /// (controllable sources `{0,1}`, pinned sources their singleton,
    /// everything else `{X}`; constants reassert themselves).
    sets: Vec<ValueSet>,
    /// Can a fault effect at this net's output reach an observation
    /// point? Mirrors the fault simulator's propagation rule exactly.
    observable: Vec<bool>,
}

impl PruneAnalysis {
    /// Solve the two fixpoints for `netlist` under `access`.
    ///
    /// The source model reproduces the simulator's loading semantics:
    /// access-controllable sources can take any bit (`{0,1}`), pinned
    /// nodes are overridden to their frozen constant, and every other
    /// source (floating TSVs, unscanned flip-flops, sources outside the
    /// access model) stays `{X}` — with `Const0`/`Const1` reasserting
    /// themselves inside the transfer function, exactly like the
    /// simulator reasserts them inside its topological sweep.
    pub fn new(netlist: &Netlist, access: &TestAccess) -> PruneAnalysis {
        let mut model = SourceModel::pre_bond(netlist);
        for (id, gate) in netlist.iter() {
            if gate.kind.is_source() && !matches!(gate.kind, GateKind::Const0 | GateKind::Const1) {
                let set = if access.rank_of(id).is_some() {
                    ValueSet::BOOL
                } else {
                    ValueSet::X
                };
                model.set_source(id, set);
            }
        }
        for &(node, value) in access.pinned() {
            model.set_source(node, ValueSet::of(value));
        }
        let constants = Constants::compute(netlist, &model);
        let mut observed = vec![false; netlist.len()];
        for &id in access.observed() {
            observed[id.index()] = true;
        }
        let observable = reach::observable(netlist, &observed);
        PruneAnalysis {
            sets: constants.sets,
            observable,
        }
    }

    /// The fault's good value can never equal its excitation value, so no
    /// pattern produces a known-known miscompare anywhere downstream.
    ///
    /// For branch faults into non-combinational pins the simulator models
    /// the pin as a passthrough of the *root's output*, so both the root
    /// and the driver must be excitation-free there.
    pub fn unexcitable(&self, netlist: &Netlist, fault: Fault) -> bool {
        let excitation = fault.stuck.excitation();
        let driver_clean = !self.sets[fault.site.driver(netlist).index()].contains(excitation);
        match fault.site {
            FaultSite::Output(_) => driver_clean,
            FaultSite::Input { gate, .. } => {
                if netlist.gate(gate).kind.is_combinational() {
                    driver_clean
                } else {
                    driver_clean && !self.sets[gate.index()].contains(excitation)
                }
            }
        }
    }

    /// No fault effect at the propagation root can reach an observation
    /// point — including the simulator's special case where a branch
    /// fault into a non-combinational pin miscompares against its
    /// observed driver.
    pub fn unobservable(&self, netlist: &Netlist, access: &TestAccess, fault: Fault) -> bool {
        let root = fault.site.propagation_root();
        if self.observable[root.index()] {
            return false;
        }
        if let FaultSite::Input { gate, .. } = fault.site {
            if !netlist.gate(gate).kind.is_combinational()
                && access.is_observed(fault.site.driver(netlist))
            {
                return false;
            }
        }
        true
    }

    /// `true` when the dataflow certificates prove `fault` undetectable.
    pub fn undetectable(&self, netlist: &Netlist, access: &TestAccess, fault: Fault) -> bool {
        self.unexcitable(netlist, fault) || self.unobservable(netlist, access, fault)
    }
}

/// Which of `faults` the engine may retire upfront: dataflow-undetectable
/// **and** SCOAP-saturated (the latter guarantees the unpruned reference
/// run classifies the fault untestable via its pre-screen, preserving
/// byte-identity of every downstream artifact).
pub fn prune_mask(
    analysis: &PruneAnalysis,
    scoap: &Scores,
    netlist: &Netlist,
    access: &TestAccess,
    faults: &[Fault],
) -> Vec<bool> {
    faults
        .iter()
        .map(|&fault| {
            scoap_untestable(scoap, netlist, fault) && analysis.undetectable(netlist, access, fault)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::{itc99, NetlistBuilder};

    use crate::fault::{FaultList, StuckAt};

    #[test]
    fn constant_net_faults_are_unexcitable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c0 = b.gate(GateKind::Const0, &[], "c0");
        let g = b.gate(GateKind::And, &[a, c0], "g"); // a & 0 ≡ 0
        b.output(g, "o");
        let n = b.finish().unwrap();
        let access = TestAccess::full_scan(&n);
        let analysis = PruneAnalysis::new(&n, &access);
        // g is stuck-at-0 by construction: sa0 needs good = 1, impossible.
        assert!(analysis.unexcitable(&n, Fault::output(g, StuckAt::Zero)));
        // sa1 needs good = 0: always excited, never pruned on excitation.
        assert!(!analysis.unexcitable(&n, Fault::output(g, StuckAt::One)));
        // And the SCOAP screen agrees, so sa0 is actually prunable.
        let scoap = Scores::compute(&n, &access.view());
        let mask = prune_mask(
            &analysis,
            &scoap,
            &n,
            &access,
            &[Fault::output(g, StuckAt::Zero)],
        );
        assert_eq!(mask, vec![true]);
    }

    #[test]
    fn cone_feeding_floating_tsv_is_unobservable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, &[a], "g");
        b.tsv_out(g, "to"); // unwrapped: observes nothing
        let h = b.gate(GateKind::Buf, &[a], "h");
        b.output(h, "o");
        let n = b.finish().unwrap();
        let access = TestAccess::full_scan(&n);
        let analysis = PruneAnalysis::new(&n, &access);
        assert!(analysis.unobservable(&n, &access, Fault::output(g, StuckAt::Zero)));
        assert!(!analysis.unobservable(&n, &access, Fault::output(h, StuckAt::Zero)));
    }

    #[test]
    fn branch_fault_into_observed_scan_pin_is_not_unobservable() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        // a fans out: one branch into a scan capture pin, one to a dead
        // TSV. The stem stays observable through the capture, and so does
        // the branch fault on the D pin (driver comparison special case).
        let q = b.scan_dff(a, "q");
        let g = b.gate(GateKind::Not, &[q], "g");
        b.tsv_out(g, "to");
        b.tsv_out(a, "to2");
        let n = b.finish().unwrap();
        let access = TestAccess::full_scan(&n);
        let analysis = PruneAnalysis::new(&n, &access);
        let branch = Fault::input(q, 0, StuckAt::One);
        assert!(!analysis.unobservable(&n, &access, branch));
        // g feeds only the unwrapped TSV: provably unobservable.
        assert!(analysis.unobservable(&n, &access, Fault::output(g, StuckAt::One)));
    }

    /// Every pruned fault must be one the fault simulator can never
    /// detect: exhaustive patterns on a small die find zero detections
    /// for pruned faults.
    #[test]
    fn pruned_faults_are_never_detected_exhaustively() {
        let spec = itc99::DieSpec {
            name: "p".into(),
            scan_flip_flops: 6,
            gates: 80,
            inbound_tsvs: 4,
            outbound_tsvs: 4,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 21,
        };
        let die = itc99::generate_die(&spec);
        let access = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        let analysis = PruneAnalysis::new(&die, &access);
        let scoap = Scores::compute(&die, &access.view());
        let mask = prune_mask(&analysis, &scoap, &die, &access, &list.faults);
        let pruned: Vec<Fault> = list
            .faults
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(&f, _)| f)
            .collect();
        assert!(
            !pruned.is_empty(),
            "a die with floating TSVs must have prunable faults"
        );
        // 256 deterministic pseudo-random patterns: none may detect.
        let mut rng = prebond3d_rng::StdRng::seed_from_u64(77);
        let mut fs = crate::faultsim::FaultSimulator::new(&die);
        for _ in 0..4 {
            let patterns: Vec<crate::sim::Pattern> = (0..64)
                .map(|_| crate::sim::Pattern {
                    bits: (0..access.width()).map(|_| rng.gen()).collect(),
                })
                .collect();
            let alive = vec![true; pruned.len()];
            let masks = fs
                .simulate_batch_wide(&die, &access, &patterns, &pruned, &alive)
                .unwrap()
                .1;
            assert!(
                masks.iter().all(|&m| m == 0),
                "a statically-pruned fault was detected by simulation"
            );
        }
    }
}
