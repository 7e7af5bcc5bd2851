//! Mission-mode equivalence checking of DFT insertion.
//!
//! Wrapper insertion rewires functional nets through muxes and XOR taps;
//! a bug there silently corrupts the *product*, not just the test. This
//! module verifies, by bit-parallel random co-simulation, that with
//! `test_en = 0` the testable netlist computes exactly what the original
//! die computes at every functional sink (primary outputs, outbound TSVs
//! and flip-flop D captures) — for **any** state of the wrapper cells,
//! which are driven with random values precisely so that a non-transparent
//! wrapper shows up as a mismatch.

use prebond3d_atpg::sim::{Pattern, Simulator};
use prebond3d_atpg::TestAccess;
use prebond3d_netlist::{GateId, GateKind, Netlist};
use prebond3d_rng::StdRng;

use crate::testable::TestableDie;

/// A functional divergence found by [`mission_equivalent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Name of the sink whose captured/driven value diverged.
    pub sink: String,
    /// Pattern index within the failing batch.
    pub pattern: usize,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mission-mode mismatch at sink `{}` (pattern {})",
            self.sink, self.pattern
        )
    }
}

impl std::error::Error for Mismatch {}

/// Mission-mode access: every functional source (pads, scan flip-flops,
/// bonded TSV inputs) is driven; `extra` (e.g. wrapper cells) are driven
/// too when present.
fn mission_access(netlist: &Netlist, pin_test_en: Option<GateId>) -> TestAccess {
    let mut controllable = Vec::new();
    for (id, gate) in netlist.iter() {
        if matches!(
            gate.kind,
            GateKind::Input | GateKind::ScanDff | GateKind::TsvIn | GateKind::Wrapper
        ) {
            controllable.push(id);
        }
    }
    let mut access = TestAccess::new(netlist, controllable, Vec::new(), Vec::new());
    if let Some(te) = pin_test_en {
        access.pin(te, false);
    }
    access
}

/// The functional sinks of `original`, compared by captured/driven value:
/// `(sink name, driver in original)`.
fn functional_sinks(original: &Netlist) -> Vec<(String, GateId)> {
    original
        .iter()
        .filter(|(_, g)| g.kind.is_sink())
        .map(|(_, g)| (g.name.clone(), g.inputs[0]))
        .collect()
}

/// Verify mission-mode equivalence over `batches × 64` random patterns.
///
/// # Errors
///
/// Returns the first [`Mismatch`] found. A mismatch means the wrapper
/// insertion changed functional behaviour — an insertion bug.
pub fn mission_equivalent(
    original: &Netlist,
    die: &TestableDie,
    batches: usize,
    seed: u64,
) -> Result<(), Mismatch> {
    let testable = &die.netlist;
    let orig_access = mission_access(original, None);
    let test_access = mission_access(testable, Some(die.test_en));
    let orig_sim = Simulator::new(original);
    let test_sim = Simulator::new(testable);
    let sinks = functional_sinks(original);
    let mut rng = StdRng::seed_from_u64(seed);

    for _ in 0..batches {
        // Shared random values for the common sources (matched by name);
        // testable-only sources (wrapper cells) get independent randoms.
        let orig_patterns: Vec<Pattern> = (0..64)
            .map(|_| Pattern {
                bits: (0..orig_access.width()).map(|_| rng.gen()).collect(),
            })
            .collect();
        let test_patterns: Vec<Pattern> = orig_patterns
            .iter()
            .map(|p| {
                let mut bits = vec![false; test_access.width()];
                for (rank, &src) in test_access.controllable().iter().enumerate() {
                    let name = &testable.gate(src).name;
                    bits[rank] = match original.find(name) {
                        Some(orig_id) => {
                            let orig_rank = orig_access
                                .rank_of(orig_id)
                                .expect("common sources are controllable");
                            p.bits[orig_rank]
                        }
                        // Wrapper cells and test_en: random (test_en is
                        // pinned to 0 by the access model anyway).
                        None => rng.gen(),
                    };
                }
                Pattern { bits }
            })
            .collect();

        let orig_vals = orig_sim
            .run_batch(original, &orig_access, &orig_patterns)
            .expect("equivalence window holds at most 64 patterns");
        let test_vals = test_sim
            .run_batch(testable, &test_access, &test_patterns)
            .expect("equivalence window holds at most 64 patterns");

        for (name, orig_driver) in &sinks {
            let test_sink = testable
                .find(name)
                .expect("DFT insertion preserves sink names");
            let test_driver = testable.gate(test_sink).inputs[0];
            let (ov, ou) = orig_vals[orig_driver.index()];
            let (tv, tu) = test_vals[test_driver.index()];
            // Compare where both are known; a knownness change alone is
            // also a divergence (the testable netlist must not lose
            // determinism in mission mode).
            let diff = (ov ^ tv) & !(ou | tu) | (ou ^ tu);
            if diff != 0 {
                return Err(Mismatch {
                    sink: name.clone(),
                    pattern: diff.trailing_zeros() as usize,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testable::apply;
    use crate::wrapper::{WrapAssignment, WrapPlan, WrapperSource};
    use prebond3d_netlist::itc99;

    fn die() -> Netlist {
        let spec = itc99::DieSpec {
            name: "verify_die".into(),
            scan_flip_flops: 12,
            gates: 200,
            inbound_tsvs: 8,
            outbound_tsvs: 8,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 11,
        };
        itc99::generate_die(&spec)
    }

    #[test]
    fn all_dedicated_insertion_is_transparent() {
        let original = die();
        let wrapped = apply(&original, &WrapPlan::all_dedicated(&original)).unwrap();
        mission_equivalent(&original, &wrapped, 4, 7).expect("dedicated wrapping is transparent");
    }

    #[test]
    fn reuse_heavy_insertion_is_transparent() {
        let original = die();
        let ffs = original.flip_flops();
        let mut plan = WrapPlan::default();
        // Each of the first FFs wraps one inbound and one outbound TSV.
        let inbound = original.inbound_tsvs();
        let outbound = original.outbound_tsvs();
        for (i, (&ti, &to)) in inbound.iter().zip(outbound.iter()).enumerate() {
            plan.assignments.push(WrapAssignment {
                source: WrapperSource::ReusedScanFf(ffs[i % ffs.len().min(8)]),
                inbound: vec![ti],
                outbound: vec![to],
            });
        }
        // Deduplicate FF reuse: keep only first assignment per FF, rest
        // dedicated.
        let mut seen = std::collections::HashSet::new();
        for a in &mut plan.assignments {
            if let WrapperSource::ReusedScanFf(ff) = a.source {
                if !seen.insert(ff) {
                    a.source = WrapperSource::Dedicated;
                }
            }
        }
        let wrapped = apply(&original, &plan).unwrap();
        mission_equivalent(&original, &wrapped, 4, 9).expect("reuse wrapping is transparent");
    }

    /// Corrupted mission logic is a divergence: flipping one AND/OR in
    /// the wrapped die to NAND/NOR is seen at a functional sink.
    #[test]
    fn verifier_detects_corrupted_mission_logic() {
        let original = die();
        let wrapped = apply(&original, &WrapPlan::all_dedicated(&original)).unwrap();
        let victims: Vec<usize> = wrapped
            .netlist
            .iter()
            .filter(|(_, g)| matches!(g.kind, GateKind::And | GateKind::Or))
            .map(|(id, _)| id.index())
            .collect();
        assert!(!victims.is_empty(), "die has no AND/OR gates to corrupt");
        // A flip can sit in logic no sink observes under the sampled
        // patterns, so at least one of the candidates must be caught.
        let caught = victims.iter().any(|&v| {
            let mut gates: Vec<_> = wrapped.netlist.iter().map(|(_, g)| g.clone()).collect();
            gates[v].kind = match gates[v].kind {
                GateKind::And => GateKind::Nand,
                _ => GateKind::Nor,
            };
            let mut corrupted = wrapped.clone();
            corrupted.netlist = Netlist::from_gates("corrupted", gates).unwrap();
            mission_equivalent(&original, &corrupted, 4, 5).is_err()
        });
        assert!(caught, "no corrupted gate was detected");
    }

    #[test]
    fn verifier_detects_test_mode_divergence() {
        // Negative control: force test_en = 1 by lying about the pin; the
        // verifier must see the divergence (wrapper values leak into
        // functional sinks).
        let original = die();
        let wrapped = apply(&original, &WrapPlan::all_dedicated(&original)).unwrap();
        // Rebuild by hand with the test_en pin inverted.
        let orig_access = mission_access(&original, None);
        let mut test_access = mission_access(&wrapped.netlist, None);
        test_access.pin(wrapped.test_en, true); // WRONG mode on purpose
        let orig_sim = Simulator::new(&original);
        let test_sim = Simulator::new(&wrapped.netlist);
        let sinks = functional_sinks(&original);
        let mut rng = StdRng::seed_from_u64(3);
        let orig_patterns: Vec<Pattern> = (0..64)
            .map(|_| Pattern {
                bits: (0..orig_access.width()).map(|_| rng.gen()).collect(),
            })
            .collect();
        let test_patterns: Vec<Pattern> = orig_patterns
            .iter()
            .map(|p| {
                let mut bits = vec![false; test_access.width()];
                for (rank, &src) in test_access.controllable().iter().enumerate() {
                    let name = &wrapped.netlist.gate(src).name;
                    bits[rank] = match original.find(name) {
                        Some(orig_id) => p.bits[orig_access.rank_of(orig_id).unwrap()],
                        None => rng.gen(),
                    };
                }
                Pattern { bits }
            })
            .collect();
        let ov = orig_sim
            .run_batch(&original, &orig_access, &orig_patterns)
            .unwrap();
        let tv = test_sim
            .run_batch(&wrapped.netlist, &test_access, &test_patterns)
            .unwrap();
        let mut diverged = false;
        for (name, orig_driver) in &sinks {
            let test_sink = wrapped.netlist.find(name).unwrap();
            let test_driver = wrapped.netlist.gate(test_sink).inputs[0];
            let (a, au) = ov[orig_driver.index()];
            let (b, bu) = tv[test_driver.index()];
            if ((a ^ b) & !(au | bu)) | (au ^ bu) != 0 {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "test mode must visibly diverge from mission mode");
    }
}
