//! Static test-cube compaction.
//!
//! PODEM emits *cubes* — partially specified patterns with don't-cares.
//! Two cubes with no conflicting specified bit can be merged into one
//! pattern, shrinking the deterministic test set before random fill. This
//! is the classic static-compaction pass commercial ATPG runs alongside
//! the reverse-order (dynamic) compaction the engine always applies.

use prebond3d_netlist::V3;

/// `true` if two cubes agree on every mutually specified bit.
pub fn compatible(a: &[V3], b: &[V3]) -> bool {
    a.iter()
        .zip(b.iter())
        .all(|(&x, &y)| x == V3::X || y == V3::X || x == y)
}

/// Merge `b` into `a` (both must be compatible).
pub fn merge_into(a: &mut [V3], b: &[V3]) {
    for (x, &y) in a.iter_mut().zip(b.iter()) {
        if *x == V3::X {
            *x = y;
        }
    }
}

/// Greedy static compaction: each cube is merged into the first compatible
/// accumulated cube, else starts a new one. Order-sensitive (like the
/// classical algorithm); callers typically pass cubes in generation order.
pub fn compact(cubes: Vec<Vec<V3>>) -> Vec<Vec<V3>> {
    let mut merged: Vec<Vec<V3>> = Vec::new();
    for cube in cubes {
        match merged.iter_mut().find(|m| compatible(m, &cube)) {
            Some(m) => merge_into(m, &cube),
            None => merged.push(cube),
        }
    }
    merged
}

/// Specified-bit count of a cube (its "care density").
pub fn care_bits(cube: &[V3]) -> usize {
    cube.iter().filter(|&&v| v != V3::X).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use V3::{One, Zero, X};

    #[test]
    fn compatibility_rules() {
        assert!(compatible(&[One, X, Zero], &[One, Zero, X]));
        assert!(compatible(&[X, X], &[One, Zero]));
        assert!(!compatible(&[One, X], &[Zero, X]));
        assert!(compatible(&[], &[]));
    }

    #[test]
    fn merging_fills_dont_cares() {
        let mut a = vec![One, X, X];
        merge_into(&mut a, &[X, Zero, X]);
        assert_eq!(a, vec![One, Zero, X]);
    }

    #[test]
    fn compaction_shrinks_compatible_sets() {
        let cubes = vec![
            vec![One, X, X, X],
            vec![X, Zero, X, X],
            vec![Zero, X, X, X], // conflicts with cube 0 after merge
            vec![X, X, One, X],
        ];
        let out = compact(cubes);
        // Cubes 0,1,3 merge; cube 2 stands alone.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![One, Zero, One, X]);
        assert_eq!(out[1], vec![Zero, X, X, X]);
    }

    #[test]
    fn compaction_preserves_every_care_bit() {
        let cubes = vec![
            vec![One, X, X],
            vec![X, One, X],
            vec![X, X, Zero],
            vec![Zero, X, X],
            vec![X, Zero, X],
        ];
        let total_before: usize = cubes.iter().map(|c| care_bits(c)).sum();
        let out = compact(cubes);
        let total_after: usize = out.iter().map(|c| care_bits(c)).sum();
        assert_eq!(total_before, total_after, "merging never drops care bits");
        assert!(out.len() < 5);
    }

    /// End to end: compaction reduces the deterministic test set while the
    /// compacted cubes still detect their target faults.
    #[test]
    fn compacted_cubes_still_detect() {
        use crate::fault::FaultList;
        use crate::faultsim::FaultSimulator;
        use crate::podem::{Podem, PodemConfig, PodemOutcome};
        use crate::sim::Pattern;
        use crate::TestAccess;
        use prebond3d_dataflow::Scores;
        use prebond3d_netlist::itc99;

        let die = itc99::generate_flat("compact", 150, 12, 6, 6, 21);
        let access = TestAccess::full_scan(&die);
        let scoap = Scores::compute(&die, &access.view());
        let mut podem = Podem::new(&die, &access, &scoap, PodemConfig::default());
        let list = FaultList::collapsed(&die);

        let mut cubes = Vec::new();
        let mut targets = Vec::new();
        for fault in list.faults.iter().take(120) {
            if let PodemOutcome::Test(cube) = podem.generate(*fault) {
                cubes.push(cube);
                targets.push(*fault);
            }
        }
        let before = cubes.len();
        let compacted = compact(cubes);
        assert!(
            compacted.len() < before,
            "some of {before} cubes should merge"
        );

        // Every target fault is detected by the compacted set (zero-fill).
        let patterns: Vec<Pattern> = compacted
            .iter()
            .map(|c| Pattern::from_v3(c, false))
            .collect();
        let mut fs = FaultSimulator::new(&die);
        let mut alive = vec![true; targets.len()];
        for window in patterns.chunks(64) {
            let masks = fs
                .simulate_batch(&die, &access, window, &targets, &alive)
                .unwrap();
            for (f, &m) in masks.iter().enumerate() {
                if m != 0 {
                    alive[f] = false;
                }
            }
        }
        let missed = alive.iter().filter(|&&a| a).count();
        assert_eq!(missed, 0, "compaction must not lose detections");
    }
}
