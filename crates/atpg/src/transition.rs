//! Transition (delay) fault model: slow-to-rise / slow-to-fall.
//!
//! A transition fault at a site needs a **two-pattern test**: the first
//! vector sets the site to the initial value, the second launches the
//! transition and propagates the (late) final value to an observation
//! point. Under the single-transition-fault model, the second vector is
//! exactly a stuck-at test for the initial value's polarity, so both test
//! generation and simulation are built on the stuck-at machinery
//! (enhanced-scan style: both vectors are fully controllable — the paper
//! does not specify its launch mechanism, see DESIGN.md).

use prebond3d_netlist::Netlist;

use crate::access::TestAccess;
use crate::fault::{Fault, FaultList, FaultSite, StuckAt};
use crate::faultsim::FaultSimulator;
use crate::sim::{Lanes, Pattern};

/// Transition polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SlowTo {
    /// Rising transition is late (tested like stuck-at-0 after a 0 init).
    Rise,
    /// Falling transition is late (tested like stuck-at-1 after a 1 init).
    Fall,
}

/// One transition fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionFault {
    /// Where.
    pub site: FaultSite,
    /// Which edge is slow.
    pub slow: SlowTo,
}

impl TransitionFault {
    /// The initial value the first vector must establish at the site.
    pub fn initial_value(&self) -> bool {
        match self.slow {
            SlowTo::Rise => false,
            SlowTo::Fall => true,
        }
    }

    /// The equivalent stuck-at fault the second vector must detect: a late
    /// rise looks like stuck-at-0, a late fall like stuck-at-1.
    pub fn launch_fault(&self) -> Fault {
        let stuck = match self.slow {
            SlowTo::Rise => StuckAt::Zero,
            SlowTo::Fall => StuckAt::One,
        };
        Fault {
            site: self.site,
            stuck,
        }
    }
}

/// The collapsed transition-fault universe: both edges at every stuck-at
/// site.
pub fn transition_universe(netlist: &Netlist) -> Vec<TransitionFault> {
    let stuck = FaultList::collapsed(netlist);
    let mut sites: Vec<FaultSite> = stuck.faults.iter().map(|f| f.site).collect();
    sites.dedup();
    sites
        .into_iter()
        .flat_map(|site| {
            [
                TransitionFault {
                    site,
                    slow: SlowTo::Rise,
                },
                TransitionFault {
                    site,
                    slow: SlowTo::Fall,
                },
            ]
        })
        .collect()
}

/// Simulate a pattern *sequence* against transition faults: consecutive
/// pattern pairs `(p[i], p[i+1])` are the two-pattern tests.
///
/// Returns, per fault, `true` if any pair both initializes the site and
/// detects the launch stuck-at fault. Faults with `alive[i] == false` are
/// skipped (already detected).
pub fn simulate_sequence(
    fs: &mut FaultSimulator,
    netlist: &Netlist,
    access: &TestAccess,
    patterns: &[Pattern],
    faults: &[TransitionFault],
    alive: &[bool],
) -> Vec<bool> {
    assert_eq!(faults.len(), alive.len());
    let mut detected = vec![false; faults.len()];
    if patterns.len() < 2 {
        return detected;
    }
    let launch: Vec<Fault> = faults.iter().map(TransitionFault::launch_fault).collect();
    // Overlapping 64-pattern windows with one pattern of overlap so every
    // consecutive pair is covered exactly once.
    let mut start = 0usize;
    while start + 1 < patterns.len() {
        let end = (start + 64).min(patterns.len());
        let window = &patterns[start..end];
        let window_alive: Vec<bool> = alive
            .iter()
            .zip(detected.iter())
            .map(|(&a, &d)| a && !d)
            .collect();
        // Good values first: the initialization mask tells the fault
        // simulator exactly which detection bits matter (the one after an
        // initializing pattern), so its cone walks can stop early.
        let good = fs
            .simulator()
            .run_batch(netlist, access, window)
            .expect("sequence window holds at most 64 patterns");
        let used = Lanes::<1>::used_mask(window.len()).lane(0);
        let init_masks: Vec<u64> = faults
            .iter()
            .map(|fault| {
                let site_driver = fault.site.driver(netlist);
                let (v, u) = good[site_driver.index()];
                let init_word = if fault.initial_value() { v } else { !v };
                init_word & !u & used
            })
            .collect();
        let need: Vec<u64> = init_masks.iter().map(|m| m << 1).collect();
        let det_masks = fs
            .simulate_batch_with_need(netlist, access, window, &launch, &window_alive, &need)
            .expect("sequence window holds at most 64 patterns");
        for (i, _) in faults.iter().enumerate() {
            if !window_alive[i] {
                continue;
            }
            // Pair (i, i+1): init at bit i, detection at bit i+1.
            if init_masks[i] & (det_masks[i] >> 1) != 0 {
                detected[i] = true;
            }
        }
        if end == patterns.len() {
            break;
        }
        start = end - 1; // overlap one pattern across windows
    }
    detected
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::{GateKind, NetlistBuilder};

    fn and_rig() -> (Netlist, TestAccess) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let g = b.gate(GateKind::And, &[a, c], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let acc = TestAccess::full_scan(&n);
        (n, acc)
    }

    #[test]
    fn universe_pairs_every_site() {
        let (n, _) = and_rig();
        let stuck = FaultList::collapsed(&n);
        let trans = transition_universe(&n);
        assert_eq!(trans.len(), stuck.len()); // 2 polarities each, same sites
    }

    #[test]
    fn str_needs_zero_then_one() {
        let (n, acc) = and_rig();
        let g = n.find("g").unwrap();
        let fault = TransitionFault {
            site: FaultSite::Output(g),
            slow: SlowTo::Rise,
        };
        let mut fs = FaultSimulator::new(&n);
        // Sequence 00 → 11: g goes 0 → 1, and 11 detects g/sa0. Detected.
        let seq = vec![
            Pattern {
                bits: vec![false, false],
            },
            Pattern {
                bits: vec![true, true],
            },
        ];
        let det = simulate_sequence(&mut fs, &n, &acc, &seq, &[fault], &[true]);
        assert!(det[0]);
        // Sequence 11 → 11 never launches a rise on g.
        let seq2 = vec![
            Pattern {
                bits: vec![true, true],
            },
            Pattern {
                bits: vec![true, true],
            },
        ];
        let det2 = simulate_sequence(&mut fs, &n, &acc, &seq2, &[fault], &[true]);
        assert!(!det2[0]);
    }

    #[test]
    fn stf_is_the_mirror() {
        let (n, acc) = and_rig();
        let g = n.find("g").unwrap();
        let fault = TransitionFault {
            site: FaultSite::Output(g),
            slow: SlowTo::Fall,
        };
        assert!(fault.initial_value());
        assert_eq!(fault.launch_fault().stuck, StuckAt::One);
        let mut fs = FaultSimulator::new(&n);
        // 11 → 01: g falls 1 → 0 and (a=0,b=1) detects g/sa1.
        let seq = vec![
            Pattern {
                bits: vec![true, true],
            },
            Pattern {
                bits: vec![false, true],
            },
        ];
        let det = simulate_sequence(&mut fs, &n, &acc, &seq, &[fault], &[true]);
        assert!(det[0]);
    }

    #[test]
    fn short_sequences_detect_nothing() {
        let (n, acc) = and_rig();
        let g = n.find("g").unwrap();
        let fault = TransitionFault {
            site: FaultSite::Output(g),
            slow: SlowTo::Rise,
        };
        let mut fs = FaultSimulator::new(&n);
        let det = simulate_sequence(
            &mut fs,
            &n,
            &acc,
            &[Pattern {
                bits: vec![true, true],
            }],
            &[fault],
            &[true],
        );
        assert!(!det[0]);
    }
}
