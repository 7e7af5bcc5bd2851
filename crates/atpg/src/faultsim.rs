//! Parallel-pattern single-fault propagation (PPSFP) fault simulation.
//!
//! For each pattern batch the good machine is simulated once; each still-
//! undetected fault is then injected and re-simulated **only over its
//! fanout cone**, event-driven (propagation stops where the faulty value
//! reconverges with the good value). Detection is registered at the access
//! model's observation points, requiring both good and faulty values to be
//! known — a tester cannot call a miscompare on an X.
//!
//! # Wide lanes
//!
//! A batch word is a [`Lanes<W>`] bundle (W ∈ {1, 4, 8}), so one physical
//! batch carries up to `W * 64` patterns split into `W` logical 64-pattern
//! *blocks* (lane `l` = block `l`). The walk is a single generic
//! implementation monomorphized per width; `W=1` is bit-for-bit the
//! pre-existing narrow walk (the engine's single-lane reference run pins
//! it as the oracle). Two invariants make the wide masks
//! **byte-identical** to running the blocks narrowly, which the engine's
//! credit replay relies on:
//!
//! * **Per-lane freeze** — in early-exit (`Any`/`PerFault`) modes the
//!   narrow walk returns at the first checkpoint where `detect & need != 0`,
//!   truncating the mask there. The wide walk instead *freezes* each
//!   satisfied lane (stops accumulating its bits) at the same checkpoints
//!   and exits only once every lane with need bits is satisfied, so every
//!   lane's partial mask equals its narrow counterpart.
//! * **Per-lane evaluation** — rail algebra is bitwise, so a jointly
//!   walked cone (the union of the per-lane event cones) computes each
//!   lane exactly as its own walk would: nodes a lane reconverged at carry
//!   that lane's good value in the stamped overlay.

use std::ops::Range;
use std::sync::Mutex;

use prebond3d_netlist::Netlist;
use prebond3d_pool as pool;

use crate::access::TestAccess;
use crate::fault::{Fault, FaultSite};
use crate::rank_queue::RankQueue;
use crate::sim::{eval_rail_wide, Lanes, Pattern, RailW, SimError, Simulator};

/// Epoch-stamped overlay of faulty values plus the event queue — the
/// only mutable scratch a single-fault resimulation needs. Each worker of
/// a batch holds one overlay for its whole share of the faults, which is
/// what makes the fault loop embarrassingly parallel: everything else in
/// a batch (`Simulator`, good machine, fault list) is shared read-only.
#[derive(Debug)]
struct Overlay<const W: usize> {
    stamp: Vec<u32>,
    faulty: Vec<RailW<W>>,
    epoch: u32,
    /// Empty between walks: a walk drains it or clears it on early exit.
    queue: RankQueue,
}

impl<const W: usize> Overlay<W> {
    fn new(len: usize) -> Self {
        Overlay {
            stamp: vec![0; len],
            faulty: vec![(Lanes::ZERO, Lanes::ZERO); len],
            epoch: 0,
            queue: RankQueue::new(len),
        }
    }
}

/// The overlays of one lane width that no batch is using, kept for the
/// life of a [`FaultSimulator`]. Each worker of a batch leases one
/// (allocating only when the stack is empty) and returns it when the
/// batch ends, so a simulator allocates at most one overlay per worker per
/// width. Masks do not depend on which overlay a fault gets: walks are
/// epoch-stamped.
#[derive(Debug, Default)]
struct Spares<const W: usize>(Mutex<Vec<Overlay<W>>>);

impl<const W: usize> Spares<W> {
    fn lease(&self, len: usize) -> Lease<'_, W> {
        let spare = self.0.lock().expect("no holder panics").pop();
        Lease {
            overlay: spare.unwrap_or_else(|| Overlay::new(len)),
            home: self,
        }
    }
}

/// An overlay on loan to one worker; dropping the lease returns the
/// overlay to its stack. A walk that unwound may have left ranks queued,
/// so an overlay dropped during a panic is freed instead.
struct Lease<'a, const W: usize> {
    overlay: Overlay<W>,
    home: &'a Spares<W>,
}

impl<const W: usize> Drop for Lease<'_, W> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        if let Ok(mut spares) = self.home.0.lock() {
            // `Overlay::new(0)` allocates nothing.
            spares.push(std::mem::replace(&mut self.overlay, Overlay::new(0)));
        }
    }
}

/// Shared read-only context of one PPSFP batch.
struct BatchCtx<'a, const W: usize> {
    sim: &'a Simulator,
    netlist: &'a Netlist,
    access: &'a TestAccess,
    good: &'a [RailW<W>],
    used: Lanes<W>,
}

/// Below this many faults a batch stays serial: spawning threads costs
/// more than the cone resimulations themselves.
const PAR_FAULT_THRESHOLD: usize = 64;

/// Which patterns a fault's propagation may stop at. Resolved to a
/// concrete need mask once per batch, outside the fault loop (the `used`
/// mask it may expand to is a per-batch constant).
#[derive(Clone, Copy)]
enum NeedSpec<'a> {
    /// Exact masks: never stop early (need = 0 for every fault).
    Exact,
    /// Stop at the first detection per lane (need = the batch's `used`).
    Any,
    /// A per-fault need mask (transition accounting; single-block only).
    PerFault(&'a [u64]),
}

/// Lane-occupancy accounting behind the `atpg.lane_fill_pct` gauge:
/// pattern slots actually filled vs. slots the chosen lane widths could
/// have carried (wasted tail-lane bits are the difference), over the
/// batches of one [`FaultSimulator`], so the gauge does not depend on what
/// other simulators ran meanwhile.
#[derive(Debug, Default)]
struct LaneFill {
    used: u64,
    capacity: u64,
}

impl LaneFill {
    fn record(&mut self, patterns: usize, width: usize) {
        self.used += patterns as u64;
        self.capacity += width as u64 * 64;
        if let Some(pct) = (self.used * 100).checked_div(self.capacity) {
            prebond3d_obs::gauge("atpg.lane_fill_pct", pct);
        }
    }
}

/// Reusable fault-simulation scratch state for one netlist.
#[derive(Debug)]
pub struct FaultSimulator {
    sim: Simulator,
    /// Spare overlays per lane width (1, 4, 8), filled on first use.
    spares1: Spares<1>,
    spares4: Spares<4>,
    spares8: Spares<8>,
    /// Detection-mask buffer reused across batches **and lane widths**
    /// (flat, fault-major/lane-minor: slot `f * W + l` is fault `f`,
    /// block `l`); batch entry points return a borrowed view of it.
    masks: Vec<u64>,
    lane_fill: LaneFill,
}

impl FaultSimulator {
    /// Prepare for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        FaultSimulator {
            sim: Simulator::new(netlist),
            spares1: Spares::default(),
            spares4: Spares::default(),
            spares8: Spares::default(),
            masks: Vec::new(),
            lane_fill: LaneFill::default(),
        }
    }

    /// Access to the inner good-machine simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Simulate up to 512 `patterns` against each fault in `faults` where
    /// `alive[i]` is true, stopping each fault's propagation at the first
    /// detecting observation point. Returns `(w, masks)` where
    /// `masks[f * w + l]` is fault `f`'s detection mask for 64-pattern
    /// block `l` (pattern `l * 64 + b` ⇔ bit `b`). The width `w` is chosen
    /// from the pattern count (1, 4, or 8 lanes), so a tail batch never
    /// pays for empty lanes, and ≤ 64 patterns run at `w = 1`.
    ///
    /// The masks are partial (at least one bit of every detected fault is
    /// set) — enough for fault dropping and pattern crediting, and several
    /// times cheaper on large dies where the full fanout cone is deep. Not
    /// suitable for two-pattern (transition) accounting, which needs
    /// exact per-pattern masks. Each block's mask is byte-identical to
    /// simulating that block alone against the same `alive` set (see the
    /// module docs on per-lane freezing). The slice borrows the
    /// simulator's persistent mask buffer (reused across batches); copy it
    /// out (`.to_vec()`) if it must outlive the next batch.
    pub fn simulate_batch_any_wide(
        &mut self,
        netlist: &Netlist,
        access: &TestAccess,
        patterns: &[Pattern],
        faults: &[Fault],
        alive: &[bool],
    ) -> Result<(usize, &[u64]), SimError> {
        self.dispatch(netlist, access, patterns, faults, alive, NeedSpec::Any)
    }

    /// [`Self::simulate_batch_any_wide`] with exact masks (no early exit):
    /// bit *p* of a block's mask is set ⇔ pattern *p* detects the fault.
    pub fn simulate_batch_wide(
        &mut self,
        netlist: &Netlist,
        access: &TestAccess,
        patterns: &[Pattern],
        faults: &[Fault],
        alive: &[bool],
    ) -> Result<(usize, &[u64]), SimError> {
        self.dispatch(netlist, access, patterns, faults, alive, NeedSpec::Exact)
    }

    /// Per-fault *need-mask* variant: propagation of fault `f` stops as
    /// soon as `detect & need[f] != 0`. The returned mask is partial but
    /// always contains at least one needed bit when any needed pattern
    /// detects — exactly what two-pattern (transition) dropping requires,
    /// where only the bit following an initializing pattern matters.
    /// Single-block (≤ 64 patterns) by construction: the need masks are
    /// one word per fault.
    pub fn simulate_batch_with_need(
        &mut self,
        netlist: &Netlist,
        access: &TestAccess,
        patterns: &[Pattern],
        faults: &[Fault],
        alive: &[bool],
        need: &[u64],
    ) -> Result<&[u64], SimError> {
        assert_eq!(faults.len(), need.len());
        if patterns.len() > 64 {
            return Err(SimError::TooManyPatterns {
                given: patterns.len(),
                capacity: 64,
            });
        }
        let (_, masks) = self.dispatch(
            netlist,
            access,
            patterns,
            faults,
            alive,
            NeedSpec::PerFault(need),
        )?;
        Ok(masks)
    }

    /// Route a batch to the narrowest lane width that holds it. Blocks
    /// beyond width 8 (512 patterns) are a caller error.
    fn dispatch(
        &mut self,
        netlist: &Netlist,
        access: &TestAccess,
        patterns: &[Pattern],
        faults: &[Fault],
        alive: &[bool],
        spec: NeedSpec<'_>,
    ) -> Result<(usize, &[u64]), SimError> {
        let FaultSimulator {
            sim,
            spares1,
            spares4,
            spares8,
            masks,
            lane_fill,
        } = self;
        let w = match patterns.len().div_ceil(64) {
            0 | 1 => batch_masks(
                sim, spares1, masks, lane_fill, netlist, access, patterns, faults, alive, spec,
            )
            .map(|()| 1),
            2..=4 => batch_masks(
                sim, spares4, masks, lane_fill, netlist, access, patterns, faults, alive, spec,
            )
            .map(|()| 4),
            5..=8 => batch_masks(
                sim, spares8, masks, lane_fill, netlist, access, patterns, faults, alive, spec,
            )
            .map(|()| 8),
            _ => Err(SimError::TooManyPatterns {
                given: patterns.len(),
                capacity: 512,
            }),
        }?;
        Ok((w, &*masks))
    }
}

/// The shared batch driver: one good-machine simulation, then one
/// cone-restricted resimulation per alive fault, at lane width `W`.
///
/// Per-fault resimulations are independent (shared state is read-only,
/// scratch is per-overlay), so a batch of at least
/// `PAR_FAULT_THRESHOLD` faults on more than one pool thread partitions
/// the fault list into index-contiguous chunks and merges the masks back
/// in fault order — bit-identical to one pass over the whole list (see
/// `prebond3d-pool`'s determinism contract). A smaller batch, or one on a
/// single thread, runs that one pass on the caller without entering the
/// pool.
#[allow(clippy::too_many_arguments)]
fn batch_masks<const W: usize>(
    sim: &Simulator,
    spares: &Spares<W>,
    out: &mut Vec<u64>,
    lane_fill: &mut LaneFill,
    netlist: &Netlist,
    access: &TestAccess,
    patterns: &[Pattern],
    faults: &[Fault],
    alive: &[bool],
    spec: NeedSpec<'_>,
) -> Result<(), SimError> {
    assert_eq!(faults.len(), alive.len());
    prebond3d_obs::count("atpg.faultsim_batches", 1);
    // One physical batch of up to W logical 64-pattern blocks.
    prebond3d_obs::count("atpg.pattern_batches", 1);
    lane_fill.record(patterns.len(), W);
    // One histogram sample per batch call: the sample *count* is the
    // batch count (thread-invariant); only the latency values are
    // wall-clock and get zeroed under PREBOND3D_STABLE_MS.
    let batch_t0 = prebond3d_obs::is_active().then(std::time::Instant::now);
    let good = sim.run_batch_wide::<W>(netlist, access, patterns)?;
    let used = Lanes::<W>::used_mask(patterns.len());
    // Resolve the need mask once, outside the fault loop.
    let need_at = |fi: usize| -> Lanes<W> {
        match spec {
            NeedSpec::Exact => Lanes::ZERO,
            NeedSpec::Any => used,
            NeedSpec::PerFault(need) => {
                // Transition accounting is single-block by construction.
                let mut n = Lanes::ZERO;
                n.0[0] = need[fi];
                n
            }
        }
    };
    let ctx = BatchCtx {
        sim,
        netlist,
        access,
        good: &good,
        used,
    };
    // The one fault loop: append the masks of `range` to `masks`, return
    // its gate evaluations.
    let grade = |overlay: &mut Overlay<W>, range: Range<usize>, masks: &mut Vec<u64>| {
        let mut tally = 0u64;
        for fi in range {
            if alive[fi] {
                let (mask, e) = simulate_one(&ctx, overlay, faults[fi], need_at(fi));
                masks.extend_from_slice(&mask.0);
                tally += e;
            } else {
                masks.extend_from_slice(&[0u64; W]);
            }
        }
        tally
    };
    out.clear();
    let threads = pool::threads();
    let evals = if threads <= 1 || faults.len() < PAR_FAULT_THRESHOLD {
        grade(
            &mut spares.lease(netlist.len()).overlay,
            0..faults.len(),
            out,
        )
    } else {
        prebond3d_obs::count("atpg.faultsim_parallel_batches", 1);
        // ~8 chunks per worker for load balancing; ≥32 faults per chunk
        // so the per-chunk merge stays negligible next to cone
        // resimulation.
        let chunk = faults.len().div_ceil(threads * 8).max(32);
        let chunks = pool::par_chunks(
            faults.len(),
            chunk,
            || spares.lease(netlist.len()),
            |lease, range| {
                let mut masks = Vec::with_capacity(range.len() * W);
                let evals = grade(&mut lease.overlay, range, &mut masks);
                (masks, evals)
            },
        );
        // Merge in chunk (= fault) order: masks and the eval tally are
        // both bit-identical to one pass over the whole list.
        let mut tally = 0u64;
        for (chunk_masks, chunk_evals) in chunks {
            out.extend_from_slice(&chunk_masks);
            tally += chunk_evals;
        }
        tally
    };
    prebond3d_obs::count("atpg.gate_evals", evals);
    if let Some(t0) = batch_t0 {
        prebond3d_obs::hist("atpg.faultsim_batch_ns", t0.elapsed().as_nanos() as u64);
    }
    Ok(())
}

/// Detection mask of a single fault against an already-simulated good
/// machine, plus the number of rail evaluations performed (the
/// deterministic work unit behind the `atpg.gate_evals` counter). Pure
/// with respect to `ctx` (all reads); only `overlay` is written — which is
/// why one overlay per worker suffices.
///
/// `need` drives the per-lane freeze: a lane stops accumulating detect
/// bits at the first *checkpoint* (root observation, or an observed walk
/// node) where it holds a needed bit, and the walk exits once every lane
/// with need bits is frozen. At `W=1` the checkpoints and the truncated
/// masks coincide exactly with the historical narrow walk's early returns.
fn simulate_one<const W: usize>(
    ctx: &BatchCtx<'_, W>,
    overlay: &mut Overlay<W>,
    fault: Fault,
    need: Lanes<W>,
) -> (Lanes<W>, u64) {
    let BatchCtx {
        sim,
        netlist,
        access,
        good,
        used,
    } = *ctx;
    overlay.epoch = overlay.epoch.wrapping_add(1);
    if overlay.epoch == 0 {
        // wrapped: clear stamps
        overlay.stamp.iter_mut().for_each(|s| *s = 0);
        overlay.epoch = 1;
    }
    let stuck_word = if fault.stuck.value() {
        used
    } else {
        Lanes::ZERO
    };
    let unk_tail = !used;
    let mut evals = 0u64;

    // Inject at the propagation root.
    let root = fault.site.propagation_root();
    let root_faulty: RailW<W> = match fault.site {
        FaultSite::Output(_) => (stuck_word, unk_tail),
        FaultSite::Input { gate, pin } => {
            let g = netlist.gate(gate);
            if !g.kind.is_combinational() {
                // Branch into a sequential/sink pin: the faulty value is
                // the stuck value as seen by the capture point; the
                // "gate output" for detection purposes is the pin value
                // itself, which only matters if the driver is observed —
                // handled below via driver comparison. Model the FF/sink
                // input as a passthrough.
                (stuck_word, unk_tail)
            } else {
                let mut buf = [(Lanes::<W>::ZERO, Lanes::<W>::ZERO); 3];
                for (k, (slot, &i)) in buf.iter_mut().zip(g.inputs.iter()).enumerate() {
                    *slot = if k == pin as usize {
                        (stuck_word, unk_tail)
                    } else {
                        good[i.index()]
                    };
                }
                evals += 1;
                eval_rail_wide(g.kind, &buf[..g.inputs.len()])
            }
        }
    };

    // Difference mask at the root: where both values are known and
    // differ, or knownness changed (X→known divergence can become a
    // detection downstream only if it resolves; we track full rail).
    let root_good = good[root.index()];
    if root_faulty == root_good {
        return (Lanes::ZERO, evals);
    }
    let Overlay {
        stamp,
        faulty,
        epoch,
        queue,
    } = overlay;
    let epoch = *epoch;
    stamp[root.index()] = epoch;
    faulty[root.index()] = root_faulty;

    let mut detect = Lanes::<W>::ZERO;
    // Lanes still accumulating detect bits; a lane freezes (drops out)
    // once a checkpoint sees it satisfied, mirroring the narrow walk's
    // early return for that lane's own 64-pattern batch.
    let mut accept = used;
    let check_observed = |detect: &mut Lanes<W>, accept: &Lanes<W>, idx: usize, f: RailW<W>| {
        let g = good[idx];
        let diff = (g.0 ^ f.0) & !(g.1 | f.1) & *accept;
        *detect |= diff;
    };
    let freeze = |detect: &Lanes<W>, accept: &mut Lanes<W>| {
        for l in 0..W {
            if need.0[l] != 0 && detect.0[l] & need.0[l] != 0 {
                accept.0[l] = 0;
            }
        }
    };
    // All lanes that can stop early have stopped? (Exact mode — no need
    // bits anywhere — never exits early, like the narrow walk.)
    let satisfied = |accept: &Lanes<W>| -> bool {
        need.any() && (0..W).all(|l| need.0[l] == 0 || accept.0[l] == 0)
    };

    if access.is_observed(root) {
        check_observed(&mut detect, &accept, root.index(), root_faulty);
    }
    // Checkpoint: the narrow walk returns here when already satisfied.
    freeze(&detect, &mut accept);
    if satisfied(&accept) {
        return (detect, evals);
    }
    // Special case: a branch fault into an observed *capture pin*. The
    // observation list stores drivers; a branch fault on the FF's D pin
    // diverges the captured value even though the driver stem is fine.
    // We conservatively account for it by treating the pin's stuck
    // value as the captured value when the pin's gate is sequential or
    // a sink marker. (Not a checkpoint: the narrow walk performs no
    // early-exit test between this absorb and the first walked node.)
    if let FaultSite::Input { gate, .. } = fault.site {
        let gk = netlist.gate(gate).kind;
        if !gk.is_combinational() && access.is_observed(fault.site.driver(netlist)) {
            // Driver value observed through this very pin: compare the
            // driver's good value with the stuck value.
            let g = good[fault.site.driver(netlist).index()];
            let f: RailW<W> = (stuck_word, unk_tail);
            let diff = (g.0 ^ f.0) & !(g.1 | f.1) & accept;
            detect |= diff;
        }
    }

    // Event-driven propagation in topological-rank order.
    for &fo in sim.fanout_ranks(sim.rank(root)) {
        queue.push(fo);
    }
    while let Some(r) = queue.pop() {
        let (id, kind, inputs) = sim.gate_at(r);
        // Max arity is 3; a stack buffer avoids a heap allocation per
        // evaluated gate, which dominates the first (all-faults-alive)
        // simulation batch on the large b18 dies.
        let mut buf = [(Lanes::<W>::ZERO, Lanes::<W>::ZERO); 3];
        for (slot, &i) in buf.iter_mut().zip(inputs) {
            let i = i as usize;
            *slot = if stamp[i] == epoch {
                faulty[i]
            } else {
                good[i]
            };
        }
        evals += 1;
        let f = eval_rail_wide(kind, &buf[..inputs.len()]);
        if f == good[id.index()] {
            continue; // reconverged in every lane: no event
        }
        stamp[id.index()] = epoch;
        faulty[id.index()] = f;
        if access.is_observed(id) {
            check_observed(&mut detect, &accept, id.index(), f);
            // Checkpoint: freeze satisfied lanes, exit once all are.
            freeze(&detect, &mut accept);
            if satisfied(&accept) {
                queue.clear();
                return (detect, evals);
            }
        }
        for &fo in sim.fanout_ranks(r) {
            queue.push(fo);
        }
    }
    (detect, evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultList, StuckAt};
    use prebond3d_netlist::{itc99, GateKind, NetlistBuilder};
    use prebond3d_rng::StdRng;

    /// y = and(a, b), observed at a PO; classic textbook example.
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
    fn detects_and_gate_faults() {
        let (n, acc) = and_rig();
        let g = n.find("g").unwrap();
        let mut fs = FaultSimulator::new(&n);
        // Patterns: 00, 01, 10, 11.
        let ps: Vec<Pattern> = [(false, false), (false, true), (true, false), (true, true)]
            .iter()
            .map(|&(x, y)| Pattern { bits: vec![x, y] })
            .collect();
        let faults = vec![
            Fault::output(g, StuckAt::Zero),
            Fault::output(g, StuckAt::One),
        ];
        let (w, masks) = fs
            .simulate_batch_wide(&n, &acc, &ps, &faults, &[true, true])
            .unwrap();
        assert_eq!(w, 1, "up to 64 patterns run in one lane");
        // sa0 detected only by 11 (bit 3); sa1 by 00,01,10 (bits 0..=2).
        assert_eq!(masks[0], 0b1000);
        assert_eq!(masks[1], 0b0111);
    }

    #[test]
    fn skipped_faults_return_zero() {
        let (n, acc) = and_rig();
        let g = n.find("g").unwrap();
        let mut fs = FaultSimulator::new(&n);
        let ps = vec![Pattern {
            bits: vec![true, true],
        }];
        let faults = vec![Fault::output(g, StuckAt::Zero)];
        let masks = fs
            .simulate_batch_wide(&n, &acc, &ps, &faults, &[false])
            .unwrap()
            .1;
        assert_eq!(masks[0], 0);
    }

    #[test]
    fn branch_faults_differ_from_stem() {
        // a fans out to g1 = and(a, b) and g2 = or(a, c).
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let x = b.input("b");
        let y = b.input("c");
        let g1 = b.gate(GateKind::And, &[a, x], "g1");
        let g2 = b.gate(GateKind::Or, &[a, y], "g2");
        b.output(g1, "o1");
        b.output(g2, "o2");
        let n = b.finish().unwrap();
        let acc = TestAccess::full_scan(&n);
        let mut fs = FaultSimulator::new(&n);
        // Pattern a=1,b=1,c=0: stem a/sa0 flips both g1 (1→0) and g2 (1→0).
        // Branch g1.in0/sa0 flips only g1.
        let p = Pattern {
            bits: vec![true, true, false],
        };
        let faults = vec![
            Fault::output(a, StuckAt::Zero),
            Fault::input(g1, 0, StuckAt::Zero),
            Fault::input(g2, 0, StuckAt::Zero),
        ];
        let masks = fs
            .simulate_batch_wide(&n, &acc, &[p], &faults, &[true; 3])
            .unwrap()
            .1;
        assert_eq!(masks[0], 1, "stem fault detected");
        assert_eq!(masks[1], 1, "g1 branch detected via o1");
        assert_eq!(masks[2], 1, "g2 branch detected via o2 (1|0→0|0)");
    }

    #[test]
    fn x_from_floating_tsv_blocks_detection() {
        // g = and(ti, a): with ti floating, g/sa0 cannot be excited
        // (good value unknown), so nothing is ever detected.
        let mut b = NetlistBuilder::new("t");
        let ti = b.tsv_in("ti");
        let a = b.input("a");
        let g = b.gate(GateKind::And, &[ti, a], "g");
        b.output(g, "o");
        let n = b.finish().unwrap();
        let acc = TestAccess::full_scan(&n);
        let mut fs = FaultSimulator::new(&n);
        let ps = vec![Pattern { bits: vec![false] }, Pattern { bits: vec![true] }];
        let faults = vec![
            Fault::output(g, StuckAt::Zero),
            Fault::output(g, StuckAt::One),
        ];
        let masks = fs
            .simulate_batch_wide(&n, &acc, &ps, &faults, &[true, true])
            .unwrap()
            .1;
        assert_eq!(masks[0], 0, "sa0 needs good=1, impossible with X input");
        // sa1: good must be 0; with a=0 AND is 0 regardless of X → good
        // known 0, faulty 1 → detected.
        assert_eq!(masks[1], 0b11 & masks[1]);
        assert!(masks[1] & 0b01 != 0, "a=0 pattern detects sa1");
    }

    #[test]
    fn parallel_detection_masks_are_bit_identical_to_serial() {
        let die = itc99::generate_flat("d", 400, 24, 6, 6, 11);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        assert!(
            list.len() >= PAR_FAULT_THRESHOLD,
            "must take the parallel path"
        );
        let mut state = 0x9E3779B9u64;
        let ps: Vec<Pattern> = (0..64)
            .map(|_| Pattern {
                bits: (0..acc.width())
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 33 & 1 == 1
                    })
                    .collect(),
            })
            .collect();
        let alive = vec![true; list.len()];
        let masks_at = |threads: usize| {
            pool::with_threads(threads, || {
                let mut fs = FaultSimulator::new(&die);
                fs.simulate_batch_wide(&die, &acc, &ps, &list.faults, &alive)
                    .unwrap()
                    .1
                    .to_vec()
            })
        };
        let serial = masks_at(1);
        assert_eq!(masks_at(2), serial, "2 threads must match serial");
        assert_eq!(masks_at(8), serial, "8 threads must match serial");
    }

    #[test]
    fn wide_exact_masks_match_narrow_blocks() {
        let die = itc99::generate_flat("d", 300, 20, 6, 6, 7);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        let mut state = 0xABCD_EF01u64;
        let ps: Vec<Pattern> = (0..300)
            .map(|_| Pattern {
                bits: (0..acc.width())
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 33 & 1 == 1
                    })
                    .collect(),
            })
            .collect();
        let alive = vec![true; list.len()];
        let mut fs = FaultSimulator::new(&die);
        let (w, wide) = fs
            .simulate_batch_wide(&die, &acc, &ps, &list.faults, &alive)
            .unwrap();
        assert_eq!(w, 8, "300 patterns need 5 blocks → width 8");
        let wide = wide.to_vec();
        let mut fs2 = FaultSimulator::new(&die);
        for (block, chunk) in ps.chunks(64).enumerate() {
            let narrow = fs2
                .simulate_batch_wide(&die, &acc, chunk, &list.faults, &alive)
                .unwrap()
                .1;
            for (fi, &m) in narrow.iter().enumerate() {
                assert_eq!(wide[fi * w + block], m, "fault {fi} block {block}");
            }
        }
    }

    /// `atpg.lane_fill_pct` covers one simulator's batches: a full
    /// 512-pattern batch on another simulator does not move it.
    #[test]
    fn lane_fill_gauge_counts_only_its_own_simulator() {
        let die = itc99::generate_flat("d", 120, 8, 4, 4, 3);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        let alive = vec![true; list.len()];
        let pattern = Pattern {
            bits: vec![true; acc.width()],
        };
        let mut sims = [FaultSimulator::new(&die), FaultSimulator::new(&die)];
        let ((), snap) = prebond3d_obs::capture_recorded(|| {
            for (s, n) in [(0, 100), (1, 512), (0, 64)] {
                let ps = vec![pattern.clone(); n];
                sims[s]
                    .simulate_batch_wide(&die, &acc, &ps, &list.faults, &alive)
                    .unwrap();
            }
        });
        // 164 patterns in a 4-lane and a 1-lane batch: 164 / 320 slots.
        assert_eq!(snap.gauge("atpg.lane_fill_pct"), Some(51));
    }

    #[test]
    fn wide_any_masks_replicate_narrow_early_exits() {
        let die = itc99::generate_flat("d", 300, 20, 6, 6, 13);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        let mut state = 0x5A5A_0F0Fu64;
        let ps: Vec<Pattern> = (0..256)
            .map(|_| Pattern {
                bits: (0..acc.width())
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 33 & 1 == 1
                    })
                    .collect(),
            })
            .collect();
        let alive = vec![true; list.len()];
        let mut fs = FaultSimulator::new(&die);
        let (w, wide) = fs
            .simulate_batch_any_wide(&die, &acc, &ps, &list.faults, &alive)
            .unwrap();
        assert_eq!(w, 4);
        let wide = wide.to_vec();
        let mut fs2 = FaultSimulator::new(&die);
        for (block, chunk) in ps.chunks(64).enumerate() {
            let narrow = fs2
                .simulate_batch_any_wide(&die, &acc, chunk, &list.faults, &alive)
                .unwrap()
                .1;
            for (fi, &m) in narrow.iter().enumerate() {
                assert_eq!(
                    wide[fi * w + block],
                    m,
                    "any-mode truncation must match per-block (fault {fi} block {block})"
                );
            }
        }
    }

    #[test]
    fn full_universe_on_generated_die_is_mostly_detectable() {
        let die = itc99::generate_flat("d", 120, 10, 5, 5, 9);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        let mut fs = FaultSimulator::new(&die);
        // 256 random-ish patterns via a simple LCG.
        let mut alive = vec![true; list.len()];
        let mut detected = 0usize;
        let mut state = 0x12345678u64;
        for _ in 0..4 {
            let ps: Vec<Pattern> = (0..64)
                .map(|_| Pattern {
                    bits: (0..acc.width())
                        .map(|_| {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                            state >> 33 & 1 == 1
                        })
                        .collect(),
                })
                .collect();
            let masks = fs
                .simulate_batch_wide(&die, &acc, &ps, &list.faults, &alive)
                .unwrap()
                .1
                .to_vec();
            for (i, m) in masks.iter().enumerate() {
                if alive[i] && *m != 0 {
                    alive[i] = false;
                    detected += 1;
                }
            }
        }
        let coverage = detected as f64 / list.len() as f64;
        assert!(
            coverage > 0.6,
            "random patterns should detect most faults, got {coverage:.2}"
        );
    }

    fn random_patterns(width: usize, count: usize, seed: u64) -> Vec<Pattern> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern {
                bits: (0..width).map(|_| rng.gen::<bool>()).collect(),
            })
            .collect()
    }

    /// Wide-entry masks in `Exact` (`any = false`) or `Any` mode, and the
    /// gate evaluations they took: a rank left queued by an abandoned walk
    /// shows as extra evaluations even where it changes no mask.
    fn grade(
        fs: &mut FaultSimulator,
        die: &Netlist,
        acc: &TestAccess,
        ps: &[Pattern],
        faults: &[Fault],
        any: bool,
    ) -> (Vec<u64>, u64) {
        let alive = vec![true; faults.len()];
        let (masks, snap) = prebond3d_obs::capture_recorded(|| {
            let (_, masks) = if any {
                fs.simulate_batch_any_wide(die, acc, ps, faults, &alive)
            } else {
                fs.simulate_batch_wide(die, acc, ps, faults, &alive)
            }
            .unwrap();
            masks.to_vec()
        });
        (masks, snap.counter("atpg.gate_evals"))
    }

    /// Each fault graded alone by a fresh simulator: no scratch state can
    /// leak from one fault's walk into the next.
    fn grade_fresh(
        die: &Netlist,
        acc: &TestAccess,
        ps: &[Pattern],
        faults: &[Fault],
        any: bool,
    ) -> (Vec<u64>, u64) {
        let mut all = (Vec::new(), 0);
        for &f in faults {
            let (masks, evals) = grade(&mut FaultSimulator::new(die), die, acc, ps, &[f], any);
            all.0.extend(masks);
            all.1 += evals;
        }
        all
    }

    /// The epochs of the spare overlays a simulator holds between batches,
    /// per lane width (1, 4, 8). An overlay's epoch counts the walks it
    /// has made.
    fn spare_epochs(fs: &mut FaultSimulator) -> [Vec<u32>; 3] {
        [
            epochs(&mut fs.spares1),
            epochs(&mut fs.spares4),
            epochs(&mut fs.spares8),
        ]
    }

    /// Overlays outlive their batch at every thread count: five successive
    /// batches on one simulator grade every fault exactly as a fresh
    /// simulator per fault does. The exercised width ends up holding one
    /// to `threads` overlays whose epochs add up to every walk of the five
    /// batches, so none was dropped or replaced: the simulator allocated
    /// at most one overlay per worker.
    #[test]
    fn persistent_overlays_match_a_fresh_simulator_per_fault() {
        let die = itc99::generate_flat("d", 120, 10, 5, 5, 17);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        assert!(
            list.len() >= PAR_FAULT_THRESHOLD,
            "must take the parallel path"
        );
        // 64 patterns run at W=1, 200 at W=4, 300 at W=8.
        for (width, count) in [(0, 64), (1, 200), (2, 300)] {
            let batches: Vec<Vec<Pattern>> = (0..5)
                .map(|b| random_patterns(acc.width(), count, 0x5EED_0000 + count as u64 * 8 + b))
                .collect();
            for any in [false, true] {
                let fresh: Vec<_> = batches
                    .iter()
                    .map(|ps| grade_fresh(&die, &acc, ps, &list.faults, any))
                    .collect();
                for threads in [1, 2, 8] {
                    pool::with_threads(threads, || {
                        let mut fs = FaultSimulator::new(&die);
                        for (b, ps) in batches.iter().enumerate() {
                            let persistent = grade(&mut fs, &die, &acc, ps, &list.faults, any);
                            assert_eq!(
                                persistent, fresh[b],
                                "{count} patterns, any = {any}, {threads} threads, batch {b}"
                            );
                        }
                        let held = spare_epochs(&mut fs);
                        for (w, epochs) in held.iter().enumerate() {
                            let (count, walks) = if w == width {
                                (1..=threads, batches.len() * list.len())
                            } else {
                                (0..=0, 0)
                            };
                            assert!(
                                count.contains(&epochs.len())
                                    && epochs.iter().sum::<u32>() as usize == walks,
                                "{threads} threads hold overlays with epochs {held:?}"
                            );
                        }
                    });
                }
            }
        }
    }

    /// Stamp every gate as if the walk at epoch 1 had touched it, then
    /// move the overlay to the edge of the epoch wrap: a wrap that kept
    /// the old stamps would read those faulty values as current.
    fn near_wrap<const W: usize>(spares: &mut Spares<W>) {
        for overlay in spares.0.get_mut().unwrap() {
            overlay.stamp.fill(1);
            overlay.epoch = u32::MAX - 1;
        }
    }

    /// The epochs of one width's spare overlays.
    fn epochs<const W: usize>(spares: &mut Spares<W>) -> Vec<u32> {
        spares
            .0
            .get_mut()
            .unwrap()
            .iter()
            .map(|o| o.epoch)
            .collect()
    }

    #[test]
    fn overlay_epoch_wrap_keeps_masks_exact() {
        let die = itc99::generate_flat("d", 120, 10, 5, 5, 19);
        let acc = TestAccess::full_scan(&die);
        let list = FaultList::collapsed(&die);
        for count in [64, 300] {
            let ps = random_patterns(acc.width(), count, 0x3A9_0000 + count as u64);
            for any in [false, true] {
                let fresh = grade_fresh(&die, &acc, &ps, &list.faults, any);
                for threads in [1, 2] {
                    pool::with_threads(threads, || {
                        let mut fs = FaultSimulator::new(&die);
                        grade(&mut fs, &die, &acc, &ps, &list.faults, any);
                        match count {
                            64 => near_wrap(&mut fs.spares1),
                            _ => near_wrap(&mut fs.spares8),
                        }
                        let wrapped = grade(&mut fs, &die, &acc, &ps, &list.faults, any);
                        let epochs = match count {
                            64 => epochs(&mut fs.spares1),
                            _ => epochs(&mut fs.spares8),
                        };
                        // A worker that started after another finished may
                        // have reused that one's overlay and left its own
                        // spare untouched.
                        let wrapped_or_idle =
                            |&e: &u32| e <= list.len() as u32 || e == u32::MAX - 1;
                        assert!(
                            epochs.iter().all(wrapped_or_idle)
                                && epochs.iter().any(|&e| e <= list.len() as u32),
                            "epochs {epochs:?} did not wrap"
                        );
                        assert_eq!(
                            wrapped, fresh,
                            "{count} patterns, any = {any}, {threads} threads"
                        );
                    });
                }
            }
        }
    }

    /// The widest batch is 512 patterns, the per-fault-need batch 64: one
    /// more is a typed error, not a panic.
    #[test]
    fn oversized_batches_are_typed_errors() {
        let (n, acc) = and_rig();
        let faults = [Fault::output(n.find("g").unwrap(), StuckAt::Zero)];
        let mut fs = FaultSimulator::new(&n);
        let ps = vec![Pattern::zeroes(acc.width()); 513];
        assert_eq!(
            fs.simulate_batch_wide(&n, &acc, &ps, &faults, &[true])
                .map(|(w, m)| (w, m.to_vec())),
            Err(SimError::TooManyPatterns {
                given: 513,
                capacity: 512
            })
        );
        assert_eq!(
            fs.simulate_batch_with_need(&n, &acc, &ps[..65], &faults, &[true], &[1])
                .map(<[u64]>::to_vec),
            Err(SimError::TooManyPatterns {
                given: 65,
                capacity: 64
            })
        );
    }
}
