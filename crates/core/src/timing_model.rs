//! The timing model behind node eligibility and edge pricing.
//!
//! The paper's key claim is that Agrawal's capacitance-only model is not
//! enough: a reused scan flip-flop far from its TSV adds a long wire whose
//! delay (and capacitance) must be charged to the affected functional
//! paths. [`TimingModel`] wraps an STA report and prices every decision
//! the graph construction makes, in two fidelities:
//!
//! * `include_wire = true` — the paper's accurate model (cap + Elmore
//!   wire delay + distance threshold);
//! * `include_wire = false` — Agrawal's model (pin capacitance only),
//!   used by the baseline to reproduce its timing violations.

use std::collections::HashMap;

use prebond3d_celllib::{Capacitance, Distance, Library, Time};
use prebond3d_netlist::{GateId, GateKind, Netlist};
use prebond3d_place::Placement;
use prebond3d_sta::analysis::TimingReport;

use crate::thresholds::Thresholds;

/// Direction of the TSV being wrapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReuseKind {
    /// The flip-flop drives the TSV's fanout in test mode (Fig. 3a).
    Inbound,
    /// The flip-flop observes the TSV's driver in test mode (Fig. 3b).
    Outbound,
}

/// Pricing facade over (netlist, placement, library, STA reports).
///
/// Two reports feed the model:
///
/// * `report` — the **baseline**: an analysis of the die wrapped with
///   all-dedicated cells (original gate ids are preserved by DFT
///   insertion, so the original nodes index into it directly). All slack
///   and load queries price reuse *differentially* against the hardware
///   every method must insert anyway.
/// * `fanout_report` — an analysis of the bare die, used only where the
///   pre-DFT fanout matters: the Algorithm 1 `capacity_load(n) < cap_th`
///   eligibility check asks what load a wrapper's test mux must drive,
///   which in the baseline netlist has already been moved onto the mux.
#[derive(Debug, Clone)]
pub struct TimingModel<'a> {
    netlist: &'a Netlist,
    placement: &'a Placement,
    library: &'a Library,
    report: &'a TimingReport,
    fanout_report: &'a TimingReport,
    /// Dedicated wrapper cell per TSV in the baseline netlist, when one
    /// was built; lets inbound pricing read the *test-path* slack at the
    /// wrapper's launch point rather than the (much earlier) raw TSV arc.
    wrapper_of: HashMap<GateId, GateId>,
    /// `true` for the paper's model, `false` for capacitance-only.
    pub include_wire: bool,
}

impl<'a> TimingModel<'a> {
    /// Build the model. Pass the same report twice when no dedicated
    /// baseline is available (tests, quick estimates).
    pub fn new(
        netlist: &'a Netlist,
        placement: &'a Placement,
        library: &'a Library,
        report: &'a TimingReport,
        fanout_report: &'a TimingReport,
        include_wire: bool,
    ) -> Self {
        TimingModel {
            netlist,
            placement,
            library,
            report,
            fanout_report,
            wrapper_of: HashMap::new(),
            include_wire,
        }
    }

    /// Attach the TSV → dedicated-wrapper-cell map of the baseline
    /// netlist (ids valid in the baseline report's index space).
    pub fn with_wrapper_map(mut self, wrapper_of: HashMap<GateId, GateId>) -> Self {
        self.wrapper_of = wrapper_of;
        self
    }

    /// Elmore wire flight with a finiteness guard (and the `timing.elmore`
    /// chaos site). A non-finite delay — injected or a genuine model
    /// blow-up — must not poison downstream comparisons with NaN: it
    /// degrades to an infinite penalty, which conservatively rejects the
    /// reuse under test, and the degradation is recorded.
    fn elmore(&self, dist: Distance, load: Capacitance) -> Time {
        let raw = self.library.wire().elmore_delay(dist, load).0;
        let v = prebond3d_resilience::chaos::perturb("timing.elmore", raw);
        if v.is_finite() {
            Time(v)
        } else {
            prebond3d_resilience::degrade::record(
                "timing",
                "infinite_penalty",
                format!(
                    "non-finite Elmore delay at distance {:.1} µm treated as +inf",
                    dist.0
                ),
            );
            Time(f64::INFINITY)
        }
    }

    /// Baseline slack available at an inbound TSV's test-path launch: the
    /// dedicated wrapper cell's Q slack when known, else the raw TSV arc.
    pub fn inbound_anchor_slack(&self, tsv: GateId) -> Time {
        match self.wrapper_of.get(&tsv) {
            Some(&w) => self.report.slack(w),
            None => self.report.slack(tsv),
        }
    }

    /// Baseline slack of an outbound TSV's tap driver — its required time
    /// already reflects the dedicated wrapper's capture setup.
    pub fn outbound_tap_slack(&self, tsv: GateId) -> Time {
        let driver = self.netlist.gate(tsv).inputs[0];
        self.report.slack(driver)
    }

    /// Exact insertion delay of the Fig. 3b capture hardware on a reused
    /// flip-flop's functional D path: observation XOR driving the capture
    /// mux, driving the flip-flop's D pin — intrinsic plus load-dependent
    /// terms, as the signoff STA will compute them.
    pub fn capture_insertion_delay(&self) -> Time {
        let xor = self.library.timing(GateKind::Xor);
        let mux = self.library.timing(GateKind::Mux2);
        let ff_pin = self.library.timing(GateKind::ScanDff).input_cap;
        xor.intrinsic
            + xor.drive_resistance * mux.input_cap
            + mux.intrinsic
            + mux.drive_resistance * ff_pin
    }

    /// Extra drive delay the flip-flop's functional D *driver* pays after
    /// capture-hardware insertion: it now feeds the observation XOR and
    /// the capture mux instead of the flip-flop pin directly.
    pub fn capture_driver_penalty(&self, d_driver: GateId) -> Time {
        let xor = self.library.timing(GateKind::Xor);
        let mux = self.library.timing(GateKind::Mux2);
        let ff_pin = self.library.timing(GateKind::ScanDff).input_cap;
        let rd = self
            .library
            .timing(self.netlist.gate(d_driver).kind)
            .drive_resistance;
        let delta = xor.input_cap + mux.input_cap - ff_pin;
        Time((rd * delta).0.max(0.0))
    }

    /// Exact per-stage delay of one observation-chain XOR: intrinsic plus
    /// drive into the next stage's pin, plus the (accurate model) wire
    /// flight of the tap.
    pub fn chain_stage_delay(&self, dist: Distance) -> Time {
        let xor = self.library.timing(GateKind::Xor);
        let stage = xor.intrinsic + xor.drive_resistance * xor.input_cap;
        if self.include_wire {
            stage + self.elmore(dist, xor.input_cap)
        } else {
            stage
        }
    }

    /// The analyzed netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The library in use.
    pub fn library(&self) -> &Library {
        self.library
    }

    /// The STA report.
    pub fn report(&self) -> &TimingReport {
        self.report
    }

    /// Manhattan distance between two nodes (µm); zero under the
    /// capacitance-only model, which is blind to geometry.
    pub fn distance(&self, a: GateId, b: GateId) -> Distance {
        self.placement.distance(a, b)
    }

    /// Algorithm 1 line 6: an inbound TSV is a node only if the load its
    /// wrapper must take over stays below `cap_th`.
    pub fn inbound_eligible(&self, tsv: GateId, th: &Thresholds) -> bool {
        self.fanout_report.load(tsv) < th.cap_th
    }

    /// Algorithm 1 line 11: an outbound TSV is a node only if its slack
    /// exceeds `s_th` (there must be headroom for the observation tap).
    pub fn outbound_eligible(&self, tsv: GateId, th: &Thresholds) -> bool {
        self.outbound_tap_slack(tsv) > th.s_th
    }

    /// Load a shared wrapper cell's Q net takes on per wrapped inbound
    /// TSV at `dist`: the test mux's pin capacitance plus — in the
    /// accurate model — the (buffered) wire to it, exactly as the signoff
    /// STA will charge it. Agrawal's model sees the pin only; the unseen
    /// wire capacitance is one of the two mechanisms behind his Table III
    /// violations.
    pub fn drive_contribution(&self, dist: Distance) -> Capacitance {
        let pin = self.library.reuse().mux_input_cap;
        if self.include_wire {
            pin + self.library.wire().driver_load(dist)
        } else {
            pin
        }
    }

    /// Is reusing scan flip-flop `ff` for `tsv` timing-safe under the
    /// thresholds?
    ///
    /// All delay terms are priced *differentially* against the dedicated
    /// baseline: inbound reuse swaps the local wrapper's launch for the
    /// flip-flop's heavier, wire-delayed launch; outbound reuse swaps the
    /// adjacent capture for a wire + XOR + mux path into the flip-flop.
    pub fn reuse_is_safe(&self, ff: GateId, tsv: GateId, kind: ReuseKind, th: &Thresholds) -> bool {
        let dist = self.distance(ff, tsv);
        if self.include_wire && dist >= th.d_th {
            return false;
        }
        let reuse = self.library.reuse();
        let wire = self.library.wire();
        let eff_dist = if self.include_wire {
            dist
        } else {
            Distance(0.0)
        };
        match kind {
            ReuseKind::Inbound => {
                let extra = reuse.mux_input_cap + wire.driver_load(eff_dist);
                let new_load = self.report.load(ff) + extra;
                if new_load > th.cap_th {
                    return false;
                }
                let rd = self
                    .library
                    .timing(self.netlist.gate(ff).kind)
                    .drive_resistance;
                let rd_w = self.library.timing(GateKind::Wrapper).drive_resistance;
                // The flip-flop's own fanout paths slow by the extra drive.
                let drive_penalty = rd * extra;
                if self.report.slack(ff) - drive_penalty < th.s_th {
                    return false;
                }
                // Test-path launch: FF drive into its whole load plus the
                // wire flight, versus the wrapper's drive into one mux pin.
                let launch_penalty = (rd * new_load - rd_w * reuse.mux_input_cap
                    + self.elmore(eff_dist, reuse.mux_input_cap))
                .max(Time(0.0));
                self.inbound_anchor_slack(tsv) - launch_penalty >= th.s_th
            }
            ReuseKind::Outbound => {
                let driver = self.netlist.gate(tsv).inputs[0];
                let extra = reuse.xor_input_cap + wire.driver_load(eff_dist);
                let rd = self
                    .library
                    .timing(self.netlist.gate(driver).kind)
                    .drive_resistance;
                let drive_penalty = rd * extra;
                // Capture path into the reused flip-flop: wire flight +
                // XOR + mux replace the dedicated wrapper's adjacent
                // capture (exact cell delays, as signoff will see them).
                let insertion = self.capture_insertion_delay();
                let series = insertion + self.elmore(eff_dist, reuse.xor_input_cap);
                // The flip-flop's functional D path gains the same
                // hardware, plus its driver's extra pin loads.
                let d_driver = self.netlist.gate(ff).inputs[0];
                let ff_penalty = insertion + self.capture_driver_penalty(d_driver);
                self.outbound_tap_slack(tsv) - drive_penalty - series >= th.s_th
                    && self.report.slack(d_driver) - ff_penalty >= th.s_th
            }
        }
    }

    /// Can two TSVs of the same direction share one wrapper cell? The
    /// shared cell sits at one TSV; the other pays the inter-TSV wire.
    pub fn tsv_pair_is_safe(
        &self,
        t1: GateId,
        t2: GateId,
        kind: ReuseKind,
        th: &Thresholds,
    ) -> bool {
        let dist = self.distance(t1, t2);
        if self.include_wire && dist >= th.d_th {
            return false;
        }
        match kind {
            ReuseKind::Inbound => {
                // One shared cell drives both test-mux pins plus (accurate
                // model) the wire between the anchors; its mission launch
                // also drifts by the wire flight, priced against both
                // TSVs' baseline test-path slack.
                let cap_ok = self.drive_contribution(dist) + self.drive_contribution(Distance(0.0))
                    <= th.cap_th;
                if !self.include_wire {
                    return cap_ok;
                }
                let reuse = self.library.reuse();
                let flight = self.elmore(dist, reuse.mux_input_cap);
                cap_ok
                    && self.inbound_anchor_slack(t1) - flight >= th.s_th
                    && self.inbound_anchor_slack(t2) - flight >= th.s_th
            }
            ReuseKind::Outbound => {
                // Both taps chain into one capture cell: each path must
                // absorb an XOR (+ wire for the distant one).
                let reuse = self.library.reuse();
                let wire_d = if self.include_wire {
                    self.elmore(dist, reuse.xor_input_cap)
                } else {
                    Time(0.0)
                };
                // Both taps chain into one capture cell; their baseline
                // (tap-driver) slacks already include the dedicated
                // wrapper's capture setup, so only the extra XOR + wire
                // is new.
                let penalty = reuse.xor_delay + wire_d;
                self.outbound_tap_slack(t1) - penalty >= th.s_th
                    && self.outbound_tap_slack(t2) - penalty >= th.s_th
            }
        }
    }

    /// Remaining drive headroom of a scan flip-flop: `cap_th` minus its
    /// present load.
    pub fn ff_headroom(&self, ff: GateId, th: &Thresholds) -> Capacitance {
        th.cap_th - self.report.load(ff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};
    use prebond3d_sta::{analyze, StaConfig};

    struct Rig {
        die: Netlist,
        placement: Placement,
        library: Library,
        report: TimingReport,
    }

    fn rig() -> Rig {
        let spec = itc99::DieSpec {
            name: "die".into(),
            scan_flip_flops: 20,
            gates: 300,
            inbound_tsvs: 12,
            outbound_tsvs: 12,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 5,
        };
        let die = itc99::generate_die(&spec);
        let placement = place(&die, &PlaceConfig::default(), 1);
        let library = Library::nangate45_like();
        let report = analyze(
            &die,
            &placement,
            &library,
            &StaConfig::with_period(Time(2000.0)),
        );
        Rig {
            die,
            placement,
            library,
            report,
        }
    }

    #[test]
    fn wire_model_is_distance_sensitive() {
        let r = rig();
        let accurate =
            TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let blind = TimingModel::new(
            &r.die,
            &r.placement,
            &r.library,
            &r.report,
            &r.report,
            false,
        );
        let far = Distance(500.0);
        // The accurate model charges the wire; Agrawal's cannot see it.
        assert!(accurate.drive_contribution(far) > blind.drive_contribution(far));
        assert_eq!(
            blind.drive_contribution(far),
            blind.drive_contribution(Distance(0.0))
        );
    }

    #[test]
    fn distance_threshold_gates_reuse() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let th_tight = Thresholds {
            d_th: Distance(0.0),
            ..Thresholds::area_optimized(&r.library)
        };
        let ff = r.die.flip_flops()[0];
        let tsv = r.die.inbound_tsvs()[0];
        assert!(!model.reuse_is_safe(ff, tsv, ReuseKind::Inbound, &th_tight));
        let th_loose = Thresholds::area_optimized(&r.library);
        // With no slack floor and a huge d_th the only barrier is cap.
        let safe = model.reuse_is_safe(ff, tsv, ReuseKind::Inbound, &th_loose);
        let _ = safe; // value depends on the instance; the call must not panic
    }

    #[test]
    fn eligibility_follows_report() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let th = Thresholds::area_optimized(&r.library);
        for t in r.die.inbound_tsvs() {
            assert_eq!(model.inbound_eligible(t, &th), r.report.load(t) < th.cap_th);
        }
        for t in r.die.outbound_tsvs() {
            assert_eq!(model.outbound_eligible(t, &th), r.report.slack(t) > th.s_th);
        }
    }

    #[test]
    fn headroom_shrinks_with_load() {
        let r = rig();
        let model = TimingModel::new(&r.die, &r.placement, &r.library, &r.report, &r.report, true);
        let th = Thresholds::area_optimized(&r.library);
        for ff in r.die.flip_flops() {
            let h = model.ff_headroom(ff, &th);
            assert!((h + r.report.load(ff) - th.cap_th).0.abs() < 1e-9);
        }
    }
}
