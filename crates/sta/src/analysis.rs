//! Arrival/required/slack propagation.

use prebond3d_celllib::{Capacitance, Library, Time};
use prebond3d_netlist::{GateId, GateKind, Netlist};
use prebond3d_obs as obs;
use prebond3d_place::Placement;

use crate::StaConfig;

/// The result of a full timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    arrival: Vec<Time>,
    required: Vec<Time>,
    load: Vec<Capacitance>,
    /// Worst (minimum) slack across all constrained endpoints.
    pub wns: Time,
    /// Sum of negative endpoint slacks (0 when timing is met).
    pub tns: Time,
    /// The endpoint with the worst slack.
    pub worst_endpoint: Option<GateId>,
    clock_period: Time,
}

impl TimingReport {
    /// Arrival time at the output of `id`.
    pub fn arrival(&self, id: GateId) -> Time {
        self.arrival[id.index()]
    }

    /// Required time at the output of `id`.
    pub fn required(&self, id: GateId) -> Time {
        self.required[id.index()]
    }

    /// Slack at the output of `id` (`required − arrival`).
    pub fn slack(&self, id: GateId) -> Time {
        self.required[id.index()] - self.arrival[id.index()]
    }

    /// Capacitive load driven by the output of `id` (pin + wire caps).
    pub fn load(&self, id: GateId) -> Capacitance {
        self.load[id.index()]
    }

    /// The analyzed clock period.
    pub fn clock_period(&self) -> Time {
        self.clock_period
    }

    /// `true` when any constrained endpoint misses timing.
    pub fn has_violation(&self) -> bool {
        self.wns.0 < 0.0
    }

    /// Number of analyzed gates.
    pub fn len(&self) -> usize {
        self.arrival.len()
    }

    /// `true` for an empty analysis.
    pub fn is_empty(&self) -> bool {
        self.arrival.is_empty()
    }
}

/// Launch time of a source node.
fn launch_time(kind: GateKind, library: &Library, config: &StaConfig) -> Time {
    match kind {
        GateKind::Dff | GateKind::ScanDff | GateKind::Wrapper => library.clk_to_q,
        GateKind::Input | GateKind::TsvIn => config.input_arrival,
        _ => Time(0.0),
    }
}

/// Required time at a sink node's *input*.
fn sink_required(kind: GateKind, library: &Library, config: &StaConfig) -> Option<Time> {
    match kind {
        GateKind::Dff | GateKind::ScanDff | GateKind::Wrapper => {
            Some(config.clock_period - library.setup)
        }
        GateKind::Output | GateKind::TsvOut => Some(config.clock_period - config.output_margin),
        _ => None,
    }
}

/// Full static timing analysis of `netlist` at `config`'s constraints.
///
/// Delay model per combinational arc `driver → gate`:
///
/// `arc = wire_elmore(distance, pin_cap) + cell_delay(gate, load(gate))`
///
/// where `load(gate)` is the sum of `gate`'s fanout pin caps plus the wire
/// cap of each fanout segment (star topology from the placement).
pub fn analyze(
    netlist: &Netlist,
    placement: &Placement,
    library: &Library,
    config: &StaConfig,
) -> TimingReport {
    analyze_with_statics(netlist, placement, library, config, &[])
}

/// [`analyze`] with *case analysis*: nodes in `statics` are declared
/// static (e.g. a `test_en` control held constant in each mode), so the
/// timing arcs they launch never constrain a path — exactly PrimeTime's
/// `set_case_analysis` behaviour on DFT control signals.
pub fn analyze_with_statics(
    netlist: &Netlist,
    placement: &Placement,
    library: &Library,
    config: &StaConfig,
    statics: &[GateId],
) -> TimingReport {
    let _span = obs::span("sta_analyze");
    let n = netlist.len();
    assert_eq!(placement.len(), n, "placement must cover the netlist");
    obs::count("sta.runs", 1);
    // Loads + forward + backward each touch every node once.
    obs::count("sta.nodes_visited", 3 * n as u64);
    let wire = library.wire();

    // --- Loads ----------------------------------------------------------
    // Pin caps are prefetched per node so the per-arc loop below (arcs
    // outnumber nodes) is a flat vector read instead of a gate + library
    // lookup per fanout edge.
    let pin_cap: Vec<Capacitance> = netlist
        .iter()
        .map(|(_, gate)| library.timing(gate.kind).input_cap)
        .collect();
    let mut load = vec![Capacitance::ZERO; n];
    for (id, _) in netlist.iter() {
        let mut total = Capacitance::ZERO;
        for &fo in netlist.fanout(id) {
            total += pin_cap[fo.index()];
            // Long segments are buffered by the implementation flow, so
            // the driver sees at most one buffer interval of wire cap.
            total += wire.driver_load(placement.distance(id, fo));
        }
        load[id.index()] = total;
    }

    let mut is_static = vec![false; n];
    for &id in statics {
        is_static[id.index()] = true;
    }

    // --- Arrival (forward) ----------------------------------------------
    let order = netlist.order();
    let mut arrival = vec![Time(0.0); n];
    for &id in order {
        let gate = netlist.gate(id);
        let cell = library.timing(gate.kind);
        if is_static[id.index()] {
            // Case-analysis constant: never the critical contributor.
            arrival[id.index()] = Time(f64::NEG_INFINITY);
            continue;
        }
        if gate.kind.is_source() {
            // Launch + the source's own drive delay into its load.
            arrival[id.index()] =
                launch_time(gate.kind, library, config) + cell.drive_resistance * load[id.index()];
            continue;
        }
        // Max over input arcs: driver arrival + wire to this pin.
        let mut at = Time(0.0);
        for &input in &gate.inputs {
            let wire_d = wire.elmore_delay(placement.distance(input, id), cell.input_cap);
            at = at.max(arrival[input.index()] + wire_d);
        }
        // Pure sinks (Output/TsvOut markers) add no cell delay beyond the
        // arc; logic gates add intrinsic + drive into their load.
        let cell_delay = match gate.kind {
            GateKind::Output | GateKind::TsvOut => Time(0.0),
            _ => cell.intrinsic + cell.drive_resistance * load[id.index()],
        };
        arrival[id.index()] = at + cell_delay;
    }

    // --- Required (backward) ---------------------------------------------
    // Sink constraints are seeded onto the sink pins' *drivers* first:
    // sequential sinks sit early in the topological order (their Q is a
    // source), so waiting for their reverse-order visit would propagate
    // the setup constraint only after the D-cone has already been
    // processed.
    let big = Time(f64::INFINITY);
    let mut required = vec![big; n];
    for (id, gate) in netlist.iter() {
        let Some(req) = sink_required(gate.kind, library, config) else {
            continue;
        };
        // Express the constraint at the sink node itself (for reporting)…
        required[id.index()] = required[id.index()].min(req);
        // …and at its driver, through the final wire arc.
        let cell = library.timing(gate.kind);
        let driver = gate.inputs[0];
        let wire_d = wire.elmore_delay(placement.distance(driver, id), cell.input_cap);
        let slot = &mut required[driver.index()];
        *slot = slot.min(req - wire_d);
    }
    for &id in order.iter().rev() {
        let gate = netlist.gate(id);
        // Sinks were fully handled by the seeding pass; sequential Q-side
        // required (accumulated from fanout) concerns the *next* cycle and
        // must not leak onto the D pin.
        if gate.kind.is_sequential() || matches!(gate.kind, GateKind::Output | GateKind::TsvOut) {
            continue;
        }
        let req_here = required[id.index()];
        if req_here == big {
            continue;
        }
        let cell = library.timing(gate.kind);
        let cell_delay = if gate.kind.is_source() {
            Time(0.0)
        } else {
            cell.intrinsic + cell.drive_resistance * load[id.index()]
        };
        for &input in &gate.inputs {
            let wire_d = wire.elmore_delay(placement.distance(input, id), cell.input_cap);
            let req_at_input = req_here - cell_delay - wire_d;
            let slot = &mut required[input.index()];
            *slot = slot.min(req_at_input);
        }
    }
    // Unconstrained nodes (no path to any endpoint) get relaxed required =
    // arrival so their slack reads as zero rather than infinite.
    for i in 0..n {
        if required[i] == big {
            required[i] = arrival[i];
        }
    }

    // --- Endpoint slacks ---------------------------------------------------
    // Setup checks are evaluated at the sink's *input pin*: arrival of the
    // driver plus the final wire arc, against the sink's required time.
    let mut wns = Time(f64::INFINITY);
    let mut tns = Time(0.0);
    let mut worst = None;
    let mut any_endpoint = false;
    for (id, gate) in netlist.iter() {
        let Some(req) = sink_required(gate.kind, library, config) else {
            continue;
        };
        any_endpoint = true;
        let cell = library.timing(gate.kind);
        let driver = gate.inputs[0];
        let arr_in = arrival[driver.index()]
            + wire.elmore_delay(placement.distance(driver, id), cell.input_cap);
        let s = req - arr_in;
        if s < wns {
            wns = s;
            worst = Some(id);
        }
        if s.0 < 0.0 {
            tns += s;
        }
    }
    if !any_endpoint {
        wns = Time(0.0);
    }

    TimingReport {
        arrival,
        required,
        load,
        wns,
        tns,
        worst_endpoint: worst,
        clock_period: config.clock_period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::{itc99, NetlistBuilder};
    use prebond3d_place::{place, PlaceConfig};

    fn setup(gates: usize) -> (Netlist, Placement, Library) {
        let die = itc99::generate_flat("d", gates, 16, 6, 6, 5);
        let placement = place(&die, &PlaceConfig::default(), 1);
        (die, placement, Library::nangate45_like())
    }

    #[test]
    fn relaxed_clock_always_meets() {
        let (die, placement, lib) = setup(300);
        let report = analyze(&die, &placement, &lib, &StaConfig::relaxed());
        assert!(!report.has_violation(), "wns = {}", report.wns);
        assert_eq!(report.tns, Time(0.0));
    }

    #[test]
    fn impossible_clock_violates() {
        let (die, placement, lib) = setup(300);
        let report = analyze(&die, &placement, &lib, &StaConfig::with_period(Time(50.0)));
        assert!(report.has_violation());
        assert!(report.tns.0 < 0.0);
        assert!(report.worst_endpoint.is_some());
    }

    #[test]
    fn deeper_logic_has_later_arrival() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate(prebond3d_netlist::GateKind::Not, &[a], "g1");
        let g2 = b.gate(prebond3d_netlist::GateKind::Not, &[g1], "g2");
        b.output(g2, "o");
        let n = b.finish().unwrap();
        let p = place(&n, &PlaceConfig::default(), 1);
        let lib = Library::nangate45_like();
        let r = analyze(&n, &p, &lib, &StaConfig::relaxed());
        let a_id = n.find("a").unwrap();
        let g1_id = n.find("g1").unwrap();
        let g2_id = n.find("g2").unwrap();
        assert!(r.arrival(g1_id) > r.arrival(a_id));
        assert!(r.arrival(g2_id) > r.arrival(g1_id));
    }

    #[test]
    fn worst_endpoint_slack_matches_wns() {
        let (die, placement, lib) = setup(200);
        let config = StaConfig::with_period(Time(800.0));
        let report = analyze(&die, &placement, &lib, &config);
        // Recompute the endpoint check by hand: required at the sink's
        // input versus the driver arrival plus the final wire arc.
        let ep = report.worst_endpoint.expect("endpoints exist");
        let gate = die.gate(ep);
        let driver = gate.inputs[0];
        let cell = lib.timing(gate.kind);
        let arr_in = report.arrival(driver)
            + lib
                .wire()
                .elmore_delay(placement.distance(driver, ep), cell.input_cap);
        let req = if gate.kind.is_sequential() {
            config.clock_period - lib.setup
        } else {
            config.clock_period
        };
        assert!(((req - arr_in) - report.wns).0.abs() < 1e-9);
    }

    #[test]
    fn loads_are_nonnegative_and_fanout_monotone() {
        let (die, placement, lib) = setup(200);
        let report = analyze(&die, &placement, &lib, &StaConfig::relaxed());
        for (id, _) in die.iter() {
            assert!(report.load(id).0 >= 0.0);
            if die.fanout(id).is_empty() {
                assert_eq!(report.load(id), Capacitance::ZERO);
            } else {
                assert!(report.load(id).0 > 0.0);
            }
        }
    }

    #[test]
    fn scan_ff_slack_reflects_period() {
        let (die, placement, lib) = setup(300);
        let tight = analyze(&die, &placement, &lib, &StaConfig::with_period(Time(700.0)));
        let loose = analyze(
            &die,
            &placement,
            &lib,
            &StaConfig::with_period(Time(1400.0)),
        );
        for ff in die.flip_flops() {
            let delta = loose.slack(ff) - tight.slack(ff);
            assert!((delta.0 - 700.0).abs() < 1e-6, "slack delta {delta}");
        }
    }
}
