//! The cell library: per-kind timing plus TSV and scan-reuse overheads.

use prebond3d_netlist::GateKind;

use crate::cell::{Capacitance, CellTiming, Resistance, Time};
use crate::wire::WireModel;

/// Electrical parameters of a TSV endpoint.
///
/// TSVs are short, fat vertical wires: large capacitance (a few tens of fF
/// including the landing pad / micro-bump), negligible resistance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsvParams {
    /// Capacitance of the TSV + micro-bump seen by the driver.
    pub cap: Capacitance,
    /// Series resistance of the TSV barrel.
    pub res: Resistance,
}

impl TsvParams {
    /// Representative via-first 45 nm TSV: 35 fF, 50 mΩ.
    pub fn default_45nm() -> Self {
        TsvParams {
            cap: Capacitance(35.0),
            res: Resistance(0.00005),
        }
    }
}

/// Hardware overhead of reusing a scan flip-flop as a TSV wrapper cell
/// (Fig. 3 of the paper).
///
/// * Inbound reuse adds a 2:1 mux in front of the flip-flop's D pin
///   (Fig. 3a): one mux delay on the functional path and one mux input-cap
///   of extra load on the functional net.
/// * Outbound reuse adds an XOR tap plus mux (Fig. 3b): the TSV driver's
///   net gains the XOR input capacitance, and the flip-flop D path gains a
///   mux + XOR delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseOverhead {
    /// Delay added in series with the reused flip-flop's D input.
    pub mux_delay: Time,
    /// Extra capacitive load the mux presents to the functional driver.
    pub mux_input_cap: Capacitance,
    /// Delay of the observation XOR for outbound reuse.
    pub xor_delay: Time,
    /// Extra load the XOR tap presents to the outbound TSV's driving net.
    pub xor_input_cap: Capacitance,
}

impl ReuseOverhead {
    /// Values consistent with [`Library::nangate45_like`].
    pub fn default_45nm() -> Self {
        ReuseOverhead {
            mux_delay: Time(32.0),
            mux_input_cap: Capacitance(1.8),
            xor_delay: Time(30.0),
            xor_input_cap: Capacitance(2.1),
        }
    }
}

/// A complete synthetic standard-cell library.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    name: String,
    cells: Vec<CellTiming>, // indexed by GateKind discriminant order
    wire: WireModel,
    tsv: TsvParams,
    reuse: ReuseOverhead,
    /// Flip-flop clock-to-Q delay.
    pub clk_to_q: Time,
    /// Flip-flop setup time.
    pub setup: Time,
}

/// `GateKind::ALL` lists the kinds in declaration order, so the enum
/// discriminant *is* the slot — O(1) where a `position` scan over ALL
/// would put an 18-element linear search inside every STA arrival/required
/// update and every what-if query. `kind_order_matches_discriminants`
/// below pins the invariant.
#[inline]
fn kind_slot(kind: GateKind) -> usize {
    kind as usize
}

impl Library {
    /// A self-consistent 45 nm-class library (NanGate-like magnitudes).
    pub fn nangate45_like() -> Self {
        // Chaos site: stands in for a corrupt Liberty file on load.
        prebond3d_resilience::chaos::maybe_panic("liberty.load");
        let mut cells = vec![
            CellTiming {
                intrinsic: Time(0.0),
                drive_resistance: Resistance(0.0),
                input_cap: Capacitance(0.0),
                max_load: Capacitance(f64::INFINITY),
            };
            GateKind::ALL.len()
        ];
        let mut set = |kind: GateKind, intr: f64, rd: f64, cin: f64, cmax: f64| {
            cells[kind_slot(kind)] = CellTiming {
                intrinsic: Time(intr),
                drive_resistance: Resistance(rd),
                input_cap: Capacitance(cin),
                max_load: Capacitance(cmax),
            };
        };
        // kind, intrinsic ps, drive kΩ, input cap fF, max load fF
        set(GateKind::Input, 0.0, 0.4, 0.0, 120.0); // pad driver
        set(GateKind::Output, 0.0, 0.0, 1.5, f64::INFINITY);
        set(GateKind::Const0, 0.0, 0.2, 0.0, 200.0);
        set(GateKind::Const1, 0.0, 0.2, 0.0, 200.0);
        set(GateKind::Buf, 18.0, 0.9, 1.2, 70.0);
        set(GateKind::Not, 10.0, 1.0, 1.4, 60.0);
        set(GateKind::And, 26.0, 1.1, 1.6, 60.0);
        set(GateKind::Or, 28.0, 1.2, 1.6, 60.0);
        set(GateKind::Nand, 14.0, 1.3, 1.7, 60.0);
        set(GateKind::Nor, 16.0, 1.5, 1.7, 60.0);
        set(GateKind::Xor, 34.0, 1.4, 2.1, 55.0);
        set(GateKind::Xnor, 36.0, 1.4, 2.1, 55.0);
        set(GateKind::Mux2, 32.0, 1.3, 1.8, 55.0);
        set(GateKind::Dff, 84.0, 1.1, 1.9, 65.0); // clk→Q handled separately
        set(GateKind::ScanDff, 90.0, 1.1, 2.0, 65.0);
        set(GateKind::TsvIn, 0.0, 0.3, 0.0, 150.0); // bonded driver proxy
        set(GateKind::TsvOut, 0.0, 0.0, 35.0, f64::INFINITY); // the TSV load
        set(GateKind::Wrapper, 90.0, 1.1, 2.0, 65.0); // a gated scan cell

        Library {
            name: "synthetic45".to_string(),
            cells,
            wire: WireModel::m45(),
            tsv: TsvParams::default_45nm(),
            reuse: ReuseOverhead::default_45nm(),
            clk_to_q: Time(84.0),
            setup: Time(48.0),
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Timing parameters for `kind`.
    pub fn timing(&self, kind: GateKind) -> &CellTiming {
        &self.cells[kind_slot(kind)]
    }

    /// The interconnect model.
    pub fn wire(&self) -> &WireModel {
        &self.wire
    }

    /// TSV electrical parameters.
    pub fn tsv(&self) -> &TsvParams {
        &self.tsv
    }

    /// Scan-reuse overhead figures (Fig. 3 hardware).
    pub fn reuse(&self) -> &ReuseOverhead {
        &self.reuse
    }

    /// Default capacitance threshold for the paper's `cap_th`: the scan
    /// flip-flop's max output load (the shared wrapper cell must still
    /// drive everything attached to it).
    pub fn default_cap_th(&self) -> Capacitance {
        self.timing(GateKind::ScanDff).max_load
    }
}

impl Default for Library {
    fn default() -> Self {
        Library::nangate45_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Distance;

    #[test]
    fn kind_order_matches_discriminants() {
        // `kind_slot` relies on `ALL` being in declaration order.
        for (i, &kind) in GateKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind} out of discriminant order");
        }
    }

    #[test]
    fn every_kind_has_parameters() {
        let lib = Library::nangate45_like();
        for kind in GateKind::ALL {
            let t = lib.timing(kind);
            assert!(t.input_cap.0 >= 0.0, "{kind} input cap");
            assert!(t.intrinsic.0 >= 0.0, "{kind} intrinsic");
        }
    }

    #[test]
    fn logic_cells_are_slower_than_inverter() {
        let lib = Library::nangate45_like();
        let inv = lib.timing(GateKind::Not).intrinsic;
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Mux2] {
            assert!(lib.timing(kind).intrinsic > inv, "{kind}");
        }
    }

    #[test]
    fn tsv_load_dominates_gate_caps() {
        let lib = Library::nangate45_like();
        assert!(lib.tsv().cap.0 > 10.0 * lib.timing(GateKind::Nand).input_cap.0);
        assert_eq!(lib.timing(GateKind::TsvOut).input_cap, lib.tsv().cap);
    }

    #[test]
    fn default_cap_th_is_scan_ff_max_load() {
        let lib = Library::nangate45_like();
        assert_eq!(lib.default_cap_th(), lib.timing(GateKind::ScanDff).max_load);
        assert_eq!(Library::default(), lib);
        assert_eq!(lib.name(), "synthetic45");
    }

    /// Reuse decisions price distance through the wire model, so wire
    /// delay and driver load must never fall as a wire gets longer. The
    /// probe distances straddle the 120 µm buffer interval so the load
    /// plateau is covered.
    #[test]
    fn wire_delay_and_load_are_monotone_in_distance() {
        let wire = *Library::nangate45_like().wire();
        let load = Capacitance(5.0);
        let probe_um = [
            0.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 120.0, 150.0, 200.0, 400.0, 800.0, 1600.0,
        ];
        for pair in probe_um.windows(2) {
            let (near, far) = (Distance(pair[0]), Distance(pair[1]));
            let (d0, d1) = (wire.elmore_delay(near, load), wire.elmore_delay(far, load));
            assert!(d1.0 >= d0.0, "delay {d0} at {near} but {d1} at {far}");
            let (l0, l1) = (wire.driver_load(near), wire.driver_load(far));
            assert!(l1.0 >= l0.0, "driver load {l0} at {near} but {l1} at {far}");
        }
    }
}
