//! # prebond3d-sta
//!
//! Static timing analysis over placed gate-level netlists — the PrimeTime
//! substitute of the `prebond3d` flow.
//!
//! The engine computes, in one topological pass each way:
//!
//! * **capacitive load** per net (pin caps + distance-based wire cap),
//! * **arrival times** (linear cell delay + Elmore wire delay),
//! * **required times** (clock period, flip-flop setup, output margins),
//! * **slack**, worst negative slack (WNS), total negative slack (TNS) and
//!   the critical path.
//!
//! Two consumers in the paper's flow:
//!
//! 1. Algorithm 1 reads `slack(n)` for outbound TSVs and
//!    `capacity_load(n)` for inbound TSVs when deciding node eligibility;
//!    `prebond3d_wcm::TimingModel` prices each candidate scan-flip-flop
//!    reuse (extra mux/XOR load + wire) against this report without a
//!    full re-analysis.
//! 2. Table III's "timing violation" column is a full re-analysis of the
//!    DFT-modified netlist ([`analyze`] + [`TimingReport::has_violation`]).
//!
//! # Example
//!
//! ```
//! use prebond3d_netlist::itc99;
//! use prebond3d_place::{place, PlaceConfig};
//! use prebond3d_celllib::Library;
//! use prebond3d_sta::{analyze, StaConfig};
//!
//! let die = itc99::generate_flat("d", 200, 16, 6, 6, 5);
//! let placement = place(&die, &PlaceConfig::default(), 1);
//! let lib = Library::nangate45_like();
//! let report = analyze(&die, &placement, &lib, &StaConfig::relaxed());
//! assert!(!report.has_violation());
//! ```

pub mod analysis;
pub mod report;

use prebond3d_celllib::Time;

pub use analysis::{analyze, analyze_with_statics, TimingReport};
pub use report::critical_path_text;

/// Analysis configuration: the timing constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaConfig {
    /// Clock period the die must meet.
    pub clock_period: Time,
    /// External arrival time at primary inputs and (post-bond) inbound
    /// TSVs, relative to the clock edge.
    pub input_arrival: Time,
    /// Margin required before the capturing edge at primary outputs and
    /// outbound TSVs.
    pub output_margin: Time,
}

impl StaConfig {
    /// A generous 5 ns clock: nothing realistic violates. This is the
    /// paper's "no timing constraint" (area-optimized) scenario.
    pub fn relaxed() -> Self {
        StaConfig {
            clock_period: Time(5000.0),
            input_arrival: Time(0.0),
            output_margin: Time(0.0),
        }
    }

    /// A clock period of `period` picoseconds with zero I/O margins.
    pub fn with_period(period: Time) -> Self {
        StaConfig {
            clock_period: period,
            input_arrival: Time(0.0),
            output_margin: Time(0.0),
        }
    }
}

impl Default for StaConfig {
    fn default() -> Self {
        StaConfig::relaxed()
    }
}
