//! # prebond3d-celllib
//!
//! A synthetic 45 nm-class standard-cell library: electrical parameters for
//! every [`prebond3d_netlist::GateKind`], a lumped-RC wire model, and
//! TSV/scan-reuse overhead figures.
//!
//! The paper's flow consumed a commercial 45 nm library through Design
//! Compiler/PrimeTime; this crate substitutes self-consistent parameters in
//! the same ballpark as the open NanGate 45 nm PDK. Only *relative* timing
//! matters to the wrapper-cell-minimization algorithm (its thresholds
//! `cap_th`, `s_th`, `d_th` are expressed against these same numbers), so a
//! self-consistent library preserves the algorithmic behaviour.
//!
//! Units across the whole workspace: **picoseconds** for time,
//! **femtofarads** for capacitance, **kΩ** for resistance and
//! **micrometres** for distance. `1 kΩ × 1 fF = 1 ps`, so delay arithmetic
//! needs no conversion factors.
//!
//! # Example
//!
//! ```
//! use prebond3d_celllib::{Capacitance, Library};
//! use prebond3d_netlist::GateKind;
//!
//! let lib = Library::nangate45_like();
//! let nand = lib.timing(GateKind::Nand);
//! // Gate delay at a 10 fF load:
//! let d = nand.delay(Capacitance(10.0));
//! assert!(d.0 > 0.0);
//! ```

pub mod cell;
pub mod library;
pub mod wire;

pub use cell::{Capacitance, CellTiming, Distance, Resistance, Time};
pub use library::{Library, ReuseOverhead, TsvParams};
pub use wire::WireModel;
