//! # prebond3d-atpg
//!
//! Automatic test pattern generation and fault simulation — the commercial
//! ATPG substitute of the `prebond3d` flow.
//!
//! The engine is a classical full-scan combinational ATPG stack:
//!
//! * [`access`] — the *test access model*: which nodes a pre-bond tester
//!   can control and observe (scan flip-flops and wrapper cells yes,
//!   floating TSV endpoints no),
//! * [`fault`] — single stuck-at faults on gate outputs and fanout
//!   branches, with structural equivalence collapsing,
//! * [`sim`] — bit-parallel three-valued good-machine simulation over the
//!   dual-rail encoding, checked against the scalar
//!   [`prebond3d_netlist::eval_v3`] truth table,
//! * [`faultsim`] — parallel-pattern single-fault propagation (PPSFP)
//!   restricted to each fault's fanout cone,
//! * [`podem`] — PODEM deterministic test generation with X-path checking
//!   and backtrack limits, guided by the `prebond3d-dataflow` SCOAP
//!   measures read through [`TestAccess::view`],
//! * [`prune`] — static untestable-fault pruning from the
//!   `prebond3d-dataflow` certificates (skips cone resimulations while
//!   keeping every result byte-identical to the unpruned reference),
//! * [`transition`] — transition-fault (slow-to-rise/fall) testing with
//!   two-pattern tests built on the stuck-at engine,
//! * [`engine`] — the orchestrator: random-pattern phase, deterministic
//!   top-up, reverse-order compaction, coverage accounting.
//!
//! Pre-bond semantics fall out of the access model: an unwrapped inbound
//! TSV is a permanent-X source and an unwrapped outbound TSV an
//! unobservable sink, so faults whose tests require them become
//! undetectable and coverage drops — exactly the effect wrapper-cell
//! insertion exists to repair.
//!
//! # Example
//!
//! ```
//! use prebond3d_netlist::itc99;
//! use prebond3d_atpg::{engine, TestAccess, AtpgConfig};
//!
//! let die = itc99::generate_flat("d", 150, 12, 6, 6, 3);
//! let access = TestAccess::full_scan(&die);
//! let result = engine::run_stuck_at(&die, &access, &AtpgConfig::fast());
//! assert!(result.coverage() > 0.5);
//! ```

pub mod access;
pub mod engine;
pub mod fault;
pub mod faultsim;
pub mod podem;
pub mod prune;
mod rank_queue;
pub mod sim;
pub mod transition;

pub use access::TestAccess;
pub use engine::{AtpgConfig, AtpgResult};
pub use fault::{Fault, FaultList, FaultSite, StuckAt};
pub use prebond3d_netlist::V3;
pub use sim::{Lanes, Pattern, SimError};
