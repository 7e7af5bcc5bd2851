//! # prebond3d-dataflow
//!
//! Zero-dependency dataflow analyses over the netlist DAG, the three the
//! flow consumes (DESIGN.md §14):
//!
//! 1. **Ternary constant propagation** ([`constprop`]) on the value-set
//!    lattice `℘({0,1,X})`, one pass in the netlist's combinational order
//!    ([`Netlist::order`](prebond3d_netlist::Netlist::order)): flags
//!    provably-constant nets, dead gates, and — combined with [`reach`] —
//!    provably-untestable stuck-at faults.
//! 2. **X-propagation** (the same pass: a net whose value set is `{X}`,
//!    [`ValueSet::is_x_only`]): cones dominated by unscanned state
//!    elements and floating TSVs that pre-bond test cannot control.
//! 3. **SCOAP scoring** ([`scoring`]): controllability and observability
//!    costs per net in one levelized pass each way — the measures PODEM's
//!    backtrace and the ATPG untestability pre-screen read.
//!
//! [`boundary::check`] composes the analyses into the wrapper-boundary
//! admission gate used by `prebond3d-serve`.
//!
//! ## Determinism
//!
//! Every analysis is a serial pass in the netlist's deterministic
//! combinational order, so every fact vector is **byte-identical at any
//! `PREBOND3D_THREADS`**. Downstream consumers (ATPG pruning, the serve
//! gate) inherit that contract.

pub mod boundary;
pub mod constprop;
pub mod lattice;
pub mod reach;
pub mod scoring;

pub use boundary::BoundaryIssue;
pub use constprop::{Constants, SourceModel};
pub use lattice::{eval_set, ValueSet};
pub use scoring::{AccessView, Scores};
