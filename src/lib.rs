//! # prebond3d
//!
//! Timing-aware wrapper-cell reduction for pre-bond testing of 3D-ICs —
//! a full reproduction of the SOCC 2019 paper by Ho, Chen, Wu and Hwang,
//! including every substrate it depends on.
//!
//! This meta-crate re-exports the workspace members:
//!
//! * [`netlist`] — gate-level IR + synthetic ITC'99 benchmark generation,
//! * [`celllib`] — a synthetic 45 nm standard-cell library,
//! * [`place`] — per-die placement (distances for the timing model),
//! * [`sta`] — static timing analysis (the PrimeTime substitute),
//! * [`atpg`] — test generation and fault simulation (the commercial-ATPG
//!   substitute),
//! * [`dataflow`] — fixpoint static analysis (ternary constant/X
//!   propagation, SCOAP testability, untestable-boundary checks),
//! * [`dft`] — wrapper-cell hardware and testable-netlist generation,
//! * [`wcm`] — the paper's contribution: timing-aware wrapper-cell
//!   minimization via clique partitioning, plus all prior-art baselines.
//!
//! # Quickstart
//!
//! ```
//! use prebond3d::netlist::itc99;
//! use prebond3d::place::{place, PlaceConfig};
//! use prebond3d::celllib::Library;
//! use prebond3d::wcm::flow::{run_flow, FlowConfig, Method};
//!
//! // One die of the b11 benchmark, per the paper's Table II.
//! let spec = itc99::circuit("b11").expect("known benchmark");
//! let die = itc99::generate_die(&spec.dies[0]);
//! let placement = place(&die, &PlaceConfig::default(), 1);
//! let library = Library::nangate45_like();
//!
//! // Run the paper's method in the area-optimized scenario.
//! let result = run_flow(&die, &placement, &library,
//!                       &FlowConfig::area_optimized(Method::Ours))
//!     .expect("flow succeeds");
//! println!("reused {} scan FFs, inserted {} wrapper cells",
//!          result.reused_scan_ffs, result.additional_wrapper_cells);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

pub use prebond3d_atpg as atpg;
pub use prebond3d_celllib as celllib;
pub use prebond3d_dataflow as dataflow;
pub use prebond3d_dft as dft;
pub use prebond3d_netlist as netlist;
pub use prebond3d_place as place;
pub use prebond3d_sta as sta;
pub use prebond3d_wcm as wcm;
