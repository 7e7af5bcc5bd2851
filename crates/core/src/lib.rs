//! # prebond3d-wcm
//!
//! Timing-aware wrapper-cell minimization for pre-bond testing of 3D-ICs —
//! the core contribution of the reproduced SOCC 2019 paper.
//!
//! Pre-bond, a die's TSVs float: inbound TSVs cannot be controlled,
//! outbound TSVs cannot be observed, and the die's fault coverage drops.
//! Wrapper cells repair this but cost area. This crate minimizes the
//! number of *additional* wrapper cells by reusing existing scan
//! flip-flops, formulated as minimal clique partitioning (after Agrawal et
//! al., TCAD 2015) and enhanced with the paper's three ideas:
//!
//! 1. **TSV-set ordering** ([`ordering`]) — process the larger of the
//!    inbound/outbound sets first so it gets first claim on scan
//!    flip-flops (the paper's Table I motivation);
//! 2. **an accurate timing model** ([`timing_model`]) — capacitance *and*
//!    Elmore wire delay from the placement, with a distance threshold
//!    `d_th`, so no reuse decision ever creates a timing violation
//!    (Table III);
//! 3. **overlapped-cone sharing under testability constraints**
//!    ([`testability`], [`graph`]) — a scan flip-flop may wrap a TSV whose
//!    fan-in/fan-out cones overlap its own if the estimated fault-coverage
//!    loss stays below `cov_th` and the pattern-count increase below
//!    `p_th` (Tables IV/V, Fig. 7).
//!
//! The full flow ([`flow::run_flow`]) mirrors the paper's Fig. 6 and the
//! prior-art baselines live in [`baseline`].
//!
//! # Example
//!
//! ```
//! use prebond3d_netlist::itc99;
//! use prebond3d_place::{place, PlaceConfig};
//! use prebond3d_celllib::Library;
//! use prebond3d_wcm::flow::{run_flow, FlowConfig, Method};
//!
//! let spec = itc99::circuit("b11").expect("known circuit");
//! let die = itc99::generate_die(&spec.dies[0]);
//! let placement = place(&die, &PlaceConfig::default(), 1);
//! let lib = Library::nangate45_like();
//! let config = FlowConfig::area_optimized(Method::Ours);
//! let result = run_flow(&die, &placement, &lib, &config).expect("flow runs");
//! assert!(result.plan.reused_scan_ffs() + result.plan.additional_wrapper_cells() > 0);
//! ```

pub mod baseline;
pub mod clique;
pub mod exact;
pub mod flow;
pub mod graph;
pub mod ordering;
pub mod report;
pub mod testability;
pub mod thresholds;
pub mod timing_model;

pub use clique::{CliquePartition, MergePolicy};
pub use flow::{run_flow, FlowConfig, FlowError, FlowResult, Method};
pub use graph::{NodeKind, SharingGraph};
pub use ordering::OrderingPolicy;
pub use testability::{StructuralProbe, TestabilityCost, TestabilityProbe};
pub use thresholds::Thresholds;
pub use timing_model::{ReuseKind, TimingModel};
