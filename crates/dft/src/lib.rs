//! # prebond3d-dft
//!
//! Design-for-testability substrate: TSV wrapper-cell hardware (the
//! paper's Fig. 2 and Fig. 3) and testable-netlist generation from a
//! wrapper-assignment plan.
//!
//! The central artifact is the [`WrapPlan`]: for every wrapper cell (a
//! reused scan flip-flop per Fig. 3, or a dedicated cell per Fig. 2) it
//! lists the TSVs the cell serves. [`testable::apply`] materializes the
//! plan into a new netlist with real mux/XOR gates and a `test_en` control
//! input, so that:
//!
//! * the ATPG engine measures fault coverage on the *actual* test-mode
//!   hardware (shared wrapper aliasing and correlation effects included —
//!   the paper's Fig. 4 subtlety), and
//! * the STA engine measures the *actual* functional-path timing impact
//!   of every inserted mux/XOR and reuse wire (Table III's violation
//!   check).
//!
//! # Example
//!
//! ```
//! use prebond3d_netlist::itc99;
//! use prebond3d_dft::{WrapPlan, testable};
//!
//! let spec = itc99::circuit("b11").expect("known circuit");
//! let die = itc99::generate_die(&spec.dies[0]);
//! // Wrap every TSV with its own dedicated wrapper cell (the Fig. 2
//! // baseline).
//! let plan = WrapPlan::all_dedicated(&die);
//! let wrapped = testable::apply(&die, &plan).expect("plan is valid");
//! assert!(wrapped.netlist.stats().wrapper_cells > 0);
//! ```

pub mod prebond;
pub mod testable;
pub mod verify;
pub mod wrapper;

pub use prebond::{postbond_access, prebond_access};
pub use testable::{apply, TestableDie};
pub use verify::mission_equivalent;
pub use wrapper::{WrapAssignment, WrapPlan, WrapperSource};
