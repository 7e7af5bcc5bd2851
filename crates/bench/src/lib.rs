//! # prebond3d-bench
//!
//! The experiment harness: one module (and one binary) per table/figure of
//! the paper, sharing die construction, flow invocation and paper-style
//! text rendering. Every experiment returns structured rows so the
//! integration tests can assert the reproduced *shape* (who wins, by
//! roughly what factor) without parsing stdout.
//!
//! Scale control: the environment variable `PREBOND3D_CIRCUITS` selects a
//! comma-separated subset of benchmarks (default: all six). The full b18
//! runs take minutes; `PREBOND3D_CIRCUITS=b11,b12` gives a quick pass.

pub mod context;
pub mod driver;
pub mod fig7;
pub mod lintflow;
pub mod obsdiff;
pub mod perf;
pub mod report;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

pub use context::{circuit_names, load_circuit, load_circuits, try_circuit_names, DieCase};

/// Render a percentage like the paper (`99.42%`).
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}
