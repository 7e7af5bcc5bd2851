//! Solution-quality ablations of the paper's three design choices,
//! beyond the tables the paper itself reports:
//!
//! 1. **Ordering** — larger-set-first vs inbound-first vs outbound-first
//!    (extends Table I to our method),
//! 2. **Timing model** — accurate (cap + wire) vs capacitance-only, with
//!    everything else held at "Ours",
//! 3. **Overlap sharing** — on/off (the Table V lever, summarized).
//!
//! Run: `PREBOND3D_CIRCUITS=b11,b12 cargo run --release -p prebond3d-bench --bin ablations`

use std::process::ExitCode;

use prebond3d_bench::context::checked_run_flow;
use prebond3d_bench::{context, driver, report};
use prebond3d_wcm::flow::{FlowConfig, Method, Scenario};
use prebond3d_wcm::OrderingPolicy;

fn main() -> ExitCode {
    driver::run("ablations", || {
        let lib = context::library();
        let mut cases = Vec::new();
        for name in context::circuit_names() {
            cases.extend(context::load_circuit(name));
        }

        // --- Ablation 1: ordering policy ------------------------------------
        println!("== Ablation: TSV-set ordering (Ours, area scenario) ==");
        for ordering in [
            OrderingPolicy::LargerFirst,
            OrderingPolicy::InboundFirst,
            OrderingPolicy::OutboundFirst,
        ] {
            let mut reused = 0usize;
            let mut cells = 0usize;
            for case in &cases {
                let label = format!("ordering/{ordering:?}/{}", case.label());
                let r = report::die_scope(&label, || {
                    let config = FlowConfig {
                        method: Method::Ours,
                        scenario: Scenario::Area,
                        ordering: Some(ordering),
                        allow_overlap: None,
                    };
                    checked_run_flow(&label, &case.netlist, &case.placement, &lib, &config)
                })?;
                reused += r.reused_scan_ffs;
                cells += r.additional_wrapper_cells;
            }
            println!("{ordering:?}: reused {reused}, additional {cells}");
        }

        // --- Ablation 2: timing model under tight timing ---------------------
        // "Ours minus the accurate model" == Agrawal with our ordering +
        // overlap sharing: isolates the wire-delay term.
        println!("\n== Ablation: timing model (tight scenario) ==");
        let mut configs = vec![
            (
                "accurate (Ours)",
                FlowConfig::performance_optimized(Method::Ours),
            ),
            (
                "cap-only (Agrawal model, Ours ordering+overlap)",
                FlowConfig {
                    method: Method::Agrawal,
                    scenario: Scenario::Tight,
                    ordering: Some(OrderingPolicy::LargerFirst),
                    allow_overlap: Some(true),
                },
            ),
        ];
        for (label, config) in configs.drain(..) {
            let mut cells = 0usize;
            let mut violations = 0usize;
            for case in &cases {
                let scope = format!("timing/{label}/{}", case.label());
                let r = report::die_scope(&scope, || {
                    checked_run_flow(&scope, &case.netlist, &case.placement, &lib, &config)
                })?;
                cells += r.additional_wrapper_cells;
                violations += usize::from(r.timing_violation);
            }
            println!(
                "{label}: additional {cells}, violations {violations}/{}",
                cases.len()
            );
        }

        // --- Ablation 3: overlap sharing -------------------------------------
        println!("\n== Ablation: overlapped-cone sharing (Ours, area scenario) ==");
        for allow in [false, true] {
            let mut cells = 0usize;
            let mut overlap_edges = 0usize;
            for case in &cases {
                let scope = format!("overlap/{allow}/{}", case.label());
                let r = report::die_scope(&scope, || {
                    let config = FlowConfig {
                        method: Method::Ours,
                        scenario: Scenario::Area,
                        ordering: None,
                        allow_overlap: Some(allow),
                    };
                    checked_run_flow(&scope, &case.netlist, &case.placement, &lib, &config)
                })?;
                cells += r.additional_wrapper_cells;
                overlap_edges += r.phases.iter().map(|p| p.overlap_edges).sum::<usize>();
            }
            println!(
                "overlap={allow}: additional {cells} (+{overlap_edges} overlap edges admitted)"
            );
        }
        Ok(())
    })
}
