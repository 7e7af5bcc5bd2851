//! Table V hardware columns only (no ATPG): reused FFs and additional
//! wrapper cells with overlapped-cone sharing off/on, tight timing.
use std::process::ExitCode;

use prebond3d_bench::{context, driver, report, table5};
use prebond3d_wcm::flow::FlowError;

fn main() -> ExitCode {
    driver::run("table5_lite", || {
        let lib = context::library();
        println!(
            "{:<12} | {:>7} {:>7} | {:>7} {:>7}",
            "", "FF(off)", "cells", "FF(on)", "cells"
        );
        let (mut f0, mut c0, mut f1, mut c1) = (0usize, 0usize, 0usize, 0usize);
        let mut dies = 0usize;
        for name in context::circuit_names() {
            for case in context::load_circuit(name) {
                let (off, on) = report::die_scope(&case.label(), || {
                    Ok::<_, FlowError>((
                        table5::hardware(&case, &lib, false)?,
                        table5::hardware(&case, &lib, true)?,
                    ))
                })?;
                println!(
                    "{:<12} | {:>7} {:>7} | {:>7} {:>7}",
                    case.label(),
                    off.reused,
                    off.additional,
                    on.reused,
                    on.additional
                );
                f0 += off.reused;
                c0 += off.additional;
                f1 += on.reused;
                c1 += on.additional;
                dies += 1;
            }
        }
        let d = dies.max(1) as f64;
        println!(
            "Average      | {:>7.1} {:>7.1} | {:>7.1} {:>7.1}",
            f0 as f64 / d,
            c0 as f64 / d,
            f1 as f64 / d,
            c1 as f64 / d
        );
        println!(
            "overlap effect: reused {:+.2}%, additional {:+.2}%; paper: +0.90% / -2.02%",
            100.0 * (f1 as f64 - f0 as f64) / (f0 as f64).max(1.0),
            100.0 * (c1 as f64 - c0 as f64) / (c0 as f64).max(1.0)
        );
        Ok(())
    })
}
