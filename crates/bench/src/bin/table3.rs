//! Regenerate the paper's Table III.
use std::process::ExitCode;

use prebond3d_bench::driver;

fn main() -> ExitCode {
    driver::run("table3", || {
        let rows = prebond3d_bench::table3::run();
        print!("{}", prebond3d_bench::table3::render(&rows));
        Ok(())
    })
}
