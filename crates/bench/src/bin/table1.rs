//! Regenerate the paper's Table I (ordering study, b12).
use std::process::ExitCode;

use prebond3d_atpg::engine::AtpgConfig;
use prebond3d_bench::driver;

fn main() -> ExitCode {
    driver::run("table1", || {
        let rows = prebond3d_bench::table1::run(&AtpgConfig::thorough());
        print!("{}", prebond3d_bench::table1::render(&rows));
        Ok(())
    })
}
