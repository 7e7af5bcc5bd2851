//! Regenerate the paper's Table V (overlapped-cone ablation).
use std::process::ExitCode;

use prebond3d_atpg::engine::AtpgConfig;
use prebond3d_bench::driver;

fn main() -> ExitCode {
    driver::run("table5", || {
        let rows = prebond3d_bench::table5::run(&AtpgConfig::thorough());
        print!("{}", prebond3d_bench::table5::render(&rows));
        Ok(())
    })
}
