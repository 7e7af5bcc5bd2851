//! Regenerate the paper's Table IV (coverage/pattern comparison).
use std::process::ExitCode;

use prebond3d_atpg::engine::AtpgConfig;
use prebond3d_bench::driver;

fn main() -> ExitCode {
    driver::run("table4", || {
        let rows = prebond3d_bench::table4::run(&AtpgConfig::thorough());
        print!("{}", prebond3d_bench::table4::render(&rows));
        Ok(())
    })
}
