//! Run every table and figure in sequence (the full reproduction).
use std::process::ExitCode;

use prebond3d_atpg::engine::AtpgConfig;
use prebond3d_bench::driver;

fn main() -> ExitCode {
    driver::run("all_experiments", || {
        let atpg = AtpgConfig::thorough();
        println!("== Table II ==");
        print!(
            "{}",
            prebond3d_bench::table2::render(&prebond3d_bench::table2::run())
        );
        println!("\n== Table I ==");
        print!(
            "{}",
            prebond3d_bench::table1::render(&prebond3d_bench::table1::run(&atpg))
        );
        println!("\n== Table III ==");
        print!(
            "{}",
            prebond3d_bench::table3::render(&prebond3d_bench::table3::run())
        );
        println!("\n== Table IV ==");
        print!(
            "{}",
            prebond3d_bench::table4::render(&prebond3d_bench::table4::run(&atpg))
        );
        println!("\n== Table V ==");
        print!(
            "{}",
            prebond3d_bench::table5::render(&prebond3d_bench::table5::run(&atpg))
        );
        println!("\n== Fig. 7 ==");
        print!(
            "{}",
            prebond3d_bench::fig7::render(&prebond3d_bench::fig7::run())
        );
        Ok(())
    })
}
