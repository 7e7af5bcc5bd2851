//! The experiment-driver boundary: begin the report, run the body under
//! `catch_unwind`, always finish the report, and map what happened to a
//! process exit code.
//!
//! Exit-code contract (also relied on by CI and the chaos suite):
//!
//! | code | meaning                                                   |
//! |------|-----------------------------------------------------------|
//! | 0    | full success                                              |
//! | 1    | slack contract broken ([`FlowError::SlackContract`])      |
//! | 2    | bad circuit selection (`PREBOND3D_CIRCUITS` matches none) |
//! | 3    | partial failure: some units failed, the rest completed    |
//! | 4    | catastrophic: a typed fatal error or an escaped panic     |
//!
//! The body returns `Result<(), FlowError>` so a typed error maps to its
//! exit code directly ([`FlowError::exit_code`]) — no string matching. A
//! panic that escapes every unit boundary is still caught here, recorded
//! in the run report, and turned into code 4, so even a catastrophic run
//! leaves a machine-readable trace of what it managed to do.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

use prebond3d_wcm::flow::FlowError;

use crate::report;

/// Some units failed; the rest of the sweep completed and was reported.
pub const EXIT_PARTIAL_FAILURE: u8 = 3;
/// A fatal error or escaped panic ended the run early.
pub const EXIT_FATAL: u8 = 4;

/// Run one experiment end to end: `begin(experiment)`, the body, then
/// `finish` — unconditionally, so the run report (with its failure,
/// degradation and chaos records) is written even when the body dies.
pub fn run(experiment: &str, body: impl FnOnce() -> Result<(), FlowError>) -> ExitCode {
    report::begin(experiment);
    let outcome = catch_unwind(AssertUnwindSafe(body));
    match &outcome {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("{experiment}: {e}");
            report::record_failure(experiment, &e.to_string());
        }
        Err(p) => {
            let msg = format!("escaped panic: {}", report::panic_message(p.as_ref()));
            eprintln!("{experiment}: {msg}");
            report::record_failure(experiment, &msg);
        }
    }
    let summary = report::finish_summary();
    match outcome {
        Err(_) => ExitCode::from(EXIT_FATAL),
        Ok(Err(e)) => ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(EXIT_FATAL)),
        Ok(Ok(())) if summary.failures > 0 => ExitCode::from(EXIT_PARTIAL_FAILURE),
        Ok(Ok(())) => ExitCode::SUCCESS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The report collector is process-global; serialize with the report
    // module's tests.
    use crate::report::tests::LOCK;

    fn with_dir(tag: &str, f: impl FnOnce()) {
        let dir =
            std::env::temp_dir().join(format!("prebond3d_driver_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);
        f();
        std::env::remove_var("PREBOND3D_REPORT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_body_exits_zero() {
        let _l = LOCK.lock().unwrap();
        with_dir("ok", || {
            assert_eq!(run("driver_ok", || Ok(())), ExitCode::SUCCESS);
        });
    }

    #[test]
    fn failed_units_map_to_the_partial_code() {
        let _l = LOCK.lock().unwrap();
        with_dir("partial", || {
            let code = run("driver_partial", || {
                report::record_failure("die0", "synthetic unit failure");
                Ok(())
            });
            assert_eq!(code, ExitCode::from(EXIT_PARTIAL_FAILURE));
        });
    }

    #[test]
    fn typed_errors_map_to_their_exit_code_and_escapes_to_fatal() {
        let _l = LOCK.lock().unwrap();
        with_dir("typed", || {
            let code = run("driver_slack", || {
                Err(FlowError::SlackContract {
                    label: "x".to_string(),
                    wns: prebond3d_celllib::Time(-1.0),
                    clock_period: prebond3d_celllib::Time(1000.0),
                })
            });
            assert_eq!(code, ExitCode::from(1));
            let code = run("driver_escape", || panic!("boom all the way out"));
            assert_eq!(code, ExitCode::from(EXIT_FATAL));
        });
    }
}
