//! The experiment-driver boundary: parse the switches, begin the report,
//! run the body under `catch_unwind`, always finish the report, and map
//! what happened to a process exit code.
//!
//! [`run`] is the only place an experiment binary reads its environment.
//! It parses every `PREBOND3D_*` switch once — `TRACE`, `CHAOS`,
//! `BUDGET_MS`, `CIRCUITS`, `REPORT_DIR`, `STABLE_MS` and `RESUME` — and
//! installs each as a value in the module that uses it. (`THREADS` is read
//! by `prebond3d-pool` itself, so in-process test binaries see it too.)
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
use std::path::PathBuf;
use std::process::ExitCode;

use prebond3d_netlist::itc99;
use prebond3d_obs as obs;
use prebond3d_resilience::{budget, chaos};
use prebond3d_wcm::flow::FlowError;

use crate::{context, report};

/// The benchmark selection matched no circuit.
pub const EXIT_BAD_SELECTION: u8 = 2;
/// Some units failed; the rest of the sweep completed and was reported.
pub const EXIT_PARTIAL_FAILURE: u8 = 3;
/// A fatal error or escaped panic ended the run early.
pub const EXIT_FATAL: u8 = 4;

/// Every switch an experiment binary honours, as parsed values.
#[derive(Debug, Clone, PartialEq)]
struct Switches {
    /// `PREBOND3D_TRACE=<path>`: arm the event timeline.
    trace: Option<PathBuf>,
    /// `PREBOND3D_CHAOS=<seed>:<rate>`: arm fault injection.
    chaos: Option<(u64, f64)>,
    /// `PREBOND3D_BUDGET_MS=<ms>`: the per-phase budget.
    budget_ms: Option<u64>,
    /// `PREBOND3D_CIRCUITS=<name,...>`: the benchmark subset.
    circuits: Result<Vec<&'static str>, String>,
    /// `PREBOND3D_REPORT_DIR`, `PREBOND3D_STABLE_MS`, `PREBOND3D_RESUME`.
    report: report::Settings,
}

/// `1|on|true|yes` turn a boolean switch on; anything else leaves it off.
fn flag(value: Option<&str>) -> bool {
    matches!(value, Some("1" | "on" | "true" | "yes"))
}

fn parse_chaos(value: &str, warnings: &mut Vec<String>) -> Option<(u64, f64)> {
    let parsed = value.split_once(':').and_then(|(seed, rate)| {
        Some((
            seed.trim().parse::<u64>().ok()?,
            rate.trim().parse::<f64>().ok()?,
        ))
    });
    match parsed {
        Some((_, rate)) if !(0.0..=1.0).contains(&rate) => warnings.push(format!(
            "[chaos] PREBOND3D_CHAOS rate {rate} outside [0,1]; chaos stays off"
        )),
        Some(config) => return Some(config),
        None if value.trim().is_empty() => return None,
        None => {}
    }
    warnings.push(format!(
        "[chaos] cannot parse PREBOND3D_CHAOS=`{value}` (want `<seed>:<rate>`)"
    ));
    None
}

fn parse_circuits(list: &str, warnings: &mut Vec<String>) -> Result<Vec<&'static str>, String> {
    let entries: Vec<&str> = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let unknown: Vec<&str> = entries
        .iter()
        .copied()
        .filter(|e| !itc99::CIRCUIT_NAMES.contains(e))
        .collect();
    if !unknown.is_empty() {
        warnings.push(format!(
            "warning: PREBOND3D_CIRCUITS entries [{}] match no benchmark (valid: {})",
            unknown.join(", "),
            itc99::CIRCUIT_NAMES.join(", ")
        ));
    }
    let selected: Vec<&'static str> = itc99::CIRCUIT_NAMES
        .iter()
        .copied()
        .filter(|n| entries.contains(n))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "PREBOND3D_CIRCUITS=`{list}` selects no benchmark; valid names: {}",
            itc99::CIRCUIT_NAMES.join(", ")
        ));
    }
    Ok(selected)
}

impl Switches {
    /// Parse the switches from `var` (a variable's value by name, `None`
    /// when unset), returning the warnings to print. A malformed value
    /// leaves its switch off; it never stops the run.
    fn parse(var: impl Fn(&str) -> Option<String>) -> (Switches, Vec<String>) {
        let mut warnings = Vec::new();
        let trace = var("PREBOND3D_TRACE")
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        let chaos = var("PREBOND3D_CHAOS").and_then(|v| parse_chaos(&v, &mut warnings));
        let budget_ms = var("PREBOND3D_BUDGET_MS").and_then(|v| v.trim().parse::<u64>().ok());
        let circuits = var("PREBOND3D_CIRCUITS").map_or_else(
            || Ok(itc99::CIRCUIT_NAMES.to_vec()),
            |v| parse_circuits(&v, &mut warnings),
        );
        let report = report::Settings {
            dir: var("PREBOND3D_REPORT_DIR")
                .map_or_else(|| report::Settings::default().dir, PathBuf::from),
            stable_ms: flag(var("PREBOND3D_STABLE_MS").as_deref()),
            resume: flag(var("PREBOND3D_RESUME").as_deref()),
        };
        let switches = Switches {
            trace,
            chaos,
            budget_ms,
            circuits,
            report,
        };
        (switches, warnings)
    }

    /// Hand each value to the module that uses it.
    fn install(self) {
        if let Some(path) = self.trace {
            obs::trace::configure(Some(path));
        }
        chaos::install(self.chaos);
        budget::set_budget_ms(self.budget_ms);
        context::select_circuits(self.circuits);
        report::configure(self.report);
    }
}

/// The entry of every experiment binary: parse the `PREBOND3D_*`
/// switches from the environment, install them, then [`execute`].
pub fn run(experiment: &str, body: impl FnOnce() -> Result<(), FlowError>) -> ExitCode {
    let (switches, warnings) = Switches::parse(|name| std::env::var(name).ok());
    for warning in &warnings {
        eprintln!("{warning}");
    }
    switches.install();
    execute(experiment, body)
}

/// Run one experiment end to end under the installed switches:
/// `begin(experiment)`, the body, then `finish` — unconditionally, so the
/// run report (with its failure, degradation and chaos records) is written
/// even when the body dies.
pub fn execute(experiment: &str, body: impl FnOnce() -> Result<(), FlowError>) -> ExitCode {
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
        report::configure(report::Settings {
            dir: dir.clone(),
            ..report::Settings::default()
        });
        f();
        report::configure(report::Settings::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Parse `(name, value)` pairs as if they were the environment.
    fn parse(pairs: &[(&str, &str)]) -> (Switches, Vec<String>) {
        Switches::parse(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn no_switches_parse_to_the_defaults() {
        let (s, warnings) = parse(&[]);
        assert!(warnings.is_empty());
        assert_eq!(
            s,
            Switches {
                trace: None,
                chaos: None,
                budget_ms: None,
                circuits: Ok(itc99::CIRCUIT_NAMES.to_vec()),
                report: report::Settings::default(),
            }
        );
    }

    #[test]
    fn well_formed_switches_parse_to_their_values() {
        let (s, warnings) = parse(&[
            ("PREBOND3D_TRACE", " /tmp/t.json "),
            ("PREBOND3D_CHAOS", "7:0.01"),
            ("PREBOND3D_BUDGET_MS", " 250 "),
            ("PREBOND3D_CIRCUITS", "b12, b11"),
            ("PREBOND3D_REPORT_DIR", "out"),
        ]);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(s.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(s.chaos, Some((7, 0.01)));
        assert_eq!(s.budget_ms, Some(250));
        assert_eq!(s.circuits, Ok(vec!["b11", "b12"]), "benchmark order");
        assert_eq!(s.report.dir, PathBuf::from("out"));
    }

    #[test]
    fn boolean_switches_accept_one_on_true_and_yes() {
        for on in ["1", "on", "true", "yes"] {
            let (s, _) = parse(&[("PREBOND3D_RESUME", on), ("PREBOND3D_STABLE_MS", on)]);
            assert!(s.report.resume && s.report.stable_ms, "`{on}`");
        }
        for off in ["0", "off", "", "TRUE", " 1"] {
            let (s, _) = parse(&[("PREBOND3D_RESUME", off), ("PREBOND3D_STABLE_MS", off)]);
            assert!(!s.report.resume && !s.report.stable_ms, "`{off}`");
        }
    }

    #[test]
    fn malformed_chaos_and_budget_values_disarm() {
        let (s, warnings) = parse(&[("PREBOND3D_CHAOS", "7:1.5")]);
        assert_eq!(s.chaos, None);
        assert_eq!(
            warnings,
            [
                "[chaos] PREBOND3D_CHAOS rate 1.5 outside [0,1]; chaos stays off",
                "[chaos] cannot parse PREBOND3D_CHAOS=`7:1.5` (want `<seed>:<rate>`)",
            ]
        );
        let (s, warnings) = parse(&[("PREBOND3D_CHAOS", "seven")]);
        assert_eq!(s.chaos, None);
        assert_eq!(
            warnings,
            ["[chaos] cannot parse PREBOND3D_CHAOS=`seven` (want `<seed>:<rate>`)"]
        );
        let (s, warnings) = parse(&[("PREBOND3D_CHAOS", " ")]);
        assert_eq!(s.chaos, None);
        assert!(warnings.is_empty(), "a blank value is unset: {warnings:?}");
        let (s, warnings) = parse(&[("PREBOND3D_BUDGET_MS", "soon")]);
        assert_eq!(s.budget_ms, None);
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn unknown_circuits_warn_and_an_empty_selection_is_an_error() {
        let (s, warnings) = parse(&[("PREBOND3D_CIRCUITS", "b11,nope")]);
        assert_eq!(s.circuits, Ok(vec!["b11"]));
        assert_eq!(
            warnings,
            [
                "warning: PREBOND3D_CIRCUITS entries [nope] match no benchmark \
              (valid: b11, b12, b18, b20, b21, b22)"
            ]
        );
        let (s, _) = parse(&[("PREBOND3D_CIRCUITS", "nope")]);
        assert_eq!(
            s.circuits,
            Err("PREBOND3D_CIRCUITS=`nope` selects no benchmark; \
                 valid names: b11, b12, b18, b20, b21, b22"
                .to_string())
        );
    }

    #[test]
    fn clean_body_exits_zero() {
        let _l = LOCK.lock().unwrap();
        with_dir("ok", || {
            assert_eq!(execute("driver_ok", || Ok(())), ExitCode::SUCCESS);
        });
    }

    #[test]
    fn failed_units_map_to_the_partial_code() {
        let _l = LOCK.lock().unwrap();
        with_dir("partial", || {
            let code = execute("driver_partial", || {
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
            let code = execute("driver_slack", || {
                Err(FlowError::SlackContract {
                    label: "x".to_string(),
                    wns: prebond3d_celllib::Time(-1.0),
                    clock_period: prebond3d_celllib::Time(1000.0),
                })
            });
            assert_eq!(code, ExitCode::from(1));
            let code = execute("driver_escape", || panic!("boom all the way out"));
            assert_eq!(code, ExitCode::from(EXIT_FATAL));
        });
    }
}
