//! Shared experiment context: die generation + placement, cached per run,
//! and [`checked_run_flow`], the flow call every experiment cell makes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use prebond3d_celllib::{Library, Time};
use prebond3d_netlist::{itc99, Netlist};
use prebond3d_place::{place, PlaceConfig, Placement};
use prebond3d_wcm::flow::{run_flow, FlowConfig, FlowError, Method, Scenario};
use prebond3d_wcm::FlowResult;

/// One benchmark die ready for experiments.
#[derive(Debug, Clone)]
pub struct DieCase {
    /// Benchmark name (`b11` … `b22`).
    pub circuit: &'static str,
    /// Die index (0..4).
    pub die: usize,
    /// The synthetic netlist (Table II statistics).
    pub netlist: Netlist,
    /// Its placement.
    pub placement: Placement,
}

impl DieCase {
    /// `"b12 Die1"`-style label.
    pub fn label(&self) -> String {
        format!("{} Die{}", self.circuit, self.die)
    }
}

/// Benchmark subset selected by `PREBOND3D_CIRCUITS` (default: all six).
///
/// Exits with a diagnostic when the selection matches nothing — an empty
/// sweep would silently print empty tables, which always means a typo in
/// the variable, never an intent.
pub fn circuit_names() -> Vec<&'static str> {
    match try_circuit_names() {
        Ok(names) => names,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// [`circuit_names`] that reports a bad selection instead of exiting.
///
/// Unknown entries produce a warning (with the valid names); a selection
/// matching *no* benchmark is an error.
///
/// # Errors
///
/// `PREBOND3D_CIRCUITS` is set and selects no known benchmark.
pub fn try_circuit_names() -> Result<Vec<&'static str>, String> {
    let Ok(list) = std::env::var("PREBOND3D_CIRCUITS") else {
        return Ok(itc99::CIRCUIT_NAMES.to_vec());
    };
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
        eprintln!(
            "warning: PREBOND3D_CIRCUITS entries [{}] match no benchmark (valid: {})",
            unknown.join(", "),
            itc99::CIRCUIT_NAMES.join(", ")
        );
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

/// Generate and place all four dies of `name`.
///
/// Placement effort scales down for the largest benchmarks so the full
/// six-circuit sweep stays tractable; annealing effort only perturbs
/// distances, not the algorithms under test.
pub fn load_circuit(name: &str) -> Vec<DieCase> {
    let spec = itc99::circuit(name).unwrap_or_else(|| panic!("unknown circuit `{name}`"));
    let units: Vec<(&'static str, usize, &itc99::DieSpec)> = spec
        .dies
        .iter()
        .enumerate()
        .map(|(i, d)| (spec.name, i, d))
        .collect();
    build_cases(&units)
}

/// Generate and place all dies of every circuit in `names`, flattened to
/// `circuit × die` order. Each die is one pool work unit (generation +
/// annealing placement are seeded and self-contained), so the result is
/// identical for any thread count.
pub fn load_circuits(names: &[&'static str]) -> Vec<DieCase> {
    let specs: Vec<itc99::CircuitSpec> = names
        .iter()
        .map(|n| itc99::circuit(n).unwrap_or_else(|| panic!("unknown circuit `{n}`")))
        .collect();
    let units: Vec<(&'static str, usize, &itc99::DieSpec)> = specs
        .iter()
        .flat_map(|s| s.dies.iter().enumerate().map(|(i, d)| (s.name, i, d)))
        .collect();
    build_cases(&units)
}

/// Build every `(circuit, die)` unit on the pool with per-unit panic
/// isolation: a die whose generation or placement panics (a real bug, or
/// an injected `netlist.load` chaos fault) is recorded as a failed unit
/// and dropped from the sweep instead of aborting it.
fn build_cases(units: &[(&'static str, usize, &itc99::DieSpec)]) -> Vec<DieCase> {
    let built = crate::report::pool_with_poison_fallback(units, |&(name, i, d)| {
        catch_unwind(AssertUnwindSafe(|| build_case(name, i, d)))
            .map_err(|p| crate::report::panic_message(p.as_ref()))
    });
    built
        .into_iter()
        .zip(units)
        .filter_map(|(res, &(name, i, _))| match res {
            Ok(case) => Some(case),
            Err(msg) => {
                crate::report::record_failure(&format!("{name} Die{i} (load)"), &msg);
                None
            }
        })
        .collect()
}

fn build_case(circuit: &'static str, die: usize, die_spec: &itc99::DieSpec) -> DieCase {
    let netlist = itc99::generate_die(die_spec);
    let moves = if netlist.len() > 20_000 {
        4
    } else if netlist.len() > 5_000 {
        10
    } else {
        24
    };
    let config = PlaceConfig {
        moves_per_cell: moves,
        ..PlaceConfig::default()
    };
    let placement = place(&netlist, &config, 1);
    DieCase {
        circuit,
        die,
        netlist,
        placement,
    }
}

/// The shared standard-cell library.
pub fn library() -> Library {
    Library::nangate45_like()
}

/// `true` when `config` is a cell the paper itself reports as violating
/// (the timing-blind area scenario, baselines under tight timing,
/// forced-policy ablations): its negative post-insertion slack is a
/// result, not a defect. The checked contract is the paper's headline —
/// Ours under tight timing stays violation-free (Table III: 0/24).
pub fn expects_violation(config: &FlowConfig) -> bool {
    config.method != Method::Ours
        || config.scenario == Scenario::Area
        || config.ordering.is_some()
        || config.allow_overlap.is_some()
}

/// The slack contract on one completed flow: post-insertion worst slack
/// `wns` must be neither negative nor NaN, unless `config` expects a
/// violation or a phase budget is armed (a truncated search may leave
/// violations behind; they are recorded degradations, not defects).
///
/// # Errors
///
/// [`FlowError::SlackContract`] with the cell label, `wns` and the clock.
fn check_slack(
    label: &str,
    config: &FlowConfig,
    wns: Time,
    clock_period: Time,
) -> Result<(), FlowError> {
    let broken = wns.0 < 0.0 || wns.0.is_nan();
    if !broken || expects_violation(config) || prebond3d_resilience::budget::budget_armed() {
        return Ok(());
    }
    Err(FlowError::SlackContract {
        label: format!("{label} ({} {:?})", config.method.label(), config.scenario),
        wns,
        clock_period,
    })
}

/// [`run_flow`] followed by the slack contract check (`check_slack`).
/// Wall-clock measurements that should not pay for the check call
/// [`run_flow`] directly.
///
/// # Errors
///
/// Propagates `run_flow` failures and the slack contract's.
pub fn checked_run_flow(
    label: &str,
    netlist: &Netlist,
    placement: &Placement,
    library: &Library,
    config: &FlowConfig,
) -> Result<FlowResult, FlowError> {
    let result = run_flow(netlist, placement, library, config)?;
    check_slack(label, config, result.wns_after, result.clock_period)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_resilience::{budget, job};

    #[test]
    fn violation_policy_tracks_the_configuration() {
        assert!(!expects_violation(&FlowConfig::performance_optimized(
            Method::Ours
        )));
        assert!(expects_violation(&FlowConfig::performance_optimized(
            Method::Li
        )));
        // Area-optimized makes no timing promise, for any method.
        assert!(expects_violation(&FlowConfig::area_optimized(Method::Ours)));
        let forced = FlowConfig {
            allow_overlap: Some(false),
            ..FlowConfig::performance_optimized(Method::Ours)
        };
        assert!(expects_violation(&forced));
    }

    #[test]
    fn slack_check_rejects_negative_and_nan_wns_and_allows_its_exemptions() {
        let ours = FlowConfig::performance_optimized(Method::Ours);
        let clock = Time(2500.0);
        // Pin "unarmed" whatever the environment says.
        budget::force_budget_ms(Some(None));
        check_slack("t", &ours, Time(0.0), clock).expect("zero slack meets timing");
        let err = check_slack("t", &ours, Time(-4.25), clock).unwrap_err();
        assert_eq!(err.exit_code(), 1);
        let msg = err.to_string();
        assert!(
            msg.contains("t (Ours Tight)") && msg.contains("-4.25"),
            "{msg}"
        );
        assert!(matches!(
            check_slack("t", &ours, Time(f64::NAN), clock),
            Err(FlowError::SlackContract { .. })
        ));
        // Both kinds of expected violation: a baseline, and a forced policy.
        let agrawal = FlowConfig::performance_optimized(Method::Agrawal);
        let forced = FlowConfig {
            allow_overlap: Some(true),
            ..ours
        };
        for config in [agrawal, forced, FlowConfig::area_optimized(Method::Ours)] {
            check_slack("t", &config, Time(-4.25), clock).expect("expected violation");
        }
        // A job-scoped budget arms it for this thread only.
        let (armed, _) = job::run(Some(0), || check_slack("t", &ours, Time(-4.25), clock));
        budget::force_budget_ms(None);
        armed.expect("an armed budget exempts the cell");
    }
}
