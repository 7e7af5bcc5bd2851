//! Job execution: one submit frame → one flow run on warm state.
//!
//! Every job runs under `obs::capture_recorded` (request-scoped
//! telemetry) and `catch_unwind` (panic isolation), and reports through
//! the bench driver's exit-code contract, per job instead of per process:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | rejected by the static admission gate: the die's wrapper boundary is statically untestable (`prebond3d_dataflow::boundary::check`), so the flow never runs |
//! | 2    | bad job spec: unknown circuit/die, unparsable inline netlist |
//! | 3    | degraded: the flow completed but recorded degradations (e.g. a phase deadline from the job's `budget_ms` expired) |
//! | 4    | fatal: flow error or escaped panic, isolated to this job |
//!
//! The `done` frame separates the **deterministic report** (plan,
//! hardware counts, phase statistics, STA verdict — byte-identical for a
//! given job at any thread count, cold or warm) from the
//! **telemetry** (wall clocks, cache disposition, counters), so clients
//! and the determinism suite can compare `report` verbatim.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use prebond3d_celllib::Library;
use prebond3d_netlist::{format, itc99, Netlist};
use prebond3d_obs as obs;
use prebond3d_obs::json::Value;
use prebond3d_place::{place, PlaceConfig, Placement};
use prebond3d_resilience as resil;
use prebond3d_wcm::flow::{run_flow_with_probe, FlowConfig, FlowResult};
use prebond3d_wcm::testability::{AtpgProbe, StructuralProbe, TestabilityProbe};

use crate::cache::{WarmCache, WarmEntry};
use crate::proto::{method_wire, scenario_wire, JobSource, JobSpec, ProbeKind};

/// The terminal verdict of one job, plus its event frames.
#[derive(Debug)]
pub struct JobOutcome {
    /// Per-job exit code (0–4; see the module table).
    pub code: i32,
    /// `hit` or `miss`.
    pub cache_tag: &'static str,
    /// `phase` frames (per-span telemetry), in completion order.
    pub phases: Vec<Value>,
    /// The terminal `done` frame.
    pub done: Value,
}

/// What the in-capture body hands back on success.
struct JobSuccess {
    flow: FlowResult,
    circuit: String,
    die_label: String,
    sig: u64,
}

/// Non-panic failure inside the body.
enum JobFail {
    /// Bad job spec → code 2.
    Bad(String),
    /// Statically-untestable wrapper boundary → code 1 (admission gate),
    /// carrying the per-issue descriptions so clients can act on them.
    Rejected {
        message: String,
        issues: Vec<String>,
    },
    /// Flow error → its own exit code (1 or 4).
    Flow(prebond3d_wcm::flow::FlowError),
}

/// Placement effort mirrors the bench harness scaling: annealing effort
/// only perturbs distances, and the largest benchmarks would otherwise
/// dominate cold-start latency.
fn place_die(netlist: &Netlist) -> Placement {
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
    place(netlist, &config, 1)
}

/// The content-addressed idempotency key of a job: an FNV over the
/// client id, the netlist source (generation inputs, or the inline
/// netlist's *content signature* — whitespace-equivalent retries
/// collide), method, scenario, probe, `return_plan` and `budget_ms`.
/// A client retrying the same logical submit lands on the same key (the
/// journal dedups it to exactly-once); any differing field yields a
/// distinct key. `None` when the source is unparsable — such a job can't
/// be content-addressed, is never journaled, and fails with code 2 in
/// the worker as before.
pub fn idempotency_key(spec: &JobSpec) -> Option<u64> {
    let source = source_key(&spec.source).ok()?;
    let mut h = resil::fnv1a(b"job:");
    h = resil::fnv1a_more(h, spec.id.as_bytes());
    h = resil::fnv1a_more(h, &source.to_le_bytes());
    h = resil::fnv1a_more(h, method_wire(spec.method).as_bytes());
    h = resil::fnv1a_more(h, scenario_wire(spec.scenario).as_bytes());
    h = resil::fnv1a_more(
        h,
        match spec.probe {
            ProbeKind::Structural => &b"structural"[..],
            ProbeKind::Atpg => &b"atpg"[..],
        },
    );
    h = resil::fnv1a_more(h, &[u8::from(spec.return_plan)]);
    h = resil::fnv1a_more(h, &spec.budget_ms.map_or(u64::MAX, |ms| ms).to_le_bytes());
    Some(h)
}

/// Warm-cache key for a job source. Generated substrates key on the
/// deterministic generation inputs (no need to generate first); inline
/// netlists on their content signature.
fn source_key(source: &JobSource) -> Result<u64, String> {
    match source {
        JobSource::Generated { circuit, die } => {
            let mut h = resil::fnv1a(b"gen:");
            h = resil::fnv1a_more(h, circuit.as_bytes());
            h = resil::fnv1a_more(h, &(*die as u64).to_le_bytes());
            Ok(h)
        }
        JobSource::Inline { text } => {
            let netlist = format::parse(text).map_err(|e| format!("inline netlist: {e}"))?;
            Ok(resil::fnv1a_more(
                resil::fnv1a(b"inline:"),
                &netlist.signature().to_le_bytes(),
            ))
        }
    }
}

/// Build the substrate cold (generate or parse, then place).
fn build_entry(source: &JobSource) -> Result<WarmEntry, String> {
    let netlist = match source {
        JobSource::Generated { circuit, die } => {
            let spec =
                itc99::circuit(circuit).ok_or_else(|| format!("unknown circuit `{circuit}`"))?;
            let die_spec = spec.dies.get(*die).ok_or_else(|| {
                format!(
                    "circuit `{circuit}` has {} dies, no die {die}",
                    spec.dies.len()
                )
            })?;
            itc99::generate_die(die_spec)
        }
        JobSource::Inline { text } => {
            format::parse(text).map_err(|e| format!("inline netlist: {e}"))?
        }
    };
    let placement = {
        let _s = obs::span("serve_place");
        place_die(&netlist)
    };
    Ok(WarmEntry {
        netlist,
        placement,
        probe: Arc::new(AtpgProbe::default()),
    })
}

fn flow_config(spec: &JobSpec) -> FlowConfig {
    FlowConfig {
        method: spec.method,
        scenario: spec.scenario,
        ordering: None,
        allow_overlap: None,
    }
}

/// The deterministic `report` payload of a `done` frame.
fn report_json(spec: &JobSpec, s: &JobSuccess) -> Value {
    let phases: Vec<Value> = s
        .flow
        .phases
        .iter()
        .map(|p| {
            Value::obj([
                ("direction", format!("{:?}", p.direction).into()),
                ("nodes", p.nodes.into()),
                ("edges", p.edges.into()),
                ("overlap_edges", p.overlap_edges.into()),
            ])
        })
        .collect();
    let plan_text = format!("{:?}", s.flow.plan);
    let mut fields = vec![
        ("circuit", s.circuit.as_str().into()),
        ("die", s.die_label.as_str().into()),
        ("method", method_wire(spec.method).into()),
        ("scenario", scenario_wire(spec.scenario).into()),
        ("netlist_sig", format!("{:016x}", s.sig).into()),
        ("reused_scan_ffs", s.flow.reused_scan_ffs.into()),
        (
            "additional_wrapper_cells",
            s.flow.additional_wrapper_cells.into(),
        ),
        ("phases", Value::Arr(phases)),
        ("wns", s.flow.wns_after.0.into()),
        ("timing_violation", s.flow.timing_violation.into()),
        ("clock_period", s.flow.clock_period.0.into()),
        (
            "plan_fnv",
            format!("{:016x}", resil::fnv1a(plan_text.as_bytes())).into(),
        ),
    ];
    if spec.return_plan {
        fields.push(("plan", plan_text.into()));
    }
    Value::obj(fields)
}

/// Run one job to its terminal frame. Never panics; never poisons shared
/// state (the flow's own locks are per-probe and per-call).
pub fn run_job(spec: &JobSpec, cache: &WarmCache) -> JobOutcome {
    let t0 = Instant::now();
    // The job records its degradations into its own sink (below). What
    // lands in the process registry was recorded outside any job; drop it
    // so a long-running daemon's registry stays bounded.
    drop(resil::degrade::drain());

    let cache_tag = std::cell::Cell::new("miss");
    let cached_key = std::cell::Cell::new(None::<u64>);
    let body = || -> Result<JobSuccess, JobFail> {
        let key = source_key(&spec.source).map_err(JobFail::Bad)?;
        let entry: Arc<WarmEntry> = match cache.lookup(key) {
            Some(hit) => {
                cache_tag.set("hit");
                hit
            }
            None => {
                let built = Arc::new(build_entry(&spec.source).map_err(JobFail::Bad)?);
                cache.insert(key, Arc::clone(&built));
                built
            }
        };
        cached_key.set(Some(key));
        // --- Static admission gate (DESIGN.md §14) ----------------------
        // A statically-untestable wrapper boundary means every ATPG cycle
        // spent on this die is wasted and the resulting coverage tables
        // silently skewed: refuse the submission before the flow runs.
        let issues = prebond3d_dataflow::boundary::check(&entry.netlist);
        if !issues.is_empty() {
            obs::count("serve.rejected", 1);
            let detail: Vec<String> = issues.iter().map(|i| i.describe(&entry.netlist)).collect();
            return Err(JobFail::Rejected {
                message: format!("boundary statically untestable: {}", detail.join("; ")),
                issues: detail,
            });
        }
        let library = Library::nangate45_like();
        let config = flow_config(spec);
        let structural = StructuralProbe::default();
        let probe: &dyn TestabilityProbe = match spec.probe {
            ProbeKind::Structural => &structural,
            ProbeKind::Atpg => entry.probe.as_ref(),
        };
        let flow = run_flow_with_probe(&entry.netlist, &entry.placement, &library, &config, probe)
            .map_err(JobFail::Flow)?;
        let (circuit, die_label) = match &spec.source {
            JobSource::Generated { circuit, die } => (circuit.clone(), format!("die{die}")),
            JobSource::Inline { .. } => (entry.netlist.name().to_string(), "inline".to_string()),
        };
        let sig = entry.netlist.signature();
        Ok(JobSuccess {
            flow,
            circuit,
            die_label,
            sig,
        })
    };
    // A per-job `budget_ms` overrides the ambient phase budget on this
    // worker thread for the duration of the job, and degradations go to a
    // job-scoped sink; the pool copies both into its scoped workers, so
    // parallel phases (ATPG pair scans, fault sim) see the same deadline
    // and charge their degradations to this job alone.
    let ((result, snap), degradations) = resil::job::run(spec.budget_ms, || {
        obs::capture_recorded(|| catch_unwind(AssertUnwindSafe(body)))
    });

    // A warm probe grew during the job: re-estimate and re-enforce the
    // byte budget.
    if let Some(key) = cached_key.get() {
        cache.reweigh(key);
    }

    let mut boundary_issues: Option<Vec<String>> = None;
    let (code, report, error) = match result {
        Ok(Ok(success)) => {
            let code = if degradations.is_empty() { 0 } else { 3 };
            (code, Some(report_json(spec, &success)), None)
        }
        Ok(Err(JobFail::Bad(msg))) => (2, None, Some(msg)),
        Ok(Err(JobFail::Rejected { message, issues })) => {
            boundary_issues = Some(issues);
            (1, None, Some(message))
        }
        Ok(Err(JobFail::Flow(e))) => (e.exit_code(), None, Some(e.to_string())),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            (4, None, Some(format!("job panicked: {msg}")))
        }
    };

    let phases: Vec<Value> = snap
        .spans
        .iter()
        .map(|s| {
            Value::obj([
                ("ok", true.into()),
                ("ev", "phase".into()),
                ("id", spec.id.as_str().into()),
                ("path", s.path.as_str().into()),
                ("count", s.count.into()),
                ("ms", s.total_ms().into()),
            ])
        })
        .collect();
    let counters = Value::Obj(
        snap.counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::from(*v)))
            .collect(),
    );
    let mut done_fields = vec![
        ("ok", true.into()),
        ("ev", "done".into()),
        ("id", spec.id.as_str().into()),
        ("code", Value::Num(f64::from(code))),
        ("cache", cache_tag.get().into()),
        ("ms", (t0.elapsed().as_secs_f64() * 1e3).into()),
        ("degraded", degradations.len().into()),
        (
            "degradations",
            Value::Arr(
                degradations
                    .iter()
                    .map(|d| {
                        Value::obj([
                            ("phase", d.phase.into()),
                            ("action", d.action.into()),
                            ("detail", d.detail.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("counters", counters),
    ];
    if let Some(r) = report {
        done_fields.push(("report", r));
    }
    if let Some(e) = error {
        done_fields.push(("error", e.as_str().into()));
    }
    if let Some(issues) = boundary_issues {
        done_fields.push((
            "issues",
            Value::Arr(issues.iter().map(|i| i.as_str().into()).collect()),
        ));
    }
    JobOutcome {
        code,
        cache_tag: cache_tag.get(),
        phases,
        done: Value::obj(done_fields),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_request;
    use crate::proto::Request;

    fn spec(line: &str) -> JobSpec {
        match parse_request(line).unwrap() {
            Request::Submit(s) => *s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_circuit_is_code_2() {
        let cache = WarmCache::new(1 << 20);
        let out = run_job(&spec(r#"{"op":"submit","id":"x","circuit":"b99"}"#), &cache);
        assert_eq!(out.code, 2);
        assert_eq!(
            out.done.get("error").and_then(Value::as_str).unwrap(),
            "unknown circuit `b99`"
        );
        assert!(out.done.get("report").is_none());
    }

    #[test]
    fn out_of_range_die_and_bad_inline_are_code_2() {
        let cache = WarmCache::new(1 << 20);
        let out = run_job(
            &spec(r#"{"op":"submit","id":"x","circuit":"b11","die":99}"#),
            &cache,
        );
        assert_eq!(out.code, 2);
        let out = run_job(
            &spec(r#"{"op":"submit","id":"x","netlist":"not a netlist"}"#),
            &cache,
        );
        assert_eq!(out.code, 2);
    }

    #[test]
    fn statically_untestable_boundary_is_rejected_with_code_1() {
        let cache = WarmCache::new(1 << 20);
        // The outbound TSV is driven by a provable constant: no wrapper
        // configuration can exercise the boundary, so the gate refuses
        // the job before the flow runs.
        let line = r#"{"op":"submit","id":"r","netlist":"circuit bad\na = input()\nc1 = const1()\ng = or(a, c1)\nto = tsv_out(g)\no = output(a)\n"}"#;
        let out = run_job(&spec(line), &cache);
        assert_eq!(out.code, 1, "{:?}", out.done.get("error"));
        let error = out.done.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("boundary statically untestable"), "{error}");
        assert!(error.contains("provably constant"), "{error}");
        assert!(out.done.get("report").is_none());
        // The structured issue list rides on the done frame so clients
        // can act on each boundary problem without parsing the message.
        let issues = out.done.get("issues").and_then(Value::as_arr).unwrap();
        assert_eq!(issues.len(), 1, "{issues:?}");
        assert!(issues[0].as_str().unwrap().contains("provably constant"));
        // The rejection happened before any flow span opened.
        assert!(!out
            .phases
            .iter()
            .any(|p| p.get("path").and_then(Value::as_str) == Some("flow")));
    }

    #[test]
    fn idempotency_keys_are_content_addressed() {
        let a = spec(r#"{"op":"submit","id":"j","circuit":"b11","die":0}"#);
        let b = spec(r#"{"op":"submit","id":"j","circuit":"b11","die":0,"probe":"structural"}"#);
        assert_eq!(
            idempotency_key(&a),
            idempotency_key(&b),
            "defaulted and explicit forms of the same job collide"
        );
        for different in [
            r#"{"op":"submit","id":"k","circuit":"b11","die":0}"#,
            r#"{"op":"submit","id":"j","circuit":"b11","die":1}"#,
            r#"{"op":"submit","id":"j","circuit":"b11","die":0,"method":"li"}"#,
            r#"{"op":"submit","id":"j","circuit":"b11","die":0,"probe":"atpg"}"#,
            r#"{"op":"submit","id":"j","circuit":"b11","die":0,"budget_ms":100}"#,
            r#"{"op":"submit","id":"j","circuit":"b11","die":0,"return_plan":true}"#,
        ] {
            assert_ne!(
                idempotency_key(&a),
                idempotency_key(&spec(different)),
                "{different}"
            );
        }
        // An unparsable inline netlist cannot be content-addressed.
        assert_eq!(
            idempotency_key(&spec(r#"{"op":"submit","id":"j","netlist":"garbage"}"#)),
            None
        );
    }

    #[test]
    fn budget_ms_degrades_to_best_so_far_with_code_3() {
        let cache = WarmCache::new(256 << 20);
        let line =
            r#"{"op":"submit","id":"b","circuit":"b11","die":0,"probe":"atpg","budget_ms":0}"#;
        let out = run_job(&spec(line), &cache);
        assert_eq!(out.code, 3, "{:?}", out.done.get("error"));
        let n = out.done.get("degraded").and_then(Value::as_u64).unwrap();
        assert!(n > 0);
        let listed = out
            .done
            .get("degradations")
            .and_then(Value::as_arr)
            .unwrap();
        assert_eq!(listed.len() as u64, n);
        assert!(listed[0].get("phase").and_then(Value::as_str).is_some());
        // Degradation is telemetry, not report shape: the report is still
        // present and well-formed.
        assert!(out.done.get("report").is_some());
    }

    #[test]
    fn degradations_recorded_elsewhere_are_not_charged_to_the_job() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let cache = WarmCache::new(256 << 20);
        let line = r#"{"op":"submit","id":"q","circuit":"b11","die":1}"#;
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            // Stands in for a concurrent budgeted job (or any code outside
            // a job) cutting phases short while this job runs.
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    resil::degrade::record("anneal", "best_so_far", "another job");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
            let out = run_job(&spec(line), &cache);
            stop.store(true, Ordering::Relaxed);
            out
        });
        assert_eq!(out.done.get("degraded").and_then(Value::as_u64), Some(0));
        assert_eq!(out.code, 0, "{:?}", out.done.get("error"));
    }

    #[test]
    fn repeat_job_hits_the_warm_cache_and_reports_identically() {
        let cache = WarmCache::new(256 << 20);
        let line = r#"{"op":"submit","id":"j","circuit":"b11","die":0,"return_plan":true}"#;
        let cold = run_job(&spec(line), &cache);
        assert_eq!(cold.code, 0, "{:?}", cold.done.get("error"));
        assert_eq!(cold.cache_tag, "miss");
        let warm = run_job(&spec(line), &cache);
        assert_eq!(warm.code, 0);
        assert_eq!(warm.cache_tag, "hit");
        // The deterministic report must be byte-identical cold vs warm.
        assert_eq!(
            cold.done.get("report").unwrap().to_string(),
            warm.done.get("report").unwrap().to_string()
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        // Phase frames cover the flow spans.
        assert!(cold
            .phases
            .iter()
            .any(|p| p.get("path").and_then(Value::as_str) == Some("flow")));
    }
}
