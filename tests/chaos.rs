//! Chaos regression suite (DESIGN.md §10): a seeded fault-injection sweep
//! across ≥64 seeds in which no panic may escape the driver boundary,
//! every report that gets written must stay schema-valid against the
//! goldens in `tests/golden/`, and every injected fault must be visible
//! afterwards as a failed unit, a degradation record, or a dropped-report
//! error — never silently swallowed.
//!
//! Each seed runs a three-die sweep through the real
//! `driver::execute` / `resilient_par_die_scopes` pipeline with every chaos
//! site reachable from inside a unit closure:
//!
//! * `netlist.load`  — die generation panics (corrupt benchmark stand-in)
//! * `liberty.load`  — cell-library construction panics
//! * `timing.elmore` — NaN/∞ perturbation of Elmore delays in `run_flow`
//! * `pool.worker`   — panic in the worker loop proper (outside the unit
//!   `catch_unwind`, so it exercises the serial-fallback path)
//! * `io.write`      — checkpoint appends and the report write
//!
//! Injection is deterministic per seed (`fnv1a(seed ‖ site ‖ call)`), so
//! this suite is a regression test, not a flake generator.

#[path = "schema_util/mod.rs"]
mod schema_util;

use std::collections::BTreeSet;
use std::process::ExitCode;

use prebond3d::celllib::Library;
use prebond3d::netlist::itc99::{self, DieSpec};
use prebond3d::place::{place, PlaceConfig};
use prebond3d::wcm::flow::{run_flow, FlowConfig, FlowError, Method};
use prebond3d_bench::{driver, report};
use prebond3d_obs::json::{parse, Value};
use prebond3d_pool::with_threads;
use prebond3d_resilience::chaos;
use schema_util::schema_lines;

const SEEDS: u64 = 64;
/// Per-call injection probability. High enough that every fault kind
/// fires many times across the sweep (asserted at the end), low enough
/// that most units still complete and exercise the recovery paths.
const RATE: f64 = 0.02;

/// Three tiny dies (~100 gates) so 64 full sweeps stay fast. Built from
/// explicit specs rather than `itc99::circuit` so each unit closure pays
/// for its own `generate_die` — putting the `netlist.load` site inside
/// the per-unit isolation boundary.
fn specs() -> Vec<DieSpec> {
    (0..3u64)
        .map(|i| DieSpec {
            name: format!("chaos_die{i}"),
            scan_flip_flops: 8,
            gates: 90 + 10 * i as usize,
            inbound_tsvs: 6,
            outbound_tsvs: 6,
            primary_inputs: 4,
            primary_outputs: 4,
            seed: 0xC4A0_5000 + i,
        })
        .collect()
}

/// One experiment body: the full per-die pipeline (generate → library →
/// place → flow) under per-unit panic isolation and checkpointing.
fn run_units() -> Result<(), FlowError> {
    let cases = specs();
    report::resilient_par_die_scopes(
        "chaos",
        &cases,
        |s| s.name.clone(),
        |spec| {
            let netlist = itc99::generate_die(spec);
            let lib = Library::nangate45_like();
            let placement = place(&netlist, &PlaceConfig::default(), 1);
            let r = run_flow(
                &netlist,
                &placement,
                &lib,
                &FlowConfig::area_optimized(Method::Ours),
            )
            .expect("flow");
            (r.reused_scan_ffs, r.additional_wrapper_cells)
        },
        |&(reused, additional)| {
            Value::obj([("reused", reused.into()), ("additional", additional.into())])
        },
        |v| {
            Some((
                v.get("reused")?.as_u64()? as usize,
                v.get("additional")?.as_u64()? as usize,
            ))
        },
    );
    Ok(())
}

#[test]
fn seeded_chaos_sweep_never_escapes_and_accounts_for_every_fault() {
    let base = std::env::temp_dir().join(format!("prebond3d-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("temp report dir");
    report::configure(report::Settings {
        dir: base.clone(),
        ..report::Settings::default()
    });

    let golden: BTreeSet<String> = include_str!("golden/run_report.schema.txt")
        .lines()
        .map(str::to_string)
        .collect();
    let fatal = ExitCode::from(driver::EXIT_FATAL);
    // Tallies per fault kind, to prove the sweep actually exercised all
    // three — a suite that injects nothing proves nothing.
    let (mut panics, mut ios, mut non_finites) = (0u64, 0u64, 0u64);

    for seed in 0..SEEDS {
        chaos::install(Some((seed, RATE)));
        let exp = format!("chaos_s{seed}");
        // Alternate serial and 2-thread pools so both the serial chunk
        // loop and the worker-loop poison path see injections.
        let threads = if seed % 2 == 0 { 1 } else { 2 };
        let code = with_threads(threads, || driver::execute(&exp, run_units));
        chaos::install(None);

        assert_ne!(
            code, fatal,
            "seed {seed}: a panic escaped the driver boundary"
        );

        let run_path = base.join(format!("run_{exp}.json"));
        let Ok(text) = std::fs::read_to_string(&run_path) else {
            // The injection hit the final report write itself: the only
            // way this file can be missing (the dir exists and has space).
            // The failure was reported on stderr and the exit code stayed
            // non-fatal, which is exactly the contract.
            ios += 1;
            continue;
        };
        let doc = parse(&text).unwrap_or_else(|e| panic!("seed {seed}: report unparsable: {e}"));

        for line in &schema_lines(&doc) {
            assert!(
                golden.contains(line),
                "seed {seed}: report field outside the golden schema: {line}"
            );
        }

        let actions: BTreeSet<&str> = doc
            .get("degradations")
            .and_then(Value::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|d| d.get("action")?.as_str())
            .collect();
        let failures = doc
            .get("failures")
            .and_then(Value::as_arr)
            .map_or(0, <[Value]>::len);
        let events = doc
            .get("chaos")
            .and_then(|c| c.get("events"))
            .and_then(Value::as_arr)
            .unwrap_or(&[]);

        for ev in events {
            let kind = ev.get("kind").and_then(Value::as_str).unwrap_or("?");
            let site = ev.get("site").and_then(Value::as_str).unwrap_or("?");
            match kind {
                // A panic either failed its unit in isolation or poisoned
                // the pool and forced the recorded serial fallback.
                "panic" => {
                    panics += 1;
                    assert!(
                        failures > 0 || actions.contains("serial_fallback"),
                        "seed {seed}: injected panic at {site} left no failure or fallback record"
                    );
                }
                // A write error recorded in the report happened before
                // the report write: it dropped a checkpoint entry (run
                // continues, degradation recorded). A failed report write
                // itself is the missing-file case handled above.
                "io" => {
                    ios += 1;
                    assert!(
                        actions.contains("drop_entry"),
                        "seed {seed}: injected I/O error at {site} left no degradation"
                    );
                }
                // A NaN/∞ Elmore delay must degrade to the conservative
                // infinite penalty, never poison a comparison.
                "non_finite" => {
                    non_finites += 1;
                    assert!(
                        actions.contains("infinite_penalty"),
                        "seed {seed}: injected non-finite at {site} left no infinite_penalty record"
                    );
                }
                other => panic!("seed {seed}: unknown chaos kind {other}"),
            }
        }
    }

    assert!(panics > 0, "sweep never injected a panic; raise RATE");
    assert!(ios > 0, "sweep never injected an I/O error; raise RATE");
    assert!(
        non_finites > 0,
        "sweep never injected a non-finite; raise RATE"
    );
    eprintln!("chaos sweep: {SEEDS} seeds, {panics} panics, {ios} io errors, {non_finites} non-finite injections — all accounted for");

    report::configure(report::Settings::default());
    let _ = std::fs::remove_dir_all(&base);
}
