//! Golden paper tables: the reproduction itself, pinned per die.
//!
//! Each die has one line for each of:
//!
//! * Table II's counts (scan FFs, gates, TSVs, inbound, outbound);
//! * the four Table III cells, each `reused/added`, tight cells with the
//!   violation flag (`V` or `-`);
//! * Table V's hardware columns: Ours under tight timing with overlapped
//!   cones off and on.
//!
//! Each circuit has one Fig. 7 line: sharing-graph edges, overlap
//! off → on, summed over its dies. Every number comes from the bench
//! functions the experiment binaries print from (`table2::row`,
//! `table3::run_die`, `table5::hardware`), with every flow under the slack
//! contract.
//!
//! The tier-1 test checks the b11/b12 lines. The ignored test checks all
//! 24 dies (minutes; run it in release):
//!
//! ```sh
//! cargo test --release --offline -q --test paper_tables -- --ignored
//! ```
//!
//! When a change is *meant* to move these numbers, the failure message
//! prints every actual line; paste them into
//! `tests/golden/paper_tables.txt` and regenerate EXPERIMENTS.md.

use prebond3d::celllib::Library;
use prebond3d::netlist::itc99;
use prebond3d_bench::{context, table2, table3, table5, DieCase};

const GOLDEN: &str = include_str!("golden/paper_tables.txt");

fn flag(violation: bool) -> &'static str {
    if violation {
        "V"
    } else {
        "-"
    }
}

/// One die's rows, from the functions the binaries print from.
struct Die {
    circuit: &'static str,
    table2: table2::Row,
    table3: table3::Row,
    overlap_off: table5::Hardware,
    overlap_on: table5::Hardware,
}

fn die(case: &DieCase, lib: &Library) -> Die {
    let hardware =
        |allow| table5::hardware(case, lib, allow).expect("flow runs and meets its slack contract");
    Die {
        circuit: case.circuit,
        table2: table2::row(case),
        table3: table3::run_die(case),
        overlap_off: hardware(false),
        overlap_on: hardware(true),
    }
}

/// Every golden line for `circuits`: the Table II, III and V lines in die
/// order, then the Fig. 7 lines in circuit order.
fn actual_lines(circuits: &[&'static str]) -> Vec<String> {
    let lib = context::library();
    let cases = context::load_circuits(circuits);
    let dies = prebond3d_pool::par_map(&cases, |case| die(case, &lib));
    let mut lines = Vec::new();
    for t2 in dies.iter().map(|d| &d.table2) {
        lines.push(format!(
            "table2 {} scan_ffs={} gates={} tsvs={} inbound={} outbound={}",
            t2.label, t2.scan_ffs, t2.gates, t2.tsvs, t2.inbound, t2.outbound
        ));
    }
    for t3 in dies.iter().map(|d| &d.table3) {
        let (at, ot) = (t3.agrawal_tight, t3.ours_tight);
        lines.push(format!(
            "table3 {} agrawal_area={}/{} ours_area={}/{} agrawal_tight={}/{} {} ours_tight={}/{} {}",
            t3.label,
            t3.agrawal_area.0,
            t3.agrawal_area.1,
            t3.ours_area.0,
            t3.ours_area.1,
            at.0,
            at.1,
            flag(at.2),
            ot.0,
            ot.1,
            flag(ot.2)
        ));
    }
    for d in &dies {
        let (off, on) = (d.overlap_off, d.overlap_on);
        lines.push(format!(
            "table5 {} off={}/{} on={}/{}",
            d.table2.label, off.reused, off.additional, on.reused, on.additional
        ));
    }
    for &name in circuits {
        let (without, with) = dies
            .iter()
            .filter(|d| d.circuit == name)
            .fold((0, 0), |(wo, w), d| {
                (wo + d.overlap_off.edges, w + d.overlap_on.edges)
            });
        lines.push(format!("fig7 {name} edges={without}->{with}"));
    }
    lines
}

/// The golden lines whose circuit (second field) is in `circuits`.
fn expected_lines(circuits: &[&str]) -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter(|l| {
            l.split_whitespace()
                .nth(1)
                .is_some_and(|c| circuits.contains(&c))
        })
        .collect()
}

fn check(circuits: &[&'static str]) {
    let expected = expected_lines(circuits);
    let actual = actual_lines(circuits);
    assert!(
        expected == actual,
        "paper tables for {} moved; the actual lines are:\n{}",
        circuits.join(","),
        actual.join("\n")
    );
}

#[test]
fn small_circuits_match_the_golden_paper_tables() {
    check(&["b11", "b12"]);
}

#[test]
#[ignore = "all 24 dies take minutes; CI runs it in release"]
fn all_dies_match_the_golden_paper_tables() {
    check(&itc99::CIRCUIT_NAMES);
}
