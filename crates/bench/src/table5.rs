//! Table V: the overlapped-cone ablation (b20/b21/b22, tight timing).
//!
//! Our method with overlapped-cone sharing disabled vs. enabled: reused
//! flip-flops, additional wrapper cells, stuck-at and transition coverage
//! and pattern counts. The paper's claim: sharing with overlapped cones
//! saves ~2 % of additional cells at a fraction-of-a-percent coverage
//! cost.

use std::fmt::Write as _;

use prebond3d_atpg::engine::{run_stuck_at, run_transition, AtpgConfig};
use prebond3d_celllib::Library;
use prebond3d_dft::prebond_access;
use prebond3d_obs::json::Value;
use prebond3d_wcm::flow::{FlowConfig, FlowError, Method, Scenario};

use crate::context::{self, checked_run_flow, DieCase};

/// Numbers for one overlap setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Reused scan flip-flops.
    pub reused: usize,
    /// Additional wrapper cells.
    pub additional: usize,
    /// Stuck-at (coverage, patterns).
    pub stuck_at: (f64, usize),
    /// Transition (coverage, patterns).
    pub transition: (f64, usize),
}

impl Cell {
    fn to_json(self) -> Value {
        let pair = |(cov, patterns): (f64, usize)| {
            Value::obj([("coverage", cov.into()), ("patterns", patterns.into())])
        };
        Value::obj([
            ("reused", self.reused.into()),
            ("additional", self.additional.into()),
            ("stuck_at", pair(self.stuck_at)),
            ("transition", pair(self.transition)),
        ])
    }

    fn from_json(v: &Value) -> Option<Cell> {
        let pair = |v: &Value| {
            Some((
                v.get("coverage")?.as_f64()?,
                v.get("patterns")?.as_u64()? as usize,
            ))
        };
        Some(Cell {
            reused: v.get("reused")?.as_u64()? as usize,
            additional: v.get("additional")?.as_u64()? as usize,
            stuck_at: pair(v.get("stuck_at")?)?,
            transition: pair(v.get("transition")?)?,
        })
    }
}

/// One die row.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"b21 Die2"`.
    pub label: String,
    /// Overlapped-cone sharing disabled.
    pub no_overlap: Cell,
    /// Overlapped-cone sharing enabled.
    pub overlap: Cell,
}

impl Row {
    /// Checkpoint codec: serialize for the resume log.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("label", self.label.as_str().into()),
            ("no_overlap", self.no_overlap.to_json()),
            ("overlap", self.overlap.to_json()),
        ])
    }

    /// Checkpoint codec: revive a row from the resume log.
    pub fn from_json(v: &Value) -> Option<Row> {
        Some(Row {
            label: v.get("label")?.as_str()?.to_string(),
            no_overlap: Cell::from_json(v.get("no_overlap")?)?,
            overlap: Cell::from_json(v.get("overlap")?)?,
        })
    }
}

/// Ours under tight timing with overlapped-cone sharing forced off or on.
fn overlap_config(allow_overlap: bool) -> FlowConfig {
    FlowConfig {
        method: Method::Ours,
        scenario: Scenario::Tight,
        ordering: None,
        allow_overlap: Some(allow_overlap),
    }
}

/// Table V's hardware columns for one die and overlap setting, plus the
/// sharing-graph edges Fig. 7 sums; no ATPG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hardware {
    /// Reused scan flip-flops.
    pub reused: usize,
    /// Additional wrapper cells.
    pub additional: usize,
    /// Sharing-graph edges over both phases.
    pub edges: usize,
}

/// Run the flow behind one [`Hardware`] cell.
///
/// # Errors
///
/// The flow's failures and its slack contract's.
pub fn hardware(case: &DieCase, lib: &Library, allow_overlap: bool) -> Result<Hardware, FlowError> {
    let config = overlap_config(allow_overlap);
    let r = checked_run_flow(&case.label(), &case.netlist, &case.placement, lib, &config)?;
    Ok(Hardware {
        reused: r.reused_scan_ffs,
        additional: r.additional_wrapper_cells,
        edges: r.phases.iter().map(|p| p.edges).sum(),
    })
}

fn measure(case: &DieCase, allow_overlap: bool, atpg: &AtpgConfig) -> Cell {
    let lib = context::library();
    let config = overlap_config(allow_overlap);
    let r = checked_run_flow(&case.label(), &case.netlist, &case.placement, &lib, &config)
        .expect("flow runs and meets its slack contract");
    let access = prebond_access(&r.testable);
    // Huge dies get size-scaled deterministic effort (PODEM implication is
    // linear in gate count, so the b18 dies would otherwise dominate).
    let scaled = AtpgConfig::scaled_for(r.testable.netlist.len());
    let atpg = if r.testable.netlist.len() > 15_000 {
        &scaled
    } else {
        atpg
    };
    let sa = run_stuck_at(&r.testable.netlist, &access, atpg);
    let tr = run_transition(&r.testable.netlist, &access, atpg);
    Cell {
        reused: r.reused_scan_ffs,
        additional: r.additional_wrapper_cells,
        stuck_at: (sa.test_coverage(), sa.pattern_count()),
        transition: (tr.test_coverage(), tr.pattern_count()),
    }
}

/// Run for one die.
pub fn run_die(case: &DieCase, atpg: &AtpgConfig) -> Row {
    Row {
        label: case.label(),
        no_overlap: measure(case, false, atpg),
        overlap: measure(case, true, atpg),
    }
}

/// The paper's Table V circuits, intersected with the selection; one pool
/// worker per die.
pub fn run(atpg: &AtpgConfig) -> Vec<Row> {
    let names: Vec<&'static str> = context::circuit_names()
        .into_iter()
        .filter(|n| matches!(*n, "b20" | "b21" | "b22"))
        .collect();
    let cases = context::load_circuits(&names);
    crate::report::resilient_par_die_scopes(
        "table5",
        &cases,
        DieCase::label,
        |case| run_die(case, atpg),
        Row::to_json,
        Row::from_json,
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Render paper-style.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table V — with/without overlapped fan-in/fan-out cones (tight timing)"
    );
    let _ = writeln!(
        out,
        "{:<12} | {:>4} {:>5} {:>16} {:>16} | {:>4} {:>5} {:>16} {:>16}",
        "",
        "FF",
        "cells",
        "no-ovl stuck-at",
        "no-ovl trans",
        "FF",
        "cells",
        "ovl stuck-at",
        "ovl trans"
    );
    let c = |x: (f64, usize)| format!("({}, {})", crate::pct(x.0), x.1);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} | {:>4} {:>5} {:>16} {:>16} | {:>4} {:>5} {:>16} {:>16}",
            r.label,
            r.no_overlap.reused,
            r.no_overlap.additional,
            c(r.no_overlap.stuck_at),
            c(r.no_overlap.transition),
            r.overlap.reused,
            r.overlap.additional,
            c(r.overlap.stuck_at),
            c(r.overlap.transition),
        );
    }
    let n = rows.len().max(1) as f64;
    let no_cells = rows
        .iter()
        .map(|r| r.no_overlap.additional as f64)
        .sum::<f64>()
        / n;
    let ov_cells = rows
        .iter()
        .map(|r| r.overlap.additional as f64)
        .sum::<f64>()
        / n;
    let no_ff = rows.iter().map(|r| r.no_overlap.reused as f64).sum::<f64>() / n;
    let ov_ff = rows.iter().map(|r| r.overlap.reused as f64).sum::<f64>() / n;
    let _ = writeln!(
        out,
        "Average: reused {no_ff:.2} → {ov_ff:.2} ({:+.2}%), additional {no_cells:.2} → {ov_cells:.2} ({:+.2}%); paper: +0.90% / −2.02%",
        100.0 * (ov_ff - no_ff) / no_ff.max(1e-9),
        100.0 * (ov_cells - no_cells) / no_cells.max(1e-9),
    );
    out
}
