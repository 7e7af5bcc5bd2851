//! Table IV: fault coverage and pattern counts under tight timing.
//!
//! Stuck-at and transition-fault ATPG on the testable netlists produced by
//! Agrawal's method and ours (performance-optimized scenario). The paper's
//! claim: equal coverage, slightly fewer patterns for ours.

use std::fmt::Write as _;

use prebond3d_atpg::engine::{run_stuck_at, run_transition, AtpgConfig};
use prebond3d_dft::prebond_access;
use prebond3d_obs::json::Value;
use prebond3d_wcm::flow::{FlowConfig, Method};

use crate::context::{self, checked_run_flow, DieCase};

/// Coverage/pattern numbers for one method on one die.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
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
            stuck_at: pair(v.get("stuck_at")?)?,
            transition: pair(v.get("transition")?)?,
        })
    }
}

/// One die row.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"b20 Die1"`.
    pub label: String,
    /// Agrawal's numbers.
    pub agrawal: Cell,
    /// Ours.
    pub ours: Cell,
}

impl Row {
    /// Checkpoint codec: serialize for the resume log.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("label", self.label.as_str().into()),
            ("agrawal", self.agrawal.to_json()),
            ("ours", self.ours.to_json()),
        ])
    }

    /// Checkpoint codec: revive a row from the resume log.
    pub fn from_json(v: &Value) -> Option<Row> {
        Some(Row {
            label: v.get("label")?.as_str()?.to_string(),
            agrawal: Cell::from_json(v.get("agrawal")?)?,
            ours: Cell::from_json(v.get("ours")?)?,
        })
    }
}

fn measure(case: &DieCase, method: Method, atpg: &AtpgConfig) -> Cell {
    let lib = context::library();
    let r = checked_run_flow(
        &case.label(),
        &case.netlist,
        &case.placement,
        &lib,
        &FlowConfig::performance_optimized(method),
    )
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
        stuck_at: (sa.test_coverage(), sa.pattern_count()),
        transition: (tr.test_coverage(), tr.pattern_count()),
    }
}

/// Run for one die.
pub fn run_die(case: &DieCase, atpg: &AtpgConfig) -> Row {
    Row {
        label: case.label(),
        agrawal: measure(case, Method::Agrawal, atpg),
        ours: measure(case, Method::Ours, atpg),
    }
}

/// Run over the selected circuits, one pool worker per die —
/// panic-isolated and checkpointed.
pub fn run(atpg: &AtpgConfig) -> Vec<Row> {
    let cases = context::load_circuits(&context::circuit_names());
    crate::report::resilient_par_die_scopes(
        "table4",
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

/// Render paper-style `(coverage, #patterns)` cells.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table IV — fault coverage and pattern count (tight timing)"
    );
    let _ = writeln!(
        out,
        "{:<12} | {:>18} {:>18} | {:>18} {:>18}",
        "", "Agrawal stuck-at", "Agrawal transition", "Ours stuck-at", "Ours transition"
    );
    let cell = |c: (f64, usize)| format!("({}, {})", crate::pct(c.0), c.1);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} | {:>18} {:>18} | {:>18} {:>18}",
            r.label,
            cell(r.agrawal.stuck_at),
            cell(r.agrawal.transition),
            cell(r.ours.stuck_at),
            cell(r.ours.transition),
        );
    }
    let n = rows.len().max(1) as f64;
    let avg = |f: &dyn Fn(&Row) -> (f64, usize)| {
        (
            rows.iter().map(|r| f(r).0).sum::<f64>() / n,
            rows.iter().map(|r| f(r).1 as f64).sum::<f64>() / n,
        )
    };
    let (asc, asp) = avg(&|r| r.agrawal.stuck_at);
    let (atc, atp) = avg(&|r| r.agrawal.transition);
    let (osc, osp) = avg(&|r| r.ours.stuck_at);
    let (otc, otp) = avg(&|r| r.ours.transition);
    let _ = writeln!(
        out,
        "{:<12} | ({}, {:.2}) ({}, {:.2}) | ({}, {:.2}) ({}, {:.2})",
        "Average",
        crate::pct(asc),
        asp,
        crate::pct(atc),
        atp,
        crate::pct(osc),
        osp,
        crate::pct(otc),
        otp,
    );
    let _ = writeln!(
        out,
        "coverage delta (ours − Agrawal): stuck-at {:+.3}%, transition {:+.3}%",
        100.0 * (osc - asc),
        100.0 * (otc - atc),
    );
    out
}
