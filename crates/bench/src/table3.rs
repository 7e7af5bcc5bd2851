//! Table III: reused scan flip-flops and additional wrapper cells under
//! the area-optimized (no timing) and performance-optimized (tight timing)
//! scenarios, Agrawal vs. Ours, with timing-violation flags.

use std::fmt::Write as _;

use prebond3d_obs::json::Value;
use prebond3d_wcm::flow::{FlowConfig, Method, Scenario};

use crate::context::{self, checked_run_flow, DieCase};

/// One die's results across the four (method, scenario) cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"b12 Die1"`.
    pub label: String,
    /// (reused, additional) for Agrawal, no timing.
    pub agrawal_area: (usize, usize),
    /// (reused, additional) for Ours, no timing.
    pub ours_area: (usize, usize),
    /// (reused, additional, violation) for Agrawal, tight timing.
    pub agrawal_tight: (usize, usize, bool),
    /// (reused, additional, violation) for Ours, tight timing.
    pub ours_tight: (usize, usize, bool),
}

impl Row {
    /// Checkpoint codec: serialize for the resume log.
    pub fn to_json(&self) -> Value {
        let area = |(reused, additional): (usize, usize)| {
            Value::obj([("reused", reused.into()), ("additional", additional.into())])
        };
        let tight = |(reused, additional, violation): (usize, usize, bool)| {
            Value::obj([
                ("reused", reused.into()),
                ("additional", additional.into()),
                ("violation", violation.into()),
            ])
        };
        Value::obj([
            ("label", self.label.as_str().into()),
            ("agrawal_area", area(self.agrawal_area)),
            ("ours_area", area(self.ours_area)),
            ("agrawal_tight", tight(self.agrawal_tight)),
            ("ours_tight", tight(self.ours_tight)),
        ])
    }

    /// Checkpoint codec: revive a row from the resume log.
    pub fn from_json(v: &Value) -> Option<Row> {
        let area = |v: &Value| {
            Some((
                v.get("reused")?.as_u64()? as usize,
                v.get("additional")?.as_u64()? as usize,
            ))
        };
        let tight = |v: &Value| {
            Some((
                v.get("reused")?.as_u64()? as usize,
                v.get("additional")?.as_u64()? as usize,
                v.get("violation")?.as_bool()?,
            ))
        };
        Some(Row {
            label: v.get("label")?.as_str()?.to_string(),
            agrawal_area: area(v.get("agrawal_area")?)?,
            ours_area: area(v.get("ours_area")?)?,
            agrawal_tight: tight(v.get("agrawal_tight")?)?,
            ours_tight: tight(v.get("ours_tight")?)?,
        })
    }
}

/// Run the Table III experiment for one die.
pub fn run_die(case: &DieCase) -> Row {
    let lib = context::library();
    let get = |method: Method, scenario: Scenario| {
        let config = FlowConfig {
            method,
            scenario,
            ordering: None,
            allow_overlap: None,
        };
        let r = checked_run_flow(&case.label(), &case.netlist, &case.placement, &lib, &config)
            .expect("flow runs on benchmark dies and meets its slack contract");
        (
            r.reused_scan_ffs,
            r.additional_wrapper_cells,
            r.timing_violation,
        )
    };
    let aa = get(Method::Agrawal, Scenario::Area);
    let oa = get(Method::Ours, Scenario::Area);
    let at = get(Method::Agrawal, Scenario::Tight);
    let ot = get(Method::Ours, Scenario::Tight);
    Row {
        label: case.label(),
        agrawal_area: (aa.0, aa.1),
        ours_area: (oa.0, oa.1),
        agrawal_tight: at,
        ours_tight: ot,
    }
}

/// Run over the selected benchmark set, one pool worker per die —
/// panic-isolated and checkpointed.
pub fn run() -> Vec<Row> {
    let cases = context::load_circuits(&context::circuit_names());
    crate::report::resilient_par_die_scopes(
        "table3",
        &cases,
        DieCase::label,
        run_die,
        Row::to_json,
        Row::from_json,
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Aggregate means and violation counts, paper-style.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Mean (reused, additional) per cell of the table.
    pub agrawal_area: (f64, f64),
    /// Ours, area.
    pub ours_area: (f64, f64),
    /// Agrawal tight + violation count.
    pub agrawal_tight: (f64, f64, usize),
    /// Ours tight + violation count.
    pub ours_tight: (f64, f64, usize),
    /// Number of dies.
    pub dies: usize,
}

/// Summarize rows.
pub fn summarize(rows: &[Row]) -> Summary {
    let n = rows.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Row) -> usize| rows.iter().map(|r| f(r) as f64).sum::<f64>() / n;
    Summary {
        agrawal_area: (mean(&|r| r.agrawal_area.0), mean(&|r| r.agrawal_area.1)),
        ours_area: (mean(&|r| r.ours_area.0), mean(&|r| r.ours_area.1)),
        agrawal_tight: (
            mean(&|r| r.agrawal_tight.0),
            mean(&|r| r.agrawal_tight.1),
            rows.iter().filter(|r| r.agrawal_tight.2).count(),
        ),
        ours_tight: (
            mean(&|r| r.ours_tight.0),
            mean(&|r| r.ours_tight.1),
            rows.iter().filter(|r| r.ours_tight.2).count(),
        ),
        dies: rows.len(),
    }
}

/// Render the table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III — #reused scan FFs / #additional wrapper cells (V = timing violation)"
    );
    let _ = writeln!(
        out,
        "{:<12} | {:>13} | {:>13} | {:>15} | {:>15}",
        "", "Agrawal(area)", "Ours(area)", "Agrawal(tight)", "Ours(tight)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} | {:>6}/{:<6} | {:>6}/{:<6} | {:>5}/{:<5} {:>3} | {:>5}/{:<5} {:>3}",
            r.label,
            r.agrawal_area.0,
            r.agrawal_area.1,
            r.ours_area.0,
            r.ours_area.1,
            r.agrawal_tight.0,
            r.agrawal_tight.1,
            if r.agrawal_tight.2 { "V" } else { "-" },
            r.ours_tight.0,
            r.ours_tight.1,
            if r.ours_tight.2 { "V" } else { "-" },
        );
    }
    let s = summarize(rows);
    let _ = writeln!(
        out,
        "{:<12} | {:>6.1}/{:<6.1} | {:>6.1}/{:<6.1} | {:>5.1}/{:<5.1} {:>2}/{} | {:>5.1}/{:<5.1} {:>2}/{}",
        "Average",
        s.agrawal_area.0,
        s.agrawal_area.1,
        s.ours_area.0,
        s.ours_area.1,
        s.agrawal_tight.0,
        s.agrawal_tight.1,
        s.agrawal_tight.2,
        s.dies,
        s.ours_tight.0,
        s.ours_tight.1,
        s.ours_tight.2,
        s.dies,
    );
    if s.agrawal_area.1 > 0.0 {
        let _ = writeln!(
            out,
            "Ours(area) inserts {:.2}% of Agrawal's additional cells; paper: 93.99%",
            100.0 * s.ours_area.1 / s.agrawal_area.1
        );
    }
    out
}
