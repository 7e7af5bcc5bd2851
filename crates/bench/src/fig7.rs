//! Fig. 7: graph-edge growth from allowing overlapped cones.
//!
//! Builds both sharing graphs (without and with overlapped-cone edges)
//! under the performance-optimized scenario and reports the per-circuit
//! edge-count increase; the paper measures +2.83 % on average.

use std::fmt::Write as _;

use prebond3d_obs::json::Value;

use crate::{context, table5};

/// One circuit's edge counts (summed over dies and both phases).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Circuit name.
    pub circuit: &'static str,
    /// Edges with overlapped-cone sharing disabled.
    pub edges_without: usize,
    /// Edges with overlapped-cone sharing enabled.
    pub edges_with: usize,
}

impl Row {
    /// Percentage growth of the solution space.
    pub fn growth_pct(&self) -> f64 {
        if self.edges_without == 0 {
            return 0.0;
        }
        100.0 * (self.edges_with as f64 - self.edges_without as f64) / self.edges_without as f64
    }
}

/// Run over the selected circuits; dies run on the pool, per-circuit
/// sums fold over the submission-ordered results.
pub fn run() -> Vec<Row> {
    let lib = context::library();
    let mut rows = Vec::new();
    for name in context::circuit_names() {
        let cases = context::load_circuit(name);
        let per_die = crate::report::resilient_par_die_scopes(
            "fig7",
            &cases,
            crate::DieCase::label,
            |case| {
                let [wo, w] = [false, true].map(|allow| {
                    table5::hardware(case, &lib, allow)
                        .expect("flow runs and meets its slack contract")
                        .edges
                });
                (w, wo)
            },
            |&(w, wo)| Value::obj([("with", w.into()), ("without", wo.into())]),
            |v| {
                Some((
                    v.get("with")?.as_u64()? as usize,
                    v.get("without")?.as_u64()? as usize,
                ))
            },
        );
        let (with, without) = per_die
            .into_iter()
            .flatten()
            .fold((0, 0), |(aw, awo), (w, wo)| (aw + w, awo + wo));
        rows.push(Row {
            circuit: name,
            edges_without: without,
            edges_with: with,
        });
    }
    rows
}

/// Render as a text bar chart.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 7 — sharing-graph edges gained by allowing overlapped cones"
    );
    for r in rows {
        let pct = r.growth_pct();
        let bar = "#".repeat((pct * 4.0).round().max(0.0) as usize);
        let _ = writeln!(
            out,
            "{:<5} {:>7} → {:>7} edges  {:>6.2}% {}",
            r.circuit, r.edges_without, r.edges_with, pct, bar
        );
    }
    let n = rows.len().max(1) as f64;
    let avg = rows.iter().map(Row::growth_pct).sum::<f64>() / n;
    let _ = writeln!(out, "average growth: {avg:.2}% (paper: +2.83%)");
    out
}
