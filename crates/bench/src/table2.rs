//! Table II: characteristics of the benchmark dies.
//!
//! For the synthetic instances this is reproduction *by construction* —
//! the generator is parameterized by the published counts — so the table
//! doubles as a self-check that the workload matches the paper exactly.

use std::fmt::Write as _;

use prebond3d_obs::json::Value;

use crate::context::{self, DieCase};

/// One die row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// `"b12 Die1"`.
    pub label: String,
    /// Scan flip-flops.
    pub scan_ffs: usize,
    /// Combinational gates.
    pub gates: usize,
    /// Total TSVs.
    pub tsvs: usize,
    /// Inbound TSVs.
    pub inbound: usize,
    /// Outbound TSVs.
    pub outbound: usize,
}

impl Row {
    /// Checkpoint codec: serialize for the resume log.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("label", self.label.as_str().into()),
            ("scan_ffs", self.scan_ffs.into()),
            ("gates", self.gates.into()),
            ("tsvs", self.tsvs.into()),
            ("inbound", self.inbound.into()),
            ("outbound", self.outbound.into()),
        ])
    }

    /// Checkpoint codec: revive a row from the resume log.
    pub fn from_json(v: &Value) -> Option<Row> {
        let n = |key: &str| v.get(key)?.as_u64().map(|x| x as usize);
        Some(Row {
            label: v.get("label")?.as_str()?.to_string(),
            scan_ffs: n("scan_ffs")?,
            gates: n("gates")?,
            tsvs: n("tsvs")?,
            inbound: n("inbound")?,
            outbound: n("outbound")?,
        })
    }
}

/// One die's row.
pub fn row(case: &DieCase) -> Row {
    let s = case.netlist.stats();
    Row {
        label: case.label(),
        scan_ffs: s.scan_flip_flops,
        gates: s.combinational_gates,
        tsvs: s.tsvs(),
        inbound: s.inbound_tsvs,
        outbound: s.outbound_tsvs,
    }
}

/// Collect rows for the selected circuits (die generation + placement is
/// the work here, parallelized inside [`context::load_circuits`]).
pub fn run() -> Vec<Row> {
    let cases = context::load_circuits(&context::circuit_names());
    crate::report::resilient_par_die_scopes(
        "table2",
        &cases,
        DieCase::label,
        row,
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
    let _ = writeln!(out, "Table II — benchmark-die characteristics");
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>8} {:>7} {:>9} {:>10}",
        "", "#scan FFs", "#gates", "#TSVs", "#inbound", "#outbound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>9} {:>8} {:>7} {:>9} {:>10}",
            r.label, r.scan_ffs, r.gates, r.tsvs, r.inbound, r.outbound
        );
    }
    let n = rows.len().max(1) as f64;
    let _ = writeln!(
        out,
        "{:<12} {:>9.2} {:>8.2} {:>7.2} {:>9.2} {:>10.2}",
        "Average",
        rows.iter().map(|r| r.scan_ffs as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.gates as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.tsvs as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.inbound as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.outbound as f64).sum::<f64>() / n,
    );
    out
}
