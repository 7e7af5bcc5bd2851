//! Table I: the TSV-set-ordering study.
//!
//! Runs Agrawal's method on the b12 dies starting from the inbound set
//! versus the outbound set, measuring post-wrapping stuck-at fault
//! coverage and the number of additional wrapper cells — the motivation
//! for the paper's larger-set-first rule.

use std::fmt::Write as _;

use prebond3d_atpg::engine::{run_stuck_at, AtpgConfig};
use prebond3d_dft::prebond_access;
use prebond3d_obs::json::Value;
use prebond3d_wcm::flow::{FlowConfig, Method, Scenario};
use prebond3d_wcm::OrderingPolicy;

use crate::context::{self, checked_run_flow, DieCase};

/// One die's two ordering outcomes.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"b12 Die1"`.
    pub label: String,
    /// Inbound TSVs on the die.
    pub inbound: usize,
    /// Outbound TSVs on the die.
    pub outbound: usize,
    /// (fault coverage, additional wrapper cells) starting from inbound.
    pub from_inbound: (f64, usize),
    /// (fault coverage, additional wrapper cells) starting from outbound.
    pub from_outbound: (f64, usize),
}

impl Row {
    /// Checkpoint codec: serialize for the resume log.
    pub fn to_json(&self) -> Value {
        let pair = |(cov, cells): (f64, usize)| {
            Value::obj([("coverage", cov.into()), ("cells", cells.into())])
        };
        Value::obj([
            ("label", self.label.as_str().into()),
            ("inbound", self.inbound.into()),
            ("outbound", self.outbound.into()),
            ("from_inbound", pair(self.from_inbound)),
            ("from_outbound", pair(self.from_outbound)),
        ])
    }

    /// Checkpoint codec: revive a row from the resume log.
    pub fn from_json(v: &Value) -> Option<Row> {
        let pair = |v: &Value| {
            Some((
                v.get("coverage")?.as_f64()?,
                v.get("cells")?.as_u64()? as usize,
            ))
        };
        Some(Row {
            label: v.get("label")?.as_str()?.to_string(),
            inbound: v.get("inbound")?.as_u64()? as usize,
            outbound: v.get("outbound")?.as_u64()? as usize,
            from_inbound: pair(v.get("from_inbound")?)?,
            from_outbound: pair(v.get("from_outbound")?)?,
        })
    }
}

/// Run the ordering study for one die.
pub fn run_die(case: &DieCase, atpg: &AtpgConfig) -> Row {
    let lib = context::library();
    let measure = |ordering: OrderingPolicy| {
        let config = FlowConfig {
            method: Method::Agrawal,
            scenario: Scenario::Area,
            ordering: Some(ordering),
            allow_overlap: None,
        };
        let r = checked_run_flow(&case.label(), &case.netlist, &case.placement, &lib, &config)
            .expect("flow runs and meets its slack contract");
        let access = prebond_access(&r.testable);
        let atpg_result = run_stuck_at(&r.testable.netlist, &access, atpg);
        (atpg_result.test_coverage(), r.additional_wrapper_cells)
    };
    let stats = case.netlist.stats();
    Row {
        label: case.label(),
        inbound: stats.inbound_tsvs,
        outbound: stats.outbound_tsvs,
        from_inbound: measure(OrderingPolicy::InboundFirst),
        from_outbound: measure(OrderingPolicy::OutboundFirst),
    }
}

/// Run over the paper's Table I workload (b12, all four dies), one pool
/// worker per die — panic-isolated and checkpointed, so a failed die is
/// reported and the rest of the table still renders.
pub fn run(atpg: &AtpgConfig) -> Vec<Row> {
    let cases = context::load_circuit("b12");
    crate::report::resilient_par_die_scopes(
        "table1",
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
        "Table I — starting from inbound vs outbound TSVs (Agrawal's method)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>5} {:>5} | {:>10} {:>7} | {:>10} {:>7}",
        "", "#in", "#out", "cov(in)", "#cells", "cov(out)", "#cells"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>5} {:>5} | {:>10} {:>7} | {:>10} {:>7}",
            r.label,
            r.inbound,
            r.outbound,
            crate::pct(r.from_inbound.0),
            r.from_inbound.1,
            crate::pct(r.from_outbound.0),
            r.from_outbound.1,
        );
    }
    // The paper's takeaway: the larger set first is at least as good.
    let better = rows
        .iter()
        .filter(|r| {
            let larger_first = if r.outbound > r.inbound {
                r.from_outbound
            } else {
                r.from_inbound
            };
            let smaller_first = if r.outbound > r.inbound {
                r.from_inbound
            } else {
                r.from_outbound
            };
            larger_first.1 <= smaller_first.1
        })
        .count();
    let _ = writeln!(
        out,
        "larger-set-first inserts no more cells on {better}/{} dies",
        rows.len()
    );
    out
}
