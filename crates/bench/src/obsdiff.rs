//! Report diffing: align two run/BENCH reports and gate regressions.
//!
//! This is the library behind the `obs-diff` binary, which replaces the
//! hand-rolled python comparison the CI perf-smoke job used to inline.
//! Given a *baseline* and a *current* report (either `BENCH_<exp>.json`
//! or `run_<exp>.json` — the document shape is sniffed per block), it
//! aligns:
//!
//! * `work[]` rows by `(counter, substrate)` — the deterministic
//!   work-counter measurements. Rows whose counter is in
//!   [`GATED_COUNTERS`] are **gated**: a current `optimized` value more
//!   than `threshold_pct` percent above the baseline, or a gated row
//!   missing from the current report, is a regression. Rows in
//!   [`FLOOR_GATED_COUNTERS`] gate the other direction: the counter
//!   measures work *avoided* (statically pruned faults), so a shrink
//!   beyond the threshold means the analysis went blind. Cache hit/miss
//!   rows stay informational (more hits is *better*).
//! * `phases[]` rows by span path — `count` and `ms` plus the latency
//!   quantiles, informational (wall clocks are machine-dependent, and
//!   CI runs them zeroed under `PREBOND3D_STABLE_MS` anyway).
//! * `hists` entries by name (run reports) — sample counts and quantiles,
//!   informational.
//! * `counters` summed across `sections[]` (run reports), informational.
//! * `mem` fields, informational.
//!
//! [`DiffReport::regressed`] drives the binary's exit code: 0 clean,
//! 1 regression, 2 usage/parse error.

use prebond3d_obs::json::Value;

/// Deterministic work counters whose growth fails the gate. Matches the
/// set the perf experiment records via `report::record_work` plus the
/// serving loadgen's miss counter (`BENCH_serve.json`): a cold rebuild
/// that should have been a warm hit is a regression, while hit/eviction
/// rows stay informational (more hits is *better*).
pub const GATED_COUNTERS: [&str; 6] = [
    "atpg.gate_evals",
    "atpg.pattern_batches",
    "podem.implication_evals",
    "graph.cone_word_ops",
    "clique.candidate_rescores",
    "serve.cache_misses",
];

/// Deterministic counters whose *shrink* fails the gate: they measure
/// work statically avoided (dataflow-pruned faults) or robustness
/// machinery exercised (journal orphans replayed, over-limit submits
/// shed), so a drop below the baseline by more than the threshold means
/// the analysis went blind — or the crash-recovery / backpressure
/// drills silently stopped covering what they used to.
pub const FLOOR_GATED_COUNTERS: [&str; 3] = [
    "atpg.faults_pruned",
    "serve.recovered",
    "serve.shed",
];

/// One aligned comparison row.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Block the row came from: `work`, `phase`, `hist`, `counter`, `mem`.
    pub kind: &'static str,
    /// Alignment key (`atpg.gate_evals on b12_die0`, `flow/plan`, …).
    pub key: String,
    /// Baseline value, when present.
    pub base: Option<f64>,
    /// Current value, when present.
    pub current: Option<f64>,
    /// Is this row held to the threshold?
    pub gated: bool,
    /// Did this row fail the gate?
    pub regressed: bool,
}

impl DiffRow {
    /// Relative change in percent (`None` without both sides or with a
    /// zero baseline).
    pub fn delta_pct(&self) -> Option<f64> {
        match (self.base, self.current) {
            (Some(b), Some(c)) if b != 0.0 => Some((c - b) / b * 100.0),
            _ => None,
        }
    }
}

/// The aligned diff of two reports.
#[derive(Debug)]
pub struct DiffReport {
    /// All aligned rows, gated first, each block in key order.
    pub rows: Vec<DiffRow>,
    /// The threshold applied to gated rows, in percent.
    pub threshold_pct: f64,
}

impl DiffReport {
    /// Did any gated row regress?
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    v.as_f64()
}

/// `work[]` → `(counter, substrate) → optimized`, in document order.
fn work_rows(doc: &Value) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    if let Some(Value::Arr(rows)) = doc.get("work") {
        for w in rows {
            if let (Some(counter), Some(substrate), Some(opt)) = (
                w.get("counter").and_then(Value::as_str),
                w.get("substrate").and_then(Value::as_str),
                w.get("optimized").and_then(as_f64),
            ) {
                out.push((counter.to_string(), substrate.to_string(), opt));
            }
        }
    }
    out
}

/// `phases[]` → `path → map of numeric fields`.
fn phase_rows(doc: &Value) -> Vec<(String, Vec<(String, f64)>)> {
    let mut out = Vec::new();
    if let Some(Value::Arr(rows)) = doc.get("phases") {
        for p in rows {
            let Some(path) = p.get("path").and_then(Value::as_str) else {
                continue;
            };
            let mut fields = Vec::new();
            if let Value::Obj(map) = p {
                for (k, v) in map {
                    if k != "path" {
                        if let Some(n) = as_f64(v) {
                            fields.push((k.clone(), n));
                        }
                    }
                }
            }
            out.push((path.to_string(), fields));
        }
    }
    out
}

/// Top-level `hists` → `name → (count, p50, p95, p99)` rows flattened to
/// `name.field`.
fn hist_rows(doc: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(Value::Obj(map)) = doc.get("hists") {
        for (name, h) in map {
            for field in ["count", "p50", "p95", "p99"] {
                if let Some(n) = h.get(field).and_then(as_f64) {
                    out.push((format!("{name}.{field}"), n));
                }
            }
        }
    }
    out
}

/// Counters summed across `sections[]` (run reports).
fn counter_rows(doc: &Value) -> Vec<(String, f64)> {
    let mut sums: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
    if let Some(Value::Arr(sections)) = doc.get("sections") {
        for s in sections {
            if let Some(Value::Obj(counters)) = s.get("counters") {
                for (k, v) in counters {
                    if let Some(n) = as_f64(v) {
                        *sums.entry(k.clone()).or_insert(0.0) += n;
                    }
                }
            }
        }
    }
    sums.into_iter().collect()
}

/// `mem` block numeric fields.
fn mem_rows(doc: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(Value::Obj(map)) = doc.get("mem") {
        for (k, v) in map {
            if let Some(n) = as_f64(v) {
                out.push((k.clone(), n));
            }
        }
    }
    out
}

fn align(
    kind: &'static str,
    base: Vec<(String, f64)>,
    current: Vec<(String, f64)>,
    rows: &mut Vec<DiffRow>,
) {
    let cur: std::collections::BTreeMap<_, _> = current.iter().cloned().collect();
    let base_keys: std::collections::BTreeSet<_> = base.iter().map(|(k, _)| k.clone()).collect();
    for (key, b) in base {
        rows.push(DiffRow {
            kind,
            key: key.clone(),
            base: Some(b),
            current: cur.get(&key).copied(),
            gated: false,
            regressed: false,
        });
    }
    for (key, c) in current {
        if !base_keys.contains(&key) {
            rows.push(DiffRow {
                kind,
                key,
                base: None,
                current: Some(c),
                gated: false,
                regressed: false,
            });
        }
    }
}

/// Align `base` and `current` report documents and apply the gate.
/// `threshold_pct` is the allowed growth of a gated work counter, in
/// percent (the CI gate uses 20).
pub fn diff(base: &Value, current: &Value, threshold_pct: f64) -> DiffReport {
    let mut rows = Vec::new();

    // Gated block first: work counters by (counter, substrate).
    let base_work = work_rows(base);
    let cur_work: std::collections::BTreeMap<(String, String), f64> = work_rows(current)
        .into_iter()
        .map(|(c, s, v)| ((c, s), v))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    for (counter, substrate, b) in base_work {
        let key = (counter.clone(), substrate.clone());
        seen.insert(key.clone());
        let floor = FLOOR_GATED_COUNTERS.contains(&counter.as_str());
        let gated = floor || GATED_COUNTERS.contains(&counter.as_str());
        let current_v = cur_work.get(&key).copied();
        let regressed = gated
            && match current_v {
                None => true, // a gated measurement vanished
                Some(c) if floor => c < b * (1.0 - threshold_pct / 100.0),
                Some(c) => c > b * (1.0 + threshold_pct / 100.0),
            };
        rows.push(DiffRow {
            kind: "work",
            key: format!("{counter} on {substrate}"),
            base: Some(b),
            current: current_v,
            gated,
            regressed,
        });
    }
    for ((counter, substrate), c) in &cur_work {
        if !seen.contains(&(counter.clone(), substrate.clone())) {
            rows.push(DiffRow {
                kind: "work",
                key: format!("{counter} on {substrate}"),
                base: None,
                current: Some(*c),
                gated: false,
                regressed: false,
            });
        }
    }

    // Informational blocks.
    let flatten = |rows: Vec<(String, Vec<(String, f64)>)>| -> Vec<(String, f64)> {
        rows.into_iter()
            .flat_map(|(path, fields)| {
                fields
                    .into_iter()
                    .map(move |(k, v)| (format!("{path}.{k}"), v))
            })
            .collect()
    };
    align(
        "phase",
        flatten(phase_rows(base)),
        flatten(phase_rows(current)),
        &mut rows,
    );
    align("hist", hist_rows(base), hist_rows(current), &mut rows);
    align(
        "counter",
        counter_rows(base),
        counter_rows(current),
        &mut rows,
    );
    align("mem", mem_rows(base), mem_rows(current), &mut rows);

    DiffReport {
        rows,
        threshold_pct,
    }
}

/// Render the diff as the table the CI log shows. Gated rows print
/// `ok`/`REGRESSED`/`MISSING`; informational rows print their delta.
pub fn render(report: &DiffReport) -> String {
    let mut out = String::new();
    let fmt_v = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |n| format!("{n:.0}"));
    for r in &report.rows {
        let status = if r.regressed {
            if r.current.is_none() {
                "MISSING"
            } else {
                "REGRESSED"
            }
        } else if r.gated {
            "ok"
        } else {
            "info"
        };
        let delta = r
            .delta_pct()
            .map_or_else(String::new, |d| format!(" ({d:+.1}%)"));
        out.push_str(&format!(
            "{status:>9}  [{}] {}: {} -> {}{delta}\n",
            r.kind,
            r.key,
            fmt_v(r.base),
            fmt_v(r.current),
        ));
    }
    let gated = report.rows.iter().filter(|r| r.gated).count();
    let failed = report.rows.iter().filter(|r| r.regressed).count();
    out.push_str(&format!(
        "{gated} gated row(s) at +{:.0}% threshold, {failed} regression(s)\n",
        report.threshold_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc(evals: u64, include_cone: bool) -> Value {
        let mut work = vec![Value::obj([
            ("counter", "atpg.gate_evals".into()),
            ("substrate", "b12_die0".into()),
            ("reference", 1000u64.into()),
            ("optimized", evals.into()),
            ("reduction", 0.5.into()),
        ])];
        if include_cone {
            work.push(Value::obj([
                ("counter", "graph.cone_word_ops".into()),
                ("substrate", "b12_die0".into()),
                ("reference", 500u64.into()),
                ("optimized", 100u64.into()),
                ("reduction", 0.8.into()),
            ]));
        }
        work.push(Value::obj([
            ("counter", "probe.cache_hits".into()),
            ("substrate", "b12_die0".into()),
            ("reference", 0u64.into()),
            ("optimized", 40u64.into()),
            ("reduction", 0.0.into()),
        ]));
        Value::obj([
            ("experiment", "perf".into()),
            ("work", Value::Arr(work)),
            (
                "phases",
                Value::Arr(vec![Value::obj([
                    ("path", "flow".into()),
                    ("count", 2u64.into()),
                    ("ms", 12.5.into()),
                    ("p50_ns", 1000u64.into()),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let base = bench_doc(400, true);
        let report = diff(&base, &bench_doc(400, true), 20.0);
        assert!(!report.regressed());
        assert!(report.rows.iter().any(|r| r.gated));
        let rendered = render(&report);
        assert!(rendered.contains("0 regression(s)"), "{rendered}");
    }

    #[test]
    fn gated_growth_beyond_threshold_regresses() {
        let base = bench_doc(400, true);
        // +25% > the 20% threshold.
        let report = diff(&base, &bench_doc(500, true), 20.0);
        assert!(report.regressed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key.contains("atpg.gate_evals"))
            .unwrap();
        assert!(row.regressed);
        assert!((row.delta_pct().unwrap() - 25.0).abs() < 1e-9);
        // The same growth passes a looser gate.
        assert!(!diff(&base, &bench_doc(500, true), 30.0).regressed());
    }

    #[test]
    fn improvement_passes_and_reports_negative_delta() {
        let base = bench_doc(400, true);
        let report = diff(&base, &bench_doc(300, true), 20.0);
        assert!(!report.regressed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key.contains("atpg.gate_evals"))
            .unwrap();
        assert!((row.delta_pct().unwrap() + 25.0).abs() < 1e-9);
    }

    #[test]
    fn missing_gated_counter_regresses_missing_info_row_does_not() {
        let base = bench_doc(400, true);
        // Current report lost the cone-word-ops measurement entirely.
        let report = diff(&base, &bench_doc(400, false), 20.0);
        assert!(report.regressed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key.contains("graph.cone_word_ops"))
            .unwrap();
        assert!(row.regressed && row.current.is_none());
        assert!(render(&report).contains("MISSING"));

        // An ungated (cache) row disappearing is informational only.
        let mut no_hits = bench_doc(400, true);
        if let Value::Obj(map) = &mut no_hits {
            if let Some(Value::Arr(work)) = map.get_mut("work") {
                work.retain(|w| w.get("counter").unwrap().as_str() != Some("probe.cache_hits"));
            }
        }
        assert!(!diff(&base, &no_hits, 20.0).regressed());
    }

    #[test]
    fn floor_gated_shrink_regresses_but_growth_does_not() {
        let doc = |pruned: u64| {
            Value::obj([
                ("experiment", "perf".into()),
                (
                    "work",
                    Value::Arr(vec![Value::obj([
                        ("counter", "atpg.faults_pruned".into()),
                        ("substrate", "b12_die0".into()),
                        ("optimized", pruned.into()),
                    ])]),
                ),
            ])
        };
        let base = doc(100);
        // -25% < the -20% floor: the pruning went blind.
        let report = diff(&base, &doc(75), 20.0);
        assert!(report.regressed());
        let row = report
            .rows
            .iter()
            .find(|r| r.key.contains("atpg.faults_pruned"))
            .unwrap();
        assert!(row.gated && row.regressed);
        // Pruning *more* is an improvement, not a regression.
        assert!(!diff(&base, &doc(150), 20.0).regressed());
        // A small shrink within the threshold passes.
        assert!(!diff(&base, &doc(90), 20.0).regressed());
        // Losing the measurement entirely regresses.
        let empty = Value::obj([("experiment", "perf".into()), ("work", Value::Arr(vec![]))]);
        assert!(diff(&base, &empty, 20.0).regressed());
    }

    #[test]
    fn cache_rows_and_phases_stay_informational() {
        let base = bench_doc(400, true);
        let mut worse_cache = bench_doc(400, true);
        if let Value::Obj(map) = &mut worse_cache {
            if let Some(Value::Arr(work)) = map.get_mut("work") {
                for w in work.iter_mut() {
                    if w.get("counter").unwrap().as_str() == Some("probe.cache_hits") {
                        if let Value::Obj(row) = w {
                            row.insert("optimized".to_string(), 1u64.into());
                        }
                    }
                }
            }
        }
        assert!(!diff(&base, &worse_cache, 20.0).regressed());
    }

    #[test]
    fn run_report_counters_and_hists_align() {
        let run = |n: u64| {
            Value::obj([
                ("experiment", "t".into()),
                (
                    "sections",
                    Value::Arr(vec![Value::obj([(
                        "counters",
                        Value::obj([("graph.nodes", n.into())]),
                    )])]),
                ),
                (
                    "hists",
                    Value::obj([(
                        "flow",
                        Value::obj([
                            ("count", 2u64.into()),
                            ("p50", 100u64.into()),
                            ("p95", 200u64.into()),
                            ("p99", 200u64.into()),
                        ]),
                    )]),
                ),
            ])
        };
        let report = diff(&run(10), &run(12), 20.0);
        assert!(!report.regressed());
        let counter = report
            .rows
            .iter()
            .find(|r| r.kind == "counter" && r.key == "graph.nodes")
            .unwrap();
        assert_eq!(counter.base, Some(10.0));
        assert_eq!(counter.current, Some(12.0));
        assert!(report
            .rows
            .iter()
            .any(|r| r.kind == "hist" && r.key == "flow.p50"));
    }
}
