//! Per-layer metrics, accumulated over the traced passes of a run.
//!
//! The program's own telemetry (obs spans, counters and the fault-sim batch
//! histogram) is folded in per pass, together with values only the
//! benchmark sees (PODEM aborts from `AtpgResult`, serve client timings).
//! [`Layers::finish`] turns the sums into the per-pass values that the
//! catalogue's `per_layer` list names.

use std::collections::BTreeMap;

use prebond3d_obs::Snapshot;

use crate::metrics;

/// Program spans whose time is reported. A span nested in another of the
/// same name (DFT insertion inside the flow's `dft_insert` step) is counted
/// once, at the outermost level.
const SPANS: [&str; 8] = [
    "flow",
    "graph_build",
    "clique_partition",
    "sta_analyze",
    "dft_insert",
    "atpg_stuck_at",
    "atpg_transition",
    "atpg_compact",
];

#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    passes: usize,
    lane_fill_pct: f64,
}

impl Layers {
    /// Add `v` to the per-run sum of `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        *self.sums.entry(key.to_string()).or_insert(0.0) += v;
    }

    /// Record one latency sample for a percentile metric.
    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Fold in one completed program span (`/`-joined path, nanoseconds).
    pub fn add_span(&mut self, path: &str, ns: f64) {
        let parts: Vec<&str> = path.split('/').collect();
        let (leaf, ancestors) = parts.split_last().expect("split yields one part");
        if SPANS.contains(leaf) && !ancestors.contains(leaf) {
            self.add(leaf, ns / 1e9);
        }
    }

    /// Fold in the program telemetry recorded during one traced pass.
    pub fn add_snapshot(&mut self, snap: &Snapshot) {
        for s in &snap.spans {
            self.add_span(&s.path, s.total_ns as f64);
        }
        for (name, v) in &snap.counters {
            self.add(name, *v as f64);
        }
        if let Some(h) = snap.hist("atpg.faultsim_batch_ns") {
            self.add("faultsim_s", h.sum() as f64 / 1e9);
        }
        if let Some(pct) = snap.gauge("atpg.lane_fill_pct") {
            self.lane_fill_pct = pct as f64;
        }
    }

    pub fn end_pass(&mut self) {
        self.passes += 1;
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Per-pass average of a summed key.
    fn per_pass(&self, key: &str) -> f64 {
        self.sum(key) / self.passes.max(1) as f64
    }

    fn pct(&self, key: &'static str, p: f64) -> f64 {
        self.samples
            .get(key)
            .map_or(0.0, |v| metrics::percentile(v, p))
    }

    /// Every per-layer value, by metric name. `extra` supplies values
    /// measured outside the traced passes (set-up layers, trace overhead).
    pub fn finish(&self, extra: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let sa = self.per_pass("atpg_stuck_at");
        let tr = self.per_pass("atpg_transition");
        let compact = self.per_pass("atpg_compact");
        let faultsim = self.per_pass("faultsim_s");
        let search = if sa + tr > 0.0 {
            (sa + tr - faultsim - compact).max(0.0)
        } else {
            0.0
        };
        let flow = self.per_pass("flow");
        let graph = self.per_pass("graph_build");
        let clique = self.per_pass("clique_partition");
        let sta = self.per_pass("sta_analyze");
        let dft = self.per_pass("dft_insert");
        let backtracks = self.per_pass("podem.backtracks");
        let generate_calls = self.per_pass("podem.generate_calls");
        let gate_evals = self.per_pass("atpg.gate_evals");
        let mut values: BTreeMap<&'static str, f64> = BTreeMap::from([
            ("atpg.stuck_at_s", sa),
            ("atpg.transition_s", tr),
            ("atpg.search_s", search),
            ("atpg.compact_s", compact),
            ("atpg.faultsim_s", faultsim),
            ("podem.backtracks", backtracks),
            ("podem.generate_calls", generate_calls),
            ("podem.justify_calls", self.per_pass("podem.justify_calls")),
            ("podem.us_per_backtrack", ratio(search * 1e6, backtracks)),
            (
                "podem.abort_ratio",
                ratio(self.per_pass("aborted"), generate_calls),
            ),
            ("atpg.faults_pruned", self.per_pass("atpg.faults_pruned")),
            ("atpg.gate_evals", gate_evals),
            ("atpg.ns_per_gate_eval", ratio(faultsim * 1e9, gate_evals)),
            (
                "atpg.pattern_batches",
                self.per_pass("atpg.pattern_batches"),
            ),
            ("atpg.lane_fill_pct", self.lane_fill_pct),
            ("atpg.faults_dropped", self.per_pass("atpg.faults_dropped")),
            (
                "atpg.coverage_pct",
                ratio(self.sum("coverage_pct"), self.sum("coverage_n")),
            ),
            ("atpg.test_patterns", self.per_pass("test_patterns")),
            ("pool.chunk_wait_s", self.per_pass("chunk_wait_s")),
            ("core.flow_s", flow),
            ("core.graph_build_s", graph),
            ("core.clique_partition_s", clique),
            (
                "core.flow_self_s",
                (flow - graph - clique - sta - dft).max(0.0),
            ),
            ("sta.analyze_s", sta),
            ("dft.insert_s", dft),
            ("graph.cone_word_ops", self.per_pass("graph.cone_word_ops")),
            (
                "graph.pairs_considered",
                self.per_pass("graph.pairs_considered"),
            ),
            (
                "graph.edge_yield",
                ratio(self.sum("graph.edges"), self.sum("graph.pairs_considered")),
            ),
            (
                "clique.candidate_rescores",
                self.per_pass("clique.candidate_rescores"),
            ),
            (
                "clique.merge_yield",
                ratio(self.sum("clique.merges"), self.sum("clique.merge_attempts")),
            ),
            ("sta.nodes_visited", self.per_pass("sta.nodes_visited")),
            ("serve.accept_ms_p50", self.pct("accept_ms", 50.0)),
            ("serve.exec_ms_p50", self.pct("exec_ms", 50.0)),
            ("serve.exec_ms_p98", self.pct("exec_ms", 98.0)),
            ("serve.overhead_ms_p50", self.pct("overhead_ms", 50.0)),
            ("serve.overhead_ms_p98", self.pct("overhead_ms", 98.0)),
            (
                "serve.cache_hit_ratio",
                ratio(self.sum("cache_hits"), self.sum("jobs")),
            ),
            ("serve.place_ms_sum", self.per_pass("place_ms")),
            ("serve.cache_evictions", 0.0),
            ("alloc.bytes_total", self.per_pass("alloc_bytes")),
            (
                "trace.layer_time_pct",
                100.0 * ratio(self.sum("layer_time_s"), self.sum("pass_capacity_s")),
            ),
        ]);
        values.extend(extra.iter().map(|(k, v)| (*k, *v)));
        values
    }
}
