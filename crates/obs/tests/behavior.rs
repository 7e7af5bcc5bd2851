//! Behavioral tests for the observability runtime: span nesting and
//! ordering determinism, counter/gauge aggregation, and the recording
//! scope. The registry and the recording count are process-global, so
//! every test serializes on one lock and leaves the state reset.

use std::sync::Mutex;

use prebond3d_obs as obs;
use prebond3d_obs::json;

static LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with recording on and a clean registry, returning the snapshot.
fn recorded(f: impl FnOnce()) -> obs::Snapshot {
    let _rec = obs::record();
    obs::reset();
    f();
    let snap = obs::snapshot();
    obs::reset();
    snap
}

fn nested_workload() {
    let _flow = obs::span("flow");
    {
        let _plan = obs::span("plan");
        {
            let _g = obs::span("graph_build");
            obs::count("graph.edges", 7);
        }
        let _c = obs::span("clique_partition");
        obs::count("clique.merges", 3);
    }
    obs::gauge("flow.cells", 11);
}

#[test]
fn nested_spans_aggregate_hierarchical_paths() {
    let _l = LOCK.lock().unwrap();
    let snap = recorded(nested_workload);

    let g = snap.span("flow/plan/graph_build").expect("graph span");
    assert_eq!(g.name, "graph_build");
    assert_eq!(g.depth, 2);
    assert_eq!(g.count, 1);

    let c = snap
        .span("flow/plan/clique_partition")
        .expect("clique span");
    assert_eq!(c.depth, 2);

    let f = snap.span("flow").expect("root span");
    assert_eq!(f.depth, 0);
    // The parent span covers at least the sum of its observed children.
    assert!(f.total_ns >= g.total_ns + c.total_ns);
}

#[test]
fn span_order_and_shape_are_deterministic_across_runs() {
    let _l = LOCK.lock().unwrap();
    let shape = |s: &obs::Snapshot| {
        s.spans
            .iter()
            .map(|sp| (sp.path.clone(), sp.depth, sp.count))
            .collect::<Vec<_>>()
    };
    let a = recorded(nested_workload);
    let b = recorded(nested_workload);
    assert_eq!(shape(&a), shape(&b));
    // First-completion order: innermost leaves close before their parents.
    let order: Vec<&str> = a.spans.iter().map(|s| s.path.as_str()).collect();
    assert_eq!(
        order,
        [
            "flow/plan/graph_build",
            "flow/plan/clique_partition",
            "flow/plan",
            "flow"
        ]
    );
}

#[test]
fn repeated_spans_accumulate_counts_and_time() {
    let _l = LOCK.lock().unwrap();
    let snap = recorded(|| {
        for _ in 0..5 {
            let _s = obs::span("batch");
        }
    });
    let s = snap.span("batch").expect("batch span");
    assert_eq!(s.count, 5);
    assert_eq!(snap.spans.len(), 1, "same path aggregates into one stat");
}

#[test]
fn counters_sum_and_gauges_keep_the_last_value() {
    let _l = LOCK.lock().unwrap();
    let snap = recorded(|| {
        obs::count("atpg.backtracks", 2);
        obs::count("atpg.backtracks", 3);
        obs::count("atpg.backtracks", 0); // zero deltas are dropped
        obs::gauge("flow.cells", 4);
        obs::gauge("flow.cells", 9);
    });
    assert_eq!(snap.counter("atpg.backtracks"), 5);
    assert_eq!(snap.counter("never.touched"), 0);
    assert_eq!(snap.gauge("flow.cells"), Some(9));
    assert_eq!(snap.gauge("never.touched"), None);
}

#[test]
fn inactive_probes_record_nothing() {
    let _l = LOCK.lock().unwrap();
    obs::reset();
    assert!(!obs::is_active());
    {
        let _s = obs::span("ignored");
        obs::count("ignored.counter", 99);
        obs::gauge("ignored.gauge", 1);
    }
    assert!(obs::snapshot().is_empty());
}

#[test]
fn overlapping_record_guards_keep_probes_live_until_the_last_drops() {
    let _l = LOCK.lock().unwrap();
    for first_drops_first in [true, false] {
        obs::reset();
        assert!(!obs::is_active());
        let first = obs::record();
        let second = obs::record();
        let (early, late) = if first_drops_first {
            (first, second)
        } else {
            (second, first)
        };
        drop(early);
        assert!(obs::is_active(), "one guard still lives");
        obs::count("guards.overlap", 1);
        drop(late);
        assert!(!obs::is_active(), "the last guard turns recording off");
        obs::count("guards.after", 1);
        let snap = obs::snapshot();
        obs::reset();
        assert_eq!(snap.counter("guards.overlap"), 1);
        assert_eq!(snap.counter("guards.after"), 0);
    }
}

#[test]
fn capture_isolates_probes_from_the_global_registry() {
    let _l = LOCK.lock().unwrap();
    let _rec = obs::record();
    obs::reset();
    obs::count("outside.before", 1);
    let ((), local) = obs::capture(|| {
        nested_workload();
        obs::count("inside.only", 5);
    });
    obs::count("outside.after", 2);
    let global = obs::snapshot();
    obs::reset();

    // Everything the closure emitted landed in the captured snapshot…
    assert_eq!(local.counter("inside.only"), 5);
    assert_eq!(local.counter("graph.edges"), 7);
    assert!(local.span("flow/plan/graph_build").is_some());
    // …and nothing leaked into (or out of) the global registry.
    assert_eq!(global.counter("inside.only"), 0);
    assert!(global.span("flow").is_none());
    assert_eq!(global.counter("outside.before"), 1);
    assert_eq!(global.counter("outside.after"), 2);
}

#[test]
fn capture_nests_and_restores_on_unwind() {
    let _l = LOCK.lock().unwrap();
    let _rec = obs::record();
    obs::reset();
    let ((), outer) = obs::capture(|| {
        obs::count("outer.events", 1);
        let ((), inner) = obs::capture(|| obs::count("inner.events", 3));
        assert_eq!(inner.counter("inner.events"), 3);
        // The outer registry is back in place after the inner capture.
        obs::count("outer.events", 1);
        // A panicking capture must restore the outer registry too.
        let _ = std::panic::catch_unwind(|| obs::capture(|| -> () { panic!("worker died") }));
        obs::count("outer.events", 1);
    });
    let global = obs::snapshot();
    obs::reset();
    assert_eq!(outer.counter("outer.events"), 3);
    assert_eq!(outer.counter("inner.events"), 0);
    assert_eq!(global.counter("outer.events"), 0);
}

#[test]
fn captured_counter_sums_match_the_uncaptured_run() {
    let _l = LOCK.lock().unwrap();
    // Counters commute: splitting a workload across capture scopes and
    // summing gives exactly the counters of one uncaptured run.
    let serial = recorded(|| {
        for _ in 0..4 {
            nested_workload();
        }
    });
    let _rec = obs::record();
    obs::reset();
    let parts: Vec<obs::Snapshot> = (0..4).map(|_| obs::capture(nested_workload).1).collect();
    obs::reset();
    let summed: u64 = parts.iter().map(|s| s.counter("graph.edges")).sum();
    assert_eq!(summed, serial.counter("graph.edges"));
    let span_total: u64 = parts
        .iter()
        .map(|s| s.span("flow").map_or(0, |sp| sp.count))
        .sum();
    assert_eq!(span_total, serial.span("flow").unwrap().count);
}

#[test]
fn snapshot_to_json_carries_spans_counters_and_gauges() {
    let _l = LOCK.lock().unwrap();
    let snap = recorded(nested_workload);
    let doc = snap.to_json().to_string();
    let parsed = json::parse(&doc).expect("snapshot JSON parses");
    let json::Value::Obj(m) = parsed else {
        panic!("snapshot is an object")
    };
    let json::Value::Arr(spans) = &m["spans"] else {
        panic!("spans is an array")
    };
    assert_eq!(spans.len(), 4);
    let json::Value::Obj(counters) = &m["counters"] else {
        panic!("counters object")
    };
    assert_eq!(counters["graph.edges"], json::Value::Num(7.0));
    let json::Value::Obj(gauges) = &m["gauges"] else {
        panic!("gauges object")
    };
    assert_eq!(gauges["flow.cells"], json::Value::Num(11.0));
}
