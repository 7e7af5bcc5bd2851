//! Event-timeline tracing in Chrome trace-event JSON.
//!
//! Aggregate span stats (the `lib.rs` registry) answer "how long did phase
//! X take in total"; this module answers "*when* did work happen, on which
//! thread". [`configure`] arms a process-global recorder: every completed
//! [`crate::span`] becomes a `ph:"X"` *complete* event on its thread's
//! track, instrumented subsystems add `ph:"i"` *instant* events (chaos
//! firings, budget degradations, checkpoint writes — routed here via
//! `prebond3d_resilience::hooks`), and pool workers name their tracks via
//! [`set_thread_name`]. [`flush`] writes the accumulated timeline as one
//! JSON document —
//!
//! ```json
//! {"displayTimeUnit":"ms","traceEvents":[{"ph":"X","name":...}, ...]}
//! ```
//!
//! — directly loadable in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`. Writes are atomic (temp file + rename) and a panic
//! hook installed at arm time flushes best-effort, so even a crashed run
//! leaves a viewable timeline.
//!
//! Tracing is opt-in and deliberately outside the determinism surface:
//! timestamps live only in the trace file, never in `run_<exp>.json`.
//! When disarmed (the default) every probe is one relaxed atomic load.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use crate::json::Value;

/// Cap on buffered events; beyond it events are dropped (and counted) so
/// a pathological run cannot exhaust memory through its own telemetry.
const MAX_EVENTS: usize = 1 << 20;

struct Inner {
    path: Option<PathBuf>,
    events: Vec<Value>,
    epoch: Instant,
    dropped: u64,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static INNER: OnceLock<Mutex<Inner>> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's stable track id (assigned on first traced event).
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn recorder() -> &'static Mutex<Inner> {
    INNER.get_or_init(|| {
        Mutex::new(Inner {
            path: None,
            events: Vec::new(),
            epoch: Instant::now(),
            dropped: 0,
        })
    })
}

/// Arm tracing to `path`, or disarm with `None` — the only way to arm
/// the recorder. Arming resets the event buffer and the timeline epoch.
pub fn configure(path: Option<PathBuf>) {
    let armed = path.is_some();
    {
        let mut inner = recorder().lock().unwrap();
        inner.path = path;
        inner.events.clear();
        inner.dropped = 0;
        inner.epoch = Instant::now();
    }
    ARMED.store(armed, Ordering::Relaxed);
    if armed {
        install_panic_flush();
        // Chaos firings, degradations and checkpoint appends become
        // instant events on the emitting thread's track.
        prebond3d_resilience::hooks::set_trace_hook(Some(instant));
    } else {
        prebond3d_resilience::hooks::set_trace_hook(None);
    }
}

/// Is the timeline recorder armed? One relaxed atomic load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The timeline epoch (`ts` 0). Span guards capture `Instant`s; events
/// are stored as microseconds relative to this.
fn micros_since_epoch(inner: &Inner, at: Instant) -> f64 {
    at.saturating_duration_since(inner.epoch).as_nanos() as f64 / 1.0e3
}

/// This thread's track id, assigning one (and emitting a default
/// `thread_name` metadata event) on first use.
fn tid(inner: &mut Inner) -> u64 {
    let t = TID.with(Cell::get);
    if t != 0 {
        return t;
    }
    let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    TID.with(|c| c.set(t));
    let name = if t == 1 {
        "main".to_string()
    } else {
        format!("thread-{t}")
    };
    push_thread_name(inner, t, &name);
    t
}

fn push_thread_name(inner: &mut Inner, tid: u64, name: &str) {
    push(
        inner,
        Value::obj([
            ("ph", "M".into()),
            ("name", "thread_name".into()),
            ("pid", u64::from(std::process::id()).into()),
            ("tid", tid.into()),
            ("args", Value::obj([("name", name.into())])),
        ]),
    );
}

fn push(inner: &mut Inner, ev: Value) {
    if inner.events.len() >= MAX_EVENTS {
        if inner.dropped == 0 {
            eprintln!("[obs] trace buffer full ({MAX_EVENTS} events); dropping further events");
        }
        inner.dropped += 1;
        return;
    }
    inner.events.push(ev);
}

/// Name this thread's track (pool workers call this on entry). Also
/// assigns the track id, so a worker that never claims a chunk still
/// appears in the timeline.
pub fn set_thread_name(name: &str) {
    if !armed() {
        return;
    }
    let mut inner = recorder().lock().unwrap();
    let t = TID.with(Cell::get);
    let t = if t != 0 {
        t
    } else {
        let t = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        TID.with(|c| c.set(t));
        t
    };
    push_thread_name(&mut inner, t, name);
}

/// Record a complete (`ph:"X"`) event: work named `name` in category
/// `cat` ran from `start` for `dur_ns` nanoseconds on this thread. `arg`
/// attaches one optional key/value pair (span path, chunk index, ...).
pub fn complete(
    cat: &'static str,
    name: &str,
    start: Instant,
    dur_ns: u128,
    arg: Option<(&'static str, Value)>,
) {
    if !armed() {
        return;
    }
    let mut inner = recorder().lock().unwrap();
    let ts = micros_since_epoch(&inner, start);
    let t = tid(&mut inner);
    let mut fields = vec![
        ("ph", Value::from("X")),
        ("name", name.into()),
        ("cat", cat.into()),
        ("ts", ts.into()),
        ("dur", (dur_ns as f64 / 1.0e3).into()),
        ("pid", u64::from(std::process::id()).into()),
        ("tid", t.into()),
    ];
    if let Some((k, v)) = arg {
        fields.push(("args", Value::obj([(k, v)])));
    }
    push(&mut inner, Value::obj(fields));
}

/// Record a thread-scoped instant (`ph:"i"`) event — a point in time with
/// no duration: a chaos firing, a budget degradation, a checkpoint write.
pub fn instant(cat: &'static str, name: &str, detail: &str) {
    if !armed() {
        return;
    }
    let mut inner = recorder().lock().unwrap();
    let ts = micros_since_epoch(&inner, Instant::now());
    let t = tid(&mut inner);
    let ev = Value::obj([
        ("ph", "i".into()),
        ("name", name.into()),
        ("cat", cat.into()),
        ("ts", ts.into()),
        ("pid", u64::from(std::process::id()).into()),
        ("tid", t.into()),
        ("s", "t".into()),
        ("args", Value::obj([("detail", detail.into())])),
    ]);
    push(&mut inner, ev);
}

/// Write the accumulated timeline to the armed path (atomic temp-file +
/// rename; repeated flushes rewrite the file with the growing event list).
/// A no-op when disarmed; write errors are reported on stderr — telemetry
/// must never take down the flow it observes.
pub fn flush() {
    if !armed() {
        return;
    }
    let inner = recorder().lock().unwrap();
    let Some(path) = inner.path.clone() else {
        return;
    };
    let mut doc_fields = vec![
        ("displayTimeUnit", Value::from("ms")),
        ("traceEvents", Value::Arr(inner.events.clone())),
    ];
    if inner.dropped > 0 {
        doc_fields.push(("droppedEvents", inner.dropped.into()));
    }
    let doc = Value::obj(doc_fields);
    drop(inner);
    if let Err(e) = prebond3d_resilience::atomic_write(&path, &format!("{doc}\n")) {
        eprintln!("[obs] trace flush failed: {e}");
    }
}

/// Number of buffered events (tests and diagnostics).
pub fn event_count() -> usize {
    recorder().lock().unwrap().events.len()
}

/// Flush the timeline when a panic unwinds past the flow, chaining the
/// previously installed hook. Installed once, at first arm.
fn install_panic_flush() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush();
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; serialize the tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_probes_record_nothing() {
        let _l = LOCK.lock().unwrap();
        configure(None);
        complete("t", "x", Instant::now(), 10, None);
        instant("t", "y", "z");
        assert_eq!(event_count(), 0);
    }

    #[test]
    fn armed_recorder_round_trips_through_the_parser() {
        let _l = LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!("prebond3d-trace-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("unit_trace.json");
        configure(Some(path.clone()));
        let t0 = Instant::now();
        complete(
            "span",
            "phase_a",
            t0,
            1_500,
            Some(("path", "flow/phase_a".into())),
        );
        instant("chaos", "pool.worker", "panic");
        set_thread_name("unit thread");
        flush();
        configure(None);

        let text = std::fs::read_to_string(&path).expect("trace written");
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events.len() >= 3);
        let x = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .expect("complete event");
        assert_eq!(x.get("name").unwrap().as_str(), Some("phase_a"));
        assert!((x.get("dur").unwrap().as_f64().unwrap() - 1.5).abs() < 1e-9);
        let i = events
            .iter()
            .find(|e| e.get("ph").unwrap().as_str() == Some("i"))
            .expect("instant event");
        assert_eq!(i.get("cat").unwrap().as_str(), Some("chaos"));
        assert!(events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
