//! # prebond3d-obs
//!
//! Structured observability for the prebond3d flow: hierarchical wall-clock
//! **spans**, monotonic **counters**, last-value **gauges**, and pluggable
//! **sinks** — with zero external dependencies (DESIGN.md §7) and
//! negligible overhead when disabled, so instrumentation stays compiled-in
//! for release builds.
//!
//! ## Usage
//!
//! ```
//! # use prebond3d_obs as obs;
//! let _rec = obs::record(); // aggregate even without a sink (e.g. tests)
//! {
//!     let _flow = obs::span("flow");
//!     {
//!         let _g = obs::span("graph_build");
//!         obs::count("graph.edges", 42);
//!     }
//!     obs::gauge("graph.nodes", 17);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("graph.edges"), 42);
//! assert_eq!(snap.span("flow/graph_build").unwrap().count, 1);
//! # obs::reset();
//! ```
//!
//! ## Sinks
//!
//! The `PREBOND3D_OBS` environment variable selects the sink on first use:
//!
//! * `off` (default) — no output, no aggregation, near-zero cost: every
//!   probe is one relaxed atomic load and an early return;
//! * `text` — span completions stream to stderr, indented by nesting
//!   depth; [`flush`] prints the counter/gauge table;
//! * `json:<path>` — span completions append JSON-lines events to
//!   `<path>`; [`flush`] appends aggregated `counters`/`gauges` records.
//!
//! Programs can override the environment with [`configure`]. Aggregation
//! into the in-process registry (read via [`snapshot`]) happens whenever a
//! sink is active *or* recording was forced on via [`record`] /
//! [`set_recording`] — the experiment harness uses the latter to build
//! machine-readable run reports regardless of sink choice.
//!
//! ## Threading
//!
//! The span stack is thread-local (nesting is per thread); counters and
//! the aggregate registry are global behind a mutex. Parallel callers
//! that need per-worker isolation wrap their work in [`capture`], which
//! installs a **thread-local registry** for the closure's duration: every
//! probe the closure emits (including probes from nested serial parallel
//! regions — see `prebond3d-pool`'s nesting rule) aggregates into that
//! registry instead of the global one, and is returned as a
//! [`Snapshot`]. Counter *sums* across captured workers equal the serial
//! run's counters exactly, because counters only ever add and each probe
//! lands in exactly one registry — merge order cannot change a sum.
//!
//! A pool worker spawned by a capturing thread runs under
//! [`capture_carry`], and the pool [`fold`](Carry::fold)s its counters and
//! histograms into the caller's capture once the parallel region ends, so
//! a capture sees the same counters at any thread count.

#[cfg(feature = "obs-alloc")]
pub mod alloc;
pub mod hist;
pub mod json;
pub mod mem;
pub mod trace;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::OpenOptions;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use json::Value;

/// Where events go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkConfig {
    /// Drop everything (the default).
    Off,
    /// Human-readable lines on stderr.
    Text,
    /// JSON-lines appended to a file.
    JsonFile(PathBuf),
}

impl SinkConfig {
    /// Parse a `PREBOND3D_OBS` value. Unknown values fall back to `Off`
    /// with a one-line warning on stderr.
    pub fn from_env_value(value: &str) -> SinkConfig {
        let v = value.trim();
        if v.is_empty() || v.eq_ignore_ascii_case("off") || v == "0" {
            SinkConfig::Off
        } else if v.eq_ignore_ascii_case("text") || v == "1" {
            SinkConfig::Text
        } else if let Some(path) = v.strip_prefix("json:") {
            SinkConfig::JsonFile(PathBuf::from(path))
        } else {
            eprintln!(
                "[obs] unknown PREBOND3D_OBS value `{v}` (expected off|text|json:<path>); \
                 observability stays off"
            );
            SinkConfig::Off
        }
    }
}

enum Sink {
    Off,
    Text,
    Json(BufWriter<std::fs::File>),
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// `/`-joined ancestry, e.g. `flow/plan/graph_build`.
    pub path: String,
    /// Leaf name.
    pub name: String,
    /// Nesting depth (root = 0).
    pub depth: usize,
    /// Completions recorded.
    pub count: u64,
    /// Total wall-clock time across completions, in nanoseconds.
    pub total_ns: u128,
}

impl SpanStat {
    /// Total milliseconds (convenience for reports).
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1.0e6
    }
}

#[derive(Default)]
struct Registry {
    /// Span stats in first-completion order (deterministic for the
    /// single-threaded flow and within one [`capture`] scope).
    spans: Vec<SpanStat>,
    span_index: HashMap<String, usize>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, hist::Hist>,
}

impl Registry {
    fn record_span(&mut self, path: &str, name: &'static str, depth: usize, dur_ns: u128) {
        match self.span_index.get(path) {
            Some(&i) => {
                self.spans[i].count += 1;
                self.spans[i].total_ns += dur_ns;
            }
            None => {
                let i = self.spans.len();
                self.spans.push(SpanStat {
                    path: path.to_string(),
                    name: name.to_string(),
                    depth,
                    count: 1,
                    total_ns: dur_ns,
                });
                self.span_index.insert(path.to_string(), i);
            }
        }
    }

    fn to_snapshot(&self) -> Snapshot {
        Snapshot {
            spans: self.spans.clone(),
            counters: self
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

struct State {
    sink: Mutex<Sink>,
    sink_active: AtomicBool,
    recording: AtomicBool,
    /// Number of live [`capture_recorded`] scopes (across all threads);
    /// probes are active while it is non-zero. A counter rather than a
    /// bool so concurrent request-scoped captures in a long-lived server
    /// cannot turn recording off under each other.
    forced: AtomicU64,
    registry: Mutex<Registry>,
}

static STATE: OnceLock<State> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Registry installed by [`capture`] — probes on this thread aggregate
    /// here instead of the global registry while it is present.
    static LOCAL: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

fn state() -> &'static State {
    STATE.get_or_init(|| {
        let st = State {
            sink: Mutex::new(Sink::Off),
            sink_active: AtomicBool::new(false),
            recording: AtomicBool::new(false),
            forced: AtomicU64::new(0),
            registry: Mutex::new(Registry::default()),
        };
        let cfg = std::env::var("PREBOND3D_OBS")
            .map_or(SinkConfig::Off, |v| SinkConfig::from_env_value(&v));
        install_sink(&st, cfg);
        st
    })
}

fn install_sink(st: &State, cfg: SinkConfig) {
    let sink = match cfg {
        SinkConfig::Off => Sink::Off,
        SinkConfig::Text => Sink::Text,
        SinkConfig::JsonFile(path) => {
            match OpenOptions::new().create(true).append(true).open(&path) {
                Ok(f) => Sink::Json(BufWriter::new(f)),
                Err(e) => {
                    eprintln!(
                        "[obs] cannot open {}: {e}; observability stays off",
                        path.display()
                    );
                    Sink::Off
                }
            }
        }
    };
    st.sink_active
        .store(!matches!(sink, Sink::Off), Ordering::Relaxed);
    *st.sink.lock().unwrap() = sink;
}

/// Replace the sink at runtime (overrides `PREBOND3D_OBS`).
pub fn configure(cfg: SinkConfig) {
    install_sink(state(), cfg);
}

/// Is any probe live (sink active or recording forced)?
#[inline]
pub fn is_active() -> bool {
    let st = state();
    st.sink_active.load(Ordering::Relaxed)
        || st.recording.load(Ordering::Relaxed)
        || st.forced.load(Ordering::Relaxed) > 0
}

/// Force aggregation on/off independently of the sink. Returns the
/// previous value.
pub fn set_recording(on: bool) -> bool {
    state().recording.swap(on, Ordering::Relaxed)
}

/// RAII guard restoring the previous recording state on drop.
pub struct RecordingGuard {
    prev: bool,
}

impl Drop for RecordingGuard {
    fn drop(&mut self) {
        set_recording(self.prev);
    }
}

/// Enable recording for a scope: `let _rec = obs::record();`.
#[must_use = "recording stops when the guard drops"]
pub fn record() -> RecordingGuard {
    RecordingGuard {
        prev: set_recording(true),
    }
}

/// An in-flight span; completion is recorded when the guard drops.
///
/// Guards must drop in LIFO order (natural with RAII scoping) for the
/// hierarchical path to be correct.
#[must_use = "a span measures until the guard drops"]
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
}

/// Open a span. Near-free when observability is off (and the event
/// timeline is disarmed).
#[inline]
pub fn span(name: &'static str) -> Span {
    if !is_active() && !trace::armed() {
        return Span { start: None, name };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    Span {
        start: Some(Instant::now()),
        name,
    }
}

/// Statement form: `obs::span!("clique_partition");` holds the guard for
/// the rest of the enclosing block.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span_guard = $crate::span($name);
    };
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos();
        let (path, depth) = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let depth = stack.len().saturating_sub(1);
            let path = stack.join("/");
            stack.pop();
            (path, depth)
        });
        if trace::armed() {
            trace::complete(
                "span",
                self.name,
                start,
                dur_ns,
                Some(("path", path.as_str().into())),
            );
        }
        // Aggregation (and sink streaming below) only under an active
        // probe config; a trace-only run records the timeline and nothing
        // else.
        if !is_active() {
            return;
        }
        let st = state();
        let captured = LOCAL.with(|l| {
            if let Some(reg) = l.borrow_mut().as_mut() {
                reg.record_span(&path, self.name, depth, dur_ns);
                true
            } else {
                false
            }
        });
        if !captured {
            st.registry
                .lock()
                .unwrap()
                .record_span(&path, self.name, depth, dur_ns);
        }
        if st.sink_active.load(Ordering::Relaxed) {
            let mut sink = st.sink.lock().unwrap();
            match &mut *sink {
                Sink::Off => {}
                Sink::Text => {
                    eprintln!(
                        "[obs] {:indent$}{}: {:.3} ms",
                        "",
                        self.name,
                        dur_ns as f64 / 1.0e6,
                        indent = depth * 2
                    );
                }
                Sink::Json(w) => {
                    // Chaos site: a trace-sink write error must never take
                    // down the flow — the event is dropped and the run
                    // report records the degradation.
                    if let Some(e) = prebond3d_resilience::chaos::io_error("obs.sink") {
                        prebond3d_resilience::degrade::record(
                            "obs",
                            "drop_trace_event",
                            format!("trace sink write failed: {e}"),
                        );
                    } else {
                        let ev = Value::obj([
                            ("ev", "span".into()),
                            ("path", path.as_str().into()),
                            ("name", self.name.into()),
                            ("depth", depth.into()),
                            ("ns", (dur_ns as f64).into()),
                        ]);
                        let _ = writeln!(w, "{ev}");
                        let _ = w.flush();
                    }
                }
            }
        }
    }
}

/// Add `delta` to the monotonic counter `name`.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !is_active() || delta == 0 {
        return;
    }
    let captured = LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            *reg.counters.entry(name).or_insert(0) += delta;
            true
        } else {
            false
        }
    });
    if !captured {
        let mut reg = state().registry.lock().unwrap();
        *reg.counters.entry(name).or_insert(0) += delta;
    }
}

/// Record one sample into the log-bucketed histogram `name`
/// (see [`hist::Hist`]). By convention, names ending in `_ns` hold
/// wall-clock nanoseconds and have their value fields zeroed in reports
/// under `PREBOND3D_STABLE_MS`.
#[inline]
pub fn hist(name: &'static str, value: u64) {
    if !is_active() {
        return;
    }
    let captured = LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            reg.hists.entry(name).or_default().record(value);
            true
        } else {
            false
        }
    });
    if !captured {
        let mut reg = state().registry.lock().unwrap();
        reg.hists.entry(name).or_default().record(value);
    }
}

/// Record the latest value of gauge `name`.
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if !is_active() {
        return;
    }
    let captured = LOCAL.with(|l| {
        if let Some(reg) = l.borrow_mut().as_mut() {
            reg.gauges.insert(name, value);
            true
        } else {
            false
        }
    });
    if !captured {
        let mut reg = state().registry.lock().unwrap();
        reg.gauges.insert(name, value);
    }
}

/// A point-in-time copy of the aggregate registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Span stats in first-completion order.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub hists: Vec<(String, hist::Hist)>,
}

impl Snapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Snapshot {
        Snapshot {
            spans: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Latest gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Span stats for an exact `/`-joined path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Histogram by name, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&hist::Hist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.hists.is_empty()
    }

    /// Serialize as a JSON object (the run-report per-die payload).
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("path", s.path.as_str().into()),
                    ("name", s.name.as_str().into()),
                    ("depth", s.depth.into()),
                    ("count", s.count.into()),
                    ("ms", s.total_ms().into()),
                ])
            })
            .collect();
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(*v)))
                .collect(),
        );
        let hists = Value::Obj(
            self.hists
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Value::obj([
            ("spans", Value::Arr(spans)),
            ("counters", counters),
            ("gauges", gauges),
            ("hists", hists),
        ])
    }
}

/// Copy out the aggregate registry.
pub fn snapshot() -> Snapshot {
    state().registry.lock().unwrap().to_snapshot()
}

/// Heap telemetry from the counting allocator as
/// `(bytes_total, bytes_current, bytes_peak)`, or `None` when the
/// `obs-alloc` feature is off. Callers need no feature gate of their own.
pub fn alloc_stats() -> Option<(u64, u64, u64)> {
    #[cfg(feature = "obs-alloc")]
    {
        Some((
            alloc::bytes_total(),
            alloc::bytes_current(),
            alloc::bytes_peak(),
        ))
    }
    #[cfg(not(feature = "obs-alloc"))]
    {
        None
    }
}

/// Run `f` with a fresh **thread-local** registry capturing every probe
/// it emits, and return `f`'s output alongside the captured [`Snapshot`].
///
/// This is the aggregation seam for parallel experiment drivers: each
/// worker thread wraps its die's flow in `capture`, so per-die sections
/// never race on (or reset) the global registry, and the caller merges
/// the returned snapshots in submission order. Nested captures stack;
/// the previous registry is restored even when `f` unwinds. Probes are
/// only live under a sink or [`record`] — the capture does not force
/// recording on by itself.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let (out, reg) = capture_registry(f);
    (out, reg.to_snapshot())
}

fn capture_registry<T>(f: impl FnOnce() -> T) -> (T, Registry) {
    /// Restores the previously installed registry on drop (unwind-safe).
    struct Restore {
        prev: Option<Registry>,
        done: bool,
    }
    impl Restore {
        fn finish(&mut self) -> Registry {
            self.done = true;
            let mine = LOCAL.with(|l| l.borrow_mut().take()).unwrap_or_default();
            LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
            mine
        }
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if !self.done {
                LOCAL.with(|l| *l.borrow_mut() = self.prev.take());
            }
        }
    }
    let prev = LOCAL.with(|l| l.borrow_mut().replace(Registry::default()));
    let mut restore = Restore { prev, done: false };
    let out = f();
    (out, restore.finish())
}

/// Is a [`capture`] scope active on this thread?
pub fn is_capturing() -> bool {
    LOCAL.with(|l| l.borrow().is_some())
}

/// The counters and histograms a closure emitted under [`capture_carry`],
/// waiting to be [`fold`](Carry::fold)ed into another thread's registry.
#[derive(Debug)]
pub struct Carry {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, hist::Hist>,
}

/// [`capture`] for a helper thread working on behalf of a capturing
/// caller (a pool worker): returns only the counters and histograms, which
/// the caller folds into its own registry with [`Carry::fold`]. Spans and
/// gauges are dropped with the helper's registry: span paths are
/// per-thread stacks and would not nest under the caller's.
pub fn capture_carry<T>(f: impl FnOnce() -> T) -> (T, Carry) {
    let (out, reg) = capture_registry(f);
    let carry = Carry {
        counters: reg.counters,
        hists: reg.hists,
    };
    (out, carry)
}

impl Carry {
    /// Add the carried counters and histograms into this thread's active
    /// [`capture`] (a no-op without one). Counters add and histograms
    /// merge bucket-wise, so folding order cannot change the result.
    pub fn fold(self) {
        LOCAL.with(|l| {
            let mut local = l.borrow_mut();
            let Some(reg) = local.as_mut() else { return };
            for (name, v) in self.counters {
                *reg.counters.entry(name).or_insert(0) += v;
            }
            for (name, h) in &self.hists {
                reg.hists.entry(name).or_default().merge(h);
            }
        });
    }
}

/// [`capture`] with probes forced live for the closure's duration — the
/// request-scoped variant for long-lived servers: each job's flow records
/// into its own thread-local registry regardless of sink choice, and the
/// returned [`Snapshot`] is the job's telemetry payload.
///
/// Unlike [`record`] (a global bool whose guard restores the *previous*
/// value, which is racy across concurrent scopes), this uses a depth
/// counter, so any number of jobs may capture concurrently without turning
/// each other's probes off.
pub fn capture_recorded<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    struct Forced;
    impl Drop for Forced {
        fn drop(&mut self) {
            state().forced.fetch_sub(1, Ordering::Relaxed);
        }
    }
    state().forced.fetch_add(1, Ordering::Relaxed);
    let _forced = Forced;
    capture(f)
}

/// Clear the aggregate registry (the harness calls this between dies).
pub fn reset() {
    let mut reg = state().registry.lock().unwrap();
    *reg = Registry::default();
}

/// Emit the aggregated counters/gauges to the sink (text table or JSON
/// records) and flush file sinks. A no-op for `off`.
pub fn flush() {
    let st = state();
    if !st.sink_active.load(Ordering::Relaxed) {
        return;
    }
    let snap = snapshot();
    let mut sink = st.sink.lock().unwrap();
    match &mut *sink {
        Sink::Off => {}
        Sink::Text => {
            for (name, v) in &snap.counters {
                eprintln!("[obs] counter {name} = {v}");
            }
            for (name, v) in &snap.gauges {
                eprintln!("[obs] gauge   {name} = {v}");
            }
        }
        Sink::Json(w) => {
            for (name, v) in &snap.counters {
                let ev = Value::obj([
                    ("ev", "counter".into()),
                    ("name", name.as_str().into()),
                    ("value", (*v).into()),
                ]);
                let _ = writeln!(w, "{ev}");
            }
            for (name, v) in &snap.gauges {
                let ev = Value::obj([
                    ("ev", "gauge".into()),
                    ("name", name.as_str().into()),
                    ("value", (*v).into()),
                ]);
                let _ = writeln!(w, "{ev}");
            }
            let _ = w.flush();
        }
    }
}
