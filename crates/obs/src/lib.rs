//! # prebond3d-obs
//!
//! Structured observability for the prebond3d flow: hierarchical wall-clock
//! **spans**, monotonic **counters**, last-value **gauges** and
//! **histograms** — with zero external dependencies (DESIGN.md §7) and
//! negligible overhead when disabled, so instrumentation stays compiled-in
//! for release builds.
//!
//! ## Usage
//!
//! ```
//! # use prebond3d_obs as obs;
//! let _rec = obs::record(); // probes aggregate while a guard lives
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
//! ## Outputs
//!
//! Probes have two outputs:
//!
//! * the **aggregate registry**, read via [`snapshot`] or a [`capture`]:
//!   it records while at least one [`record`] guard or
//!   [`capture_recorded`] scope is live, on any thread. The experiment
//!   harness builds its machine-readable run reports from it. With no
//!   live scope, every probe is one relaxed atomic load and an early
//!   return;
//! * the **event timeline** ([`trace`]), armed only by
//!   [`trace::configure`]: span completions become Chrome trace events.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use json::Value;

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

/// Number of live [`record`] guards (across all threads); probes
/// aggregate while it is non-zero. A counter rather than a bool, so
/// overlapping scopes — a second run report begun before the first
/// finished, concurrent request-scoped captures in a long-lived server —
/// never turn recording off under each other.
static LIVE: AtomicU64 = AtomicU64::new(0);

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    /// Registry installed by [`capture`] — probes on this thread aggregate
    /// here instead of the global registry while it is present.
    static LOCAL: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

fn registry() -> &'static Mutex<Registry> {
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Is any probe live (a [`record`] guard or [`capture_recorded`] scope)?
#[inline]
pub fn is_active() -> bool {
    LIVE.load(Ordering::Relaxed) > 0
}

/// Keeps probes live until dropped; see [`record`].
pub struct RecordingGuard(());

impl Drop for RecordingGuard {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Enable recording for a scope: `let _rec = obs::record();`. Probes stay
/// live until the last of all live guards drops, in whatever order they
/// drop.
#[must_use = "recording stops when the guard drops"]
pub fn record() -> RecordingGuard {
    LIVE.fetch_add(1, Ordering::Relaxed);
    RecordingGuard(())
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
        // Aggregation only while recording; a trace-only run records the
        // timeline and nothing else.
        if !is_active() {
            return;
        }
        let captured = LOCAL.with(|l| {
            if let Some(reg) = l.borrow_mut().as_mut() {
                reg.record_span(&path, self.name, depth, dur_ns);
                true
            } else {
                false
            }
        });
        if !captured {
            registry()
                .lock()
                .unwrap()
                .record_span(&path, self.name, depth, dur_ns);
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
        let mut reg = registry().lock().unwrap();
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
        let mut reg = registry().lock().unwrap();
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
        let mut reg = registry().lock().unwrap();
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
    registry().lock().unwrap().to_snapshot()
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
/// only live under [`record`] — the capture does not force recording on
/// by itself.
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

/// [`capture`] with probes live for the closure's duration — the
/// request-scoped variant for long-lived servers: each job's flow records
/// into its own thread-local registry, and the returned [`Snapshot`] is
/// the job's telemetry payload. Any number of jobs may capture
/// concurrently; see [`record`].
pub fn capture_recorded<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    let _live = record();
    capture(f)
}

/// Clear the aggregate registry (the harness calls this between dies).
pub fn reset() {
    let mut reg = registry().lock().unwrap();
    *reg = Registry::default();
}
