//! Benchmark-side spans: one around each pass and one around each call the
//! benchmark makes into a layer of the program. They are kept in memory and
//! written out as a Chrome trace (open it at ui.perfetto.dev) when the run
//! ends. The program's own spans are read separately through `obs`.
//!
//! `obs::trace` writes the same trace-event format but cannot hold these
//! spans: arming it for the run would also record every program span (more
//! cost in the traced passes, and the pass breakdown needs only the
//! benchmark's calls), arming it at the end resets its epoch so earlier
//! starts read 0, and its events take the calling thread's track where a
//! serve job belongs on its client's. So the document is built here, in that
//! format, and written atomically like `obs::trace::flush` does.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use prebond3d_obs::json::Value;

struct Record {
    name: &'static str,
    id: String,
    parent: Option<usize>,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span store. Recording is off until [`Tracer::set_enabled`].
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    records: Mutex<Vec<Record>>,
}

/// An open span; it ends when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Guard<'_> {
    /// The span's index, to name it as a parent (`None` when not recording).
    pub fn index(&self) -> Option<usize> {
        self.index
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(i) = self.index {
            let now = self.tracer.now_ns();
            self.tracer.lock()[i].end_ns = now;
        }
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Record>> {
        self.records.lock().expect("a span writer panicked")
    }

    /// Open span `name` for the die or job `id`, on track `tid`.
    pub fn span(&self, name: &'static str, id: &str, parent: Option<usize>, tid: u64) -> Guard<'_> {
        if !self.enabled.load(Ordering::SeqCst) {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut records = self.lock();
        records.push(Record {
            name,
            id: id.to_string(),
            parent,
            tid,
            start_ns,
            end_ns: start_ns,
        });
        Guard {
            tracer: self,
            index: Some(records.len() - 1),
        }
    }

    /// Summed duration of the direct children of span `parent`, in seconds.
    pub fn children_s(&self, parent: Option<usize>) -> f64 {
        if parent.is_none() {
            return 0.0;
        }
        let ns: u64 = self
            .lock()
            .iter()
            .filter(|r| r.parent == parent)
            .map(|r| r.end_ns - r.start_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Write every span as a Chrome trace-event document.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Value> = self
            .lock()
            .iter()
            .map(|r| {
                let mut args = vec![("id", r.id.as_str().into())];
                if let Some(p) = r.parent {
                    args.push(("parent", p.into()));
                }
                Value::obj([
                    ("name", r.name.into()),
                    ("ph", "X".into()),
                    ("pid", 1u64.into()),
                    ("tid", r.tid.into()),
                    ("ts", (r.start_ns as f64 / 1e3).into()),
                    ("dur", ((r.end_ns - r.start_ns) as f64 / 1e3).into()),
                    ("args", Value::obj(args)),
                ])
            })
            .collect();
        let doc = Value::obj([
            ("displayTimeUnit", "ms".into()),
            ("traceEvents", Value::Arr(events)),
        ]);
        prebond3d_resilience::atomic_write(path, &format!("{doc}\n"))
    }
}
