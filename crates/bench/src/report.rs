//! Machine-readable run reports and checkpoint/resume.
//!
//! Every experiment binary wraps its work in [`begin`]/[`finish`] (via
//! [`crate::driver::run`]); the table modules bracket each die's work
//! with [`die_scope`] (serial) or [`resilient_par_die_scopes`] (one pool
//! worker per die, with per-unit panic isolation and crash-safe
//! checkpointing). The result is one
//! `results/run_<experiment>.json` per invocation, holding per-die phase
//! timings (the `flow/...` span tree), the algorithm counters the text
//! tables do not show, the chaos/degradation/failed-unit records from
//! `prebond3d-resilience`, the per-phase wall-time histograms, memory
//! and pool telemetry and the thread count. It is the only report an
//! experiment writes, and it is written atomically (temp file + rename),
//! so a `SIGKILL` mid-write never leaves a torn report.
//!
//! The collector forces `prebond3d-obs` recording on for the duration of
//! the run, independent of the `PREBOND3D_OBS` sink — so reports are
//! always written, while event streaming stays opt-in. When no collector
//! is active (unit tests calling `table3::run()` directly), the scopes
//! degrade to plain calls and no checkpoint is touched.
//!
//! ## Parallel sections and determinism
//!
//! Each die section is captured with [`obs::capture`], which aggregates
//! that worker's probes into a thread-local registry — workers never
//! touch (let alone reset) the global registry, and the collector pushes
//! sections **in submission order**, so the report's section list is
//! identical for any `PREBOND3D_THREADS`. Only the `ms` timings differ
//! run to run; every counter and span count is exact at any thread count.
//! Counters commute, and each probe lands in exactly one section's
//! registry: a parallel region nested in a die worker runs inline (the
//! pool's nesting rule), and one entered from a capturing non-worker
//! thread folds its workers' counters back into the capture — but only
//! counters and histograms; its workers' spans stay per thread. With
//! `PREBOND3D_STABLE_MS=1` the wall-clock fields are zeroed at [`finish`],
//! making reports byte-identical across runs — the mode the
//! kill-and-resume determinism suite runs under.
//!
//! ## Checkpoint/resume
//!
//! [`resilient_par_die_scopes`] persists one JSON line per completed unit
//! to `results/checkpoint_<experiment>.json` (keyed by a config hash over
//! the experiment name, the crate version and the circuit selection —
//! deliberately *not* the thread count). With `PREBOND3D_RESUME=1`,
//! [`begin`] loads the checkpoint and finished units are skipped: their
//! stored report section and decoded result are replayed, so an
//! interrupted sweep converges to the same final reports as an
//! uninterrupted one. Without resume, [`begin`] deletes any stale
//! checkpoint. A fully successful [`finish`] removes the checkpoint.

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use prebond3d_obs as obs;
use prebond3d_obs::json::Value;
use prebond3d_pool as pool;
use prebond3d_resilience as resil;

/// Completed-unit map loaded from (and appended to) the checkpoint file.
struct Checkpoint {
    path: PathBuf,
    /// Config hash in the header; a mismatch discards the file.
    hash: u64,
    /// `"<scope>/<label>" → {key, section, result}` entries.
    done: BTreeMap<String, Value>,
    /// Units actually skipped via resume so far.
    skipped: u64,
}

struct Collector {
    experiment: String,
    started: Instant,
    sections: Vec<Value>,
    /// `span path → histogram of per-section wall times (ns)` — one sample
    /// per section containing the span, so the sample *counts* are
    /// thread-invariant while the values are wall-clock (and zeroed under
    /// stable-ms). Checkpoint-replayed sections feed this identically.
    phase_hists: BTreeMap<String, obs::hist::Hist>,
    /// Peak of the per-section-boundary RSS samples, in kB.
    rss_kb: obs::hist::Hist,
    /// Failed-unit records from [`record_failure`].
    failures: Vec<Value>,
    checkpoint: Checkpoint,
    /// Keeps obs aggregation on until `finish`.
    _recording: obs::RecordingGuard,
}

static COLLECTOR: Mutex<Option<Collector>> = Mutex::new(None);

/// Config hash for the checkpoint header: experiment name, crate version
/// and circuit selection. The thread count is deliberately excluded so a
/// sweep can be resumed at any `PREBOND3D_THREADS`.
fn config_hash(experiment: &str) -> u64 {
    let selection = crate::context::try_circuit_names().map_or_else(|e| e, |names| names.join(","));
    let mut h = resil::fnv1a(experiment.as_bytes());
    h = resil::fnv1a_more(h, b"\0");
    h = resil::fnv1a_more(h, env!("CARGO_PKG_VERSION").as_bytes());
    h = resil::fnv1a_more(h, b"\0");
    resil::fnv1a_more(h, selection.as_bytes())
}

/// Start collecting a run report for `experiment`. Replaces any collector
/// left over from an earlier, unfinished run. With `PREBOND3D_RESUME=1`
/// the experiment's checkpoint (if any, and only if its config hash
/// matches) is loaded so finished units can be skipped; otherwise any
/// stale checkpoint is deleted and the sweep starts fresh.
pub fn begin(experiment: &str) {
    let path = report_dir().join(format!("checkpoint_{experiment}.json"));
    let hash = config_hash(experiment);
    let mut done = BTreeMap::new();
    if resil::resume_enabled() {
        for line in resil::io::load_checkpoint(&path, hash).unwrap_or_default() {
            match obs::json::parse(&line) {
                Ok(entry) => {
                    if let Some(key) = entry.get("key").and_then(Value::as_str) {
                        done.insert(key.to_string(), entry);
                    }
                }
                // A corrupt interior line (e.g. a crash-terminated
                // fragment) only costs re-running that one unit.
                Err(e) => eprintln!(
                    "resume: skipping unreadable checkpoint line in {}: {e}",
                    path.display()
                ),
            }
        }
        if !done.is_empty() {
            eprintln!(
                "resume: {} finished unit(s) loaded from {}",
                done.len(),
                path.display()
            );
        }
    } else {
        let _ = std::fs::remove_file(&path);
    }
    let collector = Collector {
        experiment: experiment.to_string(),
        started: Instant::now(),
        sections: Vec::new(),
        phase_hists: BTreeMap::new(),
        rss_kb: obs::hist::Hist::new(),
        failures: Vec::new(),
        checkpoint: Checkpoint {
            path,
            hash,
            done,
            skipped: 0,
        },
        _recording: obs::record(),
    };
    *COLLECTOR.lock().unwrap() = Some(collector);
    obs::reset();
}

fn collector_active() -> bool {
    COLLECTOR.lock().unwrap().is_some()
}

/// Build the JSON payload of one report section.
fn section_value(label: &str, elapsed_ms: f64, snap: &obs::Snapshot) -> Value {
    let mut section = snap.to_json();
    if let Value::Obj(map) = &mut section {
        map.insert("label".to_string(), label.into());
        map.insert("ms".to_string(), elapsed_ms.into());
    }
    section
}

/// Push a section payload and fold its spans into the collector's phase
/// histograms. Fresh and checkpoint-replayed sections go through this
/// same path, so a resumed run aggregates exactly like an uninterrupted
/// one.
fn push_section_value(section: Value) {
    if let Some(c) = COLLECTOR.lock().unwrap().as_mut() {
        if let Some(Value::Arr(spans)) = section.get("spans") {
            for s in spans {
                let (Some(path), Some(ms)) = (
                    s.get("path").and_then(Value::as_str),
                    s.get("ms").and_then(Value::as_f64),
                ) else {
                    continue;
                };
                // One latency sample per section: the per-die wall-time
                // distribution of this phase.
                c.phase_hists
                    .entry(path.to_string())
                    .or_default()
                    .record((ms.max(0.0) * 1.0e6) as u64);
            }
        }
        // RSS sampled at the section boundary (the "phase boundary" of a
        // sweep); the count is the section count, the values wall-clock-ish
        // (allocator-dependent) and zeroed under stable-ms.
        if let Some(kb) = obs::mem::rss_now_kb() {
            c.rss_kb.record(kb);
        }
        c.sections.push(section);
    }
}

/// Record a failed unit: it appears in the run report's `failures` array
/// and drives the partial-failure exit code (see [`crate::driver`]).
pub fn record_failure(label: &str, error: &str) {
    record_failure_with(label, error, None);
}

/// [`record_failure`] carrying the unit's partial obs capture — the
/// spans/counters/hists it recorded up to the panic — so a post-mortem
/// has telemetry instead of just a message. `resilient_par_die_scopes`
/// drains each panicking unit's capture through here.
pub fn record_failure_with(label: &str, error: &str, partial: Option<Value>) {
    eprintln!("unit failed: {label}: {error}");
    if let Some(c) = COLLECTOR.lock().unwrap().as_mut() {
        let mut fields = vec![("label", Value::from(label)), ("error", error.into())];
        if let Some(partial) = partial {
            fields.push(("partial", partial));
        }
        c.failures.push(Value::obj(fields));
    }
}

/// Render a panic payload (what `catch_unwind` returns) as a message.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run `f` as one report section (typically one die), capturing the obs
/// spans/counters it produces. A plain call when no collector is active.
pub fn die_scope<T>(label: &str, f: impl FnOnce() -> T) -> T {
    if !collector_active() {
        return f();
    }
    let t = Instant::now();
    let (out, snap) = obs::capture(f);
    push_section_value(section_value(
        label,
        t.elapsed().as_secs_f64() * 1.0e3,
        &snap,
    ));
    out
}

/// Run `run` over `items` on the pool (chunk size 1). `run` must be
/// panic-free (catch its unit's panics internally); if the pool itself is
/// poisoned — e.g. a chaos panic injected in the worker loop proper —
/// the poisoning is recorded as a degradation and every item is re-run
/// serially, off the pool, so one poisoned worker never kills a sweep.
pub(crate) fn pool_with_poison_fallback<C, R>(items: &[C], run: impl Fn(&C) -> R + Sync) -> Vec<R>
where
    C: Sync,
    R: Send,
{
    match catch_unwind(AssertUnwindSafe(|| pool::par_map_chunked(items, 1, &run))) {
        Ok(results) => results,
        Err(p) => {
            resil::degrade::record(
                "pool",
                "serial_fallback",
                format!(
                    "worker pool poisoned by `{}`; re-running {} unit(s) serially",
                    panic_message(p.as_ref()),
                    items.len()
                ),
            );
            items.iter().map(run).collect()
        }
    }
}

/// Parallel [`die_scope`] with per-unit panic isolation and crash-safe
/// checkpointing: run `f` over `cases` on the pool, one section per case.
/// Outputs **and** report sections come back in `cases` order regardless
/// of thread count — each worker captures its own probes thread-locally
/// and the merge happens here, serially. Each unit runs under
/// `catch_unwind`; a panicking unit
/// yields `None`, is recorded via [`record_failure`] and the rest of the
/// sweep completes. Each *successful* unit is appended to the
/// experiment's checkpoint as `{key, section, result}` (the result
/// serialized by `encode`), and with `PREBOND3D_RESUME=1` previously
/// finished units are skipped: their stored section is replayed into the
/// report and their result revived via `decode`. `scope` namespaces the
/// checkpoint keys, so several scopes (the `all_experiments` driver runs
/// six) share one checkpoint file without colliding.
///
/// With no active collector this is just the panic-isolated variant — no
/// checkpoint is read or written.
pub fn resilient_par_die_scopes<C, T>(
    scope: &str,
    cases: &[C],
    label: impl Fn(&C) -> String + Sync,
    f: impl Fn(&C) -> T + Sync,
    encode: impl Fn(&T) -> Value + Sync,
    decode: impl Fn(&Value) -> Option<T>,
) -> Vec<Option<T>>
where
    C: Sync,
    T: Send,
{
    let active = collector_active();
    // Resolve resume hits up front so only the misses hit the pool.
    let mut cached: Vec<Option<(Value, T)>> = cases
        .iter()
        .map(|case| {
            if !active {
                return None;
            }
            let key = format!("{scope}/{}", label(case));
            let entry = checkpoint_entry(&key)?;
            let section = entry.get("section")?.clone();
            let result = decode(entry.get("result")?)?;
            Some((section, result))
        })
        .collect();
    let todo: Vec<&C> = cases
        .iter()
        .zip(&cached)
        .filter(|(_, hit)| hit.is_none())
        .map(|(case, _)| case)
        .collect();
    // Each unit appends its checkpoint entry *as it completes*, from the
    // worker itself — a kill at any point during the sweep loses at most
    // the units still in flight, which is the whole point of resuming.
    let run_one = |case: &&C| {
        let t = Instant::now();
        let (res, snap) = if active {
            obs::capture(|| catch_unwind(AssertUnwindSafe(|| f(case))))
        } else {
            (
                catch_unwind(AssertUnwindSafe(|| f(case))),
                obs::Snapshot::empty(),
            )
        };
        let ms = t.elapsed().as_secs_f64() * 1.0e3;
        match res {
            Ok(v) => {
                let section = active.then(|| {
                    let name = label(case);
                    let section = section_value(&name, ms, &snap);
                    let entry = Value::obj([
                        ("key", format!("{scope}/{name}").as_str().into()),
                        ("section", section.clone()),
                        ("result", encode(&v)),
                    ]);
                    checkpoint_append(&entry);
                    section
                });
                Ok((v, section))
            }
            Err(p) => {
                // The capture survived the unwind (span guards record on
                // drop), so the panicking unit's partial telemetry rides
                // along into its `failures[]` entry.
                let partial =
                    (active && !snap.is_empty()).then(|| section_value(&label(case), ms, &snap));
                Err((panic_message(p.as_ref()), partial))
            }
        }
    };
    let fresh = pool_with_poison_fallback(&todo, run_one);

    // Merge in submission order: replayed hits and fresh results
    // interleave back into `cases` order.
    let mut fresh_iter = fresh.into_iter();
    let mut out = Vec::with_capacity(cases.len());
    for (case, hit) in cases.iter().zip(cached.iter_mut()) {
        if let Some((section, result)) = hit.take() {
            if active {
                push_section_value(section);
                note_skipped();
            }
            out.push(Some(result));
            continue;
        }
        match fresh_iter.next().expect("one fresh result per miss") {
            Ok((v, section)) => {
                if let Some(section) = section {
                    push_section_value(section);
                }
                out.push(Some(v));
            }
            Err((msg, partial)) => {
                record_failure_with(&label(case), &msg, partial);
                out.push(None);
            }
        }
    }
    out
}

fn checkpoint_entry(key: &str) -> Option<Value> {
    COLLECTOR
        .lock()
        .unwrap()
        .as_ref()?
        .checkpoint
        .done
        .get(key)
        .cloned()
}

fn note_skipped() {
    if let Some(c) = COLLECTOR.lock().unwrap().as_mut() {
        c.checkpoint.skipped += 1;
    }
}

/// Append one completed-unit entry to the checkpoint. Called from pool
/// workers as units complete, so appends are serialized by a dedicated
/// lock (the entry + newline go out in one write, but the
/// read-then-append inside `append_checkpoint` must not interleave). A
/// write failure is a degradation (the run continues; only resumability
/// of this unit is lost), recorded so the chaos suite sees the injected
/// fault reported.
fn checkpoint_append(entry: &Value) {
    static APPEND: Mutex<()> = Mutex::new(());
    let (path, hash) = {
        let guard = COLLECTOR.lock().unwrap();
        let Some(c) = guard.as_ref() else { return };
        (c.checkpoint.path.clone(), c.checkpoint.hash)
    };
    let _serialized = APPEND.lock().unwrap();
    if let Err(e) = resil::io::append_checkpoint(&path, hash, &entry.to_string()) {
        resil::degrade::record("checkpoint", "drop_entry", e.to_string());
    }
}

/// Where run reports and checkpoints go: `PREBOND3D_REPORT_DIR`,
/// default `results` in the working directory.
pub fn report_dir() -> PathBuf {
    std::env::var("PREBOND3D_REPORT_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

/// Atomic report write with a contextual error naming the file. Write
/// errors are reported on stderr rather than aborting the experiment
/// (the text output already happened).
fn write_report(path: &std::path::Path, doc: &Value) -> bool {
    match resil::atomic_write(path, &format!("{doc}\n")) {
        Ok(()) => {
            eprintln!("run report: {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("run report: {e}");
            false
        }
    }
}

/// Zero every environment-dependent field in `doc` — wall clocks (`ms`,
/// `elapsed_ms`), the `threads` count, any `*_ns` latency field, the
/// memory-telemetry fields, and the *value* summary of every histogram
/// object (`sum`, `max`, quantiles — the sample `count` is deterministic
/// and survives) — the `PREBOND3D_STABLE_MS` normalization that makes
/// reports byte-comparable across runs and thread counts.
pub(crate) fn zero_ms(v: &mut Value) {
    match v {
        Value::Obj(map) => {
            // A histogram summary (obs::hist::Hist::to_json) is the one
            // object shape whose `max`/`sum` are wall-clock-bearing.
            let is_hist = ["count", "p50", "p95", "p99"]
                .iter()
                .all(|k| map.contains_key(*k));
            for (k, v) in map.iter_mut() {
                let is_clock = matches!(
                    k.as_str(),
                    "ms" | "elapsed_ms"
                        | "threads"
                        | "alloc_bytes_total"
                        | "alloc_bytes_peak"
                        | "rss_now_kb"
                        | "rss_peak_kb"
                ) || k.ends_with("_ns")
                    || (is_hist && matches!(k.as_str(), "sum" | "max" | "p50" | "p95" | "p99"));
                if is_clock && matches!(v, Value::Num(_)) {
                    *v = 0.0.into();
                } else {
                    zero_ms(v);
                }
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(zero_ms),
        _ => {}
    }
}

/// What [`finish_summary`] hands back to the driver.
#[derive(Debug)]
pub struct Summary {
    /// Path of `run_<exp>.json`, when it was written.
    pub run_path: Option<PathBuf>,
    /// Failed units recorded via [`record_failure`].
    pub failures: usize,
    /// Units skipped by checkpoint resume.
    pub resume_skipped: u64,
}

/// Finish the report: write `results/run_<experiment>.json` (directory
/// overridable via `PREBOND3D_REPORT_DIR`) and return its path. `None` when
/// no collector is active. See [`finish_summary`] for the exit-code
/// driving variant.
pub fn finish() -> Option<PathBuf> {
    finish_summary().run_path
}

/// [`finish`], returning the failure/resume tallies the drivers map to
/// exit codes. Also folds the drained chaos events and degradation
/// records into the run report, applies the stable-ms normalization, and
/// removes the checkpoint after a fully successful sweep.
pub fn finish_summary() -> Summary {
    let Some(collector) = COLLECTOR.lock().unwrap().take() else {
        return Summary {
            run_path: None,
            failures: 0,
            resume_skipped: 0,
        };
    };
    let elapsed_ms = collector.started.elapsed().as_secs_f64() * 1.0e3;
    let failures = collector.failures.len();
    let resume_skipped = collector.checkpoint.skipped;

    let degradations: Vec<Value> = resil::degrade::drain()
        .into_iter()
        .map(|d| {
            Value::obj([
                ("phase", d.phase.into()),
                ("action", d.action.into()),
                ("detail", d.detail.as_str().into()),
            ])
        })
        .collect();
    let chaos_events: Vec<Value> = resil::chaos::drain_events()
        .into_iter()
        .map(|e| {
            Value::obj([
                ("site", e.site.into()),
                ("kind", e.kind.label().into()),
                ("seq", e.seq.into()),
            ])
        })
        .collect();
    let mut chaos_fields = vec![("armed", Value::Bool(resil::chaos::armed()))];
    if let Some((seed, rate)) = resil::chaos::config() {
        chaos_fields.push(("seed", seed.into()));
        chaos_fields.push(("rate", rate.into()));
    }
    chaos_fields.push(("events", Value::Arr(chaos_events)));

    // Memory telemetry: allocator counters when the obs-alloc feature is
    // on, kernel RSS where /proc exists, plus the per-section RSS samples.
    // All nondeterministic, so every field is zeroed under stable-ms.
    let mut mem_fields: Vec<(&'static str, Value)> = Vec::new();
    if let Some((total, _current, peak)) = obs::alloc_stats() {
        mem_fields.push(("alloc_bytes_total", total.into()));
        mem_fields.push(("alloc_bytes_peak", peak.into()));
    }
    if let Some(kb) = obs::mem::rss_now_kb() {
        mem_fields.push(("rss_now_kb", kb.into()));
    }
    if let Some(kb) = obs::mem::rss_peak_kb() {
        mem_fields.push(("rss_peak_kb", kb.into()));
    }
    mem_fields.push(("rss_sampled_kb", collector.rss_kb.to_json()));
    let mem = Value::obj(mem_fields);

    // Per-phase wall-time distributions: `path → hist summary`, one
    // sample per section. Sample counts are thread-invariant; values are
    // wall-clock and zeroed under stable-ms like every hist.
    let hists = Value::Obj(
        collector
            .phase_hists
            .iter()
            .map(|(path, h)| (path.clone(), h.to_json()))
            .collect(),
    );

    // Worker idle-gap telemetry from the pool. Chunk counts depend on the
    // thread configuration, so under stable-ms the whole histogram —
    // including its count — is replaced by an empty one.
    let chunk_wait = pool::drain_chunk_wait();
    let chunk_wait = if resil::stable_ms() {
        obs::hist::Hist::new()
    } else {
        chunk_wait
    };

    let mut run_doc = Value::obj([
        ("experiment", collector.experiment.as_str().into()),
        ("threads", pool::threads().into()),
        ("elapsed_ms", elapsed_ms.into()),
        ("sections", Value::Arr(collector.sections)),
        ("hists", hists),
        ("mem", mem),
        ("pool", Value::obj([("chunk_wait", chunk_wait.to_json())])),
        ("failures", Value::Arr(collector.failures)),
        ("degradations", Value::Arr(degradations)),
        ("chaos", Value::obj(chaos_fields)),
    ]);
    if resil::stable_ms() {
        zero_ms(&mut run_doc);
    }
    // A traced run flushes its timeline alongside the report, so a
    // normally-completed experiment leaves a complete trace file without
    // relying on the panic hook.
    obs::trace::flush();

    let run_path = report_dir().join(format!("run_{}.json", collector.experiment));
    let run_path = write_report(&run_path, &run_doc).then_some(run_path);
    if failures == 0 {
        // The sweep is complete; a later fresh run must not resume it.
        let _ = std::fs::remove_file(&collector.checkpoint.path);
    }
    if resume_skipped > 0 {
        eprintln!("resume: skipped {resume_skipped} finished unit(s)");
    }
    Summary {
        run_path,
        failures,
        resume_skipped,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // The collector is global state shared with any other test in this
    // binary that records (the driver tests too); serialize access.
    pub(crate) static LOCK: Mutex<()> = Mutex::new(());

    fn temp_report_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prebond3d_report_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn inactive_scope_is_a_plain_call() {
        let _l = LOCK.lock().unwrap();
        assert!(COLLECTOR.lock().unwrap().is_none());
        let out = die_scope("x", || 41 + 1);
        assert_eq!(out, 42);
        // The parallel scope still isolates panics without a collector.
        let outs = resilient_par_die_scopes(
            "t",
            &[1usize, 2, 3],
            |c| format!("c{c}"),
            |&c| {
                assert!(c != 2, "unit 2 explodes");
                c * 10
            },
            |v| (*v).into(),
            |v| v.as_u64().map(|n| n as usize),
        );
        assert_eq!(outs, vec![Some(10), None, Some(30)]);
    }

    #[test]
    fn report_roundtrips_through_the_json_parser() {
        let _l = LOCK.lock().unwrap();
        let dir = temp_report_dir("rt");
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);

        begin("unit");
        let v = die_scope("die0", || {
            let _s = obs::span("unit_phase");
            obs::count("unit.counter", 3);
            7
        });
        assert_eq!(v, 7);
        let path = finish().expect("report written");
        std::env::remove_var("PREBOND3D_REPORT_DIR");
        let text = std::fs::read_to_string(&path).unwrap();

        let doc = prebond3d_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("experiment").unwrap().as_str(), Some("unit"));
        let sections = doc.get("sections").unwrap().as_arr().unwrap();
        assert_eq!(sections.len(), 1);
        let sec = &sections[0];
        assert_eq!(sec.get("label").unwrap().as_str(), Some("die0"));
        assert_eq!(
            sec.get("counters")
                .unwrap()
                .get("unit.counter")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let spans = sec.get("spans").unwrap().as_arr().unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("path").unwrap().as_str() == Some("unit_phase")));
        // The resilience fields are always present.
        assert!(doc.get("failures").unwrap().as_arr().unwrap().is_empty());
        assert!(doc.get("degradations").is_some());
        assert_eq!(
            doc.get("chaos").unwrap().get("armed").unwrap().as_bool(),
            Some(false)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parallel_sections_keep_submission_order_and_exact_counters() {
        let _l = LOCK.lock().unwrap();
        let dir = temp_report_dir("par");
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);

        let cases: Vec<u64> = (0..6).collect();
        begin("unit_par");
        let outs = pool::with_threads(4, || {
            resilient_par_die_scopes(
                "t",
                &cases,
                |c| format!("die{c}"),
                |&c| {
                    let _s = obs::span("work");
                    obs::count("work.items", c + 1);
                    c * 2
                },
                |v| (*v).into(),
                Value::as_u64,
            )
        });
        assert_eq!(outs, [0, 2, 4, 6, 8, 10].map(Some));
        let path = finish().expect("report written");
        std::env::remove_var("PREBOND3D_REPORT_DIR");

        let doc = prebond3d_obs::json::parse(&std::fs::read_to_string(&path).unwrap())
            .expect("valid JSON");
        let sections = doc.get("sections").unwrap().as_arr().unwrap();
        let labels: Vec<&str> = sections
            .iter()
            .map(|s| s.get("label").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(labels, ["die0", "die1", "die2", "die3", "die4", "die5"]);
        for (i, sec) in sections.iter().enumerate() {
            assert_eq!(
                sec.get("counters")
                    .unwrap()
                    .get("work.items")
                    .unwrap()
                    .as_u64(),
                Some(i as u64 + 1),
                "each section holds exactly its own worker's counters"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_units_are_recorded_and_the_rest_survive() {
        let _l = LOCK.lock().unwrap();
        let dir = temp_report_dir("fail");
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);

        begin("unit_fail");
        let outs = resilient_par_die_scopes(
            "t",
            &[1usize, 2, 3],
            |c| format!("die{c}"),
            |&c| {
                assert!(c != 2, "unit die2 explodes");
                c * 10
            },
            |v| (*v).into(),
            |v| v.as_u64().map(|n| n as usize),
        );
        assert_eq!(outs, vec![Some(10), None, Some(30)]);
        let summary = finish_summary();
        std::env::remove_var("PREBOND3D_REPORT_DIR");
        assert_eq!(summary.failures, 1);
        let doc = prebond3d_obs::json::parse(
            &std::fs::read_to_string(summary.run_path.expect("report written")).unwrap(),
        )
        .expect("valid JSON");
        let failures = doc.get("failures").unwrap().as_arr().unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].get("label").unwrap().as_str(), Some("die2"));
        assert!(failures[0]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("explodes"));
        // Successful units got sections; the failed one did not.
        let sections = doc.get("sections").unwrap().as_arr().unwrap();
        assert_eq!(sections.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_resume_skips_finished_units() {
        let _l = LOCK.lock().unwrap();
        let dir = temp_report_dir("ckpt");
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);
        resil::force_stable_ms(Some(true));

        let encode = |v: &usize| Value::from(*v);
        let decode = |v: &Value| v.as_u64().map(|n| n as usize);
        let work = |&c: &usize| {
            obs::count("unit.calls", 1);
            c * 10
        };

        // First run: two of three units succeed, one fails — the
        // checkpoint holds the two and survives `finish`.
        begin("unit_resume");
        let outs = resilient_par_die_scopes(
            "t",
            &[1usize, 2, 3],
            |c| format!("die{c}"),
            |c| {
                assert!(*c != 3, "die3 fails on the first attempt");
                work(c)
            },
            encode,
            decode,
        );
        assert_eq!(outs, vec![Some(10), Some(20), None]);
        let first = finish_summary();
        assert_eq!(first.failures, 1);
        let ckpt = dir.join("checkpoint_unit_resume.json");
        assert!(ckpt.exists(), "failed sweep keeps its checkpoint");

        // Resumed run: the two finished units are skipped, die3 runs.
        resil::force_resume(Some(true));
        begin("unit_resume");
        let outs = resilient_par_die_scopes(
            "t",
            &[1usize, 2, 3],
            |c| format!("die{c}"),
            work,
            encode,
            decode,
        );
        assert_eq!(outs, vec![Some(10), Some(20), Some(30)]);
        let second = finish_summary();
        resil::force_resume(None);
        assert_eq!(second.failures, 0);
        assert_eq!(second.resume_skipped, 2);
        assert!(!ckpt.exists(), "successful sweep removes its checkpoint");

        // The resumed report equals a from-scratch run byte for byte.
        let resumed = std::fs::read_to_string(second.run_path.expect("report")).unwrap();
        begin("unit_resume");
        let outs = resilient_par_die_scopes(
            "t",
            &[1usize, 2, 3],
            |c| format!("die{c}"),
            work,
            encode,
            decode,
        );
        assert_eq!(outs, vec![Some(10), Some(20), Some(30)]);
        let fresh_summary = finish_summary();
        let fresh = std::fs::read_to_string(fresh_summary.run_path.expect("report")).unwrap();
        assert_eq!(
            resumed, fresh,
            "resumed and fresh reports are byte-identical"
        );

        resil::force_stable_ms(None);
        std::env::remove_var("PREBOND3D_REPORT_DIR");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stable_ms_zeroes_every_clock_field() {
        let _l = LOCK.lock().unwrap();
        let dir = temp_report_dir("stable");
        std::env::set_var("PREBOND3D_REPORT_DIR", &dir);
        resil::force_stable_ms(Some(true));

        begin("unit_stable");
        die_scope("die0", || {
            let _s = obs::span("phase_a");
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let run_path = finish().expect("report written");
        resil::force_stable_ms(None);
        std::env::remove_var("PREBOND3D_REPORT_DIR");

        fn assert_zero(v: &Value) {
            match v {
                Value::Obj(map) => {
                    for (k, v) in map {
                        if matches!(k.as_str(), "ms" | "elapsed_ms" | "threads")
                            && matches!(v, Value::Num(_))
                        {
                            assert_eq!(v.as_f64(), Some(0.0), "field `{k}` must be zeroed");
                        }
                        assert_zero(v);
                    }
                }
                Value::Arr(items) => items.iter().for_each(assert_zero),
                _ => {}
            }
        }
        let doc = prebond3d_obs::json::parse(&std::fs::read_to_string(&run_path).unwrap()).unwrap();
        assert_eq!(doc.get("threads").and_then(Value::as_u64), Some(0));
        assert_eq!(
            doc.get("pool")
                .and_then(|p| p.get("chunk_wait"))
                .and_then(|h| h.get("count"))
                .and_then(Value::as_u64),
            Some(0),
            "chunk counts depend on the thread configuration"
        );
        assert_zero(&doc);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
