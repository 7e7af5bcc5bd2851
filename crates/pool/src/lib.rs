//! # prebond3d-pool
//!
//! A small scoped thread pool — std-only, honoring the offline /
//! no-external-deps constraint (DESIGN.md §7) — built around one contract:
//!
//! > **Order-preserving deterministic reduction.** Work is split into
//! > index-contiguous chunks, chunks are claimed by workers in any order,
//! > and results are merged back **in submission (index) order**. The
//! > output of [`par_map`] / [`par_chunks`] is therefore bit-identical to
//! > the serial loop regardless of thread count or OS scheduling.
//!
//! That contract is what lets the Fig. 6 flow — which feeds RNG-seeded
//! annealing and PODEM — run in parallel without perturbing a single
//! result bit; `tests/determinism.rs` at the workspace root locks it down.
//!
//! ## Thread count
//!
//! [`threads`] resolves, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    equivalence tests so concurrently running test binaries don't race
//!    on global state),
//! 2. the `PREBOND3D_THREADS` environment variable (parsed once),
//! 3. [`std::thread::available_parallelism`].
//!
//! `PREBOND3D_THREADS=1` restores today's exact serial code path: no
//! threads are spawned and closures run inline on the caller.
//!
//! ## Nested parallelism
//!
//! A worker thread that itself calls [`par_map`] (e.g. a bench die worker
//! whose flow reaches the parallel fault simulator) runs the inner call
//! serially — [`threads`] reports `1` inside a worker. This prevents
//! oversubscription; by the determinism contract the results are
//! unchanged either way.
//!
//! ## Telemetry
//!
//! When the calling thread has an active `obs::capture`, each spawned
//! worker runs under `obs::capture_carry` and its counters and histograms
//! are folded into the caller's capture after the join — a captured
//! region reports the same counters at any thread count. Spans and gauges
//! are not folded. With no active capture, worker probes go to the global
//! registry as before.
//!
//! ## Panics
//!
//! A panicking worker poisons the pool (surviving workers stop claiming
//! chunks), every thread is joined, and the original panic payload is
//! re-raised on the caller — never a deadlock, never a swallowed panic.

use std::cell::Cell;
use std::ops::Range;

use prebond3d_obs::hist::Hist;
use prebond3d_obs::trace;
use prebond3d_resilience::chaos;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Re-export of [`std::thread::scope`] so callers spawning bespoke
/// structured threads share one import point with the pool.
pub use std::thread::scope;

/// Process-global histogram of worker *idle gaps*: the nanoseconds between
/// a worker finishing one chunk (or entering the claim loop) and starting
/// the next — claim contention plus result-merge lock time.
///
/// Deliberately **outside** the obs registry: chunk counts depend on the
/// thread configuration (`auto_chunk` scales with [`threads`]), so folding
/// this into per-die capture snapshots would break the "byte-identical at
/// any thread count" report contract. The perf harness drains it into the
/// BENCH report's `pool` block instead, where the whole block is zeroed
/// under `PREBOND3D_STABLE_MS`.
static CHUNK_WAIT: Mutex<Hist> = Mutex::new(Hist::new());

/// Snapshot-and-reset the global chunk-wait histogram (perf harness).
pub fn drain_chunk_wait() -> Hist {
    std::mem::take(&mut *CHUNK_WAIT.lock().unwrap())
}

/// Copy of the global chunk-wait histogram without resetting (tests).
pub fn chunk_wait_snapshot() -> Hist {
    CHUNK_WAIT.lock().unwrap().clone()
}

static CONFIGURED: OnceLock<usize> = OnceLock::new();

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Threads the hardware offers ([`std::thread::available_parallelism`],
/// `1` when unknown).
pub fn available() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn configured() -> usize {
    *CONFIGURED.get_or_init(|| match std::env::var("PREBOND3D_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "[pool] invalid PREBOND3D_THREADS value `{v}` (expected a positive \
                     integer); using available parallelism"
                );
                available()
            }
        },
        Err(_) => available(),
    })
}

/// The thread count parallel regions will use right now.
///
/// Inside a pool worker this is always `1` (nested parallel calls run
/// serially — see the crate docs). Otherwise the [`with_threads`]
/// override wins, then `PREBOND3D_THREADS`, then [`available`].
pub fn threads() -> usize {
    if is_worker() {
        return 1;
    }
    OVERRIDE.with(Cell::get).unwrap_or_else(configured)
}

/// Is the current thread a pool worker?
pub fn is_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Run `f` with [`threads`] forced to `n` on this thread (RAII-restored,
/// nestable). Thread-local on purpose: the serial-vs-parallel equivalence
/// tests run concurrently under `cargo test` and must not race on a
/// process-global knob. `n` is clamped to at least 1.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _restore = Restore(prev);
    f()
}

/// The core primitive: split `0..n` into `chunk`-sized index ranges,
/// process them on [`threads`] workers, and return the per-chunk results
/// **in index order**.
///
/// Each worker owns one scratch state built by `init` (allocated once per
/// worker, not per chunk) — the seam for reusable simulation overlays.
/// With one thread (or when called from inside a worker) everything runs
/// inline on the caller: no spawn, no locking, today's exact code path.
pub fn par_chunks<S, R, I, W>(n: usize, chunk: usize, init: I, work: W) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, Range<usize>) -> R + Sync,
{
    let chunk = chunk.max(1);
    let nchunks = n.div_ceil(chunk);
    if nchunks == 0 {
        return Vec::new();
    }
    let workers = threads().min(nchunks);
    if workers <= 1 {
        let mut state = init();
        return (0..nchunks)
            .map(|c| {
                // Chaos site: a seeded injection run exercises the pool's
                // poison-and-reraise path (and the serial path here).
                chaos::maybe_panic("pool.worker");
                let lo = c * chunk;
                if trace::armed() {
                    let t0 = Instant::now();
                    let r = work(&mut state, lo..(lo + chunk).min(n));
                    trace::complete(
                        "pool",
                        "chunk",
                        t0,
                        t0.elapsed().as_nanos(),
                        Some(("chunk", c.into())),
                    );
                    r
                } else {
                    work(&mut state, lo..(lo + chunk).min(n))
                }
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(nchunks));
    // A caller running a job (e.g. a serving job with a per-job
    // `budget_ms`) keeps its job context inside the parallel region: the
    // context is copied into every worker, so deadlines constructed there
    // expire exactly as they would inline and degradations land in the
    // job's own sink.
    let job = prebond3d_resilience::job::current();
    // Workers have no capture registry of their own; a capturing caller
    // gets their counters folded back in after the join.
    let carry = prebond3d_obs::is_capturing();

    std::thread::scope(|s| {
        // RAII worker marker: cleared even when `work` unwinds, so the
        // panic can cross the thread boundary without leaking the flag
        // into any future use of this OS thread.
        struct WorkerMark;
        impl WorkerMark {
            fn enter() -> Self {
                IN_WORKER.with(|w| w.set(true));
                WorkerMark
            }
        }
        impl Drop for WorkerMark {
            fn drop(&mut self) {
                IN_WORKER.with(|w| w.set(false));
            }
        }
        // Poison on unwind so surviving workers stop claiming chunks.
        struct PoisonOnPanic<'a>(&'a AtomicBool);
        impl Drop for PoisonOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }

        // One relaxed load up front: arming tracing mid-region would skew
        // a timeline anyway, and per-chunk telemetry must cost nothing
        // when the recorder is off.
        let traced = trace::armed();
        let measured = traced || prebond3d_obs::is_active();
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                let poisoned = &poisoned;
                let results = &results;
                let init = &init;
                let work = &work;
                let job = &job;
                s.spawn(move || {
                    let _mark = WorkerMark::enter();
                    let _poison = PoisonOnPanic(poisoned);
                    let _job = prebond3d_resilience::job::install(job.clone());
                    if traced {
                        // Name the track before the first claim, so every
                        // spawned worker appears in the timeline even when
                        // one fast worker drains all the chunks.
                        trace::set_thread_name(&format!("pool worker {w}"));
                    }
                    let run = || {
                        let mut state = init();
                        let mut idle_from = measured.then(Instant::now);
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= nchunks || poisoned.load(Ordering::Relaxed) {
                                break;
                            }
                            chaos::maybe_panic("pool.worker");
                            if let Some(idle) = idle_from {
                                let wait_ns = idle.elapsed().as_nanos() as u64;
                                CHUNK_WAIT.lock().unwrap().record(wait_ns);
                            }
                            let lo = c * chunk;
                            let t0 = traced.then(Instant::now);
                            let r = work(&mut state, lo..(lo + chunk).min(n));
                            if let Some(t0) = t0 {
                                trace::complete(
                                    "pool",
                                    "chunk",
                                    t0,
                                    t0.elapsed().as_nanos(),
                                    Some(("chunk", c.into())),
                                );
                            }
                            results.lock().unwrap().push((c, r));
                            if measured {
                                idle_from = Some(Instant::now());
                            }
                        }
                    };
                    if carry {
                        Some(prebond3d_obs::capture_carry(run).1)
                    } else {
                        run();
                        None
                    }
                })
            })
            .collect();
        // Join explicitly so the first panic payload is re-raised on the
        // caller instead of aborting inside the scope's implicit join.
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(carried) => carried.into_iter().for_each(prebond3d_obs::Carry::fold),
                Err(p) => {
                    poisoned.store(true, Ordering::Relaxed);
                    panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
    });

    // Submission-order merge: this sort is the determinism contract.
    let mut out = results.into_inner().unwrap();
    out.sort_unstable_by_key(|&(c, _)| c);
    debug_assert!(out.iter().enumerate().all(|(i, &(c, _))| i == c));
    out.into_iter().map(|(_, r)| r).collect()
}

/// Default chunk size: ~8 chunks per worker for decent load balancing
/// without merge overhead.
fn auto_chunk(n: usize) -> usize {
    n.div_ceil(threads().saturating_mul(8).max(1)).max(1)
}

/// Map `f` over `items`, in parallel, preserving input order exactly.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_chunked(items, auto_chunk(items.len()), f)
}

/// [`par_map`] with an explicit chunk size (property tests sweep this).
pub fn par_map_chunked<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_chunks(
        items.len(),
        chunk,
        || (),
        |_, range| range.map(|i| f(&items[i])).collect::<Vec<R>>(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Map `f` over the index range `0..n`, in parallel, preserving index
/// order (for loops that index shared slices rather than iterate them).
pub fn par_range_map<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_chunks(
        n,
        auto_chunk(n),
        || (),
        |_, range| range.map(&f).collect::<Vec<R>>(),
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Parallel map followed by a **serial, submission-order fold** — the
/// reduction runs on the caller over results ordered by input index, so
/// non-commutative folds (bitset merges, report sections) stay
/// deterministic.
pub fn par_map_reduce<T, R, A, F, G>(items: &[T], f: F, acc: A, fold: G) -> A
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    G: FnMut(A, R) -> A,
{
    par_map(items, f).into_iter().fold(acc, fold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for t in [1, 2, 3, 8] {
            let par = with_threads(t, || par_map(&items, |x| x * 3 + 1));
            assert_eq!(par, serial, "threads={t}");
        }
    }

    #[test]
    fn par_chunks_merges_in_index_order() {
        let ranges = with_threads(4, || par_chunks(10, 3, || (), |_, r| r));
        assert_eq!(ranges, vec![0..3, 3..6, 6..9, 9..10]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = with_threads(4, || par_map(&[] as &[u32], |&x| x));
        assert!(out.is_empty());
        assert!(with_threads(4, || par_range_map(0, |i| i)).is_empty());
    }

    #[test]
    fn worker_state_is_reused_not_rebuilt_per_chunk() {
        let inits = AtomicU64::new(0);
        with_threads(2, || {
            par_chunks(
                100,
                1,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                },
                |_, _| (),
            )
        });
        assert!(inits.load(Ordering::Relaxed) <= 2, "one state per worker");
    }

    #[test]
    fn nested_parallelism_serializes() {
        let inner: Vec<usize> = with_threads(4, || par_range_map(8, |_| threads()));
        assert!(
            inner.iter().all(|&t| t == 1),
            "workers must report 1 thread"
        );
        assert!(!is_worker(), "caller is not a worker after the call");
    }

    #[test]
    fn worker_counters_fold_into_the_callers_capture() {
        let (_, snap) = prebond3d_obs::capture_recorded(|| {
            with_threads(4, || par_range_map(64, |_| prebond3d_obs::count("x", 1)))
        });
        assert_eq!(snap.counter("x"), 64);
    }

    #[test]
    fn with_threads_restores_on_unwind() {
        let before = threads();
        let _ = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert_eq!(threads(), before);
    }

    #[test]
    fn par_map_reduce_folds_in_order() {
        let items: Vec<u32> = (0..100).collect();
        let folded = with_threads(4, || {
            par_map_reduce(
                &items,
                |&x| x,
                Vec::new(),
                |mut acc, x| {
                    acc.push(x);
                    acc
                },
            )
        });
        assert_eq!(folded, items);
    }
}
