//! The per-thread job context: the phase-budget override and the
//! degradation sink of the job running on this thread.
//!
//! A serving job runs under [`run`], which installs both for its
//! duration. The pool copies the whole context into its scoped workers
//! ([`current`] + [`install`]), so a parallel region inside a job stays
//! budgeted and charges its degradations to that job — never to another
//! job in flight. Threads outside any job have the empty context: the
//! ambient budget applies and degradations go to the process registry.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use crate::degrade::Degradation;

/// What one thread inherits from the job it works for.
#[derive(Debug, Clone, Default)]
pub struct JobContext {
    /// The job's per-phase budget in milliseconds; `None` falls through
    /// to the process override and the environment.
    pub(crate) budget_ms: Option<u64>,
    /// Where degradations are recorded; `None` is the process registry.
    pub(crate) sink: Option<Arc<Mutex<Vec<Degradation>>>>,
}

thread_local! {
    static CONTEXT: RefCell<JobContext> = RefCell::new(JobContext::default());
}

/// Read the current thread's context.
pub(crate) fn with<R>(f: impl FnOnce(&JobContext) -> R) -> R {
    CONTEXT.with(|c| f(&c.borrow()))
}

/// A copy of this thread's context, for propagating into threads it
/// spawns.
pub fn current() -> JobContext {
    with(JobContext::clone)
}

/// RAII guard restoring the previous context on drop.
#[must_use = "dropping the guard immediately undoes the context"]
pub struct ContextGuard {
    prev: JobContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        CONTEXT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Install `ctx` on this thread until the returned guard drops.
pub fn install(ctx: JobContext) -> ContextGuard {
    ContextGuard {
        prev: CONTEXT.with(|c| c.replace(ctx)),
    }
}

/// Run `f` as one job: under a `budget_ms` phase budget (`None` keeps the
/// ambient one) and with a fresh degradation sink. Returns `f`'s result
/// and every degradation recorded meanwhile on this thread or on the pool
/// workers it spawned. The previous context is restored on exit, panics
/// included.
pub fn run<R>(budget_ms: Option<u64>, f: impl FnOnce() -> R) -> (R, Vec<Degradation>) {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut ctx = current();
    ctx.budget_ms = budget_ms.or(ctx.budget_ms);
    ctx.sink = Some(Arc::clone(&sink));
    let out = {
        let _guard = install(ctx);
        f()
    };
    let recorded = std::mem::take(&mut *sink.lock().expect("no recorder panics while pushing"));
    (out, recorded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::budget_ms;
    use crate::degrade;

    #[test]
    fn job_budget_and_sink_are_scoped_and_restored() {
        let ((), recorded) = run(Some(7), || {
            assert_eq!(budget_ms(), Some(7));
            degrade::record("atpg", "abort_faults", "inside the job");
            // A nested job keeps its own records.
            let ((), inner) = run(None, || {
                assert_eq!(budget_ms(), Some(7), "nested jobs inherit the budget");
                degrade::record("anneal", "best_so_far", "nested");
            });
            assert_eq!(inner.len(), 1);
        });
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].detail, "inside the job");
        assert!(current().sink.is_none(), "context restored");
        assert!(degrade::events()
            .iter()
            .all(|d| d.detail != "inside the job"));
    }
}
