//! Graceful-degradation records.
//!
//! When a phase cuts itself short — PODEM aborting faults at its budget,
//! annealing returning best-so-far, exact clique search stopping at its
//! incumbent, a report write falling back to stderr — it records a
//! structured entry. Inside a job ([`crate::job::run`]) the entry goes to
//! that job's sink, so concurrent serving jobs never see each other's
//! records. Everywhere else it goes to the process-global registry: the
//! bench collector drains it once per `finish()` and folds the entries
//! into `results/run_<exp>.json` under `degradations`, so a degraded run
//! names exactly what it skipped instead of silently producing weaker
//! numbers.

use std::sync::Mutex;

/// One degradation: `phase` cut itself short by taking `action`, with a
/// human-readable `detail` (counts, file names, budget figures).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The phase that degraded (`atpg`, `anneal`, `clique.exact`, …).
    pub phase: &'static str,
    /// What it did instead of completing (`abort_faults`, `best_so_far`, …).
    pub action: &'static str,
    /// Free-form context: counts, budget, file names.
    pub detail: String,
}

static REGISTRY: Mutex<Vec<Degradation>> = Mutex::new(Vec::new());

/// Record one degradation into the current job's sink, or into the
/// process registry outside any job.
pub fn record(phase: &'static str, action: &'static str, detail: impl Into<String>) {
    let detail = detail.into();
    crate::hooks::emit("degrade", phase, &format!("{action}: {detail}"));
    let entry = Degradation {
        phase,
        action,
        detail,
    };
    match crate::job::with(|c| c.sink.clone()) {
        Some(sink) => sink
            .lock()
            .expect("no recorder panics while pushing")
            .push(entry),
        None => REGISTRY.lock().unwrap().push(entry),
    }
}

/// Drain the process registry (the collector calls this once per
/// `finish`).
pub fn drain() -> Vec<Degradation> {
    std::mem::take(&mut *REGISTRY.lock().unwrap())
}

/// Copy of the registry without draining (test assertions).
pub fn events() -> Vec<Degradation> {
    REGISTRY.lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    // The registry is process-global; serialize tests that touch it.
    static LOCK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn record_then_drain_round_trips() {
        let _l = LOCK.lock().unwrap();
        drain();
        record("atpg", "abort_faults", "12 faults aborted at 50ms budget");
        record("anneal", "best_so_far", "stopped after 4096/16384 moves");
        let evs = events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].phase, "atpg");
        let drained = drain();
        assert_eq!(drained, evs);
        assert!(drain().is_empty(), "drain empties the registry");
    }
}
