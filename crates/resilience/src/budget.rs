//! Cooperative phase deadlines.
//!
//! `PREBOND3D_BUDGET_MS=<ms>` gives every *phase* (PODEM search, fault
//! simulation, clique merging, annealing, exact search) the same wall-clock
//! budget, counted from the moment the phase constructs its [`Deadline`].
//! The long loops poll [`Deadline::expired`] every few hundred iterations
//! and degrade gracefully on expiry: PODEM aborts the fault with a reason,
//! annealing returns best-so-far, exact clique search returns its
//! incumbent with `optimal = false`. Each such degradation is recorded via
//! [`crate::degrade`] so the run report names what was cut short.
//!
//! When no budget is configured, [`Deadline::none`] is returned and every
//! check is a branch on `Option::None` — no clock reads, so unbudgeted
//! runs stay exactly as deterministic as before.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// A point in time after which a phase should wind down. `Copy`, cheap to
/// pass by value into config structs and worker closures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline that never expires (the unbudgeted default). Checks
    /// against it never read the clock.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// A deadline `ms` milliseconds from now.
    pub fn in_ms(ms: u64) -> Self {
        Deadline {
            at: Some(Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// The deadline for a phase starting now: `PREBOND3D_BUDGET_MS` from
    /// the environment (or the [`force_budget_ms`] override), else
    /// [`Deadline::none`].
    pub fn for_phase() -> Self {
        match budget_ms() {
            Some(ms) => Deadline::in_ms(ms),
            None => Deadline::none(),
        }
    }

    /// Has the budget run out? `false` forever for [`Deadline::none`].
    pub fn expired(&self) -> bool {
        match self.at {
            None => false,
            Some(at) => Instant::now() >= at,
        }
    }

    /// Is there an actual budget attached (i.e. not [`Deadline::none`])?
    pub fn is_armed(&self) -> bool {
        self.at.is_some()
    }
}

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

/// `-2` = unset (consult env), `-1` = forced off, `>= 0` = forced value.
static BUDGET_OVERRIDE: AtomicI64 = AtomicI64::new(-2);

/// The configured per-phase budget in milliseconds, if any. Resolution
/// order: the thread's job budget (a serving job's `budget_ms`, see
/// [`crate::job::run`]), the process override ([`force_budget_ms`]), then
/// `PREBOND3D_BUDGET_MS`.
pub fn budget_ms() -> Option<u64> {
    if let Some(ms) = crate::job::with(|c| c.budget_ms) {
        return Some(ms);
    }
    match BUDGET_OVERRIDE.load(Ordering::Relaxed) {
        -1 => None,
        ms if ms >= 0 => Some(ms as u64),
        _ => std::env::var("PREBOND3D_BUDGET_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok()),
    }
}

/// Is a phase budget configured at all? (The bench harness's slack
/// contract consults this to exempt the timing violations a truncated
/// search can leave behind.)
pub fn budget_armed() -> bool {
    budget_ms().is_some()
}

/// Force the per-phase budget for this process regardless of the
/// environment; `Some(None)` forces *no* budget, `None` restores
/// env-driven behavior. Test hook.
pub fn force_budget_ms(v: Option<Option<u64>>) {
    BUDGET_OVERRIDE.store(
        match v {
            None => -2,
            Some(None) => -1,
            Some(Some(ms)) => i64::try_from(ms).unwrap_or(i64::MAX),
        },
        Ordering::Relaxed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        let d = Deadline::none();
        assert!(!d.is_armed());
        assert!(!d.expired());
    }

    #[test]
    fn zero_budget_expires_immediately() {
        let d = Deadline::in_ms(0);
        assert!(d.is_armed());
        assert!(d.expired());
    }

    #[test]
    fn generous_budget_does_not_expire() {
        let d = Deadline::in_ms(120_000);
        assert!(!d.expired());
    }

    #[test]
    fn thread_override_beats_process_override_and_restores() {
        force_budget_ms(Some(Some(500)));
        assert_eq!(budget_ms(), Some(500));
        let (out, _) = crate::job::run(Some(7), || {
            assert_eq!(budget_ms(), Some(7));
            // `None` keeps the enclosing job's budget.
            crate::job::run(None, budget_ms).0
        });
        assert_eq!(out, Some(7));
        assert_eq!(budget_ms(), Some(500), "thread override restored");
        crate::job::run(None, || assert_eq!(budget_ms(), Some(500)));
        force_budget_ms(None);
    }

    #[test]
    fn thread_override_is_thread_local() {
        crate::job::run(Some(3), || {
            assert_eq!(budget_ms(), Some(3));
            std::thread::scope(|s| {
                s.spawn(|| {
                    assert_eq!(
                        crate::job::current().budget_ms,
                        None,
                        "fresh threads are unbudgeted"
                    );
                    let _inherited = crate::job::install(crate::job::current());
                    assert_eq!(crate::job::current().budget_ms, None);
                });
            });
            assert_eq!(budget_ms(), Some(3));
        });
    }

    #[test]
    fn override_beats_environment() {
        force_budget_ms(Some(Some(5)));
        assert_eq!(budget_ms(), Some(5));
        assert!(budget_armed());
        assert!(Deadline::for_phase().is_armed());
        force_budget_ms(Some(None));
        assert_eq!(budget_ms(), None);
        assert!(!Deadline::for_phase().is_armed());
        force_budget_ms(None);
    }
}
