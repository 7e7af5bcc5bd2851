//! Deterministic, seeded fault injection.
//!
//! [`install`] arms the registry with a `(seed, rate)`: every instrumented
//! site keeps a per-site call counter, and call `k` at site `s` injects a
//! fault iff `fnv1a(seed ‖ s ‖ k)` maps below `rate` — reproducible for a
//! given seed regardless of what else the process does at *other* sites
//! (per-site counters make sites independent). Sites:
//!
//! | site            | injection                              |
//! |-----------------|----------------------------------------|
//! | `netlist.load`  | panic while generating a die           |
//! | `liberty.load`  | panic while building the cell library  |
//! | `pool.worker`   | panic inside a pool worker closure     |
//! | `timing.elmore` | NaN/∞ perturbation of an Elmore delay  |
//! | `io.write`      | `io::Error` on a report/checkpoint write |
//!
//! Every injection is recorded in a process-global event log that the
//! bench collector drains into the run report, so the chaos suite can
//! assert each injected fault was recovered, degraded, or reported.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{fnv1a, fnv1a_more};

/// What an instrumented site does when its roll comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// `panic!` with a `chaos[<site>]` payload.
    Panic,
    /// An injected `std::io::Error`.
    Io,
    /// A NaN/∞ perturbation of a numeric value.
    NonFinite,
}

impl ChaosKind {
    /// Stable label used in the run report.
    pub fn label(self) -> &'static str {
        match self {
            ChaosKind::Panic => "panic",
            ChaosKind::Io => "io",
            ChaosKind::NonFinite => "non_finite",
        }
    }
}

/// One recorded injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Instrumented site (`pool.worker`, `io.write`, …).
    pub site: &'static str,
    /// Fault class.
    pub kind: ChaosKind,
    /// The site-local call index that fired (1-based).
    pub seq: u64,
}

#[derive(Debug, Clone, Copy)]
struct Config {
    seed: u64,
    /// Injection probability in [0, 1].
    rate: f64,
}

/// Whether a config is installed: the disarmed check at every site is
/// this one load. It publishes nothing; the config itself is read under
/// its lock.
static ARMED: AtomicBool = AtomicBool::new(false);
static CONFIG: Mutex<Option<Config>> = Mutex::new(None);
/// `site → calls so far` (site names are interned `&'static str`s).
static COUNTERS: Mutex<Vec<(&'static str, AtomicU64)>> = Mutex::new(Vec::new());
static EVENTS: Mutex<Vec<ChaosEvent>> = Mutex::new(Vec::new());

/// Arm injection with `(seed, rate)`, or disarm with `None` — the only
/// arming path. Resets the per-site counters and the event log, so each
/// install starts a reproducible schedule.
pub fn install(config: Option<(u64, f64)>) {
    let mut current = CONFIG.lock().unwrap();
    *current = config.map(|(seed, rate)| Config { seed, rate });
    COUNTERS.lock().unwrap().clear();
    EVENTS.lock().unwrap().clear();
    ARMED.store(current.is_some(), Ordering::Relaxed);
}

fn active_config() -> Option<Config> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    *CONFIG.lock().unwrap()
}

/// Is chaos injection armed at all?
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// The armed `(seed, rate)`, if any — echoed into the run report so a
/// failing chaos run names its own reproduction recipe.
pub fn config() -> Option<(u64, f64)> {
    active_config().map(|c| (c.seed, c.rate))
}

/// Decide-and-count one call at `site`. Returns the 1-based call index
/// when this call injects.
fn roll(site: &'static str) -> Option<u64> {
    let cfg = active_config()?;
    let seq = {
        let mut counters = COUNTERS.lock().unwrap();
        match counters.iter().find(|(s, _)| *s == site) {
            Some((_, c)) => c.fetch_add(1, Ordering::Relaxed) + 1,
            None => {
                counters.push((site, AtomicU64::new(1)));
                1
            }
        }
    };
    let h = fnv1a_more(
        fnv1a_more(fnv1a(&cfg.seed.to_le_bytes()), site.as_bytes()),
        &seq.to_le_bytes(),
    );
    // Top 53 bits → uniform fraction in [0, 1).
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    (frac < cfg.rate).then_some(seq)
}

fn record(site: &'static str, kind: ChaosKind, seq: u64) {
    EVENTS.lock().unwrap().push(ChaosEvent { site, kind, seq });
    crate::hooks::emit("chaos", site, kind.label());
}

/// Record an event without rolling — the schema probe uses this so the
/// golden files cover the chaos array's element shape.
pub fn note(site: &'static str, kind: ChaosKind) {
    record(site, kind, 0);
}

/// Panic-injection site. No-op unless armed and the roll fires.
///
/// # Panics
///
/// By design, with a `chaos[<site>]`-prefixed payload when the seeded roll
/// selects this call.
pub fn maybe_panic(site: &'static str) {
    if let Some(seq) = roll(site) {
        record(site, ChaosKind::Panic, seq);
        panic!("chaos[{site}] injected panic (call #{seq})");
    }
}

/// I/O-error-injection site: `Some(error)` when the roll fires, which the
/// caller returns in place of performing the write.
pub fn io_error(site: &'static str) -> Option<std::io::Error> {
    let seq = roll(site)?;
    record(site, ChaosKind::Io, seq);
    Some(std::io::Error::other(format!(
        "chaos[{site}] injected I/O error (call #{seq})"
    )))
}

/// Numeric-perturbation site: returns NaN or ∞ (alternating by call
/// index) in place of `value` when the roll fires.
pub fn perturb(site: &'static str, value: f64) -> f64 {
    match roll(site) {
        Some(seq) => {
            record(site, ChaosKind::NonFinite, seq);
            if seq % 2 == 0 {
                f64::INFINITY
            } else {
                f64::NAN
            }
        }
        None => value,
    }
}

/// Drain the event log (the collector calls this once per `finish`).
pub fn drain_events() -> Vec<ChaosEvent> {
    std::mem::take(&mut *EVENTS.lock().unwrap())
}

/// Copy of the event log without draining (test assertions).
pub fn events() -> Vec<ChaosEvent> {
    EVENTS.lock().unwrap().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    // Chaos config is process-global; serialize the tests that touch it.
    static LOCK: TestMutex<()> = TestMutex::new(());

    #[test]
    fn unarmed_sites_are_noops() {
        let _l = LOCK.lock().unwrap();
        install(None);
        maybe_panic("test.site");
        assert!(io_error("test.site").is_none());
        assert_eq!(perturb("test.site", 1.25), 1.25);
        assert!(drain_events().is_empty());
        install(None);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let _l = LOCK.lock().unwrap();
        let fire_pattern = |seed: u64| -> Vec<bool> {
            install(Some((seed, 0.3)));
            let fired: Vec<bool> = (0..64).map(|_| io_error("det.site").is_some()).collect();
            install(None);
            fired
        };
        let a = fire_pattern(7);
        let b = fire_pattern(7);
        let c = fire_pattern(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.iter().any(|&f| f), "rate 0.3 over 64 calls must fire");
        assert!(!a.iter().all(|&f| f), "rate 0.3 must not always fire");
    }

    #[test]
    fn sites_roll_independently() {
        let _l = LOCK.lock().unwrap();
        install(Some((12, 0.5)));
        let a: Vec<bool> = (0..32).map(|_| io_error("site.a").is_some()).collect();
        install(Some((12, 0.5)));
        // Interleave calls to another site; site.a's schedule must not move.
        let b: Vec<bool> = (0..32)
            .map(|_| {
                let _ = perturb("site.b", 0.0);
                io_error("site.a").is_some()
            })
            .collect();
        install(None);
        assert_eq!(a, b, "per-site counters isolate sites");
    }

    #[test]
    fn panic_payload_names_the_site() {
        let _l = LOCK.lock().unwrap();
        install(Some((3, 1.0)));
        let err = std::panic::catch_unwind(|| maybe_panic("boom.site")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("chaos[boom.site]"), "{msg}");
        let evs = drain_events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, ChaosKind::Panic);
        install(None);
    }

    #[test]
    fn perturbation_yields_non_finite() {
        let _l = LOCK.lock().unwrap();
        install(Some((4, 1.0)));
        let v1 = perturb("nan.site", 10.0);
        let v2 = perturb("nan.site", 10.0);
        install(None);
        assert!(!v1.is_finite() && !v2.is_finite());
        assert!(v1.is_nan() != v2.is_nan(), "alternates NaN and infinity");
    }
}
