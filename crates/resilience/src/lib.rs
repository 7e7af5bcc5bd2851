//! # prebond3d-resilience
//!
//! Zero-dependency fault-tolerance primitives for the experiment pipeline
//! (DESIGN.md §10). Four pillars, each usable on its own:
//!
//! * [`chaos`] — deterministic, seeded fault injection at instrumented
//!   sites (`PREBOND3D_CHAOS=<seed>:<rate>`), so every error path in the
//!   Fig. 6 flow is actually exercised instead of trusted;
//! * [`budget`] — cooperative phase deadlines (`PREBOND3D_BUDGET_MS`)
//!   checked inside the long loops (PODEM backtracking, fault-simulation
//!   batches, clique merging, annealing), degrading gracefully instead of
//!   running unbounded;
//! * [`degrade`] — a registry of structured degradation / recovery
//!   records that the bench collector folds into
//!   `results/run_<exp>.json`, and a serving job reads from its own
//!   [`job`]-scoped sink;
//! * [`io`] — atomic (temp-file + rename) report writes and tolerant
//!   JSON-lines checkpoint primitives with contextual errors naming the
//!   file, feeding crash-safe resume (`PREBOND3D_RESUME=1`).
//!
//! The crate deliberately depends on nothing in-tree: every other crate
//! (netlist, pool, atpg, core, obs, bench) layers on top of it, so the
//! chaos/budget hooks can live at the lowest level without cycles.

pub mod budget;
pub mod chaos;
pub mod degrade;
pub mod hooks;
pub mod io;
pub mod job;

pub use budget::Deadline;
pub use io::atomic_write;

/// FNV-1a over `bytes` — the workspace's stable, dependency-free hash.
/// Used for chaos-site gating and checkpoint config hashes; must never
/// change across versions or resumed runs would discard their checkpoints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Continue an FNV-1a hash with more bytes (for composite keys).
pub fn fnv1a_more(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Is crash-safe resume requested? `PREBOND3D_RESUME=1` (or a programmatic
/// override installed by [`force_resume`], which wins — the integration
/// tests must not race on process-global env vars).
pub fn resume_enabled() -> bool {
    match RESUME_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => matches!(
            std::env::var("PREBOND3D_RESUME").as_deref(),
            Ok("1") | Ok("on") | Ok("true") | Ok("yes")
        ),
    }
}

static RESUME_OVERRIDE: std::sync::atomic::AtomicI8 = std::sync::atomic::AtomicI8::new(-1);

/// Force resume on/off for this process regardless of the environment;
/// `None` restores env-driven behavior. Test hook.
pub fn force_resume(v: Option<bool>) {
    RESUME_OVERRIDE.store(
        match v {
            None => -1,
            Some(false) => 0,
            Some(true) => 1,
        },
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// Should reports zero out wall-clock fields? (`PREBOND3D_STABLE_MS=1` or
/// the [`force_stable_ms`] override.) Timing is the only nondeterministic
/// content of the run reports; zeroing it makes an interrupted-and-resumed
/// sweep byte-identical to an uninterrupted one, which the kill-and-resume
/// suite asserts.
pub fn stable_ms() -> bool {
    match STABLE_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => matches!(
            std::env::var("PREBOND3D_STABLE_MS").as_deref(),
            Ok("1") | Ok("on") | Ok("true") | Ok("yes")
        ),
    }
}

static STABLE_OVERRIDE: std::sync::atomic::AtomicI8 = std::sync::atomic::AtomicI8::new(-1);

/// Force stable-ms on/off for this process; `None` restores env-driven
/// behavior. Test hook.
pub fn force_stable_ms(v: Option<bool>) {
    STABLE_OVERRIDE.store(
        match v {
            None => -1,
            Some(false) => 0,
            Some(true) => 1,
        },
        std::sync::atomic::Ordering::Relaxed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Reference vectors; a change here invalidates every checkpoint.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_more(fnv1a(b"ab"), b"c"), fnv1a(b"abc"));
    }

    #[test]
    fn overrides_beat_the_environment() {
        force_resume(Some(true));
        assert!(resume_enabled());
        force_resume(Some(false));
        assert!(!resume_enabled());
        force_resume(None);

        force_stable_ms(Some(true));
        assert!(stable_ms());
        force_stable_ms(None);
    }
}
