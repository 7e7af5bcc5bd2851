//! Process-wide performance-tuning switches.
//!
//! The hot-path caches introduced in DESIGN.md §11 (memoized testability
//! probing, span-clipped cone intersections, incremental clique scoring)
//! all preserve byte-identical outputs, but a reference mode that bypasses
//! them is needed twice: the equivalence sweep proves optimized == plain,
//! and the bench perf probe measures the work-counter reduction against
//! the unoptimized algorithm on the same binary.
//!
//! `PREBOND3D_NO_CACHE=1` turns every such cache off. Tests and the bench
//! probe flip the switch programmatically via [`force_no_cache`] (env vars
//! are process-global and racy under the parallel test harness), following
//! the same override-beats-environment pattern as
//! `prebond3d_resilience::force_resume`.

use std::sync::atomic::{AtomicI8, Ordering};

static NO_CACHE_OVERRIDE: AtomicI8 = AtomicI8::new(-1);

/// Are the hot-path caches disabled? `PREBOND3D_NO_CACHE=1` (or a
/// programmatic override installed by [`force_no_cache`], which wins).
pub fn no_cache() -> bool {
    match NO_CACHE_OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => matches!(
            std::env::var("PREBOND3D_NO_CACHE").as_deref(),
            Ok("1") | Ok("on") | Ok("true") | Ok("yes")
        ),
    }
}

/// Convenience inverse of [`no_cache`].
pub fn cache_enabled() -> bool {
    !no_cache()
}

/// Force the no-cache reference mode on/off for this process regardless of
/// the environment; `None` restores env-driven behavior. Test/bench hook.
pub fn force_no_cache(v: Option<bool>) {
    NO_CACHE_OVERRIDE.store(
        match v {
            None => -1,
            Some(false) => 0,
            Some(true) => 1,
        },
        Ordering::Relaxed,
    );
}

/// How many 64-pattern lanes the fault simulator packs into one physical
/// batch at most: 8 (512 patterns), or 1 in the `PREBOND3D_NO_CACHE=1`
/// reference mode, whose oracle must stay the unmodified narrow walk.
/// `FaultSimulator::dispatch` narrows the width further to fit the batch.
pub fn lanes() -> usize {
    if no_cache() {
        1
    } else {
        8
    }
}

/// Serializes unit tests that flip the process-global override.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_beats_environment() {
        let _l = TEST_LOCK.lock().unwrap();
        force_no_cache(Some(true));
        assert!(no_cache());
        assert!(!cache_enabled());
        force_no_cache(Some(false));
        assert!(!no_cache());
        assert!(cache_enabled());
        force_no_cache(None);
    }
}
