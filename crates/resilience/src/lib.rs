//! # prebond3d-resilience
//!
//! Zero-dependency fault-tolerance primitives for the experiment pipeline
//! (DESIGN.md §10). Four pillars, each usable on its own:
//!
//! * [`chaos`] — deterministic, seeded fault injection at instrumented
//!   sites (armed by [`chaos::install`]), so every error path in the
//!   Fig. 6 flow is actually exercised instead of trusted;
//! * [`budget`] — cooperative phase deadlines ([`budget::set_budget_ms`])
//!   checked inside the long loops (PODEM backtracking, fault-simulation
//!   batches, clique merging, annealing), degrading gracefully instead of
//!   running unbounded;
//! * [`degrade`] — a registry of structured degradation / recovery
//!   records that the bench collector folds into
//!   `results/run_<exp>.json`, and a serving job reads from its own
//!   [`job`]-scoped sink;
//! * [`io`] — atomic (temp-file + rename) report writes and tolerant
//!   JSON-lines checkpoint primitives with contextual errors naming the
//!   file, feeding crash-safe resume.
//!
//! Nothing here reads the environment: a program parses its switches once
//! and installs them through these setters.
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
}
