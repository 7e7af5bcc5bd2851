//! The warm cross-request cache (DESIGN.md §13).
//!
//! A batch run rebuilds everything per invocation; the daemon instead
//! keeps each job's expensive substrate warm across requests:
//!
//! * the generated/parsed [`Netlist`] and its annealed [`Placement`]
//!   (placement is the dominant cold-start cost), and
//! * one [`AtpgProbe`] whose `(pair, shared)` memo tables and
//!   dedicated-baseline context accumulate across every job that prices
//!   sharing on this netlist.
//!
//! Entries are keyed by **content**: generated substrates by an FNV over
//! the deterministic generation inputs (benchmark, die index), inline
//! netlists by [`Netlist::signature`] — so a mutated netlist submitted
//! under a colliding module name can never hit a stale entry (the
//! cache-lifetime gap PR 7 closes).
//!
//! Eviction is least-recently-used under a **byte budget**
//! (`--cache-bytes`, default 64 MiB). Sizes are coarse
//! estimates (`approx_bytes`) re-weighed after every job, because a warm
//! probe's memo table grows while it serves; the invariant the soak suite
//! asserts is `bytes <= budget` after every insert/re-weigh, with entries
//! larger than the whole budget never admitted at all.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prebond3d_netlist::Netlist;
use prebond3d_obs as obs;
use prebond3d_place::Placement;
use prebond3d_wcm::testability::AtpgProbe;

/// Default byte budget (`--cache-bytes` overrides it).
pub const DEFAULT_BUDGET_BYTES: usize = 64 * 1024 * 1024;

/// Coarse per-gate estimate for a resident netlist (gate record, fanout
/// adjacency, name-index entry).
const NETLIST_BYTES_PER_GATE: usize = 160;
/// Coarse per-gate estimate for a placement (coordinates + row index).
const PLACEMENT_BYTES_PER_GATE: usize = 24;

/// One warm substrate: everything a repeat job skips rebuilding.
#[derive(Debug)]
pub struct WarmEntry {
    /// The validated netlist.
    pub netlist: Netlist,
    /// Its annealed placement.
    pub placement: Placement,
    /// The netlist's long-lived measured probe; memo tables grow across
    /// jobs. Shared so eviction cannot free state under a running job.
    pub probe: Arc<AtpgProbe>,
}

impl WarmEntry {
    /// Coarse resident size, including the probe's current warm state.
    pub fn approx_bytes(&self) -> usize {
        self.netlist.len() * NETLIST_BYTES_PER_GATE
            + self.netlist.len() * PLACEMENT_BYTES_PER_GATE
            + self.probe.approx_bytes()
    }
}

#[derive(Debug)]
struct Slot {
    entry: Arc<WarmEntry>,
    bytes: usize,
    tick: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Slot>,
    bytes: usize,
    tick: u64,
}

/// Point-in-time cache statistics (the `stats` op payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or found the budget too small).
    pub misses: u64,
    /// Entries removed to satisfy the byte budget.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
}

/// The LRU-with-byte-budget warm cache.
#[derive(Debug)]
pub struct WarmCache {
    budget: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl WarmCache {
    /// A cache with an explicit byte budget.
    pub fn new(budget: usize) -> Self {
        WarmCache {
            budget,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Look up a warm entry, refreshing its recency. Counts a hit or a
    /// miss (`serve.cache_hits` / `serve.cache_misses`).
    pub fn lookup(&self, key: u64) -> Option<Arc<WarmEntry>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key) {
            Some(slot) => {
                slot.tick = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::count("serve.cache_hits", 1);
                Some(Arc::clone(&slot.entry))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::count("serve.cache_misses", 1);
                None
            }
        }
    }

    /// Admit a freshly built entry, evicting least-recently-used slots
    /// until the budget holds. An entry larger than the whole budget is
    /// rejected (the job still ran on it; it just stays cold).
    pub fn insert(&self, key: u64, entry: Arc<WarmEntry>) {
        let bytes = entry.approx_bytes();
        if bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(key, Slot { entry, bytes, tick }) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        self.enforce_budget(&mut inner);
    }

    /// Re-estimate one entry's bytes after a job ran on it (its probe's
    /// memo table may have grown) and re-enforce the budget.
    pub fn reweigh(&self, key: u64) {
        let mut inner = self.inner.lock().unwrap();
        let Some(slot) = inner.map.get_mut(&key) else {
            return;
        };
        let new_bytes = slot.entry.approx_bytes();
        let old_bytes = slot.bytes;
        slot.bytes = new_bytes;
        inner.bytes = inner.bytes - old_bytes + new_bytes;
        self.enforce_budget(&mut inner);
    }

    /// Evict LRU slots until `bytes <= budget`. An entry that alone
    /// exceeds the budget is evicted too (the invariant is strict).
    fn enforce_budget(&self, inner: &mut Inner) {
        while inner.bytes > self.budget {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, s)| s.tick) else {
                break;
            };
            let slot = inner.map.remove(&victim).expect("victim exists");
            inner.bytes -= slot.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
            obs::count("serve.cache_evictions", 1);
        }
        obs::gauge("serve.cache_bytes", inner.bytes as u64);
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
            bytes: inner.bytes,
            budget: self.budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prebond3d_netlist::itc99;
    use prebond3d_place::{place, PlaceConfig};

    fn entry(seed: u64) -> Arc<WarmEntry> {
        let spec = itc99::DieSpec {
            name: format!("d{seed}"),
            scan_flip_flops: 4,
            gates: 60,
            inbound_tsvs: 2,
            outbound_tsvs: 2,
            primary_inputs: 2,
            primary_outputs: 2,
            seed,
        };
        let netlist = itc99::generate_die(&spec);
        let placement = place(&netlist, &PlaceConfig::default(), 1);
        Arc::new(WarmEntry {
            netlist,
            placement,
            probe: Arc::new(AtpgProbe::default()),
        })
    }

    #[test]
    fn hit_miss_accounting_and_lru_eviction() {
        let e = entry(1);
        let per_entry = e.approx_bytes();
        // Budget fits exactly two entries.
        let cache = WarmCache::new(per_entry * 2 + per_entry / 2);
        assert!(cache.lookup(1).is_none());
        cache.insert(1, e);
        cache.insert(2, entry(2));
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(2).is_some());
        // A third entry forces out the least-recently-used (key 1 was
        // touched before key 2... but 1 was re-touched; LRU is 1? Both
        // were touched: order 1 then 2, so 1 is older).
        cache.insert(3, entry(3));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= stats.budget, "invariant");
        assert!(cache.lookup(1).is_none(), "key 1 was LRU");
        assert!(cache.lookup(2).is_some());
        assert!(cache.lookup(3).is_some());
        assert_eq!(cache.stats().hits, 4);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn oversized_entry_is_never_admitted() {
        let e = entry(9);
        let cache = WarmCache::new(e.approx_bytes() - 1);
        cache.insert(9, e);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn reweigh_enforces_the_budget_after_growth() {
        let e = entry(5);
        let cache = WarmCache::new(e.approx_bytes() + 100);
        cache.insert(5, Arc::clone(&e));
        assert_eq!(cache.stats().entries, 1);
        // Simulate probe growth past the budget by warming the memo
        // table: reweigh must evict the (only) entry to keep the
        // invariant strict. approx_bytes is monotone in memo size, so
        // force growth through the probe itself.
        let roots: Vec<_> = e
            .netlist
            .flip_flops()
            .into_iter()
            .chain(e.netlist.inbound_tsvs())
            .collect();
        let cones = prebond3d_netlist::cone::ConeSet::compute(&e.netlist, &roots);
        let ff = e.netlist.flip_flops()[0];
        let t = e.netlist.inbound_tsvs()[0];
        use prebond3d_wcm::testability::TestabilityProbe;
        while e.probe.approx_bytes() <= cache.budget() {
            e.probe.sharing_cost(&e.netlist, &cones, ff, t);
            let grew = e.probe.approx_bytes();
            if grew == 0 {
                break;
            }
            // The dedicated baseline alone usually overshoots a budget
            // this tight after one probe; bail if it somehow cannot.
            if e.probe.cache_len() > 64 {
                break;
            }
        }
        cache.reweigh(5);
        let stats = cache.stats();
        assert!(stats.bytes <= stats.budget, "strict invariant");
    }
}
