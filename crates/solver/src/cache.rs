//! Query caches: the abstraction the solver consults before (and
//! publishes to after) running the decision procedure.
//!
//! The solver keeps exactly two memo layers:
//!
//! 1. a **private** per-`Solver` map from query fingerprint to the full
//!    [`SatResult`] (models included);
//! 2. an optional injected [`QueryCache`] holding *model-free verdicts*
//!    only, so it can safely be shared across engines: `TermId`/`VarId`
//!    spaces are per-`TermCtx`, so a `Model` (a `VarId → i64` map) from
//!    one engine is meaningless — and unsound to reuse — in another.
//!    The query fingerprint ([`crate::TermCtx::query_fingerprint`]) is
//!    structural, so fingerprints *do* agree across contexts.
//!
//! Independence slicing uses the same two layers: each
//! variable-disjoint component is stored under its own fingerprint as
//! well as the whole query's, so a later query that shares a component
//! finds it in the private cache without a fresh search.
//!
//! `Unknown` results are never published: they encode a local budget
//! exhaustion, not a fact about the constraints, and sharing them could
//! make one worker's budget wrinkle another worker's exploration.
//!
//! [`SharedCache`] is the concurrent implementation: N mutex-guarded
//! shards indexed by the low bits of the fingerprint, with lock-free
//! hit/miss/contention counters.

use crate::solve::SatResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, TryLockError};

/// A satisfiability verdict safe to share across engines: no model, and
/// never `Unknown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The constraint set is satisfiable (some engine found a model).
    Sat,
    /// The constraint set is provably unsatisfiable.
    Unsat,
}

impl CachedVerdict {
    /// The shareable verdict behind a full result, if any.
    pub fn from_result(r: &SatResult) -> Option<CachedVerdict> {
        match r {
            SatResult::Sat(_) => Some(CachedVerdict::Sat),
            SatResult::Unsat => Some(CachedVerdict::Unsat),
            SatResult::Unknown => None,
        }
    }
}

/// A model-free verdict store keyed by structural query fingerprint.
///
/// Implementations take `&self` so a single instance can be consulted
/// from many solvers (behind an `Arc` for the concurrent one).
pub trait QueryCache {
    /// Looks up a previously published verdict.
    fn lookup(&self, key: u64) -> Option<CachedVerdict>;

    /// Publishes a definitive verdict. Implementations may drop the
    /// entry (e.g. under memory pressure); the cache is advisory.
    fn publish(&self, key: u64, verdict: CachedVerdict);

    /// Number of cached entries.
    fn entries(&self) -> usize;

    /// Traffic counters, readable through a trait object so callers
    /// holding an `Arc<dyn QueryCache>` (e.g. the portfolio, or a
    /// fault-injection wrapper) can still report cache stats.
    /// Implementations without counters report entries only.
    fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            entries: self.entries() as u64,
            ..SharedCacheStats::default()
        }
    }
}

/// Counters describing shared-cache traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharedCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Verdicts published.
    pub stores: u64,
    /// Lock acquisitions that found the shard already held.
    pub contention: u64,
    /// Entries currently cached (across all shards).
    pub entries: u64,
}

/// A sharded concurrent verdict cache: `shards` independent
/// `Mutex<HashMap>`s, indexed by the low bits of the fingerprint, so
/// workers contend only when they hash into the same shard at the same
/// moment. Contention is observed (not avoided) via `try_lock`: a
/// would-block attempt bumps the contention counter and then takes the
/// blocking path.
#[derive(Debug)]
pub struct SharedCache {
    shards: Box<[Mutex<HashMap<u64, CachedVerdict>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    contention: AtomicU64,
}

impl SharedCache {
    /// Creates a cache with `shards` shards (rounded up to a power of
    /// two, minimum 1).
    pub fn new(shards: usize) -> SharedCache {
        let n = shards.max(1).next_power_of_two();
        SharedCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            contention: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> std::sync::MutexGuard<'_, HashMap<u64, CachedVerdict>> {
        let m = &self.shards[(key as usize) & (self.shards.len() - 1)];
        match m.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                m.lock().unwrap_or_else(|e| e.into_inner())
            }
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        }
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            contention: self.contention.load(Ordering::Relaxed),
            entries: self.entries() as u64,
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

impl QueryCache for SharedCache {
    fn lookup(&self, key: u64) -> Option<CachedVerdict> {
        let hit = self.shard(key).get(&key).copied();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn publish(&self, key: u64, verdict: CachedVerdict) {
        self.shard(key).insert(key, verdict);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    fn entries(&self) -> usize {
        // Deliberately a plain blocking lock: `entries()` is a stats
        // read, and routing it through the contention-observing
        // `shard()` path would let stats collection inflate the very
        // counter it is reporting.
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    fn stats(&self) -> SharedCacheStats {
        SharedCache::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(SharedCache::new(0).shard_count(), 1);
        assert_eq!(SharedCache::new(1).shard_count(), 1);
        assert_eq!(SharedCache::new(3).shard_count(), 4);
        assert_eq!(SharedCache::new(16).shard_count(), 16);
    }

    #[test]
    fn lookup_publish_roundtrip_and_counters() {
        let c = SharedCache::new(4);
        assert_eq!(c.lookup(42), None);
        c.publish(42, CachedVerdict::Unsat);
        assert_eq!(c.lookup(42), Some(CachedVerdict::Unsat));
        c.publish(7, CachedVerdict::Sat);
        assert_eq!(c.lookup(7), Some(CachedVerdict::Sat));
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.stores, 2);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn concurrent_publish_lookup_is_consistent() {
        let cache = Arc::new(SharedCache::new(8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let key = t * 1000 + i;
                        cache.publish(
                            key,
                            if key % 2 == 0 {
                                CachedVerdict::Sat
                            } else {
                                CachedVerdict::Unsat
                            },
                        );
                        assert!(cache.lookup(key).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.entries(), 4000);
        for key in 0..4000u64 {
            let want = if key % 2 == 0 {
                CachedVerdict::Sat
            } else {
                CachedVerdict::Unsat
            };
            assert_eq!(cache.lookup(key), Some(want));
        }
    }

    #[test]
    fn verdict_from_result_drops_unknown_and_models() {
        use crate::solve::Model;
        assert_eq!(
            CachedVerdict::from_result(&SatResult::Sat(Model::default())),
            Some(CachedVerdict::Sat)
        );
        assert_eq!(
            CachedVerdict::from_result(&SatResult::Unsat),
            Some(CachedVerdict::Unsat)
        );
        assert_eq!(CachedVerdict::from_result(&SatResult::Unknown), None);
    }
}
