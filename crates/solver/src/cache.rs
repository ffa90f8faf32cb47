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
//! make one attempt's budget wrinkle another attempt's exploration.
//!
//! [`SharedCache`] is the run-scoped implementation: one map with
//! hit/miss/store counters.

use crate::solve::SatResult;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
/// from many solvers (behind an `Arc`).
pub trait QueryCache {
    /// Looks up a previously published verdict.
    fn lookup(&self, key: u64) -> Option<CachedVerdict>;

    /// Publishes a definitive verdict. Implementations may drop the
    /// entry (e.g. under memory pressure); the cache is advisory.
    fn publish(&self, key: u64, verdict: CachedVerdict);

    /// Number of cached entries.
    fn entries(&self) -> usize;

    /// Traffic counters, readable through a trait object so callers
    /// holding an `Arc<dyn QueryCache>` (e.g. the candidate loop, or a
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
    /// Entries currently cached.
    pub entries: u64,
}

/// The run's verdict memo: one map from query fingerprint to verdict,
/// shared by every candidate attempt of a run (behind an `Arc`, so the
/// map sits behind a `Mutex`).
#[derive(Debug, Default)]
pub struct SharedCache {
    map: Mutex<HashMap<u64, CachedVerdict>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
}

impl SharedCache {
    /// An empty cache.
    pub fn new() -> SharedCache {
        SharedCache::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CachedVerdict>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            entries: self.entries() as u64,
        }
    }
}

impl QueryCache for SharedCache {
    fn lookup(&self, key: u64) -> Option<CachedVerdict> {
        let hit = self.map().get(&key).copied();
        match hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    fn publish(&self, key: u64, verdict: CachedVerdict) {
        self.map().insert(key, verdict);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    fn entries(&self) -> usize {
        self.map().len()
    }

    fn stats(&self) -> SharedCacheStats {
        SharedCache::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_publish_roundtrip_and_counters() {
        let c = SharedCache::new();
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
