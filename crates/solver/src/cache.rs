//! Query caches: the abstraction the solver consults before (and
//! publishes to after) running the decision procedure.
//!
//! The solver keeps two layers:
//!
//! 1. a **private** per-`Solver` map from query fingerprint to the full
//!    [`SatResult`] (models included) — exactly the behavior of the
//!    original single-threaded cache;
//! 2. an optional injected [`QueryCache`] holding *model-free verdicts*
//!    only, so it can safely be shared across engines: `TermId`/`VarId`
//!    spaces are per-`TermCtx`, so a `Model` (a `VarId → i64` map) from
//!    one engine is meaningless — and unsound to reuse — in another.
//!    The query fingerprint ([`crate::TermCtx::query_fingerprint`]) is
//!    structural, so fingerprints *do* agree across contexts.
//!
//! `Unknown` results are never published: they encode a local budget
//! exhaustion, not a fact about the constraints, and sharing them could
//! make one worker's budget wrinkle another worker's exploration.
//!
//! [`SharedCache`] is the concurrent implementation: N mutex-guarded
//! shards indexed by the low bits of the fingerprint, with lock-free
//! hit/miss/contention counters.

use crate::solve::{Model, SatResult};
use std::collections::{HashMap, VecDeque};
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

/// What the unsat/counterexample cache can answer for a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UcAnswer {
    /// A cached unsat core is a sub-multiset of the query's conjuncts:
    /// the query is unsatisfiable (adding conjuncts never helps).
    Unsat,
    /// A cached model came from a *superset* of the query's conjuncts,
    /// so it is a *candidate* model for the query. The caller MUST
    /// verify `model.satisfies(...)` against the actual constraints
    /// before serving it: the match is on structural hashes, and the
    /// model's `VarId`s may belong to a different `TermCtx`.
    Sat(Model),
}

/// Traffic counters for [`UnsatCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnsatCacheStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups answered `Unsat` via subset matching.
    pub sub_hits: u64,
    /// Lookups that returned a candidate model via superset matching
    /// (the caller may still reject it after verification).
    pub sup_candidates: u64,
    /// Entries accepted by `store`.
    pub stores: u64,
    /// Entries rejected by `store` (empty, too wide, or duplicate).
    pub store_rejects: u64,
    /// Entries currently held.
    pub entries: u64,
}

#[derive(Debug, Clone)]
enum UcKind {
    Unsat,
    Sat(Model),
}

#[derive(Debug, Clone)]
struct UcEntry {
    /// Sorted structural hashes of the entry's conjuncts (a multiset).
    hashes: Vec<u64>,
    kind: UcKind,
}

/// An unsat-core / counterexample cache layered on top of the verdict
/// caches: where [`QueryCache`] only answers *exact* fingerprint
/// matches, this cache exploits the partial order on conjunct sets.
///
/// Each entry is the sorted multiset of *structural hashes* of a
/// query's conjuncts, tagged with its definitive outcome:
///
/// * **Unsat entries** act as unsat cores: any query whose conjunct
///   multiset is a *superset* of a cached unsat entry is itself unsat
///   (conjunction is monotone — adding constraints never makes an
///   unsatisfiable set satisfiable). Subset matching is sound even
///   across `TermCtx`s because structural hashes are context-free.
/// * **Sat entries** carry the model that satisfied them: any query
///   whose conjunct multiset is a *subset* of a cached sat entry is a
///   weakening of it, so the stored model is a candidate. Hash
///   collisions and cross-context `VarId`s make this half advisory
///   only — the caller must concretely verify the model before serving
///   it (see [`UcAnswer::Sat`]).
///
/// Contents are completion-order dependent, so a shared `UnsatCache`
/// (like the shared [`QueryCache`] with models disabled) is a perf
/// feature: runs that must be byte-reproducible across worker counts
/// keep it private per solver clone or disabled.
///
/// Bounded FIFO: at most `cap` entries, each at most `MAX_WIDTH`
/// conjuncts wide (wide entries are poor generalizers and make the
/// linear scan expensive).
#[derive(Debug)]
pub struct UnsatCache {
    entries: Mutex<VecDeque<UcEntry>>,
    cap: usize,
    lookups: AtomicU64,
    sub_hits: AtomicU64,
    sup_candidates: AtomicU64,
    stores: AtomicU64,
    store_rejects: AtomicU64,
}

impl UnsatCache {
    /// Widest conjunct multiset worth caching.
    pub const MAX_WIDTH: usize = 96;

    /// Default entry capacity.
    pub const DEFAULT_CAP: usize = 256;

    /// Creates a cache bounded to `cap` entries (minimum 1).
    pub fn new(cap: usize) -> UnsatCache {
        UnsatCache {
            entries: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            lookups: AtomicU64::new(0),
            sub_hits: AtomicU64::new(0),
            sup_candidates: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            store_rejects: AtomicU64::new(0),
        }
    }

    /// `true` iff sorted multiset `small` is contained in sorted
    /// multiset `big` (two-pointer walk; duplicates count).
    fn subset(small: &[u64], big: &[u64]) -> bool {
        if small.len() > big.len() {
            return false;
        }
        let mut j = 0;
        for &h in small {
            loop {
                if j == big.len() {
                    return false;
                }
                let b = big[j];
                j += 1;
                if b == h {
                    break;
                }
                if b > h {
                    return false;
                }
            }
        }
        true
    }

    /// Answers for a query whose conjuncts hash (sorted) to `hashes`.
    ///
    /// Unsat subset matches win over sat superset candidates: a subset
    /// match is a proof, a superset match is only a hint.
    pub fn lookup(&self, hashes: &[u64]) -> Option<UcAnswer> {
        debug_assert!(hashes.windows(2).all(|w| w[0] <= w[1]), "hashes sorted");
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if hashes.is_empty() {
            return None;
        }
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut candidate = None;
        for e in entries.iter() {
            match &e.kind {
                UcKind::Unsat => {
                    if Self::subset(&e.hashes, hashes) {
                        self.sub_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(UcAnswer::Unsat);
                    }
                }
                UcKind::Sat(m) => {
                    if candidate.is_none() && Self::subset(hashes, &e.hashes) {
                        candidate = Some(m.clone());
                    }
                }
            }
        }
        drop(entries);
        candidate.map(|m| {
            self.sup_candidates.fetch_add(1, Ordering::Relaxed);
            UcAnswer::Sat(m)
        })
    }

    /// Records a definitively-unsat conjunct multiset.
    pub fn store_unsat(&self, mut hashes: Vec<u64>) {
        hashes.sort_unstable();
        self.store(UcEntry {
            hashes,
            kind: UcKind::Unsat,
        });
    }

    /// Records a satisfiable conjunct multiset together with the model
    /// that satisfied it.
    pub fn store_sat(&self, mut hashes: Vec<u64>, model: Model) {
        hashes.sort_unstable();
        self.store(UcEntry {
            hashes,
            kind: UcKind::Sat(model),
        });
    }

    fn store(&self, entry: UcEntry) {
        if entry.hashes.is_empty() || entry.hashes.len() > Self::MAX_WIDTH {
            self.store_rejects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let dup = entries.iter().any(|e| {
            e.hashes == entry.hashes
                && matches!(
                    (&e.kind, &entry.kind),
                    (UcKind::Unsat, UcKind::Unsat) | (UcKind::Sat(_), UcKind::Sat(_))
                )
        });
        if dup {
            self.store_rejects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if entries.len() == self.cap {
            entries.pop_front();
        }
        entries.push_back(entry);
        self.stores.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> UnsatCacheStats {
        UnsatCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            sub_hits: self.sub_hits.load(Ordering::Relaxed),
            sup_candidates: self.sup_candidates.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            store_rejects: self.store_rejects.load(Ordering::Relaxed),
            entries: self.entries.lock().unwrap_or_else(|e| e.into_inner()).len() as u64,
        }
    }
}

impl Default for UnsatCache {
    fn default() -> UnsatCache {
        UnsatCache::new(Self::DEFAULT_CAP)
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
    fn ucache_subset_matching_is_multiset_aware() {
        let c = UnsatCache::new(8);
        c.store_unsat(vec![3, 1]);
        // {1,3} ⊆ {1,2,3}: unsat.
        assert_eq!(c.lookup(&[1, 2, 3]), Some(UcAnswer::Unsat));
        // Exact match counts as subset.
        assert_eq!(c.lookup(&[1, 3]), Some(UcAnswer::Unsat));
        // {1,3} ⊄ {1,2}: no answer.
        assert_eq!(c.lookup(&[1, 2]), None);
        // Duplicates count: an entry needing two 1s does not match a
        // query with one.
        c.store_unsat(vec![7, 7]);
        assert_eq!(c.lookup(&[7, 8]), None);
        assert_eq!(c.lookup(&[7, 7, 8]), Some(UcAnswer::Unsat));
        let s = c.stats();
        assert_eq!(s.sub_hits, 3);
        assert_eq!(s.stores, 2);
    }

    #[test]
    fn ucache_superset_model_is_candidate_only() {
        let c = UnsatCache::new(8);
        c.store_sat(vec![10, 20, 30], Model::default());
        // Query {10,20} ⊆ entry {10,20,30}: candidate model returned.
        assert_eq!(c.lookup(&[10, 20]), Some(UcAnswer::Sat(Model::default())));
        // Query {10,40} ⊄ entry: nothing.
        assert_eq!(c.lookup(&[10, 40]), None);
        // Unsat subset match beats a sat superset candidate.
        c.store_unsat(vec![10]);
        assert_eq!(c.lookup(&[10, 20]), Some(UcAnswer::Unsat));
        let s = c.stats();
        assert_eq!(s.sup_candidates, 1);
        assert_eq!(s.sub_hits, 1);
    }

    #[test]
    fn ucache_bounds_and_dedup() {
        let c = UnsatCache::new(2);
        // Empty and too-wide entries are rejected.
        c.store_unsat(vec![]);
        c.store_unsat(vec![1; UnsatCache::MAX_WIDTH + 1]);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().store_rejects, 2);
        // Duplicate multiset of the same kind is rejected...
        c.store_unsat(vec![5, 6]);
        c.store_unsat(vec![6, 5]);
        assert_eq!(c.stats().entries, 1);
        // ...but the same multiset with the other kind is a new entry.
        c.store_sat(vec![5, 6], Model::default());
        assert_eq!(c.stats().entries, 2);
        // FIFO eviction at capacity: the oldest entry leaves.
        c.store_unsat(vec![9]);
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(c.lookup(&[5, 6, 7]), None, "unsat {{5,6}} was evicted");
        assert_eq!(c.lookup(&[1, 9]), Some(UcAnswer::Unsat));
    }

    #[test]
    fn ucache_empty_query_answers_nothing() {
        let c = UnsatCache::new(4);
        c.store_sat(vec![1], Model::default());
        // ∅ is a subset of every sat entry, but an empty conjunction is
        // trivially sat and never reaches the cache; guard anyway.
        assert_eq!(c.lookup(&[]), None);
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
