//! Query caches: the abstraction the solver consults before (and
//! publishes to after) running the decision procedure.
//!
//! The solver keeps exactly two memo layers:
//!
//! 1. a **private** per-`Solver` map from query or component
//!    fingerprint to the full [`SatResult`] (models included);
//! 2. an optional injected [`QueryCache`] holding *model-free verdicts*
//!    only, so one instance can serve every engine of a run:
//!    `TermId`/`VarId` spaces are per-`TermCtx`, so a `Model` (a
//!    `VarId → i64` map) from one engine is meaningless — and unsound to
//!    reuse — in another. The query fingerprint
//!    ([`crate::TermCtx::query_fingerprint`]) is structural, so
//!    fingerprints *do* agree across contexts.
//!
//! Independence slicing uses the same two layers: each
//! variable-disjoint component is stored and published under its own
//! fingerprint. A verdict-only query decides only the components its
//! partition marks undecided, each through the private layer and then
//! the shared one, and stores nothing under the whole query's
//! fingerprint; so the shared layer answers a component any attempt of
//! the run has decided. A model query also stores and looks up the
//! whole query.
//!
//! `Unknown` results are never published: they encode a local budget
//! exhaustion, not a fact about the constraints, and sharing them could
//! make one attempt's budget wrinkle another attempt's exploration.
//!
//! [`SharedCache`] is the run-scoped implementation: one map with
//! hit/miss/store counters. A run attempts its candidates one after
//! another on one thread, so the memo is single-owner: engines hold it
//! through an `Rc` and it mutates through `&self` with `RefCell`/`Cell`.

use crate::solve::SatResult;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a `u64` that is already well mixed (a query
/// fingerprint, a value's bits), hashed with [`MulShift`] instead of
/// SipHash. Nothing iterates these maps, so their order never leaks.
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<MulShift>>;

/// Folded multiply-shift hash, one 128-bit product per integer written
/// (the term interner hashes a `Term` as its tag and operands). SipHash
/// costs more than a memo lookup's other work. It gives no protection
/// against crafted collisions: colliding keys slow a map down but
/// cannot change what it holds.
#[derive(Default)]
pub struct MulShift(u64);

impl Hasher for MulShift {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        // Both halves of the 128-bit product: integral floats keep
        // their low bits zero, which a plain multiply would pass on to
        // the bucket index.
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p >> 64) as u64 ^ p as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

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
/// from every solver of a run (behind an `Rc`).
pub trait QueryCache {
    /// Looks up a previously published verdict.
    fn lookup(&self, key: u64) -> Option<CachedVerdict>;

    /// Publishes a definitive verdict. Implementations may drop the
    /// entry (e.g. under memory pressure); the cache is advisory.
    fn publish(&self, key: u64, verdict: CachedVerdict);

    /// Traffic counters and entry count, readable through a trait
    /// object so the candidate loop can report the memo's stats.
    fn stats(&self) -> SharedCacheStats;
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
/// shared by every candidate attempt of a run.
#[derive(Debug, Default)]
pub struct SharedCache {
    map: RefCell<U64Map<CachedVerdict>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    stores: Cell<u64>,
}

impl SharedCache {
    /// An empty cache.
    pub fn new() -> SharedCache {
        SharedCache::default()
    }
}

impl QueryCache for SharedCache {
    fn lookup(&self, key: u64) -> Option<CachedVerdict> {
        let hit = self.map.borrow().get(&key).copied();
        match hit {
            Some(_) => self.hits.set(self.hits.get() + 1),
            None => self.misses.set(self.misses.get() + 1),
        }
        hit
    }

    fn publish(&self, key: u64, verdict: CachedVerdict) {
        self.map.borrow_mut().insert(key, verdict);
        self.stores.set(self.stores.get() + 1);
    }

    fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            stores: self.stores.get(),
            entries: self.map.borrow().len() as u64,
        }
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
