//! Fault injection (`testkit::chaos`, DESIGN.md §11).
//!
//! Two injection axes, both derived deterministically from a seed:
//!
//! * **Cache chaos** — [`ChaosCache`] wraps any [`QueryCache`] and
//!   injects *spurious misses* (lookups answered `None` even when the
//!   inner cache holds a verdict) and *dropped publishes*. Both are a
//!   strict subset of legal cache behaviour — the cache contract is
//!   advisory — so a correct engine must produce the identical
//!   exploration, fault, and attempt list with or without chaos.
//! * **Budget chaos** — [`ChaosSchedule`] starves the solver
//!   (`max_nodes` so small that queries come back `Unknown`, the
//!   engine's timeout surrogate) and/or the engine (tiny step budget),
//!   modelling solver timeouts and engine exhaustion. A correct engine
//!   *degrades*: it suspends or exhausts, never panics, and anything
//!   it still reports as a fault must replay concretely.
//!
//! The decision for a given cache key is a pure hash of (seed, key), so
//! injection is deterministic per key and identical across run
//! orders — chaos runs stay reproducible from the seed.

use crate::gen::FaultClass;
use crate::oracles::{budget, compare_engine_reports, OracleOutcome};
use concrete::{Vm, VmConfig};
use minic::ast::Program;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use solver::{CachedVerdict, QueryCache, SharedCache, SharedCacheStats, SolverConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use symex::{Engine, EngineConfig};

/// A deterministic, seed-derived fault-injection plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSchedule {
    /// The seed the schedule was derived from.
    pub seed: u64,
    /// Probability that a cache lookup is answered `None` regardless of
    /// the inner cache's contents.
    pub miss_rate: f64,
    /// Probability that a publish is silently dropped.
    pub drop_rate: f64,
    /// Starve the solver: `max_nodes` so small most branch queries
    /// return `Unknown` (the decision procedure's timeout analogue).
    pub starve_solver: bool,
    /// Starve the engine: a step budget far below what exploration
    /// needs, forcing `Exhausted(Steps)`.
    pub tiny_steps: bool,
}

impl ChaosSchedule {
    /// Derives a schedule from a seed. Roughly a third of seeds starve
    /// the solver, a quarter starve the engine, and miss/drop rates
    /// sweep 0 %–100 %.
    pub fn derive(seed: u64) -> ChaosSchedule {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5eed);
        const RATES: [f64; 4] = [0.0, 0.25, 0.5, 1.0];
        ChaosSchedule {
            seed,
            miss_rate: RATES[rng.random_range(0..RATES.len())],
            drop_rate: RATES[rng.random_range(0..RATES.len())],
            starve_solver: rng.random_bool(0.33),
            tiny_steps: rng.random_bool(0.25),
        }
    }

    /// The engine configuration with this schedule's budget chaos
    /// applied on top of `base`.
    pub fn engine_config(&self, base: EngineConfig) -> EngineConfig {
        let mut cfg = base;
        if self.starve_solver {
            cfg.solver = SolverConfig {
                max_nodes: 3,
                ..SolverConfig::default()
            };
        }
        if self.tiny_steps {
            cfg.max_steps = 120;
        }
        cfg
    }
}

/// Counters of injected faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Lookups forced to miss.
    pub injected_misses: u64,
    /// Publishes silently dropped.
    pub dropped_publishes: u64,
}

/// A [`QueryCache`] wrapper that injects deterministic spurious misses
/// and dropped publishes per [`ChaosSchedule`].
pub struct ChaosCache {
    inner: Arc<dyn QueryCache + Send + Sync>,
    schedule: ChaosSchedule,
    injected_misses: AtomicU64,
    dropped_publishes: AtomicU64,
}

impl ChaosCache {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: Arc<dyn QueryCache + Send + Sync>, schedule: ChaosSchedule) -> ChaosCache {
        ChaosCache {
            inner,
            schedule,
            injected_misses: AtomicU64::new(0),
            dropped_publishes: AtomicU64::new(0),
        }
    }

    /// Injection counters so far.
    pub fn chaos_stats(&self) -> ChaosStats {
        ChaosStats {
            injected_misses: self.injected_misses.load(Ordering::Relaxed),
            dropped_publishes: self.dropped_publishes.load(Ordering::Relaxed),
        }
    }

    /// Pure per-key decision in `[0, 1)`: SplitMix64 of (seed, key,
    /// salt). Thread- and order-independent.
    fn roll(&self, key: u64, salt: u64) -> f64 {
        let mut z = self
            .schedule
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(key)
            .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl QueryCache for ChaosCache {
    fn lookup(&self, key: u64) -> Option<CachedVerdict> {
        if self.roll(key, 1) < self.schedule.miss_rate {
            self.injected_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.inner.lookup(key)
    }

    fn publish(&self, key: u64, verdict: CachedVerdict) {
        if self.roll(key, 2) < self.schedule.drop_rate {
            self.dropped_publishes.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.inner.publish(key, verdict);
    }

    fn entries(&self) -> usize {
        self.inner.entries()
    }

    fn stats(&self) -> SharedCacheStats {
        self.inner.stats()
    }
}

/// The chaos oracle: under any seed-derived injection schedule the
/// engine must degrade gracefully —
///
/// 1. the run terminates with a normal outcome (a panic fails the
///    harness itself);
/// 2. anything still reported as a fault replays concretely with the
///    same class at the same site (never a *wrong* fault);
/// 3. the same engine over a [`ChaosCache`]-wrapped shared cache
///    reports exactly what it reports with no cache.
pub fn check_chaos(program: &Program, seed: u64) -> Result<OracleOutcome, String> {
    let module = sir::lower(program).map_err(|e| format!("lowering failed: {e}"))?;
    let schedule = ChaosSchedule::derive(seed);
    let chaos_engine = schedule.engine_config(budget());

    // 1+2: a plain engine under budget chaos terminates and never
    // reports a wrong fault.
    let report = Engine::new(&module, chaos_engine).run();
    if let Some(found) = report.outcome.found() {
        let vm = Vm::new(&module, VmConfig::default());
        let run = vm
            .run(&found.inputs)
            .map_err(|e| format!("chaos {schedule:?}: VM rejected model inputs: {e}"))?;
        let Some(fault) = run.outcome.fault() else {
            return Err(format!(
                "chaos {schedule:?}: reported fault {:?} does not reproduce concretely",
                found.fault.kind
            ));
        };
        if FaultClass::of_kind(&fault.kind) != FaultClass::of_kind(&found.fault.kind)
            || fault.func != found.fault.func
        {
            return Err(format!(
                "chaos {schedule:?}: wrong fault: symbolic {:?}@{} vs concrete {:?}@{}",
                found.fault.kind, found.fault.func, fault.kind, fault.func
            ));
        }
    }

    // 3: the same engine over a chaos-wrapped shared cache reports
    // exactly what it reports with no cache: injected misses and
    // dropped publishes only cost solver work.
    let cached = {
        let chaos_cache: Arc<dyn QueryCache + Send + Sync> =
            Arc::new(ChaosCache::new(Arc::new(SharedCache::new()), schedule));
        let mut eng = Engine::new(&module, chaos_engine);
        eng.set_shared_cache(chaos_cache);
        eng.run()
    };
    compare_engine_reports(
        &report,
        &cached,
        &format!("chaos engine+cache {schedule:?}"),
    )?;

    Ok(OracleOutcome::Pass)
}
