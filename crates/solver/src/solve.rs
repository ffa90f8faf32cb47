//! The decision procedure: interval propagation + backtracking search.

use crate::cache::{CachedVerdict, QueryCache, U64Map};
use crate::interval::Interval;
use crate::partition::{Component, Partition};
use crate::term::{CmpOp, Constraint, Term, TermCtx, TermId, VarId};
use statsym_telemetry::query_disposition as qd;
use std::collections::HashMap;
use std::rc::Rc;

/// Resource limits for one `check` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum propagation rounds per fixpoint (defensive bound; real
    /// fixpoints converge much earlier).
    pub max_rounds: usize,
    /// Maximum search-tree nodes before giving up with `Unknown`.
    pub max_nodes: u64,
    /// Accumulate `query_us` even when no recorder is attached, so
    /// untraced bench runs still get an executor-vs-solver wall
    /// breakdown. Off by default (the historical behavior: untraced
    /// queries skip the clock reads entirely).
    pub time_queries: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_rounds: 64,
            max_nodes: 50_000,
            time_queries: false,
        }
    }
}

/// Counters accumulated across `check` calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Total queries (including cache hits).
    pub queries: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown`.
    pub unknown: u64,
    /// Queries answered from the private (per-solver) cache: a model
    /// query's whole query, or a verdict-only query's one undecided
    /// component.
    pub cache_hits: u64,
    /// Shared-cache lookups that answered: a model query's whole query,
    /// or a component a verdict-only query decided.
    pub shared_hits: u64,
    /// Shared-cache lookups that did not answer (no entry, or a `Sat`
    /// verdict when a model was required).
    pub shared_misses: u64,
    /// Search nodes explored.
    pub nodes: u64,
    /// HC4 propagation iterations (fixpoint rounds) across all queries.
    pub propagation_rounds: u64,
    /// Backtracks: a search node falling through to its second domain
    /// partition after the first failed.
    pub backtracks: u64,
    /// Wall-clock µs spent inside traced queries. Only accumulates when
    /// a live recorder is attached (untraced runs skip the clock reads
    /// entirely) or [`SolverConfig::time_queries`] is set, and is
    /// inherently nondeterministic — deterministic trace sinks zero it
    /// before it reaches disk; never compare it across runs.
    pub query_us: u64,
    /// Queries that decided ≥ 2 components separately: a model query
    /// with several components, or a verdict-only query with several
    /// undecided ones.
    pub indep_queries: u64,
    /// Total components those queries decided.
    pub indep_components: u64,
    /// Of those, the components answered from the private cache.
    pub indep_comp_hits: u64,
}

/// A satisfying assignment for the variables that appear in the query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    values: HashMap<VarId, i64>,
}

impl Model {
    /// The assigned value of `v`, if `v` appeared in the query.
    pub fn get(&self, v: VarId) -> Option<i64> {
        self.values.get(&v).copied()
    }

    /// The assigned value of `v`, falling back to the low end of its
    /// declared domain — the completion used to materialize test inputs.
    pub fn get_or_default(&self, v: VarId, ctx: &TermCtx) -> i64 {
        self.get(v).unwrap_or_else(|| ctx.var_domain(v).lo)
    }

    /// Evaluates `t` under this model (unassigned variables default to
    /// the low end of their domain). Returns `None` only for division or
    /// remainder by zero.
    pub fn value_of(&self, t: TermId, ctx: &TermCtx) -> Option<i64> {
        Some(match ctx.term(t) {
            Term::Const(v) => v,
            Term::Var(v) => self.get_or_default(v, ctx),
            Term::Add(a, b) => self.value_of(a, ctx)?.wrapping_add(self.value_of(b, ctx)?),
            Term::Sub(a, b) => self.value_of(a, ctx)?.wrapping_sub(self.value_of(b, ctx)?),
            Term::Mul(a, b) => self.value_of(a, ctx)?.wrapping_mul(self.value_of(b, ctx)?),
            Term::Div(a, b) => {
                let d = self.value_of(b, ctx)?;
                if d == 0 {
                    return None;
                }
                self.value_of(a, ctx)?.wrapping_div(d)
            }
            Term::Rem(a, b) => {
                let d = self.value_of(b, ctx)?;
                if d == 0 {
                    return None;
                }
                self.value_of(a, ctx)?.wrapping_rem(d)
            }
            Term::Neg(a) => self.value_of(a, ctx)?.wrapping_neg(),
        })
    }

    /// True if every constraint holds under the model.
    pub fn satisfies(&self, ctx: &TermCtx, constraints: &[Constraint]) -> bool {
        constraints.iter().all(
            |c| match (self.value_of(c.lhs, ctx), self.value_of(c.rhs, ctx)) {
                (Some(a), Some(b)) => c.op.concrete(a, b),
                _ => false,
            },
        )
    }
}

/// The answer to a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a verified model; the model is empty in the
    /// answer to a verdict-only query (see [`Solver::check_sat`]).
    Sat(Model),
    /// Provably unsatisfiable.
    Unsat,
    /// Budget exhausted before a decision.
    Unknown,
}

impl SatResult {
    /// True for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// True for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// The solver, with a per-instance query cache and an optional injected
/// shared verdict cache (see [`crate::cache`]).
///
/// `Clone` duplicates the private cache and stats and shares the
/// injected cache (the partition bench clones a warmed solver so every
/// iteration starts from the same cache).
#[derive(Default, Clone)]
pub struct Solver {
    config: SolverConfig,
    stats: SolverStats,
    /// Running query time in ns; `stats.query_us` is derived from it so
    /// sub-µs queries (cache hits) still add up.
    query_ns: u64,
    /// Full results, models included, by query or component
    /// fingerprint.
    cache: U64Map<SatResult>,
    shared: Option<Rc<dyn QueryCache>>,
    prov: Prov,
}

/// Transient provenance context stamped onto query events (see
/// [`Solver::set_provenance`]). The executor updates it before every
/// step, so each query carries the state and line that issued it.
#[derive(Default, Clone)]
struct Prov {
    enabled: bool,
    sid: u64,
    loc: String,
    rank: u32,
    /// Cache disposition of the most recent `check_inner` answer, one
    /// of [`statsym_telemetry::query_disposition::ALL`].
    last_cache: &'static str,
}

impl std::fmt::Debug for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solver")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .field("cache_len", &self.cache.len())
            .field("shared", &self.shared.is_some())
            .finish()
    }
}

impl Solver {
    /// Creates a solver with explicit limits.
    pub fn with_config(config: SolverConfig) -> Solver {
        Solver {
            config,
            ..Solver::default()
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Injects a shared verdict cache, consulted on private-cache misses
    /// and fed every definitive local result. See [`crate::cache`] for
    /// the soundness rules (model-free verdicts only, never `Unknown`).
    pub fn set_query_cache(&mut self, cache: Rc<dyn QueryCache>) {
        self.shared = Some(cache);
    }

    /// Approximate memory footprint of the cache, in entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Enables solver-query provenance: every traced query emits a
    /// canonical `query` event carrying the originating state id, source
    /// location, candidate `rank`, callsite, verdict, and cache
    /// disposition. Off by default — committed trace baselines predate
    /// the event family, and provenance roughly doubles a solver-heavy
    /// trace's line count.
    pub fn set_provenance(&mut self, rank: u32) {
        self.prov.enabled = true;
        self.prov.rank = rank;
        // Queries issued before the first `set_query_origin` (initial
        // state construction, entry guidance) belong to no instruction.
        if self.prov.loc.is_empty() {
            self.prov.loc.push_str("entry:0");
        }
    }

    /// Updates the originating-state context stamped onto subsequent
    /// query events: the engine-local state id and the `function:line`
    /// source location of the instruction about to run. Cheap when the
    /// location is unchanged (no allocation).
    pub fn set_query_origin(&mut self, sid: u64, loc: &str) {
        self.prov.sid = sid;
        if self.prov.loc != loc {
            self.prov.loc.clear();
            self.prov.loc.push_str(loc);
        }
    }

    /// Decides `constraints` (a conjunction) over `ctx`, producing a
    /// verified model when satisfiable.
    pub fn check(&mut self, ctx: &TermCtx, constraints: &[Constraint]) -> SatResult {
        let query = Partition::of(ctx, constraints);
        self.dispatch_traced(ctx, &query, &statsym_telemetry::NOOP, true, "check")
    }

    /// Decides satisfiability only: the caller promises not to read the
    /// model out of a `Sat` answer, which carries an empty one. This
    /// unlocks shared-cache `Sat` verdicts (which are model-free by
    /// construction) and decides each component on its own, so no
    /// model is merged or cloned. See [`Solver::check_sat_at`].
    pub fn check_sat(&mut self, ctx: &TermCtx, constraints: &[Constraint]) -> SatResult {
        let query = Partition::of(ctx, constraints);
        self.dispatch_traced(ctx, &query, &statsym_telemetry::NOOP, false, "check")
    }

    /// Decides an already partitioned conjunction (the symbolic
    /// executor's carried path condition), tagged with the callsite
    /// issuing the query, with per-query latency telemetry: the query's
    /// wall-clock time lands in the `solver.query_us` histogram (only
    /// under a wall-clock trace; deterministic traces skip it), and the
    /// query lands in the per-site hot-spot profile:
    /// `solver.site.<site>.queries` and `.nodes` counters plus a
    /// `.query_us` latency histogram (wall-clock traces only).
    /// `statsym-inspect report` renders these. Counter totals are *not*
    /// emitted here — callers snapshot [`Solver::stats`] and emit
    /// deltas, which keeps counts exactly reconcilable. Answers, models
    /// and counters equal [`Solver::check`] on
    /// [`Partition::conjuncts`].
    pub fn check_at(
        &mut self,
        ctx: &TermCtx,
        query: &Partition,
        rec: &dyn statsym_telemetry::Recorder,
        site: &'static str,
    ) -> SatResult {
        self.dispatch_traced(ctx, query, rec, true, site)
    }

    /// [`Solver::check_at`] without a model, deciding only the
    /// components the partition marks undecided: those its pushes
    /// created, grew or merged since it was last
    /// [`Partition::mark_decided`]. Every other component is a
    /// sub-conjunction of a conjunction already answered feasible, so
    /// the verdict equals the whole query's whenever no answer was
    /// `Unknown`. Each undecided component is decided through the
    /// private memo, then the shared one, then a search, under its own
    /// fingerprint; the first `Unsat` one refutes the query.
    pub fn check_sat_at(
        &mut self,
        ctx: &TermCtx,
        query: &Partition,
        rec: &dyn statsym_telemetry::Recorder,
        site: &'static str,
    ) -> SatResult {
        self.dispatch_traced(ctx, query, rec, false, site)
    }

    fn dispatch_traced(
        &mut self,
        ctx: &TermCtx,
        query: &Partition,
        rec: &dyn statsym_telemetry::Recorder,
        needs_model: bool,
        site: &'static str,
    ) -> SatResult {
        if !rec.enabled() {
            if self.config.time_queries {
                let start = std::time::Instant::now();
                let result = self.check_inner(ctx, query, needs_model);
                self.add_query_time(start.elapsed());
                return result;
            }
            return self.check_inner(ctx, query, needs_model);
        }
        let nodes_before = self.stats.nodes;
        let us_before = self.stats.query_us;
        let start = std::time::Instant::now();
        let result = self.check_inner(ctx, query, needs_model);
        self.add_query_time(start.elapsed());
        // The query's share of the running total, not its own whole µs:
        // per-query values then telescope to `query_us`, sub-µs cache
        // hits included.
        let us = self.stats.query_us - us_before;
        let elapsed = std::time::Duration::from_micros(us);
        rec.observe_wall(statsym_telemetry::names::SOLVER_QUERY_US, elapsed);
        if self.prov.enabled {
            let verdict = match &result {
                SatResult::Sat(_) => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown => "unknown",
            };
            rec.query(&statsym_telemetry::QueryEvent {
                sid: self.prov.sid,
                loc: &self.prov.loc,
                rank: self.prov.rank,
                site,
                verdict,
                cache: self.prov.last_cache,
                nodes: self.stats.nodes - nodes_before,
                us,
            });
        }
        use statsym_telemetry::names::SOLVER_SITE_PREFIX;
        rec.counter_add(&format!("{SOLVER_SITE_PREFIX}{site}.queries"), 1);
        rec.counter_add(
            &format!("{SOLVER_SITE_PREFIX}{site}.nodes"),
            self.stats.nodes - nodes_before,
        );
        rec.observe_wall(&format!("{SOLVER_SITE_PREFIX}{site}.query_us"), elapsed);
        result
    }

    /// Adds one query's wall time. Summing in ns and converting the total
    /// keeps `query_us` honest: truncating each query to whole µs would
    /// count every sub-µs cache hit as zero.
    fn add_query_time(&mut self, elapsed: std::time::Duration) {
        self.query_ns += elapsed.as_nanos() as u64;
        self.stats.query_us = self.query_ns / 1000;
    }

    /// Counts the query and its verdict around the model or the
    /// verdict-only decision path.
    fn check_inner(&mut self, ctx: &TermCtx, query: &Partition, needs_model: bool) -> SatResult {
        self.stats.queries += 1;
        let result = if query.is_empty() {
            self.prov.last_cache = qd::EMPTY;
            SatResult::Sat(Model::default())
        } else if needs_model {
            self.check_model(ctx, query)
        } else {
            self.check_undecided(ctx, query)
        };
        match &result {
            SatResult::Sat(_) => self.stats.sat += 1,
            SatResult::Unsat => self.stats.unsat += 1,
            SatResult::Unknown => self.stats.unknown += 1,
        }
        result
    }

    /// The model path, over the whole query: private cache, then the
    /// shared one (an `Unsat` there answers it), then a search of the
    /// single component or independence slicing.
    fn check_model(&mut self, ctx: &TermCtx, query: &Partition) -> SatResult {
        let key = query.fingerprint();
        if let Some(hit) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            self.prov.last_cache = qd::PRIVATE;
            return hit.clone();
        }
        if let Some(shared) = &self.shared {
            // A shared `Sat` carries no model, so only `Unsat` answers.
            // Mirror it into the private cache: repeats become ordinary
            // private hits, exactly as without sharing.
            if shared.lookup(key) == Some(CachedVerdict::Unsat) {
                self.stats.shared_hits += 1;
                self.prov.last_cache = qd::SHARED;
                self.cache.insert(key, SatResult::Unsat);
                return SatResult::Unsat;
            }
            self.stats.shared_misses += 1;
        }
        match &query.components()[..] {
            [whole] => {
                self.prov.last_cache = qd::SEARCH;
                self.search(ctx, whole, key)
            }
            comps => {
                self.prov.last_cache = qd::SLICED;
                let result = self.check_sliced(ctx, comps);
                debug_assert!(match &result {
                    SatResult::Sat(m) => m.satisfies(ctx, &query.conjuncts()),
                    _ => true,
                });
                self.store(key, result.clone());
                result
            }
        }
    }

    /// The verdict-only path (see [`Solver::check_sat_at`]): a query
    /// with one undecided component takes that component's
    /// disposition, one with several is `sliced`, and one with none is
    /// `empty` (nothing is left to decide).
    fn check_undecided(&mut self, ctx: &TermCtx, query: &Partition) -> SatResult {
        let verdict = match query.undecided() {
            [] => {
                self.prov.last_cache = qd::EMPTY;
                Some(CachedVerdict::Sat)
            }
            [one] => {
                let (verdict, disposition) = self.decide(ctx, one);
                if disposition == qd::PRIVATE {
                    self.stats.cache_hits += 1;
                }
                self.prov.last_cache = disposition;
                verdict
            }
            comps => {
                self.prov.last_cache = qd::SLICED;
                self.stats.indep_queries += 1;
                self.stats.indep_components += comps.len() as u64;
                let mut verdict = Some(CachedVerdict::Sat);
                for comp in comps {
                    let (v, disposition) = self.decide(ctx, comp);
                    if disposition == qd::PRIVATE {
                        self.stats.indep_comp_hits += 1;
                    }
                    match v {
                        Some(CachedVerdict::Unsat) => {
                            verdict = v;
                            break;
                        }
                        None => verdict = None,
                        Some(CachedVerdict::Sat) => {}
                    }
                }
                verdict
            }
        };
        match verdict {
            Some(CachedVerdict::Sat) => SatResult::Sat(Model::default()),
            Some(CachedVerdict::Unsat) => SatResult::Unsat,
            None => SatResult::Unknown,
        }
    }

    /// Decides one component of a verdict-only query under its own
    /// fingerprint: the private cache, then the shared one, then a
    /// search. Returns the verdict (`None` for `Unknown`) and where it
    /// came from. A shared `Unsat` is mirrored into the private cache;
    /// a shared `Sat` is not, since nothing here could rebuild its
    /// model.
    fn decide(&mut self, ctx: &TermCtx, comp: &Component) -> (Option<CachedVerdict>, &'static str) {
        let key = comp.fingerprint();
        if let Some(hit) = self.cache.get(&key) {
            return (CachedVerdict::from_result(hit), qd::PRIVATE);
        }
        if let Some(shared) = &self.shared {
            match shared.lookup(key) {
                Some(verdict) => {
                    self.stats.shared_hits += 1;
                    if verdict == CachedVerdict::Unsat {
                        self.cache.insert(key, SatResult::Unsat);
                    }
                    return (Some(verdict), qd::SHARED);
                }
                None => self.stats.shared_misses += 1,
            }
        }
        let result = self.search(ctx, comp, key);
        (CachedVerdict::from_result(&result), qd::SEARCH)
    }

    /// Constraint-independence slicing for a model query: decides each
    /// variable-disjoint component separately, through the private
    /// cache under the component's own fingerprint, and merges their
    /// models. Per-query verdict counters are NOT touched here — the
    /// enclosing query counts once; only work counters and
    /// `indep_comp_hits` accumulate.
    ///
    /// Soundness: components are variable-disjoint, so the conjunction
    /// is satisfiable iff every component is, and the union of the
    /// component models is a model of the whole (each conjunct only
    /// reads variables of its own component). Any unsat component
    /// refutes the whole. An `Unknown` component makes the whole
    /// `Unknown` unless some other component is unsat.
    fn check_sliced(&mut self, ctx: &TermCtx, comps: &[&Component]) -> SatResult {
        self.stats.indep_queries += 1;
        self.stats.indep_components += comps.len() as u64;
        let mut values = HashMap::new();
        let mut unknown = false;
        for comp in comps {
            let ck = comp.fingerprint();
            if self.cache.contains_key(&ck) {
                self.stats.indep_comp_hits += 1;
            } else {
                self.search(ctx, comp, ck);
            }
            match &self.cache[&ck] {
                SatResult::Sat(m) => values.extend(&m.values),
                SatResult::Unsat => return SatResult::Unsat,
                SatResult::Unknown => unknown = true,
            }
        }
        if unknown {
            return SatResult::Unknown;
        }
        SatResult::Sat(Model { values })
    }

    /// Runs the whole-conjunction search over one component, accumulates
    /// its work counters, and stores the result under `key`.
    fn search(&mut self, ctx: &TermCtx, comp: &Component, key: u64) -> SatResult {
        let constraints = comp.conjuncts();
        let mut search = Search {
            ctx,
            constraints: &constraints,
            config: self.config,
            nodes: 0,
            rounds: 0,
            backtracks: 0,
            budget_hit: false,
        };
        let result = search.run(comp.vars());
        self.stats.nodes += search.nodes;
        self.stats.propagation_rounds += search.rounds;
        self.stats.backtracks += search.backtracks;
        self.store(key, result.clone());
        result
    }

    /// Memoises `result` under `key` in the private cache and publishes
    /// a definitive verdict to the shared cache, if one is attached.
    fn store(&mut self, key: u64, result: SatResult) {
        if let (Some(shared), Some(verdict)) = (&self.shared, CachedVerdict::from_result(&result)) {
            shared.publish(key, verdict);
        }
        self.cache.insert(key, result);
    }
}

struct Search<'a> {
    ctx: &'a TermCtx,
    constraints: &'a [Constraint],
    config: SolverConfig,
    nodes: u64,
    rounds: u64,
    backtracks: u64,
    budget_hit: bool,
}

/// Domains are indexed by `VarId`; only variables relevant to the query
/// are tracked.
type Domains = HashMap<VarId, Interval>;

enum PropOutcome {
    Ok,
    Contradiction,
}

impl<'a> Search<'a> {
    /// Searches for a model over `vars`, the variables the constraints
    /// read.
    fn run(&mut self, vars: &[VarId]) -> SatResult {
        let domains: Domains = vars.iter().map(|&v| (v, self.ctx.var_domain(v))).collect();
        match self.search(domains) {
            Some(model) => SatResult::Sat(model),
            None if self.budget_hit => SatResult::Unknown,
            None => SatResult::Unsat,
        }
    }

    /// Lo-first splitting: try the smallest value of the branch
    /// variable, else the rest of its domain. Complete, and reaches a
    /// model in O(#vars) nodes on the byte-constraint chains symbolic
    /// string exploration emits. Only the point branch recurses (it
    /// fixes one more variable, so the depth is bounded by the variable
    /// count); the rest branch loops, since a wide domain can be split
    /// up to the node budget.
    fn search(&mut self, mut domains: Domains) -> Option<Model> {
        loop {
            self.nodes += 1;
            if self.nodes > self.config.max_nodes {
                self.budget_hit = true;
                return None;
            }
            if let PropOutcome::Contradiction = self.propagate(&mut domains) {
                return None;
            }
            // Pick the unfixed variable with the smallest domain.
            let branch_var = domains
                .iter()
                .filter(|(_, d)| !d.is_point())
                .min_by_key(|(v, d)| (d.width(), v.0))
                .map(|(v, d)| (*v, *d));
            let Some((var, dom)) = branch_var else {
                // All variables fixed: verify concretely (propagation over
                // div/rem is conservative, so this check is load-bearing).
                let model = Model {
                    values: domains.iter().map(|(v, d)| (*v, d.lo)).collect(),
                };
                return model.satisfies(self.ctx, self.constraints).then_some(model);
            };
            let mut point = domains.clone();
            point.insert(var, Interval::point(dom.lo));
            if let Some(m) = self.search(point) {
                return Some(m);
            }
            if self.budget_hit {
                return None;
            }
            self.backtracks += 1;
            domains.insert(var, Interval::new(dom.lo.saturating_add(1), dom.hi));
        }
    }

    /// Revises all constraints until fixpoint (or the round bound).
    fn propagate(&mut self, domains: &mut Domains) -> PropOutcome {
        for _ in 0..self.config.max_rounds {
            self.rounds += 1;
            let mut changed = false;
            for c in self.constraints {
                match self.revise(c, domains) {
                    Ok(ch) => changed |= ch,
                    Err(()) => return PropOutcome::Contradiction,
                }
            }
            if !changed {
                break;
            }
        }
        PropOutcome::Ok
    }

    fn eval(&self, t: TermId, domains: &Domains) -> Interval {
        match self.ctx.term(t) {
            Term::Const(v) => Interval::point(v),
            Term::Var(v) => domains
                .get(&v)
                .copied()
                .unwrap_or_else(|| self.ctx.var_domain(v)),
            Term::Add(a, b) => self.eval(a, domains).add(self.eval(b, domains)),
            Term::Sub(a, b) => self.eval(a, domains).sub(self.eval(b, domains)),
            Term::Mul(a, b) => self.eval(a, domains).mul(self.eval(b, domains)),
            Term::Div(a, b) => self.eval(a, domains).div(self.eval(b, domains)),
            Term::Rem(a, b) => self.eval(a, domains).rem(self.eval(b, domains)),
            Term::Neg(a) => self.eval(a, domains).neg(),
        }
    }

    /// One HC4 revise of a single constraint. `Err(())` = contradiction.
    fn revise(&self, c: &Constraint, domains: &mut Domains) -> Result<bool, ()> {
        let l = self.eval(c.lhs, domains);
        let r = self.eval(c.rhs, domains);
        if l.is_empty() || r.is_empty() {
            return Err(());
        }
        let (l_target, r_target) = match c.op {
            CmpOp::Le => {
                if l.lo > r.hi {
                    return Err(());
                }
                (Interval::new(i64::MIN, r.hi), Interval::new(l.lo, i64::MAX))
            }
            CmpOp::Lt => {
                if l.lo >= r.hi {
                    return Err(());
                }
                (
                    Interval::new(i64::MIN, r.hi.saturating_sub(1)),
                    Interval::new(l.lo.saturating_add(1), i64::MAX),
                )
            }
            CmpOp::Eq => {
                let meet = l.intersect(r);
                if meet.is_empty() {
                    return Err(());
                }
                (meet, meet)
            }
            CmpOp::Ne => {
                if l.is_point() && r.is_point() && l.lo == r.lo {
                    return Err(());
                }
                // Shave an endpoint when the other side is a singleton.
                let mut lt = l;
                let mut rt = r;
                if r.is_point() {
                    if lt.lo == r.lo {
                        lt.lo = lt.lo.saturating_add(1);
                    }
                    if lt.hi == r.lo {
                        lt.hi = lt.hi.saturating_sub(1);
                    }
                    if lt.is_empty() {
                        return Err(());
                    }
                }
                if l.is_point() {
                    if rt.lo == l.lo {
                        rt.lo = rt.lo.saturating_add(1);
                    }
                    if rt.hi == l.lo {
                        rt.hi = rt.hi.saturating_sub(1);
                    }
                    if rt.is_empty() {
                        return Err(());
                    }
                }
                (lt, rt)
            }
        };
        let mut changed = self.narrow(c.lhs, l_target, domains)?;
        changed |= self.narrow(c.rhs, r_target, domains)?;
        Ok(changed)
    }

    /// Backward (HC4) narrowing: force `eval(t) ⊆ target`.
    fn narrow(&self, t: TermId, target: Interval, domains: &mut Domains) -> Result<bool, ()> {
        let cur = self.eval(t, domains);
        let meet = cur.intersect(target);
        if meet.is_empty() {
            return Err(());
        }
        if meet == cur {
            return Ok(false);
        }
        match self.ctx.term(t) {
            Term::Const(_) => Ok(false),
            Term::Var(v) => {
                domains.insert(v, meet);
                Ok(true)
            }
            Term::Add(a, b) => {
                let eb = self.eval(b, domains);
                let mut ch = self.narrow(a, meet.sub(eb), domains)?;
                let ea = self.eval(a, domains);
                ch |= self.narrow(b, meet.sub(ea), domains)?;
                Ok(ch)
            }
            Term::Sub(a, b) => {
                let eb = self.eval(b, domains);
                let mut ch = self.narrow(a, meet.add(eb), domains)?;
                let ea = self.eval(a, domains);
                ch |= self.narrow(b, ea.sub(meet), domains)?;
                Ok(ch)
            }
            Term::Neg(a) => self.narrow(a, meet.neg(), domains),
            Term::Mul(a, b) => {
                let mut ch = false;
                if let Some(cb) = self.ctx.as_const(b) {
                    if cb != 0 {
                        ch |= self.narrow(a, div_range_for_mul(meet, cb), domains)?;
                    }
                }
                if let Some(ca) = self.ctx.as_const(a) {
                    if ca != 0 {
                        ch |= self.narrow(b, div_range_for_mul(meet, ca), domains)?;
                    }
                }
                Ok(ch)
            }
            // Division/remainder: evaluation-only (no backward narrowing);
            // the final concrete verification keeps this sound.
            Term::Div(_, _) | Term::Rem(_, _) => Ok(false),
        }
    }
}

/// The tightest interval `X` such that `x ∈ X ⇒ x * c` may lie in
/// `target` (for constant `c != 0`).
fn div_range_for_mul(target: Interval, c: i64) -> Interval {
    debug_assert!(c != 0);
    let (lo, hi) = if c > 0 {
        (ceil_div(target.lo, c), floor_div(target.hi, c))
    } else {
        (ceil_div(target.hi, c), floor_div(target.lo, c))
    };
    Interval::new(lo, hi)
}

fn floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sat(ctx: &TermCtx, cs: &[Constraint]) -> Model {
        match Solver::default().check(ctx, cs) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(ctx, cs), "returned model must satisfy");
                m
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    fn unsat(ctx: &TermCtx, cs: &[Constraint]) {
        assert_eq!(Solver::default().check(ctx, cs), SatResult::Unsat);
    }

    #[test]
    fn empty_query_is_sat() {
        let ctx = TermCtx::new();
        assert!(Solver::default().check(&ctx, &[]).is_sat());
    }

    #[test]
    fn simple_bounds() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c100 = ctx.int(100);
        let c200 = ctx.int(200);
        let m = sat(
            &ctx,
            &[
                Constraint::new(CmpOp::Lt, c100, x),
                Constraint::new(CmpOp::Lt, x, c200),
            ],
        );
        let v = m.value_of(x, &ctx).unwrap();
        assert!(v > 100 && v < 200);
    }

    #[test]
    fn contradictory_bounds_unsat() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c10 = ctx.int(10);
        let c5 = ctx.int(5);
        unsat(
            &ctx,
            &[
                Constraint::new(CmpOp::Lt, x, c5),
                Constraint::new(CmpOp::Lt, c10, x),
            ],
        );
    }

    #[test]
    fn equality_chain_propagates() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 1000);
        let y = ctx.new_var("y", 0, 1000);
        let c7 = ctx.int(7);
        let sum = ctx.add(x, c7);
        let c42 = ctx.int(42);
        let m = sat(
            &ctx,
            &[
                Constraint::new(CmpOp::Eq, sum, c42), // x + 7 == 42
                Constraint::new(CmpOp::Eq, y, x),     // y == x
            ],
        );
        assert_eq!(m.get(var_of(&ctx, x)), Some(35));
        assert_eq!(m.get(var_of(&ctx, y)), Some(35));
    }

    fn var_of(ctx: &TermCtx, t: TermId) -> VarId {
        match ctx.term(t) {
            Term::Var(v) => v,
            _ => panic!("not a var"),
        }
    }

    #[test]
    fn ne_constraints_on_bytes() {
        // Models the strlen pattern: bytes 0..3 nonzero, byte 3 == 0.
        let mut ctx = TermCtx::new();
        let zero = ctx.int(0);
        let bytes: Vec<TermId> = (0..4)
            .map(|i| ctx.new_var(format!("b{i}"), 0, 255))
            .collect();
        let mut cs: Vec<Constraint> = bytes[..3]
            .iter()
            .map(|&b| Constraint::new(CmpOp::Ne, b, zero))
            .collect();
        cs.push(Constraint::new(CmpOp::Eq, bytes[3], zero));
        let m = sat(&ctx, &cs);
        for b in &bytes[..3] {
            assert_ne!(m.value_of(*b, &ctx).unwrap(), 0);
        }
        assert_eq!(m.value_of(bytes[3], &ctx).unwrap(), 0);
    }

    #[test]
    fn multiplication_by_constant_narrows() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 1_000_000);
        let c3 = ctx.int(3);
        let prod = ctx.mul(x, c3);
        let c300 = ctx.int(300);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, prod, c300)]);
        assert_eq!(m.value_of(x, &ctx).unwrap(), 100);
        // 3x == 301 has no integer solution.
        let c301 = ctx.int(301);
        unsat(&ctx, &[Constraint::new(CmpOp::Eq, prod, c301)]);
    }

    #[test]
    fn division_needs_search_but_verifies() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 40);
        let c4 = ctx.int(4);
        let q = ctx.div(x, c4);
        let c7 = ctx.int(7);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, q, c7)]);
        let v = m.value_of(x, &ctx).unwrap();
        assert_eq!(v / 4, 7);
    }

    #[test]
    fn subtraction_with_negatives() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", -100, 100);
        let y = ctx.new_var("y", -100, 100);
        let diff = ctx.sub(x, y);
        let c150 = ctx.int(150);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, diff, c150)]);
        let (vx, vy) = (m.value_of(x, &ctx).unwrap(), m.value_of(y, &ctx).unwrap());
        assert_eq!(vx - vy, 150);
    }

    #[test]
    fn negation_narrowing() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", -50, 50);
        let nx = ctx.neg(x);
        let c30 = ctx.int(30);
        let m = sat(&ctx, &[Constraint::new(CmpOp::Eq, nx, c30)]);
        assert_eq!(m.value_of(x, &ctx).unwrap(), -30);
    }

    #[test]
    fn cache_hits_are_counted() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let mut solver = Solver::default();
        solver.check(&ctx, &cs);
        solver.check(&ctx, &cs);
        assert_eq!(solver.stats().cache_hits, 1);
        assert_eq!(solver.stats().queries, 2);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // x * y == large prime-ish over huge domains: no narrowing
        // applies, so the search splits the rest of a domain until the
        // node budget runs out. The default budget must not grow the
        // stack with it: run on a 2 MiB thread (cargo test's default).
        let exhaust = |max_nodes: u64| {
            let mut ctx = TermCtx::new();
            let x = ctx.new_var("x", 2, 1_000_000_000);
            let y = ctx.new_var("y", 2, 1_000_000_000);
            let prod = ctx.mul(x, y);
            let target = ctx.int(999_999_937);
            let mut solver = Solver::with_config(SolverConfig {
                max_nodes,
                ..SolverConfig::default()
            });
            let r = solver.check(&ctx, &[Constraint::new(CmpOp::Eq, prod, target)]);
            (r, solver.stats().nodes)
        };
        for max_nodes in [1, SolverConfig::default().max_nodes] {
            let outcome = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || exhaust(max_nodes))
                .expect("spawn the search thread")
                .join()
                .expect("search thread panicked");
            assert_eq!(outcome, (SatResult::Unknown, max_nodes + 1));
        }
    }

    #[test]
    fn le_lt_boundaries_exact() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let c10 = ctx.int(10);
        // x >= 10 (as 10 <= x) has exactly one solution in [0,10].
        let m = sat(&ctx, &[Constraint::new(CmpOp::Le, c10, x)]);
        assert_eq!(m.value_of(x, &ctx).unwrap(), 10);
        // x > 10 is unsat.
        unsat(&ctx, &[Constraint::new(CmpOp::Lt, c10, x)]);
    }

    #[test]
    fn propagation_rounds_and_backtracks_are_counted() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 40);
        let c4 = ctx.int(4);
        let q = ctx.div(x, c4);
        let c7 = ctx.int(7);
        let mut solver = Solver::default();
        // Division defeats narrowing, forcing the search to enumerate
        // x lo-first: 28 failed first partitions before x == 28 works.
        let r = solver.check(&ctx, &[Constraint::new(CmpOp::Eq, q, c7)]);
        assert!(r.is_sat());
        let stats = solver.stats();
        assert!(stats.propagation_rounds > 0, "{stats:?}");
        assert_eq!(stats.backtracks, 28, "{stats:?}");
        // A pure-propagation query adds rounds but no backtracks.
        let before = solver.stats();
        let c5 = ctx.int(5);
        solver.check(&ctx, &[Constraint::new(CmpOp::Eq, x, c5)]);
        let after = solver.stats();
        assert!(after.propagation_rounds > before.propagation_rounds);
        assert_eq!(after.backtracks, before.backtracks);
    }

    #[test]
    fn check_at_matches_check() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let mut a = Solver::default();
        let mut b = Solver::default();
        let rec = statsym_telemetry::MemRecorder::new(statsym_telemetry::Clock::wall());
        let q = Partition::of(&ctx, &cs);
        assert_eq!(a.check(&ctx, &cs), b.check_at(&ctx, &q, &rec, "check"));
        // Identical work counters; only the traced solver accumulates
        // wall-clock query time, so normalize it out.
        assert_eq!(
            a.stats(),
            SolverStats {
                query_us: 0,
                ..b.stats()
            }
        );
        // Wall-clock trace captured the query latency.
        let h = rec
            .metrics()
            .hist(statsym_telemetry::names::SOLVER_QUERY_US)
            .expect("latency histogram present");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn query_time_is_not_truncated_per_query() {
        // Cache hits take well under a microsecond each, so the running
        // total must be kept below µs resolution to see them at all.
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Lt, x, c5)];
        let mut solver = Solver::with_config(SolverConfig {
            time_queries: true,
            ..SolverConfig::default()
        });
        assert!(solver.check_sat(&ctx, &cs).is_sat());
        let start = std::time::Instant::now();
        for _ in 0..10_000 {
            assert!(solver.check_sat(&ctx, &cs).is_sat());
        }
        let outside_us = start.elapsed().as_micros() as u64;
        assert_eq!(solver.stats().cache_hits, 10_000);
        let reported = solver.stats().query_us;
        assert!(
            reported * 10 >= outside_us,
            "query_us {reported} is under 10% of the loop's {outside_us} µs"
        );
    }

    #[test]
    fn traced_query_times_sum_to_query_us() {
        // Provenance `us` and both latency histograms record each
        // query's share of the ns-summed total, so 10 000 sub-µs cache
        // hits add up to exactly the reported `query_us`.
        use statsym_telemetry::{names, Clock, MemRecorder, TraceEvent};
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let query = Partition::of(&ctx, &[Constraint::new(CmpOp::Lt, x, c5)]);
        let mut solver = Solver::default();
        solver.set_provenance(1);
        let rec = MemRecorder::new(Clock::wall());
        for _ in 0..10_001 {
            assert!(solver
                .check_sat_at(&ctx, &query, &rec, "feasibility")
                .is_sat());
        }
        assert_eq!(solver.stats().cache_hits, 10_000);
        let total = solver.stats().query_us;
        assert!(total > 0, "10 000 queries take at least a µs");
        let hist_sum = |name: &str| rec.metrics().hist(name).expect("histogram").sum;
        assert_eq!(hist_sum(names::SOLVER_QUERY_US), total);
        assert_eq!(hist_sum("solver.site.feasibility.query_us"), total);
        let events = rec.finish();
        let query_us: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Query { us, .. } => Some(*us),
                _ => None,
            })
            .sum();
        assert_eq!(query_us, total);
    }

    #[test]
    fn shared_cache_answers_unsat_across_solvers() {
        use crate::cache::SharedCache;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let cs = [
            Constraint::new(CmpOp::Lt, x, c5),
            Constraint::new(CmpOp::Lt, c10, x),
        ];
        let shared: Rc<SharedCache> = Rc::new(SharedCache::new());
        let mut a = Solver::default();
        a.set_query_cache(shared.clone());
        assert_eq!(a.check(&ctx, &cs), SatResult::Unsat);
        assert_eq!(a.stats().shared_misses, 1);

        // A different solver over a *different* context with the same
        // structural constraints answers from the shared cache.
        let mut ctx2 = TermCtx::new();
        let x2 = ctx2.new_var("x", 0, 255);
        let c5b = ctx2.int(5);
        let c10b = ctx2.int(10);
        let cs2 = [
            Constraint::new(CmpOp::Lt, x2, c5b),
            Constraint::new(CmpOp::Lt, c10b, x2),
        ];
        let mut b = Solver::default();
        b.set_query_cache(shared.clone());
        assert_eq!(b.check(&ctx2, &cs2), SatResult::Unsat);
        assert_eq!(b.stats().shared_hits, 1);
        assert_eq!(b.stats().nodes, 0, "no local search on a shared hit");
    }

    #[test]
    fn shared_sat_hit_is_model_free_only() {
        use crate::cache::SharedCache;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let shared: Rc<SharedCache> = Rc::new(SharedCache::new());
        let mut a = Solver::default();
        a.set_query_cache(shared.clone());
        assert!(a.check_sat(&ctx, &cs).is_sat());

        // check_sat on another solver: answered from the shared cache.
        let mut b = Solver::default();
        b.set_query_cache(shared.clone());
        assert!(b.check_sat(&ctx, &cs).is_sat());
        assert_eq!(b.stats().shared_hits, 1);

        // check (model required) must NOT use the shared Sat verdict:
        // it solves locally and returns a real, verified model.
        let mut c = Solver::default();
        c.set_query_cache(shared);
        match c.check(&ctx, &cs) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(&ctx, &cs));
                assert_eq!(m.value_of(x, &ctx), Some(5));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(c.stats().shared_hits, 0);
        assert_eq!(c.stats().shared_misses, 1);
    }

    #[test]
    fn unknown_results_are_not_shared() {
        use crate::cache::SharedCache;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 2, 1_000_000_000);
        let y = ctx.new_var("y", 2, 1_000_000_000);
        let prod = ctx.mul(x, y);
        let target = ctx.int(999_999_937);
        let shared: Rc<SharedCache> = Rc::new(SharedCache::new());
        let mut solver = Solver::with_config(SolverConfig {
            max_nodes: 1,
            ..SolverConfig::default()
        });
        solver.set_query_cache(shared.clone());
        let r = solver.check(&ctx, &[Constraint::new(CmpOp::Eq, prod, target)]);
        assert_eq!(r, SatResult::Unknown);
        assert_eq!(shared.stats().entries, 0, "Unknown must not be published");
    }

    #[test]
    fn clone_copies_private_state_and_shares_the_memo() {
        use crate::cache::SharedCache;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let unsat_q = [
            Constraint::new(CmpOp::Lt, x, c5),
            Constraint::new(CmpOp::Lt, c10, x),
        ];
        let sat_q = [Constraint::new(CmpOp::Eq, x, c10)];
        let shared: Rc<SharedCache> = Rc::new(SharedCache::new());
        let mut original = Solver::default();
        original.set_query_cache(shared.clone());
        assert_eq!(original.check(&ctx, &unsat_q), SatResult::Unsat);

        // The clone starts from the original's private cache and stats.
        let mut copy = original.clone();
        assert_eq!(copy.stats(), original.stats());
        assert_eq!(copy.cache_len(), 1);
        assert_eq!(copy.check(&ctx, &unsat_q), SatResult::Unsat);
        assert_eq!(copy.stats().cache_hits, 1);
        assert_eq!(original.stats().cache_hits, 0, "stats are copied");

        // A verdict published through the clone hits from the original.
        assert!(copy.check_sat(&ctx, &sat_q).is_sat());
        assert_eq!(original.cache_len(), 1, "private caches are copied");
        assert!(original.check_sat(&ctx, &sat_q).is_sat());
        assert_eq!(original.stats().shared_hits, 1);
        assert_eq!(shared.stats().stores, 2);
    }

    #[test]
    fn check_sat_matches_check_verdicts_without_sharing() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let c20 = ctx.int(20);
        for cs in [
            vec![Constraint::new(CmpOp::Eq, x, c5)],
            vec![Constraint::new(CmpOp::Eq, x, c20)],
        ] {
            let mut a = Solver::default();
            let mut b = Solver::default();
            assert_eq!(a.check(&ctx, &cs).is_sat(), b.check_sat(&ctx, &cs).is_sat());
            assert_eq!(
                a.check(&ctx, &cs).is_unsat(),
                b.check_sat(&ctx, &cs).is_unsat()
            );
        }
    }

    #[test]
    fn slicing_decides_disjoint_components_and_merges_models() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let c5 = ctx.int(5);
        let c9 = ctx.int(9);
        let cs = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Eq, y, c9),
        ];
        let mut sliced = Solver::default();
        match sliced.check(&ctx, &cs) {
            SatResult::Sat(m) => {
                assert!(m.satisfies(&ctx, &cs));
                assert_eq!(m.value_of(x, &ctx), Some(5));
                assert_eq!(m.value_of(y, &ctx), Some(9));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        let s = sliced.stats();
        assert_eq!(s.indep_queries, 1);
        assert_eq!(s.indep_components, 2);
        assert_eq!(s.sat, 1, "the whole query counts once");
        assert_eq!(s.queries, 1);

        // A later query extending one component reuses the other's
        // cached component verdict.
        let c7 = ctx.int(7);
        let cs2 = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Lt, y, c7),
        ];
        sliced.check(&ctx, &cs2);
        assert_eq!(sliced.stats().indep_comp_hits, 1, "{:?}", sliced.stats());
    }

    #[test]
    fn verdict_only_queries_decide_components_and_build_no_model() {
        use crate::cache::SharedCache;
        use statsym_telemetry::NOOP;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let c5 = ctx.int(5);
        let c9 = ctx.int(9);
        let cs = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Eq, y, c9),
        ];
        let q = Partition::of(&ctx, &cs);
        assert_eq!(q.undecided().len(), 2);
        let memo: Rc<SharedCache> = Rc::new(SharedCache::new());
        let mut verdicts = Solver::default();
        verdicts.set_query_cache(memo.clone());
        let mut models = Solver::default();

        // A verdict-only Sat carries no model, and only the two
        // components are memoised (each with its model), not the whole
        // query a model query also stores.
        let first = verdicts.check_sat_at(&ctx, &q, &NOOP, "feasibility");
        assert_eq!(first, SatResult::Sat(Model::default()));
        assert!(models.check_at(&ctx, &q, &NOOP, "model").is_sat());
        assert_eq!((verdicts.cache_len(), models.cache_len()), (2, 3));
        let s = verdicts.stats();
        assert_eq!((s.indep_queries, s.indep_components), (1, 2));
        assert_eq!((s.shared_misses, s.cache_hits), (2, 0));

        // The run's memo holds each component's verdict.
        assert_eq!(memo.lookup(q.fingerprint()), None);
        for k in q.components() {
            assert_eq!(memo.lookup(k.fingerprint()), Some(CachedVerdict::Sat));
        }

        // A repeat of the unmarked query decides both components again,
        // from the private cache; once marked, nothing is left to look
        // up.
        assert!(verdicts
            .check_sat_at(&ctx, &q, &NOOP, "feasibility")
            .is_sat());
        assert_eq!(verdicts.stats().indep_comp_hits, 2);
        let mut decided = q.clone();
        decided.mark_decided();
        assert!(decided.undecided().is_empty());
        let before = verdicts.stats();
        assert!(verdicts
            .check_sat_at(&ctx, &decided, &NOOP, "feasibility")
            .is_sat());
        assert_eq!(
            verdicts.stats(),
            SolverStats {
                queries: before.queries + 1,
                sat: before.sat + 1,
                ..before
            }
        );

        // A model query rebuilds the model from the components'
        // memoised models, with no search, and ignores the marks.
        let nodes = verdicts.stats().nodes;
        match verdicts.check_at(&ctx, &decided, &NOOP, "model") {
            SatResult::Sat(m) => {
                assert!(m.satisfies(&ctx, &cs));
                assert_eq!(m.value_of(x, &ctx), Some(5));
                assert_eq!(m.value_of(y, &ctx), Some(9));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(verdicts.stats().nodes, nodes, "no new search nodes");
        assert_eq!(verdicts.cache_len(), 3);
    }

    #[test]
    fn component_verdicts_cross_solvers_through_the_shared_memo() {
        use crate::cache::SharedCache;
        use crate::partition::Segment;
        use statsym_telemetry::NOOP;
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let z = ctx.new_var("z", 0, 255);
        let (c5, c9) = (ctx.int(5), ctx.int(9));
        let q = Partition::of(
            &ctx,
            &[
                Constraint::new(CmpOp::Lt, x, c5),
                Constraint::new(CmpOp::Lt, c9, y),
            ],
        );
        let memo: Rc<SharedCache> = Rc::new(SharedCache::new());
        let mut a = Solver::default();
        a.set_query_cache(memo.clone());
        assert!(a.check_sat_at(&ctx, &q, &NOOP, "feasibility").is_sat());

        // Another engine's query extends both components and adds a
        // third: the two it shares come from the memo, only the new one
        // is searched.
        let q2 = q.with(&ctx, Segment::Hard, Constraint::new(CmpOp::Eq, z, c5));
        let mut b = Solver::default();
        b.set_query_cache(memo);
        assert!(b.check_sat_at(&ctx, &q2, &NOOP, "feasibility").is_sat());
        let s = b.stats();
        assert_eq!((s.shared_hits, s.shared_misses), (2, 1));
        assert_eq!(s.nodes, 1, "one node decides z == 5");
        assert_eq!(b.cache_len(), 1, "a shared Sat is not mirrored");
    }

    #[test]
    fn slicing_unsat_component_refutes_whole() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let cs = [
            Constraint::new(CmpOp::Eq, x, c5),
            Constraint::new(CmpOp::Lt, y, c5),
            Constraint::new(CmpOp::Lt, c10, y),
        ];
        let mut sliced = Solver::default();
        assert_eq!(sliced.check(&ctx, &cs), SatResult::Unsat);
        let s = sliced.stats();
        assert_eq!(s.indep_queries, 1);
        assert_eq!(s.indep_components, 2);
        assert_eq!(s.unsat, 1);
    }

    #[test]
    fn slicing_matches_whole_conjunction_search() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 255);
        let y = ctx.new_var("y", 0, 255);
        let z = ctx.new_var("z", -50, 50);
        let c5 = ctx.int(5);
        let c10 = ctx.int(10);
        let sum = ctx.add(x, y);
        let nz = ctx.neg(z);
        let queries: Vec<Vec<Constraint>> = vec![
            vec![
                Constraint::new(CmpOp::Lt, x, c10),
                Constraint::new(CmpOp::Eq, z, c5),
            ],
            vec![
                Constraint::new(CmpOp::Eq, sum, c10),
                Constraint::new(CmpOp::Lt, nz, c5),
            ],
            vec![
                Constraint::new(CmpOp::Lt, x, c5),
                Constraint::new(CmpOp::Lt, c10, x),
                Constraint::new(CmpOp::Eq, y, c5),
            ],
            vec![
                Constraint::new(CmpOp::Ne, x, c5),
                Constraint::new(CmpOp::Ne, y, c10),
                Constraint::new(CmpOp::Eq, z, c5),
            ],
        ];
        let mut solver = Solver::default();
        for cs in &queries {
            // The whole-conjunction search (the path `check` takes for
            // single-component queries) is the reference.
            let mut vars: Vec<VarId> = cs
                .iter()
                .flat_map(|c| [c.lhs, c.rhs])
                .flat_map(|t| ctx.vars_of(t).to_vec())
                .collect();
            vars.sort_unstable();
            vars.dedup();
            let want = Search {
                ctx: &ctx,
                constraints: cs,
                config: SolverConfig::default(),
                nodes: 0,
                rounds: 0,
                backtracks: 0,
                budget_hit: false,
            }
            .run(&vars);
            let got = solver.check(&ctx, cs);
            assert_eq!(want.is_sat(), got.is_sat(), "{cs:?}");
            assert_eq!(want.is_unsat(), got.is_unsat(), "{cs:?}");
            if let SatResult::Sat(m) = &got {
                assert!(m.satisfies(&ctx, cs), "sliced model must verify: {cs:?}");
            }
        }
        assert_eq!(solver.stats().indep_queries, 4, "every query splits");
    }

    #[test]
    fn provenance_events_carry_disposition_and_context() {
        use statsym_telemetry::{Clock, MemRecorder, TraceEvent};
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let c5 = ctx.int(5);
        let cs = [Constraint::new(CmpOp::Eq, x, c5)];
        let q = Partition::of(&ctx, &cs);
        let rec = MemRecorder::new(Clock::steps());
        let mut solver = Solver::default();
        solver.set_provenance(2);
        solver.set_query_origin(7, "convert:4");
        solver.check_at(&ctx, &q, &rec, "feasibility");
        solver.check_at(&ctx, &q, &rec, "feasibility");
        solver.check_at(&ctx, &Partition::of(&ctx, &[]), &rec, "check");
        let queries: Vec<_> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Query {
                    sid,
                    loc,
                    rank,
                    site,
                    verdict,
                    cache,
                    us,
                    ..
                } => Some((sid, loc, rank, site, verdict, cache, us)),
                _ => None,
            })
            .collect();
        assert_eq!(queries.len(), 3);
        assert_eq!(
            queries[0],
            (
                7,
                "convert:4".to_string(),
                2,
                "feasibility".to_string(),
                "sat".to_string(),
                "search".to_string(),
                0, // µs zeroed under the deterministic step clock
            )
        );
        assert_eq!(queries[1].5, "private");
        assert_eq!(queries[2].3, "check", "the callsite tag is carried");
        assert_eq!(queries[2].5, "empty");
        // Every emitted line survives the strict parser.
        for ev in rec.events() {
            let line = ev.to_json_line();
            statsym_telemetry::parse_trace_strict(&line).unwrap_or_else(|e| {
                panic!("strict parse failed for {line}: {e}");
            });
        }

        // Without set_provenance, no query events are emitted.
        let rec2 = MemRecorder::new(Clock::steps());
        let mut plain = Solver::default();
        plain.check_at(&ctx, &q, &rec2, "feasibility");
        assert!(rec2
            .events()
            .iter()
            .all(|e| !matches!(e, TraceEvent::Query { .. })));
    }

    #[test]
    fn floor_ceil_div_helpers() {
        assert_eq!(floor_div(7, 2), 3);
        assert_eq!(floor_div(-7, 2), -4);
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(floor_div(6, 3), 2);
        assert_eq!(ceil_div(6, 3), 2);
        assert_eq!(floor_div(7, -2), -4);
        assert_eq!(ceil_div(-7, -2), 4);
    }
}
