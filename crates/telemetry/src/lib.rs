//! Structured telemetry for the StatSym pipeline.
//!
//! This crate is std-only (zero dependencies) and single-threaded by
//! design, matching the determinism guarantees in DESIGN.md §5. It
//! provides the three pieces the rest of the workspace instruments
//! against:
//!
//! 1. [`Recorder`] — a span + event sink passed by reference down the
//!    stack, with [`NoopRecorder`] (near-zero overhead), [`MemRecorder`]
//!    (in-memory), and [`FileRecorder`] (streaming JSONL, one event per
//!    line) implementations.
//! 2. [`Metrics`] — named counters, max-gauges, and log₂-bucketed
//!    histograms, dumped deterministically at trace end.
//! 3. [`Clock`] — wall-clock or step-count timestamps; under the
//!    step-count clock, same seed ⇒ byte-identical trace files.
//!
//! [`TraceSummary`] turns a parsed trace back into the Table II/III
//! style per-phase run report.

#![warn(missing_docs)]

mod clock;
pub mod crash;
mod event;
pub mod manifest;
mod metrics;
mod recorder;
mod report;

pub use clock::{Clock, ClockMode};
pub use event::json;
pub use event::{
    lineage_op, parse_trace_strict, parse_trace_truncated, push_json_str, query_disposition,
    render_trace, FieldValue, ParseError, SpanId, TraceEvent,
};
pub use metrics::{bucket_of, Hist, Metrics, HIST_BUCKETS};
pub use recorder::{
    FileRecorder, LineageEvent, MemRecorder, NoopRecorder, QueryEvent, Recorder, SharedBuf, Span,
    NOOP, TRACE_VERSION,
};
pub use report::{
    render_calib_table, spearman_milli, split_runs, CalibCandidate, HistStat, SpanStat,
    TraceSummary, REPORT_KIND, REPORT_SCHEMA_VERSION,
};

/// Well-known span and metric names used across the workspace, kept in
/// one place so emitters and report readers cannot drift apart.
pub mod names {
    /// Whole-pipeline analysis span (`StatSym::analyze`).
    pub const PIPELINE_ANALYZE: &str = "pipeline.analyze";
    /// Whole-pipeline guided symbolic execution span.
    pub const PIPELINE_SYMEX: &str = "pipeline.symex";
    /// Log preprocessing phase (corpus build).
    pub const PHASE_LOG_PREPROCESS: &str = "phase.log_preprocess";
    /// Predicate construction phase (Eq. 1 threshold filter).
    pub const PHASE_PREDICATE_CONSTRUCT: &str = "phase.predicate_construct";
    /// Confidence scoring / ranking phase (Eq. 2).
    pub const PHASE_CONFIDENCE_RANK: &str = "phase.confidence_rank";
    /// Predicates constructed and ranked by the analysis stage.
    pub const PIPELINE_PREDICATES_BUILT: &str = "pipeline.predicates_built";
    /// Transition mining phase (Eq. 3).
    pub const PHASE_TRANSITION_MINING: &str = "phase.transition_mining";
    /// Skeleton construction phase.
    pub const PHASE_SKELETON: &str = "phase.skeleton";
    /// Detour discovery phase.
    pub const PHASE_DETOURS: &str = "phase.detours";
    /// Candidate path enumeration phase.
    pub const PHASE_CANDIDATES: &str = "phase.candidates";
    /// One guided symex attempt over one candidate path.
    pub const CANDIDATE_ATTEMPT: &str = "candidate.attempt";
    /// Per-candidate outcome event.
    pub const CANDIDATE_RESULT: &str = "candidate.result";
    /// Candidate-path node coverage event (lineage tracing only): the
    /// guidance hook matched node `node` of the candidate path at `loc`
    /// and conjoined `conj` predicates, with `outcome` `ok`, `conflict`
    /// (state suspended on an infeasible injected predicate), or `kill`
    /// (state died on its hard constraints at injection).
    pub const CANDIDATE_NODE: &str = "candidate.node";
    /// One `Engine::run` invocation.
    pub const ENGINE_RUN: &str = "engine.run";
    /// Engine outcome event.
    pub const ENGINE_OUTCOME: &str = "engine.outcome";

    /// Executor steps.
    pub const SYMEX_STEPS: &str = "symex.steps";
    /// State forks.
    pub const SYMEX_FORKS: &str = "symex.forks";
    /// States pruned as infeasible.
    pub const SYMEX_PRUNED: &str = "symex.pruned";
    /// States suspended (all causes).
    pub const SYMEX_SUSPENDED: &str = "symex.suspended";
    /// Concretizations performed.
    pub const SYMEX_CONCRETIZATIONS: &str = "symex.concretizations";
    /// strlen fan-out forks.
    pub const SYMEX_STRLEN_FORKS: &str = "symex.strlen_forks";
    /// Paths run to completion.
    pub const SYMEX_PATHS_COMPLETED: &str = "symex.paths_completed";
    /// Paths explored (completed + in flight at exit).
    pub const SYMEX_PATHS_EXPLORED: &str = "symex.paths_explored";
    /// Total states ever created.
    pub const SYMEX_STATES_CREATED: &str = "symex.states_created";
    /// Scheduler pops.
    pub const SYMEX_SCHED_PICKS: &str = "symex.sched_picks";
    /// Suspensions due to the τ hop budget.
    pub const SYMEX_SUSPEND_TAU: &str = "symex.suspend.tau";
    /// Suspensions due to an infeasible injected (soft) predicate.
    pub const SYMEX_SUSPEND_PREDICATE: &str = "symex.suspend.predicate_conflict";
    /// Fork children born suspended by guidance classification.
    pub const SYMEX_SUSPEND_BRANCH: &str = "symex.suspend.branch";
    /// States resumed from the suspended pool.
    pub const SYMEX_RESUME: &str = "symex.resume";
    /// States killed outright.
    pub const SYMEX_KILL: &str = "symex.kill";
    /// Faulting paths dropped because the solver budget ran out before a
    /// triggering model could be confirmed.
    pub const SYMEX_UNCONFIRMED: &str = "symex.unconfirmed_faults";
    /// States left suspended when the run ended.
    pub const SYMEX_LEFT_SUSPENDED: &str = "symex.left_suspended";
    /// Peak number of live (schedulable + suspended) states.
    pub const SYMEX_PEAK_LIVE_STATES: &str = "symex.peak_live_states";
    /// Peak estimated memory footprint in bytes.
    pub const SYMEX_PEAK_MEMORY: &str = "symex.peak_memory_bytes";
    /// Distribution of hop counts at suspension (divergence from the
    /// candidate path).
    pub const SYMEX_HOP_DIVERGENCE: &str = "symex.hop_divergence";

    /// Solver queries issued.
    pub const SOLVER_QUERIES: &str = "solver.queries";
    /// SAT verdicts.
    pub const SOLVER_SAT: &str = "solver.sat";
    /// UNSAT verdicts.
    pub const SOLVER_UNSAT: &str = "solver.unsat";
    /// Unknown verdicts (budget exhausted).
    pub const SOLVER_UNKNOWN: &str = "solver.unknown";
    /// Private (per-solver) query cache hits.
    pub const SOLVER_CACHE_HITS: &str = "solver.cache_hits";
    /// Queries answered by the cross-engine shared verdict cache.
    pub const SOLVER_SHARED_HITS: &str = "solver.shared_hits";
    /// Shared-cache consultations that did not answer the query.
    pub const SOLVER_SHARED_MISSES: &str = "solver.shared_misses";
    /// Search-tree nodes visited.
    pub const SOLVER_NODES: &str = "solver.nodes";
    /// HC4 propagation iterations.
    pub const SOLVER_PROPAGATION_ROUNDS: &str = "solver.propagation_rounds";
    /// Backtracks taken in the interval search.
    pub const SOLVER_BACKTRACKS: &str = "solver.backtracks";
    /// Per-query latency histogram (wall-clock traces only).
    pub const SOLVER_QUERY_US: &str = "solver.query_us";
    /// Queries independence slicing split into ≥ 2 components.
    pub const SOLVER_INDEP_QUERIES: &str = "solver.indep.queries";
    /// Total components produced across sliced queries.
    pub const SOLVER_INDEP_COMPONENTS: &str = "solver.indep.components";
    /// Sliced components answered from the private cache.
    pub const SOLVER_INDEP_COMP_HITS: &str = "solver.indep.component_hits";
    /// Prefix for per-callsite solver profiles: the engine tags each
    /// query with the site that issued it (`feasibility`, `concretize`,
    /// `fault_model`, `report_model`), and the solver emits
    /// `solver.site.<site>.queries`, `.nodes`, and a `.query_us`
    /// latency histogram under this prefix. `statsym-inspect report`
    /// renders them as its solver-callsites section.
    pub const SOLVER_SITE_PREFIX: &str = "solver.site.";

    /// Monitor records kept at sampling rate p.
    pub const MONITOR_SAMPLED: &str = "monitor.records_sampled";
    /// Monitor records dropped at sampling rate p.
    pub const MONITOR_DROPPED: &str = "monitor.records_dropped";

    /// Counter: runs cut by the engine's step cap or wall-clock budget
    /// with a state in flight (narrated by the `budget_exceeded`
    /// lineage op).
    pub const BUDGET_EXCEEDED: &str = "budget.exceeded";

    /// Prefix for source-level cost attribution counters: with
    /// `EngineConfig.attribution` on, both executors bill every step,
    /// fork, suspension, and solver query to the MiniC source line that
    /// caused it and emit `attr.<function>:<line>.<dim>` counters, where
    /// `<dim>` is one of `steps`, `forks`, `suspends`, `queries`,
    /// `nodes`, or (wall-clock traces only) `us`. `statsym-inspect
    /// hotspots` renders them as the per-line cost table.
    pub const ATTR_PREFIX: &str = "attr.";
    /// Attribution dimension suffixes, in the column order viewers and
    /// the JSON report print them.
    pub const ATTR_DIMS: [&str; 6] = ["steps", "forks", "suspends", "queries", "nodes", "us"];
    /// Event: one per-candidate ranking-calibration record (fields:
    /// `rank`, `score_milli`, `path_len`, `steps`, `forks`, `snodes`,
    /// `found`, plus `solver_us` under a wall clock).
    pub const CALIB_CANDIDATE: &str = "calib.candidate";
    /// Gauge: rank of the winning candidate (max-folded across runs in
    /// one trace).
    pub const CALIB_WINNER_RANK: &str = "calib.winner_rank";
    /// Gauge: Spearman rank-vs-cost correlation in per-mille (−1000 ..
    /// 1000) between predicted candidate rank and actual attempt cost;
    /// only emitted for runs with ≥ 2 attempts. Max-folded across runs;
    /// `statsym-inspect calib` recomputes per-run values from the
    /// `calib.candidate` events when gating.
    pub const CALIB_RANK_COST_CORR: &str = "calib.rank_cost_corr_milli";
}
