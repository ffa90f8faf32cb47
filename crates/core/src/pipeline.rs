//! The end-to-end StatSym pipeline (paper Figure 3 / Figure 5):
//! sampled logs → predicates → candidate paths → guided symbolic
//! execution, iterating candidates until the vulnerable path is
//! verified.

use crate::candidate::{CandidateConfig, CandidatePath, CandidateSet};
use crate::corpus::LogCorpus;
use crate::detour::{find_detours, DetourConfig};
use crate::guidance::GuidanceConfig;
use crate::portfolio::{PortfolioOutcome, Run};
use crate::predicate::PredicateSet;
use crate::skeleton::{Skeleton, SkeletonConfig};
use crate::transition::{MineConfig, TransitionGraph};
use concrete::{ExecutionLog, Location};
use sir::Module;
use solver::{QueryCache, SharedCache, SharedCacheStats};
use statsym_telemetry::{names, spearman_milli, Recorder, Span, NOOP};
use std::sync::Arc;
use std::time::Duration;
use symex::{EngineConfig, EngineStats, FoundVulnerability, SchedulerKind};

/// Configuration for the whole pipeline.
#[derive(Debug, Clone, Copy)]
pub struct StatSymConfig {
    /// Transition mining thresholds (Eq. 3).
    pub mine: MineConfig,
    /// Skeleton search limits.
    pub skeleton: SkeletonConfig,
    /// Detour search parameters.
    pub detour: DetourConfig,
    /// Candidate generation parameters.
    pub candidate: CandidateConfig,
    /// Guidance parameters (τ, lookahead).
    pub guidance: GuidanceConfig,
    /// Per-candidate symbolic execution budget. The scheduler is forced
    /// to [`SchedulerKind::Priority`]; `time_budget` plays the role of
    /// the paper's 15-minute per-candidate timeout.
    pub engine: EngineConfig,
    /// Retired: nothing reads it (the candidate loop runs on the
    /// caller's thread), and the run-manifest config fingerprint zeroes
    /// it. It is kept only because the e2ebench workload table
    /// (`e2ebench/src/workloads.rs`) still assigns it, and will be
    /// deleted together with that assignment in the next change to the
    /// benchmark.
    pub workers: usize,
}

impl Default for StatSymConfig {
    fn default() -> Self {
        StatSymConfig {
            mine: MineConfig::default(),
            skeleton: SkeletonConfig::default(),
            detour: DetourConfig::default(),
            candidate: CandidateConfig::default(),
            guidance: GuidanceConfig::default(),
            engine: EngineConfig {
                scheduler: SchedulerKind::Priority,
                time_budget: Some(Duration::from_secs(900)),
                ..EngineConfig::default()
            },
            workers: 1,
        }
    }
}

/// Content fingerprint of a pipeline configuration for run manifests.
///
/// The retired fields `workers` and `EngineConfig::state_workers` are
/// canonicalized before hashing: nothing reads them, so a run carries
/// the same fingerprint whatever they hold. Semantic knobs —
/// thresholds, budgets, chaos injection — all perturb the fingerprint.
pub fn config_fingerprint(config: &StatSymConfig) -> String {
    let mut canon = *config;
    canon.workers = 1;
    canon.engine.state_workers = 0;
    statsym_telemetry::manifest::fnv64_hex(format!("{canon:?}").as_bytes())
}

/// Output of the statistical analysis module (stages 1–3).
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Usable correct runs.
    pub n_correct: usize,
    /// Usable faulty runs.
    pub n_faulty: usize,
    /// Ranked predicates (Table V).
    pub predicates: PredicateSet,
    /// Mined transition graph.
    pub graph: TransitionGraph,
    /// Candidate paths, skeleton, detours (Figures 7/9, Tables II/III).
    pub candidates: Option<CandidateSet>,
    /// Inferred failure point.
    pub failure_location: Option<Location>,
    /// Wall-clock time of statistical analysis (Tables II/III).
    pub analysis_time: Duration,
}

impl AnalysisReport {
    /// Number of detours found (Tables II/III).
    pub fn n_detours(&self) -> usize {
        self.candidates.as_ref().map_or(0, |c| c.detours.len())
    }

    /// Number of candidate paths (Figure 7).
    pub fn n_candidates(&self) -> usize {
        self.candidates.as_ref().map_or(0, |c| c.paths.len())
    }
}

/// One guided symbolic execution attempt on one candidate path.
#[derive(Debug, Clone)]
pub struct CandidateAttempt {
    /// Candidate index (rank order).
    pub index: usize,
    /// Candidate length in nodes.
    pub path_len: usize,
    /// Whether the vulnerable path was verified on this candidate.
    pub found: bool,
    /// Wall-clock time of the attempt.
    pub wall_time: Duration,
    /// Engine counters for the attempt.
    pub stats: EngineStats,
}

/// The full pipeline report.
#[derive(Debug)]
pub struct StatSymReport {
    /// Statistical analysis results.
    pub analysis: AnalysisReport,
    /// Guided execution attempts, in candidate order.
    pub attempts: Vec<CandidateAttempt>,
    /// The verified vulnerable path, if found.
    pub found: Option<FoundVulnerability>,
    /// Index of the successful candidate.
    pub candidate_used: Option<usize>,
    /// Verdict-memo counters for the guided stage (all zero when the run
    /// had no memo: a lone candidate has nothing to share it with).
    pub cache: SharedCacheStats,
    /// Total guided symbolic execution time (Tables II/III).
    pub symex_time: Duration,
}

impl StatSymReport {
    /// Total wall-clock time: statistical analysis + symbolic execution
    /// (Table IV).
    pub fn total_time(&self) -> Duration {
        self.analysis.analysis_time + self.symex_time
    }

    /// Total paths explored across attempts (Table IV).
    pub fn total_paths_explored(&self) -> u64 {
        self.attempts.iter().map(|a| a.stats.paths_explored).sum()
    }
}

/// The StatSym framework.
#[derive(Debug, Clone, Default)]
pub struct StatSym {
    config: StatSymConfig,
}

impl StatSym {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: StatSymConfig) -> StatSym {
        StatSym { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &StatSymConfig {
        &self.config
    }

    /// Runs the statistical analysis module only (stages 1–3).
    pub fn analyze(&self, logs: &[ExecutionLog]) -> AnalysisReport {
        self.analyze_traced(logs, &NOOP)
    }

    /// Like [`StatSym::analyze`] with a telemetry recorder: each stage
    /// (log preprocessing, predicate construction, transition mining,
    /// skeleton/detour/candidate search) runs under its own span.
    /// `analysis_time` is the wall-clock duration of the outer span.
    pub fn analyze_traced(&self, logs: &[ExecutionLog], rec: &dyn Recorder) -> AnalysisReport {
        let outer = Span::start(rec, names::PIPELINE_ANALYZE);

        let sp = Span::start(rec, names::PHASE_LOG_PREPROCESS);
        let corpus = LogCorpus::build(logs);
        let _ = sp.finish();

        let predicates = PredicateSet::build_traced(&corpus, rec);

        // Mine faulty traces (paper §V-B); fall back to the full corpus
        // when sparse sampling disconnects the graph.
        let sp = Span::start(rec, names::PHASE_TRANSITION_MINING);
        let graph = TransitionGraph::mine(corpus.faulty_traces.iter(), self.config.mine);
        let _ = sp.finish();
        let failure_location = corpus.failure_location.clone();

        let candidates = failure_location.as_ref().and_then(|failure| {
            // Skeleton: best-scoring among the BFS-shortest entry→failure
            // paths (§VI-B). Falls back to a graph including correct
            // traces when heavy sampling disconnects the faulty graph.
            let sp = Span::start(rec, names::PHASE_SKELETON);
            let skeleton = Skeleton::build(&graph, &predicates, failure, self.config.skeleton)
                .or_else(|| {
                    let full = TransitionGraph::mine(
                        corpus.faulty_traces.iter().chain(&corpus.correct_traces),
                        self.config.mine,
                    );
                    Skeleton::build(&full, &predicates, failure, self.config.skeleton)
                });
            let _ = sp.finish();
            let skeleton = skeleton?;
            let sp = Span::start(rec, names::PHASE_DETOURS);
            let detours = find_detours(&graph, &predicates, &skeleton, self.config.detour);
            let _ = sp.finish();
            let sp = Span::start(rec, names::PHASE_CANDIDATES);
            let set = CandidateSet::build(skeleton, detours, &predicates, self.config.candidate);
            let _ = sp.finish();
            Some(set)
        });

        AnalysisReport {
            n_correct: corpus.n_correct,
            n_faulty: corpus.n_faulty,
            predicates,
            graph,
            candidates,
            failure_location,
            analysis_time: outer.finish(),
        }
    }

    /// Runs the full pipeline: analysis, then statistics-guided symbolic
    /// execution over ranked candidate paths until a vulnerable path is
    /// verified (Figure 5 step (e)).
    pub fn run(&self, module: &Module, logs: &[ExecutionLog]) -> StatSymReport {
        self.run_traced(module, logs, &NOOP)
    }

    /// Like [`StatSym::run`] with a telemetry recorder threaded through
    /// the whole pipeline, including each per-candidate engine run.
    pub fn run_traced(
        &self,
        module: &Module,
        logs: &[ExecutionLog],
        rec: &dyn Recorder,
    ) -> StatSymReport {
        let analysis = self.analyze_traced(logs, rec);
        self.run_with_analysis_traced(module, analysis, rec)
    }

    /// Runs guided symbolic execution from a precomputed analysis.
    pub fn run_with_analysis(&self, module: &Module, analysis: AnalysisReport) -> StatSymReport {
        self.run_with_analysis_traced(module, analysis, &NOOP)
    }

    /// Like [`StatSym::run_with_analysis`] with a telemetry recorder:
    /// each candidate attempt runs under a `candidate.attempt` span and
    /// reports a `candidate.result` event. `symex_time` is the
    /// wall-clock duration of the outer `pipeline.symex` span.
    pub fn run_with_analysis_traced(
        &self,
        module: &Module,
        analysis: AnalysisReport,
        rec: &dyn Recorder,
    ) -> StatSymReport {
        self.run_with_analysis_pinned_traced(module, analysis, &concrete::InputMap::new(), rec)
    }

    /// Like [`StatSym::run_with_analysis_traced`] but pins the given
    /// inputs to their concrete values on every candidate attempt (the
    /// paper configures required program options for both engines).
    pub fn run_with_analysis_pinned_traced(
        &self,
        module: &Module,
        analysis: AnalysisReport,
        pins: &concrete::InputMap,
        rec: &dyn Recorder,
    ) -> StatSymReport {
        self.run_candidates(module, analysis, pins, &[], rec)
    }

    /// The guided stage behind every `run_*` entry point: the candidate
    /// loop under a `pipeline.symex` span, with `suppressed` fault sites
    /// (function, span) treated as ordinary path ends in every engine.
    pub(crate) fn run_candidates(
        &self,
        module: &Module,
        analysis: AnalysisReport,
        pins: &concrete::InputMap,
        suppressed: &[(String, minic::Span)],
        rec: &dyn Recorder,
    ) -> StatSymReport {
        let outer = Span::start(rec, names::PIPELINE_SYMEX);

        // Borrow the ranked candidates in place; only the path actually
        // attempted is cloned (into its GuidedHook), never the full list.
        let paths: &[CandidatePath] = analysis
            .candidates
            .as_ref()
            .map_or(&[][..], |c| c.paths.as_slice());

        // One verdict memo per run, filled by every attempt in rank
        // order. A lone candidate has nothing to share it with.
        let memo = (paths.len() > 1)
            .then(|| Arc::new(SharedCache::new()) as Arc<dyn QueryCache + Send + Sync>);
        let PortfolioOutcome {
            attempts,
            found,
            candidate_used,
            cache,
        } = Run {
            module,
            paths,
            config: &self.config,
            pins,
            suppressed,
            memo,
        }
        .execute(rec);

        // Ranking-calibration gauges, derived from the attempts: which
        // rank won, and how well rank order predicted step cost.
        if rec.enabled() {
            if let Some(w) = candidate_used {
                rec.gauge_max(names::CALIB_WINNER_RANK, w as i64 + 1);
            }
            let costs: Vec<u64> = attempts.iter().map(|a| a.stats.exec.steps).collect();
            if let Some(corr) = spearman_milli(&costs) {
                rec.gauge_max(names::CALIB_RANK_COST_CORR, corr);
            }
        }

        StatSymReport {
            analysis,
            attempts,
            found,
            candidate_used,
            cache,
            symex_time: outer.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{run_logged, InputMap, InputValue};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use symex::Engine;

    /// A miniature polymorph: option handling noise plus an unchecked
    /// copy of a string input into a fixed 6-byte stack buffer.
    const SRC: &str = r#"
        global track: int = 0;
        fn helper_a(x: int) -> int { track = track + 1; return x + 1; }
        fn helper_b(x: int) -> int { track = track + 2; return x * 2; }
        fn convert(s: str) {
            let b: buf[6];
            let i: int = 0;
            while (char_at(s, i) != 0) {
                buf_set(b, i, char_at(s, i));
                i = i + 1;
            }
        }
        fn main() {
            let m: int = input_int("mode");
            let s: str = input_str("name", 12);
            if (m > 0) { print(helper_a(m)); } else { print(helper_b(m)); }
            convert(s);
        }
    "#;

    #[test]
    fn config_fingerprint_ignores_scheduling_but_not_semantics() {
        let base = StatSymConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp.len(), 16, "fnv64 hex digest");

        // Retired knobs: fingerprint-invariant.
        let mut scaled = base;
        scaled.workers = 8;
        scaled.engine.state_workers = 4;
        assert_eq!(config_fingerprint(&scaled), fp);

        // Semantic knobs: each changes the fingerprint.
        let mut budget = base;
        budget.engine.max_steps = 12_345;
        assert_ne!(config_fingerprint(&budget), fp);
        let mut chaos = base;
        chaos.engine.panic_after = Some(10);
        assert_ne!(config_fingerprint(&chaos), fp);
    }

    fn module() -> Module {
        sir::lower(&minic::parse_program(SRC).unwrap()).unwrap()
    }

    fn gen_logs(module: &Module, n_each: usize, sampling: f64, seed: u64) -> Vec<ExecutionLog> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut logs = Vec::new();
        let mut n_correct = 0;
        let mut n_faulty = 0;
        let mut attempt = 0u64;
        while (n_correct < n_each || n_faulty < n_each) && attempt < 10_000 {
            attempt += 1;
            let want_faulty = n_faulty < n_each && (n_correct >= n_each || rng.random_bool(0.5));
            let len = if want_faulty {
                rng.random_range(7..=12)
            } else {
                rng.random_range(0..=6)
            };
            let name: Vec<u8> = (0..len).map(|_| rng.random_range(b'a'..=b'z')).collect();
            let mode = rng.random_range(-5..=5);
            let inputs: InputMap = [
                ("mode".to_string(), InputValue::Int(mode)),
                ("name".to_string(), InputValue::Str(name)),
            ]
            .into_iter()
            .collect();
            let run = run_logged(module, &inputs, sampling, seed ^ attempt).unwrap();
            if run.log.is_faulty() {
                if n_faulty < n_each {
                    n_faulty += 1;
                    logs.push(run.log);
                }
            } else if n_correct < n_each {
                n_correct += 1;
                logs.push(run.log);
            }
        }
        logs
    }

    #[test]
    fn analysis_finds_length_predicate_and_failure_point() {
        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 42);
        let statsym = StatSym::default();
        let analysis = statsym.analyze(&logs);
        assert_eq!(analysis.n_correct, 30);
        assert_eq!(analysis.n_faulty, 30);
        assert_eq!(analysis.failure_location, Some(Location::enter("convert")));
        // The top supported predicate bounds len(s FUNCPARAM) around 6.5.
        let top = analysis
            .predicates
            .ranked
            .iter()
            .find(|p| !p.is_degenerate())
            .expect("supported predicate");
        assert!(
            top.render().contains("len(s FUNCPARAM)"),
            "{}",
            top.render()
        );
        assert!(
            top.threshold > 6.0 && top.threshold < 7.0,
            "{}",
            top.threshold
        );
        assert!(analysis.candidates.is_some());
    }

    #[test]
    fn full_pipeline_discovers_vulnerable_path_and_input() {
        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 7);
        let statsym = StatSym::default();
        let report = statsym.run(&m, &logs);
        let found = report.found.as_ref().expect("vulnerable path found");
        assert_eq!(found.fault.func, "convert");
        assert!(matches!(
            found.fault.kind,
            concrete::FaultKind::BufferOverflow { cap: 6, .. }
        ));
        // Replay the generated input on the concrete VM.
        let vm = concrete::Vm::new(&m, concrete::VmConfig::default());
        let replay = vm.run(&found.inputs).unwrap();
        assert!(replay.outcome.is_fault());
        assert_eq!(report.candidate_used, Some(0), "first candidate suffices");
        assert!(report.total_time() >= report.symex_time);
    }

    #[test]
    fn pipeline_works_under_partial_sampling() {
        let m = module();
        let logs = gen_logs(&m, 40, 0.5, 99);
        let statsym = StatSym::default();
        let report = statsym.run(&m, &logs);
        assert!(
            report.found.is_some(),
            "found nothing; attempts: {:?}",
            report
                .attempts
                .iter()
                .map(|a| (a.index, a.found))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn guided_explores_fewer_paths_than_pure_bfs() {
        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 3);
        let statsym = StatSym::default();
        let report = statsym.run(&m, &logs);
        assert!(report.found.is_some());
        let guided_paths = report.total_paths_explored();

        let mut pure = Engine::new(&m, EngineConfig::default());
        let pure_report = pure.run();
        assert!(pure_report.outcome.is_found());
        assert!(
            guided_paths <= pure_report.stats.paths_explored,
            "guided {} vs pure {}",
            guided_paths,
            pure_report.stats.paths_explored
        );
    }

    /// A decoy candidate whose single node injects a structurally
    /// unsatisfiable predicate at the fault function's entry: every state
    /// reaching `convert` is suspended, and the resumed guidance-off
    /// search needs more steps than the real candidate's guided run
    /// (measured: 102 vs 91 on this fixture), so under a budget between
    /// the two the decoy deterministically exhausts without finding.
    fn decoy_candidate() -> CandidatePath {
        use crate::candidate::PathNode;
        use crate::predicate::{PredOp, Predicate};
        use concrete::{Measure, VarId, VarRole};
        CandidatePath {
            nodes: vec![PathNode {
                loc: Location::enter("convert"),
                predicates: vec![Predicate {
                    loc: Location::enter("convert"),
                    var: VarId::new("track", VarRole::Global, Measure::Value),
                    op: PredOp::Gt,
                    threshold: 1e9,
                    score: 1.0,
                    support: 5,
                }],
            }],
            score: 9.0,
        }
    }

    /// Asserts two reports carry the exact same result and per-attempt
    /// metadata. Wall times and solver *work* counters (search nodes,
    /// cache hits, peak memory) are legitimately different — memoized
    /// verdicts skip local search — but everything exploration-visible
    /// must match.
    fn assert_same_exploration(a: &StatSymReport, b: &StatSymReport, label: &str) {
        assert_eq!(b.candidate_used, a.candidate_used, "{label}");
        match (&a.found, &b.found) {
            (None, None) => {}
            (Some(s), Some(p)) => {
                assert_eq!(p.fault, s.fault, "{label}");
                assert_eq!(p.inputs, s.inputs, "{label}");
                assert_eq!(p.trace, s.trace, "{label}");
                assert_eq!(p.rendered_constraints, s.rendered_constraints, "{label}");
                assert_eq!(p.depth, s.depth, "{label}");
            }
            (s, p) => panic!("{label}: found mismatch: {s:?} vs {p:?}"),
        }
        assert_eq!(b.attempts.len(), a.attempts.len(), "{label}");
        for (p, s) in b.attempts.iter().zip(&a.attempts) {
            let at = format!("{label}, attempt {}", s.index);
            assert_eq!(p.index, s.index, "{at}");
            assert_eq!(p.path_len, s.path_len, "{at}");
            assert_eq!(p.found, s.found, "{at}");
            assert_eq!(p.stats.exec, s.stats.exec, "{at}");
            assert_eq!(p.stats.paths_completed, s.stats.paths_completed, "{at}");
            assert_eq!(p.stats.paths_explored, s.stats.paths_explored, "{at}");
            assert_eq!(p.stats.states_created, s.stats.states_created, "{at}");
            assert_eq!(p.stats.left_suspended, s.stats.left_suspended, "{at}");
            assert_eq!(p.stats.peak_live_states, s.stats.peak_live_states, "{at}");
            assert_eq!(p.stats.solver.queries, s.stats.solver.queries, "{at}");
            assert_eq!(p.stats.solver.sat, s.stats.solver.sat, "{at}");
            assert_eq!(p.stats.solver.unsat, s.stats.solver.unsat, "{at}");
            assert_eq!(p.stats.solver.unknown, s.stats.solver.unknown, "{at}");
        }
    }

    #[test]
    fn late_ranked_winner_follows_exhausted_decoys() {
        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 7);
        let mut analysis = StatSym::default().analyze(&logs);
        let cs = analysis.candidates.as_mut().unwrap();
        cs.paths.insert(0, decoy_candidate());
        cs.paths.insert(0, decoy_candidate());

        // Between the guided run's 91 steps and the decoys' 102: decoys
        // exhaust, the real candidate (rank 2) finds.
        let base = StatSymConfig::default();
        let cfg = StatSymConfig {
            engine: EngineConfig {
                max_steps: 95,
                ..base.engine
            },
            ..base
        };

        let report = StatSym::new(cfg).run_with_analysis(&m, analysis);
        assert_eq!(report.candidate_used, Some(2), "decoys must not win");
        assert_eq!(report.attempts.len(), 3);
        assert!(!report.attempts[0].found && !report.attempts[1].found);
        assert!(report.attempts[2].found);
    }

    #[test]
    fn lineage_traces_are_valid_forests_and_stay_deterministic() {
        use statsym_telemetry::{parse_trace_strict, render_trace, Clock, MemRecorder};

        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 7);
        let base = StatSymConfig::default();
        let cfg = StatSymConfig {
            engine: EngineConfig {
                lineage: true,
                ..base.engine
            },
            ..base
        };
        let analysis = StatSym::new(cfg).analyze(&logs);
        let record = || {
            let rec = MemRecorder::new(Clock::steps());
            let _ = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
            render_trace(&rec.finish())
        };

        // Under the step clock, a lineage trace is byte-reproducible run
        // to run — the emission layer must not introduce any
        // nondeterminism — and satisfies every lineage rule the strict
        // parser enforces.
        let trace = record();
        assert_eq!(trace, record(), "lineage trace must be stable");
        let events = parse_trace_strict(&trace).expect("lineage trace is strict-valid");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, statsym_telemetry::TraceEvent::State { .. })),
            "lineage run must emit state events"
        );
    }

    #[test]
    fn budget_killed_runs_trip_once_per_attempt_and_rerun_identically() {
        use statsym_telemetry::{
            lineage_op, parse_trace_strict, render_trace, Clock, MemRecorder, TraceEvent,
        };
        use symex::Budget;

        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 7);
        // The real candidate needs 91 steps on this fixture: a 60-step
        // budget kills every attempt mid-state, so no candidate wins and
        // every rank runs to its (deterministic) budget trip.
        let base = StatSymConfig::default();
        let cfg = StatSymConfig {
            engine: EngineConfig {
                lineage: true,
                budget: Budget {
                    max_steps: Some(60),
                    ..Budget::default()
                },
                ..base.engine
            },
            ..base
        };
        let analysis = StatSym::new(cfg).analyze(&logs);
        let record = || {
            let rec = MemRecorder::new(Clock::steps());
            let report = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
            (report, render_trace(&rec.finish()))
        };

        let (seq_report, seq) = record();
        assert!(seq_report.found.is_none(), "budget must kill every attempt");
        assert!(!seq_report.attempts.is_empty());
        let events = parse_trace_strict(&seq).expect("budget-killed trace is strict-valid");
        let trips = events
            .iter()
            .filter(
                |e| matches!(e, TraceEvent::State { op, .. } if op == lineage_op::BUDGET_EXCEEDED),
            )
            .count();
        assert_eq!(
            trips,
            seq_report.attempts.len(),
            "one budget_exceeded disposition per attempt"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::Counter { name, value } if name == statsym_telemetry::names::BUDGET_EXCEEDED
                    && *value == seq_report.attempts.len() as u64
            )),
            "budget.exceeded counter reconciles with attempts"
        );

        // A budget trip is pinned to an exact instruction count, so a
        // rerun reproduces the trace byte for byte.
        assert_eq!(seq, record().1, "budget-killed trace must be stable");
    }

    #[test]
    fn memo_reuses_verdicts_across_candidates_deterministically() {
        use statsym_telemetry::{render_trace, Clock, MemRecorder};

        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 7);
        let mut analysis = StatSym::default().analyze(&logs);
        let cs = analysis.candidates.as_mut().unwrap();
        cs.paths.insert(0, decoy_candidate());
        cs.paths.insert(0, decoy_candidate());

        let base = StatSymConfig::default();
        let cfg = StatSymConfig {
            engine: EngineConfig {
                max_steps: 95,
                ..base.engine
            },
            ..base
        };
        let record = || {
            let rec = MemRecorder::new(Clock::steps());
            let report = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
            (report, render_trace(&rec.finish()))
        };

        // One run-scoped memo: the real candidate (rank 3) answers
        // queries from verdicts the decoys published.
        let (shared, trace) = record();
        assert_eq!(shared.candidate_used, Some(2), "decoys must not win");
        assert!(
            shared.attempts[2].stats.solver.shared_hits > 0,
            "rank 3 must reuse the decoys' verdicts"
        );
        assert!(shared.cache.hits > 0);

        // The memo only skips solver work: everything exploration-visible
        // matches the memo-less loop, and the memo fills in rank order,
        // so the step-clock trace is byte-reproducible.
        let outcome = Run {
            module: &m,
            paths: &analysis.candidates.as_ref().unwrap().paths,
            config: &cfg,
            pins: &InputMap::new(),
            suppressed: &[],
            memo: None,
        }
        .execute(&NOOP);
        assert_eq!(outcome.cache, SharedCacheStats::default());
        let private = StatSymReport {
            analysis: analysis.clone(),
            attempts: outcome.attempts,
            found: outcome.found,
            candidate_used: outcome.candidate_used,
            cache: outcome.cache,
            symex_time: Duration::ZERO,
        };
        assert_same_exploration(&private, &shared, "with memo");
        assert_eq!(trace, record().1, "memo trace must be stable");
    }

    #[test]
    fn calibration_records_every_attempt_and_derives_gauges() {
        use statsym_telemetry::{names, parse_trace_strict, render_trace, Clock, MemRecorder};
        use statsym_telemetry::{FieldValue, TraceEvent};

        let m = module();
        let logs = gen_logs(&m, 30, 1.0, 7);
        let mut analysis = StatSym::default().analyze(&logs);
        let cs = analysis.candidates.as_mut().unwrap();
        cs.paths.insert(0, decoy_candidate());
        cs.paths.insert(0, decoy_candidate());

        let base = StatSymConfig::default();
        let cfg = StatSymConfig {
            engine: EngineConfig {
                max_steps: 95,
                ..base.engine
            },
            ..base
        };
        let rec = MemRecorder::new(Clock::steps());
        let report = StatSym::new(cfg).run_with_analysis_traced(&m, analysis, &rec);
        assert_eq!(report.candidate_used, Some(2), "decoys must not win");

        let trace = render_trace(&rec.finish());
        let events = parse_trace_strict(&trace).expect("calibrated trace is strict-valid");
        let field = |fields: &[(String, FieldValue)], key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.as_u64())
                .unwrap_or_else(|| panic!("calib.candidate field {key} missing"))
        };
        let calib: Vec<&Vec<(String, FieldValue)>> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Event { name, fields, .. } if name == names::CALIB_CANDIDATE => {
                    Some(fields)
                }
                _ => None,
            })
            .collect();
        // One record per attempt, 1-based ranks in attempt order; only
        // the real candidate (rank 3) verified the fault.
        assert_eq!(calib.len(), report.attempts.len());
        for (i, fields) in calib.iter().enumerate() {
            assert_eq!(field(fields, "rank"), i as u64 + 1);
            assert_eq!(field(fields, "steps"), report.attempts[i].stats.exec.steps);
            assert_eq!(field(fields, "found"), u64::from(i == 2));
            // Step-clock traces carry no wall-measured µs.
            assert!(!fields.iter().any(|(k, _)| k == "solver_us"));
        }

        let gauge = |name: &str| {
            events.iter().find_map(|e| match e {
                TraceEvent::Gauge { name: n, value } if n == name => Some(*value),
                _ => None,
            })
        };
        assert_eq!(gauge(names::CALIB_WINNER_RANK), Some(3));
        // Decoys rank ahead yet cost more: by construction this ranking
        // anti-predicts cost, so the correlation is negative.
        let corr = gauge(names::CALIB_RANK_COST_CORR).expect("corr gauge present");
        assert!(corr < 0, "decoy fixture must anti-correlate, got {corr}");
    }

    #[test]
    fn empty_logs_produce_no_candidates() {
        let m = module();
        let statsym = StatSym::default();
        let report = statsym.run(&m, &[]);
        assert!(report.found.is_none());
        assert!(report.attempts.is_empty());
        assert_eq!(report.analysis.n_candidates(), 0);
    }
}
