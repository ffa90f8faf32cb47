//! Shared experiment runners used by every table/figure binary.

use crate::format::Table;
use benchapps::{generate_corpus_traced, BenchApp, CorpusSpec};
use concrete::Measure;
use statsym_core::pipeline::{StatSym, StatSymConfig, StatSymReport};
use statsym_core::{AnalysisReport, CandidatePath, PathNode, PredOp};
use statsym_telemetry::{Recorder, NOOP};
use std::time::Duration;
use symex::{Engine, EngineConfig, EngineReport, SchedulerKind};

/// Deterministic seed used by all paper experiments.
pub const PAPER_SEED: u64 = 2017;

/// Default sampling rate for the headline tables (paper Table III/IV use
/// 30%).
pub const DEFAULT_SAMPLING: f64 = 0.3;

/// Modeled memory budget for the symbolic engines. The paper's KLEE runs
/// fail with out-of-memory on a 12 GB machine against full-size
/// programs; our programs are scaled ~32× down, so the budget scales to
/// 64 MiB (modeled bytes, tracked by the engine).
pub const DEFAULT_MEMORY_BUDGET: usize = 64 << 20;

/// Wall-clock cap for the pure baseline (the paper allows KLEE 8 hours;
/// scaled to keep the full table under a minute per app).
pub const DEFAULT_PURE_TIME_BUDGET: Duration = Duration::from_secs(120);

/// The StatSym configuration used by the paper experiments.
pub fn statsym_config() -> StatSymConfig {
    StatSymConfig {
        engine: EngineConfig {
            scheduler: SchedulerKind::Priority,
            memory_budget: DEFAULT_MEMORY_BUDGET,
            // The paper gives each candidate path 15 minutes; scaled.
            time_budget: Some(Duration::from_secs(30)),
            ..EngineConfig::default()
        },
        ..StatSymConfig::default()
    }
}

/// The pure-symbolic-execution (KLEE baseline) configuration.
pub fn pure_engine_config() -> EngineConfig {
    EngineConfig {
        scheduler: SchedulerKind::Bfs,
        memory_budget: DEFAULT_MEMORY_BUDGET,
        time_budget: Some(DEFAULT_PURE_TIME_BUDGET),
        ..EngineConfig::default()
    }
}

/// A full StatSym run on one app: corpus generation + pipeline.
#[derive(Debug)]
pub struct ExperimentResult {
    /// The app name.
    pub app: &'static str,
    /// Number of logs used.
    pub n_logs: usize,
    /// The pipeline report (analysis + guided execution).
    pub report: StatSymReport,
}

/// Runs the complete StatSym pipeline on `app` at the given sampling
/// rate (paper §VII-A: 100 correct + 100 faulty logs).
pub fn run_statsym(app: &BenchApp, sampling_rate: f64, seed: u64) -> ExperimentResult {
    run_statsym_sized(app, sampling_rate, seed, 100, 100)
}

/// [`run_statsym`] with an explicit corpus size (used by quick benches).
pub fn run_statsym_sized(
    app: &BenchApp,
    sampling_rate: f64,
    seed: u64,
    n_correct: usize,
    n_faulty: usize,
) -> ExperimentResult {
    run_statsym_traced(
        app,
        sampling_rate,
        seed,
        n_correct,
        n_faulty,
        statsym_config(),
        &NOOP,
    )
}

/// [`run_statsym_sized`] under an explicit pipeline configuration (the
/// bench binaries pass [`TraceSink::configure`](crate::TraceSink::configure)),
/// with a telemetry recorder threaded through corpus generation,
/// statistical analysis, and guided execution.
pub fn run_statsym_traced(
    app: &BenchApp,
    sampling_rate: f64,
    seed: u64,
    n_correct: usize,
    n_faulty: usize,
    config: StatSymConfig,
    rec: &dyn Recorder,
) -> ExperimentResult {
    let logs = generate_corpus_traced(
        app,
        CorpusSpec {
            n_correct,
            n_faulty,
            sampling_rate,
            seed,
        },
        rec,
    );
    let statsym = StatSym::new(config);
    let analysis = statsym.analyze_traced(&logs, rec);
    // The paper configures required program options for both engines:
    // pin them on every candidate attempt.
    let report = statsym.run_with_analysis_pinned_traced(&app.module, analysis, &app.pins, rec);
    ExperimentResult {
        app: app.name,
        n_logs: logs.len(),
        report,
    }
}

/// Tables II and III: detours, candidates and the statistics-vs-symex
/// time breakdown of every paper app at `rate` (100 correct + 100
/// faulty logs each).
pub fn breakdown_table(rate: f64, title: &str, config: StatSymConfig, rec: &dyn Recorder) -> Table {
    let mut table = Table::new(
        title,
        &[
            "Benchmark",
            "detours",
            "candidates",
            "stat time(sec)",
            "symex time(sec)",
            "found",
        ],
    );
    for app in benchapps::all_apps() {
        let r = run_statsym_traced(&app, rate, PAPER_SEED, 100, 100, config, rec);
        table.row(&[
            app.name.to_string(),
            r.report.analysis.n_detours().to_string(),
            r.report.analysis.n_candidates().to_string(),
            format!("{:.3}", r.report.analysis.analysis_time.as_secs_f64()),
            format!("{:.3}", r.report.symex_time.as_secs_f64()),
            r.report.found.is_some().to_string(),
        ]);
    }
    table
}

/// Per-candidate step cap (`EngineConfig::max_steps`) for runs with
/// [`decoy`] candidates: a decoy exhausts it, the real winner does not.
pub const DECOY_MAX_STEPS: u64 = 60_000;

/// A hopeless candidate to rank ahead of the real ones. Its single node
/// inverts the analysis' top length separator at the fault function's
/// entry (`len(buffer) < σ` instead of `> σ`), confining exploration to
/// the sub-threshold input space. On grep that space is exponentially
/// large (every char forks the toupper branch), the faulting branch is
/// suspended on the soft-constraint conflict, and the attempt
/// deterministically exhausts [`DECOY_MAX_STEPS`] without finding.
///
/// # Panics
///
/// Panics if the analysis has no failure location or no length
/// predicate there.
pub fn decoy(analysis: &AnalysisReport) -> CandidatePath {
    let failure = analysis
        .failure_location
        .clone()
        .expect("analysis pinpoints the failure");
    let template = analysis
        .predicates
        .ranked
        .iter()
        .find(|p| !p.is_degenerate() && p.loc == failure && p.var.measure == Measure::Length)
        .expect("a length predicate at the failure point");
    let mut poison = template.clone();
    poison.op = PredOp::Lt;
    CandidatePath {
        nodes: vec![PathNode {
            loc: failure,
            predicates: vec![poison],
        }],
        score: 9.0,
    }
}

/// A pure symbolic execution (KLEE baseline) run.
#[derive(Debug)]
pub struct PureResult {
    /// The app name.
    pub app: &'static str,
    /// The engine report.
    pub report: EngineReport,
}

/// Runs the unguided baseline on `app` with the same pinned options.
pub fn run_pure(app: &BenchApp, config: EngineConfig) -> PureResult {
    run_pure_traced(app, config, &NOOP)
}

/// [`run_pure`] with a telemetry recorder on the engine.
pub fn run_pure_traced(app: &BenchApp, config: EngineConfig, rec: &dyn Recorder) -> PureResult {
    let mut engine = Engine::new(&app.module, config);
    engine.set_recorder(rec);
    for (name, value) in &app.pins {
        engine.pin_input(name.clone(), value.clone());
    }
    PureResult {
        app: app.name,
        report: engine.run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivating_example_pure_vs_guided() {
        // Figure 2: guided execution needs far fewer states than pure on
        // the paper's sample program.
        let app = benchapps::motivating();
        let pure = run_pure(&app, pure_engine_config());
        assert!(pure.report.outcome.is_found(), "{:?}", pure.report.outcome);

        let guided = run_statsym_sized(&app, 1.0, PAPER_SEED, 20, 20);
        let found = guided.report.found.as_ref().expect("guided finds fault");
        assert_eq!(found.fault.func, "vul_func");
        assert!(
            guided.report.total_paths_explored() <= pure.report.stats.paths_explored,
            "guided {} <= pure {}",
            guided.report.total_paths_explored(),
            pure.report.stats.paths_explored
        );
    }
}
