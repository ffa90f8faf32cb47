//! The candidate loop (DESIGN.md §9): ranked candidate paths are
//! attempted under guided symbolic execution, one at a time, in rank
//! order, until one verifies the fault (paper §III-C). Each attempt
//! records straight into the caller's recorder.
//!
//! **Verdict memo.** Every attempt of a run consults and publishes to
//! the run's one verdict memo, when the caller supplies one (the
//! pipeline does whenever more than one candidate is ranked).
//! Overlapping path prefixes across candidates are then solved once per
//! run instead of once per attempt. The memo fills in rank order, so its
//! hit counts are deterministic, and it never changes what an attempt
//! explores — only how much solver work it spends.

use crate::candidate::CandidatePath;
use crate::guidance::GuidedHook;
use crate::pipeline::{CandidateAttempt, StatSymConfig};
use sir::Module;
use solver::{QueryCache, SharedCacheStats};
use statsym_telemetry::{names, FieldValue, Recorder};
use symex::{Engine, EngineConfig, EngineReport, EngineStats};
use symex::{FoundVulnerability, RunOutcome, SchedulerKind};

use std::rc::Rc;

/// Result of one candidate loop, shaped exactly like the corresponding
/// fields of a `StatSymReport`.
#[derive(Debug)]
pub(crate) struct LoopOutcome {
    /// Attempts over ranks `0..=winner` (all ranks when nothing was
    /// found), in rank order.
    pub attempts: Vec<CandidateAttempt>,
    /// The verified vulnerable path, if any candidate found it.
    pub found: Option<FoundVulnerability>,
    /// Rank of the winning candidate.
    pub candidate_used: Option<usize>,
    /// Verdict-memo counters for the whole run (all zero without a
    /// memo).
    pub cache: SharedCacheStats,
}

/// What every attempt of one run shares.
pub(crate) struct Run<'a> {
    pub module: &'a Module,
    pub paths: &'a [CandidatePath],
    pub config: &'a StatSymConfig,
    pub pins: &'a concrete::InputMap,
    /// Fault sites (function, span) every engine treats as ordinary
    /// path ends (paper §III-C iterative discovery).
    pub suppressed: &'a [(String, minic::Span)],
    /// The run's verdict memo, if any.
    pub memo: Option<Rc<dyn QueryCache>>,
}

impl Run<'_> {
    /// One guided attempt on the candidate at `rank`: a
    /// `candidate.attempt` span around the engine run, then its
    /// `candidate.result` and `calib.candidate` records.
    fn attempt(&self, rank: usize, rec: &dyn Recorder) -> EngineReport {
        let path = &self.paths[rank];
        let span = rec.span_open(names::CANDIDATE_ATTEMPT);
        let engine_config = EngineConfig {
            scheduler: SchedulerKind::Priority,
            candidate_rank: rank as u32 + 1,
            ..self.config.engine
        };
        let hook = GuidedHook::new(path.clone(), self.config.guidance);
        let mut engine = Engine::with_hook(self.module, engine_config, Box::new(hook));
        engine.set_recorder(rec);
        if let Some(memo) = &self.memo {
            engine.set_shared_cache(memo.clone());
        }
        for (name, value) in self.pins {
            engine.pin_input(name.clone(), value.clone());
        }
        for (func, span) in self.suppressed {
            engine.suppress_fault_site(func.clone(), *span);
        }
        let report = engine.run();
        rec.span_close(span);
        let found = report.outcome.is_found();
        rec.event(
            names::CANDIDATE_RESULT,
            &[
                ("index", FieldValue::from(rank)),
                ("path_len", FieldValue::from(path.len())),
                ("found", FieldValue::from(found)),
                (
                    "paths_explored",
                    FieldValue::from(report.stats.paths_explored),
                ),
                ("steps", FieldValue::from(report.stats.exec.steps)),
            ],
        );
        record_calibration(rec, rank, path.score, path.len(), &report.stats, found);
        report
    }

    /// The candidate loop: attempts ranks in order and stops at the
    /// first that verifies the fault.
    pub(crate) fn execute(&self, rec: &dyn Recorder) -> LoopOutcome {
        let mut attempts = Vec::new();
        let mut found = None;
        let mut candidate_used = None;
        for (rank, path) in self.paths.iter().enumerate() {
            let report = self.attempt(rank, rec);
            attempts.push(CandidateAttempt {
                index: rank,
                path_len: path.len(),
                found: report.outcome.is_found(),
                wall_time: report.wall_time,
                stats: report.stats,
            });
            if let RunOutcome::Found(f) = report.outcome {
                found = Some(*f);
                candidate_used = Some(rank);
                break;
            }
        }
        LoopOutcome {
            attempts,
            found,
            candidate_used,
            cache: self.memo.as_ref().map(|m| m.stats()).unwrap_or_default(),
        }
    }
}

/// Emits one `calib.candidate` record: the statistical prediction for a
/// candidate (1-based rank, milli-scaled score, path length) next to
/// what its attempt actually cost (steps, forks, solver search nodes,
/// and — wall-clock traces only — solver µs) and whether it verified
/// the fault. Consumed by `statsym-inspect calib` and the run report's
/// calibration section.
fn record_calibration(
    rec: &dyn Recorder,
    rank: usize,
    score: f64,
    path_len: usize,
    stats: &EngineStats,
    found: bool,
) {
    if !rec.enabled() {
        return;
    }
    let mut fields = vec![
        ("rank", FieldValue::from(rank as u64 + 1)),
        ("score_milli", FieldValue::from((score * 1000.0) as i64)),
        ("path_len", FieldValue::from(path_len)),
        ("steps", FieldValue::from(stats.exec.steps)),
        ("forks", FieldValue::from(stats.exec.forks)),
        ("snodes", FieldValue::from(stats.solver.nodes)),
    ];
    if rec.clock_mode() == statsym_telemetry::ClockMode::Wall {
        fields.push(("solver_us", FieldValue::from(stats.solver.query_us)));
    }
    fields.push(("found", FieldValue::from(u64::from(found))));
    rec.event(names::CALIB_CANDIDATE, &fields);
}
