//! The candidate loop (DESIGN.md §9): ranked candidate paths are
//! attempted under guided symbolic execution, in rank order, until one
//! verifies the fault.
//!
//! At `workers = 1` this is the paper's loop: each attempt runs on the
//! caller's thread, records straight into the caller's recorder, and
//! the loop stops at the first verified rank. At `workers > 1` the same
//! attempts run concurrently on [`std::thread::scope`] workers while
//! preserving that result bit for bit:
//!
//! * **Work queue.** A shared [`AtomicUsize`] hands candidates out in
//!   rank order; each worker claims the next unclaimed index.
//! * **Cancellation.** Every candidate gets its own [`AtomicBool`]
//!   token, polled by the engine at each scheduling decision. When a
//!   candidate verifies the fault, the lowest found rank so far becomes
//!   the *watermark*: tokens strictly above the watermark are tripped
//!   and ranks above it are no longer handed out. Candidates at or
//!   below the watermark are never cancelled, so every attempt the
//!   one-worker loop makes still runs to natural completion.
//! * **Deterministic selection.** The winner is the lowest-ranked
//!   candidate whose attempt verified the fault — the same candidate
//!   the one-worker loop stops at, carrying the identical
//!   [`FoundVulnerability`] (the engine is deterministic, and memoized
//!   solver verdicts never change an engine's exploration; see
//!   `solver::SharedCache`). The reported attempt list covers exactly
//!   ranks `0..=winner`, in rank order.
//!
//! **Verdict memo.** Every attempt of a run consults and publishes to
//! the run's one verdict memo, when the caller supplies one (the
//! pipeline does when [`StatSymConfig::share_cache`] is on and more than
//! one candidate is ranked). Overlapping path prefixes across candidates
//! are then solved once per run instead of once per attempt. That is
//! work elimination, and one thread gets it too: at `workers = 1` the
//! memo fills in rank order, so its hit counts are deterministic. At
//! `workers > 1` they depend on scheduling, which is why the
//! byte-reproducible-trace tests turn sharing off.
//!
//! **Concurrent recording (DESIGN.md §10).** At `workers > 1` each
//! worker owns a private [`MemRecorder`] and the engine records into it
//! natively — the same spans, events, counters, and histograms the
//! one-worker loop records, including per-callsite solver profiles and
//! anything a cancelled run did before it stopped. After the join, the
//! main thread splices the buffers into the real recorder in rank order
//! via [`Recorder::merge_buffer`]: ranks up to the winner merge verbatim
//! (so the trace reconciles with the reported attempts exactly like a
//! one-worker trace), while overshoot attempts — work the one-worker
//! loop would never have started — merge under the
//! `portfolio.overshoot.` prefix so they never pollute the engine's own
//! counters.

use crate::candidate::CandidatePath;
use crate::guidance::GuidedHook;
use crate::pipeline::{CandidateAttempt, StatSymConfig};
use sir::Module;
use solver::{QueryCache, SharedCacheStats};
use statsym_telemetry::{names, Clock, FieldValue, MemRecorder, Recorder, TraceBuffer, NOOP};
use symex::{outcome_label, Engine, EngineConfig, EngineReport, EngineStats};
use symex::{FoundVulnerability, RunOutcome, SchedulerKind};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Result of one candidate loop, shaped exactly like the corresponding
/// fields of a `StatSymReport`.
#[derive(Debug)]
pub struct PortfolioOutcome {
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

/// Everything a worker ships back to the main thread for one rank.
struct WorkerDone {
    report: EngineReport,
    /// The worker's private trace, if the run was recorded.
    trace: Option<TraceBuffer>,
    /// For cancelled runs: wall time from the cancel token tripping to
    /// the engine actually stopping.
    cancel_latency: Option<Duration>,
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
    pub memo: Option<Arc<dyn QueryCache + Send + Sync>>,
}

impl Run<'_> {
    /// One guided attempt on the candidate at `rank`: a
    /// `candidate.attempt` span around the engine run, then its
    /// `candidate.result` and `calib.candidate` records.
    fn attempt(
        &self,
        rank: usize,
        rec: &dyn Recorder,
        cancel: Option<Arc<AtomicBool>>,
    ) -> EngineReport {
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
        if let Some(token) = cancel {
            engine.set_cancel_token(token);
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

    /// Appends the finished attempt at `rank`; returns the fault it
    /// verified, if any.
    fn settle(
        &self,
        attempts: &mut Vec<CandidateAttempt>,
        rank: usize,
        report: EngineReport,
    ) -> Option<FoundVulnerability> {
        attempts.push(CandidateAttempt {
            index: rank,
            path_len: self.paths[rank].len(),
            found: report.outcome.is_found(),
            wall_time: report.wall_time,
            stats: report.stats,
        });
        match report.outcome {
            RunOutcome::Found(f) => Some(*f),
            _ => None,
        }
    }

    fn cache_stats(&self) -> SharedCacheStats {
        self.memo.as_ref().map(|m| m.stats()).unwrap_or_default()
    }

    /// The candidate loop at `config.workers` workers; returns the
    /// outcome of the one-worker loop (see the module docs).
    pub(crate) fn execute(&self, rec: &dyn Recorder) -> PortfolioOutcome {
        let n = self.paths.len();
        let workers = self.config.workers.min(n).max(1);
        if workers == 1 {
            let mut attempts = Vec::new();
            let mut found = None;
            let mut candidate_used = None;
            for rank in 0..n {
                let report = self.attempt(rank, rec, None);
                found = self.settle(&mut attempts, rank, report);
                if found.is_some() {
                    candidate_used = Some(rank);
                    break;
                }
            }
            return PortfolioOutcome {
                attempts,
                found,
                candidate_used,
                cache: self.cache_stats(),
            };
        }

        let span = rec.span_open(names::PORTFOLIO);
        rec.counter_add(names::PORTFOLIO_WORKERS, workers as u64);
        let next = AtomicUsize::new(0);
        // Lowest rank verified so far; `n` means "none yet". Only ranks
        // strictly above this watermark are ever cancelled or skipped.
        let best = AtomicUsize::new(n);
        let tokens: Vec<Arc<AtomicBool>> =
            (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
        // When each token first tripped — the start point of cancel latency.
        let trips: Vec<Mutex<Option<Instant>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let slots: Vec<Mutex<Option<WorkerDone>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let record = rec.enabled();
        let clock_mode = rec.clock_mode();

        // Oversubscribing the host never helps: logical workers beyond the
        // available parallelism just interleave on the same cores, racing
        // to re-solve queries a published verdict would have answered. The
        // protocol is schedule-independent, so clamping the *spawned*
        // threads changes wall time only — `workers` stays the logical
        // budget for reporting.
        let spawn = thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(workers)
            .min(workers)
            .max(1);
        thread::scope(|s| {
            for _ in 0..spawn {
                s.spawn(|| loop {
                    let rank = next.fetch_add(1, Ordering::Relaxed);
                    if rank >= n {
                        break;
                    }
                    if self.config.cancel_on_found && rank > best.load(Ordering::Acquire) {
                        // A better-ranked candidate already won; every rank
                        // this worker could still claim is above it too.
                        break;
                    }
                    // The worker's private recorder: the engine records into
                    // it exactly as it would into the main-thread sink.
                    let wrec = record.then(|| MemRecorder::new(Clock::with_mode(clock_mode)));
                    let cancel = self.config.cancel_on_found.then(|| tokens[rank].clone());
                    let wsink: &dyn Recorder = wrec.as_ref().map_or(&NOOP, |w| w);
                    let report = self.attempt(rank, wsink, cancel);
                    let cancel_latency = if matches!(
                        report.outcome,
                        RunOutcome::Exhausted(symex::ExhaustionReason::Cancelled)
                    ) {
                        trips[rank]
                            .lock()
                            .expect("portfolio worker panicked")
                            .map(|at| at.elapsed())
                    } else {
                        None
                    };
                    if report.outcome.is_found() {
                        let mut cur = best.load(Ordering::Acquire);
                        while rank < cur {
                            match best.compare_exchange_weak(
                                cur,
                                rank,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            ) {
                                Ok(_) => break,
                                Err(now) => cur = now,
                            }
                        }
                        if self.config.cancel_on_found {
                            let watermark = best.load(Ordering::Acquire);
                            for (token, trip) in tokens.iter().zip(&trips).skip(watermark + 1) {
                                // Stamp the trip time before the token so a
                                // cancelled worker always finds it set.
                                let mut at = trip.lock().expect("portfolio worker panicked");
                                if at.is_none() {
                                    *at = Some(Instant::now());
                                    token.store(true, Ordering::Release);
                                }
                            }
                        }
                    }
                    *slots[rank].lock().expect("portfolio worker panicked") = Some(WorkerDone {
                        report,
                        trace: wrec.map(MemRecorder::into_buffer),
                        cancel_latency,
                    });
                });
            }
        });

        let reports: Vec<Option<WorkerDone>> = slots
            .into_iter()
            .map(|m| m.into_inner().expect("portfolio worker panicked"))
            .collect();
        let winner = reports
            .iter()
            .position(|r| r.as_ref().is_some_and(|r| r.report.outcome.is_found()));
        let limit = winner.unwrap_or(n);

        let mut attempts = Vec::new();
        let mut found = None;
        let mut cancelled: u64 = 0;
        for (rank, slot) in reports.into_iter().enumerate() {
            if rank <= limit {
                // Ranks at or below the winner are never cancelled or
                // skipped, so the attempt always completed. Its buffer
                // merges verbatim: the trace shows exactly what the
                // one-worker loop records live.
                let done = slot.expect("candidates at or below the winning rank run to completion");
                if let Some(buf) = &done.trace {
                    rec.merge_buffer(buf, None);
                }
                if let Some(f) = self.settle(&mut attempts, rank, done.report) {
                    found = Some(f);
                }
            } else if let Some(done) = slot {
                // Overshoot: an attempt the one-worker loop would never have
                // started. Its full trace is preserved, but every span,
                // event, and metric lands under portfolio.overshoot.* so the
                // engine counters still reconcile with the reported attempts.
                let was_cancelled = matches!(
                    done.report.outcome,
                    RunOutcome::Exhausted(symex::ExhaustionReason::Cancelled)
                );
                cancelled += u64::from(was_cancelled);
                rec.event(
                    names::PORTFOLIO_ATTEMPT,
                    &[
                        ("index", FieldValue::from(rank)),
                        (
                            "outcome",
                            FieldValue::from(outcome_label(&done.report.outcome)),
                        ),
                        ("steps", FieldValue::from(done.report.stats.exec.steps)),
                    ],
                );
                if let Some(buf) = &done.trace {
                    rec.merge_buffer(buf, Some(names::PORTFOLIO_OVERSHOOT_PREFIX));
                }
                if let Some(d) = done.cancel_latency {
                    rec.observe_wall(names::PORTFOLIO_CANCEL_LATENCY_US, d);
                }
            }
        }

        rec.counter_add(names::PORTFOLIO_CANCELLED, cancelled);
        let cache = self.cache_stats();
        rec.counter_add(names::PORTFOLIO_CACHE_HITS, cache.hits);
        rec.counter_add(names::PORTFOLIO_CACHE_MISSES, cache.misses);
        rec.counter_add(names::PORTFOLIO_CACHE_STORES, cache.stores);
        // Zero-vs-absent convention: contention is an exact atomic count
        // (see `SharedCache`), and an uncontended run records *no* counter
        // rather than an explicit 0 — `TraceSummary::counter_opt` lets
        // consumers tell "never contended" apart from "counter vanished".
        if cache.contention > 0 {
            rec.counter_add(names::PORTFOLIO_CACHE_CONTENTION, cache.contention);
        }
        rec.counter_add(names::PORTFOLIO_CACHE_ENTRIES, cache.entries);
        rec.span_close(span);

        PortfolioOutcome {
            attempts,
            found,
            candidate_used: winner,
            cache,
        }
    }
}

/// Emits one `calib.candidate` record: the statistical prediction for a
/// candidate (1-based rank, milli-scaled score, path length) next to
/// what its attempt actually cost (steps, forks, solver search nodes,
/// and — wall-clock traces only — solver µs) and whether it verified
/// the fault. Consumed by `statsym-inspect calib`/`explain` and the
/// JSON report's calibration section.
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

/// Runs the ranked candidates and returns the outcome of the one-worker
/// loop, at `config.workers` workers. Every attempt consults `memo`, the
/// run's verdict memo, when one is given. The memo is advisory — any
/// conforming [`QueryCache`] (including fault-injecting wrappers that
/// drop lookups or publishes) yields the same exploration and the same
/// outcome; only the solver-work counters differ.
pub fn run_portfolio_with_cache(
    module: &Module,
    paths: &[CandidatePath],
    config: &StatSymConfig,
    pins: &concrete::InputMap,
    rec: &dyn Recorder,
    memo: Option<Arc<dyn QueryCache + Send + Sync>>,
) -> PortfolioOutcome {
    Run {
        module,
        paths,
        config,
        pins,
        suppressed: &[],
        memo,
    }
    .execute(rec)
}
