//! Parallel candidate-path portfolio execution (DESIGN.md §9).
//!
//! Sequentially, StatSym attempts ranked candidate paths one at a time
//! and stops at the first verified fault. When the first hit sits deep
//! in the ranking — or earlier attempts burn their whole budget before
//! failing — that loop is embarrassingly serial. The portfolio executor
//! runs the same attempts concurrently on [`std::thread::scope`]
//! workers while preserving the sequential result bit for bit:
//!
//! * **Work queue.** A shared [`AtomicUsize`] hands candidates out in
//!   rank order; each worker claims the next unclaimed index.
//! * **Cancellation.** Every candidate gets its own [`AtomicBool`]
//!   token, polled by the engine at each scheduling decision. When a
//!   candidate verifies the fault, the lowest found rank so far becomes
//!   the *watermark*: tokens strictly above the watermark are tripped
//!   and ranks above it are no longer handed out. Candidates at or
//!   below the watermark are never cancelled, so every attempt the
//!   sequential loop would have made still runs to natural completion.
//! * **Deterministic selection.** The winner is the lowest-ranked
//!   candidate whose attempt verified the fault — the same candidate
//!   the sequential loop stops at, carrying the identical
//!   [`FoundVulnerability`] (the engine is deterministic, and shared
//!   solver-cache verdicts never change an engine's exploration; see
//!   `solver::SharedCache`). The reported attempt list covers exactly
//!   ranks `0..=winner`, in rank order, as the sequential loop reports.
//! * **Shared solver cache.** All workers publish Sat/Unsat verdicts
//!   into one sharded [`SharedCache`] keyed by structural constraint
//!   hashes, so overlapping path prefixes across candidates are solved
//!   once per portfolio instead of once per attempt. Gated by
//!   [`StatSymConfig::share_cache`]: turning it off makes every
//!   worker's solver *work* counters independent of scheduling, which
//!   is what the byte-reproducible-trace tests rely on.
//!
//! **Concurrent recording (DESIGN.md §10).** Each worker owns a private
//! [`MemRecorder`] and the engine records into it natively — the
//! same spans, events, counters, and histograms a sequential attempt
//! would record, including per-callsite solver profiles and anything a
//! cancelled run did before it stopped. After the join, the main thread
//! splices the buffers into the real recorder in rank order via
//! [`Recorder::merge_buffer`]: ranks up to the winner merge verbatim
//! (so the trace reconciles with the reported attempts exactly like a
//! sequential trace), while overshoot attempts — work the sequential
//! loop would never have started — merge under the
//! `portfolio.overshoot.` prefix so they never pollute the engine's own
//! counters.

use crate::candidate::CandidatePath;
use crate::guidance::GuidedHook;
use crate::pipeline::{CandidateAttempt, StatSymConfig};
use sir::Module;
use solver::{QueryCache, SharedCache, SharedCacheStats};
use statsym_telemetry::{names, Clock, FieldValue, MemRecorder, Recorder, TraceBuffer};
use symex::{outcome_label, Engine, EngineConfig, EngineReport};
use symex::{FoundVulnerability, RunOutcome, SchedulerKind};

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Result of one portfolio execution, shaped exactly like the
/// corresponding fields of a sequential `StatSymReport`.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// Attempts over ranks `0..=winner` (all ranks when nothing was
    /// found), in rank order — the same set the sequential loop reports.
    pub attempts: Vec<CandidateAttempt>,
    /// The verified vulnerable path, if any candidate found it.
    pub found: Option<FoundVulnerability>,
    /// Rank of the winning candidate.
    pub candidate_used: Option<usize>,
    /// Shared solver-cache counters for the whole portfolio (all zero
    /// when [`StatSymConfig::share_cache`] is off).
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

/// Runs the ranked candidates as a parallel portfolio and returns the
/// sequential-equivalent outcome. See the module docs for the protocol.
pub fn run_portfolio(
    module: &Module,
    paths: &[CandidatePath],
    config: &StatSymConfig,
    pins: &concrete::InputMap,
    rec: &dyn Recorder,
) -> PortfolioOutcome {
    // Four shards per worker keeps shard-lock collisions rare without
    // bloating the cache for small portfolios.
    let workers = config.workers.min(paths.len()).max(1);
    let shared = Arc::new(SharedCache::new(workers * 4));
    run_portfolio_with_cache(module, paths, config, pins, rec, shared)
}

/// [`run_portfolio`] with the shared verdict cache supplied by the
/// caller instead of constructed internally. The cache is advisory —
/// any conforming [`QueryCache`] (including fault-injecting wrappers
/// that drop lookups or publishes) yields the same exploration and the
/// same outcome; only the traffic counters differ.
pub fn run_portfolio_with_cache(
    module: &Module,
    paths: &[CandidatePath],
    config: &StatSymConfig,
    pins: &concrete::InputMap,
    rec: &dyn Recorder,
    shared: Arc<dyn QueryCache + Send + Sync>,
) -> PortfolioOutcome {
    let n = paths.len();
    let workers = config.workers.min(n).max(1);
    // Two-level budget split (see `pipeline::split_worker_budget`):
    // surplus workers beyond the candidate count run inside each
    // engine as state workers when the pipeline opted in.
    let state_workers = if config.auto_split_workers && config.engine.state_workers == 0 {
        crate::pipeline::split_worker_budget(config.workers, n).1
    } else {
        config.engine.state_workers
    };

    let span = rec.span_open(names::PORTFOLIO);
    rec.counter_add(names::PORTFOLIO_WORKERS, workers as u64);
    let next = AtomicUsize::new(0);
    // Lowest rank verified so far; `n` means "none yet". Only ranks
    // strictly above this watermark are ever cancelled or skipped.
    let best = AtomicUsize::new(n);
    let tokens: Vec<Arc<AtomicBool>> = (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect();
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
    // budget for reporting and budget splits.
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
                if config.cancel_on_found && rank > best.load(Ordering::Acquire) {
                    // A better-ranked candidate already won; every rank
                    // this worker could still claim is above it too.
                    break;
                }
                let engine_config = EngineConfig {
                    scheduler: SchedulerKind::Priority,
                    state_workers,
                    candidate_rank: rank as u32 + 1,
                    ..config.engine
                };
                // The worker's private recorder: the engine records into
                // it exactly as it would into the main-thread sink.
                let wrec = record.then(|| MemRecorder::new(Clock::with_mode(clock_mode)));
                let attempt_span = wrec.as_ref().map(|w| w.span_open(names::CANDIDATE_ATTEMPT));
                let report = {
                    let hook = GuidedHook::new(paths[rank].clone(), config.guidance);
                    let mut engine = Engine::with_hook(module, engine_config, Box::new(hook));
                    if let Some(w) = wrec.as_ref() {
                        engine.set_recorder(w);
                    }
                    if config.share_cache {
                        engine.set_shared_cache(shared.clone());
                    }
                    if config.cancel_on_found {
                        engine.set_cancel_token(tokens[rank].clone());
                    }
                    for (name, value) in pins {
                        engine.pin_input(name.clone(), value.clone());
                    }
                    engine.run()
                };
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
                    if config.cancel_on_found {
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
                if let Some(w) = wrec.as_ref() {
                    w.span_close(attempt_span.expect("span opened iff recording"));
                    w.event(
                        names::CANDIDATE_RESULT,
                        &[
                            ("index", FieldValue::from(rank)),
                            ("path_len", FieldValue::from(paths[rank].len())),
                            ("found", FieldValue::from(report.outcome.is_found())),
                            (
                                "paths_explored",
                                FieldValue::from(report.stats.paths_explored),
                            ),
                            ("steps", FieldValue::from(report.stats.exec.steps)),
                        ],
                    );
                    // Same record the sequential loop emits; overshoot
                    // buffers splice under the rename prefix, so only
                    // sequential-equivalent attempts feed calibration.
                    crate::pipeline::record_calibration(
                        w,
                        rank,
                        paths[rank].score,
                        paths[rank].len(),
                        &report.stats,
                        report.outcome.is_found(),
                    );
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
            // sequential loop would have recorded live.
            let done = slot.expect("candidates at or below the winning rank run to completion");
            if let Some(buf) = &done.trace {
                rec.merge_buffer(buf, None);
            }
            attempts.push(CandidateAttempt {
                index: rank,
                path_len: paths[rank].len(),
                found: done.report.outcome.is_found(),
                wall_time: done.report.wall_time,
                stats: done.report.stats,
            });
            if let RunOutcome::Found(f) = done.report.outcome {
                found = Some(*f);
            }
        } else if let Some(done) = slot {
            // Overshoot: an attempt the sequential loop would never have
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
    let cache = shared.stats();
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
