//! Guided symbolic execution benchmark: the executor's cost per step and
//! per fork on the unsat-heavy `grep-decoys` job.
//!
//! It builds the first job of `e2ebench`'s `grep-decoys` list at
//! `--seed 1`: the `grep` corpus at sampling rate 0.3 (100 correct and
//! 100 faulty runs), its analysis, and two [`decoy`] candidates ranked
//! ahead of the real ones, under the workload's configuration (one
//! thread, a 60 000-step budget per candidate, τ = 10^6). Each of `REPS`
//! repetitions runs the job's three attempts through the pipeline: the
//! two decoys exhaust their budgets forking over the sub-threshold input
//! space, then the real candidate verifies the overflow.
//!
//! Per repetition, the attempts' summed wall time is divided by their
//! summed steps and by their summed forks; the bench prints the median
//! and the fastest of each. A fork costs far more than a straight-line
//! step, so the per-fork figure tracks the fork path (state clone,
//! path-condition push, feasibility queries, scheduling).
//!
//! Each attempt's steps, forks, states created and solver queries are
//! asserted: they depend only on the pipeline's semantics, so a change
//! that moves them fails the bench.

use bench::experiments::{decoy, DECOY_MAX_STEPS};
use benchapps::{generate_corpus, CorpusSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use statsym_core::pipeline::{StatSym, StatSymConfig};
use statsym_core::GuidanceConfig;
use statsym_telemetry::NOOP;
use std::time::Duration;

/// Timed repetitions of the job's attempts.
const REPS: usize = 15;

/// Corpus seed of the first job `e2ebench --workload grep-decoys --seed 1`
/// runs.
const JOB_SEED: u64 = 3_246_858_695_411_730_098;

/// `(steps, forks, states created, solver queries)` of each attempt, in
/// rank order: the two decoys, then the real candidate.
const ATTEMPTS: [(u64, u64, u64, u64); 3] = [
    (60_005, 4_000, 8_001, 9_319),
    (60_005, 4_000, 8_001, 9_319),
    (877, 62, 125, 155),
];

/// Median and minimum of `xs`.
fn summary(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0])
}

fn bench_symex(c: &mut Criterion) {
    let app = benchapps::by_name("grep").expect("benchmark app");
    let spec = CorpusSpec {
        n_correct: 100,
        n_faulty: 100,
        sampling_rate: 0.3,
        seed: JOB_SEED,
    };
    let logs = generate_corpus(&app, spec);
    let base = bench::statsym_config();
    let mut cfg = StatSymConfig { workers: 1, ..base };
    cfg.engine.state_workers = 0;
    cfg.engine.max_steps = DECOY_MAX_STEPS;
    cfg.guidance = GuidanceConfig {
        tau: 1_000_000,
        ..base.guidance
    };
    let statsym = StatSym::new(cfg);
    let mut analysis = statsym.analyze(&logs);
    let poison = decoy(&analysis);
    let paths = &mut analysis.candidates.as_mut().expect("candidates").paths;
    paths.splice(0..0, [poison.clone(), poison]);

    c.bench_function("symex/grep-decoys", |b| {
        b.iter(|| {
            let (mut per_step, mut per_fork) = (Vec::new(), Vec::new());
            for _ in 0..REPS {
                let report = statsym.run_with_analysis_pinned_traced(
                    &app.module,
                    analysis.clone(),
                    &app.pins,
                    &NOOP,
                );
                assert!(report.found.is_some(), "the real candidate verifies");
                let counts: Vec<(u64, u64, u64, u64)> = report
                    .attempts
                    .iter()
                    .map(|a| {
                        let s = &a.stats;
                        (s.exec.steps, s.exec.forks, s.states_created, s.solver.queries)
                    })
                    .collect();
                assert_eq!(counts, ATTEMPTS, "attempt work counts moved");
                let wall: Duration = report.attempts.iter().map(|a| a.wall_time).sum();
                let ns = wall.as_secs_f64() * 1e9;
                per_step.push(ns / counts.iter().map(|a| a.0).sum::<u64>() as f64);
                per_fork.push(ns / counts.iter().map(|a| a.1).sum::<u64>() as f64);
            }
            let (steps, forks) = ATTEMPTS
                .iter()
                .fold((0, 0), |(s, f), a| (s + a.0, f + a.1));
            for (unit, xs, n) in [("step", per_step, steps), ("fork", per_fork, forks)] {
                let (median, min) = summary(xs);
                println!(
                    "symex grep-decoys/per-{unit:<4} median {median:>8.1} ns  min {min:>8.1} ns  ({REPS} reps, {n} {unit}s)"
                );
            }
        })
    });
}

criterion_group!(benches, bench_symex);
criterion_main!(benches);
