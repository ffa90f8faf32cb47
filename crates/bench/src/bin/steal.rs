//! Steal-mode scaling bench: breaks the portfolio's 2-worker plateau
//! with the work-stealing intra-candidate executor on top of the
//! solver's independence slicing, emitting `BENCH_steal.json`.
//!
//! Two workloads:
//!
//! * **grep late-ranked hit** — the `BENCH_portfolio.json` workload
//!   (decoy candidates ranked ahead of the real one). The portfolio
//!   plateaus near the slowest single attempt because candidate-level
//!   parallelism is exhausted; the sweep here moves surplus workers
//!   inside the engines as state workers.
//! * **fork-heavy loop** — a single engine on a symbolically-bounded
//!   loop with variable-disjoint constraint families, sweeping the
//!   work-stealing executor's `state_workers` 1→8. The timed runs
//!   report the executor-vs-solver wall breakdown and the
//!   `solver.indep.*` counters; the traced runs
//!   assert byte-identical traces at every swept worker count.
//!
//! Pass `--out <path>` to redirect the JSON report (default
//! `BENCH_steal.json`), `--sweep 1,2,4,8` to choose worker counts,
//! `--decoys <n>` to resize the grep workload, `--repeat <n>` for
//! best-of-n timing, and `--dump-traces <dir>` to write the
//! fork-heavy rendered trace per worker count (CI byte-compares them
//! with `cmp`).

use bench::{statsym_config, PAPER_SEED};
use benchapps::{generate_corpus, CorpusSpec};
use concrete::Measure;
use solver::SolverConfig;
use statsym_core::pipeline::{StatSym, StatSymConfig};
use statsym_core::portfolio::run_portfolio;
use statsym_core::{AnalysisReport, CandidatePath, GuidanceConfig, PathNode, PredOp};
use statsym_telemetry::{render_trace, Clock, MemRecorder, NOOP};
use std::time::Instant;
use symex::{Engine, EngineConfig, EngineStats, RunOutcome};

/// Hopeless candidates ranked ahead of the real ones.
const DECOYS: usize = 6;
/// Per-candidate step budget: decoys exhaust it, the winner does not.
const MAX_STEPS: u64 = 60_000;
/// Default sweep over worker counts.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The fork-heavy loop workload: a symbolically-bounded loop (every
/// iteration forks on the bound), two variable-disjoint branch families
/// inside the body (slicing splits their conjunctions into independent
/// components), and an infeasible branch (`a > 60` under `a < 50`)
/// that every iteration refutes again. Fault-free, so every run drains
/// the full path space and the measured work is schedule-independent.
const FORK_HEAVY: &str = r#"
    fn main() {
        let n: int = input_int("n");
        let a: int = input_int("a");
        let b: int = input_int("b");
        let m: int = n;
        if (m > 7) { m = 7; }
        let acc: int = 0;
        let i: int = 0;
        if (a < 50) {
            while (i < m) {
                if (a + i > 40) { acc = acc + 1; } else { acc = acc + 2; }
                if (b - i < 3) { acc = acc + 3; }
                if (a > 60) { acc = acc + 99; }
                i = i + 1;
            }
        }
        assert(acc < 1000);
    }
"#;

fn grep_config(workers: usize) -> StatSymConfig {
    let base = statsym_config();
    StatSymConfig {
        workers,
        auto_split_workers: true,
        engine: EngineConfig {
            max_steps: MAX_STEPS,
            solver: SolverConfig {
                time_queries: true,
                ..SolverConfig::default()
            },
            ..base.engine
        },
        // The pinned pre-fault prefix emits many function events; a
        // large τ keeps decoy states alive until they reach the
        // poisoned fault region.
        guidance: GuidanceConfig {
            tau: 1_000_000,
            ..base.guidance
        },
        ..base
    }
}

/// A candidate inverting the analysis' top length separator at the
/// fault function's entry (see `bin/portfolio.rs` for the rationale).
fn decoy(analysis: &AnalysisReport) -> CandidatePath {
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

/// Sums the executor-vs-solver wall split over a run's engine stats:
/// `solver_us` is measured inside the solver (`time_queries`), the
/// executor share is everything else.
fn breakdown(wall_us: u64, stats: &[&EngineStats]) -> (u64, u64) {
    let solver_us: u64 = stats.iter().map(|s| s.solver.query_us).sum();
    (wall_us.saturating_sub(solver_us), solver_us)
}

struct Row {
    workers: usize,
    wall_s: f64,
    executor_us: u64,
    solver_us: u64,
    indep_queries: u64,
    indep_components: u64,
    indep_comp_hits: u64,
}

impl Row {
    fn json(&self, label: &str, baseline_s: f64) -> String {
        format!(
            "    {{\"{label}\": {}, \"wall_s\": {:.4}, \"speedup\": {:.3}, \
             \"executor_us\": {}, \"solver_us\": {}, \
             \"indep_queries\": {}, \"indep_components\": {}, \"indep_comp_hits\": {}}}",
            self.workers,
            self.wall_s,
            baseline_s / self.wall_s,
            self.executor_us,
            self.solver_us,
            self.indep_queries,
            self.indep_components,
            self.indep_comp_hits,
        )
    }
}

fn sum_stats(stats: &[&EngineStats], wall_s: f64, workers: usize) -> Row {
    let wall_us = (wall_s * 1e6) as u64;
    let (executor_us, solver_us) = breakdown(wall_us, stats);
    let f = |get: fn(&EngineStats) -> u64| stats.iter().map(|s| get(s)).sum();
    Row {
        workers,
        wall_s,
        executor_us,
        solver_us,
        indep_queries: f(|s| s.solver.indep_queries),
        indep_components: f(|s| s.solver.indep_components),
        indep_comp_hits: f(|s| s.solver.indep_comp_hits),
    }
}

fn fork_heavy_engine_config(state_workers: usize, timed: bool) -> EngineConfig {
    EngineConfig {
        state_workers,
        solver: SolverConfig {
            time_queries: timed,
            ..SolverConfig::default()
        },
        ..EngineConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::from("BENCH_steal.json");
    let mut decoys = DECOYS;
    let mut sweep: Vec<usize> = SWEEP.to_vec();
    let mut repeat = 3usize;
    let mut dump_traces: Option<String> = None;
    let mut it = args.iter();
    let usage = || {
        eprintln!(
            "usage: [--out <path>] [--sweep <n,n,..>] [--decoys <n>] \
             [--repeat <n>] [--dump-traces <dir>]"
        );
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => usage(),
            },
            "--decoys" => match it.next().map(|n| n.parse()) {
                Some(Ok(n)) => decoys = n,
                _ => usage(),
            },
            "--repeat" => match it.next().map(|n| n.parse()) {
                Some(Ok(n)) if n > 0 => repeat = n,
                _ => usage(),
            },
            "--sweep" => match it.next() {
                Some(list) => {
                    let parsed: Result<Vec<usize>, _> =
                        list.split(',').map(|w| w.trim().parse()).collect();
                    match parsed {
                        Ok(ws) if !ws.is_empty() && ws.iter().all(|&w| w > 0) => sweep = ws,
                        _ => usage(),
                    }
                }
                None => usage(),
            },
            "--dump-traces" => match it.next() {
                Some(d) => dump_traces = Some(d.clone()),
                None => usage(),
            },
            _ => usage(),
        }
    }

    // ---- Workload 1: grep late-ranked hit -------------------------------
    let app = benchapps::grep();
    let logs = generate_corpus(
        &app,
        CorpusSpec {
            n_correct: 100,
            n_faulty: 100,
            sampling_rate: 1.0,
            seed: PAPER_SEED,
        },
    );
    let mut analysis = StatSym::new(grep_config(1)).analyze(&logs);
    let d = decoy(&analysis);
    let paths_mut = &mut analysis.candidates.as_mut().expect("candidates").paths;
    for _ in 0..decoys {
        paths_mut.insert(0, d.clone());
    }
    let n_candidates = paths_mut.len();

    // Plain sequential baseline — the exact configuration
    // BENCH_portfolio.json reports as `sequential_wall_s`, for
    // cross-report comparability (no query timing, no worker split).
    let plain = StatSymConfig {
        engine: EngineConfig {
            max_steps: MAX_STEPS,
            ..statsym_config().engine
        },
        guidance: GuidanceConfig {
            tau: 1_000_000,
            ..statsym_config().guidance
        },
        ..statsym_config()
    };
    let seq_start = Instant::now();
    let seq = StatSym::new(plain).run_with_analysis_pinned_traced(
        &app.module,
        analysis.clone(),
        &app.pins,
        &NOOP,
    );
    let seq_wall = seq_start.elapsed().as_secs_f64();
    assert_eq!(seq.candidate_used, Some(decoys), "the real candidate wins");

    println!(
        "steal scaling bench: {} ({n_candidates} candidates, {decoys} decoys, best of {repeat})",
        app.name
    );
    println!("  plain sequential: {seq_wall:.3}s, winner rank {decoys}");

    let mut grep_rows: Vec<Row> = Vec::new();
    for &w in &sweep {
        let mut best: Option<(f64, Vec<EngineStats>)> = None;
        for _ in 0..repeat {
            let cfg = grep_config(w);
            let start = Instant::now();
            let (used, stats) = if w == 1 {
                let r = StatSym::new(cfg).run_with_analysis_pinned_traced(
                    &app.module,
                    analysis.clone(),
                    &app.pins,
                    &NOOP,
                );
                (
                    r.candidate_used,
                    r.attempts.iter().map(|a| a.stats).collect(),
                )
            } else {
                let paths = &analysis.candidates.as_ref().expect("candidates").paths;
                let o = run_portfolio(&app.module, paths, &cfg, &app.pins, &NOOP);
                (
                    o.candidate_used,
                    o.attempts.iter().map(|a| a.stats).collect(),
                )
            };
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(used, Some(decoys), "workers={w}: same winner required");
            if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                best = Some((wall, stats));
            }
        }
        let (wall, stats) = best.expect("repeat >= 1");
        let refs: Vec<&EngineStats> = stats.iter().collect();
        let row = sum_stats(&refs, wall, w);
        println!(
            "  workers {w}: {wall:.3}s, speedup {:.2}x, solver {}us, sliced components {}",
            seq_wall / wall,
            row.solver_us,
            row.indep_components,
        );
        grep_rows.push(row);
    }

    // ---- Workload 2: fork-heavy loop, state-worker sweep ----------------
    let module = sir::lower(&minic::parse_program(FORK_HEAVY).expect("fork-heavy parses"))
        .expect("fork-heavy lowers");
    let mut fh_rows: Vec<Row> = Vec::new();
    let mut fh_base = 0.0f64;
    for &w in &sweep {
        let mut best: Option<(f64, EngineStats)> = None;
        for _ in 0..repeat {
            let mut eng = Engine::new(&module, fork_heavy_engine_config(w, true));
            let start = Instant::now();
            let report = eng.run();
            let wall = start.elapsed().as_secs_f64();
            assert!(
                matches!(report.outcome, RunOutcome::Completed),
                "fork-heavy must drain: {:?}",
                report.outcome
            );
            if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                best = Some((wall, report.stats));
            }
        }
        let (wall, stats) = best.expect("repeat >= 1");
        if w == sweep[0] {
            fh_base = wall;
        }
        let row = sum_stats(&[&stats], wall, w);
        assert!(
            row.indep_queries > 0 && row.indep_components > 0,
            "state_workers={w}: slicing must engage on the fork-heavy workload"
        );
        println!(
            "  fork-heavy state_workers {w}: {wall:.3}s, executor {}us, solver {}us, \
             indep components {}",
            row.executor_us, row.solver_us, row.indep_components,
        );
        fh_rows.push(row);
    }

    // Byte-identity across the sweep: same program, deterministic steps
    // clock, lineage + attribution + query provenance on, no
    // cross-state cache sharing — the rendered trace (events *and*
    // final counters) must not depend on the worker count.
    // `--dump-traces` persists them for CI's `cmp` gate.
    let mut reference: Option<(usize, String)> = None;
    for &w in &sweep {
        let rec = MemRecorder::new(Clock::steps());
        {
            let mut eng = Engine::new(
                &module,
                EngineConfig {
                    lineage: true,
                    attribution: true,
                    provenance: true,
                    ..fork_heavy_engine_config(w, false)
                },
            );
            eng.set_recorder(&rec);
            let _ = eng.run();
        }
        let trace = render_trace(&rec.finish());
        if let Some(dir) = &dump_traces {
            std::fs::create_dir_all(dir).expect("create trace dir");
            let path = format!("{dir}/fork_heavy_w{w}.trace");
            std::fs::write(&path, &trace).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        match &reference {
            None => reference = Some((w, trace)),
            Some((w0, base)) => assert_eq!(
                &trace, base,
                "fork-heavy trace at {w} state workers diverged from {w0}"
            ),
        }
    }
    println!(
        "  fork-heavy traces byte-identical across state workers {:?}",
        sweep
    );

    let grep_json: Vec<String> = grep_rows
        .iter()
        .map(|r| r.json("workers", seq_wall))
        .collect();
    let fh_json: Vec<String> = fh_rows
        .iter()
        .map(|r| r.json("state_workers", fh_base))
        .collect();
    let json = format!(
        "{{\n  \"app\": \"{}\",\n  \"seed\": {PAPER_SEED},\n  \"decoys\": {decoys},\n  \
         \"candidates\": {n_candidates},\n  \"max_steps\": {MAX_STEPS},\n  \
         \"winner_rank\": {decoys},\n  \"repeat\": {repeat},\n  \
         \"sequential_wall_s\": {seq_wall:.4},\n  \
         \"grep_sweep\": [\n{}\n  ],\n  \
         \"fork_heavy\": {{\n    \"traces_byte_identical\": true,\n    \"sweep\": [\n{}\n    ]\n  }}\n}}\n",
        app.name,
        grep_json.join(",\n"),
        fh_json.join(",\n"),
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("report written to {out}");
}
