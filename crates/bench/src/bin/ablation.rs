//! Ablation studies beyond the paper's tables:
//!
//! 1. **τ sensitivity** — the hop-divergence threshold trades robustness
//!    for search cost (paper §V-C discusses the trade-off but reports
//!    only τ=10). Swept on thttpd, the app with the deepest call chain.
//! 2. **Baseline scheduler ablation** — how each pure KLEE searcher
//!    (BFS, DFS, random, coverage-optimized) fares on the four apps
//!    under the same memory budget.
//! 3. **Compound predicates** — whether Liblit-style conjunctions add
//!    information on the paper workloads (they should not: single
//!    length thresholds already separate the classes).

use bench::{Table, TraceSink, DEFAULT_MEMORY_BUDGET, PAPER_SEED};
use benchapps::{generate_corpus_traced, CorpusSpec};
use statsym_core::pipeline::{StatSym, StatSymConfig};
use statsym_core::{CompoundSet, GuidanceConfig, GuidedHook, LogCorpus, PredicateSet};
use statsym_telemetry::Recorder;
use std::time::Duration;
use symex::{Engine, EngineConfig, RunOutcome, SchedulerKind};

fn main() {
    let mut sink = TraceSink::from_args();
    // The ablations sweep many configs; fingerprint the paper baseline
    // they all perturb. They drive engines one candidate at a time, so
    // of the execution flags only the engine ones apply (`--lineage`,
    // `--attr`, `--panic-after`).
    sink.configure(bench::statsym_config(), PAPER_SEED);
    tau_sensitivity(&sink);
    scheduler_ablation(&sink);
    compound_predicates(sink.recorder());
    sink.finish();
}

fn spec() -> CorpusSpec {
    CorpusSpec {
        n_correct: 100,
        n_faulty: 100,
        sampling_rate: 0.3,
        seed: PAPER_SEED,
    }
}

fn tau_sensitivity(sink: &TraceSink) {
    let rec = sink.recorder();
    let app = benchapps::thttpd();
    let logs = generate_corpus_traced(&app, spec(), rec);
    let mut table = Table::new(
        "Ablation A: hop threshold tau sensitivity (thttpd, 30% sampling)",
        &[
            "tau",
            "found",
            "candidate",
            "paths",
            "suspended",
            "time(ms)",
        ],
    );
    for tau in [0u32, 1, 2, 5, 10, 20] {
        let statsym = StatSym::new(StatSymConfig {
            guidance: GuidanceConfig {
                tau,
                ..GuidanceConfig::default()
            },
            ..StatSymConfig::default()
        });
        let analysis = statsym.analyze_traced(&logs, rec);
        let mut found = None;
        let mut paths = 0;
        let mut suspended = 0;
        let t0 = std::time::Instant::now();
        if let Some(cands) = &analysis.candidates {
            for (i, path) in cands.paths.iter().enumerate() {
                let hook = GuidedHook::new(path.clone(), statsym.config().guidance);
                let mut engine = Engine::with_hook(
                    &app.module,
                    sink.engine_config(EngineConfig {
                        scheduler: SchedulerKind::Priority,
                        time_budget: Some(Duration::from_secs(20)),
                        ..EngineConfig::default()
                    }),
                    Box::new(hook),
                );
                engine.set_recorder(rec);
                for (n, v) in &app.pins {
                    engine.pin_input(n.clone(), v.clone());
                }
                let report = engine.run();
                paths += report.stats.paths_explored;
                suspended += report.stats.exec.suspended;
                if report.outcome.is_found() {
                    found = Some(i);
                    break;
                }
            }
        }
        table.row(&[
            tau.to_string(),
            found.is_some().to_string(),
            found.map_or("-".into(), |i| i.to_string()),
            paths.to_string(),
            suspended.to_string(),
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    println!("{}", table.render());
}

fn scheduler_ablation(sink: &TraceSink) {
    let mut table = Table::new(
        "Ablation B: pure-baseline scheduler comparison (64 MiB modeled budget)",
        &["Benchmark", "BFS", "DFS", "Random", "Coverage"],
    );
    for app in benchapps::all_apps() {
        let mut cells = vec![app.name.to_string()];
        for scheduler in [
            SchedulerKind::Bfs,
            SchedulerKind::Dfs,
            SchedulerKind::Random { seed: PAPER_SEED },
            SchedulerKind::Coverage,
        ] {
            let mut engine = Engine::new(
                &app.module,
                sink.engine_config(EngineConfig {
                    scheduler,
                    memory_budget: DEFAULT_MEMORY_BUDGET,
                    time_budget: Some(Duration::from_secs(30)),
                    ..EngineConfig::default()
                }),
            );
            engine.set_recorder(sink.recorder());
            for (n, v) in &app.pins {
                engine.pin_input(n.clone(), v.clone());
            }
            let report = engine.run();
            cells.push(match report.outcome {
                RunOutcome::Found(_) => format!("found/{}", report.stats.paths_explored),
                RunOutcome::Exhausted(r) => format!("fail({r})"),
                RunOutcome::Completed => "completed".into(),
            });
        }
        table.row(&cells);
    }
    println!("{}", table.render());
}

fn compound_predicates(rec: &dyn Recorder) {
    let mut table = Table::new(
        "Ablation C: compound predicates (gain over best single threshold)",
        &["Benchmark", "#compounds", "best gain", "best single"],
    );
    for app in benchapps::all_apps() {
        let logs = generate_corpus_traced(&app, spec(), rec);
        let corpus = LogCorpus::build(&logs);
        let simple = PredicateSet::build_traced(&corpus, rec);
        let compound = CompoundSet::build(&logs, &simple, 4);
        let best_single = simple.ranked.first().map(|p| p.score).unwrap_or(0.0);
        let (n, gain) = (
            compound.ranked.len(),
            compound.ranked.first().map(|c| c.gain()).unwrap_or(0.0),
        );
        table.row(&[
            app.name.to_string(),
            n.to_string(),
            format!("{gain:.3}"),
            format!("{best_single:.3}"),
        ]);
    }
    println!("{}", table.render());
}
