//! Portfolio scaling bench: the candidate loop at one worker vs. several
//! on a late-ranked-hit workload, emitting `BENCH_portfolio.json`.
//!
//! The workload prepends `DECOYS` hopeless candidates ahead of the real
//! ranking: each injects the *inverted* length separator at the fault
//! function's entry (`len(buffer) < σ` instead of `> σ`), confining
//! exploration to the sub-threshold input space. That space is
//! exponentially large (every char forks the toupper branch), the
//! faulting branch is suspended on the soft-constraint conflict, and the
//! attempt deterministically exhausts its step budget without finding.
//! The decoys overlap heavily, so the run's verdict memo answers most of
//! their solver queries at every worker count: that cross-candidate
//! reuse is work elimination, and the one-worker baseline gets it too.
//! What `speedup` reports on top of it is the portfolio's concurrency
//! against that baseline; every worker count returns the identical
//! result.
//!
//! Pass `--out <path>` to redirect the JSON report (default
//! `BENCH_portfolio.json` in the current directory), `--decoys <n>` to
//! shrink or grow the workload, and the shared trace flags (`--trace
//! <path>`, `--clock steps|wall`, `--workers <n>`, `--lineage`,
//! `--attr`, `--no-share-cache`) to export a JSONL trace — with
//! `--workers` the sweep collapses to that single count, which is how
//! CI runs a small traced portfolio workload.

use bench::{statsym_config, TraceSink, PAPER_SEED};
use benchapps::{generate_corpus, CorpusSpec};
use concrete::Measure;
use statsym_core::pipeline::{StatSym, StatSymConfig};
use statsym_core::{AnalysisReport, CandidatePath, GuidanceConfig, PathNode, PredOp};
use std::time::Instant;
use symex::EngineConfig;

/// Hopeless candidates ranked ahead of the real ones.
const DECOYS: usize = 6;
/// Per-candidate step budget: decoys exhaust it, the winner does not.
const MAX_STEPS: u64 = 60_000;
/// Worker counts benchmarked against the one-worker loop.
const WORKER_COUNTS: [usize; 3] = [2, 4, 8];

fn config(workers: usize, sink: &TraceSink) -> StatSymConfig {
    let base = statsym_config();
    StatSymConfig {
        workers,
        share_cache: sink.share_cache(),
        engine: EngineConfig {
            max_steps: MAX_STEPS,
            lineage: sink.lineage(),
            attribution: sink.attr(),
            provenance: sink.attr(),
            panic_after: sink.panic_after(),
            ..base.engine
        },
        // The pinned pre-fault prefix (pattern matching over concrete
        // lines) emits many function events; a large τ keeps decoy
        // states alive until they reach the poisoned fault region.
        guidance: GuidanceConfig {
            tau: 1_000_000,
            ..base.guidance
        },
        ..base
    }
}

/// A candidate whose single node inverts the analysis' top length
/// separator at the fault function's entry: the injected soft constraint
/// `len(buffer) < σ` suspends the faulting branch and steers the whole
/// attempt into the exponential sub-threshold subspace, which cannot be
/// drained within the step budget.
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

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut sink = TraceSink::extract(&mut args);
    let mut out = String::from("BENCH_portfolio.json");
    let mut decoys = DECOYS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = p.clone(),
                None => {
                    eprintln!("error: --out requires a file path");
                    std::process::exit(2);
                }
            },
            "--decoys" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) => decoys = n,
                _ => {
                    eprintln!("error: --decoys requires a non-negative integer");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!(
                    "usage: [--out <path>] [--decoys <n>] \
                     [--trace <path>] [--clock steps|wall] [--workers <n>] [--lineage] \
                     [--attr] [--no-share-cache] [--history <dir>] [--crash-dir <dir>] \
                     [--panic-after <steps>]"
                );
                std::process::exit(2);
            }
        }
    }
    // An explicit --workers collapses the sweep to that single count —
    // the shape CI uses for its small traced workload.
    let worker_counts: Vec<usize> = match sink.explicit_workers() {
        Some(w) => vec![w],
        None => WORKER_COUNTS.to_vec(),
    };
    // Manifest/crash-bundle identity: fingerprint the sequential-shape
    // config — scheduling canonicalization makes the worker count moot.
    let fingerprint_cfg = config(1, &sink);
    sink.set_manifest_meta(
        PAPER_SEED,
        &statsym_core::pipeline::config_fingerprint(&fingerprint_cfg),
        &format!("{fingerprint_cfg:#?}"),
    );
    let sink = sink;
    let rec = sink.recorder();

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
    let mut analysis = StatSym::new(config(1, &sink)).analyze(&logs);
    let d = decoy(&analysis);
    let paths = &mut analysis.candidates.as_mut().expect("candidates").paths;
    for _ in 0..decoys {
        paths.insert(0, d.clone());
    }
    let n_candidates = paths.len();

    // One-worker baseline: the same candidate loop on the caller's
    // thread, with the same run-scoped verdict memo.
    let seq_analysis = analysis.clone();
    let seq_start = Instant::now();
    let seq = StatSym::new(config(1, &sink)).run_with_analysis_pinned_traced(
        &app.module,
        seq_analysis,
        &app.pins,
        rec,
    );
    let seq_wall = seq_start.elapsed().as_secs_f64();
    assert_eq!(
        seq.candidate_used,
        Some(decoys),
        "the first real candidate must win"
    );

    println!(
        "portfolio scaling bench: {} ({n_candidates} candidates, {decoys} decoys)",
        app.name
    );
    println!(
        "  one worker: {seq_wall:.3}s, winner rank {decoys}, verdict memo {}/{} hits",
        seq.cache.hits,
        seq.cache.hits + seq.cache.misses
    );

    let mut rows = Vec::new();
    for workers in worker_counts {
        let run_analysis = analysis.clone();
        let start = Instant::now();
        let report = StatSym::new(config(workers, &sink)).run_with_analysis_pinned_traced(
            &app.module,
            run_analysis,
            &app.pins,
            rec,
        );
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(
            report.candidate_used,
            Some(decoys),
            "portfolio must select the same winner"
        );
        let cache = report.cache;
        let consults = cache.hits + cache.misses;
        let hit_rate = if consults == 0 {
            0.0
        } else {
            cache.hits as f64 / consults as f64
        };
        let speedup = seq_wall / wall;
        println!(
            "  workers {workers}: {wall:.3}s, speedup {speedup:.2}x, \
             verdict memo {}/{consults} hits ({:.1}%)",
            cache.hits,
            100.0 * hit_rate
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"wall_s\": {wall:.4}, \"speedup\": {speedup:.3}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"cache_stores\": {}, \
             \"cache_entries\": {}, \"cache_contention\": {}, \"hit_rate\": {hit_rate:.4}}}",
            cache.hits, cache.misses, cache.stores, cache.entries, cache.contention
        ));
    }

    let json = format!(
        "{{\n  \"app\": \"{}\",\n  \"seed\": {PAPER_SEED},\n  \"decoys\": {decoys},\n  \
         \"candidates\": {n_candidates},\n  \"max_steps\": {MAX_STEPS},\n  \
         \"winner_rank\": {decoys},\n  \"sequential_wall_s\": {seq_wall:.4},\n  \
         \"parallel\": [\n{}\n  ]\n}}\n",
        app.name,
        rows.join(",\n")
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("report written to {out}");
    sink.finish();
}
