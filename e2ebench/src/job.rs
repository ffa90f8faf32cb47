//! One job: collect the log corpus, analyze it, run guided symbolic
//! execution, then check the verdict outside the timed region.
//!
//! [`run_job`] calls the pipeline's own entry points (`generate_corpus`,
//! `StatSym::analyze`, `run_with_analysis_pinned_traced`).
//! [`run_traced_job`] calls each layer's public functions in the order
//! `StatSym::analyze` calls them and times every call from outside.

use crate::workloads::{fault_function, Workload};
use benchapps::{generate_corpus, generate_corpus_traced, BenchApp, CorpusSpec};
use concrete::{ExecutionLog, Measure, Vm, VmConfig};
use statsym_core::detour::find_detours;
use statsym_core::pipeline::{AnalysisReport, StatSym, StatSymConfig, StatSymReport};
use statsym_core::{
    CandidatePath, CandidateSet, LogCorpus, PathNode, PredOp, PredicateSet, Skeleton,
    TransitionGraph,
};
use statsym_telemetry::{Recorder, NOOP};
use std::time::{Duration, Instant};

/// An app compiled by one set-up, with its documented fault function.
pub struct Prepared {
    app: BenchApp,
    fault_func: &'static str,
}

/// Builds the workload's apps (MiniC → SIR); returns them with the
/// compile wall time.
pub fn prepare(wl: &Workload) -> (Vec<Prepared>, f64) {
    let start = Instant::now();
    let apps: Vec<BenchApp> = wl.apps.iter().map(|build| build()).collect();
    let compile_s = start.elapsed().as_secs_f64();
    let prepared = apps
        .into_iter()
        .map(|app| Prepared {
            fault_func: fault_function(app.name),
            app,
        })
        .collect();
    (prepared, compile_s)
}

/// The exact work counts of one app's pipeline run. Every repetition of
/// a job must reproduce them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    pub paths: u64,
    pub attempts: u64,
    pub steps: u64,
    pub queries: u64,
    pub nodes: u64,
}

/// One app's pipeline run within a job.
pub struct AppRun {
    pub app: &'static str,
    pub sig: Signature,
    /// Why the verdict failed, if it did.
    pub failure: Option<String>,
    /// The analysis' ranked candidates, decoys excluded.
    pub ranked: Vec<CandidatePath>,
}

/// Per-job layer figures, summed over the job's apps. Counts are filled
/// by both job forms; times only by [`run_traced_job`], except
/// `attempt_s`, which the engine measures itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub corpus_s: f64,
    pub preprocess_s: f64,
    pub predicates_s: f64,
    pub mine_s: f64,
    pub search_s: f64,
    pub attempt_s: f64,
    pub query_s: f64,
    pub records: u64,
    pub predicates: u64,
    pub candidates: u64,
    pub winner_rank: u64,
    pub steps: u64,
    pub forks: u64,
    pub pruned: u64,
    pub suspended: u64,
    pub states_created: u64,
    pub peak_live_states: u64,
    pub queries: u64,
    pub nodes: u64,
    pub propagation_rounds: u64,
    pub cache_hits: u64,
}

impl Layers {
    /// The four analysis phases together.
    pub fn analysis_s(&self) -> f64 {
        self.preprocess_s + self.predicates_s + self.mine_s + self.search_s
    }
}

/// One job of the list.
pub struct JobRun {
    /// The corpus seed the job was derived from.
    pub seed: u64,
    /// Corpus collection + analysis + guided symex, over the job's apps.
    pub job_s: f64,
    /// Analysis + guided symex: from logs in hand to a verdict.
    pub verdict_s: f64,
    pub apps: Vec<AppRun>,
    pub layers: Layers,
}

impl JobRun {
    fn new(seed: u64) -> JobRun {
        JobRun {
            seed,
            job_s: 0.0,
            verdict_s: 0.0,
            apps: Vec::new(),
            layers: Layers::default(),
        }
    }

    pub fn signatures(&self) -> Vec<Signature> {
        self.apps.iter().map(|a| a.sig).collect()
    }

    pub fn failed(&self) -> bool {
        self.apps.iter().any(|a| a.failure.is_some())
    }

    /// Checks one app's finished run and folds its counts in. Untimed.
    fn finish_app(
        &mut self,
        p: &Prepared,
        logs: &[ExecutionLog],
        report: &StatSymReport,
        decoys: Option<usize>,
        cfg: &StatSymConfig,
    ) {
        let mut failure = verdict(p, report);
        if decoys.is_none() {
            failure = Some("no length separator at the failure point to build decoys".into());
        }
        let ranked = report
            .analysis
            .candidates
            .as_ref()
            .map_or(&[][..], |c| &c.paths[decoys.unwrap_or(0)..])
            .to_vec();

        let l = &mut self.layers;
        l.records += logs.iter().map(|log| log.records.len() as u64).sum::<u64>();
        l.predicates += report.analysis.predicates.ranked.len() as u64;
        l.candidates += ranked.len() as u64;
        l.winner_rank += report.candidate_used.map_or(0, |w| w as u64 + 1);
        let mut sig = Signature {
            paths: report.total_paths_explored(),
            attempts: report.attempts.len() as u64,
            steps: 0,
            queries: 0,
            nodes: 0,
        };
        for a in &report.attempts {
            // A wall-clock budget trip would make every count below
            // depend on machine speed.
            if let Some(limit) = cfg.engine.time_budget {
                assert!(
                    a.wall_time < limit,
                    "{} seed {}: candidate {} ran into the {limit:?} wall-clock budget, \
                     so its work counts are not deterministic",
                    p.app.name,
                    self.seed,
                    a.index
                );
            }
            let s = &a.stats;
            sig.steps += s.exec.steps;
            sig.queries += s.solver.queries;
            sig.nodes += s.solver.nodes;
            l.attempt_s += a.wall_time.as_secs_f64();
            l.query_s += s.solver.query_us as f64 * 1e-6;
            l.forks += s.exec.forks;
            l.pruned += s.exec.pruned;
            l.suspended += s.exec.suspended;
            l.states_created += s.states_created;
            l.peak_live_states = l.peak_live_states.max(s.peak_live_states as u64);
            l.propagation_rounds += s.solver.propagation_rounds;
            l.cache_hits += s.solver.cache_hits;
        }
        l.steps += sig.steps;
        l.queries += sig.queries;
        l.nodes += sig.nodes;
        self.apps.push(AppRun {
            app: p.app.name,
            sig,
            failure,
            ranked,
        });
    }
}

/// The paper's corpus: 100 correct and 100 faulty logs per app.
fn spec(wl: &Workload, seed: u64) -> CorpusSpec {
    CorpusSpec {
        n_correct: 100,
        n_faulty: 100,
        sampling_rate: wl.sampling,
        seed,
    }
}

/// Runs one job through the pipeline's entry points, recording into
/// `rec` (the no-op recorder for timed jobs).
pub fn run_job(
    wl: &Workload,
    cfg: &StatSymConfig,
    apps: &[Prepared],
    seed: u64,
    rec: &dyn Recorder,
) -> JobRun {
    let statsym = StatSym::new(*cfg);
    let mut job = JobRun::new(seed);
    for p in apps {
        let start = Instant::now();
        let logs = generate_corpus_traced(&p.app, spec(wl, seed), rec);
        let logs_in_hand = Instant::now();
        let mut analysis = statsym.analyze_traced(&logs, rec);
        let decoys = add_decoys(&mut analysis, wl.decoys);
        let report =
            statsym.run_with_analysis_pinned_traced(&p.app.module, analysis, &p.app.pins, rec);
        let end = Instant::now();
        job.job_s += (end - start).as_secs_f64();
        job.verdict_s += (end - logs_in_hand).as_secs_f64();
        job.finish_app(p, &logs, &report, decoys, cfg);
    }
    job
}

/// Runs one job calling each layer's public functions in turn, timing
/// every call from outside, with solver query timing switched on.
pub fn run_traced_job(wl: &Workload, cfg: &StatSymConfig, apps: &[Prepared], seed: u64) -> JobRun {
    let mut timed = *cfg;
    timed.engine.solver.time_queries = true;
    let statsym = StatSym::new(timed);
    let mut job = JobRun::new(seed);
    for p in apps {
        let mut lap = Lap(Instant::now());
        let logs = generate_corpus(&p.app, spec(wl, seed));
        let corpus_s = lap.next();
        let corpus = LogCorpus::build(&logs);
        let preprocess_s = lap.next();
        let predicates = PredicateSet::build(&corpus);
        let predicates_s = lap.next();
        let graph = TransitionGraph::mine(corpus.faulty_traces.iter(), cfg.mine);
        let mine_s = lap.next();
        let candidates = search(&corpus, &graph, &predicates, cfg);
        let search_s = lap.next();
        let analysis_s = preprocess_s + predicates_s + mine_s + search_s;
        let mut analysis = AnalysisReport {
            n_correct: corpus.n_correct,
            n_faulty: corpus.n_faulty,
            predicates,
            graph,
            candidates,
            failure_location: corpus.failure_location.clone(),
            analysis_time: Duration::from_secs_f64(analysis_s),
        };
        let decoys = add_decoys(&mut analysis, wl.decoys);
        let report =
            statsym.run_with_analysis_pinned_traced(&p.app.module, analysis, &p.app.pins, &NOOP);
        let symex_s = lap.next();

        job.job_s += corpus_s + analysis_s + symex_s;
        job.verdict_s += analysis_s + symex_s;
        let l = &mut job.layers;
        l.corpus_s += corpus_s;
        l.preprocess_s += preprocess_s;
        l.predicates_s += predicates_s;
        l.mine_s += mine_s;
        l.search_s += search_s;
        job.finish_app(p, &logs, &report, decoys, cfg);
    }
    job
}

/// Successive intervals of one stopwatch.
struct Lap(Instant);

impl Lap {
    fn next(&mut self) -> f64 {
        let now = Instant::now();
        let secs = (now - self.0).as_secs_f64();
        self.0 = now;
        secs
    }
}

/// Skeleton, detour and candidate search, with the same fallback to a
/// graph mined from all traces that `StatSym::analyze` uses.
fn search(
    corpus: &LogCorpus,
    graph: &TransitionGraph,
    preds: &PredicateSet,
    cfg: &StatSymConfig,
) -> Option<CandidateSet> {
    let failure = corpus.failure_location.as_ref()?;
    let skeleton = Skeleton::build(graph, preds, failure, cfg.skeleton).or_else(|| {
        let full = TransitionGraph::mine(
            corpus.faulty_traces.iter().chain(&corpus.correct_traces),
            cfg.mine,
        );
        Skeleton::build(&full, preds, failure, cfg.skeleton)
    })?;
    let detours = find_detours(graph, preds, &skeleton, cfg.detour);
    Some(CandidateSet::build(skeleton, detours, preds, cfg.candidate))
}

/// Ranks `n` decoys ahead of the real candidates. A decoy inverts the
/// analysis' top length separator at the failure point (`len < σ`),
/// which suspends the faulting branch and confines the attempt to the
/// sub-threshold input space until its step budget runs out. Returns
/// how many were added, or `None` when the analysis has no such
/// separator.
fn add_decoys(analysis: &mut AnalysisReport, n: usize) -> Option<usize> {
    if n == 0 {
        return Some(0);
    }
    let failure = analysis.failure_location.clone()?;
    let mut poison = analysis
        .predicates
        .ranked
        .iter()
        .find(|p| !p.is_degenerate() && p.loc == failure && p.var.measure == Measure::Length)?
        .clone();
    poison.op = PredOp::Lt;
    let decoy = CandidatePath {
        nodes: vec![PathNode {
            loc: failure,
            predicates: vec![poison],
        }],
        score: 9.0,
    };
    let paths = &mut analysis.candidates.as_mut()?.paths;
    paths.splice(0..0, std::iter::repeat_n(decoy, n));
    Some(n)
}

/// `None` when the run verified a fault in the app's documented fault
/// function whose witness replays as a fault there on the concrete VM;
/// otherwise why not.
fn verdict(p: &Prepared, report: &StatSymReport) -> Option<String> {
    let Some(found) = &report.found else {
        return Some(format!(
            "no fault found in {} attempts",
            report.attempts.len()
        ));
    };
    if found.fault.func != p.fault_func {
        return Some(format!(
            "fault in `{}`, documented in `{}`",
            found.fault.func, p.fault_func
        ));
    }
    match Vm::new(&p.app.module, VmConfig::default()).run(&found.inputs) {
        Ok(replay) => match replay.outcome.fault() {
            Some(f) if f.func == p.fault_func => None,
            Some(f) => Some(format!("witness replays as a fault in `{}`", f.func)),
            None => Some("witness does not replay as a fault".into()),
        },
        Err(e) => Some(format!("witness replay failed: {e:?}")),
    }
}
