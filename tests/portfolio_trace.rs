//! Native concurrent trace recording (DESIGN.md §10): a `--workers 4`
//! portfolio run must produce a merged trace that is (a) byte-identical
//! across repeated runs, (b) span-for-span identical to the sequential
//! (`workers == 1`) trace for the winning candidate, and (c) reconciles
//! exactly with the reported `EngineStats` — no replay, the worker
//! buffers carry the real spans and counters.
//!
//! Everything is rand-free: the handcrafted corpus from the telemetry
//! tests plus two structurally unsatisfiable decoy candidates appended
//! *behind* the real ranking, so the portfolio overshoots past the
//! winner and exercises the `portfolio.overshoot.` merge path.

use statsym::concrete::{ExecutionLog, InputValue, Location, Measure, VarId, VarRole, VmConfig};
use statsym::core::pipeline::{StatSym, StatSymConfig, StatSymReport};
use statsym::core::{AnalysisReport, CandidatePath, PathNode, PredOp, Predicate};
use statsym::sir::Module;
use statsym::telemetry::{
    names, parse_trace_strict, Clock, FieldValue, FileRecorder, SharedBuf, TraceEvent,
    TraceSummary, NOOP,
};

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

fn module() -> Module {
    statsym::sir::lower(&statsym::minic::parse_program(SRC).unwrap()).unwrap()
}

fn corpus(module: &Module) -> Vec<ExecutionLog> {
    let mut logs = Vec::new();
    for len in [0usize, 2, 4, 6, 7, 9, 11, 12] {
        let name: Vec<u8> = std::iter::repeat_n(b'a', len).collect();
        let inputs = [
            ("mode".to_string(), InputValue::Int(len as i64 - 5)),
            ("name".to_string(), InputValue::Str(name)),
        ]
        .into_iter()
        .collect();
        let run = statsym::concrete::run_logged_traced(
            module,
            &inputs,
            1.0,
            0,
            VmConfig::default(),
            &NOOP,
        )
        .unwrap();
        logs.push(run.log);
    }
    logs
}

/// A candidate whose single node injects a structurally unsatisfiable
/// predicate: every state reaching `convert` suspends, so the attempt
/// burns real engine work without ever ranking above the true winner.
fn decoy_candidate() -> CandidatePath {
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

/// The shared analysis: real ranking first, two decoys appended behind
/// it so worker counts > 1 overshoot past the rank-0 winner.
fn analysis_with_overshoot(module: &Module) -> AnalysisReport {
    let logs = corpus(module);
    let mut analysis = StatSym::default().analyze(&logs);
    let paths = &mut analysis.candidates.as_mut().expect("candidates").paths;
    paths.push(decoy_candidate());
    paths.push(decoy_candidate());
    assert!(paths.len() >= 3, "need overshoot candidates");
    analysis
}

/// Deterministic portfolio config: no cancellation races, no shared
/// solver cache, so worker buffers are scheduling-independent.
fn deterministic_config(workers: usize) -> StatSymConfig {
    StatSymConfig {
        workers,
        cancel_on_found: false,
        share_cache: false,
        ..StatSymConfig::default()
    }
}

/// Runs the guided-execution stage traced into a byte sink.
fn traced_run(
    module: &Module,
    analysis: &AnalysisReport,
    config: StatSymConfig,
) -> (Vec<u8>, StatSymReport) {
    let buf = SharedBuf::new();
    let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    let report = StatSym::new(config).run_with_analysis_traced(module, analysis.clone(), &rec);
    rec.finish().unwrap();
    (buf.contents(), report)
}

fn counter(events: &[TraceEvent], name: &str) -> u64 {
    events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn merged_workers4_trace_is_byte_identical_across_runs() {
    let m = module();
    let analysis = analysis_with_overshoot(&m);
    let (a, ra) = traced_run(&m, &analysis, deterministic_config(4));
    let (b, rb) = traced_run(&m, &analysis, deterministic_config(4));
    assert!(ra.found.is_some());
    assert_eq!(ra.candidate_used, rb.candidate_used);
    assert!(!a.is_empty());
    assert_eq!(a, b, "merged portfolio traces must be byte-identical");
    // And structurally valid: balanced spans, unique ids.
    parse_trace_strict(&String::from_utf8(a).unwrap()).expect("strict parse");
}

/// The winning candidate's subtree as `(kind, name, relative tick)`
/// triples — the span-for-span shape, independent of absolute ids.
fn winner_subtree(events: &[TraceEvent]) -> Vec<(String, String, u64)> {
    let mut names_by_id = std::collections::HashMap::new();
    let mut out = Vec::new();
    let mut root: Option<(u64, u64)> = None; // (id, t0)
    let mut depth = 0usize;
    for ev in events {
        match ev {
            TraceEvent::SpanOpen { t, id, name, .. } => {
                names_by_id.insert(*id, name.clone());
                if root.is_none() && name == names::CANDIDATE_ATTEMPT {
                    root = Some((*id, *t));
                }
                if let Some((_, t0)) = root {
                    depth += 1;
                    out.push(("open".into(), name.clone(), t - t0));
                }
            }
            TraceEvent::SpanClose { t, id } => {
                if let Some((rid, t0)) = root {
                    let name = names_by_id.get(id).cloned().unwrap_or_default();
                    out.push(("close".into(), name, t - t0));
                    depth -= 1;
                    if *id == rid {
                        assert_eq!(depth, 0);
                        return out;
                    }
                }
            }
            TraceEvent::Event { t, name, .. } => {
                if let Some((_, t0)) = root {
                    out.push(("event".into(), name.clone(), t - t0));
                }
            }
            _ => {}
        }
    }
    panic!("no closed candidate.attempt span in trace");
}

#[test]
fn workers4_winner_reconciles_span_for_span_with_sequential() {
    let m = module();
    let analysis = analysis_with_overshoot(&m);
    let (seq_bytes, seq) = traced_run(&m, &analysis, deterministic_config(1));
    let (par_bytes, par) = traced_run(&m, &analysis, deterministic_config(4));

    // Identical result: same winner, same vulnerable input.
    assert_eq!(par.candidate_used, seq.candidate_used);
    let (sf, pf) = (seq.found.as_ref().unwrap(), par.found.as_ref().unwrap());
    assert_eq!(pf.inputs, sf.inputs);
    assert_eq!(pf.trace, sf.trace);

    let seq_events = parse_trace_strict(&String::from_utf8(seq_bytes).unwrap()).unwrap();
    let par_events = parse_trace_strict(&String::from_utf8(par_bytes).unwrap()).unwrap();

    // The winner's merged buffer replays the exact span/event shape the
    // sequential loop recorded live, tick for tick.
    assert_eq!(winner_subtree(&par_events), winner_subtree(&seq_events));

    // Winning-attempt engine counters agree between the two traces: the
    // sequential trace stops at the winner, and in the portfolio trace
    // the losers' work lives only under portfolio.overshoot.*.
    for name in [
        names::SYMEX_STEPS,
        names::SYMEX_FORKS,
        names::SYMEX_PATHS_EXPLORED,
        names::SYMEX_STATES_CREATED,
        names::SOLVER_QUERIES,
        names::SOLVER_SAT,
        names::SOLVER_UNSAT,
        names::SOLVER_NODES,
    ] {
        assert_eq!(
            counter(&par_events, name),
            counter(&seq_events, name),
            "counter {name}"
        );
    }
}

#[test]
fn inspect_summary_reconciles_with_portfolio_report() {
    let m = module();
    let analysis = analysis_with_overshoot(&m);
    let (bytes, report) = traced_run(&m, &analysis, deterministic_config(4));
    let events = parse_trace_strict(&String::from_utf8(bytes).unwrap()).unwrap();
    let s = TraceSummary::from_events(&events);

    // Engine counters in the merged trace are exactly the sums over the
    // reported attempts — recorded natively by the workers, not
    // replayed from stats.
    let sum = |f: fn(&statsym::symex::EngineStats) -> u64| -> u64 {
        report.attempts.iter().map(|a| f(&a.stats)).sum()
    };
    assert_eq!(s.counter(names::SYMEX_STEPS), sum(|st| st.exec.steps));
    assert_eq!(s.counter(names::SYMEX_FORKS), sum(|st| st.exec.forks));
    assert_eq!(
        s.counter(names::SYMEX_PATHS_EXPLORED),
        sum(|st| st.paths_explored)
    );
    assert_eq!(
        s.counter(names::SOLVER_QUERIES),
        sum(|st| st.solver.queries)
    );
    assert_eq!(s.counter(names::SOLVER_SAT), sum(|st| st.solver.sat));
    assert_eq!(s.counter(names::SOLVER_UNSAT), sum(|st| st.solver.unsat));

    // Overshoot work is present but quarantined under the prefix, and
    // its steps agree with the portfolio.attempt overshoot events.
    let overshoot_steps: u64 = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Event { name, fields, .. } if name == names::PORTFOLIO_ATTEMPT => fields
                .iter()
                .find(|(k, _)| k == "steps")
                .and_then(|(_, v)| match v {
                    FieldValue::Uint(v) => Some(*v),
                    _ => None,
                }),
            _ => None,
        })
        .sum();
    assert!(overshoot_steps > 0, "decoys must actually run");
    let prefixed = format!(
        "{}{}",
        names::PORTFOLIO_OVERSHOOT_PREFIX,
        names::SYMEX_STEPS
    );
    assert_eq!(s.counter(&prefixed), overshoot_steps);

    // Per-callsite solver profile made it through the merge.
    assert!(
        s.counter_opt("solver.site.feasibility.queries").is_some(),
        "profiling hooks recorded per-site counters"
    );
    // Worker count is clamped to the number of candidate paths.
    let n_paths = analysis.candidates.as_ref().unwrap().paths.len() as u64;
    assert_eq!(s.counter(names::PORTFOLIO_WORKERS), n_paths.min(4));
    // share_cache = false: the shared cache reports zero consults.
    assert_eq!(s.counter(names::PORTFOLIO_CACHE_HITS), 0);
    assert_eq!(s.counter(names::PORTFOLIO_CACHE_MISSES), 0);
}

/// The schedule-independent attribution/calibration projection of a
/// trace: canonical `attr.*` totals, canonical calibration records and
/// gauges, and the winner attempt's query provenance stripped of
/// timestamps (splice offsets shift `t`; everything else is pinned).
type AttrProjection = (
    Vec<(String, [u64; 6])>,
    Vec<(u64, i64, u64, u64, u64, u64, u64, bool)>,
    Option<i64>,
    Option<i64>,
    Vec<(u64, String, String, String, String, u64, u64)>,
);

fn attr_projection(events: &[TraceEvent], winner_rank: u64) -> AttrProjection {
    let s = TraceSummary::from_events(events);
    let attr = s.attr_locs().into_iter().collect();
    let calib = s
        .calib
        .iter()
        .map(|c| {
            (
                c.rank,
                c.score_milli,
                c.path_len,
                c.steps,
                c.forks,
                c.snodes,
                c.solver_us,
                c.found,
            )
        })
        .collect();
    let queries = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Query {
                sid,
                loc,
                rank,
                site,
                verdict,
                cache,
                nodes,
                us,
                ..
            } if *rank == winner_rank => Some((
                *sid,
                loc.clone(),
                site.clone(),
                verdict.clone(),
                cache.clone(),
                *nodes,
                *us,
            )),
            _ => None,
        })
        .collect();
    (
        attr,
        calib,
        s.gauge(names::CALIB_WINNER_RANK),
        s.gauge(names::CALIB_RANK_COST_CORR),
        queries,
    )
}

#[test]
fn attribution_and_calibration_are_identical_across_worker_counts() {
    let m = module();
    let analysis = analysis_with_overshoot(&m);
    let project = |workers: usize| -> AttrProjection {
        let mut cfg = deterministic_config(workers);
        cfg.engine.attribution = true;
        cfg.engine.provenance = true;
        let (bytes, report) = traced_run(&m, &analysis, cfg);
        assert!(report.found.is_some(), "workers={workers}");
        let events = parse_trace_strict(&String::from_utf8(bytes).unwrap()).unwrap();
        attr_projection(&events, 1)
    };
    let base = project(1);
    // The projection is non-trivial: real attribution rows, a winner
    // calibration record, and provenance-stamped queries.
    assert!(!base.0.is_empty(), "attr.* counters expected");
    assert_eq!(base.1.len(), 1, "one sequential-equivalent attempt");
    assert_eq!(base.1[0].0, 1, "winner record carries rank 1");
    assert!(base.1[0].7, "winner record marks found");
    assert_eq!(base.2, Some(1), "winner-rank gauge");
    assert!(!base.4.is_empty(), "query events expected");
    let attributed: u64 = base.0.iter().map(|(_, d)| d[0]).sum();
    assert!(attributed > 0, "attributed steps expected");
    for w in [2usize, 4] {
        assert_eq!(
            project(w),
            base,
            "attribution/calibration diverged at {w} workers"
        );
    }
}

#[test]
fn cancellation_run_still_parses_and_reconciles() {
    let m = module();
    let analysis = analysis_with_overshoot(&m);
    // Default racy mode: cancellation on, shared cache on. The result
    // must still match the sequential one and the trace must stay
    // structurally valid with counters reconciling attempt-for-attempt.
    let cfg = StatSymConfig {
        workers: 4,
        ..StatSymConfig::default()
    };
    let (bytes, report) = traced_run(&m, &analysis, cfg);
    let seq = StatSym::default().run_with_analysis(&m, analysis.clone());
    assert_eq!(report.candidate_used, seq.candidate_used);
    assert_eq!(
        report.found.as_ref().map(|f| &f.inputs),
        seq.found.as_ref().map(|f| &f.inputs)
    );
    let events = parse_trace_strict(&String::from_utf8(bytes).unwrap()).expect("strict parse");
    let s = TraceSummary::from_events(&events);
    let steps: u64 = report.attempts.iter().map(|a| a.stats.exec.steps).sum();
    assert_eq!(s.counter(names::SYMEX_STEPS), steps);
}
