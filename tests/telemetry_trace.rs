//! Telemetry integration: a traced pipeline run must produce a JSONL
//! trace that (a) parses and round-trips byte-identically, (b)
//! reconciles exactly with the `StatSymReport`/`EngineStats` returned by
//! the same run, and (c) renders a stable run report under the
//! deterministic step clock.
//!
//! Everything here is rand-free: a handcrafted corpus at sampling rate
//! 1.0 with the step-count clock makes the whole trace reproducible
//! byte for byte.

use statsym::concrete::{run_logged_traced, ExecutionLog, InputValue, VmConfig};
use statsym::core::pipeline::{StatSym, StatSymReport};
use statsym::sir::Module;
use statsym::telemetry::{
    names, parse_trace_strict, Clock, FileRecorder, Recorder, SharedBuf, TraceEvent, TraceSummary,
    NOOP,
};

/// The miniature polymorph from the pipeline tests: option-handling
/// noise plus an unchecked copy into a 6-byte stack buffer.
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

/// Deterministic corpus: names up to 6 bytes succeed, longer overflow.
/// Sampling rate 1.0 keeps every record without consulting the RNG.
fn corpus(module: &Module, rec: &dyn Recorder) -> Vec<ExecutionLog> {
    let mut logs = Vec::new();
    for len in [0usize, 2, 4, 6, 7, 9, 11, 12] {
        let name: Vec<u8> = std::iter::repeat_n(b'a', len).collect();
        let inputs = [
            ("mode".to_string(), InputValue::Int(len as i64 - 5)),
            ("name".to_string(), InputValue::Str(name)),
        ]
        .into_iter()
        .collect();
        let run = run_logged_traced(module, &inputs, 1.0, 0, VmConfig::default(), rec).unwrap();
        logs.push(run.log);
    }
    logs
}

/// Runs the traced pipeline into a byte sink; returns the trace bytes
/// and the report.
fn traced_run(module: &Module, logs: &[ExecutionLog]) -> (Vec<u8>, StatSymReport) {
    let buf = SharedBuf::new();
    let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    let report = StatSym::default().run_traced(module, logs, &rec);
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
fn trace_counters_reconcile_with_report() {
    let m = module();
    let logs = corpus(&m, &NOOP);
    let n_records: u64 = logs.iter().map(|l| l.records.len() as u64).sum();
    let (bytes, report) = traced_run(&m, &logs);
    assert!(report.found.is_some(), "pipeline finds the overflow");

    let text = String::from_utf8(bytes).unwrap();
    let events = parse_trace_strict(&text).expect("trace parses");

    // Engine counters: the trace accumulates per-run EngineStats across
    // candidate attempts, so sums must match exactly.
    let sum = |f: fn(&statsym::symex::EngineStats) -> u64| -> u64 {
        report.attempts.iter().map(|a| f(&a.stats)).sum()
    };
    assert_eq!(counter(&events, names::SYMEX_STEPS), sum(|s| s.exec.steps));
    assert_eq!(counter(&events, names::SYMEX_FORKS), sum(|s| s.exec.forks));
    assert_eq!(
        counter(&events, names::SYMEX_PRUNED),
        sum(|s| s.exec.pruned)
    );
    assert_eq!(
        counter(&events, names::SYMEX_SUSPENDED),
        sum(|s| s.exec.suspended)
    );
    assert_eq!(
        counter(&events, names::SYMEX_CONCRETIZATIONS),
        sum(|s| s.exec.concretizations)
    );
    assert_eq!(
        counter(&events, names::SYMEX_PATHS_EXPLORED),
        sum(|s| s.paths_explored)
    );
    assert_eq!(
        counter(&events, names::SYMEX_PATHS_COMPLETED),
        sum(|s| s.paths_completed)
    );
    assert_eq!(
        counter(&events, names::SYMEX_STATES_CREATED),
        sum(|s| s.states_created)
    );

    // Suspension causes partition the engine's suspended count.
    assert_eq!(
        counter(&events, names::SYMEX_SUSPEND_TAU)
            + counter(&events, names::SYMEX_SUSPEND_PREDICATE),
        sum(|s| s.exec.suspended)
    );

    // Solver counters: each attempt uses a fresh solver, so the traced
    // deltas sum to the per-attempt totals.
    assert_eq!(
        counter(&events, names::SOLVER_QUERIES),
        sum(|s| s.solver.queries)
    );
    assert_eq!(counter(&events, names::SOLVER_SAT), sum(|s| s.solver.sat));
    assert_eq!(
        counter(&events, names::SOLVER_UNSAT),
        sum(|s| s.solver.unsat)
    );
    assert_eq!(
        counter(&events, names::SOLVER_PROPAGATION_ROUNDS),
        sum(|s| s.solver.propagation_rounds)
    );
    assert_eq!(
        counter(&events, names::SOLVER_BACKTRACKS),
        sum(|s| s.solver.backtracks)
    );

    // Peaks surface as gauges (max across attempts).
    let peak_states = report
        .attempts
        .iter()
        .map(|a| a.stats.peak_live_states)
        .max()
        .unwrap() as i64;
    let gauge = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::Gauge { name, value } if name == names::SYMEX_PEAK_LIVE_STATES => {
                Some(*value)
            }
            _ => None,
        })
        .expect("peak gauge present");
    assert_eq!(gauge, peak_states);

    // Monitor counters: sampling rate 1.0 keeps every record.
    let mem = statsym::telemetry::MemRecorder::new(Clock::steps());
    let _ = corpus(&m, &mem);
    let mon_events = mem.finish();
    assert_eq!(counter(&mon_events, names::MONITOR_SAMPLED), n_records);
    assert_eq!(counter(&mon_events, names::MONITOR_DROPPED), 0);
}

#[test]
fn pipeline_trace_is_byte_identical_across_runs() {
    let m = module();
    let logs = corpus(&m, &NOOP);
    let (a, _) = traced_run(&m, &logs);
    let (b, _) = traced_run(&m, &logs);
    assert!(!a.is_empty());
    assert_eq!(a, b, "step-clock traces must be byte-identical");
}

#[test]
fn trace_reemits_byte_identical_after_parse() {
    let m = module();
    let logs = corpus(&m, &NOOP);
    let (bytes, _) = traced_run(&m, &logs);
    let text = String::from_utf8(bytes).unwrap();
    let events = parse_trace_strict(&text).unwrap();
    let reemitted: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
    assert_eq!(text, reemitted);
}

#[test]
fn run_report_matches_golden_file() {
    let m = module();
    let logs = corpus(&m, &NOOP);
    let (bytes, _) = traced_run(&m, &logs);
    let events = parse_trace_strict(&String::from_utf8(bytes).unwrap()).unwrap();
    let rendered = TraceSummary::from_events(&events).render();
    let golden = include_str!("golden/trace_report.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace_report.txt"),
            &rendered,
        )
        .unwrap();
        return;
    }
    assert_eq!(
        rendered, golden,
        "run report drifted from tests/golden/trace_report.txt; \
         re-bless with BLESS=1 cargo test --test telemetry_trace"
    );
}
