//! Structured telemetry end to end: run the full StatSym pipeline with
//! a JSONL trace recorder on the deterministic step clock, then parse
//! the trace back and render the run report (phase spans, lifecycle
//! counters, solver histograms).
//!
//! Run with: `cargo run --example trace_run`

use statsym::concrete::run_logged_traced;
use statsym::core::pipeline::StatSym;
use statsym::telemetry::{parse_trace_strict, Clock, FileRecorder, TraceSummary};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The miniature polymorph from the pipeline tests: option-handling
    // noise plus an unchecked copy into a 6-byte stack buffer.
    let source = r#"
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
    let module = statsym::sir::lower(&statsym::minic::parse_program(source)?)?;

    // Deterministic handcrafted corpus: short names succeed, long names
    // overflow. Sampling rate 1.0 keeps every record.
    let mut logs = Vec::new();
    for len in [0usize, 2, 4, 6, 7, 9, 11, 12] {
        let name: Vec<u8> = std::iter::repeat_n(b'a', len).collect();
        let inputs = [
            (
                "mode".to_string(),
                statsym::concrete::InputValue::Int(len as i64 - 5),
            ),
            ("name".to_string(), statsym::concrete::InputValue::Str(name)),
        ]
        .into_iter()
        .collect();
        let run = run_logged_traced(
            &module,
            &inputs,
            1.0,
            0,
            statsym::concrete::VmConfig::default(),
            &statsym::telemetry::NOOP,
        )?;
        logs.push(run.log);
    }

    // Trace the whole pipeline on the step-count clock: a fixed corpus
    // yields a byte-reproducible trace file.
    let path = std::env::temp_dir().join("statsym_trace_run.jsonl");
    let rec = FileRecorder::create(&path, Clock::steps())?;
    let statsym = StatSym::default();
    let report = statsym.run_traced(&module, &logs, &rec);
    rec.finish()?;

    let found = report.found.as_ref().expect("pipeline finds the overflow");
    println!("fault: {}", found.fault);
    println!("candidate used: {:?}", report.candidate_used);
    println!("trace file: {}\n", path.display());

    // Round trip: parse the JSONL trace and render the run report.
    let text = std::fs::read_to_string(&path)?;
    let events = parse_trace_strict(&text)?;
    let summary = TraceSummary::from_events(&events);
    println!("{}", summary.render());

    // The trace reconciles with the in-process report.
    let explored: u64 = report.attempts.iter().map(|a| a.stats.paths_explored).sum();
    assert_eq!(summary.counter("symex.paths_explored"), explored);
    Ok(())
}
