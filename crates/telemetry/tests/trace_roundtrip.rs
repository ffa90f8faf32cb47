//! Byte-exactness of the JSONL trace format: a trace produced by a
//! recorder parses, and re-emitting the parsed events reproduces the
//! original bytes exactly (emit → parse → re-emit is the identity).

use statsym_telemetry::{
    parse_trace_strict, render_trace, Clock, FieldValue, FileRecorder, MemRecorder, Recorder,
    SharedBuf, TraceEvent,
};

/// Drives a recorder through every event kind the instrumentation
/// emits: nested spans, point events with all field types, counters,
/// gauges, and histogram observations.
fn exercise(rec: &dyn Recorder) {
    let run = rec.span_open("engine.run");
    rec.tick(10);
    let phase = rec.span_open("phase.skeleton");
    rec.event(
        "candidate.result",
        &[
            ("index", FieldValue::Uint(0)),
            ("delta", FieldValue::Int(-3)),
            ("note", FieldValue::Str("weird \"quotes\"\n and λ".into())),
        ],
    );
    rec.tick(5);
    rec.span_close(phase);
    rec.counter_add("solver.queries", 41);
    rec.counter_add("solver.queries", 1);
    rec.gauge_max("symex.peak_live_states", 7);
    rec.gauge_max("symex.peak_live_states", 4);
    rec.observe("symex.hop_divergence", 0);
    rec.observe("symex.hop_divergence", 3);
    rec.observe("symex.hop_divergence", 700);
    rec.span_close(run);
}

#[test]
fn file_trace_reemits_byte_identical() {
    let buf = SharedBuf::new();
    let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    exercise(&rec);
    rec.finish().unwrap();

    let original = String::from_utf8(buf.contents()).unwrap();
    let events = parse_trace_strict(&original).expect("trace must parse");
    let reemitted = render_trace(&events);
    assert_eq!(
        reemitted, original,
        "emit → parse → re-emit must be identity"
    );

    // And a second parse of the re-emitted text yields equal events.
    assert_eq!(parse_trace_strict(&reemitted).unwrap(), events);
}

#[test]
fn mem_and_file_recorders_agree_under_steps_clock() {
    let mem = MemRecorder::new(Clock::steps());
    exercise(&mem);
    let mem_events = mem.finish();

    let buf = SharedBuf::new();
    let file = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    exercise(&file);
    file.finish().unwrap();
    let file_events = parse_trace_strict(&String::from_utf8(buf.contents()).unwrap()).unwrap();

    assert_eq!(mem_events, file_events);
}

#[test]
fn two_identical_runs_are_byte_identical() {
    let mut texts = Vec::new();
    for _ in 0..2 {
        let buf = SharedBuf::new();
        let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
        exercise(&rec);
        rec.finish().unwrap();
        texts.push(buf.contents());
    }
    assert_eq!(texts[0], texts[1]);
}

#[test]
fn trace_starts_with_meta_and_ends_with_metrics() {
    let buf = SharedBuf::new();
    let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    exercise(&rec);
    rec.finish().unwrap();
    let events = parse_trace_strict(&String::from_utf8(buf.contents()).unwrap()).unwrap();

    assert!(matches!(
        &events[0],
        TraceEvent::Meta { clock, version: 1 } if clock == "steps"
    ));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Counter { name, value: 42 } if name == "solver.queries")));
    assert!(events.iter().any(
        |e| matches!(e, TraceEvent::Gauge { name, value: 7 } if name == "symex.peak_live_states")
    ));
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::Hist { name, count: 3, .. } if name == "symex.hop_divergence"
    )));
}
