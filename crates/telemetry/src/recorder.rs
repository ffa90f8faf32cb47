//! The [`Recorder`] trait and its three implementations.
//!
//! A recorder is passed *by reference* down the call stack — no
//! globals, no thread-locals — so the single-threaded determinism
//! guarantees of the engine (DESIGN.md §5) are untouched. All methods
//! take `&self`; implementations use interior mutability.
//!
//! * [`NoopRecorder`] — a ZST that discards everything; `enabled()`
//!   returns `false` so callers can skip field construction entirely.
//! * [`MemRecorder`] — buffers events in memory; `finish()` hands back
//!   the full event list (with the metrics snapshot appended).
//! * [`FileRecorder`] — streams canonical JSONL, one event per line,
//!   to any `Write` sink (usually a file opened via `create`).

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use crate::clock::{Clock, ClockMode};
use crate::event::{FieldValue, SpanId, TraceEvent};
use crate::metrics::Metrics;

/// Trace format version stamped into the meta event.
pub const TRACE_VERSION: u64 = 1;

/// One state-lineage transition handed to [`Recorder::state`]. The
/// recorder stamps the clock tick and (under a deterministic clock)
/// zeroes `solver_us`, exactly as [`Recorder::observe_wall`] suppresses
/// wall-clock values — so step-clock traces stay byte-reproducible.
#[derive(Debug, Clone, Copy)]
pub struct LineageEvent<'a> {
    /// Operation, one of [`crate::lineage_op::ALL`].
    pub op: &'a str,
    /// Trace-global state id, from [`Recorder::alloc_state_id`].
    pub id: u64,
    /// Parent state id (0 only for roots).
    pub parent: u64,
    /// SIR location (`function:bN`) of the transition.
    pub loc: &'a str,
    /// Hops from the candidate path at emission.
    pub hops: u32,
    /// Path depth at emission.
    pub depth: u32,
    /// Executor steps attributed since the last lineage event.
    pub steps: u64,
    /// Solver search-tree nodes attributed since the last lineage event.
    pub snodes: u64,
    /// Solver wall-µs attributed since the last lineage event.
    pub solver_us: u64,
}

/// Provenance of one solver query, handed to [`Recorder::query`] by the
/// solver dispatch layer. The recorder stamps the clock tick and (under
/// a deterministic clock) zeroes `us`, exactly as it zeroes
/// [`LineageEvent::solver_us`] — so step-clock traces stay
/// byte-reproducible.
#[derive(Debug, Clone, Copy)]
pub struct QueryEvent<'a> {
    /// Engine-local id of the state that issued the query.
    pub sid: u64,
    /// Source location (`function:line`) of the triggering instruction.
    pub loc: &'a str,
    /// Candidate rank of the enclosing attempt.
    pub rank: u32,
    /// Solver callsite (`feasibility`, `fault_model`, …).
    pub site: &'a str,
    /// Verdict, one of [`crate::query_disposition::VERDICTS`].
    pub verdict: &'a str,
    /// Cache disposition, one of [`crate::query_disposition::ALL`].
    pub cache: &'a str,
    /// Solver search-tree nodes this query visited.
    pub nodes: u64,
    /// Wall-clock µs this query took.
    pub us: u64,
}

/// The instrumentation sink threaded through the pipeline.
pub trait Recorder {
    /// False for the no-op recorder: callers may skip building event
    /// fields altogether when this is false.
    fn enabled(&self) -> bool;

    /// Opens a span; the returned id must be passed to
    /// [`Recorder::span_close`].
    fn span_open(&self, name: &str) -> SpanId;

    /// Closes a span previously opened with [`Recorder::span_open`].
    fn span_close(&self, id: SpanId);

    /// Emits a point event with structured fields.
    fn event(&self, name: &str, fields: &[(&str, FieldValue)]);

    /// Adds `delta` to a monotone counter.
    fn counter_add(&self, name: &str, delta: u64);

    /// Raises a gauge to `v` if larger (peak tracking).
    fn gauge_max(&self, name: &str, v: i64);

    /// Records a value into a log-scale histogram.
    fn observe(&self, name: &str, v: u64);

    /// Records a wall-clock duration (µs) into a histogram — but only
    /// when the trace clock is non-deterministic. Under a step-count
    /// clock this is a no-op, keeping traces byte-reproducible.
    fn observe_wall(&self, name: &str, d: Duration);

    /// Advances the deterministic clock by `delta` logical ticks (the
    /// executor reports its step count here). No-op for wall clocks.
    fn tick(&self, delta: u64);

    /// Allocates the next trace-global state id for lineage events
    /// (unique, increasing, starting at 1). Returns 0 for recorders
    /// without a sink — emitters should skip lineage work entirely when
    /// [`Recorder::enabled`] is false.
    fn alloc_state_id(&self) -> u64 {
        0
    }

    /// Emits a state-lineage event. [`FileRecorder`] additionally
    /// flushes its writer, which bounds what a crash-cut `--lineage`
    /// trace loses to the events since its last lineage event. Default
    /// no-op.
    fn state(&self, ev: &LineageEvent<'_>) {
        let _ = ev;
    }

    /// Emits a solver-query provenance event. Unlike [`Recorder::state`]
    /// no writer flush is hinted — queries are far too frequent for
    /// per-event flushing. Default no-op.
    fn query(&self, ev: &QueryEvent<'_>) {
        let _ = ev;
    }

    /// The clock mode this recorder stamps events with (calibration
    /// records carry wall-measured µs only under a wall clock).
    fn clock_mode(&self) -> ClockMode {
        ClockMode::Steps
    }
}

/// The recorder that records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

/// A shared `&'static` no-op recorder for default arguments.
pub static NOOP: NoopRecorder = NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn span_open(&self, _name: &str) -> SpanId {
        SpanId::NONE
    }

    fn span_close(&self, _id: SpanId) {}

    fn event(&self, _name: &str, _fields: &[(&str, FieldValue)]) {}

    fn counter_add(&self, _name: &str, _delta: u64) {}

    fn gauge_max(&self, _name: &str, _v: i64) {}

    fn observe(&self, _name: &str, _v: u64) {}

    fn observe_wall(&self, _name: &str, _d: Duration) {}

    fn tick(&self, _delta: u64) {}
}

/// State shared by the real recorders: clock, span bookkeeping, and
/// the metrics registry.
#[derive(Debug)]
struct SinkCore {
    clock: Clock,
    next_span: Cell<u64>,
    next_state: Cell<u64>,
    stack: RefCell<Vec<u64>>,
    metrics: Metrics,
}

impl SinkCore {
    fn new(clock: Clock) -> SinkCore {
        SinkCore {
            clock,
            next_span: Cell::new(1),
            next_state: Cell::new(1),
            stack: RefCell::new(Vec::new()),
            metrics: Metrics::new(),
        }
    }

    fn alloc_state(&self) -> u64 {
        let id = self.next_state.get();
        self.next_state.set(id + 1);
        id
    }

    fn state_event(&self, ev: &LineageEvent<'_>) -> TraceEvent {
        TraceEvent::State {
            t: self.clock.now(),
            op: ev.op.to_string(),
            id: ev.id,
            par: ev.parent,
            loc: ev.loc.to_string(),
            hops: ev.hops as u64,
            depth: ev.depth as u64,
            steps: ev.steps,
            snodes: ev.snodes,
            // Wall-measured solver time cannot round-trip under the
            // deterministic step clock; zero it like observe_wall does.
            sus: if self.clock.is_deterministic() {
                0
            } else {
                ev.solver_us
            },
        }
    }

    fn query_event(&self, ev: &QueryEvent<'_>) -> TraceEvent {
        TraceEvent::Query {
            t: self.clock.now(),
            sid: ev.sid,
            loc: ev.loc.to_string(),
            rank: ev.rank as u64,
            site: ev.site.to_string(),
            verdict: ev.verdict.to_string(),
            cache: ev.cache.to_string(),
            nodes: ev.nodes,
            // Wall-measured query time cannot round-trip under the
            // deterministic step clock; zero it like observe_wall does.
            us: if self.clock.is_deterministic() {
                0
            } else {
                ev.us
            },
        }
    }

    fn meta_event(&self) -> TraceEvent {
        TraceEvent::Meta {
            clock: self.clock.label().to_string(),
            version: TRACE_VERSION,
        }
    }

    fn open(&self, name: &str) -> (SpanId, TraceEvent) {
        let id = self.next_span.get();
        self.next_span.set(id + 1);
        let parent = self.stack.borrow().last().copied().unwrap_or(0);
        self.stack.borrow_mut().push(id);
        let ev = TraceEvent::SpanOpen {
            t: self.clock.now(),
            id,
            parent,
            name: name.to_string(),
        };
        (SpanId(id), ev)
    }

    fn close(&self, id: SpanId) -> Option<TraceEvent> {
        if id == SpanId::NONE {
            return None;
        }
        // Tolerate out-of-order closes: drop the id wherever it sits so
        // one missed close cannot corrupt the whole parent chain.
        let mut stack = self.stack.borrow_mut();
        if let Some(pos) = stack.iter().rposition(|&s| s == id.0) {
            stack.truncate(pos);
        }
        Some(TraceEvent::SpanClose {
            t: self.clock.now(),
            id: id.0,
        })
    }

    fn point(&self, name: &str, fields: &[(&str, FieldValue)]) -> TraceEvent {
        TraceEvent::Event {
            t: self.clock.now(),
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

/// A recorder that buffers the whole trace in memory.
#[derive(Debug)]
pub struct MemRecorder {
    core: SinkCore,
    events: RefCell<Vec<TraceEvent>>,
}

impl MemRecorder {
    /// A memory recorder stamping events with the given clock. The
    /// trace meta event is emitted immediately.
    pub fn new(clock: Clock) -> MemRecorder {
        let core = SinkCore::new(clock);
        let events = RefCell::new(vec![core.meta_event()]);
        MemRecorder { core, events }
    }

    /// Read-only access to the metrics registry (for reconciliation
    /// tests and the run report).
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// The events captured so far (without the metrics snapshot).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.borrow().clone()
    }

    /// Consumes the recorder, appending the final metrics snapshot to
    /// the event list.
    pub fn finish(self) -> Vec<TraceEvent> {
        let mut events = self.events.into_inner();
        events.extend(self.core.metrics.snapshot());
        events
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_open(&self, name: &str) -> SpanId {
        let (id, ev) = self.core.open(name);
        self.events.borrow_mut().push(ev);
        id
    }

    fn span_close(&self, id: SpanId) {
        if let Some(ev) = self.core.close(id) {
            self.events.borrow_mut().push(ev);
        }
    }

    fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let ev = self.core.point(name, fields);
        self.events.borrow_mut().push(ev);
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.core.metrics.counter_add(name, delta);
    }

    fn gauge_max(&self, name: &str, v: i64) {
        self.core.metrics.gauge_max(name, v);
    }

    fn observe(&self, name: &str, v: u64) {
        self.core.metrics.observe(name, v);
    }

    fn observe_wall(&self, name: &str, d: Duration) {
        if !self.core.clock.is_deterministic() {
            self.core.metrics.observe(name, d.as_micros() as u64);
        }
    }

    fn tick(&self, delta: u64) {
        self.core.clock.advance(delta);
    }

    fn alloc_state_id(&self) -> u64 {
        self.core.alloc_state()
    }

    fn state(&self, ev: &LineageEvent<'_>) {
        let ev = self.core.state_event(ev);
        self.events.borrow_mut().push(ev);
    }

    fn query(&self, ev: &QueryEvent<'_>) {
        let ev = self.core.query_event(ev);
        self.events.borrow_mut().push(ev);
    }

    fn clock_mode(&self) -> ClockMode {
        self.core.clock.mode()
    }
}

/// A recorder that streams canonical JSONL to a `Write` sink, one event
/// per line.
///
/// Writes are best-effort while the run is in flight; the first I/O
/// error is latched and surfaced by [`FileRecorder::finish`]. The
/// writer is flushed after the meta line and after every lineage event:
/// the partial trace a crash bundle copies always opens with the meta
/// line, and a crash-cut `--lineage` trace loses at most the events
/// since its last lineage event.
pub struct FileRecorder {
    core: SinkCore,
    out: RefCell<BufWriter<Box<dyn Write>>>,
    error: RefCell<Option<io::Error>>,
}

impl std::fmt::Debug for FileRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileRecorder")
            .field("core", &self.core)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl FileRecorder {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure.
    pub fn create<P: AsRef<Path>>(path: P, clock: Clock) -> io::Result<FileRecorder> {
        let file = File::create(path)?;
        Ok(FileRecorder::from_writer(Box::new(file), clock))
    }

    /// Wraps an arbitrary writer (used by tests to trace into memory).
    pub fn from_writer(w: Box<dyn Write>, clock: Clock) -> FileRecorder {
        let rec = FileRecorder {
            core: SinkCore::new(clock),
            out: RefCell::new(BufWriter::new(w)),
            error: RefCell::new(None),
        };
        rec.write(&rec.core.meta_event());
        rec.flush();
        rec
    }

    /// Runs one write-side operation unless an earlier one failed,
    /// latching the first I/O error for [`FileRecorder::finish`].
    fn io(&self, op: impl FnOnce(&mut BufWriter<Box<dyn Write>>) -> io::Result<()>) {
        let mut error = self.error.borrow_mut();
        if error.is_none() {
            if let Err(e) = op(&mut self.out.borrow_mut()) {
                *error = Some(e);
            }
        }
    }

    /// Writes one canonical line.
    fn write(&self, ev: &TraceEvent) {
        let line = ev.to_json_line();
        self.io(|out| {
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")
        });
    }

    /// Makes buffered lines visible to readers of the file.
    fn flush(&self) {
        self.io(|out| out.flush());
    }

    /// Writes the metrics snapshot and flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error hit at any point during the trace.
    pub fn finish(self) -> io::Result<()> {
        for ev in self.core.metrics.snapshot() {
            self.write(&ev);
        }
        if let Some(e) = self.error.into_inner() {
            return Err(e);
        }
        self.out.into_inner().flush()
    }
}

impl Recorder for FileRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span_open(&self, name: &str) -> SpanId {
        let (id, ev) = self.core.open(name);
        self.write(&ev);
        id
    }

    fn span_close(&self, id: SpanId) {
        if let Some(ev) = self.core.close(id) {
            self.write(&ev);
        }
    }

    fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        self.write(&self.core.point(name, fields));
    }

    fn counter_add(&self, name: &str, delta: u64) {
        self.core.metrics.counter_add(name, delta);
    }

    fn gauge_max(&self, name: &str, v: i64) {
        self.core.metrics.gauge_max(name, v);
    }

    fn observe(&self, name: &str, v: u64) {
        self.core.metrics.observe(name, v);
    }

    fn observe_wall(&self, name: &str, d: Duration) {
        if !self.core.clock.is_deterministic() {
            self.core.metrics.observe(name, d.as_micros() as u64);
        }
    }

    fn tick(&self, delta: u64) {
        self.core.clock.advance(delta);
    }

    fn alloc_state_id(&self) -> u64 {
        self.core.alloc_state()
    }

    fn state(&self, ev: &LineageEvent<'_>) {
        self.write(&self.core.state_event(ev));
        // Bound what a crash-cut trace loses to the events since the
        // last lineage event.
        self.flush();
    }

    fn query(&self, ev: &QueryEvent<'_>) {
        // No flush: queries are far too frequent for per-event flushing;
        // they reach the file with the next lineage event or finish().
        self.write(&self.core.query_event(ev));
    }

    fn clock_mode(&self) -> ClockMode {
        self.core.clock.mode()
    }
}

/// An RAII-free span helper that also measures wall-clock elapsed time,
/// independent of what clock stamps the trace. This is how the pipeline
/// keeps reporting `Duration`s (`analysis_time`, `symex_time`) while
/// the trace itself may run on the deterministic step clock.
#[must_use = "call finish() to close the span and read its duration"]
pub struct Span<'r> {
    rec: &'r dyn Recorder,
    id: SpanId,
    start: Instant,
}

impl<'r> Span<'r> {
    /// Opens a named span on `rec` and starts a wall-clock stopwatch.
    pub fn start(rec: &'r dyn Recorder, name: &str) -> Span<'r> {
        Span {
            rec,
            id: rec.span_open(name),
            start: Instant::now(),
        }
    }

    /// Closes the span and returns the wall-clock time it covered.
    pub fn finish(self) -> Duration {
        self.rec.span_close(self.id);
        self.start.elapsed()
    }
}

/// Shared byte buffer usable as a [`FileRecorder`] sink in tests.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(std::rc::Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    /// An empty shared buffer.
    pub fn new() -> SharedBuf {
        SharedBuf::default()
    }

    /// The bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{parse_trace_strict, parse_trace_truncated};

    #[test]
    fn noop_recorder_is_disabled_and_null() {
        assert!(!NOOP.enabled());
        assert_eq!(NOOP.span_open("x"), SpanId::NONE);
        NOOP.span_close(SpanId::NONE);
        NOOP.counter_add("c", 1);
        NOOP.tick(10);
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
    }

    #[test]
    fn mem_recorder_tracks_span_nesting() {
        let rec = MemRecorder::new(Clock::steps());
        let outer = rec.span_open("outer");
        rec.tick(3);
        let inner = rec.span_open("inner");
        rec.event("hit", &[("n", FieldValue::Uint(1))]);
        rec.span_close(inner);
        rec.tick(2);
        rec.span_close(outer);
        rec.counter_add("c", 7);

        let events = rec.finish();
        assert_eq!(
            events,
            vec![
                TraceEvent::Meta {
                    clock: "steps".into(),
                    version: TRACE_VERSION
                },
                TraceEvent::SpanOpen {
                    t: 0,
                    id: 1,
                    parent: 0,
                    name: "outer".into()
                },
                TraceEvent::SpanOpen {
                    t: 3,
                    id: 2,
                    parent: 1,
                    name: "inner".into()
                },
                TraceEvent::Event {
                    t: 3,
                    name: "hit".into(),
                    fields: vec![("n".into(), FieldValue::Uint(1))]
                },
                TraceEvent::SpanClose { t: 3, id: 2 },
                TraceEvent::SpanClose { t: 5, id: 1 },
                TraceEvent::Counter {
                    name: "c".into(),
                    value: 7
                },
            ]
        );
    }

    #[test]
    fn observe_wall_is_suppressed_under_steps_clock() {
        let det = MemRecorder::new(Clock::steps());
        det.observe_wall("lat", Duration::from_micros(10));
        assert!(det.metrics().hist("lat").is_none());

        let wall = MemRecorder::new(Clock::wall());
        wall.observe_wall("lat", Duration::from_micros(10));
        assert_eq!(wall.metrics().hist("lat").unwrap().count, 1);
    }

    #[test]
    fn file_recorder_streams_parseable_jsonl() {
        let buf = SharedBuf::new();
        let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
        let s = rec.span_open("run");
        rec.tick(4);
        rec.event("done", &[("ok", FieldValue::Str("true".into()))]);
        rec.span_close(s);
        rec.counter_add("total", 4);
        rec.finish().unwrap();

        let text = String::from_utf8(buf.contents()).unwrap();
        let events = parse_trace_strict(&text).unwrap();
        assert_eq!(events.len(), 5);
        assert!(matches!(events[0], TraceEvent::Meta { .. }));
        assert!(matches!(
            events.last().unwrap(),
            TraceEvent::Counter { name, value: 4 } if name == "total"
        ));
    }

    fn root_lineage() -> LineageEvent<'static> {
        LineageEvent {
            op: crate::lineage_op::ROOT,
            id: 1,
            parent: 0,
            loc: "main:b0",
            hops: 0,
            depth: 0,
            steps: 0,
            snodes: 0,
            solver_us: 0,
        }
    }

    #[test]
    fn file_recorder_flushes_meta_and_lineage_events() {
        let buf = SharedBuf::new();
        let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
        let meta = "{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}\n";
        assert_eq!(String::from_utf8(buf.contents()).unwrap(), meta);
        // Span lines stay buffered until the next lineage event.
        let s = rec.span_open("candidate.attempt");
        assert_eq!(buf.contents().len(), meta.len());
        rec.alloc_state_id();
        rec.state(&root_lineage());
        let text = String::from_utf8(buf.contents()).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(parse_trace_truncated(&text).is_ok(), "{text}");
        rec.span_close(s);
        rec.finish().unwrap();
    }

    #[test]
    fn file_recorder_latches_first_error_until_finish() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        // The flushes after the meta line and the state event push
        // buffered bytes into the failing writer mid-run; the first
        // error must surface at finish().
        let rec = FileRecorder::from_writer(Box::new(FailingWriter), Clock::steps());
        rec.alloc_state_id();
        rec.state(&root_lineage());
        let err = rec.finish().unwrap_err();
        assert_eq!(err.to_string(), "disk full");
    }

    #[test]
    fn state_ids_allocate_and_sus_is_zeroed_under_steps_clock() {
        let rec = MemRecorder::new(Clock::steps());
        let id = rec.alloc_state_id();
        assert_eq!(id, 1);
        rec.state(&LineageEvent {
            op: crate::lineage_op::ROOT,
            id,
            parent: 0,
            loc: "main:b0",
            hops: 0,
            depth: 0,
            steps: 0,
            snodes: 0,
            solver_us: 999,
        });
        let events = rec.finish();
        assert!(matches!(
            &events[1],
            TraceEvent::State { op, id: 1, par: 0, sus: 0, .. } if op == "root"
        ));
        // Wall clock keeps the attributed solver time.
        let rec = MemRecorder::new(Clock::wall());
        rec.state(&LineageEvent {
            op: crate::lineage_op::ROOT,
            id: rec.alloc_state_id(),
            parent: 0,
            loc: "main:b0",
            hops: 0,
            depth: 0,
            steps: 0,
            snodes: 0,
            solver_us: 999,
        });
        let events = rec.finish();
        assert!(matches!(&events[1], TraceEvent::State { sus: 999, .. }));
    }

    fn query_ev(us: u64) -> QueryEvent<'static> {
        QueryEvent {
            sid: 3,
            loc: "main:7",
            rank: 1,
            site: "feasibility",
            verdict: "sat",
            cache: "search",
            nodes: 12,
            us,
        }
    }

    #[test]
    fn query_us_is_zeroed_under_steps_clock_and_kept_under_wall() {
        let det = MemRecorder::new(Clock::steps());
        det.tick(5);
        det.query(&query_ev(999));
        let events = det.finish();
        assert!(matches!(
            &events[1],
            TraceEvent::Query {
                t: 5,
                sid: 3,
                rank: 1,
                us: 0,
                nodes: 12,
                ..
            }
        ));

        let wall = MemRecorder::new(Clock::wall());
        wall.query(&query_ev(999));
        let events = wall.finish();
        assert!(matches!(&events[1], TraceEvent::Query { us: 999, .. }));
    }

    #[test]
    fn span_helper_returns_wall_duration() {
        let rec = MemRecorder::new(Clock::steps());
        let span = Span::start(&rec, "timed");
        let d = span.finish();
        assert!(d.as_nanos() > 0 || d.is_zero());
        let events = rec.finish();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::SpanOpen { name, .. } if name == "timed")));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::SpanClose { .. })));
    }
}
