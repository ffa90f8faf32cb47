//! `statsym-inspect watch`: a live dashboard over a growing `--lineage`
//! trace file.
//!
//! `FileRecorder` flushes every lineage event as it happens, so the
//! trace of a running experiment is tailable: `watch` re-reads the file
//! on an interval, parses it with the truncation-tolerant parser (a
//! half-written last line is expected mid-run), and redraws a summary
//! in place. Metrics (`Counter`/`Gauge`/`Hist` lines) are only flushed
//! at the end of a run, so their appearance doubles as the done signal:
//! `watch` prints a final frame and exits 0. A run that crashed leaves
//! no metrics; its crash bundle's `trace.partial.jsonl` and `"crashed"`
//! manifest say so, and `watch --once --allow-truncated` renders the
//! partial trace.
//!
//! The rendering is a pure function of the parsed events
//! ([`dashboard`]), so it is unit-testable without a filesystem or a
//! terminal; the polling loop ([`watch`]) owns all the I/O. It redraws
//! whenever the trace file changed and sleeps otherwise: the delay
//! starts at the configured interval and doubles while the file is idle
//! (a finished-but-unclosed run stops burning a fixed-rate poll),
//! snapping back to the base interval on the first sign of new data.

use crate::forest::{Status, Work};
use crate::RunView;
use statsym_telemetry::{names, TraceEvent};
use std::io::Write as _;
use std::time::Duration;

/// One rendered dashboard frame plus the run-ended flag.
#[derive(Debug)]
pub struct Frame {
    /// The rendered text, newline-terminated.
    pub text: String,
    /// True once final metrics are present in the trace (the recorder
    /// only flushes them when the run finishes).
    pub done: bool,
}

/// Builds a dashboard frame from a loaded (possibly truncated) trace.
pub fn dashboard(view: &RunView) -> Frame {
    let (events, forest, s) = (&view.events, view.forest(), &view.summary);
    let mut total = Work::default();
    for n in &forest.nodes {
        total = total.plus(n.own);
    }
    let (by_op, live, suspended) = forest.disposition_counts();
    let terminal: u64 = by_op.values().sum();
    let (mut sus_tau, mut sus_pred, mut sus_branch, mut resumes) = (0u64, 0u64, 0u64, 0u64);
    let mut frontier_depth = 0u64;
    let mut max_depth = 0u64;
    for n in &forest.nodes {
        sus_tau += n.suspends[0];
        sus_pred += n.suspends[1];
        sus_branch += n.suspends[2];
        resumes += n.resumes;
        max_depth = max_depth.max(n.depth);
        if n.status() != Status::Terminal {
            frontier_depth = frontier_depth.max(n.depth);
        }
    }

    let started = events
        .iter()
        .filter(
            |e| matches!(e, TraceEvent::SpanOpen { name, .. } if name == names::CANDIDATE_ATTEMPT),
        )
        .count();
    let finished = crate::coverage::attempts(events);
    let found = finished.iter().filter(|a| a.found).count();
    let done = !s.counters.is_empty();

    let mut out = String::new();
    out.push_str(&format!(
        "StatSym watch — {} event(s){}{}\n\n",
        events.len(),
        if view.truncated {
            ", partial tail line"
        } else {
            ""
        },
        if done { ", run complete" } else { ", running" },
    ));
    out.push_str(&format!(
        "  states    {:>8} total   {:>8} live   {:>8} suspended   {:>8} terminal\n",
        forest.nodes.len(),
        live,
        suspended,
        terminal,
    ));
    let mut terminals: Vec<_> = by_op.iter().collect();
    terminals.sort();
    let terminal_detail: Vec<String> = terminals
        .iter()
        .map(|(op, n)| format!("{op}:{n}"))
        .collect();
    if !terminal_detail.is_empty() {
        out.push_str(&format!("            {}\n", terminal_detail.join("  ")));
    }
    out.push_str(&format!(
        "  suspends  {sus_tau:>8} tau    {sus_pred:>8} predicate   {sus_branch:>5} branch   {resumes:>8} resumed\n",
    ));
    out.push_str(&format!(
        "  frontier  {:>8} runs    depth {:>4} live / {:>4} max\n",
        forest.roots.len(),
        frontier_depth,
        max_depth,
    ));
    out.push_str(&format!(
        "  work      {:>8} steps  {:>8} solver nodes   {:>8} solver µs\n",
        total.steps, total.snodes, total.solver_us,
    ));
    out.push_str(&format!(
        "  attempts  {started:>8} started {:>7} finished    {found:>5} found\n",
        finished.len(),
    ));
    if done {
        let queries = s.counter(names::SOLVER_QUERIES);
        let hits = s.counter(names::SOLVER_CACHE_HITS) + s.counter(names::SOLVER_SHARED_HITS);
        let rate = if queries + hits == 0 {
            0.0
        } else {
            100.0 * hits as f64 / (queries + hits) as f64
        };
        out.push_str(&format!(
            "  solver    {queries:>8} queries {hits:>7} cache hits   {rate:>5.1}% hit rate\n",
        ));
    } else {
        out.push_str("  solver    cache stats pending (metrics flush at run end)\n");
    }
    Frame { text: out, done }
}

/// Polls `path`, redrawing the dashboard in place with adaptive backoff
/// (starting at `interval_ms`, doubling while the file is unchanged).
/// Returns the process exit code: 0 once the run completes (or
/// immediately with `once`), 2 on a read/parse error.
///
/// With `once`, the trace is held to the same parser contract as
/// `report`: strict unless `allow_truncated`, so a mid-write or
/// crash-cut trace exits 2 instead of silently rendering half a run.
/// Continuous watching always tolerates a partial tail line — that is
/// the expected state of a live trace. `no_color` appends plain frames
/// with no ANSI escapes (CI logs, pipes).
pub fn watch(
    path: &str,
    interval_ms: u64,
    once: bool,
    allow_truncated: bool,
    no_color: bool,
) -> i32 {
    let mut screen = Screen {
        first: true,
        plain: no_color,
    };
    let mut backoff = Backoff::new(interval_ms);
    let mut last_len: Option<u64> = None;
    loop {
        let len = std::fs::metadata(path).map(|m| m.len()).ok();
        let view = match RunView::load(path, allow_truncated || !once) {
            Ok(view) => view,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let frame = dashboard(&view);
        screen.draw(&frame.text);
        if frame.done || once {
            return 0;
        }
        let delay = if last_len != len {
            backoff.active()
        } else {
            backoff.idle()
        };
        last_len = len;
        std::thread::sleep(delay);
    }
}

/// Adaptive poll delay: doubles while idle, resets when active.
#[derive(Debug)]
struct Backoff {
    base_ms: u64,
    max_ms: u64,
    cur_ms: u64,
}

impl Backoff {
    /// Growth cap as a multiple of the base interval.
    const MAX_FACTOR: u64 = 8;

    /// A backoff starting (and restarting) at `base_ms` milliseconds.
    fn new(base_ms: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            max_ms: base_ms.saturating_mul(Self::MAX_FACTOR),
            cur_ms: base_ms,
        }
    }

    /// The delay to sleep after an idle poll; each call doubles the next
    /// one up to the cap.
    fn idle(&mut self) -> Duration {
        let d = Duration::from_millis(self.cur_ms);
        self.cur_ms = self.cur_ms.saturating_mul(2).min(self.max_ms);
        d
    }

    /// The source produced data: snap back to the base interval.
    fn active(&mut self) -> Duration {
        self.cur_ms = self.base_ms;
        Duration::from_millis(self.base_ms)
    }
}

/// In-place full-screen redraws over ANSI: `\x1b[2J` once, then
/// `\x1b[H…\x1b[J` per frame, so refreshes do not flicker. In plain
/// mode (`--no-color`, for CI logs and pipes) frames are appended
/// verbatim with no escape codes.
#[derive(Debug)]
struct Screen {
    first: bool,
    plain: bool,
}

impl Screen {
    /// Draws `text` as the whole screen (or, in plain mode, appends the
    /// frame).
    fn draw(&mut self, text: &str) {
        if self.plain {
            if !self.first {
                println!();
            }
            print!("{text}");
        } else {
            if self.first {
                // Clear once so the first frame starts on a clean screen.
                print!("\x1b[2J");
            }
            print!("\x1b[H{text}\x1b[J");
        }
        self.first = false;
        let _ = std::io::stdout().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{lineage_op, Clock, FieldValue, LineageEvent, MemRecorder, Recorder};

    fn lineage(rec: &dyn Recorder, op: &str, id: u64, parent: u64, depth: u64) {
        rec.state(&LineageEvent {
            op,
            id,
            parent,
            loc: "main:b0",
            hops: 0,
            depth: depth as u32,
            steps: 10,
            snodes: 4,
            solver_us: 0,
        });
    }

    #[test]
    fn running_frame_reports_states_and_pending_solver() {
        // A mid-run snapshot, hand-built: an open attempt span and
        // lineage events, but no final metrics yet.
        let state = |op: &str, id: u64, par: u64, depth: u64| TraceEvent::State {
            t: 0,
            op: op.to_string(),
            id,
            par,
            loc: "main:b0".to_string(),
            hops: 0,
            depth,
            steps: 10,
            snodes: 4,
            sus: 0,
        };
        let events = vec![
            TraceEvent::SpanOpen {
                t: 0,
                id: 1,
                parent: 0,
                name: names::CANDIDATE_ATTEMPT.to_string(),
            },
            state(lineage_op::ROOT, 1, 0, 0),
            state(lineage_op::FORK, 2, 1, 1),
            state(lineage_op::SUSPEND_TAU, 2, 1, 3),
        ];
        let frame = dashboard(&RunView {
            truncated: true,
            ..RunView::from_events(events)
        });
        assert!(!frame.done);
        assert!(frame.text.contains("partial tail line"), "{}", frame.text);
        assert!(frame.text.contains(", running"), "{}", frame.text);
        assert!(frame.text.contains("2 total"), "{}", frame.text);
        assert!(frame.text.contains("1 suspended"), "{}", frame.text);
        assert!(frame.text.contains("1 tau"), "{}", frame.text);
        assert!(frame.text.contains("30 steps"), "{}", frame.text);
        assert!(frame.text.contains("1 started"), "{}", frame.text);
        assert!(frame.text.contains("pending"), "{}", frame.text);
        // Frontier: the suspended state sits at depth 3.
        assert!(frame.text.contains("depth    3 live"), "{}", frame.text);
    }

    #[test]
    fn finished_frame_reports_hit_rate_and_done() {
        let rec = MemRecorder::new(Clock::steps());
        let sp = rec.span_open(names::CANDIDATE_ATTEMPT);
        lineage(&rec, lineage_op::ROOT, rec.alloc_state_id(), 0, 0);
        lineage(&rec, lineage_op::FAULT, 1, 0, 2);
        rec.span_close(sp);
        rec.event(
            names::CANDIDATE_RESULT,
            &[
                ("index", FieldValue::from(0u64)),
                ("found", FieldValue::from(true)),
            ],
        );
        rec.counter_add(names::SOLVER_QUERIES, 30);
        rec.counter_add(names::SOLVER_CACHE_HITS, 10);
        let frame = dashboard(&RunView::from_events(rec.finish()));
        assert!(frame.done);
        assert!(frame.text.contains("run complete"), "{}", frame.text);
        assert!(frame.text.contains("1 found"), "{}", frame.text);
        assert!(frame.text.contains("25.0% hit rate"), "{}", frame.text);
        assert!(frame.text.contains("fault:1"), "{}", frame.text);
    }

    #[test]
    fn backoff_doubles_while_idle_and_resets_on_activity() {
        let mut b = Backoff::new(100);
        assert_eq!(b.idle(), Duration::from_millis(100));
        assert_eq!(b.idle(), Duration::from_millis(200));
        assert_eq!(b.idle(), Duration::from_millis(400));
        assert_eq!(b.active(), Duration::from_millis(100));
        assert_eq!(b.idle(), Duration::from_millis(100));
        for _ in 0..20 {
            b.idle();
        }
        assert_eq!(b.idle(), Duration::from_millis(800), "capped at 8x");
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut b = Backoff::new(0);
        assert_eq!(b.idle(), Duration::from_millis(1));
    }
}
