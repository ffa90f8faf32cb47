//! Trace analytics for StatSym JSONL traces (`statsym-inspect`).
//!
//! Every trace view reads one [`RunView`]: the trace is parsed once
//! (strictly unless `--allow-truncated`), summarized once, and each
//! view renders a section of it.
//!
//! * [`report`] — the Table II/III-style run report
//!   ([`statsym_telemetry::TraceSummary::render`]) plus the solver
//!   callsites that did the work and the candidate attempts that
//!   bounded the run (Table IV, Fig. 7).
//! * [`tree`] — the exploration forest of a `--lineage` trace
//!   ([`forest`] rebuilds it from the `state` event stream) with
//!   suspend-cause annotations and per-subtree work rollups, or, with
//!   `--format flame`, the same forest as collapsed stacks.
//! * [`coverage`] — candidate-path node coverage maps (reached /
//!   predicate-conjoined / conflicted / never-reached per rank), with a
//!   `--min` CI gate.
//! * [`hotspots`] — the per-source-line cost table from `attr.*`
//!   attribution counters (`--attribution` traces), with flame-
//!   compatible and cmp-gateable JSON output.
//! * [`explain`] — one ranked candidate end to end: why it was ranked,
//!   what its attempt cost, and (with `--provenance`) where its solver
//!   queries went and where it died or won.
//! * [`calib`] — the predicted-vs-actual ranking-calibration table from
//!   `calib.candidate` records, with a `--min-corr` CI gate on the
//!   rank-vs-cost correlation.
//!
//! Comparisons and live views:
//!
//! * [`diff`] — per-phase / per-counter deltas between two traces, with
//!   a configurable regression threshold.
//! * [`watch`] — a live dashboard that tails a growing trace file.
//!
//! Over the persistent run-history archive
//! ([`statsym_telemetry::manifest`]):
//!
//! * [`history`] — list/filter the archive, and `history add` for
//!   appending records without running a workload (the CI synthetic-
//!   regression injector).
//! * [`trend`] — windowed median/MAD drift analysis of the last run vs
//!   its predecessors, with a `--gate` CI exit code; `regress` isolates
//!   the first archive run that broke a metric.
//!
//! Traces are loaded with the *strict* parser: unbalanced or duplicate
//! spans are rejected with line-numbered errors rather than silently
//! skewing the analytics. `--allow-truncated` (and continuous `watch`)
//! use the truncation-tolerant variant, which additionally accepts
//! exactly one half-written trailing line.

pub mod calib;
pub mod coverage;
pub mod diff;
pub mod explain;
pub mod forest;
pub mod history;
pub mod hotspots;
pub mod report;
pub mod tree;
pub mod trend;
pub mod watch;

use std::cell::OnceCell;

use forest::Forest;
use statsym_telemetry::{parse_trace_strict, parse_trace_truncated, TraceEvent, TraceSummary};

/// One loaded trace and what the trace views derive from it. Every
/// field is derived from `events` at construction, so treat a view as
/// read-only.
#[derive(Debug)]
pub struct RunView {
    /// The parsed events, in trace order.
    pub events: Vec<TraceEvent>,
    /// Whether a half-written trailing line was dropped (only possible
    /// when loaded with `allow_truncated`).
    pub truncated: bool,
    /// The run digest: spans, metrics, query rollups, calibration.
    pub summary: TraceSummary,
    /// The `calib.candidate` records split into pipeline runs.
    pub calib_runs: Vec<calib::Run>,
    forest: OnceCell<Forest>,
}

impl RunView {
    /// Reads and parses the trace at `path`. Strict by default;
    /// `allow_truncated` (the `--allow-truncated` flag) accepts exactly
    /// one half-written trailing line and spans/states still open, as a
    /// running or crash-cut trace has.
    ///
    /// # Errors
    ///
    /// Returns a rendered error (`path:line: reason`) for unreadable
    /// files and for malformed or structurally invalid traces.
    pub fn load(path: &str, allow_truncated: bool) -> Result<RunView, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read trace: {e}"))?;
        let parsed = if allow_truncated {
            parse_trace_truncated(&text)
        } else {
            parse_trace_strict(&text).map(|events| (events, false))
        };
        let (events, truncated) = parsed.map_err(|e| format!("{path}:{}: {}", e.line, e.reason))?;
        Ok(RunView {
            truncated,
            ..RunView::from_events(events)
        })
    }

    /// A view over already-parsed events.
    pub fn from_events(events: Vec<TraceEvent>) -> RunView {
        let summary = TraceSummary::from_events(&events);
        let calib_runs = calib::runs(&summary.calib);
        RunView {
            events,
            truncated: false,
            summary,
            calib_runs,
            forest: OnceCell::new(),
        }
    }

    /// The exploration forest of the trace's `state` lineage events,
    /// built on first use.
    pub fn forest(&self) -> &Forest {
        self.forest
            .get_or_init(|| Forest::from_events(&self.events))
    }
}
