//! Trace analytics for StatSym JSONL traces (`statsym-inspect`).
//!
//! Every trace view reads one [`RunView`]: the trace is parsed once
//! (strictly unless `--allow-truncated`), summarized once, its
//! candidate attempts folded once into the [`attempt`] model, and each
//! view renders a section of it.
//!
//! * [`report`] — the Table II/III-style run report
//!   ([`statsym_telemetry::TraceSummary::render`]) plus the solver
//!   callsites that did the work, the candidate attempts that bounded
//!   the run (Table IV, Fig. 7) and, for `--lineage` traces, the
//!   [`coverage`] of each candidate path.
//! * [`tree`] — the exploration forest of a `--lineage` trace
//!   ([`forest`] rebuilds it from the `state` event stream) with
//!   suspend-cause annotations and per-subtree work rollups, or, with
//!   `--format flame`, the same forest as collapsed stacks.
//! * [`hotspots`] — the per-source-line cost table from `attr.*`
//!   attribution counters (`--attr` traces), with flame-
//!   compatible and cmp-gateable JSON output.
//! * [`calib`] — the predicted-vs-actual ranking-calibration table per
//!   run, with a `--min-corr` CI gate on the rank-vs-cost correlation;
//!   `--rank <n>` follows one ranked candidate end to end in each run.
//!
//! Comparisons and run history:
//!
//! * [`diff`] — per-phase / per-counter deltas between two traces, with
//!   a configurable regression threshold.
//! * [`history`] — list/filter the run-history archive
//!   ([`statsym_telemetry::manifest`]).
//! * [`trend`] — windowed median/MAD drift analysis of the last run vs
//!   its predecessors, with a `--gate` CI exit code; `--first-bad`
//!   isolates the first archive run that broke a metric.
//!
//! Traces are loaded with the *strict* parser: unbalanced or duplicate
//! spans are rejected with line-numbered errors rather than silently
//! skewing the analytics. `--allow-truncated` uses the
//! truncation-tolerant variant, which additionally accepts exactly one
//! half-written trailing line.

pub mod attempt;
pub mod calib;
pub mod coverage;
pub mod diff;
pub mod forest;
pub mod history;
pub mod hotspots;
pub mod report;
pub mod tree;
pub mod trend;

use std::cell::OnceCell;

use attempt::Attempt;
use forest::Forest;
use statsym_telemetry::{parse_trace_strict, parse_trace_truncated, TraceEvent, TraceSummary};

/// One loaded trace and what the trace views derive from it. Every
/// field is derived from `events` at construction, so treat a view as
/// read-only.
#[derive(Debug)]
pub struct RunView {
    /// The parsed events, in trace order.
    pub events: Vec<TraceEvent>,
    /// The run digest: spans, metrics, query rollups, calibration.
    pub summary: TraceSummary,
    /// The candidate attempts, in trace order ([`RunView::runs`] splits
    /// them into pipeline runs).
    pub attempts: Vec<Attempt>,
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
        let (events, _) = parsed.map_err(|e| format!("{path}:{}: {}", e.line, e.reason))?;
        Ok(RunView::from_events(events))
    }

    /// A view over already-parsed events.
    pub fn from_events(events: Vec<TraceEvent>) -> RunView {
        RunView {
            summary: TraceSummary::from_events(&events),
            attempts: attempt::attempts(&events),
            events,
            forest: OnceCell::new(),
        }
    }

    /// The attempts split into pipeline runs.
    pub fn runs(&self) -> impl Iterator<Item = &[Attempt]> {
        attempt::runs(&self.attempts)
    }

    /// The exploration forest of the trace's `state` lineage events,
    /// built on first use.
    pub fn forest(&self) -> &Forest {
        self.forest
            .get_or_init(|| Forest::from_events(&self.events))
    }
}
