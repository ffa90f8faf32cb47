//! `statsym-inspect calib`: ranking-calibration — predicted vs actual.
//!
//! The pipeline emits one `calib.candidate` record per ranked attempt
//! (the statistical score and path length it was ranked on, next to the
//! steps/forks/solver work the attempt actually cost) plus two derived
//! gauges: which rank won and the Spearman correlation between rank
//! order and step cost. This view renders the predicted-vs-actual
//! table per run and recomputes the correlation from the records, so a
//! trace that predates the gauges still summarizes.
//!
//! `--min-corr <milli>` turns the view into a CI gate: exit 1 when any
//! run's rank-vs-cost correlation falls below the floor (or when the
//! trace has no run with enough candidates to correlate at all) —
//! catching ranking regressions that still find the vulnerability,
//! just at a higher rank than they should.

use crate::RunView;
use statsym_telemetry::{names, render_calib_table, spearman_milli, CalibCandidate, TraceSummary};

/// One pipeline run's worth of calibration records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Candidate records in rank order.
    pub candidates: Vec<CalibCandidate>,
}

impl Run {
    /// 1-based rank of the winning attempt, if any attempt won.
    pub fn winner_rank(&self) -> Option<u64> {
        self.candidates.iter().find(|c| c.found).map(|c| c.rank)
    }

    /// Rank-vs-step-cost correlation in per-mille.
    pub fn corr_milli(&self) -> Option<i64> {
        let costs: Vec<u64> = self.candidates.iter().map(|c| c.steps).collect();
        spearman_milli(&costs)
    }
}

/// Splits a trace's `calib.candidate` records into runs. Ranks are
/// 1-based and strictly increasing within one pipeline run (candidates
/// are attempted in rank order), so a record whose rank does not exceed
/// its predecessor's starts a new run. A single-run trace yields
/// exactly one entry.
pub fn runs(records: &[CalibCandidate]) -> Vec<Run> {
    records
        .chunk_by(|a, b| a.rank < b.rank)
        .map(|run| Run {
            candidates: run.to_vec(),
        })
        .collect()
}

/// Renders the predicted-vs-actual calibration table.
pub fn calib(view: &RunView, json: bool) -> String {
    let runs = &view.calib_runs;
    let s = &view.summary;
    if json {
        return render_json(runs, s);
    }
    if runs.is_empty() {
        return "no calib.candidate records in trace (recorded before calibration?)\n".to_string();
    }

    let mut out = String::new();
    for (i, run) in runs.iter().enumerate() {
        if runs.len() > 1 {
            out.push_str(&format!("run {}:\n", i + 1));
        }
        render_calib_table(&mut out, &run.candidates);
        match run.winner_rank() {
            Some(w) => out.push_str(&format!("  winner rank: {w}\n")),
            None => out.push_str("  winner rank: - (no attempt found the vulnerability)\n"),
        }
        match run.corr_milli() {
            Some(c) => out.push_str(&format!("  rank-vs-cost corr: {c} milli\n")),
            None => {
                out.push_str("  rank-vs-cost corr: - (needs 2+ attempts with distinct costs)\n")
            }
        }
        out.push('\n');
    }
    if let Some(w) = s.gauge(names::CALIB_WINNER_RANK) {
        out.push_str(&format!("recorded winner_rank gauge: {w}\n"));
    }
    if let Some(c) = s.gauge(names::CALIB_RANK_COST_CORR) {
        out.push_str(&format!("recorded corr gauge: {c} milli\n"));
    }
    out
}

fn render_json(runs: &[Run], s: &TraceSummary) -> String {
    let mut out = String::from("{\"runs\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"candidates\":[");
        for (j, c) in run.candidates.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            c.push_json(&mut out);
        }
        out.push(']');
        if let Some(w) = run.winner_rank() {
            out.push_str(&format!(",\"winner_rank\":{w}"));
        }
        if let Some(c) = run.corr_milli() {
            out.push_str(&format!(",\"corr_milli\":{c}"));
        }
        out.push('}');
    }
    out.push(']');
    if let Some(w) = s.gauge(names::CALIB_WINNER_RANK) {
        out.push_str(&format!(",\"gauge_winner_rank\":{w}"));
    }
    if let Some(c) = s.gauge(names::CALIB_RANK_COST_CORR) {
        out.push_str(&format!(",\"gauge_corr_milli\":{c}"));
    }
    out.push_str("}\n");
    out
}

/// The `--min-corr` CI gate.
///
/// # Errors
///
/// Returns a message when any run's correlation falls below
/// `min_milli`, or when no run has a defined correlation at all (a
/// trace with nothing to gate must fail loudly, not pass silently).
pub fn gate(view: &RunView, min_milli: i64) -> Result<(), String> {
    let runs = &view.calib_runs;
    let mut gated = 0usize;
    for (i, run) in runs.iter().enumerate() {
        if let Some(c) = run.corr_milli() {
            gated += 1;
            if c < min_milli {
                return Err(format!(
                    "run {} rank-vs-cost correlation {c} milli is below the \
                     --min-corr floor {min_milli}",
                    i + 1
                ));
            }
        }
    }
    if gated == 0 {
        return Err(format!(
            "--min-corr {min_milli} given but no run has a defined \
             correlation ({} run(s), need 2+ attempts with distinct costs)",
            runs.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{FieldValue, TraceEvent};

    fn empty() -> RunView {
        RunView::from_events(Vec::new())
    }

    fn cand(rank: u64, steps: u64, found: bool) -> TraceEvent {
        TraceEvent::Event {
            t: 1,
            name: names::CALIB_CANDIDATE.into(),
            fields: vec![
                ("rank".into(), FieldValue::Uint(rank)),
                ("score_milli".into(), FieldValue::Uint(rank * 100)),
                ("path_len".into(), FieldValue::Uint(4)),
                ("steps".into(), FieldValue::Uint(steps)),
                ("forks".into(), FieldValue::Uint(1)),
                ("snodes".into(), FieldValue::Uint(6)),
                ("found".into(), FieldValue::Uint(u64::from(found))),
            ],
        }
    }

    #[test]
    fn rank_reset_starts_a_new_run() {
        let events = vec![
            cand(1, 10, false),
            cand(2, 30, true),
            cand(1, 40, false),
            cand(2, 20, false),
            cand(3, 10, true),
        ];
        let rs = &RunView::from_events(events).calib_runs;
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].candidates.len(), 2);
        assert_eq!(rs[1].candidates.len(), 3);
        assert_eq!(rs[0].winner_rank(), Some(2));
        assert_eq!(rs[1].winner_rank(), Some(3));
        assert_eq!(rs[0].corr_milli(), Some(1000));
        assert_eq!(rs[1].corr_milli(), Some(-1000));
    }

    #[test]
    fn renders_table_winner_and_corr() {
        let events = vec![
            cand(1, 10, false),
            cand(2, 30, true),
            TraceEvent::Gauge {
                name: names::CALIB_WINNER_RANK.into(),
                value: 2,
            },
        ];
        let view = RunView::from_events(events);
        let text = calib(&view, false);
        assert!(text.contains("rank"), "{text}");
        assert!(text.contains("winner rank: 2"), "{text}");
        assert!(text.contains("rank-vs-cost corr: 1000 milli"), "{text}");
        assert!(text.contains("recorded winner_rank gauge: 2"), "{text}");
        assert_eq!(text, calib(&view, false));
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let view = RunView::from_events(vec![cand(1, 10, false), cand(2, 30, true)]);
        let json = calib(&view, true);
        assert!(
            json.starts_with("{\"runs\":[{\"candidates\":[{\"rank\":1,"),
            "{json}"
        );
        assert!(
            json.contains("\"winner_rank\":2,\"corr_milli\":1000"),
            "{json}"
        );
        statsym_telemetry::json::parse(&json).unwrap();
        assert_eq!(json, calib(&view, true));
        // Empty trace: still a valid document.
        assert_eq!(calib(&empty(), true), "{\"runs\":[]}\n");
    }

    #[test]
    fn gate_fails_below_floor_and_on_ungateable_traces() {
        let good = RunView::from_events(vec![cand(1, 10, true), cand(2, 30, false)]);
        assert!(gate(&good, 500).is_ok());
        let bad = RunView::from_events(vec![cand(1, 30, false), cand(2, 10, true)]);
        let err = gate(&bad, 500).unwrap_err();
        assert!(err.contains("-1000"), "{err}");
        // No run with a defined correlation: the gate must not pass.
        assert!(gate(&empty(), 0).is_err());
        assert!(gate(&RunView::from_events(vec![cand(1, 10, true)]), 0).is_err());
    }

    #[test]
    fn empty_trace_is_reported() {
        assert!(calib(&empty(), false).contains("no calib.candidate"));
    }
}
