//! The attempt model every candidate view reads.
//!
//! Each guided attempt leaves one record group in trace order: a
//! `candidate.attempt` span (with the `candidate.node` events of a
//! `--lineage` run and the `query` events of an `--attr` run
//! inside it), then its `candidate.result` event, then its
//! `calib.candidate` record. [`attempts`] folds each group into one
//! [`Attempt`], and [`runs`] splits them into pipeline runs, so the
//! report's attempt and coverage sections and every `calib` view agree
//! on which attempt a record, a node or a query belongs to.

use statsym_telemetry::{names, split_runs, CalibCandidate, FieldValue, TraceEvent};

/// Classification of one candidate-path node within one attempt, in
/// increasing order of engagement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeStatus {
    /// No state ever matched the node's location.
    NeverReached,
    /// Matched, but every injection died (`conflict` suspensions or
    /// `kill`s) — the statistical predicate fought the path condition.
    Conflicted,
    /// Matched with no predicates to inject.
    Reached,
    /// Matched and at least one predicate set was conjoined cleanly.
    Conjoined,
}

impl NodeStatus {
    /// One-character cell for the per-attempt map line.
    pub fn cell(self) -> char {
        match self {
            NodeStatus::NeverReached => '.',
            NodeStatus::Conflicted => '!',
            NodeStatus::Reached => '+',
            NodeStatus::Conjoined => '#',
        }
    }
}

/// One candidate attempt of one pipeline run.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// 1-based candidate rank: the `candidate.result` `index` plus one,
    /// or the `calib.candidate` rank of a record with no span, or the
    /// attempt's 1-based position in the trace when both are missing.
    pub rank: u64,
    /// Whether this attempt verified the fault.
    pub found: bool,
    /// Executor steps spent.
    pub steps: u64,
    /// Span duration in trace ticks (0 for a record with no span).
    pub ticks: u64,
    /// Per-node statuses, indexed by candidate-path node.
    pub nodes: Vec<NodeStatus>,
    /// The attempt's `calib.candidate` record, when the trace has one.
    pub calib: Option<CalibCandidate>,
    /// Positions in the trace's events of the attempt's `query` events:
    /// every query after the previous `calib.candidate` record and
    /// before this attempt's own.
    pub queries: Vec<usize>,
}

impl Attempt {
    /// Nodes engaged at all (everything but `NeverReached`).
    pub fn covered(&self) -> usize {
        self.nodes
            .iter()
            .filter(|s| **s != NodeStatus::NeverReached)
            .count()
    }

    fn new(rank: u64) -> Attempt {
        Attempt {
            rank,
            found: false,
            steps: 0,
            ticks: 0,
            nodes: Vec::new(),
            calib: None,
            queries: Vec::new(),
        }
    }
}

fn field<'e>(fields: &'e [(String, FieldValue)], key: &str) -> Option<&'e FieldValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Folds the trace's attempt records into [`Attempt`]s, in the order
/// the attempts closed. Attempts still open at the end of the trace are
/// left out; a `calib.candidate` record that follows no unrecorded
/// attempt span becomes an attempt of its own.
pub fn attempts(events: &[TraceEvent]) -> Vec<Attempt> {
    // Open attempt spans: (span id, open tick, node statuses). Node
    // events belong to the innermost open attempt.
    let mut open: Vec<(u64, u64, Vec<NodeStatus>)> = Vec::new();
    let mut out: Vec<Attempt> = Vec::new();
    // Attempts closed but not yet matched to their result event — the
    // loop emits the result right after the span closes.
    let mut unmatched: Vec<usize> = Vec::new();
    // Queries since the last calibration record.
    let mut queries: Vec<usize> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        match ev {
            TraceEvent::SpanOpen { t, id, name, .. } if name == names::CANDIDATE_ATTEMPT => {
                open.push((*id, *t, Vec::new()));
            }
            TraceEvent::SpanClose { t, id } => {
                if let Some(pos) = open.iter().rposition(|o| o.0 == *id) {
                    let (_, opened, nodes) = open.remove(pos);
                    unmatched.push(out.len());
                    out.push(Attempt {
                        ticks: t.saturating_sub(opened),
                        nodes,
                        ..Attempt::new(out.len() as u64 + 1)
                    });
                }
            }
            TraceEvent::Event { name, fields, .. } if name == names::CANDIDATE_NODE => {
                let Some((_, _, current)) = open.last_mut() else {
                    continue;
                };
                let Some(node) = field(fields, "node").and_then(FieldValue::as_u64) else {
                    continue;
                };
                let node = node as usize;
                if current.len() <= node {
                    current.resize(node + 1, NodeStatus::NeverReached);
                }
                let conj = field(fields, "conj")
                    .and_then(FieldValue::as_u64)
                    .unwrap_or(0);
                let status = match field(fields, "outcome").and_then(FieldValue::as_str) {
                    Some("ok") if conj > 0 => NodeStatus::Conjoined,
                    Some("ok") => NodeStatus::Reached,
                    _ => NodeStatus::Conflicted,
                };
                current[node] = current[node].max(status);
            }
            TraceEvent::Event { name, fields, .. } if name == names::CANDIDATE_RESULT => {
                let Some(at) = unmatched.pop() else {
                    continue;
                };
                let a = &mut out[at];
                if let Some(index) = field(fields, "index").and_then(FieldValue::as_u64) {
                    a.rank = index + 1;
                }
                a.found = field(fields, "found").and_then(FieldValue::as_str) == Some("true");
                a.steps = field(fields, "steps")
                    .and_then(FieldValue::as_u64)
                    .unwrap_or(0);
                if let Some(len) = field(fields, "path_len").and_then(FieldValue::as_u64) {
                    if a.nodes.len() < len as usize {
                        a.nodes.resize(len as usize, NodeStatus::NeverReached);
                    }
                }
            }
            TraceEvent::Event { name, fields, .. } if name == names::CALIB_CANDIDATE => {
                let c = CalibCandidate::from_fields(fields);
                if out.last().is_none_or(|a| a.calib.is_some()) {
                    out.push(Attempt {
                        found: c.found,
                        steps: c.steps,
                        ..Attempt::new(c.rank)
                    });
                }
                let a = out.last_mut().expect("an attempt for the record");
                a.calib = Some(c);
                a.queries = std::mem::take(&mut queries);
            }
            TraceEvent::Query { .. } => queries.push(i),
            _ => {}
        }
    }
    out
}

/// Splits `attempts` into pipeline runs (a rank that does not exceed
/// its predecessor's starts a new run).
pub fn runs(attempts: &[Attempt]) -> impl Iterator<Item = &[Attempt]> {
    split_runs(attempts, |a| a.rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{Clock, MemRecorder, Recorder};

    fn node_event(rec: &dyn Recorder, node: u64, conj: u64, outcome: &str) {
        rec.event(
            names::CANDIDATE_NODE,
            &[
                ("node", FieldValue::from(node)),
                ("loc", FieldValue::from("f():enter")),
                ("conj", FieldValue::from(conj)),
                ("outcome", FieldValue::from(outcome)),
            ],
        );
    }

    fn result_event(rec: &dyn Recorder, index: u64, path_len: u64, found: bool) {
        rec.event(
            names::CANDIDATE_RESULT,
            &[
                ("index", FieldValue::from(index)),
                ("path_len", FieldValue::from(path_len)),
                ("found", FieldValue::from(found)),
            ],
        );
    }

    fn calib_event(rec: &dyn Recorder, rank: u64) {
        rec.event(
            names::CALIB_CANDIDATE,
            &[
                ("rank", FieldValue::from(rank)),
                ("snodes", FieldValue::from(7u64)),
            ],
        );
    }

    #[test]
    fn classifies_nodes_and_pads_to_path_len() {
        let rec = MemRecorder::new(Clock::steps());
        let sp = rec.span_open(names::CANDIDATE_ATTEMPT);
        node_event(&rec, 0, 0, "ok");
        node_event(&rec, 1, 2, "ok");
        node_event(&rec, 2, 1, "conflict");
        node_event(&rec, 2, 1, "ok"); // a later state gets through
        rec.span_close(sp);
        result_event(&rec, 3, 6, true);

        let attempts = attempts(&rec.finish());
        assert_eq!(attempts.len(), 1);
        let a = &attempts[0];
        assert_eq!(a.rank, 4, "the 0-based index 3 is rank 4");
        assert!(a.found);
        assert_eq!(
            a.nodes,
            vec![
                NodeStatus::Reached,
                NodeStatus::Conjoined,
                NodeStatus::Conjoined,
                NodeStatus::NeverReached,
                NodeStatus::NeverReached,
                NodeStatus::NeverReached,
            ]
        );
        assert_eq!(a.covered(), 3);
    }

    #[test]
    fn conflict_only_node_stays_conflicted() {
        let rec = MemRecorder::new(Clock::steps());
        let sp = rec.span_open(names::CANDIDATE_ATTEMPT);
        node_event(&rec, 0, 1, "conflict");
        node_event(&rec, 0, 1, "kill");
        rec.span_close(sp);
        result_event(&rec, 0, 1, false);
        let attempts = attempts(&rec.finish());
        assert_eq!(attempts[0].nodes, vec![NodeStatus::Conflicted]);
        // Conflicted still counts as engaged: the executor got there.
        assert_eq!(attempts[0].covered(), 1);
    }

    #[test]
    fn records_and_queries_join_their_attempt_and_runs_split_on_rank() {
        let query = |rec: &MemRecorder| {
            rec.query(&statsym_telemetry::QueryEvent {
                sid: 1,
                loc: "f:1",
                rank: 1,
                site: "feasibility",
                verdict: "sat",
                cache: "search",
                nodes: 7,
                us: 0,
            })
        };
        let rec = MemRecorder::new(Clock::steps());
        // Two runs of one attempt each; the second has no span.
        let sp = rec.span_open(names::CANDIDATE_ATTEMPT);
        query(&rec);
        rec.span_close(sp);
        result_event(&rec, 0, 1, false);
        calib_event(&rec, 1);
        query(&rec);
        query(&rec);
        calib_event(&rec, 1);
        let events = rec.finish();

        let attempts = attempts(&events);
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].calib.as_ref().map(|c| c.rank), Some(1));
        assert_eq!(attempts[0].queries.len(), 1);
        assert_eq!(attempts[1].ticks, 0);
        assert_eq!(attempts[1].queries.len(), 2);
        assert!(attempts[1]
            .queries
            .iter()
            .all(|&i| matches!(events[i], TraceEvent::Query { .. })));
        assert_eq!(runs(&attempts).count(), 2);
    }
}
