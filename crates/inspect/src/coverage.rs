//! `statsym-inspect coverage`: per-candidate-path node coverage maps
//! from the `candidate.node` events a `--lineage` run records.
//!
//! Each guided attempt walks one ranked candidate path; every time the
//! guidance hook matches a node of that path it emits a
//! `candidate.node` event with the node index, the predicates it
//! conjoined, and whether injection succeeded. Folding those events per
//! attempt gives the coverage map: which nodes of the statistical
//! prediction the symbolic executor actually reached, which had their
//! predicates conjoined, which conflicted, and which were never
//! reached at all. The `--min <pct>` gate turns the aggregate into a CI
//! check (exit 1 below the floor).

use crate::report::percent;
use crate::RunView;
use statsym_telemetry::{names, FieldValue, TraceEvent};

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

/// One candidate attempt, reconstructed from its `candidate.attempt`
/// span, the `candidate.node` events inside it, and the paired
/// `candidate.result` event.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Candidate rank (the `index` field of `candidate.result`), or the
    /// attempt's position among attempts of its kind when the result is
    /// missing.
    pub rank: u64,
    /// Whether this attempt verified the fault.
    pub found: bool,
    /// Executor steps spent, from the result event.
    pub steps: u64,
    /// Span duration in trace ticks.
    pub ticks: u64,
    /// True for attempts merged under `portfolio.overshoot.`: work the
    /// sequential loop would never have done.
    pub overshoot: bool,
    /// Per-node statuses, indexed by candidate-path node.
    pub nodes: Vec<NodeStatus>,
}

impl Attempt {
    /// Nodes engaged at all (everything but `NeverReached`).
    pub fn covered(&self) -> usize {
        self.nodes
            .iter()
            .filter(|s| **s != NodeStatus::NeverReached)
            .count()
    }
}

fn field<'e>(fields: &'e [(String, FieldValue)], key: &str) -> Option<&'e FieldValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `Some(false)` when `name` is `base`, `Some(true)` when it is the
/// overshoot copy merged under `portfolio.overshoot.`, else `None`.
fn overshoot_of(name: &str, base: &str) -> Option<bool> {
    match name.strip_prefix(names::PORTFOLIO_OVERSHOOT_PREFIX) {
        Some(copy) => (copy == base).then_some(true),
        None => (name == base).then_some(false),
    }
}

/// Folds `candidate.attempt` spans, their `candidate.node` events, and
/// the paired `candidate.result` events into per-attempt records, in
/// the order the attempts closed. Attempts still open at the end of
/// the trace are left out.
pub fn attempts(events: &[TraceEvent]) -> Vec<Attempt> {
    // Open attempt spans: (span id, open tick, overshoot, node statuses).
    // Portfolio merges keep each worker's spans contiguous, so node
    // events belong to the innermost open attempt.
    let mut open: Vec<(u64, u64, bool, Vec<NodeStatus>)> = Vec::new();
    let mut out: Vec<Attempt> = Vec::new();
    // Attempts closed but not yet matched to their result event — each
    // worker emits the result right after its span closes, and
    // rank-ordered merging preserves that adjacency.
    let mut unmatched: Vec<usize> = Vec::new();
    for ev in events {
        match ev {
            TraceEvent::SpanOpen { t, id, name, .. } => {
                if let Some(overshoot) = overshoot_of(name, names::CANDIDATE_ATTEMPT) {
                    open.push((*id, *t, overshoot, Vec::new()));
                }
            }
            TraceEvent::SpanClose { t, id } => {
                if let Some(pos) = open.iter().rposition(|o| o.0 == *id) {
                    let (_, opened, overshoot, nodes) = open.remove(pos);
                    unmatched.push(out.len());
                    out.push(Attempt {
                        rank: out.iter().filter(|a| a.overshoot == overshoot).count() as u64,
                        found: false,
                        steps: 0,
                        ticks: t.saturating_sub(opened),
                        overshoot,
                        nodes,
                    });
                }
            }
            TraceEvent::Event { name, fields, .. } if name == names::CANDIDATE_NODE => {
                let Some((_, _, _, current)) = open.last_mut() else {
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
            TraceEvent::Event { name, fields, .. } => {
                let Some(overshoot) = overshoot_of(name, names::CANDIDATE_RESULT) else {
                    continue;
                };
                let Some(k) = unmatched
                    .iter()
                    .rposition(|&at| out[at].overshoot == overshoot)
                else {
                    continue;
                };
                let a = &mut out[unmatched.remove(k)];
                if let Some(rank) = field(fields, "index").and_then(FieldValue::as_u64) {
                    a.rank = rank;
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
            _ => {}
        }
    }
    out
}

/// The ranked attempts whose coverage the view reports: overshoot
/// attempts are excluded, matching the sequential-equivalent
/// accounting everywhere else.
pub fn ranked(view: &RunView) -> Vec<Attempt> {
    let mut all = attempts(&view.events);
    all.retain(|a| !a.overshoot);
    all
}

/// Aggregate covered / total node counts over all attempts, and the
/// engaged percentage.
pub fn totals(attempts: &[Attempt]) -> (usize, usize, f64) {
    let covered = attempts.iter().map(Attempt::covered).sum();
    let total = attempts.iter().map(|a| a.nodes.len()).sum();
    (covered, total, percent(covered as u64, total as u64))
}

/// Renders the coverage maps. `min_pct` (the `--min` gate) is echoed in
/// the verdict line; [`gate`] decides the exit code.
pub fn coverage(view: &RunView, min_pct: Option<f64>) -> String {
    let attempts = ranked(view);
    if attempts.is_empty() {
        return "no candidate attempts in trace\n".to_string();
    }
    let mut out = String::new();
    out.push_str(&format!(
        "candidate-path node coverage, {} attempt(s)   \
         (# conjoined, + reached, ! conflicted, . never reached)\n\n",
        attempts.len()
    ));
    for a in &attempts {
        let map: String = a.nodes.iter().map(|s| s.cell()).collect();
        out.push_str(&format!(
            "  rank {:<3} {:>2}/{:<2} nodes {} [{}]\n",
            a.rank,
            a.covered(),
            a.nodes.len(),
            if a.found { "found " } else { "missed" },
            map,
        ));
    }
    let (covered, total, pct) = totals(&attempts);
    out.push_str(&format!(
        "\n  overall: {covered}/{total} candidate-path nodes engaged ({pct:.1}%)\n"
    ));
    if let Some(min) = min_pct {
        out.push_str(&format!(
            "  gate: {} (minimum {min:.1}%)\n",
            if pct >= min { "pass" } else { "FAIL" },
        ));
    }
    out
}

/// Whether the trace passes the `--min` coverage gate.
pub fn gate(view: &RunView, min_pct: f64) -> bool {
    totals(&ranked(view)).2 >= min_pct
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
        let view = RunView::from_events(rec.finish());

        let attempts = ranked(&view);
        assert_eq!(attempts.len(), 1);
        let a = &attempts[0];
        assert_eq!(a.rank, 3);
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
        let text = coverage(&view, Some(40.0));
        assert!(text.contains("rank 3"), "{text}");
        assert!(text.contains("[+##...]"), "{text}");
        assert!(
            text.contains("3/6 candidate-path nodes engaged (50.0%)"),
            "{text}"
        );
        assert!(text.contains("gate: pass"), "{text}");
        assert!(gate(&view, 40.0));
        assert!(!gate(&view, 60.0));
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
    fn empty_trace() {
        assert_eq!(
            coverage(&RunView::from_events(Vec::new()), None),
            "no candidate attempts in trace\n"
        );
    }
}
