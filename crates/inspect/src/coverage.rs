//! Candidate-path node coverage: the `report` section built from the
//! `candidate.node` events a `--lineage` run records.
//!
//! Each guided attempt walks one ranked candidate path; every time the
//! guidance hook matches a node of that path it emits a
//! `candidate.node` event with the node index, the predicates it
//! conjoined, and whether injection succeeded. The [`attempt`] model
//! folds those events per attempt into the coverage map: which nodes of
//! the statistical prediction the symbolic executor actually reached,
//! which had their predicates conjoined, which conflicted, and which
//! were never reached at all. [`gate`] turns the aggregate into a
//! coverage floor for tests.
//!
//! [`attempt`]: crate::attempt

pub use crate::attempt::attempts;
use crate::attempt::Attempt;
use crate::report::percent;
use crate::RunView;
use statsym_telemetry::{names, TraceEvent};

/// Aggregate covered / total node counts over all attempts, and the
/// engaged percentage.
pub fn totals(attempts: &[Attempt]) -> (usize, usize, f64) {
    let covered = attempts.iter().map(Attempt::covered).sum();
    let total = attempts.iter().map(|a| a.nodes.len()).sum();
    (covered, total, percent(covered as u64, total as u64))
}

/// Whether the trace engages at least `min_pct` percent of its
/// candidate-path nodes.
pub fn gate(view: &RunView, min_pct: f64) -> bool {
    totals(&view.attempts).2 >= min_pct
}

/// Renders the coverage maps, one line per attempt; `None` when the
/// trace has no `candidate.node` events (recorded without `--lineage`).
pub fn section(view: &RunView) -> Option<String> {
    let has_nodes = view
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::Event { name, .. } if name == names::CANDIDATE_NODE));
    if !has_nodes {
        return None;
    }
    let mut out = format!(
        "candidate-path node coverage, {} attempt(s)   \
         (# conjoined, + reached, ! conflicted, . never reached)\n\n",
        view.attempts.len()
    );
    for a in &view.attempts {
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
    let (covered, total, pct) = totals(&view.attempts);
    out.push_str(&format!(
        "\n  overall: {covered}/{total} candidate-path nodes engaged ({pct:.1}%)\n"
    ));
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{Clock, FieldValue, MemRecorder, Recorder};

    #[test]
    fn section_maps_each_attempt_and_gates_the_total() {
        let rec = MemRecorder::new(Clock::steps());
        let sp = rec.span_open(names::CANDIDATE_ATTEMPT);
        for (node, conj) in [(0u64, 0u64), (1, 2)] {
            rec.event(
                names::CANDIDATE_NODE,
                &[
                    ("node", FieldValue::from(node)),
                    ("conj", FieldValue::from(conj)),
                    ("outcome", FieldValue::from("ok")),
                ],
            );
        }
        rec.span_close(sp);
        rec.event(
            names::CANDIDATE_RESULT,
            &[
                ("index", FieldValue::from(0u64)),
                ("path_len", FieldValue::from(4u64)),
                ("found", FieldValue::from(true)),
            ],
        );
        let view = RunView::from_events(rec.finish());
        let text = section(&view).expect("a lineage trace has a section");
        assert!(
            text.contains("  rank 1    2/4  nodes found  [+#..]"),
            "{text}"
        );
        assert!(
            text.contains("2/4 candidate-path nodes engaged (50.0%)"),
            "{text}"
        );
        assert!(gate(&view, 50.0));
        assert!(!gate(&view, 60.0));
    }

    #[test]
    fn no_node_events_means_no_section() {
        assert_eq!(section(&RunView::from_events(Vec::new())), None);
    }
}
