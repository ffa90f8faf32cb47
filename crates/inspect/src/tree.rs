//! `statsym-inspect tree`: render the exploration tree of a
//! `--lineage` trace, one tree per engine run, with suspend-cause
//! annotations and per-subtree work rollups.
//!
//! `--format flame` renders the same forest as a collapsed-stack
//! flamegraph of where solver effort (or executor steps) went, keyed by
//! fork lineage: each state's stack is the chain of SIR locations where
//! it and its ancestors were forked, root first, and the weight is the
//! work billed directly to that state. The output is the standard
//! collapsed-stack format (`frame;frame;frame weight`, one line per
//! unique stack, lexicographically sorted for determinism), which
//! `inferno`, speedscope, and `flamegraph.pl` all accept as-is.

use std::collections::{BTreeMap, HashMap};

use crate::forest::{Forest, Status, Work};
use crate::RunView;

/// Which per-state weight the flamegraph plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Solver search-tree nodes (the default: deterministic and the
    /// best proxy for solver effort under the step clock).
    SolverNodes,
    /// Solver wall-clock µs (all zeros under the deterministic step
    /// clock — record with `--clock wall` to use this).
    SolverUs,
    /// Executor steps.
    Steps,
}

impl Metric {
    /// Parses the `--metric` flag value.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown metrics.
    pub fn parse(s: &str) -> Result<Metric, String> {
        match s {
            "solver-nodes" => Ok(Metric::SolverNodes),
            "solver-us" => Ok(Metric::SolverUs),
            "steps" => Ok(Metric::Steps),
            other => Err(format!(
                "unknown metric `{other}`; use solver-nodes, solver-us, or steps"
            )),
        }
    }

    fn of(self, w: Work) -> u64 {
        match self {
            Metric::SolverNodes => w.snodes,
            Metric::SolverUs => w.solver_us,
            Metric::Steps => w.steps,
        }
    }
}

/// Renders the exploration forest of a loaded trace.
pub fn tree(view: &RunView) -> String {
    let forest = view.forest();
    if forest.nodes.is_empty() {
        return "no lineage events in trace (record with --trace <path> --lineage)\n".to_string();
    }
    let subtree = forest.subtree_work();
    let mut out = String::new();
    let (by_op, live, suspended) = forest.disposition_counts();
    let mut ops: Vec<_> = by_op.iter().collect();
    ops.sort();
    out.push_str(&format!(
        "exploration forest: {} run(s), {} states ({} live, {} suspended",
        forest.roots.len(),
        forest.nodes.len(),
        live,
        suspended,
    ));
    for (op, n) in ops {
        out.push_str(&format!(", {n} {op}"));
    }
    out.push_str(")\n");
    for (run, &root) in forest.roots.iter().enumerate() {
        let w = subtree[root];
        out.push_str(&format!(
            "\nrun {} — {} steps, {} solver nodes{}\n",
            run + 1,
            w.steps,
            w.snodes,
            if w.solver_us > 0 {
                format!(", {}µs solver", w.solver_us)
            } else {
                String::new()
            },
        ));
        render_node(forest, &subtree, root, "", true, 0, &mut out);
    }
    out
}

/// One line per state: id, birth location, disposition, guidance
/// annotations, own work, and the subtree rollup when it differs.
fn render_node(
    forest: &Forest,
    subtree: &[Work],
    at: usize,
    prefix: &str,
    last: bool,
    depth: usize,
    out: &mut String,
) {
    let n = &forest.nodes[at];
    let branch = if depth == 0 {
        ""
    } else if last {
        "└─ "
    } else {
        "├─ "
    };
    out.push_str(&format!("{prefix}{branch}#{} {}", n.id, n.birth_loc));
    out.push_str(&format!(" [{}", disposition(n)));
    // Where the state ended up, when informative ("exit" just means
    // the stack unwound — the op already says that).
    if n.status() != Status::Live && n.last_loc != n.birth_loc && n.last_loc != "exit" {
        out.push_str(&format!(" @ {}", n.last_loc));
    }
    out.push(']');
    let mut notes = Vec::new();
    for (count, cause) in n.suspends.iter().zip(["tau", "predicate", "branch"]) {
        if *count > 0 {
            notes.push(format!("sus:{cause}×{count}"));
        }
    }
    if n.resumes > 0 {
        notes.push(format!("resumed×{}", n.resumes));
    }
    if n.hops > 0 {
        notes.push(format!("hops={}", n.hops));
    }
    if !notes.is_empty() {
        out.push_str(&format!(" ({})", notes.join(", ")));
    }
    out.push_str(&format!(" {}", work_label(n.own)));
    if !n.children.is_empty() {
        out.push_str(&format!(" | subtree {}", work_label(subtree[at])));
    }
    out.push('\n');
    let child_prefix = if depth == 0 {
        String::new()
    } else {
        format!("{prefix}{}", if last { "   " } else { "│  " })
    };
    for (i, &c) in n.children.iter().enumerate() {
        let last_child = i + 1 == n.children.len();
        render_node(
            forest,
            subtree,
            c,
            &child_prefix,
            last_child,
            depth + 1,
            out,
        );
    }
}

fn disposition(n: &crate::forest::StateNode) -> &str {
    match n.status() {
        Status::Live => "live",
        Status::Suspended => &n.last_op,
        Status::Terminal => &n.last_op,
    }
}

fn work_label(w: Work) -> String {
    let mut s = format!("{}st/{}sn", w.steps, w.snodes);
    if w.solver_us > 0 {
        s.push_str(&format!("/{}µs", w.solver_us));
    }
    s
}

/// Renders the forest as collapsed-stack lines (`--format flame`).
pub fn flame(view: &RunView, metric: Metric) -> String {
    let forest = view.forest();
    // Walk each tree root-first so every node sees its ancestors'
    // frames already joined; introduction order guarantees parents
    // come before children in `nodes`.
    let mut frames: Vec<String> = Vec::with_capacity(forest.nodes.len());
    let mut parent_of: HashMap<u64, usize> = HashMap::new();
    let mut stacks = Vec::with_capacity(forest.nodes.len());
    for (at, n) in forest.nodes.iter().enumerate() {
        parent_of.insert(n.id, at);
        let stack = match parent_of.get(&n.parent) {
            Some(&p) if n.parent != 0 => format!("{};{}", frames[p], n.birth_loc),
            _ => n.birth_loc.clone(),
        };
        stacks.push((stack.clone(), metric.of(n.own)));
        frames.push(stack);
    }
    collapsed(stacks)
}

/// The collapsed-stack format every flamegraph export uses: one
/// `stack weight` line per unique stack, identical stacks summed,
/// zero weights dropped, lexicographically sorted for determinism.
pub(crate) fn collapsed(stacks: impl IntoIterator<Item = (String, u64)>) -> String {
    let mut merged: BTreeMap<String, u64> = BTreeMap::new();
    for (stack, weight) in stacks {
        if weight > 0 {
            *merged.entry(stack).or_default() += weight;
        }
    }
    merged
        .iter()
        .map(|(stack, weight)| format!("{stack} {weight}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{lineage_op, TraceEvent};

    /// A lineage event billing `steps` executor steps and, for every
    /// ten steps, one solver node.
    fn state(op: &str, id: u64, par: u64, loc: &str, steps: u64) -> TraceEvent {
        TraceEvent::State {
            t: 0,
            op: op.to_string(),
            id,
            par,
            loc: loc.to_string(),
            hops: 0,
            depth: 0,
            steps,
            snodes: steps / 10,
            sus: 0,
        }
    }

    #[test]
    fn renders_nested_tree_with_annotations() {
        let events = vec![
            state(lineage_op::ROOT, 1, 0, "main:b0", 2),
            state(lineage_op::FORK, 2, 1, "main:b3", 5),
            state(lineage_op::SUSPEND_TAU, 2, 0, "g:b1", 1),
            state(lineage_op::RESUME, 2, 0, "g:b1", 0),
            state(lineage_op::EXIT, 2, 0, "exit", 3),
            state(lineage_op::FORK, 3, 1, "main:b3", 0),
            state(lineage_op::FAULT, 3, 0, "vul:b2", 4),
            state(lineage_op::EXIT, 1, 0, "exit", 1),
        ];
        let text = tree(&RunView::from_events(events));
        assert!(text.contains("1 run(s), 3 states"), "{text}");
        assert!(text.contains("#1 main:b0 [exit]"), "{text}");
        assert!(
            text.contains("├─ #2 main:b3 [exit] (sus:tau×1, resumed×1) 4st/0sn"),
            "{text}"
        );
        assert!(text.contains("└─ #3 main:b3 [fault @ vul:b2]"), "{text}");
        // Root own work: 2 (root) + 5 + 0 (both forks) + 1 (exit) = 8;
        // subtree adds the children's 4 + 4.
        assert!(text.contains("8st/0sn | subtree 16st/0sn"), "{text}");
    }

    #[test]
    fn no_lineage_message() {
        assert!(tree(&RunView::from_events(Vec::new())).contains("no lineage events"));
    }

    #[test]
    fn flame_stacks_follow_fork_lineage_and_merge() {
        // Solver nodes are a tenth of the steps.
        let view = RunView::from_events(vec![
            state(lineage_op::ROOT, 1, 0, "main:b0", 0),
            state(lineage_op::FORK, 2, 1, "main:b2", 50), // billed to #1
            state(lineage_op::FORK, 3, 2, "g:b1", 70),    // billed to #2
            state(lineage_op::EXIT, 3, 0, "exit", 20),
            state(lineage_op::EXIT, 2, 0, "exit", 10),
            state(lineage_op::EXIT, 1, 0, "exit", 40),
            // Second run re-uses the same root loc: stacks merge.
            state(lineage_op::ROOT, 4, 0, "main:b0", 30),
        ]);
        let text = flame(&view, Metric::SolverNodes);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "main:b0 12",             // #1: 5+4, plus #4's 3
                "main:b0;main:b2 8",      // #2: 7 fork + 1 exit
                "main:b0;main:b2;g:b1 2", // #3
            ]
        );
        let steps = flame(&view, Metric::Steps);
        assert!(steps.contains("main:b0;main:b2;g:b1 20"), "{steps}");
        // Zero weights are dropped: the step clock records no solver µs.
        assert_eq!(flame(&view, Metric::SolverUs), "");
    }
}
