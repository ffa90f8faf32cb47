//! Reconstruction of the exploration forest from `state` lineage
//! events (the stream emitted under `--lineage`).
//!
//! The stream is a forest — one `root` per engine run (candidate
//! attempt), `fork` edges below it — and every event carries the work
//! (executor steps, solver search nodes, solver µs) done since the
//! previous lineage event. [`Forest::from_events`] folds the stream
//! back into per-node totals: a transition's delta is billed to the
//! state it names, a `fork`'s delta to the forking parent (the fork
//! site is the parent's frontier), and a `root`'s delta to the new root
//! (engine setup). `tree` (text and flame) and `watch` render off this one
//! model.

use statsym_telemetry::{lineage_op, TraceEvent};
use std::collections::HashMap;

/// Work attributed to one state, in the units of the lineage deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Executor instructions retired.
    pub steps: u64,
    /// Solver search-tree nodes visited.
    pub snodes: u64,
    /// Wall-clock µs inside traced solver queries (0 under the
    /// deterministic step clock).
    pub solver_us: u64,
}

impl Work {
    fn add(&mut self, steps: u64, snodes: u64, solver_us: u64) {
        self.steps += steps;
        self.snodes += snodes;
        self.solver_us += solver_us;
    }

    /// Component-wise sum.
    pub fn plus(self, other: Work) -> Work {
        Work {
            steps: self.steps + other.steps,
            snodes: self.snodes + other.snodes,
            solver_us: self.solver_us + other.solver_us,
        }
    }
}

/// One state in the reconstructed exploration tree.
#[derive(Debug, Clone)]
pub struct StateNode {
    /// Trace-global state id.
    pub id: u64,
    /// Parent state id (0 for roots).
    pub parent: u64,
    /// SIR location where the state was introduced.
    pub birth_loc: String,
    /// Location of the most recent event naming this state.
    pub last_loc: String,
    /// The most recent op naming this state (`root`/`fork` until a
    /// transition arrives). Determines [`StateNode::status`].
    pub last_op: String,
    /// Path depth at the last event.
    pub depth: u64,
    /// Hop divergence at the last event.
    pub hops: u64,
    /// Suspension counts by cause: `[tau, predicate, branch]`.
    pub suspends: [u64; 3],
    /// Times the state was resumed from the suspended pool.
    pub resumes: u64,
    /// Work billed directly to this state.
    pub own: Work,
    /// Child indices into [`Forest::nodes`], in birth order.
    pub children: Vec<usize>,
}

/// The coarse disposition of a state, derived from its last event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Schedulable when the stream ended (or the run is still going).
    Live,
    /// Parked in the suspended pool.
    Suspended,
    /// Terminal: `exit`, `fault`, `unconfirmed`, `kill`, or
    /// `budget_exceeded`.
    Terminal,
}

impl StateNode {
    /// The coarse disposition implied by the last op.
    pub fn status(&self) -> Status {
        match self.last_op.as_str() {
            lineage_op::EXIT
            | lineage_op::FAULT
            | lineage_op::UNCONFIRMED
            | lineage_op::KILL
            | lineage_op::BUDGET_EXCEEDED => Status::Terminal,
            op if op.starts_with("suspend.") => Status::Suspended,
            _ => Status::Live,
        }
    }
}

/// The exploration forest of a whole trace: one tree per engine run.
#[derive(Debug, Default)]
pub struct Forest {
    /// All states, in introduction order.
    pub nodes: Vec<StateNode>,
    /// Root indices, one per engine run, in trace order.
    pub roots: Vec<usize>,
}

impl Forest {
    /// Folds the `state` events of a parsed trace into a forest.
    /// Non-lineage events are ignored, so this accepts full traces.
    pub fn from_events(events: &[TraceEvent]) -> Forest {
        let mut forest = Forest::default();
        let mut index: HashMap<u64, usize> = HashMap::new();
        for ev in events {
            let TraceEvent::State {
                op,
                id,
                par,
                loc,
                hops,
                depth,
                steps,
                snodes,
                sus,
                ..
            } = ev
            else {
                continue;
            };
            if lineage_op::introduces(op) {
                let at = forest.nodes.len();
                forest.nodes.push(StateNode {
                    id: *id,
                    parent: *par,
                    birth_loc: loc.clone(),
                    last_loc: loc.clone(),
                    last_op: op.clone(),
                    depth: *depth,
                    hops: *hops,
                    suspends: [0; 3],
                    resumes: 0,
                    own: Work::default(),
                    children: Vec::new(),
                });
                index.insert(*id, at);
                match index.get(par).copied() {
                    Some(p) if op == lineage_op::FORK => {
                        forest.nodes[p].children.push(at);
                        // Fork work happened at the parent's frontier.
                        forest.nodes[p].own.add(*steps, *snodes, *sus);
                    }
                    _ => {
                        forest.roots.push(at);
                        forest.nodes[at].own.add(*steps, *snodes, *sus);
                    }
                }
            } else if let Some(&at) = index.get(id) {
                let n = &mut forest.nodes[at];
                n.last_op = op.clone();
                n.last_loc = loc.clone();
                n.depth = *depth;
                n.hops = *hops;
                n.own.add(*steps, *snodes, *sus);
                match op.as_str() {
                    lineage_op::SUSPEND_TAU => n.suspends[0] += 1,
                    lineage_op::SUSPEND_PREDICATE => n.suspends[1] += 1,
                    lineage_op::SUSPEND_BRANCH => n.suspends[2] += 1,
                    lineage_op::RESUME => n.resumes += 1,
                    _ => {}
                }
            }
        }
        forest
    }

    /// Per-node subtree work rollups (own + all descendants), indexed
    /// like [`Forest::nodes`]. Iterative so deep fork chains cannot
    /// overflow the stack.
    pub fn subtree_work(&self) -> Vec<Work> {
        let mut total: Vec<Work> = self.nodes.iter().map(|n| n.own).collect();
        // Children always have larger indices than their parent
        // (introduction order), so one reverse sweep folds leaves up.
        for at in (0..self.nodes.len()).rev() {
            for &c in &self.nodes[at].children {
                total[at] = total[at].plus(total[c]);
            }
        }
        total
    }

    /// Counts of final dispositions keyed by last op, plus live /
    /// suspended totals: `(by_op, live, suspended)`.
    pub fn disposition_counts(&self) -> (HashMap<&str, u64>, u64, u64) {
        let mut by_op: HashMap<&str, u64> = HashMap::new();
        let (mut live, mut suspended) = (0u64, 0u64);
        for n in &self.nodes {
            match n.status() {
                Status::Live => live += 1,
                Status::Suspended => suspended += 1,
                Status::Terminal => {
                    *by_op.entry(n.last_op.as_str()).or_default() += 1;
                }
            }
        }
        (by_op, live, suspended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(op: &str, id: u64, par: u64, steps: u64) -> TraceEvent {
        TraceEvent::State {
            t: 0,
            op: op.to_string(),
            id,
            par,
            loc: format!("f:b{id}"),
            hops: 0,
            depth: 0,
            steps,
            snodes: steps / 2,
            sus: 0,
        }
    }

    #[test]
    fn rebuilds_forest_and_bills_work() {
        let events = vec![
            state(lineage_op::ROOT, 1, 0, 5),
            state(lineage_op::FORK, 2, 1, 10), // billed to parent 1
            state(lineage_op::SUSPEND_TAU, 2, 0, 7),
            state(lineage_op::RESUME, 2, 0, 0),
            state(lineage_op::EXIT, 2, 0, 3),
            state(lineage_op::FAULT, 1, 0, 4),
            state(lineage_op::ROOT, 3, 0, 0), // second run
        ];
        let f = Forest::from_events(&events);
        assert_eq!(f.roots, vec![0, 2]);
        assert_eq!(f.nodes[0].own.steps, 5 + 10 + 4);
        assert_eq!(f.nodes[1].own.steps, 7 + 3);
        assert_eq!(f.nodes[1].suspends, [1, 0, 0]);
        assert_eq!(f.nodes[1].resumes, 1);
        assert_eq!(f.nodes[0].status(), Status::Terminal);
        assert_eq!(f.nodes[2].status(), Status::Live);
        let roll = f.subtree_work();
        assert_eq!(roll[0].steps, 19 + 10);
        assert_eq!(roll[1].steps, 10);
    }

    #[test]
    fn suspended_fork_child_counts_as_suspended() {
        let events = vec![
            state(lineage_op::ROOT, 1, 0, 0),
            state(lineage_op::FORK, 2, 1, 0),
            state(lineage_op::SUSPEND_BRANCH, 2, 0, 0),
        ];
        let f = Forest::from_events(&events);
        let (by_op, live, suspended) = f.disposition_counts();
        assert!(by_op.is_empty());
        assert_eq!((live, suspended), (1, 1));
        assert_eq!(f.nodes[1].suspends, [0, 0, 1]);
    }
}
