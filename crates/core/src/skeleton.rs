//! Skeleton extraction (paper §V-B step 1 / §VI-B).
//!
//! Per the paper's implementation section, the *skeleton* is "obtained
//! by choosing the path with highest average predicate score when
//! breadth first search is performed starting from the program entry
//! point to the failure point": among all **shortest** entry→failure
//! paths in the transition graph, the one with the highest average node
//! score (best predicate score at each location).
//!
//! This is what makes the skeleton selective: under partial sampling the
//! mined graph contains "skip" edges, the shortest path gets shorter,
//! and high-score locations left off the skeleton are re-attached as
//! detours — exactly the paper's observation that the first candidate
//! path at 30% sampling has fewer nodes than at 100%.

use crate::predicate::PredicateSet;
use crate::transition::TransitionGraph;
use concrete::Location;
use std::collections::{BTreeMap, VecDeque};

/// The selected skeleton path.
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton {
    /// Locations from entry to failure point, inclusive.
    pub nodes: Vec<Location>,
    /// Average node score along the path.
    pub avg_score: f64,
}

/// Search limits for skeleton construction.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonConfig {
    /// Maximum skeleton length in nodes (paths longer than this are
    /// rejected; defensive bound).
    pub max_len: usize,
}

impl Default for SkeletonConfig {
    fn default() -> Self {
        SkeletonConfig { max_len: 512 }
    }
}

impl Skeleton {
    /// Finds the best skeleton from the program entry to `failure`.
    ///
    /// Entry selection: `main():enter` when present in the graph, else
    /// all zero-incoming nodes, else every node (fully cyclic graphs can
    /// occur under heavy sampling). Among entries, the shortest distance
    /// to `failure` wins; ties go to the higher-scoring path.
    pub fn build(
        graph: &TransitionGraph,
        preds: &PredicateSet,
        failure: &Location,
        config: SkeletonConfig,
    ) -> Option<Skeleton> {
        let main_enter = Location::enter("main");
        let mut entries = if graph.nodes().any(|l| *l == main_enter) {
            vec![main_enter]
        } else {
            graph.entry_nodes()
        };
        if entries.is_empty() {
            entries.extend(graph.nodes().cloned());
        }

        let mut best: Option<Skeleton> = None;
        for entry in &entries {
            let Some(candidate) = best_shortest_path(graph, preds, entry, failure, config) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some(b) => {
                    candidate.nodes.len() < b.nodes.len()
                        || (candidate.nodes.len() == b.nodes.len()
                            && candidate.avg_score > b.avg_score)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        best
    }

    /// Index of `loc` within the skeleton, if present.
    pub fn index_of(&self, loc: &Location) -> Option<usize> {
        self.nodes.iter().position(|n| n == loc)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a degenerate empty skeleton (never produced by `build`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Among all shortest `entry → failure` paths, returns the one with the
/// highest total (equivalently, average) node score, via dynamic
/// programming over the BFS level DAG.
fn best_shortest_path(
    graph: &TransitionGraph,
    preds: &PredicateSet,
    entry: &Location,
    failure: &Location,
    config: SkeletonConfig,
) -> Option<Skeleton> {
    // BFS distances from entry.
    let mut dist: BTreeMap<Location, usize> = BTreeMap::new();
    let mut order: Vec<Location> = Vec::new();
    dist.insert(entry.clone(), 0);
    let mut queue = VecDeque::from([entry.clone()]);
    while let Some(cur) = queue.pop_front() {
        let d = dist[&cur];
        order.push(cur.clone());
        if cur == *failure || d >= config.max_len {
            continue;
        }
        for e in graph.successors(&cur) {
            if !dist.contains_key(&e.to) {
                dist.insert(e.to.clone(), d + 1);
                queue.push_back(e.to.clone());
            }
        }
    }
    let d_fail = *dist.get(failure)?;
    if d_fail + 1 > config.max_len {
        return None;
    }

    // DP over the shortest-path DAG (edges u→v with dist[v] = dist[u]+1):
    // best cumulative score from entry to each node. `order` is BFS
    // order, so a node's predecessors are finalized before it is used.
    let mut best_score: BTreeMap<Location, f64> = BTreeMap::new();
    let mut best_pred: BTreeMap<Location, Location> = BTreeMap::new();
    best_score.insert(entry.clone(), preds.location_score(entry));
    for u in &order {
        let Some(&su) = best_score.get(u) else {
            continue;
        };
        let du = dist[u];
        for e in graph.successors(u) {
            if dist.get(&e.to) != Some(&(du + 1)) {
                continue;
            }
            let sv = su + preds.location_score(&e.to);
            let better = match best_score.get(&e.to) {
                None => true,
                Some(&cur) => {
                    sv > cur || (sv == cur && best_pred.get(&e.to).is_some_and(|p| u < p))
                }
            };
            if better {
                best_score.insert(e.to.clone(), sv);
                best_pred.insert(e.to.clone(), u.clone());
            }
        }
    }

    let total = *best_score.get(failure)?;
    // Reconstruct entry → failure.
    let mut nodes = vec![failure.clone()];
    let mut at = failure.clone();
    while at != *entry {
        at = best_pred.get(&at)?.clone();
        nodes.push(at.clone());
    }
    nodes.reverse();
    let avg_score = total / nodes.len() as f64;
    Some(Skeleton { nodes, avg_score })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::LogCorpus;
    use crate::transition::MineConfig;
    use concrete::{ExecutionLog, Measure, Records, VarId, VarRole, Verdict};

    fn l(name: &str) -> Location {
        Location::enter(name)
    }

    fn graph_of(traces: &[Vec<Location>]) -> TransitionGraph {
        TransitionGraph::mine(traces.iter(), MineConfig::default())
    }

    /// Builds a predicate set where `hot` locations score 1.0 (perfectly
    /// separating observations) and others score ~0.
    fn preds_with_hot(hot: &[&str]) -> PredicateSet {
        let mut logs = Vec::new();
        for verdict in [Verdict::Correct, Verdict::Faulty] {
            let v = if verdict == Verdict::Faulty {
                100.0
            } else {
                1.0
            };
            logs.push(ExecutionLog {
                records: Records::from_rows(hot.iter().map(|name| {
                    (
                        l(name),
                        [(VarId::new("x", VarRole::Param, Measure::Value), v)],
                    )
                })),
                verdict,
                fault: None,
            });
        }
        PredicateSet::build(&LogCorpus::build(&logs))
    }

    #[test]
    fn picks_higher_scoring_route_among_shortest() {
        // Two same-length routes a -> {hot | cold} -> fail; hot scores 1.
        let traces = vec![
            vec![l("a"), l("hot"), l("fail")],
            vec![l("a"), l("cold"), l("fail")],
        ];
        let g = graph_of(&traces);
        let preds = preds_with_hot(&["hot"]);
        let sk = Skeleton::build(&g, &preds, &l("fail"), SkeletonConfig::default()).unwrap();
        assert_eq!(sk.nodes, vec![l("a"), l("hot"), l("fail")]);
        assert!(sk.avg_score > 0.0);
        assert_eq!(sk.index_of(&l("hot")), Some(1));
        assert_eq!(sk.len(), 3);
        assert!(!sk.is_empty());
    }

    #[test]
    fn bfs_prefers_shorter_even_if_longer_scores_higher() {
        // Skip edge a -> fail exists: the skeleton takes it (BFS), and
        // the hot node is left for the detour machinery.
        let traces = vec![vec![l("a"), l("hot"), l("fail")], vec![l("a"), l("fail")]];
        let g = graph_of(&traces);
        let preds = preds_with_hot(&["hot"]);
        let sk = Skeleton::build(&g, &preds, &l("fail"), SkeletonConfig::default()).unwrap();
        assert_eq!(sk.nodes, vec![l("a"), l("fail")]);
    }

    #[test]
    fn skeleton_is_acyclic_despite_cycles_in_graph() {
        let traces = vec![vec![l("a"), l("b"), l("a"), l("b"), l("fail")]];
        let g = graph_of(&traces);
        let preds = preds_with_hot(&[]);
        let sk = Skeleton::build(&g, &preds, &l("fail"), SkeletonConfig::default()).unwrap();
        let mut dedup = sk.nodes.clone();
        dedup.sort_by_key(|loc| loc.to_string());
        dedup.dedup();
        assert_eq!(dedup.len(), sk.nodes.len(), "no repeated nodes");
        assert_eq!(sk.nodes.last(), Some(&l("fail")));
    }

    #[test]
    fn unreachable_failure_yields_none() {
        let traces = vec![vec![l("a"), l("b")]];
        let g = graph_of(&traces);
        let preds = preds_with_hot(&[]);
        assert!(Skeleton::build(&g, &preds, &l("nowhere"), SkeletonConfig::default()).is_none());
    }

    #[test]
    fn main_enter_is_preferred_entry() {
        let traces = vec![
            vec![l("main"), l("x"), l("fail")],
            vec![l("other_entry"), l("fail")],
        ];
        let g = graph_of(&traces);
        let preds = preds_with_hot(&[]);
        let sk = Skeleton::build(&g, &preds, &l("fail"), SkeletonConfig::default()).unwrap();
        assert_eq!(sk.nodes.first(), Some(&l("main")));
    }

    #[test]
    fn max_len_rejects_long_paths() {
        let traces = vec![vec![l("a"), l("b"), l("c"), l("d"), l("fail")]];
        let g = graph_of(&traces);
        let preds = preds_with_hot(&[]);
        let cfg = SkeletonConfig { max_len: 3 };
        assert!(Skeleton::build(&g, &preds, &l("fail"), cfg).is_none());
    }
}
