//! Detour identification (paper §V-B step 2 / §VI-B).
//!
//! High-confidence predicates may sit at locations the skeleton misses.
//! A *detour* is a path segment branching off a skeleton node, visiting
//! such a location, and rejoining the skeleton. Depending on the indices
//! of its anchor nodes, a detour is *forward* (start index < end index —
//! may replace a skeleton segment), *backward* (start > end — introduces
//! a cycle), or a *loop* (start == end).

use crate::predicate::PredicateSet;
use crate::skeleton::Skeleton;
use crate::transition::TransitionGraph;
use concrete::Location;
use std::collections::BTreeMap;

/// Detour classification by anchor indices (paper §VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DetourKind {
    /// Start anchor precedes end anchor on the skeleton.
    Forward,
    /// Start anchor follows end anchor (cycle).
    Backward,
    /// Both anchors are the same skeleton node (cycle).
    Loop,
}

/// One detour off the skeleton.
#[derive(Debug, Clone, PartialEq)]
pub struct Detour {
    /// Skeleton index where the detour branches off.
    pub from_idx: usize,
    /// Skeleton index where it rejoins.
    pub to_idx: usize,
    /// Intermediate locations (excluding the skeleton anchors).
    pub nodes: Vec<Location>,
    /// Best predicate score among intermediate locations.
    pub score: f64,
    /// Classification.
    pub kind: DetourKind,
}

impl Detour {
    fn classify(from_idx: usize, to_idx: usize) -> DetourKind {
        use std::cmp::Ordering::*;
        match from_idx.cmp(&to_idx) {
            Less => DetourKind::Forward,
            Greater => DetourKind::Backward,
            Equal => DetourKind::Loop,
        }
    }
}

/// Detour search parameters.
#[derive(Debug, Clone, Copy)]
pub struct DetourConfig {
    /// Only target locations whose best predicate scores at least this.
    pub min_score: f64,
    /// Cap on returned detours.
    pub max_detours: usize,
}

impl Default for DetourConfig {
    fn default() -> Self {
        DetourConfig {
            min_score: 0.5,
            max_detours: 64,
        }
    }
}

/// Finds detours from `skeleton` to every sufficiently-scored location
/// it misses. For each unique `(anchor, kind)` pair only the
/// best-scoring detour is kept (the paper's same-type heuristic).
pub fn find_detours(
    graph: &TransitionGraph,
    preds: &PredicateSet,
    skeleton: &Skeleton,
    config: DetourConfig,
) -> Vec<Detour> {
    let mut candidates: Vec<Detour> = Vec::new();
    let targets: Vec<&Location> = graph
        .nodes()
        .filter(|loc| skeleton.index_of(loc).is_none())
        .filter(|loc| preds.location_score(loc) >= config.min_score)
        .collect();

    for target in targets {
        // Best (shortest) branch-off: skeleton node -> target.
        let out = skeleton
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| graph.shortest_path(s, target).map(|p| (i, p)))
            .min_by_key(|(_, p)| p.len());
        // Best rejoin: target -> skeleton node.
        let back = skeleton
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(i, s)| graph.shortest_path(target, s).map(|p| (i, p)))
            .min_by_key(|(_, p)| p.len());
        let (Some((from_idx, out_path)), Some((to_idx, back_path))) = (out, back) else {
            continue;
        };
        // Intermediate nodes: out_path minus its skeleton head, plus
        // back_path minus the target head and the skeleton tail.
        let mut nodes: Vec<Location> = out_path[1..].to_vec();
        nodes.extend(
            back_path[1..back_path.len().saturating_sub(1)]
                .iter()
                .cloned(),
        );
        if nodes.is_empty() {
            continue;
        }
        let score = nodes
            .iter()
            .map(|l| preds.location_score(l))
            .fold(0.0, f64::max);
        candidates.push(Detour {
            from_idx,
            to_idx,
            nodes,
            score,
            kind: Detour::classify(from_idx, to_idx),
        });
    }

    // Per (anchor, kind): keep the best-scoring (then shortest) detour.
    let mut best: BTreeMap<(usize, DetourKind), Detour> = BTreeMap::new();
    for d in candidates {
        let key = (d.from_idx, d.kind);
        match best.get(&key) {
            Some(cur)
                if cur.score > d.score
                    || (cur.score == d.score && cur.nodes.len() <= d.nodes.len()) => {}
            _ => {
                best.insert(key, d);
            }
        }
    }
    let mut out: Vec<Detour> = best.into_values().collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.from_idx.cmp(&b.from_idx))
    });
    out.truncate(config.max_detours);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::LogCorpus;
    use crate::transition::{traces_of, MineConfig};
    use concrete::{ExecutionLog, Measure, Records, VarId, VarRole, Verdict};

    fn l(name: &str) -> Location {
        Location::enter(name)
    }

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

    fn setup(traces: &[Vec<Location>], hot: &[&str]) -> (TransitionGraph, PredicateSet, Skeleton) {
        let g = TransitionGraph::mine(&traces_of(traces), MineConfig::default());
        let preds = preds_with_hot(hot);
        let sk = Skeleton::build(
            &g,
            &preds,
            traces[0].last().unwrap(),
            crate::skeleton::SkeletonConfig::default(),
        )
        .unwrap();
        (g, preds, sk)
    }

    #[test]
    fn finds_forward_detour_through_hot_node() {
        // Skeleton a->b->fail (short); hot node h reachable a->h->b.
        let traces = vec![
            vec![l("a"), l("b"), l("fail")],
            vec![l("a"), l("h"), l("b"), l("fail")],
        ];
        let (g, preds, _sk) = setup(&traces, &["h"]);
        // With score on h the skeleton itself routes through h (higher
        // average); force the short skeleton so the detour machinery is
        // what has to rediscover h.
        let short = Skeleton {
            nodes: vec![l("a"), l("b"), l("fail")],
            avg_score: 0.0,
        };
        let ds = find_detours(&g, &preds, &short, DetourConfig::default());
        assert_eq!(ds.len(), 1);
        let d = &ds[0];
        assert_eq!(d.nodes, vec![l("h")]);
        assert_eq!(d.from_idx, 0);
        assert_eq!(d.to_idx, 1);
        assert_eq!(d.kind, DetourKind::Forward);
        assert!(d.score >= 0.99);
    }

    #[test]
    fn backward_detour_introduces_cycle() {
        // h reachable only from b, rejoins at a.
        let traces = [
            vec![l("a"), l("b"), l("fail")],
            vec![l("b"), l("h"), l("a")],
        ];
        let (g, preds, _) = setup(&[traces[0].clone()], &["h"]);
        let g2 = TransitionGraph::mine(&traces_of(&traces), MineConfig::default());
        let sk = Skeleton {
            nodes: vec![l("a"), l("b"), l("fail")],
            avg_score: 0.0,
        };
        let _ = (g, preds);
        let preds = preds_with_hot(&["h"]);
        let ds = find_detours(&g2, &preds, &sk, DetourConfig::default());
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].kind, DetourKind::Backward);
        assert_eq!(ds[0].from_idx, 1);
        assert_eq!(ds[0].to_idx, 0);
    }

    #[test]
    fn low_score_targets_ignored() {
        let traces = [
            vec![l("a"), l("b"), l("fail")],
            vec![l("a"), l("cold"), l("b"), l("fail")],
        ];
        let g = TransitionGraph::mine(&traces_of(&traces), MineConfig::default());
        let preds = preds_with_hot(&[]);
        let sk = Skeleton {
            nodes: vec![l("a"), l("b"), l("fail")],
            avg_score: 0.0,
        };
        let ds = find_detours(&g, &preds, &sk, DetourConfig::default());
        assert!(ds.is_empty());
    }

    #[test]
    fn unreachable_targets_skipped() {
        // h is hot but has no rejoin path.
        let traces = [vec![l("a"), l("b"), l("fail")], vec![l("a"), l("h")]];
        let g = TransitionGraph::mine(&traces_of(&traces), MineConfig::default());
        let preds = preds_with_hot(&["h"]);
        let sk = Skeleton {
            nodes: vec![l("a"), l("b"), l("fail")],
            avg_score: 0.0,
        };
        let ds = find_detours(&g, &preds, &sk, DetourConfig::default());
        assert!(ds.is_empty());
    }
}
