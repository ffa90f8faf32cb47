//! Candidate vulnerable-path assembly (paper §V-B step 3 / §VI-B).
//!
//! Candidates are built by joining the skeleton with subsets of detours
//! and ranked by average predicate score; the statistics-guided symbolic
//! executor tries them in order (the paper's thttpd case needed two).

use crate::detour::{Detour, DetourKind};
use crate::predicate::{Predicate, PredicateSet};
use crate::skeleton::Skeleton;
use concrete::Location;

/// One node of a candidate path: a location plus the predicates the
/// guided executor should inject there.
#[derive(Debug, Clone, PartialEq)]
pub struct PathNode {
    /// The instrumentation location.
    pub loc: Location,
    /// Predicates to inject (non-degenerate, best first).
    pub predicates: Vec<Predicate>,
}

/// A ranked candidate vulnerable path.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidatePath {
    /// Nodes from entry to failure point.
    pub nodes: Vec<PathNode>,
    /// Average node score (ranking key).
    pub score: f64,
}

impl CandidatePath {
    /// Number of nodes (the paper's Figure 7 metric).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the path has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Renders the node sequence, e.g. for the Figure 9 listing.
    pub fn render(&self) -> String {
        self.nodes
            .iter()
            .map(|n| n.loc.to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct CandidateConfig {
    /// Maximum number of candidate paths to keep.
    pub max_candidates: usize,
    /// Predicates attached per node, best first.
    pub predicates_per_node: usize,
    /// Minimum score for a predicate to be injected.
    pub min_predicate_score: f64,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            max_candidates: 16,
            predicates_per_node: 2,
            min_predicate_score: 0.5,
        }
    }
}

/// The full candidate-path construction output.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    /// Candidate paths, best first.
    pub paths: Vec<CandidatePath>,
    /// The underlying skeleton.
    pub skeleton: Skeleton,
    /// The detours considered.
    pub detours: Vec<Detour>,
}

impl CandidateSet {
    /// Builds the ranked candidate set from a skeleton and its detours.
    ///
    /// Generated variants: the bare skeleton, the skeleton plus each
    /// single detour, and the skeleton plus all detours; deduplicated
    /// and ranked by average node score (ties: shorter first).
    pub fn build(
        skeleton: Skeleton,
        detours: Vec<Detour>,
        preds: &PredicateSet,
        config: CandidateConfig,
    ) -> CandidateSet {
        let mut sequences: Vec<Vec<Location>> = Vec::new();
        sequences.push(skeleton.nodes.clone());
        for d in &detours {
            sequences.push(join(&skeleton, std::slice::from_ref(d)));
        }
        if detours.len() > 1 {
            sequences.push(join(&skeleton, &detours));
        }
        sequences.dedup();

        let mut paths: Vec<CandidatePath> = sequences
            .into_iter()
            .map(|nodes| annotate(nodes, preds, config))
            .collect();
        paths.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.nodes.len().cmp(&b.nodes.len()))
        });
        paths.dedup_by(|a, b| {
            a.nodes.len() == b.nodes.len()
                && a.nodes.iter().zip(&b.nodes).all(|(x, y)| x.loc == y.loc)
        });
        paths.truncate(config.max_candidates);
        CandidateSet {
            paths,
            skeleton,
            detours,
        }
    }

    /// Path length statistics `(min, avg, max)` in nodes — the paper's
    /// Figure 7.
    pub fn length_stats(&self) -> Option<(usize, f64, usize)> {
        if self.paths.is_empty() {
            return None;
        }
        let lens: Vec<usize> = self.paths.iter().map(CandidatePath::len).collect();
        let min = *lens.iter().min().expect("non-empty");
        let max = *lens.iter().max().expect("non-empty");
        let avg = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        Some((min, avg, max))
    }
}

/// Joins the skeleton with a set of detours, walking skeleton indices
/// and splicing detour segments at their anchors.
fn join(skeleton: &Skeleton, detours: &[Detour]) -> Vec<Location> {
    let mut sorted: Vec<&Detour> = detours.iter().collect();
    sorted.sort_by_key(|d| d.from_idx);
    let mut out: Vec<Location> = Vec::new();
    let mut idx = 0usize;
    let mut di = 0usize;
    while idx < skeleton.nodes.len() {
        out.push(skeleton.nodes[idx].clone());
        // Apply every detour anchored at this index (first applicable
        // only, to avoid duplicated splices at one anchor).
        if di < sorted.len() && sorted[di].from_idx == idx {
            let d = sorted[di];
            di += 1;
            out.extend(d.nodes.iter().cloned());
            match d.kind {
                // Forward detours replace the skeleton segment
                // (from_idx, to_idx): skip ahead.
                DetourKind::Forward => {
                    idx = d.to_idx;
                    continue;
                }
                // Backward detours rejoin earlier: replay the skeleton
                // from to_idx up to (and including) the anchor — the
                // cycle the paper describes.
                DetourKind::Backward => {
                    for k in d.to_idx..=d.from_idx {
                        out.push(skeleton.nodes[k].clone());
                    }
                }
                // Loops rejoin at the same node.
                DetourKind::Loop => {
                    out.push(skeleton.nodes[d.from_idx].clone());
                }
            }
        }
        idx += 1;
        // Skip any remaining detours anchored strictly before idx (their
        // anchor was consumed by a forward splice).
        while di < sorted.len() && sorted[di].from_idx < idx {
            di += 1;
        }
    }
    out
}

fn annotate(nodes: Vec<Location>, preds: &PredicateSet, config: CandidateConfig) -> CandidatePath {
    let path_nodes: Vec<PathNode> = nodes
        .into_iter()
        .map(|loc| {
            let predicates: Vec<Predicate> = preds
                .at_location(&loc)
                .filter(|p| !p.is_degenerate() && p.score >= config.min_predicate_score)
                .take(config.predicates_per_node)
                .cloned()
                .collect();
            PathNode { loc, predicates }
        })
        .collect();
    let score = if path_nodes.is_empty() {
        0.0
    } else {
        path_nodes
            .iter()
            .map(|n| preds.location_score(&n.loc))
            .sum::<f64>()
            / path_nodes.len() as f64
    };
    CandidatePath {
        nodes: path_nodes,
        score,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PredicateSet;

    fn l(name: &str) -> Location {
        Location::enter(name)
    }

    fn sk(names: &[&str]) -> Skeleton {
        Skeleton {
            nodes: names.iter().map(|n| l(n)).collect(),
            avg_score: 0.0,
        }
    }

    fn fwd(from: usize, to: usize, nodes: &[&str]) -> Detour {
        Detour {
            from_idx: from,
            to_idx: to,
            nodes: nodes.iter().map(|n| l(n)).collect(),
            score: 1.0,
            kind: if from < to {
                DetourKind::Forward
            } else if from > to {
                DetourKind::Backward
            } else {
                DetourKind::Loop
            },
        }
    }

    #[test]
    fn forward_detour_replaces_segment() {
        let s = sk(&["a", "b", "c", "fail"]);
        let joined = join(&s, &[fwd(0, 2, &["h"])]);
        let names: Vec<&str> = joined.iter().map(|x| &*x.func).collect();
        assert_eq!(names, vec!["a", "h", "c", "fail"]);
    }

    #[test]
    fn backward_detour_replays_cycle() {
        let s = sk(&["a", "b", "fail"]);
        let joined = join(&s, &[fwd(1, 0, &["h"])]);
        let names: Vec<&str> = joined.iter().map(|x| &*x.func).collect();
        assert_eq!(names, vec!["a", "b", "h", "a", "b", "fail"]);
    }

    #[test]
    fn loop_detour_revisits_anchor() {
        let s = sk(&["a", "b", "fail"]);
        let joined = join(&s, &[fwd(1, 1, &["h"])]);
        let names: Vec<&str> = joined.iter().map(|x| &*x.func).collect();
        assert_eq!(names, vec!["a", "b", "h", "b", "fail"]);
    }

    #[test]
    fn candidate_set_ranks_and_dedupes() {
        let s = sk(&["a", "b", "fail"]);
        let detours = vec![fwd(0, 1, &["h1"]), fwd(1, 2, &["h2"])];
        let preds = PredicateSet::default();
        let set = CandidateSet::build(s, detours, &preds, CandidateConfig::default());
        // skeleton, skeleton+d1, skeleton+d2, skeleton+all = 4 variants.
        assert_eq!(set.paths.len(), 4);
        let (min, avg, max) = set.length_stats().unwrap();
        assert_eq!(min, 3);
        assert_eq!(max, 5);
        assert!((3.0..=5.0).contains(&avg));
        // All scores are 0 (no predicates): shortest ranks first.
        assert_eq!(set.paths[0].len(), 3);
        assert!(!set.paths[0].is_empty());
        assert!(set.paths[0].render().contains("a():enter"));
    }

    #[test]
    fn max_candidates_is_respected() {
        let s = sk(&["a", "b", "c", "d", "fail"]);
        let detours: Vec<Detour> = (0..4).map(|i| fwd(i, i + 1, &["h"])).collect();
        let preds = PredicateSet::default();
        let cfg = CandidateConfig {
            max_candidates: 2,
            ..CandidateConfig::default()
        };
        let set = CandidateSet::build(s, detours, &preds, cfg);
        assert_eq!(set.paths.len(), 2);
    }
}
