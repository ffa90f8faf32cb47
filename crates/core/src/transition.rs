//! Transition-graph mining (paper §V-B, Eq. 3).
//!
//! From (possibly partially sampled) faulty-run traces, build a directed
//! graph over instrumentation locations with association-rule confidence
//!
//! ```text
//! µ(ei, ej) = o(ei → ej) / o(ei)
//! ```
//!
//! where `o(ei → ej)` counts how often `ej` immediately follows `ei` in
//! a sampled trace. Low-confidence edges are dropped.

use concrete::Location;
use solver::U64Map;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// One event trace: a sequence of location ids into a location table.
/// A [`crate::LogCorpus`] shares one table across all of its traces, so
/// a record costs four bytes and no reference count.
#[derive(Clone)]
pub struct Trace {
    /// The locations the ids index.
    table: Arc<[Location]>,
    /// The trace, one id per record; each indexes `table`.
    ids: Vec<u32>,
}

impl Trace {
    /// A trace of `ids` into `table`; every id must index `table`.
    pub(crate) fn new(table: Arc<[Location]>, ids: Vec<u32>) -> Trace {
        debug_assert!(ids.iter().all(|&id| (id as usize) < table.len()));
        Trace { table, ids }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the trace has no record.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The locations in trace order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Location> + '_ {
        self.ids.iter().map(|&id| &self.table[id as usize])
    }

    /// The last location, if any.
    pub fn last(&self) -> Option<&Location> {
        self.ids.last().map(|&id| &self.table[id as usize])
    }

    /// The location table the ids index.
    #[cfg(test)]
    pub(crate) fn table(&self) -> &Arc<[Location]> {
        &self.table
    }
}

/// A trace with a table of its own: the locations themselves.
impl From<Vec<Location>> for Trace {
    fn from(locations: Vec<Location>) -> Trace {
        let n = u32::try_from(locations.len()).expect("trace of at most u32::MAX records");
        Trace::new(locations.into(), (0..n).collect())
    }
}

/// Traces are equal when their location sequences are, whatever their
/// tables.
impl PartialEq for Trace {
    fn eq(&self, other: &Trace) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A directed edge with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// Target location.
    pub to: Location,
    /// `o(ei → ej)`.
    pub count: usize,
    /// Eq. 3 confidence.
    pub confidence: f64,
}

/// The mined dynamic transition graph.
#[derive(Debug, Clone, Default)]
pub struct TransitionGraph {
    /// Outgoing edges per location (sorted keys for determinism).
    edges: BTreeMap<Location, Vec<Edge>>,
    /// Occurrence count per location.
    occurrences: BTreeMap<Location, usize>,
}

/// Mining thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MineConfig {
    /// Minimum Eq. 3 confidence for an edge to be kept.
    pub min_confidence: f64,
    /// Minimum absolute occurrence count for an edge.
    pub min_support: usize,
}

impl Default for MineConfig {
    fn default() -> Self {
        MineConfig {
            min_confidence: 0.02,
            min_support: 1,
        }
    }
}

impl TransitionGraph {
    /// Mines the graph from event traces (the paper mines faulty
    /// executions; pass correct traces too when the failure point is
    /// deep and sampling is sparse).
    ///
    /// Counting is per *log file* (trace), as in the paper's Eq. 3: a
    /// location or adjacent pair contributes at most once per trace.
    /// (Counting raw record occurrences instead would let hot loop
    /// locations dilute the confidence of their rare-but-real outgoing
    /// transitions below any threshold.)
    pub fn mine<'a>(
        traces: impl IntoIterator<Item = &'a Trace>,
        config: MineConfig,
    ) -> TransitionGraph {
        // Mine-local node ids: each distinct table (by address) is
        // mapped once, so traces of one corpus share the mapping.
        let mut tables: HashMap<*const [Location], Vec<u32>> = HashMap::new();
        let mut node_ids: HashMap<&'a Location, u32> = HashMap::new();
        let mut nodes: Vec<&'a Location> = Vec::new();
        // Per node, and per adjacent pair `(from << 32) | to`: the
        // number of traces containing it, and the stamp (1-based index)
        // of the last such trace, so each counts once per trace.
        let mut occurrences: Vec<(usize, usize)> = Vec::new();
        let mut pairs: U64Map<(usize, usize)> = U64Map::default();
        for (stamp, trace) in (1..).zip(traces) {
            let local = tables.entry(Arc::as_ptr(&trace.table)).or_insert_with(|| {
                let table: &'a [Location] = &trace.table;
                table
                    .iter()
                    .map(|loc| {
                        let next = u32::try_from(nodes.len()).expect("at most u32::MAX nodes");
                        let id = *node_ids.entry(loc).or_insert(next);
                        if id == next {
                            nodes.push(loc);
                            occurrences.push((0, 0));
                        }
                        id
                    })
                    .collect()
            });
            let mut prev: Option<u32> = None;
            let mut last_pair = None;
            for &id in &trace.ids {
                let node = local[id as usize];
                let occ = &mut occurrences[node as usize];
                if occ.1 != stamp {
                    *occ = (occ.0 + 1, stamp);
                }
                if let Some(from) = prev {
                    let pair = u64::from(from) << 32 | u64::from(node);
                    if last_pair != Some(pair) {
                        last_pair = Some(pair);
                        let n = pairs.entry(pair).or_insert((0, 0));
                        if n.1 != stamp {
                            *n = (n.0 + 1, stamp);
                        }
                    }
                }
                prev = Some(node);
            }
        }
        let mut out: Vec<Vec<Edge>> = vec![Vec::new(); nodes.len()];
        for (pair, (count, _)) in pairs {
            let (from, to) = ((pair >> 32) as usize, pair as u32 as usize);
            let confidence = count as f64 / occurrences[from].0 as f64;
            if confidence >= config.min_confidence && count >= config.min_support {
                out[from].push(Edge {
                    to: nodes[to].clone(),
                    count,
                    confidence,
                });
            }
        }
        let mut edges: BTreeMap<Location, Vec<Edge>> = BTreeMap::new();
        for (from, mut list) in out.into_iter().enumerate() {
            if list.is_empty() {
                continue;
            }
            // No two edges of one node share a target, so the order is
            // total whatever order the pairs came in.
            list.sort_by(|a, b| {
                b.confidence
                    .partial_cmp(&a.confidence)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.to.cmp(&b.to))
            });
            edges.insert(nodes[from].clone(), list);
        }
        let occurrences = nodes
            .into_iter()
            .zip(occurrences)
            .filter(|&(_, (n, _))| n > 0)
            .map(|(loc, (n, _))| (loc.clone(), n))
            .collect();
        TransitionGraph { edges, occurrences }
    }

    /// Outgoing edges of `loc`, highest confidence first.
    pub fn successors(&self, loc: &Location) -> &[Edge] {
        self.edges.get(loc).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All nodes (locations with any occurrence).
    pub fn nodes(&self) -> impl Iterator<Item = &Location> {
        self.occurrences.keys()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.occurrences.len()
    }

    /// Total number of kept edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(Vec::len).sum()
    }

    /// Number of traces containing `loc`.
    pub fn occurrences(&self, loc: &Location) -> usize {
        self.occurrences.get(loc).copied().unwrap_or(0)
    }

    /// Nodes with no incoming edges — candidate program entry points
    /// (paper §V-B step 1).
    pub fn entry_nodes(&self) -> Vec<Location> {
        let mut has_incoming: BTreeMap<&Location, bool> = BTreeMap::new();
        for loc in self.occurrences.keys() {
            has_incoming.insert(loc, false);
        }
        for (from, outs) in &self.edges {
            for e in outs {
                if e.to != *from {
                    has_incoming.insert(&e.to, true);
                }
            }
        }
        has_incoming
            .into_iter()
            .filter(|&(_loc, inc)| !inc)
            .map(|(loc, _inc)| loc.clone())
            .collect()
    }

    /// A copy of the graph keeping only each node's `k` highest-
    /// confidence outgoing edges. Skeleton construction runs on the
    /// `top_k(1)` view so it follows the *modal* execution chain, while
    /// detours search the full graph — this is what pushes rarely-taken
    /// high-score locations off the skeleton and into detours, as in the
    /// paper's polymorph/thttpd analyses.
    #[must_use]
    pub fn top_k(&self, k: usize) -> TransitionGraph {
        let mut edges = self.edges.clone();
        for out in edges.values_mut() {
            out.truncate(k);
        }
        TransitionGraph {
            edges,
            occurrences: self.occurrences.clone(),
        }
    }

    /// The subgraph induced on `keep`: only kept nodes and the edges
    /// between them survive. Used to restrict skeleton construction to
    /// mainline locations while detours search the full graph.
    #[must_use]
    pub fn induced(&self, keep: &std::collections::BTreeSet<Location>) -> TransitionGraph {
        let mut edges = BTreeMap::new();
        for (from, outs) in &self.edges {
            if !keep.contains(from) {
                continue;
            }
            let kept: Vec<Edge> = outs
                .iter()
                .filter(|e| keep.contains(&e.to))
                .cloned()
                .collect();
            if !kept.is_empty() {
                edges.insert(from.clone(), kept);
            }
        }
        let occurrences = self
            .occurrences
            .iter()
            .filter(|(l, _)| keep.contains(*l))
            .map(|(l, n)| (l.clone(), *n))
            .collect();
        TransitionGraph { edges, occurrences }
    }

    /// Breadth-first shortest path `from → to` (inclusive), if any.
    pub fn shortest_path(&self, from: &Location, to: &Location) -> Option<Vec<Location>> {
        if from == to {
            return Some(vec![from.clone()]);
        }
        let mut prev: BTreeMap<Location, Location> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from.clone()]);
        let mut seen: std::collections::BTreeSet<Location> = [from.clone()].into();
        while let Some(cur) = queue.pop_front() {
            for e in self.successors(&cur) {
                if seen.insert(e.to.clone()) {
                    prev.insert(e.to.clone(), cur.clone());
                    if &e.to == to {
                        let mut path = vec![to.clone()];
                        let mut at = to.clone();
                        while let Some(p) = prev.get(&at) {
                            path.push(p.clone());
                            at = p.clone();
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(e.to.clone());
                }
            }
        }
        None
    }
}

/// Test traces, each with a table of its own.
#[cfg(test)]
pub(crate) fn traces_of(rows: &[Vec<Location>]) -> Vec<Trace> {
    rows.iter().cloned().map(Trace::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l(name: &str) -> Location {
        Location::enter(name)
    }

    fn mine(rows: &[Vec<Location>]) -> TransitionGraph {
        TransitionGraph::mine(&traces_of(rows), MineConfig::default())
    }

    #[test]
    fn counts_and_confidence() {
        let traces = vec![
            vec![l("a"), l("b"), l("c")],
            vec![l("a"), l("b")],
            vec![l("a"), l("c")],
        ];
        let g = mine(&traces);
        assert_eq!(g.occurrences(&l("a")), 3);
        let succ = g.successors(&l("a"));
        assert_eq!(succ.len(), 2);
        assert_eq!(succ[0].to, l("b"));
        assert!((succ[0].confidence - 2.0 / 3.0).abs() < 1e-9);
        assert!((succ[1].confidence - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn low_confidence_edges_dropped() {
        let mut traces = vec![vec![l("a"), l("b")]; 99];
        traces.push(vec![l("a"), l("z")]);
        let g = TransitionGraph::mine(
            &traces_of(&traces),
            MineConfig {
                min_confidence: 0.05,
                min_support: 1,
            },
        );
        let succ = g.successors(&l("a"));
        assert_eq!(succ.len(), 1);
        assert_eq!(succ[0].to, l("b"));
    }

    #[test]
    fn entry_nodes_have_no_incoming() {
        let traces = vec![vec![l("main"), l("f"), l("g")]];
        let g = mine(&traces);
        assert_eq!(g.entry_nodes(), vec![l("main")]);
    }

    #[test]
    fn self_loop_does_not_hide_entry() {
        let traces = vec![vec![l("main"), l("main"), l("f")]];
        let g = mine(&traces);
        assert!(g.entry_nodes().contains(&l("main")));
    }

    #[test]
    fn shortest_path_bfs() {
        let traces = vec![vec![l("a"), l("b"), l("c"), l("d")], vec![l("a"), l("d")]];
        let g = mine(&traces);
        // Direct a -> d edge beats the 3-hop route.
        assert_eq!(g.shortest_path(&l("a"), &l("d")).unwrap().len(), 2);
        assert_eq!(g.shortest_path(&l("a"), &l("a")).unwrap().len(), 1);
        assert!(g.shortest_path(&l("d"), &l("a")).is_none());
    }

    #[test]
    fn edge_and_node_counts() {
        let traces = vec![vec![l("a"), l("b"), l("a"), l("b")]];
        let g = mine(&traces);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2); // a->b and b->a
    }

    /// The set-based counting `mine` replaced, kept as its oracle:
    /// per trace, the set of its locations and the set of its adjacent
    /// pairs, keyed by location.
    fn mine_oracle(traces: &[Trace], config: MineConfig) -> TransitionGraph {
        use std::collections::BTreeSet;
        let mut pair_counts: BTreeMap<(Location, Location), usize> = BTreeMap::new();
        let mut occurrences: BTreeMap<Location, usize> = BTreeMap::new();
        for trace in traces {
            let locs: Vec<&Location> = trace.iter().collect();
            for loc in locs.iter().copied().collect::<BTreeSet<_>>() {
                *occurrences.entry(loc.clone()).or_default() += 1;
            }
            let pairs: BTreeSet<(&Location, &Location)> =
                locs.windows(2).map(|w| (w[0], w[1])).collect();
            for (a, b) in pairs {
                *pair_counts.entry((a.clone(), b.clone())).or_default() += 1;
            }
        }
        let mut edges: BTreeMap<Location, Vec<Edge>> = BTreeMap::new();
        for ((from, to), count) in pair_counts {
            let confidence = count as f64 / occurrences[&from] as f64;
            if confidence >= config.min_confidence && count >= config.min_support {
                edges.entry(from).or_default().push(Edge {
                    to,
                    count,
                    confidence,
                });
            }
        }
        for out in edges.values_mut() {
            out.sort_by(|a, b| {
                b.confidence
                    .partial_cmp(&a.confidence)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.to.cmp(&b.to))
            });
        }
        TransitionGraph { edges, occurrences }
    }

    /// Every observable of `got` equals the oracle's, node by node.
    fn assert_same_graph(got: &TransitionGraph, want: &TransitionGraph, what: &str) {
        assert_eq!(got.node_count(), want.node_count(), "{what}");
        assert_eq!(got.edge_count(), want.edge_count(), "{what}");
        assert_eq!(got.entry_nodes(), want.entry_nodes(), "{what}");
        assert_eq!(
            got.nodes().collect::<Vec<_>>(),
            want.nodes().collect::<Vec<_>>(),
            "{what}"
        );
        for loc in want.nodes() {
            assert_eq!(got.occurrences(loc), want.occurrences(loc), "{what}: {loc}");
            assert_eq!(got.successors(loc), want.successors(loc), "{what}: {loc}");
        }
    }

    /// Location `i` of a six-letter alphabet, entries and exits mixed.
    fn alpha(i: u8) -> Location {
        let name = ["a", "b", "c", "d", "e", "f"][usize::from(i / 2)];
        if i.is_multiple_of(2) {
            Location::enter(name)
        } else {
            Location::leave(name)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn id_mining_matches_the_set_oracle(
            rows in collection::vec(
                (collection::vec(0u8..12, 0..24), any::<bool>(), 0u8..12),
                0..12,
            ),
            min_confidence in prop_oneof![Just(0.0), Just(0.02), Just(0.3), Just(0.5), Just(1.0)],
            min_support in 0usize..4,
        ) {
            // Shared-table traces index one table holding the alphabet
            // twice over in a shifted order (so ids differ from
            // locations and a location has two ids); the others get a
            // table of their own. A row's third field, repeated, makes
            // runs of self-loops and repeated pairs more likely.
            let shared: Arc<[Location]> = (0..24u8).map(|i| alpha((i + 5) % 12)).collect();
            let id_of = |c: u8, k: usize| -> u32 {
                let at = (0..24).filter(|&i| (i + 5) % 12 == c).nth(k % 2).unwrap();
                at as u32
            };
            let traces: Vec<Trace> = rows
                .iter()
                .map(|(row, share, rep)| {
                    let mut row = row.clone();
                    if row.len() > 2 {
                        let mid = row.len() / 2;
                        row.splice(mid..mid, [*rep; 3]);
                    }
                    if *share {
                        let ids = row.iter().enumerate().map(|(k, &c)| id_of(c, k)).collect();
                        Trace::new(shared.clone(), ids)
                    } else {
                        Trace::from(row.iter().map(|&c| alpha(c)).collect::<Vec<_>>())
                    }
                })
                .collect();
            let config = MineConfig { min_confidence, min_support };
            let got = TransitionGraph::mine(&traces, config);
            assert_same_graph(&got, &mine_oracle(&traces, config), &format!("{rows:?} {config:?}"));
        }
    }

    #[test]
    fn trace_views_its_locations() {
        let t = Trace::from(vec![l("a"), l("b"), l("a")]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.last(), Some(&l("a")));
        assert_eq!(format!("{t:?}"), format!("{:?}", [l("a"), l("b"), l("a")]));
        let shared: Arc<[Location]> = vec![l("b"), l("a")].into();
        assert_eq!(Trace::new(shared, vec![1, 0, 1]), t);
        assert_ne!(Trace::from(vec![l("a"), l("b")]), t);
        let empty = Trace::from(Vec::new());
        assert!(empty.is_empty() && empty.last().is_none());
    }
}
