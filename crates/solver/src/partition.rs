//! The constraint-independence partition of a conjunction, carried
//! incrementally.
//!
//! A [`Partition`] splits a conjunction into *components*: maximal
//! groups of conjuncts connected through shared variables. Components
//! are variable-disjoint, so the conjunction is satisfiable iff every
//! component is, and the solver decides (and memoises) each one on its
//! own — KLEE's constraint-independence optimisation.
//!
//! The symbolic executor's path conditions grow one conjunct at a time
//! and fork at every branch, so the partition is built by [`Partition::push`]
//! rather than recomputed per query: a push touches only the components
//! the new conjunct shares variables with. Components are shared between
//! forked copies behind `Arc`s and copied on write. Each component keeps
//! the running fingerprint fold of its conjuncts, and the partition keeps
//! the fold of the whole query, so fingerprints cost O(1).
//!
//! **Ordering.** A query is the flattened sequence of its hard, soft and
//! extra conjuncts, in that order, each segment in push order. Every
//! conjunct is tagged with its position in that sequence, `(segment,
//! index)`. Components are ordered by their first position, and
//! conjuncts inside a component by position — exactly the order a
//! from-scratch partition of the flattened query produces. A hard push
//! after soft pushes therefore sorts before them. The order fixes the
//! search's propagation order and so its work counters.

use crate::term::{Constraint, Fold, TermCtx, VarId};
use std::sync::Arc;

/// Which part of a query a conjunct belongs to. The flattened query is
/// every hard conjunct, then every soft one, then every extra one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// Branch decisions taken: the path proper.
    Hard = 0,
    /// Guidance constraints that suspend a state instead of killing it.
    Soft = 1,
    /// A one-off conjunct appended for a single query.
    Extra = 2,
}

/// A conjunct's position in the flattened query: the segment in the
/// high 32 bits, the push index within the segment in the low 32.
type Pos = u64;

/// One variable-disjoint component of a [`Partition`].
#[derive(Debug, Clone)]
pub struct Component {
    /// Conjuncts in position order.
    conjuncts: Vec<Constraint>,
    /// Position of each conjunct, parallel to `conjuncts` (ascending).
    positions: Vec<Pos>,
    /// Every variable the conjuncts read, sorted and deduplicated.
    vars: Vec<VarId>,
    fold: Fold,
}

impl Component {
    /// The conjuncts, in query order.
    pub fn conjuncts(&self) -> &[Constraint] {
        &self.conjuncts
    }

    /// The variables the conjuncts read, sorted.
    pub(crate) fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// The component's query fingerprint: equal to
    /// [`TermCtx::query_fingerprint`] of its conjuncts.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fold.fingerprint()
    }

    fn first(&self) -> Pos {
        self.positions[0]
    }

    fn touches(&self, vars: &[VarId]) -> bool {
        vars.iter().any(|v| self.vars.binary_search(v).is_ok())
    }

    /// Adds one conjunct that shares a variable with this component.
    fn insert(&mut self, pos: Pos, c: Constraint, h: u64, vars: &[VarId]) {
        let at = self.positions.partition_point(|&p| p < pos);
        self.positions.insert(at, pos);
        self.conjuncts.insert(at, c);
        for &v in vars {
            if let Err(at) = self.vars.binary_search(&v) {
                self.vars.insert(at, v);
            }
        }
        self.fold.add(h);
    }
}

/// The independence partition of a conjunction, extended one conjunct
/// at a time. Cloning is O(1); the first push after a clone copies the
/// component list (not the components).
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Components ordered by first position.
    comps: Arc<Vec<Arc<Component>>>,
    /// Fold of every conjunct: the whole query's fingerprint.
    fold: Fold,
    /// Next push index per segment.
    next: [u32; 3],
}

impl Partition {
    /// The empty conjunction.
    pub fn new() -> Partition {
        Partition::default()
    }

    /// The partition of `constraints`, all in the hard segment, in order.
    pub fn of(ctx: &TermCtx, constraints: &[Constraint]) -> Partition {
        let mut p = Partition::new();
        for &c in constraints {
            p.push(ctx, Segment::Hard, c);
        }
        p
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.next.iter().map(|&n| n as usize).sum()
    }

    /// True for the empty conjunction.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of conjuncts pushed into `seg`.
    pub fn segment_len(&self, seg: Segment) -> usize {
        self.next[seg as usize] as usize
    }

    /// The components, ordered by the position of their first conjunct.
    pub fn components(&self) -> &[Arc<Component>] {
        &self.comps
    }

    /// The whole query's fingerprint: equal to
    /// [`TermCtx::query_fingerprint`] of [`Partition::conjuncts`].
    pub fn fingerprint(&self) -> u64 {
        self.fold.fingerprint()
    }

    /// Every conjunct in query order (hard, soft, extra; each segment in
    /// push order).
    pub fn conjuncts(&self) -> Vec<Constraint> {
        let mut all: Vec<(Pos, Constraint)> = self
            .comps
            .iter()
            .flat_map(|k| k.positions.iter().copied().zip(k.conjuncts.iter().copied()))
            .collect();
        all.sort_unstable_by_key(|&(p, _)| p);
        all.into_iter().map(|(_, c)| c).collect()
    }

    /// Appends `c` to segment `seg`, merging every component it shares a
    /// variable with.
    pub fn push(&mut self, ctx: &TermCtx, seg: Segment, c: Constraint) {
        let pos = ((seg as u64) << 32) | u64::from(self.next[seg as usize]);
        self.next[seg as usize] += 1;
        let h = ctx.constraint_hash(&c);
        self.fold.add(h);
        let vars = conjunct_vars(ctx, &c);
        let comps = Arc::make_mut(&mut self.comps);
        let hits: Vec<usize> = (0..comps.len())
            .filter(|&i| comps[i].touches(&vars))
            .collect();
        let joined = match hits[..] {
            [i] => {
                let mut comp = comps.remove(i);
                Arc::make_mut(&mut comp).insert(pos, c, h, &vars);
                comp
            }
            // A new component, or a merge of every component `c` bridges.
            _ => {
                let mut fold = Fold::default();
                fold.add(h);
                let mut merged = vec![(pos, c)];
                let mut all_vars = vars;
                for &i in hits.iter().rev() {
                    let part = comps.remove(i);
                    merged.extend(
                        part.positions
                            .iter()
                            .copied()
                            .zip(part.conjuncts.iter().copied()),
                    );
                    all_vars.extend_from_slice(&part.vars);
                    fold.merge(part.fold);
                }
                merged.sort_unstable_by_key(|&(p, _)| p);
                all_vars.sort_unstable();
                all_vars.dedup();
                Arc::new(Component {
                    positions: merged.iter().map(|&(p, _)| p).collect(),
                    conjuncts: merged.into_iter().map(|(_, c)| c).collect(),
                    vars: all_vars,
                    fold,
                })
            }
        };
        let at = comps.partition_point(|k| k.first() < joined.first());
        comps.insert(at, joined);
    }

    /// A copy with `c` appended to segment `seg`.
    #[must_use]
    pub fn with(&self, ctx: &TermCtx, seg: Segment, c: Constraint) -> Partition {
        let mut p = self.clone();
        p.push(ctx, seg, c);
        p
    }
}

/// The sorted variable set of one conjunct.
fn conjunct_vars(ctx: &TermCtx, c: &Constraint) -> Vec<VarId> {
    let (l, r) = (ctx.vars_of(c.lhs), ctx.vars_of(c.rhs));
    let mut vars = Vec::with_capacity(l.len() + r.len());
    vars.extend_from_slice(&l);
    vars.extend_from_slice(&r);
    vars.sort_unstable();
    vars.dedup();
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{CmpOp, TermId};
    use crate::Solver;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The from-scratch partition the carried one must reproduce:
    /// union-find over conjunct indices of the flattened query,
    /// components ordered by first conjunct, conjuncts in query order.
    fn oracle(ctx: &TermCtx, constraints: &[Constraint]) -> Vec<Vec<Constraint>> {
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut parent: Vec<usize> = (0..constraints.len()).collect();
        let mut owner: HashMap<VarId, usize> = HashMap::new();
        for (i, c) in constraints.iter().enumerate() {
            for t in [c.lhs, c.rhs] {
                for &v in ctx.vars_of(t).iter() {
                    let first = *owner.entry(v).or_insert(i);
                    let (a, b) = (find(&mut parent, first), find(&mut parent, i));
                    if a != b {
                        parent[b] = a;
                    }
                }
            }
        }
        let mut slot_of_root: HashMap<usize, usize> = HashMap::new();
        let mut comps: Vec<Vec<Constraint>> = Vec::new();
        for (i, c) in constraints.iter().enumerate() {
            let root = find(&mut parent, i);
            let slot = *slot_of_root.entry(root).or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            comps[slot].push(*c);
        }
        comps
    }

    /// Asserts `p` is exactly the oracle partition of `flat`.
    fn assert_matches_oracle(ctx: &TermCtx, p: &Partition, flat: &[Constraint]) {
        let want = oracle(ctx, flat);
        let got: Vec<Vec<Constraint>> = p
            .components()
            .iter()
            .map(|k| k.conjuncts().to_vec())
            .collect();
        assert_eq!(got, want, "components, their order, or conjunct order");
        for (k, w) in p.components().iter().zip(&want) {
            assert_eq!(k.fingerprint(), ctx.query_fingerprint(w));
            let mut vars: Vec<VarId> = w
                .iter()
                .flat_map(|c| [c.lhs, c.rhs])
                .flat_map(|t| ctx.vars_of(t).to_vec())
                .collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(k.vars(), &vars[..]);
        }
        assert_eq!(p.fingerprint(), ctx.query_fingerprint(flat));
        assert_eq!(p.len(), flat.len());
        assert_eq!(p.conjuncts(), flat);
    }

    /// One symbolic-execution state as the executor carries it: the two
    /// partitions plus the flat lists they must agree with.
    #[derive(Clone)]
    struct Sim {
        hard: Partition,
        all: Partition,
        hard_list: Vec<Constraint>,
        soft_list: Vec<Constraint>,
    }

    impl Sim {
        fn flat(&self) -> Vec<Constraint> {
            let mut v = self.hard_list.clone();
            v.extend(&self.soft_list);
            v
        }
    }

    /// Builds atom `(shape, op, k)` over a pool of four byte variables.
    /// Shapes cover single-variable bounds, two-variable sums (which
    /// merge components) and a variable-free term (its own component).
    fn atom(ctx: &mut TermCtx, vars: &[TermId], (shape, op, k): (u8, u8, i64)) -> Constraint {
        let n = vars.len();
        let lhs = match shape % 4 {
            0 | 1 => vars[(k as usize) % n],
            2 => ctx.add(
                vars[(k as usize) % n],
                vars[(k as usize + 1 + shape as usize) % n],
            ),
            _ => {
                let (a, zero) = (ctx.int(k), ctx.int(0));
                ctx.div(a, zero)
            }
        };
        let rhs = ctx.int(k * 16);
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le][op as usize % 4];
        Constraint::new(op, lhs, rhs)
    }

    /// Pushes, forks, resets and extra-conjunct queries, interleaved.
    fn ops() -> impl Strategy<Value = Vec<(u8, (u8, u8, i64))>> {
        collection::vec((0u8..8, (0u8..8, 0u8..4, 0i64..16)), 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn carried_partition_matches_from_scratch_oracle(ops in ops()) {
            let mut ctx = TermCtx::new();
            let vars: Vec<TermId> = (0..4).map(|i| ctx.new_var(format!("b{i}"), 0, 255)).collect();
            let mut states = vec![Sim {
                hard: Partition::new(),
                all: Partition::new(),
                hard_list: Vec::new(),
                soft_list: Vec::new(),
            }];
            let mut cur = 0;
            let (mut by_slice, mut by_partition) = (Solver::default(), Solver::default());
            for (op, spec) in ops {
                let c = atom(&mut ctx, &vars, spec);
                let s = &mut states[cur];
                match op {
                    // Hard push: both partitions, hard segment.
                    0..=2 => {
                        s.hard.push(&ctx, Segment::Hard, c);
                        s.all.push(&ctx, Segment::Hard, c);
                        s.hard_list.push(c);
                    }
                    // Soft push.
                    3 | 4 => {
                        s.all.push(&ctx, Segment::Soft, c);
                        s.soft_list.push(c);
                    }
                    // Fork: the child shares the prefix; switch to either.
                    5 => {
                        let child = s.clone();
                        states.push(child);
                        cur = spec.2 as usize % states.len();
                    }
                    // Resume: drop the soft constraints.
                    6 => {
                        s.all = s.hard.clone();
                        s.soft_list.clear();
                    }
                    // A one-off query with an extra conjunct.
                    _ => {
                        let q = s.all.with(&ctx, Segment::Extra, c);
                        let mut flat = s.flat();
                        flat.push(c);
                        assert_matches_oracle(&ctx, &q, &flat);
                        let want = by_slice.check(&ctx, &flat);
                        let got = by_partition.check_at(&ctx, &q, &statsym_telemetry::NOOP, "extra");
                        prop_assert_eq!(want, got);
                    }
                }
                let s = &states[cur];
                assert_matches_oracle(&ctx, &s.hard, &s.hard_list);
                assert_matches_oracle(&ctx, &s.all, &s.flat());
                let want = by_slice.check_sat(&ctx, &s.flat());
                let got = by_partition.check_sat_at(&ctx, &s.all, &statsym_telemetry::NOOP, "all");
                prop_assert_eq!(want, got);
                let want = by_slice.check(&ctx, &s.hard_list);
                let got = by_partition.check_at(&ctx, &s.hard, &statsym_telemetry::NOOP, "hard");
                prop_assert_eq!(want, got);
                prop_assert_eq!(by_slice.stats(), by_partition.stats());
            }
            // No fork ever saw another's pushes.
            for s in &states {
                assert_matches_oracle(&ctx, &s.hard, &s.hard_list);
                assert_matches_oracle(&ctx, &s.all, &s.flat());
            }
        }
    }

    #[test]
    fn push_merges_components_a_conjunct_bridges() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let y = ctx.new_var("y", 0, 9);
        let z = ctx.new_var("z", 0, 9);
        let k = ctx.int(5);
        let sum = ctx.add(x, z);
        let cx = Constraint::new(CmpOp::Lt, x, k);
        let cy = Constraint::new(CmpOp::Lt, y, k);
        let cz = Constraint::new(CmpOp::Lt, z, k);
        let bridge = Constraint::new(CmpOp::Eq, sum, k);
        let mut p = Partition::of(&ctx, &[cx, cy, cz]);
        assert_eq!(p.components().len(), 3);
        p.push(&ctx, Segment::Soft, bridge);
        let layout: Vec<&[Constraint]> = p.components().iter().map(|k| k.conjuncts()).collect();
        assert_eq!(layout, vec![&[cx, cz, bridge][..], &[cy][..]]);
        assert_matches_oracle(&ctx, &p, &[cx, cy, cz, bridge]);
    }
}
