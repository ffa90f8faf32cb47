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
//! rather than recomputed per query. It is persistent: a clone copies
//! three pointers, and forked copies share every node. A component is a
//! chain of nodes, one per conjunct, newest first; a push allocates one
//! component node, for the component its conjunct joins. The conjuncts
//! of a component are gathered in query order only when the solver
//! searches it. Each node keeps the running fingerprint fold of its
//! component, and the partition keeps the fold of the whole query, so
//! fingerprints cost O(1).
//!
//! **Ordering.** A query is the flattened sequence of its hard, soft and
//! extra conjuncts, in that order, each segment in push order. Every
//! conjunct is tagged with its position in that sequence, `(segment,
//! index)`. Components are ordered by their first position, and
//! conjuncts inside a component by position — exactly the order a
//! from-scratch partition of the flattened query produces. A hard push
//! after soft pushes therefore sorts before them. The order fixes the
//! search's propagation order and so its work counters.
//!
//! **Lists.** The partition keeps one list per segment, holding the
//! components whose first conjunct lies in that segment, latest first
//! position first. A new component starts at the newest position of its
//! segment, so it goes on the head of its list, and a grown component
//! keeps its place. A push points the list node of the component it
//! grows at the new component node, and takes merged components out of
//! their lists. A list node it changes, or that lies above a change, is
//! copied if another partition shares it and edited in place if not, so
//! a push costs the depth of what it touches in list nodes, and a run
//! of pushes on one partition copies each node once. The executor's
//! pushes mostly grow the newest component, at the head of its list.
//! List nodes are kept apart from component nodes so that a copy is
//! small.
//!
//! **Undecided components.** A partition also lists, by first position,
//! the components no feasible answer covers yet: every component of
//! [`Partition::of`], and each component a push creates, grows or
//! merges (the components it absorbed leave the list).
//! [`Partition::mark_decided`] empties the list once the conjunction, or
//! one it is a subset of, was answered feasible, and
//! [`crate::Solver::check_sat_at`] decides only what is listed: the
//! executor's fork child asks about the one component its branch
//! conjunct joined, not every component of its path. A decided state's
//! list is empty, and the usual one-entry list is kept inline.

use crate::term::{Constraint, Fold, TermCtx, VarId};
use std::rc::Rc;

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
/// high two bits, the push index within the segment below them.
type Pos = u32;

/// Bits of a [`Pos`] that hold the push index.
const INDEX_BITS: u32 = 30;

/// The bit standing for `v` in a variable mask.
fn bit(v: VarId) -> u64 {
    1 << (v.0 % 64)
}

/// The variables of one component, sorted. A component over a single
/// variable (the common case) holds it inline.
#[derive(Debug, Clone)]
enum Vars {
    /// No variables: constant conjuncts only.
    None,
    One(VarId),
    Many(Rc<Vec<VarId>>),
}

impl Vars {
    fn as_slice(&self) -> &[VarId] {
        match self {
            Vars::None => &[],
            Vars::One(v) => std::slice::from_ref(v),
            Vars::Many(vs) => vs,
        }
    }

    fn contains(&self, v: VarId) -> bool {
        match self {
            Vars::None => false,
            Vars::One(x) => *x == v,
            Vars::Many(vs) => vs.binary_search(&v).is_ok(),
        }
    }

    /// [`bit`] of every variable.
    fn mask(&self) -> u64 {
        self.as_slice().iter().fold(0, |m, &v| m | bit(v))
    }

    /// `self` joined with the sorted sets `more`; shares `self` when
    /// nothing is new.
    fn union(&self, more: &[&[VarId]]) -> Vars {
        let mut new = more
            .iter()
            .filter(|vs| !vs.iter().all(|&v| self.contains(v)));
        let mut all = match (self, new.next(), new.next()) {
            (_, None, _) => return self.clone(),
            (Vars::None, Some(&[v]), None) => return Vars::One(*v),
            _ => self.as_slice().to_vec(),
        };
        for vs in more {
            all.extend_from_slice(vs);
        }
        all.sort_unstable();
        all.dedup();
        match all[..] {
            [v] => Vars::One(v),
            _ => Vars::Many(Rc::new(all)),
        }
    }
}

/// What a component node extends.
#[derive(Debug)]
enum Older {
    /// Nothing: the conjunct started the component.
    None,
    /// The component before this conjunct joined it.
    One(Rc<Component>),
    /// The components this conjunct merged.
    Many(Rc<Vec<Rc<Component>>>),
}

/// One variable-disjoint component of a [`Partition`], as of its newest
/// conjunct.
#[derive(Debug)]
pub struct Component {
    /// The newest conjunct.
    c: Constraint,
    pos: Pos,
    /// Position of the first conjunct: components are ordered by it.
    first: Pos,
    /// The rest of the component's conjuncts.
    older: Older,
    vars: Vars,
    fold: Fold,
}

/// One node of a segment's component list.
#[derive(Debug, Clone)]
struct Node {
    comp: Rc<Component>,
    /// The next component of the same list (earlier first position).
    next: Option<Rc<Node>>,
    /// [`bit`] of every variable of this component and of every one
    /// below it in the list, or more: taking a component out of a list
    /// leaves its bits set above it.
    list_mask: u64,
}

impl Component {
    /// The conjuncts, in query order. Gathered from the component's
    /// nodes on each call.
    pub fn conjuncts(&self) -> Vec<Constraint> {
        let mut all = Vec::new();
        self.gather(&mut all);
        all.sort_unstable_by_key(|&(p, _)| p);
        all.into_iter().map(|(_, c)| c).collect()
    }

    /// Appends every conjunct of the component with its position.
    fn gather(&self, out: &mut Vec<(Pos, Constraint)>) {
        let mut stack = vec![self];
        while let Some(k) = stack.pop() {
            out.push((k.pos, k.c));
            match &k.older {
                Older::None => {}
                Older::One(o) => stack.push(o),
                Older::Many(parts) => stack.extend(parts.iter().map(|p| &**p)),
            }
        }
    }

    /// The variables the conjuncts read, sorted.
    pub(crate) fn vars(&self) -> &[VarId] {
        self.vars.as_slice()
    }

    /// The component's query fingerprint: equal to
    /// [`TermCtx::query_fingerprint`] of its conjuncts.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fold.fingerprint()
    }
}

/// A component the new conjunct shares a variable with: its list and
/// its depth there.
struct Hit {
    list: usize,
    depth: usize,
    comp: Rc<Component>,
}

/// The components one push touches, in list order. A push usually
/// touches at most one, which is kept inline.
#[derive(Default)]
struct Hits {
    one: Option<Hit>,
    more: Vec<Hit>,
}

impl Hits {
    fn add(&mut self, hit: Hit) {
        match self.one {
            None => self.one = Some(hit),
            Some(_) => self.more.push(hit),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &Hit> {
        self.one.iter().chain(&self.more)
    }

    fn in_list(&self, list: usize) -> impl Iterator<Item = &Hit> {
        self.iter().filter(move |hit| hit.list == list)
    }
}

/// The components of a [`Partition`] that no feasible answer covers
/// yet, ordered by first position. A decided path condition that takes
/// one branch conjunct has one, which is kept inline.
#[derive(Debug, Clone, Default)]
enum Undecided {
    #[default]
    None,
    One(Rc<Component>),
    Many(Rc<Vec<Rc<Component>>>),
}

impl Undecided {
    fn as_slice(&self) -> &[Rc<Component>] {
        match self {
            Undecided::None => &[],
            Undecided::One(k) => std::slice::from_ref(k),
            Undecided::Many(ks) => ks,
        }
    }

    /// Takes out the components a push touched (`hits`) and adds the
    /// component it `joined` them into. A list no other partition
    /// shares is edited in place.
    fn join(&mut self, hits: &Hits, joined: &Rc<Component>) {
        let stale = |k: &Rc<Component>| hits.iter().any(|hit| Rc::ptr_eq(&hit.comp, k));
        match self {
            Undecided::None => *self = Undecided::One(Rc::clone(joined)),
            Undecided::One(k) if stale(k) => *k = Rc::clone(joined),
            Undecided::One(k) => {
                let (k, joined) = (Rc::clone(k), Rc::clone(joined));
                let ks = if k.first < joined.first {
                    vec![k, joined]
                } else {
                    vec![joined, k]
                };
                *self = Undecided::Many(Rc::new(ks));
            }
            Undecided::Many(ks) => {
                let ks = Rc::make_mut(ks);
                ks.retain(|k| !stale(k));
                let at = ks.partition_point(|k| k.first < joined.first);
                ks.insert(at, Rc::clone(joined));
            }
        }
    }
}

/// The independence partition of a conjunction, extended one conjunct
/// at a time. Cloning copies a few pointers; see the module docs for
/// what a push costs.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    /// Components by the segment of their first conjunct, latest first
    /// position first.
    lists: [Option<Rc<Node>>; 3],
    /// Fold of every conjunct: the whole query's fingerprint.
    fold: Fold,
    /// Next push index per segment.
    next: [u32; 3],
    /// What a verdict-only query still has to decide.
    undecided: Undecided,
}

impl Partition {
    /// The empty conjunction.
    pub fn new() -> Partition {
        Partition::default()
    }

    /// The partition of `constraints`, all in the hard segment, in order.
    /// Every component is undecided, so the list is set once, after the
    /// pushes.
    pub fn of(ctx: &TermCtx, constraints: &[Constraint]) -> Partition {
        let mut p = Partition::new();
        for &c in constraints {
            p.place(ctx, Segment::Hard, c);
        }
        let mut ks = Vec::new();
        let mut cur = p.lists[Segment::Hard as usize].as_deref();
        while let Some(node) = cur {
            ks.push(Rc::clone(&node.comp));
            cur = node.next.as_deref();
        }
        ks.reverse();
        p.undecided = match ks.len() {
            0 => Undecided::None,
            1 => Undecided::One(ks.pop().expect("one component")),
            _ => Undecided::Many(Rc::new(ks)),
        };
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
    pub fn components(&self) -> Vec<&Component> {
        let mut out = Vec::new();
        for list in &self.lists {
            let from = out.len();
            let mut cur = list.as_deref();
            while let Some(node) = cur {
                out.push(&*node.comp);
                cur = node.next.as_deref();
            }
            out[from..].reverse();
        }
        out
    }

    /// The components no feasible answer covers yet, ordered by first
    /// position: every component of [`Partition::of`], and since the
    /// last [`Partition::mark_decided`] each one a push created, grew
    /// or merged.
    pub(crate) fn undecided(&self) -> &[Rc<Component>] {
        self.undecided.as_slice()
    }

    /// Records that the conjunction was answered feasible: each
    /// component is then a satisfiable sub-conjunction, which a
    /// verdict-only query of a later extension need not decide again
    /// (see [`crate::Solver::check_sat_at`]). Also sound for a
    /// partition whose conjuncts are a subset of such a conjunction.
    pub fn mark_decided(&mut self) {
        self.undecided = Undecided::None;
    }

    /// The whole query's fingerprint: equal to
    /// [`TermCtx::query_fingerprint`] of [`Partition::conjuncts`].
    pub fn fingerprint(&self) -> u64 {
        self.fold.fingerprint()
    }

    /// Every conjunct in query order (hard, soft, extra; each segment in
    /// push order).
    pub fn conjuncts(&self) -> Vec<Constraint> {
        let mut all = Vec::with_capacity(self.len());
        for k in self.components() {
            k.gather(&mut all);
        }
        all.sort_unstable_by_key(|&(p, _)| p);
        all.into_iter().map(|(_, c)| c).collect()
    }

    /// Appends `c` to segment `seg`, merging every component it shares a
    /// variable with.
    ///
    /// # Panics
    ///
    /// Panics if `seg` already holds 2^30 conjuncts.
    pub fn push(&mut self, ctx: &TermCtx, seg: Segment, c: Constraint) {
        let (hits, joined) = self.place(ctx, seg, c);
        self.undecided.join(&hits, &joined);
    }

    /// [`Partition::push`] without the undecided list: returns the
    /// components `c` touched and the one it joined them into.
    fn place(&mut self, ctx: &TermCtx, seg: Segment, c: Constraint) -> (Hits, Rc<Component>) {
        let index = self.next[seg as usize];
        assert!(index < 1 << INDEX_BITS, "too many conjuncts in one segment");
        let pos = (seg as u32) << INDEX_BITS | index;
        self.next[seg as usize] += 1;
        let h = ctx.constraint_hash(&c);
        self.fold.add(h);
        let cvars = [ctx.vars_of(c.lhs), ctx.vars_of(c.rhs)];
        let cmask = cvars
            .iter()
            .flat_map(|vs| vs.iter())
            .fold(0, |m, &v| m | bit(v));

        // The components `c` touches. The list masks stop each walk
        // below the last component that can share a variable with `c`.
        let mut hits = Hits::default();
        for (list, head) in self.lists.iter().enumerate() {
            let (mut cur, mut depth) = (head, 0);
            while let Some(node) = cur.as_ref().filter(|n| n.list_mask & cmask != 0) {
                let comp = &node.comp;
                if cvars
                    .iter()
                    .flat_map(|vs| vs.iter())
                    .any(|&v| comp.vars.contains(v))
                {
                    let comp = Rc::clone(comp);
                    hits.add(Hit { list, depth, comp });
                }
                cur = &node.next;
                depth += 1;
            }
        }

        let mut fold = Fold::default();
        fold.add(h);
        let first = hits.iter().map(|hit| hit.comp.first).fold(pos, Pos::min);
        let (older, vars) = match &hits {
            Hits { one: None, .. } => (Older::None, Vars::None.union(&cvars)),
            Hits {
                one: Some(hit),
                more,
            } if more.is_empty() => {
                fold.merge(hit.comp.fold);
                (
                    Older::One(Rc::clone(&hit.comp)),
                    hit.comp.vars.union(&cvars),
                )
            }
            _ => {
                let mut vars = cvars.to_vec();
                for k in hits.iter().map(|hit| &hit.comp) {
                    fold.merge(k.fold);
                    vars.push(k.vars());
                }
                let parts = hits.iter().map(|hit| Rc::clone(&hit.comp)).collect();
                (Older::Many(Rc::new(parts)), Vars::None.union(&vars))
            }
        };
        let joined = Rc::new(Component {
            c,
            pos,
            first,
            older,
            vars,
            fold,
        });
        let placed = Rc::clone(&joined);

        // The joined component starts where its earliest hit did: the
        // deepest hit of the first list with hits, if that list is not
        // past `seg`'s. It takes that hit's place; otherwise `c` starts
        // it and it goes on the head of `seg`'s list.
        let keep = (0..=seg as usize)
            .find_map(|list| hits.in_list(list).last().map(|hit| (list, hit.depth)));
        let mask = joined.vars.mask();
        let mut joined = Some(joined);
        for list in 0..self.lists.len() {
            let mut left = hits.in_list(list).count();
            let (mut slot, mut depth) = (&mut self.lists[list], 0);
            while left > 0 {
                if hits.in_list(list).any(|hit| hit.depth == depth) {
                    left -= 1;
                    if keep == Some((list, depth)) {
                        let node = Rc::make_mut(slot.as_mut().expect("a hit lies here"));
                        node.comp = joined.take().expect("placed once");
                        node.list_mask |= mask;
                        slot = &mut node.next;
                    } else {
                        *slot = slot.as_ref().and_then(|node| node.next.clone());
                    }
                } else {
                    let node = Rc::make_mut(slot.as_mut().expect("a hit lies this deep"));
                    if keep.is_some_and(|(l, d)| l == list && depth < d) {
                        node.list_mask |= mask;
                    }
                    slot = &mut node.next;
                }
                depth += 1;
            }
        }
        if let Some(joined) = joined {
            let head = &mut self.lists[seg as usize];
            let next = head.take();
            let list_mask = mask | next.as_ref().map_or(0, |n| n.list_mask);
            *head = Some(Rc::new(Node {
                comp: joined,
                next,
                list_mask,
            }));
        }
        (hits, placed)
    }

    /// A copy with `c` appended to segment `seg`.
    #[must_use]
    pub fn with(&self, ctx: &TermCtx, seg: Segment, c: Constraint) -> Partition {
        let mut p = self.clone();
        p.push(ctx, seg, c);
        p
    }
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

    /// Atom `(shape, op, k)` over a pool of four variables with domains
    /// `0..=7`, so every search decides well inside its node budget:
    /// single-variable bounds, two-variable sums (which merge
    /// components) and variable-free comparisons.
    fn small_atom(ctx: &mut TermCtx, vars: &[TermId], (shape, op, k): (u8, u8, i64)) -> Constraint {
        let n = vars.len();
        let (lhs, rhs) = match shape % 4 {
            0 | 1 => (vars[k as usize % n], ctx.int(k)),
            2 => (
                ctx.add(vars[k as usize % n], vars[(k as usize + 1) % n]),
                ctx.int(k + 2),
            ),
            _ => (ctx.int(k % 3), ctx.int(1)),
        };
        let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le][op as usize % 4];
        Constraint::new(op, lhs, rhs)
    }

    fn small_atoms() -> impl Strategy<Value = Vec<(u8, u8, i64)>> {
        collection::vec((0u8..8, 0u8..4, 0i64..8), 0..12)
    }

    /// Whether `k` holds a conjunct pushed after the first `prefix` hard
    /// ones.
    fn touched_after(k: &Component, prefix: usize) -> bool {
        let mut all = Vec::new();
        k.gather(&mut all);
        all.iter()
            .any(|&(p, _)| p >> INDEX_BITS != Segment::Hard as u32 || (p as usize) >= prefix)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn undecided_only_verdicts_match_the_flattened_query(
            prefix in small_atoms(),
            hard in small_atoms(),
            soft in small_atoms(),
        ) {
            use statsym_telemetry::NOOP;
            let mut ctx = TermCtx::new();
            let vars: Vec<TermId> = (0..4).map(|i| ctx.new_var(format!("v{i}"), 0, 7)).collect();
            // A satisfiable prefix: each atom that would refute it is
            // left out.
            let mut oracle = Solver::default();
            let mut flat = Vec::new();
            for spec in prefix {
                flat.push(small_atom(&mut ctx, &vars, spec));
                if !oracle.check_sat(&ctx, &flat).is_sat() {
                    flat.pop();
                }
            }
            let mut hard_p = Partition::of(&ctx, &flat);
            let fresh: Vec<*const Component> = hard_p.components().into_iter().map(|k| k as *const _).collect();
            let undecided: Vec<*const Component> = hard_p.undecided().iter().map(Rc::as_ptr).collect();
            prop_assert_eq!(undecided, fresh, "a fresh partition has every component undecided");

            // Decide it, as the executor decides a state it keeps.
            let mut solver = Solver::default();
            prop_assert!(solver.check_sat_at(&ctx, &hard_p, &NOOP, "prefix").is_sat());
            hard_p.mark_decided();
            prop_assert!(hard_p.undecided().is_empty());

            // Push a hard and a soft suffix.
            let mut all_p = hard_p.clone();
            let prefix_len = flat.len();
            let mut soft_flat = Vec::new();
            for spec in hard {
                let c = small_atom(&mut ctx, &vars, spec);
                hard_p.push(&ctx, Segment::Hard, c);
                all_p.push(&ctx, Segment::Hard, c);
                flat.push(c);
            }
            for spec in soft {
                let c = small_atom(&mut ctx, &vars, spec);
                all_p.push(&ctx, Segment::Soft, c);
                soft_flat.push(c);
            }
            let mut all_flat = flat.clone();
            all_flat.extend(&soft_flat);

            for (p, flat) in [(&mut hard_p, &flat), (&mut all_p, &all_flat)] {
                // Undecided: exactly the components the suffix touched,
                // in component order.
                let want: Vec<*const Component> = p
                    .components()
                    .into_iter()
                    .filter(|k| touched_after(k, prefix_len))
                    .map(|k| k as *const _)
                    .collect();
                let got: Vec<*const Component> = p.undecided().iter().map(Rc::as_ptr).collect();
                prop_assert_eq!(got, want);
                let verdict = solver.check_sat_at(&ctx, p, &NOOP, "suffix");
                prop_assert_eq!(&verdict, &oracle.check_sat(&ctx, flat));
                if verdict.is_sat() {
                    p.mark_decided();
                    prop_assert!(p.undecided().is_empty());
                }
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
        let layout: Vec<Vec<Constraint>> = p.components().iter().map(|k| k.conjuncts()).collect();
        assert_eq!(layout, vec![vec![cx, cz, bridge], vec![cy]]);
        assert_matches_oracle(&ctx, &p, &[cx, cy, cz, bridge]);
    }

    /// Forks, pushes on either sibling and sibling drops, interleaved.
    /// Each op is `(kind, which state, atom)`.
    fn sibling_ops() -> impl Strategy<Value = Vec<(u8, u8, (u8, u8, i64))>> {
        collection::vec((0u8..6, any::<u8>(), (0u8..8, 0u8..4, 0i64..16)), 1..60)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn dropped_siblings_leave_survivors_intact(ops in sibling_ops()) {
            let mut ctx = TermCtx::new();
            let vars: Vec<TermId> = (0..4).map(|i| ctx.new_var(format!("b{i}"), 0, 255)).collect();
            let mut states = vec![Sim {
                hard: Partition::new(),
                all: Partition::new(),
                hard_list: Vec::new(),
                soft_list: Vec::new(),
            }];
            for (op, which, spec) in ops {
                let c = atom(&mut ctx, &vars, spec);
                let i = which as usize % states.len();
                match op {
                    // Fork: both siblings go on, each taking pushes below.
                    0 | 1 => {
                        let child = states[i].clone();
                        states.push(child);
                    }
                    // Drop a sibling (never the last state).
                    2 if states.len() > 1 => {
                        states.swap_remove(i);
                    }
                    // Hard push, as the executor's branch decisions.
                    2..=4 => {
                        let s = &mut states[i];
                        s.hard.push(&ctx, Segment::Hard, c);
                        s.all.push(&ctx, Segment::Hard, c);
                        s.hard_list.push(c);
                    }
                    // Soft push.
                    _ => {
                        let s = &mut states[i];
                        s.all.push(&ctx, Segment::Soft, c);
                        s.soft_list.push(c);
                    }
                }
                for s in &states {
                    assert_matches_oracle(&ctx, &s.hard, &s.hard_list);
                    assert_matches_oracle(&ctx, &s.all, &s.flat());
                }
            }
        }
    }

    #[test]
    fn a_push_on_one_child_leaves_its_sibling_unchanged() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let y = ctx.new_var("y", 0, 9);
        let z = ctx.new_var("z", 0, 9);
        let (k3, k5) = (ctx.int(3), ctx.int(5));
        let sum = ctx.add(x, z);
        let cx = Constraint::new(CmpOp::Lt, x, k5);
        let cy = Constraint::new(CmpOp::Lt, y, k5);
        let cz = Constraint::new(CmpOp::Lt, z, k5);
        let mut parent = Partition::of(&ctx, &[cx, cy, cz]);
        parent.push(&ctx, Segment::Soft, Constraint::new(CmpOp::Ne, y, k3));
        let snapshot = |p: &Partition| {
            let comps: Vec<(Vec<Constraint>, u64)> = p
                .components()
                .iter()
                .map(|k| (k.conjuncts(), k.fingerprint()))
                .collect();
            let lens = [Segment::Hard, Segment::Soft, Segment::Extra].map(|s| p.segment_len(s));
            (comps, p.fingerprint(), lens)
        };
        // Each push shape: growing the newest component, growing an old
        // one, a new component, a merge, and a hard conjunct joining the
        // component that starts in the soft segment.
        for (seg, c) in [
            (Segment::Hard, Constraint::new(CmpOp::Ne, z, k3)),
            (Segment::Hard, Constraint::new(CmpOp::Ne, x, k3)),
            (Segment::Soft, Constraint::new(CmpOp::Eq, k3, k5)),
            (Segment::Soft, Constraint::new(CmpOp::Eq, sum, k5)),
            (Segment::Hard, Constraint::new(CmpOp::Le, k3, y)),
        ] {
            let mut left = parent.clone();
            let right = parent.clone();
            let before = snapshot(&right);
            left.push(&ctx, seg, c);
            assert_ne!(snapshot(&left), before);
            assert_eq!(snapshot(&right), before, "pushing {c:?} on a sibling");
            assert_eq!(snapshot(&parent), before);
            parent = left;
        }
    }
}
