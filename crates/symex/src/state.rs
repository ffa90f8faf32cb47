//! Symbolic execution states.

use crate::value::{BoolVal, SymStr, SymValue};
use concrete::Location;
use solver::{Constraint, Partition, Segment, TermCtx, TermId};
use std::rc::Rc;

/// A state's path condition: the hard constraints (branch decisions
/// taken) and the soft ones injected by statistical guidance, carried as
/// two independence partitions so no feasibility query re-partitions.
///
/// `hard` holds the path; `all` holds the path followed by the soft
/// constraints — the query that decides whether a state stays active.
/// Both are persistent: cloning is O(1), and forked children never see
/// each other's pushes.
///
/// Feasibility is asked through [`PathCond::all_feasible`] and
/// [`PathCond::hard_feasible`], which mark what a feasible answer
/// decided, so a verdict-only query decides only the components pushes
/// changed since (see [`solver::Solver::check_sat_at`]).
#[derive(Debug, Clone, Default)]
pub struct PathCond {
    hard: Partition,
    all: Partition,
}

impl PathCond {
    /// The empty condition.
    pub fn new() -> PathCond {
        PathCond::default()
    }

    /// Records a branch decision. It joins the hard segment of both
    /// partitions, so in `all` it sorts before every soft constraint.
    pub fn push_hard(&mut self, ctx: &TermCtx, c: Constraint) {
        self.hard.push(ctx, Segment::Hard, c);
        if self.soft_len() == 0 {
            self.all = self.hard.clone();
        } else {
            self.all.push(ctx, Segment::Hard, c);
        }
    }

    /// A copy with the branch decision `c` recorded.
    #[must_use]
    pub fn with_hard(&self, ctx: &TermCtx, c: Constraint) -> PathCond {
        let mut cond = self.clone();
        cond.push_hard(ctx, c);
        cond
    }

    /// Records a guidance constraint.
    pub fn push_soft(&mut self, ctx: &TermCtx, c: Constraint) {
        self.all.push(ctx, Segment::Soft, c);
    }

    /// A copy without soft constraints (a resumed state runs unguided).
    #[must_use]
    pub fn without_soft(&self) -> PathCond {
        PathCond {
            hard: self.hard.clone(),
            all: self.hard.clone(),
        }
    }

    /// Asks `feasible` whether `all` may be satisfiable. A feasible
    /// answer decides every component of both partitions: `hard`'s
    /// conjuncts are a subset of `all`'s.
    pub fn all_feasible(&mut self, feasible: impl FnOnce(&Partition) -> bool) -> bool {
        let ok = feasible(&self.all);
        if ok {
            self.all.mark_decided();
            self.hard.mark_decided();
        }
        ok
    }

    /// Asks `feasible` whether `hard` may be satisfiable: the query of a
    /// state that may be parked or faulting. A feasible answer decides
    /// every component of `hard`.
    pub fn hard_feasible(&mut self, feasible: impl FnOnce(&Partition) -> bool) -> bool {
        let ok = feasible(&self.hard);
        if ok {
            self.hard.mark_decided();
        }
        ok
    }

    /// The hard constraints alone.
    pub fn hard(&self) -> &Partition {
        &self.hard
    }

    /// The hard constraints followed by the soft ones.
    pub fn all(&self) -> &Partition {
        &self.all
    }

    /// Number of hard constraints.
    pub fn hard_len(&self) -> usize {
        self.hard.len()
    }

    /// Number of soft constraints.
    pub fn soft_len(&self) -> usize {
        self.all.segment_len(Segment::Soft)
    }
}

/// A persistent trace of function-boundary events (for the final
/// vulnerable-path report).
#[derive(Debug, Clone, Default)]
pub struct TraceList {
    head: Option<Rc<TraceNode>>,
    len: usize,
}

#[derive(Debug)]
struct TraceNode {
    loc: Location,
    parent: Option<Rc<TraceNode>>,
}

impl TraceList {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns a new trace with `loc` appended.
    #[must_use]
    pub fn push(&self, loc: Location) -> TraceList {
        TraceList {
            head: Some(Rc::new(TraceNode {
                loc,
                parent: self.head.clone(),
            })),
            len: self.len + 1,
        }
    }

    /// Collects the events, oldest first.
    pub fn to_vec(&self) -> Vec<Location> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head.as_deref();
        while let Some(node) = cur {
            out.push(node.loc.clone());
            cur = node.parent.as_deref();
        }
        out.reverse();
        out
    }
}

/// A symbolic state's memory: call stack, globals and buffer heap.
pub type SymMachine = concrete::interp::Machine<TermId, BoolVal, SymStr>;

/// Guidance bookkeeping attached to each state by the statistics-guided
/// scheduler (paper §V-C): progress along the candidate path and the
/// number of diverted hops since the last matched node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateMeta {
    /// Index of the last candidate-path node this state matched.
    pub progress: usize,
    /// Function-boundary events observed since the last match.
    pub hops: u32,
}

/// A symbolic execution state: one explored path prefix.
#[derive(Debug, Clone, Default)]
pub struct State {
    /// Unique id (assigned at fork, deterministic).
    pub id: u64,
    /// Call stack, globals and buffer heap (cloned on fork; buffers are
    /// mutable).
    pub mach: SymMachine,
    /// Path condition: hard constraints (branch decisions taken) plus
    /// soft constraints injected by statistical guidance. Violating soft
    /// constraints suspends a state instead of killing it (paper
    /// footnote 1).
    pub cond: PathCond,
    /// Function-boundary event trace.
    pub trace: TraceList,
    /// Branch (fork) depth.
    pub depth: u32,
    /// Guidance bookkeeping.
    pub meta: StateMeta,
    /// Set when a suspended state is resumed: guidance is disabled so the
    /// state cannot be re-suspended (fallback to pure symbolic execution,
    /// paper footnote 1).
    pub guidance_off: bool,
    /// Modeled bytes the engine charged this state while it is queued
    /// or parked: its [`State::est_bytes`] when it was admitted.
    pub(crate) charged: usize,
}

impl State {
    /// Approximate resident size in bytes, used for the engine's memory
    /// budget (the paper's KLEE runs fail by exhausting memory).
    pub fn est_bytes(&self) -> usize {
        let m = &self.mach;
        let regs = 64 * m.frames.len() + m.regs.iter().map(value_bytes).sum::<usize>();
        let heap: usize = m.heap.iter().map(|b| 16 + b.cells.len() * 4).sum();
        let globals: usize = m.globals.iter().map(value_bytes).sum();
        // Persistent lists are shared; attribute one node to this state.
        let conds = 48 + self.cond.hard_len() * 2 + self.cond.soft_len() * 2;
        regs + heap + globals + conds + 128
    }
}

/// Rough size of a value in bytes for the engine's memory model.
fn value_bytes(v: &SymValue) -> usize {
    match v {
        SymValue::Str(s) => 16 + s.bytes.len() * 4 / 8, // Rc-shared: amortized
        _ => 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solver::CmpOp;

    /// Conjuncts of every component, in component order.
    fn layout(p: &Partition) -> Vec<Vec<Constraint>> {
        p.components()
            .iter()
            .map(|k| k.conjuncts().to_vec())
            .collect()
    }

    #[test]
    fn forked_children_never_see_each_others_pushes() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let y = ctx.new_var("y", 0, 9);
        let c0 = ctx.int(0);
        let c1 = ctx.int(1);
        let a = Constraint::new(CmpOp::Ne, x, c0);
        let b = Constraint::new(CmpOp::Eq, x, c1);
        let s = Constraint::new(CmpOp::Lt, y, c1);

        let mut base = PathCond::new();
        base.push_hard(&ctx, a);
        base.push_soft(&ctx, s);
        let left = base.with_hard(&ctx, b);
        let mut right = base.with_hard(&ctx, b.negate());
        right.push_soft(&ctx, a);
        assert_eq!(base.hard().conjuncts(), vec![a]);
        assert_eq!(base.all().conjuncts(), vec![a, s]);
        assert_eq!(left.hard().conjuncts(), vec![a, b]);
        assert_eq!(left.all().conjuncts(), vec![a, b, s]);
        assert_eq!(right.hard().conjuncts(), vec![a, b.negate()]);
        assert_eq!(right.all().conjuncts(), vec![a, b.negate(), s, a]);
        assert_eq!((left.hard_len(), left.soft_len()), (2, 1));
        assert_eq!((right.hard_len(), right.soft_len()), (2, 2));
        assert_eq!(
            left.hard().fingerprint(),
            ctx.query_fingerprint(&[a, b]),
            "the carried fold is the fingerprint of the flattened path"
        );
    }

    #[test]
    fn without_soft_restores_the_hard_partition() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let y = ctx.new_var("y", 0, 9);
        let c3 = ctx.int(3);
        let sum = ctx.add(x, y);
        let mut cond = PathCond::new();
        cond.push_hard(&ctx, Constraint::new(CmpOp::Lt, x, c3));
        cond.push_hard(&ctx, Constraint::new(CmpOp::Lt, y, c3));
        // The soft conjunct joins both hard components into one.
        cond.push_soft(&ctx, Constraint::new(CmpOp::Eq, sum, c3));
        assert_eq!(cond.hard().components().len(), 2);
        assert_eq!(cond.all().components().len(), 1);

        let resumed = cond.without_soft();
        assert_eq!(resumed.soft_len(), 0);
        assert_eq!(layout(resumed.all()), layout(cond.hard()));
        assert_eq!(resumed.all().fingerprint(), cond.hard().fingerprint());
        assert_eq!(layout(resumed.hard()), layout(cond.hard()));
        // The original keeps its soft constraint.
        assert_eq!(cond.soft_len(), 1);
    }

    #[test]
    fn hard_push_after_soft_pushes_sorts_before_them() {
        // The thttpd shape: guidance injects soft constraints, then the
        // state keeps branching. Each new hard conjunct must land where
        // the flattened query `hard ++ soft` puts it.
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 99);
        let y = ctx.new_var("y", 0, 99);
        let z = ctx.new_var("z", 0, 99);
        let k = ctx.int(50);
        let hx = Constraint::new(CmpOp::Lt, x, k);
        let sy = Constraint::new(CmpOp::Lt, y, k);
        let sx = Constraint::new(CmpOp::Ne, x, k);
        let hz = Constraint::new(CmpOp::Le, z, k);
        let hy = Constraint::new(CmpOp::Le, k, y);
        let mut cond = PathCond::new();
        cond.push_hard(&ctx, hx);
        cond.push_soft(&ctx, sy);
        cond.push_soft(&ctx, sx);
        cond.push_hard(&ctx, hz);
        cond.push_hard(&ctx, hy);

        let flat = vec![hx, hz, hy, sy, sx];
        assert_eq!(cond.all().conjuncts(), flat);
        // Components by first position: {hx, sx}, {hz}, {hy, sy}; the y
        // component starts at the hard `hy`, so it sorts before the soft
        // `sy` inside it and after `hz` among components.
        assert_eq!(
            layout(cond.all()),
            vec![vec![hx, sx], vec![hz], vec![hy, sy]]
        );
        assert_eq!(cond.all().fingerprint(), ctx.query_fingerprint(&flat));
        assert_eq!(cond.hard().conjuncts(), vec![hx, hz, hy]);
    }

    #[test]
    fn tracelist_orders_oldest_first() {
        let t = TraceList::default()
            .push(Location::enter("main"))
            .push(Location::enter("f"))
            .push(Location::leave("f"));
        let v = t.to_vec();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], Location::enter("main"));
        assert_eq!(v[2], Location::leave("f"));
        assert!(!t.is_empty());
    }

    #[test]
    fn est_bytes_charges_each_frame_and_its_registers() {
        use concrete::interp::{Frame, HeapCell};
        use sir::{BlockId, FuncId};
        let mut ctx = TermCtx::new();
        let (zero, s) = (ctx.int(0), SymStr::concrete(&mut ctx, b"abcdefgh"));
        let frame = |base| Frame {
            func: FuncId(0),
            block: BlockId(0),
            idx: 0,
            base,
            ret_dst: None,
        };
        let mut mach = SymMachine::default();
        mach.frames = vec![frame(0), frame(2), frame(5)];
        mach.regs = vec![
            SymValue::Int(zero),
            SymValue::Unit,
            SymValue::Str(s),
            SymValue::Int(zero),
            SymValue::Bool(BoolVal::Const(true)),
            SymValue::Unit,
        ];
        mach.globals = vec![SymValue::Int(zero)];
        mach.heap = vec![HeapCell::stack(vec![zero; 4])];
        let state = State {
            mach,
            ..State::default()
        };
        // Per frame, 64 plus 16 a value (20 for the 8-byte string):
        // [Int, Unit] 96, [Str, Int, Bool] 116, [Unit] 80. Then the heap
        // cell 16 + 4 * 4, one global 16, the empty path condition 48
        // and the fixed 128.
        assert_eq!(state.est_bytes(), 96 + 116 + 80 + 32 + 16 + 48 + 128);
    }

    #[test]
    fn empty_lists() {
        assert!(PathCond::new().all().is_empty());
        assert!(PathCond::new().hard().conjuncts().is_empty());
        assert!(TraceList::default().to_vec().is_empty());
    }
}
