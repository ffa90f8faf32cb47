//! Symbolic instruction stepping: forking, fault detection, guidance
//! application, and concretization.

use crate::hook::{EventCtx, EventHook};
use crate::lineage::{state_loc, Lineage, WorkSnapshot};
use crate::state::{Frame, State};
use crate::value::{BoolVal, SymBuf, SymStr, SymValue};
use concrete::{Fault, FaultKind, Location, MAX_ALLOC};
use minic::{BinOp, Span};
use sir::{ConstValue, FuncId, InputId, InputKind, Inst, Module, Reg, Terminator};
use solver::{CmpOp, Constraint, Partition, SatResult, Segment, Solver, TermCtx, TermId};
use statsym_telemetry::{lineage_op, names, FieldValue, Recorder};
use std::collections::HashMap;
use std::sync::Arc;

/// Mutable engine context threaded through stepping.
pub(crate) struct ExecEnv<'e> {
    pub module: &'e Module,
    pub ctx: &'e mut TermCtx,
    pub solver: &'e mut Solver,
    /// Symbolic values for named inputs, shared by all states.
    pub inputs: &'e mut HashMap<InputId, SymValue>,
    pub hook: &'e mut dyn EventHook,
    pub stats: &'e mut ExecStats,
    pub rec: &'e dyn Recorder,
    pub max_call_depth: usize,
    pub next_state_id: &'e mut u64,
    pub lineage: &'e mut Lineage,
}

/// Work counters for the executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub steps: u64,
    /// Fork points executed (branches, symbolic asserts, strlen, ...).
    pub forks: u64,
    /// Children discarded as infeasible.
    pub pruned: u64,
    /// Children parked because they conflict with guidance.
    pub suspended: u64,
    /// Symbolic indices pinned to a concrete model value.
    pub concretizations: u64,
    /// `strlen` fan-outs on symbolic strings.
    pub strlen_forks: u64,
}

/// What became of one fork child.
#[derive(Debug)]
pub(crate) enum Disposition {
    /// Keep exploring.
    Active,
    /// Conflicts with soft guidance constraints; park it.
    Suspended,
    /// The child reaches a fault (feasible on its hard constraints).
    Fault(Fault),
}

/// One fork child plus its classification.
#[derive(Debug)]
pub(crate) struct ForkChild {
    pub state: State,
    pub disposition: Disposition,
}

/// Result of stepping a state by one instruction or terminator.
#[derive(Debug)]
pub(crate) enum StepResult {
    /// The state advanced in place.
    Continue(State),
    /// The state split; children are classified individually.
    Fork(Vec<ForkChild>),
    /// The path terminated normally.
    Exit(State),
    /// The path reached a fault.
    Fault(State, Fault),
    /// Guidance asked to park the state.
    Suspend(State),
    /// The state became infeasible (e.g. guidance injection contradicts
    /// the hard path); it is dropped.
    Kill,
}

impl<'e> ExecEnv<'e> {
    fn fresh_id(&mut self) -> u64 {
        *self.next_state_id += 1;
        *self.next_state_id
    }

    /// Cumulative work counters for lineage delta attribution.
    fn work(&self) -> WorkSnapshot {
        let sv = self.solver.stats();
        WorkSnapshot {
            steps: self.stats.steps,
            solver_nodes: sv.nodes,
            solver_us: sv.query_us,
        }
    }

    /// Emits one lineage event for `state` (no-op unless lineage
    /// tracing is on). `parent` is the fork parent's engine-local id
    /// for introducing ops.
    pub(crate) fn lineage_event(&mut self, op: &'static str, state: &State, parent: Option<u64>) {
        if !self.lineage.on() {
            return;
        }
        let loc = state_loc(self.module, state);
        let work = self.work();
        self.lineage.emit(
            self.rec,
            op,
            state.id,
            parent,
            &loc,
            state.meta.hops,
            state.depth,
            work,
        );
    }

    /// Emits the `candidate.node` coverage event for a guidance-hook
    /// match (lineage tracing only): candidate-path node `node` matched
    /// at `loc`, conjoining `conj` predicates, with `outcome` `ok`,
    /// `conflict`, or `kill`.
    fn note_candidate_node(
        &self,
        matched: Option<usize>,
        loc: &Location,
        conj: usize,
        outcome: &str,
    ) {
        let Some(node) = matched else { return };
        if !self.lineage.on() {
            return;
        }
        self.rec.event(
            names::CANDIDATE_NODE,
            &[
                ("node", FieldValue::from(node)),
                ("loc", FieldValue::from(loc.to_string())),
                ("conj", FieldValue::from(conj)),
                ("outcome", FieldValue::from(outcome)),
            ],
        );
    }

    /// Feasibility of a conjunction; `Unknown` counts as feasible.
    /// Model-free (`check_sat_traced`), so shared-cache `Sat` verdicts
    /// can answer it — `Sat` and `Unknown` are interchangeable here,
    /// which is what makes verdict sharing exploration-invariant.
    fn feasible(&mut self, query: &Partition) -> bool {
        !self
            .solver
            .check_sat_at(self.ctx, query, self.rec, "feasibility")
            .is_unsat()
    }

    /// Classifies a candidate child: active, suspended (violates soft
    /// constraints only), or pruned (`None`).
    fn classify(&mut self, state: &State) -> Option<Disposition> {
        if self.feasible(state.cond.all()) {
            return Some(Disposition::Active);
        }
        if state.cond.soft_len() > 0 && self.feasible(state.cond.hard()) {
            return Some(Disposition::Suspended);
        }
        None
    }

    fn fault(&self, state: &State, kind: FaultKind, span: Span) -> Fault {
        Fault {
            kind,
            func: self.module.func(state.frame().func).name.clone(),
            span,
        }
    }

    /// Runs the guidance hook for a function-boundary event. Returns
    /// `Some(result)` when the event decides the state's fate.
    fn apply_event(
        &mut self,
        state: &mut State,
        loc: Location,
        params: &[(String, minic::Type)],
        args: &[SymValue],
        ret: Option<&SymValue>,
    ) -> Option<StepResult> {
        state.trace = state.trace.push(loc.clone());
        if state.guidance_off {
            return None;
        }
        let result = {
            let ev = EventCtx {
                loc: &loc,
                params,
                args,
                ret,
                global_defs: &self.module.globals,
                globals: &state.globals,
            };
            self.hook.on_event(&ev, &mut state.meta, self.ctx)
        };
        let matched = result.matched;
        let conj = result.constraints.len();
        let injected = !result.constraints.is_empty();
        for c in result.constraints {
            state.cond.push_soft(self.ctx, c);
        }
        if injected && !self.feasible(state.cond.all()) {
            return if self.feasible(state.cond.hard()) {
                self.note_candidate_node(matched, &loc, conj, "conflict");
                self.stats.suspended += 1;
                self.rec.counter_add(names::SYMEX_SUSPEND_PREDICATE, 1);
                self.rec
                    .observe(names::SYMEX_HOP_DIVERGENCE, state.meta.hops as u64);
                self.lineage_event(lineage_op::SUSPEND_PREDICATE, state, None);
                Some(StepResult::Suspend(std::mem::replace(state, dummy_state())))
            } else {
                self.note_candidate_node(matched, &loc, conj, "kill");
                self.stats.pruned += 1;
                self.rec.counter_add(names::SYMEX_KILL, 1);
                self.lineage_event(lineage_op::KILL, state, None);
                Some(StepResult::Kill)
            };
        }
        self.note_candidate_node(matched, &loc, conj, "ok");
        if result.suspend {
            self.stats.suspended += 1;
            self.rec.counter_add(names::SYMEX_SUSPEND_TAU, 1);
            self.rec
                .observe(names::SYMEX_HOP_DIVERGENCE, state.meta.hops as u64);
            self.lineage_event(lineage_op::SUSPEND_TAU, state, None);
            return Some(StepResult::Suspend(std::mem::replace(state, dummy_state())));
        }
        None
    }
}

/// Placeholder used when a step consumes the state by value.
fn dummy_state() -> State {
    State {
        id: u64::MAX,
        frames: Vec::new(),
        globals: Vec::new(),
        heap: Vec::new(),
        cond: crate::state::PathCond::new(),
        trace: crate::state::TraceList::default(),
        depth: 0,
        meta: crate::state::StateMeta::default(),
        guidance_off: false,
    }
}

/// Builds the initial state entering `main`.
pub(crate) fn initial_state(env: &mut ExecEnv<'_>) -> State {
    let main_id = env.module.main;
    let main = env.module.func(main_id);
    let globals: Vec<SymValue> = env
        .module
        .globals
        .iter()
        .map(|g| const_sym(env.ctx, &g.init))
        .collect();
    let mut state = State {
        id: 0,
        frames: Vec::new(),
        globals,
        heap: Vec::new(),
        cond: crate::state::PathCond::new(),
        trace: crate::state::TraceList::default(),
        depth: 0,
        meta: crate::state::StateMeta::default(),
        guidance_off: false,
    };
    let args: Vec<SymValue> = main
        .params
        .iter()
        .map(|(_, ty)| default_sym(env.ctx, *ty))
        .collect();
    push_frame(env.module, &mut state, main_id, args.clone(), None);
    // The root lineage node must exist before the main():enter event
    // below, which may itself emit a suspend transition for it.
    env.lineage_event(lineage_op::ROOT, &state, None);
    // Deliver the main():enter event (guidance may constrain globals or
    // advance candidate-path progress). A suspend decision here is
    // ignored — the initial state must run.
    let params = main.params.clone();
    match env.apply_event(
        &mut state,
        Location::enter(main.name.as_str()),
        &params,
        &args,
        None,
    ) {
        Some(StepResult::Suspend(s)) => s,
        _ => state,
    }
}

fn const_sym(ctx: &mut TermCtx, c: &ConstValue) -> SymValue {
    match c {
        ConstValue::Int(v) => SymValue::Int(ctx.int(*v)),
        ConstValue::Bool(b) => SymValue::Bool(BoolVal::Const(*b)),
        ConstValue::Str(s) => SymValue::Str(SymStr::concrete(ctx, s.as_bytes())),
    }
}

fn default_sym(ctx: &mut TermCtx, ty: minic::Type) -> SymValue {
    match ty {
        minic::Type::Int => SymValue::Int(ctx.int(0)),
        minic::Type::Bool => SymValue::Bool(BoolVal::Const(false)),
        minic::Type::Str => SymValue::Str(SymStr::concrete(ctx, b"")),
        minic::Type::Buf(_) => SymValue::Unit,
    }
}

fn push_frame(
    module: &Module,
    state: &mut State,
    func: FuncId,
    args: Vec<SymValue>,
    ret_dst: Option<Reg>,
) {
    let body = module.func(func);
    let mut regs = vec![SymValue::Unit; body.num_regs as usize];
    for (i, a) in args.into_iter().enumerate() {
        regs[i] = a;
    }
    state.frames.push(Frame {
        func,
        block: body.entry(),
        idx: 0,
        regs,
        ret_dst,
    });
}

/// Executes one instruction (or terminator) of `state`.
pub(crate) fn step(env: &mut ExecEnv<'_>, mut state: State) -> StepResult {
    env.stats.steps += 1;
    let frame = state.frame();
    let body = env.module.func(frame.func);
    let block = &body.blocks[frame.block.index()];

    if frame.idx < block.insts.len() {
        let (inst, span) = block.insts[frame.idx].clone();
        state.frame_mut().idx += 1;
        exec_inst(env, state, inst, span)
    } else {
        let (term, span) = block.term.clone();
        exec_term(env, state, term, span)
    }
}

fn reg(state: &State, r: Reg) -> &SymValue {
    &state.frame().regs[r.index()]
}

fn set_reg(state: &mut State, r: Reg, v: SymValue) {
    state.frame_mut().regs[r.index()] = v;
}

fn exec_inst(env: &mut ExecEnv<'_>, mut state: State, inst: Inst, span: Span) -> StepResult {
    match inst {
        Inst::Const { dst, value } => {
            let v = const_sym(env.ctx, &value);
            set_reg(&mut state, dst, v);
            StepResult::Continue(state)
        }
        Inst::Move { dst, src } => {
            let v = reg(&state, src).clone();
            set_reg(&mut state, dst, v);
            StepResult::Continue(state)
        }
        Inst::Bin { op, dst, a, b } => exec_bin(env, state, op, dst, a, b, span),
        Inst::Not { dst, src } => {
            let v = reg(&state, src).as_bool().not();
            set_reg(&mut state, dst, SymValue::Bool(v));
            StepResult::Continue(state)
        }
        Inst::Neg { dst, src } => {
            let t = reg(&state, src).as_int();
            let v = env.ctx.neg(t);
            set_reg(&mut state, dst, SymValue::Int(v));
            StepResult::Continue(state)
        }
        Inst::LoadGlobal { dst, global } => {
            let v = state.globals[global.index()].clone();
            set_reg(&mut state, dst, v);
            StepResult::Continue(state)
        }
        Inst::StoreGlobal { global, src } => {
            state.globals[global.index()] = reg(&state, src).clone();
            StepResult::Continue(state)
        }
        Inst::Call { dst, func, args } => {
            if state.frames.len() >= env.max_call_depth {
                let fault = env.fault(&state, FaultKind::StackOverflow, span);
                return StepResult::Fault(state, fault);
            }
            let argv: Vec<SymValue> = args.iter().map(|r| reg(&state, *r).clone()).collect();
            push_frame(env.module, &mut state, func, argv.clone(), dst);
            let body = env.module.func(func);
            let name = body.name.clone();
            let params = body.params.clone();
            if let Some(outcome) =
                env.apply_event(&mut state, Location::enter(name), &params, &argv, None)
            {
                return outcome;
            }
            StepResult::Continue(state)
        }
        Inst::AllocBuf { dst, cap } => {
            let zero = env.ctx.int(0);
            let id = state.heap.len();
            state.heap.push(SymBuf::stack(vec![zero; cap as usize]));
            set_reg(&mut state, dst, SymValue::Buf(id));
            StepResult::Continue(state)
        }
        Inst::Alloc { dst, size } => exec_alloc(env, state, dst, size, span),
        Inst::Free { buf } => match live_buf(&state, buf) {
            Err(kind) => {
                let fault = env.fault(&state, kind, span);
                StepResult::Fault(state, fault)
            }
            Ok(bid) if !state.heap[bid].dynamic => {
                // Freeing a stack buffer is an invalid free.
                let fault = env.fault(&state, FaultKind::UseAfterFree, span);
                StepResult::Fault(state, fault)
            }
            Ok(bid) => {
                state.heap[bid].live = false;
                StepResult::Continue(state)
            }
        },
        Inst::Format { fmt } => exec_format(env, state, fmt, span),
        Inst::BufSet { buf, idx, val } => {
            let bid = match live_buf(&state, buf) {
                Ok(bid) => bid,
                Err(kind) => {
                    let fault = env.fault(&state, kind, span);
                    return StepResult::Fault(state, fault);
                }
            };
            let cap = state.heap[bid].cells.len();
            let dynamic = state.heap[bid].dynamic;
            let idx_t = reg(&state, idx).as_int();
            let val_t = reg(&state, val).as_int();
            bounds_checked_access(env, state, idx_t, cap, dynamic, span, move |state, i| {
                state.heap[bid].cells[i] = val_t;
            })
        }
        Inst::BufGet { dst, buf, idx } => {
            let bid = match live_buf(&state, buf) {
                Ok(bid) => bid,
                Err(kind) => {
                    let fault = env.fault(&state, kind, span);
                    return StepResult::Fault(state, fault);
                }
            };
            let cap = state.heap[bid].cells.len();
            let dynamic = state.heap[bid].dynamic;
            let idx_t = reg(&state, idx).as_int();
            bounds_checked_access(env, state, idx_t, cap, dynamic, span, move |state, i| {
                let cell = state.heap[bid].cells[i];
                set_reg(state, dst, SymValue::Int(cell));
            })
        }
        Inst::BufCap { dst, buf } => {
            let bid = match live_buf(&state, buf) {
                Ok(bid) => bid,
                Err(kind) => {
                    let fault = env.fault(&state, kind, span);
                    return StepResult::Fault(state, fault);
                }
            };
            let cap = state.heap[bid].cells.len() as i64;
            let t = env.ctx.int(cap);
            set_reg(&mut state, dst, SymValue::Int(t));
            StepResult::Continue(state)
        }
        Inst::StrAt { dst, s, idx } => {
            let sym = reg(&state, s).as_str().clone();
            let cap = sym.cap();
            let idx_t = reg(&state, idx).as_int();
            // Valid indices are [0, cap]: index cap reads the guaranteed
            // NUL terminator. (Reads between an earlier NUL and cap read
            // allocated bytes — defined, as in C.)
            bounds_checked_access_incl(env, state, idx_t, cap, span, move |env2, state, i| {
                let byte = sym.byte_at(env2, i);
                set_reg(state, dst, SymValue::Int(byte));
            })
        }
        Inst::StrLen { dst, s } => exec_strlen(env, state, dst, s),
        Inst::Input { dst, input } => {
            let v = input_value(env, input);
            set_reg(&mut state, dst, v);
            StepResult::Continue(state)
        }
        Inst::Print { .. } => StepResult::Continue(state),
        Inst::Exit { .. } => StepResult::Exit(state),
        Inst::Assert { cond } => {
            let c = reg(&state, cond).as_bool();
            match c {
                BoolVal::Const(true) => StepResult::Continue(state),
                BoolVal::Const(false) => {
                    let fault = env.fault(&state, FaultKind::AssertFailed, span);
                    StepResult::Fault(state, fault)
                }
                BoolVal::Atom(atom) => {
                    env.stats.forks += 1;
                    let mut children = Vec::new();
                    // Failing side.
                    let mut bad = state.clone();
                    bad.id = env.fresh_id();
                    bad.cond.push_hard(env.ctx, atom.negate());
                    bad.depth += 1;
                    if env.feasible(bad.cond.hard()) {
                        let fault = env.fault(&bad, FaultKind::AssertFailed, span);
                        children.push(ForkChild {
                            state: bad,
                            disposition: Disposition::Fault(fault),
                        });
                    } else {
                        env.stats.pruned += 1;
                    }
                    // Passing side.
                    let mut ok = state;
                    ok.cond.push_hard(env.ctx, atom);
                    ok.depth += 1;
                    match env.classify(&ok) {
                        Some(d) => children.push(ForkChild {
                            state: ok,
                            disposition: d,
                        }),
                        None => env.stats.pruned += 1,
                    }
                    StepResult::Fork(children)
                }
            }
        }
    }
}

fn exec_bin(
    env: &mut ExecEnv<'_>,
    mut state: State,
    op: BinOp,
    dst: Reg,
    a: Reg,
    b: Reg,
    span: Span,
) -> StepResult {
    use BinOp::*;
    match op {
        Add | Sub | Mul => {
            let (ta, tb) = (reg(&state, a).as_int(), reg(&state, b).as_int());
            let t = match op {
                Add => env.ctx.add(ta, tb),
                Sub => env.ctx.sub(ta, tb),
                _ => env.ctx.mul(ta, tb),
            };
            set_reg(&mut state, dst, SymValue::Int(t));
            StepResult::Continue(state)
        }
        Div | Rem => {
            let (ta, tb) = (reg(&state, a).as_int(), reg(&state, b).as_int());
            if env.ctx.as_const(tb) == Some(0) {
                let fault = env.fault(&state, FaultKind::DivByZero, span);
                return StepResult::Fault(state, fault);
            }
            let zero = env.ctx.int(0);
            let div_zero = Constraint::new(CmpOp::Eq, tb, zero);
            if env.ctx.as_const(tb).is_none() {
                // Divisor is symbolic: fork a fault child if it can be 0.
                let query = state.cond.all().with(env.ctx, Segment::Extra, div_zero);
                if env.feasible(&query) {
                    env.stats.forks += 1;
                    let mut children = Vec::new();
                    let mut bad = state.clone();
                    bad.id = env.fresh_id();
                    bad.cond.push_hard(env.ctx, div_zero);
                    bad.depth += 1;
                    let fault = env.fault(&bad, FaultKind::DivByZero, span);
                    children.push(ForkChild {
                        state: bad,
                        disposition: Disposition::Fault(fault),
                    });
                    let mut ok = state;
                    ok.cond.push_hard(env.ctx, div_zero.negate());
                    ok.depth += 1;
                    let t = if op == Div {
                        env.ctx.div(ta, tb)
                    } else {
                        env.ctx.rem(ta, tb)
                    };
                    set_reg(&mut ok, dst, SymValue::Int(t));
                    match env.classify(&ok) {
                        Some(d) => children.push(ForkChild {
                            state: ok,
                            disposition: d,
                        }),
                        None => env.stats.pruned += 1,
                    }
                    return StepResult::Fork(children);
                }
            }
            let t = if op == Div {
                env.ctx.div(ta, tb)
            } else {
                env.ctx.rem(ta, tb)
            };
            set_reg(&mut state, dst, SymValue::Int(t));
            StepResult::Continue(state)
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let bv = match (reg(&state, a).clone(), reg(&state, b).clone()) {
                (SymValue::Bool(x), SymValue::Bool(y)) => bool_eq(op, x, y),
                (va, vb) => {
                    let (ta, tb) = (va.as_int(), vb.as_int());
                    int_cmp(env.ctx, op, ta, tb)
                }
            };
            set_reg(&mut state, dst, SymValue::Bool(bv));
            StepResult::Continue(state)
        }
        And | Or => unreachable!("&&/|| are lowered to control flow"),
    }
}

/// `Eq`/`Ne` over booleans. At most one side may be symbolic (MiniC has
/// no way to produce two independent symbolic bools in one comparison
/// without a branch in between, which normalizes one side).
fn bool_eq(op: BinOp, x: BoolVal, y: BoolVal) -> BoolVal {
    let negate = matches!(op, BinOp::Ne);
    let v = match (x, y) {
        (BoolVal::Const(a), BoolVal::Const(b)) => BoolVal::Const(a == b),
        (BoolVal::Const(true), other) | (other, BoolVal::Const(true)) => other,
        (BoolVal::Const(false), other) | (other, BoolVal::Const(false)) => other.not(),
        (BoolVal::Atom(a), BoolVal::Atom(b)) if a == b => BoolVal::Const(true),
        _ => panic!("comparison of two distinct symbolic booleans is unsupported"),
    };
    if negate {
        v.not()
    } else {
        v
    }
}

fn int_cmp(ctx: &mut TermCtx, op: BinOp, a: TermId, b: TermId) -> BoolVal {
    if let (Some(x), Some(y)) = (ctx.as_const(a), ctx.as_const(b)) {
        let r = match op {
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            _ => unreachable!(),
        };
        return BoolVal::Const(r);
    }
    let c = match op {
        BinOp::Eq => Constraint::new(CmpOp::Eq, a, b),
        BinOp::Ne => Constraint::new(CmpOp::Ne, a, b),
        BinOp::Lt => Constraint::new(CmpOp::Lt, a, b),
        BinOp::Le => Constraint::new(CmpOp::Le, a, b),
        BinOp::Gt => Constraint::new(CmpOp::Lt, b, a),
        BinOp::Ge => Constraint::new(CmpOp::Le, b, a),
        _ => unreachable!(),
    };
    BoolVal::Atom(c)
}

/// Shared bounds-check logic for buffer reads/writes: valid range is
/// `[0, cap)`. Concrete indices resolve directly; symbolic indices fork
/// fault children for each feasible violation and concretize the
/// in-range access.
fn bounds_checked_access(
    env: &mut ExecEnv<'_>,
    state: State,
    idx_t: TermId,
    cap: usize,
    dynamic: bool,
    span: Span,
    apply: impl FnOnce(&mut State, usize),
) -> StepResult {
    bounds_checked_common(
        env,
        state,
        idx_t,
        cap as i64,
        false,
        dynamic,
        span,
        move |_, state, i| apply(state, i),
    )
}

/// Like [`bounds_checked_access`] but the valid range is `[0, cap]`
/// (string reads may touch the NUL terminator at `cap`).
fn bounds_checked_access_incl(
    env: &mut ExecEnv<'_>,
    state: State,
    idx_t: TermId,
    cap: usize,
    span: Span,
    apply: impl FnOnce(&mut TermCtx, &mut State, usize),
) -> StepResult {
    bounds_checked_common(env, state, idx_t, cap as i64, true, false, span, apply)
}

#[allow(clippy::too_many_arguments)]
fn bounds_checked_common(
    env: &mut ExecEnv<'_>,
    mut state: State,
    idx_t: TermId,
    cap: i64,
    inclusive: bool,
    dynamic: bool,
    span: Span,
    apply: impl FnOnce(&mut TermCtx, &mut State, usize),
) -> StepResult {
    let in_range = |i: i64| i >= 0 && (i < cap || (inclusive && i == cap));
    if let Some(i) = env.ctx.as_const(idx_t) {
        if in_range(i) {
            apply(env.ctx, &mut state, i as usize);
            return StepResult::Continue(state);
        }
        let kind = oob_kind(cap, i, inclusive, dynamic);
        let fault = env.fault(&state, kind, span);
        return StepResult::Fault(state, fault);
    }

    // Symbolic index.
    env.stats.forks += 1;
    let zero = env.ctx.int(0);
    let cap_t = env.ctx.int(cap);
    let mut children = Vec::new();

    // Fault child: idx beyond the upper bound.
    let too_big = if inclusive {
        Constraint::new(CmpOp::Lt, cap_t, idx_t)
    } else {
        Constraint::new(CmpOp::Le, cap_t, idx_t)
    };
    // Fault child: negative idx.
    let negative = Constraint::new(CmpOp::Lt, idx_t, zero);
    for violation in [too_big, negative] {
        let mut bad = state.clone();
        bad.id = env.fresh_id();
        bad.cond.push_hard(env.ctx, violation);
        bad.depth += 1;
        if env.feasible(bad.cond.hard()) {
            // Resolve a concrete violating index for the report.
            let model_idx =
                match env
                    .solver
                    .check_at(env.ctx, bad.cond.hard(), env.rec, "fault_model")
                {
                    SatResult::Sat(m) => m.value_of(idx_t, env.ctx).unwrap_or(cap),
                    _ => cap,
                };
            let kind = oob_kind(cap, model_idx, inclusive, dynamic);
            let fault = env.fault(&bad, kind, span);
            children.push(ForkChild {
                state: bad,
                disposition: Disposition::Fault(fault),
            });
        } else {
            env.stats.pruned += 1;
        }
    }

    // In-range child, concretized.
    let lower = Constraint::new(CmpOp::Le, zero, idx_t);
    let upper = if inclusive {
        Constraint::new(CmpOp::Le, idx_t, cap_t)
    } else {
        Constraint::new(CmpOp::Lt, idx_t, cap_t)
    };
    let mut ok = state;
    ok.cond.push_hard(env.ctx, lower);
    ok.cond.push_hard(env.ctx, upper);
    ok.depth += 1;
    match env
        .solver
        .check_at(env.ctx, ok.cond.all(), env.rec, "concretize")
    {
        SatResult::Sat(model) => {
            let i = model.value_of(idx_t, env.ctx).unwrap_or(0).clamp(0, cap);
            let point = env.ctx.int(i);
            ok.cond
                .push_hard(env.ctx, Constraint::new(CmpOp::Eq, idx_t, point));
            env.stats.concretizations += 1;
            apply(env.ctx, &mut ok, i as usize);
            children.push(ForkChild {
                state: ok,
                disposition: Disposition::Active,
            });
        }
        SatResult::Unsat => {
            // Possibly only soft constraints block it.
            if let Some(Disposition::Suspended) = env.classify(&ok) {
                children.push(ForkChild {
                    state: ok,
                    disposition: Disposition::Suspended,
                });
            } else {
                env.stats.pruned += 1;
            }
        }
        SatResult::Unknown => {
            // Cannot concretize without a model; drop conservatively.
            env.stats.pruned += 1;
        }
    }
    StepResult::Fork(children)
}

fn oob_kind(cap: i64, idx: i64, inclusive: bool, dynamic: bool) -> FaultKind {
    if inclusive {
        FaultKind::StringOob {
            len: cap as u32,
            idx,
        }
    } else if dynamic && idx == cap {
        // Dynamic buffers classify the `idx == cap` fencepost as the
        // off-by-one class, matching the concrete VM.
        FaultKind::OffByOne { cap: cap as u32 }
    } else {
        FaultKind::BufferOverflow {
            cap: cap as u32,
            idx,
        }
    }
}

/// Resolves a buffer register to a live heap id. `Err` carries the
/// fault to raise: unbound or stale handles (registers still holding
/// their `Unit` default, or ids whose cell was freed) are the
/// use-after-free class, matching the concrete VM's handle protocol.
fn live_buf(state: &State, r: Reg) -> Result<usize, FaultKind> {
    match reg(state, r) {
        SymValue::Buf(id) if *id < state.heap.len() && state.heap[*id].live => Ok(*id),
        _ => Err(FaultKind::UseAfterFree),
    }
}

/// `alloc(n)`: sizes in `[0, MAX_ALLOC]` produce a live dynamic buffer;
/// anything else is the allocation-overflow fault. A symbolic size forks
/// fault children for each feasible violation (mirroring
/// [`bounds_checked_common`]) and concretizes the in-range allocation so
/// the heap shape stays a single deterministic point per path.
fn exec_alloc(
    env: &mut ExecEnv<'_>,
    mut state: State,
    dst: Reg,
    size: Reg,
    span: Span,
) -> StepResult {
    let size_t = reg(&state, size).as_int();
    let zero = env.ctx.int(0);
    let alloc_cells = |env: &mut ExecEnv<'_>, state: &mut State, n: i64| {
        let z = env.ctx.int(0);
        let id = state.heap.len();
        state.heap.push(SymBuf::dynamic(vec![z; n as usize]));
        set_reg(state, dst, SymValue::Buf(id));
    };

    if let Some(n) = env.ctx.as_const(size_t) {
        if !(0..=MAX_ALLOC).contains(&n) {
            let fault = env.fault(&state, FaultKind::AllocOverflow { req: n }, span);
            return StepResult::Fault(state, fault);
        }
        alloc_cells(env, &mut state, n);
        return StepResult::Continue(state);
    }

    // Symbolic request size.
    env.stats.forks += 1;
    let max_t = env.ctx.int(MAX_ALLOC);
    let mut children = Vec::new();

    let too_big = Constraint::new(CmpOp::Lt, max_t, size_t);
    let negative = Constraint::new(CmpOp::Lt, size_t, zero);
    for (violation, fallback) in [(too_big, MAX_ALLOC + 1), (negative, -1)] {
        let mut bad = state.clone();
        bad.id = env.fresh_id();
        bad.cond.push_hard(env.ctx, violation);
        bad.depth += 1;
        if env.feasible(bad.cond.hard()) {
            let req = match env
                .solver
                .check_at(env.ctx, bad.cond.hard(), env.rec, "fault_model")
            {
                SatResult::Sat(m) => m.value_of(size_t, env.ctx).unwrap_or(fallback),
                _ => fallback,
            };
            let fault = env.fault(&bad, FaultKind::AllocOverflow { req }, span);
            children.push(ForkChild {
                state: bad,
                disposition: Disposition::Fault(fault),
            });
        } else {
            env.stats.pruned += 1;
        }
    }

    // In-range child, concretized to one allocation size.
    let lower = Constraint::new(CmpOp::Le, zero, size_t);
    let upper = Constraint::new(CmpOp::Le, size_t, max_t);
    let mut ok = state;
    ok.cond.push_hard(env.ctx, lower);
    ok.cond.push_hard(env.ctx, upper);
    ok.depth += 1;
    match env
        .solver
        .check_at(env.ctx, ok.cond.all(), env.rec, "concretize")
    {
        SatResult::Sat(model) => {
            let n = model
                .value_of(size_t, env.ctx)
                .unwrap_or(0)
                .clamp(0, MAX_ALLOC);
            let point = env.ctx.int(n);
            ok.cond
                .push_hard(env.ctx, Constraint::new(CmpOp::Eq, size_t, point));
            env.stats.concretizations += 1;
            alloc_cells(env, &mut ok, n);
            children.push(ForkChild {
                state: ok,
                disposition: Disposition::Active,
            });
        }
        SatResult::Unsat => {
            if let Some(Disposition::Suspended) = env.classify(&ok) {
                children.push(ForkChild {
                    state: ok,
                    disposition: Disposition::Suspended,
                });
            } else {
                env.stats.pruned += 1;
            }
        }
        SatResult::Unknown => {
            env.stats.pruned += 1;
        }
    }
    StepResult::Fork(children)
}

/// The `format(s)` taint sink: a `%` byte anywhere before the NUL
/// terminator is the format-string fault. A symbolic string fans out
/// over the first `%`-or-NUL position like [`exec_strlen`]: at each
/// offset `k` the prefix pins bytes `0..k` to non-NUL non-`%`, the fault
/// child pins `s[k] == '%'`, and the clean child pins `s[k] == 0`.
fn exec_format(env: &mut ExecEnv<'_>, state: State, fmt: Reg, span: Span) -> StepResult {
    let sym = reg(&state, fmt).as_str().clone();
    // Fully concrete fast path.
    if let Some(scan) = concrete_format_scan(env.ctx, &sym) {
        return match scan {
            Some(pos) => {
                let kind = FaultKind::FormatString { idx: pos as i64 };
                let fault = env.fault(&state, kind, span);
                StepResult::Fault(state, fault)
            }
            None => StepResult::Continue(state),
        };
    }

    env.stats.forks += 1;
    let zero = env.ctx.int(0);
    let pct = env.ctx.int(i64::from(b'%'));
    let mut children = Vec::new();
    let mut prefix = state.cond.clone();
    for k in 0..=sym.cap() {
        if k < sym.cap() {
            // Fault child: first interesting byte is a `%` at offset k.
            let mut bad = state.clone();
            bad.id = env.fresh_id();
            bad.depth += 1;
            bad.cond = prefix.with_hard(env.ctx, Constraint::new(CmpOp::Eq, sym.bytes[k], pct));
            if env.feasible(bad.cond.hard()) {
                let fault = env.fault(&bad, FaultKind::FormatString { idx: k as i64 }, span);
                children.push(ForkChild {
                    state: bad,
                    disposition: Disposition::Fault(fault),
                });
            } else {
                env.stats.pruned += 1;
            }
        }
        // Clean child: the string ends at offset k, no `%` seen.
        let mut ok = state.clone();
        ok.id = env.fresh_id();
        ok.depth += 1;
        ok.cond = if k < sym.cap() {
            prefix.with_hard(env.ctx, Constraint::new(CmpOp::Eq, sym.bytes[k], zero))
        } else {
            prefix.clone()
        };
        match env.classify(&ok) {
            Some(d) => children.push(ForkChild {
                state: ok,
                disposition: d,
            }),
            None => env.stats.pruned += 1,
        }
        if k < sym.cap() {
            prefix.push_hard(env.ctx, Constraint::new(CmpOp::Ne, sym.bytes[k], zero));
            prefix.push_hard(env.ctx, Constraint::new(CmpOp::Ne, sym.bytes[k], pct));
        }
    }
    StepResult::Fork(children)
}

/// Concrete `%`-scan: `None` if any byte before the terminator is
/// symbolic, otherwise `Some(Some(pos))` for the first `%` before the
/// NUL or `Some(None)` for a clean string.
fn concrete_format_scan(ctx: &TermCtx, s: &SymStr) -> Option<Option<usize>> {
    for (i, &b) in s.bytes.iter().enumerate() {
        match ctx.as_const(b) {
            Some(0) => return Some(None),
            Some(v) if v == i64::from(b'%') => return Some(Some(i)),
            Some(_) => {}
            None => return None,
        }
    }
    Some(None)
}

/// `strlen` over a possibly-symbolic string: forks one child per
/// feasible first-NUL position — the paper's loop-iteration explosion in
/// its most concentrated form.
fn exec_strlen(env: &mut ExecEnv<'_>, state: State, dst: Reg, s: Reg) -> StepResult {
    let sym = reg(&state, s).as_str().clone();
    // Fully concrete fast path.
    if let Some(len) = concrete_strlen(env.ctx, &sym) {
        let mut st = state;
        let t = env.ctx.int(len as i64);
        set_reg(&mut st, dst, SymValue::Int(t));
        return StepResult::Continue(st);
    }

    env.stats.strlen_forks += 1;
    env.stats.forks += 1;
    let zero = env.ctx.int(0);
    let mut children = Vec::new();
    let mut prefix = state.cond.clone();
    for len in 0..=sym.cap() {
        let mut child = state.clone();
        child.id = env.fresh_id();
        child.depth += 1;
        child.cond = if len < sym.cap() {
            prefix.with_hard(env.ctx, Constraint::new(CmpOp::Eq, sym.bytes[len], zero))
        } else {
            prefix.clone()
        };
        match env.classify(&child) {
            Some(d) => {
                let t = env.ctx.int(len as i64);
                set_reg(&mut child, dst, SymValue::Int(t));
                children.push(ForkChild {
                    state: child,
                    disposition: d,
                });
            }
            None => env.stats.pruned += 1,
        }
        if len < sym.cap() {
            prefix.push_hard(env.ctx, Constraint::new(CmpOp::Ne, sym.bytes[len], zero));
        }
    }
    StepResult::Fork(children)
}

fn concrete_strlen(ctx: &TermCtx, s: &SymStr) -> Option<usize> {
    let mut len = 0;
    for &b in s.bytes.iter() {
        match ctx.as_const(b) {
            Some(0) => return Some(len),
            Some(_) => len += 1,
            None => return None,
        }
    }
    Some(len)
}

fn input_value(env: &mut ExecEnv<'_>, input: InputId) -> SymValue {
    if let Some(v) = env.inputs.get(&input) {
        return v.clone();
    }
    let def = &env.module.inputs[input.index()];
    let v = make_input_sym(env.ctx, def);
    env.inputs.insert(input, v.clone());
    v
}

/// Builds the fresh symbolic value for one input definition.
fn make_input_sym(ctx: &mut TermCtx, def: &sir::InputDef) -> SymValue {
    match def.kind {
        InputKind::Int => {
            let t = ctx.new_var(def.name.clone(), i32::MIN as i64, i32::MAX as i64);
            SymValue::Int(t)
        }
        InputKind::Str { cap } => {
            let bytes: Vec<TermId> = (0..cap)
                .map(|i| ctx.new_var(format!("{}[{i}]", def.name), 0, 255))
                .collect();
            SymValue::Str(SymStr {
                bytes: Arc::new(bytes),
            })
        }
    }
}

fn exec_term(env: &mut ExecEnv<'_>, mut state: State, term: Terminator, span: Span) -> StepResult {
    match term {
        Terminator::Jump(b) => {
            let f = state.frame_mut();
            f.block = b;
            f.idx = 0;
            StepResult::Continue(state)
        }
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            let c = reg(&state, cond).as_bool();
            match c {
                BoolVal::Const(taken) => {
                    let f = state.frame_mut();
                    f.block = if taken { then_bb } else { else_bb };
                    f.idx = 0;
                    StepResult::Continue(state)
                }
                BoolVal::Atom(atom) => {
                    env.stats.forks += 1;
                    let mut children = Vec::new();
                    for (target, constraint) in [(then_bb, atom), (else_bb, atom.negate())] {
                        let mut child = state.clone();
                        child.id = env.fresh_id();
                        child.cond.push_hard(env.ctx, constraint);
                        child.depth += 1;
                        {
                            let f = child.frame_mut();
                            f.block = target;
                            f.idx = 0;
                        }
                        match env.classify(&child) {
                            Some(d) => children.push(ForkChild {
                                state: child,
                                disposition: d,
                            }),
                            None => env.stats.pruned += 1,
                        }
                    }
                    StepResult::Fork(children)
                }
            }
        }
        Terminator::Return(r) => {
            let _ = span;
            let ret = r.map(|r| reg(&state, r).clone());
            let body = env.module.func(state.frame().func);
            let name = body.name.clone();
            if let Some(outcome) =
                env.apply_event(&mut state, Location::leave(name), &[], &[], ret.as_ref())
            {
                return outcome;
            }
            let ret_dst = state.frame().ret_dst;
            state.frames.pop();
            match state.frames.last_mut() {
                None => StepResult::Exit(state),
                Some(caller) => {
                    if let (Some(dst), Some(v)) = (ret_dst, ret) {
                        caller.regs[dst.index()] = v;
                    }
                    StepResult::Continue(state)
                }
            }
        }
    }
}
