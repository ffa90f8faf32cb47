//! The symbolic domain of the shared SIR interpreter
//! ([`concrete::interp`]): solver terms, forking, guidance application,
//! and concretization.

use crate::hook::{EventCtx, EventHook};
use crate::lineage::{state_loc, Lineage, WorkSnapshot};
use crate::state::{State, SymMachine};
use crate::value::{BoolVal, SymStr, SymValue};
use concrete::interp::{self, Domain, Range};
use concrete::{Fault, FaultKind, Location};
use minic::{BinOp, Span};
use sir::{FuncId, InputId, InputKind, Module, Reg};
use solver::{CmpOp, Constraint, Partition, SatResult, Segment, Solver, TermCtx, TermId};
use statsym_telemetry::{lineage_op, names, FieldValue, Recorder};
use std::collections::HashMap;
use std::ops::ControlFlow::{self, Break, Continue};
use std::rc::Rc;

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
    pub next_state_id: &'e mut u64,
    pub lineage: &'e mut Lineage,
    /// Entry and exit location of every function, by [`FuncId`].
    pub locs: &'e [(Location, Location)],
}

/// The entry and exit location of every function of `module`, indexed
/// by [`FuncId`]: built once per run, so a boundary event shares its
/// name instead of allocating one.
pub(crate) fn func_locations(module: &Module) -> Vec<(Location, Location)> {
    module
        .funcs
        .iter()
        .map(|f| {
            (
                Location::enter(f.name.as_str()),
                Location::leave(f.name.as_str()),
            )
        })
        .collect()
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
    Continue,
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

    fn fault_of(&self, state: &State, kind: FaultKind, span: Span) -> Fault {
        state.mach.fault(self.module, kind, span)
    }

    /// Runs the guidance hook for a function-boundary event. Returns
    /// `Some(result)` when the event decides the state's fate.
    fn apply_event(
        &mut self,
        state: &mut State,
        loc: &Location,
        params: &[(String, minic::Type)],
        args: &[SymValue],
        ret: Option<&SymValue>,
    ) -> ControlFlow<StepResult> {
        state.trace = state.trace.push(loc.clone());
        if state.guidance_off {
            return Continue(());
        }
        let result = {
            let ev = EventCtx {
                loc,
                params,
                args,
                ret,
                global_defs: &self.module.globals,
                globals: &state.mach.globals,
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
                self.note_candidate_node(matched, loc, conj, "conflict");
                self.stats.suspended += 1;
                self.rec.counter_add(names::SYMEX_SUSPEND_PREDICATE, 1);
                self.rec
                    .observe(names::SYMEX_HOP_DIVERGENCE, state.meta.hops as u64);
                self.lineage_event(lineage_op::SUSPEND_PREDICATE, state, None);
                Break(StepResult::Suspend(std::mem::take(state)))
            } else {
                self.note_candidate_node(matched, loc, conj, "kill");
                self.stats.pruned += 1;
                self.rec.counter_add(names::SYMEX_KILL, 1);
                self.lineage_event(lineage_op::KILL, state, None);
                Break(StepResult::Kill)
            };
        }
        self.note_candidate_node(matched, loc, conj, "ok");
        if result.suspend {
            self.stats.suspended += 1;
            self.rec.counter_add(names::SYMEX_SUSPEND_TAU, 1);
            self.rec
                .observe(names::SYMEX_HOP_DIVERGENCE, state.meta.hops as u64);
            self.lineage_event(lineage_op::SUSPEND_TAU, state, None);
            return Break(StepResult::Suspend(std::mem::take(state)));
        }
        Continue(())
    }
}

/// The atom behind a boolean the interpreter could not resolve.
fn atom(c: BoolVal) -> Constraint {
    match c {
        BoolVal::Atom(a) => a,
        BoolVal::Const(_) => unreachable!("known booleans never fork"),
    }
}

/// Builds the initial state entering `main`.
pub(crate) fn initial_state(env: &mut ExecEnv<'_>) -> State {
    let module = env.module;
    let mut state = State {
        mach: interp::boot(env, module),
        ..State::default()
    };
    // The root lineage node must exist before the main():enter event
    // below, which may itself emit a suspend transition for it.
    env.lineage_event(lineage_op::ROOT, &state, None);
    // Deliver the main():enter event (guidance may constrain globals or
    // advance candidate-path progress). A suspend decision here is
    // ignored — the initial state must run.
    let argc = module.func(module.main).params.len();
    match env.enter(&mut state, module.main, argc) {
        Break(StepResult::Suspend(s)) => s,
        _ => state,
    }
}

/// Executes one instruction (or terminator) of `state`. Unless the
/// result is [`StepResult::Continue`], the caller is done with `state`:
/// a fork, exit, fault or suspension has moved it into the result.
pub(crate) fn step(env: &mut ExecEnv<'_>, state: &mut State) -> StepResult {
    env.stats.steps += 1;
    let module = env.module;
    match interp::step(env, module, state) {
        Continue(()) => StepResult::Continue,
        Break(out) => out,
    }
}

/// The symbolic domain: solver terms, forking at every decision on a
/// symbolic value.
impl Domain for ExecEnv<'_> {
    type Int = TermId;
    type Bool = BoolVal;
    type Str = SymStr;
    type State = State;
    type Out = StepResult;

    fn machine(st: &State) -> &SymMachine {
        &st.mach
    }
    fn machine_mut(st: &mut State) -> &mut SymMachine {
        &mut st.mach
    }

    fn int(&mut self, v: i64) -> TermId {
        self.ctx.int(v)
    }
    fn known_int(&self, v: TermId) -> Option<i64> {
        self.ctx.as_const(v)
    }
    fn bool(b: bool) -> BoolVal {
        BoolVal::Const(b)
    }
    fn known_bool(b: BoolVal) -> Option<bool> {
        b.as_const()
    }
    fn str_lit(&mut self, bytes: &[u8]) -> SymStr {
        SymStr::concrete(self.ctx, bytes)
    }
    fn str_cap(s: &SymStr) -> usize {
        s.cap()
    }
    fn str_byte(&mut self, s: &SymStr, i: usize) -> TermId {
        s.byte_at(self.ctx, i)
    }
    fn arith(&mut self, op: BinOp, a: TermId, b: TermId) -> TermId {
        match op {
            BinOp::Add => self.ctx.add(a, b),
            BinOp::Sub => self.ctx.sub(a, b),
            BinOp::Mul => self.ctx.mul(a, b),
            BinOp::Div => self.ctx.div(a, b),
            BinOp::Rem => self.ctx.rem(a, b),
            _ => unreachable!("{op:?} is not arithmetic"),
        }
    }
    fn cmp(&mut self, op: BinOp, a: TermId, b: TermId) -> BoolVal {
        BoolVal::Atom(match op {
            BinOp::Eq => Constraint::new(CmpOp::Eq, a, b),
            BinOp::Ne => Constraint::new(CmpOp::Ne, a, b),
            BinOp::Lt => Constraint::new(CmpOp::Lt, a, b),
            BinOp::Le => Constraint::new(CmpOp::Le, a, b),
            BinOp::Gt => Constraint::new(CmpOp::Lt, b, a),
            BinOp::Ge => Constraint::new(CmpOp::Le, b, a),
            _ => unreachable!("{op:?} is not a comparison"),
        })
    }
    fn not(b: BoolVal) -> BoolVal {
        b.not()
    }
    fn neg(&mut self, a: TermId) -> TermId {
        self.ctx.neg(a)
    }

    fn fork_branch(
        &mut self,
        st: &mut State,
        c: BoolVal,
        mut k: impl FnMut(&mut State, bool),
    ) -> StepResult {
        let atom = atom(c);
        let parent = std::mem::take(st);
        self.stats.forks += 1;
        let mut children = Vec::new();
        // Only the taken side clones: the not-taken child is the parent.
        let sides = [(true, parent.clone(), atom), (false, parent, atom.negate())];
        for (taken, mut child, constraint) in sides {
            child.id = self.fresh_id();
            child.cond.push_hard(self.ctx, constraint);
            child.depth += 1;
            k(&mut child, taken);
            match self.classify(&child) {
                Some(d) => children.push(ForkChild {
                    state: child,
                    disposition: d,
                }),
                None => self.stats.pruned += 1,
            }
        }
        StepResult::Fork(children)
    }

    fn fork_assert(&mut self, st: &mut State, c: BoolVal, span: Span) -> StepResult {
        let atom = atom(c);
        let state = std::mem::take(st);
        self.stats.forks += 1;
        let mut children = Vec::new();
        // Failing side.
        let mut bad = state.clone();
        bad.id = self.fresh_id();
        bad.cond.push_hard(self.ctx, atom.negate());
        bad.depth += 1;
        if self.feasible(bad.cond.hard()) {
            let fault = self.fault_of(&bad, FaultKind::AssertFailed, span);
            children.push(ForkChild {
                state: bad,
                disposition: Disposition::Fault(fault),
            });
        } else {
            self.stats.pruned += 1;
        }
        // Passing side.
        let mut ok = state;
        ok.cond.push_hard(self.ctx, atom);
        ok.depth += 1;
        match self.classify(&ok) {
            Some(d) => children.push(ForkChild {
                state: ok,
                disposition: d,
            }),
            None => self.stats.pruned += 1,
        }
        StepResult::Fork(children)
    }

    fn guard_divisor(
        &mut self,
        st: &mut State,
        tb: TermId,
        span: Span,
        k: impl FnOnce(&mut Self, &mut State),
    ) -> ControlFlow<StepResult> {
        let zero = self.ctx.int(0);
        let div_zero = Constraint::new(CmpOp::Eq, tb, zero);
        if self.ctx.as_const(tb).is_some() {
            return Continue(());
        }
        // Divisor is symbolic: fork a fault child if it can be 0.
        let query = st.cond.all().with(self.ctx, Segment::Extra, div_zero);
        if !self.feasible(&query) {
            return Continue(());
        }
        let state = std::mem::take(st);
        self.stats.forks += 1;
        let mut children = Vec::new();
        let mut bad = state.clone();
        bad.id = self.fresh_id();
        bad.cond.push_hard(self.ctx, div_zero);
        bad.depth += 1;
        let fault = self.fault_of(&bad, FaultKind::DivByZero, span);
        children.push(ForkChild {
            state: bad,
            disposition: Disposition::Fault(fault),
        });
        let mut ok = state;
        ok.cond.push_hard(self.ctx, div_zero.negate());
        ok.depth += 1;
        k(self, &mut ok);
        match self.classify(&ok) {
            Some(d) => children.push(ForkChild {
                state: ok,
                disposition: d,
            }),
            None => self.stats.pruned += 1,
        }
        Break(StepResult::Fork(children))
    }

    /// Forks a fault child for each feasible violation and concretizes
    /// the in-range value, so an index or a heap shape stays a single
    /// deterministic point per path.
    fn fork_range(
        &mut self,
        st: &mut State,
        t: TermId,
        range: Range<impl Fn(i64) -> FaultKind>,
        span: Span,
        apply: impl FnOnce(&mut Self, &mut State, i64),
    ) -> StepResult {
        let state = std::mem::take(st);
        self.stats.forks += 1;
        let zero = self.ctx.int(0);
        let hi_t = self.ctx.int(range.hi);
        let mut children = Vec::new();

        // Fault children: above the upper bound, then negative.
        let too_big = if range.inclusive {
            Constraint::new(CmpOp::Lt, hi_t, t)
        } else {
            Constraint::new(CmpOp::Le, hi_t, t)
        };
        let negative = Constraint::new(CmpOp::Lt, t, zero);
        for (violation, fallback) in [too_big, negative].into_iter().zip(range.fallback) {
            let mut bad = state.clone();
            bad.id = self.fresh_id();
            bad.cond.push_hard(self.ctx, violation);
            bad.depth += 1;
            if self.feasible(bad.cond.hard()) {
                // Resolve a concrete violating value for the report.
                let witness =
                    match self
                        .solver
                        .check_at(self.ctx, bad.cond.hard(), self.rec, "fault_model")
                    {
                        SatResult::Sat(m) => m.value_of(t, self.ctx).unwrap_or(fallback),
                        _ => fallback,
                    };
                let fault = self.fault_of(&bad, (range.kind)(witness), span);
                children.push(ForkChild {
                    state: bad,
                    disposition: Disposition::Fault(fault),
                });
            } else {
                self.stats.pruned += 1;
            }
        }

        // In-range child, concretized.
        let lower = Constraint::new(CmpOp::Le, zero, t);
        let upper = if range.inclusive {
            Constraint::new(CmpOp::Le, t, hi_t)
        } else {
            Constraint::new(CmpOp::Lt, t, hi_t)
        };
        let mut ok = state;
        ok.cond.push_hard(self.ctx, lower);
        ok.cond.push_hard(self.ctx, upper);
        ok.depth += 1;
        match self
            .solver
            .check_at(self.ctx, ok.cond.all(), self.rec, "concretize")
        {
            SatResult::Sat(model) => {
                let v = model.value_of(t, self.ctx).unwrap_or(0).clamp(0, range.hi);
                let point = self.ctx.int(v);
                ok.cond
                    .push_hard(self.ctx, Constraint::new(CmpOp::Eq, t, point));
                self.stats.concretizations += 1;
                apply(self, &mut ok, v);
                children.push(ForkChild {
                    state: ok,
                    disposition: Disposition::Active,
                });
            }
            SatResult::Unsat => {
                // Possibly only soft constraints block it.
                if let Some(Disposition::Suspended) = self.classify(&ok) {
                    children.push(ForkChild {
                        state: ok,
                        disposition: Disposition::Suspended,
                    });
                } else {
                    self.stats.pruned += 1;
                }
            }
            SatResult::Unknown => {
                // Cannot concretize without a model; drop conservatively.
                self.stats.pruned += 1;
            }
        }
        StepResult::Fork(children)
    }

    /// Forks one child per feasible first-NUL position — the paper's
    /// loop-iteration explosion in its most concentrated form.
    fn fork_strlen(
        &mut self,
        st: &mut State,
        sym: &SymStr,
        mut k: impl FnMut(&mut Self, &mut State, usize),
    ) -> StepResult {
        let mut state = std::mem::take(st);
        self.stats.strlen_forks += 1;
        self.stats.forks += 1;
        let zero = self.ctx.int(0);
        let mut children = Vec::new();
        let mut prefix = state.cond.clone();
        for len in 0..=sym.cap() {
            // The last child (no NUL within `cap`) takes the parent and
            // the prefix itself; the others clone them.
            let mut child;
            if len < sym.cap() {
                child = state.clone();
                child.cond =
                    prefix.with_hard(self.ctx, Constraint::new(CmpOp::Eq, sym.bytes[len], zero));
            } else {
                child = std::mem::take(&mut state);
                child.cond = std::mem::take(&mut prefix);
            }
            child.id = self.fresh_id();
            child.depth += 1;
            match self.classify(&child) {
                Some(d) => {
                    k(self, &mut child, len);
                    children.push(ForkChild {
                        state: child,
                        disposition: d,
                    });
                }
                None => self.stats.pruned += 1,
            }
            if len < sym.cap() {
                prefix.push_hard(self.ctx, Constraint::new(CmpOp::Ne, sym.bytes[len], zero));
            }
        }
        StepResult::Fork(children)
    }

    /// Fans out over the first `%`-or-NUL position like
    /// [`Domain::fork_strlen`]: at each offset `k` the prefix pins bytes
    /// `0..k` to non-NUL non-`%`, the fault child pins `s[k] == '%'`, and
    /// the clean child pins `s[k] == 0`.
    fn fork_format(&mut self, st: &mut State, sym: &SymStr, span: Span) -> StepResult {
        let mut state = std::mem::take(st);
        self.stats.forks += 1;
        let zero = self.ctx.int(0);
        let pct = self.ctx.int(i64::from(b'%'));
        let mut children = Vec::new();
        let mut prefix = state.cond.clone();
        for k in 0..=sym.cap() {
            if k < sym.cap() {
                // Fault child: first interesting byte is a `%` at offset k.
                let mut bad = state.clone();
                bad.id = self.fresh_id();
                bad.depth += 1;
                bad.cond =
                    prefix.with_hard(self.ctx, Constraint::new(CmpOp::Eq, sym.bytes[k], pct));
                if self.feasible(bad.cond.hard()) {
                    let kind = FaultKind::FormatString { idx: k as i64 };
                    let fault = self.fault_of(&bad, kind, span);
                    children.push(ForkChild {
                        state: bad,
                        disposition: Disposition::Fault(fault),
                    });
                } else {
                    self.stats.pruned += 1;
                }
            }
            // Clean child: the string ends at offset k, no `%` seen. The
            // last one (no NUL within `cap`) takes the parent and the
            // prefix itself.
            let mut ok;
            if k < sym.cap() {
                ok = state.clone();
                ok.cond =
                    prefix.with_hard(self.ctx, Constraint::new(CmpOp::Eq, sym.bytes[k], zero));
            } else {
                ok = std::mem::take(&mut state);
                ok.cond = std::mem::take(&mut prefix);
            }
            ok.id = self.fresh_id();
            ok.depth += 1;
            match self.classify(&ok) {
                Some(d) => children.push(ForkChild {
                    state: ok,
                    disposition: d,
                }),
                None => self.stats.pruned += 1,
            }
            if k < sym.cap() {
                prefix.push_hard(self.ctx, Constraint::new(CmpOp::Ne, sym.bytes[k], zero));
                prefix.push_hard(self.ctx, Constraint::new(CmpOp::Ne, sym.bytes[k], pct));
            }
        }
        StepResult::Fork(children)
    }

    fn input(&mut self, id: InputId) -> ControlFlow<StepResult, SymValue> {
        if let Some(v) = self.inputs.get(&id) {
            return Continue(v.clone());
        }
        let def = &self.module.inputs[id.index()];
        let v = make_input_sym(self.ctx, def);
        self.inputs.insert(id, v.clone());
        Continue(v)
    }
    fn print(&mut self, _: &SymMachine, _: &[Reg]) {}
    fn enter(&mut self, st: &mut State, func: FuncId, argc: usize) -> ControlFlow<StepResult> {
        let body = self.module.func(func);
        let loc = &self.locs[func.index()].0;
        let args = st.mach.args(argc).to_vec();
        self.apply_event(st, loc, &body.params, &args, None)
    }
    fn leave(
        &mut self,
        st: &mut State,
        func: FuncId,
        ret: Option<&SymValue>,
    ) -> ControlFlow<StepResult> {
        let loc = &self.locs[func.index()].1;
        // A state suspended here resumes by re-running its `Return`,
        // which records this event again: it keeps the trace it had
        // before the event.
        let before = st.trace.clone();
        let mut out = self.apply_event(st, loc, &[], &[], ret);
        if let Break(StepResult::Suspend(s)) = &mut out {
            s.trace = before;
        }
        out
    }
    fn fault(&mut self, st: &mut State, fault: Fault) -> StepResult {
        StepResult::Fault(std::mem::take(st), fault)
    }
    fn exit(&mut self, st: &mut State, _: Option<TermId>) -> StepResult {
        StepResult::Exit(std::mem::take(st))
    }
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
                bytes: Rc::new(bytes),
            })
        }
    }
}
