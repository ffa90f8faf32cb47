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
    /// States guidance parked at a function-boundary event: τ and
    /// predicate suspensions. Fork children born suspended are not
    /// counted here; they are the `symex.suspend.branch` counter.
    pub suspended: u64,
    /// Symbolic indices pinned to a concrete model value.
    pub concretizations: u64,
    /// `strlen` fan-outs on symbolic strings.
    pub strlen_forks: u64,
}

/// Why a state was parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// The hook's τ hop budget ran out.
    Tau,
    /// An injected candidate predicate conflicts with the hard path.
    Predicate,
    /// A fork child is feasible on its hard constraints only.
    Branch,
}

impl Cause {
    /// The `symex.suspend.<cause>` counter and `suspend.<cause>` lineage
    /// op of this cause.
    pub(crate) fn names(self) -> (&'static str, &'static str) {
        match self {
            Cause::Tau => (names::SYMEX_SUSPEND_TAU, lineage_op::SUSPEND_TAU),
            Cause::Predicate => (
                names::SYMEX_SUSPEND_PREDICATE,
                lineage_op::SUSPEND_PREDICATE,
            ),
            Cause::Branch => (names::SYMEX_SUSPEND_BRANCH, lineage_op::SUSPEND_BRANCH),
        }
    }
}

/// What becomes of one successor of a step.
#[derive(Debug)]
pub(crate) enum Fate {
    /// Keep exploring.
    Active,
    /// Park it until no active state is left.
    Suspended(Cause),
    /// Drop it: an injected predicate left its hard path infeasible.
    Killed,
    /// The path terminated normally.
    Exit,
    /// The path reaches a fault (feasible on its hard constraints).
    Fault(Fault),
}

/// One successor state of a step plus its fate.
pub(crate) type Successor = (State, Fate);

/// `st` itself as its step's one successor.
fn only(st: &mut State, fate: Fate) -> Vec<Successor> {
    vec![(std::mem::take(st), fate)]
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
    /// Model-free ([`Solver::check_sat_at`]), so shared-cache `Sat` verdicts
    /// can answer it — `Sat` and `Unknown` are interchangeable here,
    /// which is what makes verdict sharing exploration-invariant. A
    /// state's own queries go through [`crate::PathCond::all_feasible`]
    /// and [`crate::PathCond::hard_feasible`], which mark what a
    /// feasible answer decided.
    fn feasible(&mut self, query: &Partition) -> bool {
        !self
            .solver
            .check_sat_at(self.ctx, query, self.rec, "feasibility")
            .is_unsat()
    }

    /// Classifies a candidate child: active, suspended (violates soft
    /// constraints only), or pruned (`None`).
    fn classify(&mut self, state: &mut State) -> Option<Fate> {
        if state.cond.all_feasible(|q| self.feasible(q)) {
            return Some(Fate::Active);
        }
        if state.cond.soft_len() > 0 && state.cond.hard_feasible(|q| self.feasible(q)) {
            return Some(Fate::Suspended(Cause::Branch));
        }
        None
    }

    fn fault_of(&self, state: &State, kind: FaultKind, span: Span) -> Fault {
        state.mach.fault(self.module, kind, span)
    }

    /// Runs the guidance hook for a function-boundary event. Breaks with
    /// the state as its own one successor when the event parks or kills
    /// it; the engine narrates that fate.
    fn apply_event(
        &mut self,
        state: &mut State,
        loc: &Location,
        params: &[(String, minic::Type)],
        args: &[SymValue],
        ret: Option<&SymValue>,
    ) -> ControlFlow<Vec<Successor>> {
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
        let fate = if injected && !state.cond.all_feasible(|q| self.feasible(q)) {
            if state.cond.hard_feasible(|q| self.feasible(q)) {
                self.note_candidate_node(matched, loc, conj, "conflict");
                self.stats.suspended += 1;
                Fate::Suspended(Cause::Predicate)
            } else {
                self.note_candidate_node(matched, loc, conj, "kill");
                self.stats.pruned += 1;
                Fate::Killed
            }
        } else {
            self.note_candidate_node(matched, loc, conj, "ok");
            if !result.suspend {
                return Continue(());
            }
            self.stats.suspended += 1;
            Fate::Suspended(Cause::Tau)
        };
        Break(only(state, fate))
    }
}

/// The atom behind a boolean the interpreter could not resolve.
fn atom(c: BoolVal) -> Constraint {
    match c {
        BoolVal::Atom(a) => a,
        BoolVal::Const(_) => unreachable!("known booleans never fork"),
    }
}

/// Builds the initial state entering `main`. Guidance sees its
/// `main():enter` event and may constrain globals or advance
/// candidate-path progress there, but the root runs whatever fate the
/// event decides, so that fate is dropped: neither counted nor
/// narrated.
pub(crate) fn initial_state(env: &mut ExecEnv<'_>) -> State {
    let module = env.module;
    let mut state = State {
        mach: interp::boot(env, module),
        ..State::default()
    };
    // The root lineage node must exist before the main():enter event
    // below can emit its coverage event.
    env.lineage_event(lineage_op::ROOT, &state, None);
    let argc = module.func(module.main).params.len();
    let counted = *env.stats;
    match env.enter(&mut state, module.main, argc) {
        Break(mut decided) => {
            *env.stats = counted;
            decided.pop().expect("the event's own state").0
        }
        Continue(()) => state,
    }
}

/// The symbolic domain: solver terms, forking at every decision on a
/// symbolic value.
impl Domain for ExecEnv<'_> {
    type Int = TermId;
    type Bool = BoolVal;
    type Str = SymStr;
    type State = State;
    type Out = Vec<Successor>;

    fn steps(&mut self) -> &mut u64 {
        &mut self.stats.steps
    }
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
    ) -> Vec<Successor> {
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
            match self.classify(&mut child) {
                Some(d) => children.push((child, d)),
                None => self.stats.pruned += 1,
            }
        }
        children
    }

    fn fork_assert(&mut self, st: &mut State, c: BoolVal, span: Span) -> Vec<Successor> {
        let atom = atom(c);
        let state = std::mem::take(st);
        self.stats.forks += 1;
        let mut children = Vec::new();
        // Failing side.
        let mut bad = state.clone();
        bad.id = self.fresh_id();
        bad.cond.push_hard(self.ctx, atom.negate());
        bad.depth += 1;
        if bad.cond.hard_feasible(|q| self.feasible(q)) {
            let fault = self.fault_of(&bad, FaultKind::AssertFailed, span);
            children.push((bad, Fate::Fault(fault)));
        } else {
            self.stats.pruned += 1;
        }
        // Passing side.
        let mut ok = state;
        ok.cond.push_hard(self.ctx, atom);
        ok.depth += 1;
        match self.classify(&mut ok) {
            Some(d) => children.push((ok, d)),
            None => self.stats.pruned += 1,
        }
        children
    }

    fn guard_divisor(
        &mut self,
        st: &mut State,
        tb: TermId,
        span: Span,
        k: impl FnOnce(&mut Self, &mut State),
    ) -> ControlFlow<Vec<Successor>> {
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
        children.push((bad, Fate::Fault(fault)));
        let mut ok = state;
        ok.cond.push_hard(self.ctx, div_zero.negate());
        ok.depth += 1;
        k(self, &mut ok);
        match self.classify(&mut ok) {
            Some(d) => children.push((ok, d)),
            None => self.stats.pruned += 1,
        }
        Break(children)
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
    ) -> Vec<Successor> {
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
            if bad.cond.hard_feasible(|q| self.feasible(q)) {
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
                children.push((bad, Fate::Fault(fault)));
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
                children.push((ok, Fate::Active));
            }
            SatResult::Unsat => {
                // Possibly only soft constraints block it.
                if let Some(fate @ Fate::Suspended(_)) = self.classify(&mut ok) {
                    children.push((ok, fate));
                } else {
                    self.stats.pruned += 1;
                }
            }
            SatResult::Unknown => {
                // Cannot concretize without a model; drop conservatively.
                self.stats.pruned += 1;
            }
        }
        children
    }

    /// Forks one child per feasible first-NUL position — the paper's
    /// loop-iteration explosion in its most concentrated form.
    fn fork_strlen(
        &mut self,
        st: &mut State,
        sym: &SymStr,
        mut k: impl FnMut(&mut Self, &mut State, usize),
    ) -> Vec<Successor> {
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
            match self.classify(&mut child) {
                Some(d) => {
                    k(self, &mut child, len);
                    children.push((child, d));
                }
                None => self.stats.pruned += 1,
            }
            if len < sym.cap() {
                prefix.push_hard(self.ctx, Constraint::new(CmpOp::Ne, sym.bytes[len], zero));
            }
        }
        children
    }

    /// Fans out over the first `%`-or-NUL position like
    /// [`Domain::fork_strlen`]: at each offset `k` the prefix pins bytes
    /// `0..k` to non-NUL non-`%`, the fault child pins `s[k] == '%'`, and
    /// the clean child pins `s[k] == 0`.
    fn fork_format(&mut self, st: &mut State, sym: &SymStr, span: Span) -> Vec<Successor> {
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
                if bad.cond.hard_feasible(|q| self.feasible(q)) {
                    let kind = FaultKind::FormatString { idx: k as i64 };
                    let fault = self.fault_of(&bad, kind, span);
                    children.push((bad, Fate::Fault(fault)));
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
            match self.classify(&mut ok) {
                Some(d) => children.push((ok, d)),
                None => self.stats.pruned += 1,
            }
            if k < sym.cap() {
                prefix.push_hard(self.ctx, Constraint::new(CmpOp::Ne, sym.bytes[k], zero));
                prefix.push_hard(self.ctx, Constraint::new(CmpOp::Ne, sym.bytes[k], pct));
            }
        }
        children
    }

    fn input(&mut self, id: InputId) -> ControlFlow<Vec<Successor>, SymValue> {
        if let Some(v) = self.inputs.get(&id) {
            return Continue(v.clone());
        }
        let def = &self.module.inputs[id.index()];
        let v = make_input_sym(self.ctx, def);
        self.inputs.insert(id, v.clone());
        Continue(v)
    }
    fn print(&mut self, _: &SymMachine, _: &[Reg]) {}
    fn enter(&mut self, st: &mut State, func: FuncId, argc: usize) -> ControlFlow<Vec<Successor>> {
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
    ) -> ControlFlow<Vec<Successor>> {
        let loc = &self.locs[func.index()].1;
        // A state parked here resumes by re-running its `Return`,
        // which records this event again: a state this event decides a
        // fate for keeps the trace it had before the event.
        let before = st.trace.clone();
        let mut out = self.apply_event(st, loc, &[], &[], ret);
        if let Break(decided) = &mut out {
            decided[0].0.trace = before;
        }
        out
    }
    fn fault(&mut self, st: &mut State, fault: Fault) -> Vec<Successor> {
        only(st, Fate::Fault(fault))
    }
    fn exit(&mut self, st: &mut State, _: Option<TermId>) -> Vec<Successor> {
        only(st, Fate::Exit)
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
