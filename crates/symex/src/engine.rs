//! The symbolic execution engine: scheduling loop, run limits, and results.

use crate::attr::StepAttr;
use crate::executor::{func_locations, initial_state, ExecEnv, ExecStats, Fate, Successor};
use crate::hook::{EventHook, NoGuidance};
use crate::lineage::{Lineage, WorkSnapshot};
use crate::scheduler::{build_scheduler, Scheduler, SchedulerKind};
use crate::state::State;
use crate::value::SymValue;
use concrete::{interp, Fault, InputValue, Location};
use sir::{InputId, Module};
use solver::{Constraint, QueryCache, SatResult, Solver, SolverConfig, SolverStats, TermCtx};
use statsym_telemetry::{lineage_op, names, FieldValue, Recorder, NOOP};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::ControlFlow::{self, Break, Continue};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Engine run limits and policy.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// State selection policy of the scheduling loop: which pending
    /// state [`Engine::run`] steps next. Guided runs use
    /// [`SchedulerKind::Priority`] with the hook's priorities.
    pub scheduler: SchedulerKind,
    /// Maximum pending states (live set) before giving up.
    pub max_live_states: usize,
    /// Modeled memory budget in bytes across live states and the solver
    /// cache. Exceeding it reproduces the paper's KLEE out-of-memory
    /// failures (Table IV).
    pub memory_budget: usize,
    /// Wall-clock budget, checked at each scheduling decision and every
    /// 8 192 steps.
    pub time_budget: Option<Duration>,
    /// Step cap: a run retires at most this many instructions. A run
    /// that finishes all its work within the cap is
    /// [`RunOutcome::Completed`]; one cut at the cap with a state in
    /// flight is exhausted ([`ExhaustionReason::Steps`]).
    pub max_steps: u64,
    /// Limits for the underlying constraint solver.
    pub solver: SolverConfig,
    /// Emit per-state lineage events (fork/suspend/resume/terminal
    /// dispositions with differential work attribution) into the
    /// attached recorder. Off by default: lineage traces narrate every
    /// state transition and grow with the exploration tree, not with
    /// the phase structure.
    pub lineage: bool,
    /// Retired: nothing reads it, and the run-manifest config
    /// fingerprint zeroes it. It is kept only because the e2ebench
    /// workload table (`e2ebench/src/workloads.rs`) still assigns it,
    /// and will be deleted together with that assignment in the next
    /// change to the benchmark.
    pub state_workers: usize,
    /// Emit source-level cost attribution (`attr.<func>:<line>.<dim>`
    /// counters): every step, fork, suspension, solver query, solver
    /// search node, and (wall-clock traces) solver µs is billed to the
    /// MiniC source line that caused it; and stamp solver queries with
    /// provenance (`query` events carrying the originating state id,
    /// source location, candidate rank, and cache disposition). Off by
    /// default: the hooks add per-step bookkeeping, the counter section
    /// grows with program size, and query events are the
    /// highest-frequency event family.
    pub attribution: bool,
    /// Statistical candidate rank carried on provenance `query` events
    /// (1-based; `0` when the run is not a ranked candidate).
    pub candidate_rank: u32,
    /// Chaos knob: deliberately panic once the executed step count
    /// reaches this threshold. Exercises the crash-capture path (panic
    /// hook bundles, stream end-frame-on-drop) end to end; `None` (the
    /// default) never fires. Checked at every scheduling decision.
    pub panic_after: Option<u64>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            scheduler: SchedulerKind::Bfs,
            max_live_states: 500_000,
            memory_budget: 512 << 20,
            time_budget: None,
            max_steps: 200_000_000,
            solver: SolverConfig::default(),
            lineage: false,
            state_workers: 0,
            attribution: false,
            candidate_rank: 0,
            panic_after: None,
        }
    }
}

/// Why an exploration stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustionReason {
    /// Modeled memory budget exceeded (the paper's KLEE failure mode).
    Memory,
    /// Wall-clock budget exceeded.
    Time,
    /// Step cap reached with work left.
    Steps,
    /// Live-state cap exceeded.
    LiveStates,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustionReason::Memory => f.write_str("out of memory"),
            ExhaustionReason::Time => f.write_str("timeout"),
            ExhaustionReason::Steps => f.write_str("step budget exhausted"),
            ExhaustionReason::LiveStates => f.write_str("too many live states"),
        }
    }
}

/// A discovered vulnerable path: the paper's final output (§V-C) — the
/// complete execution path, its constraints, and a concrete triggering
/// input.
#[derive(Debug, Clone)]
pub struct FoundVulnerability {
    /// The fault (kind + fault point).
    pub fault: Fault,
    /// The function-boundary event trace of the vulnerable path.
    pub trace: Vec<Location>,
    /// Hard path constraints of the vulnerable path.
    pub constraints: Vec<Constraint>,
    /// Human-readable rendering of `constraints`.
    pub rendered_constraints: Vec<String>,
    /// A concrete input assignment that drives the program down this
    /// path (generated from the solver model; replayable on the VM).
    pub inputs: concrete::InputMap,
    /// Fork depth of the faulting state.
    pub depth: u32,
}

/// How a run ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// A vulnerable path was found.
    Found(Box<FoundVulnerability>),
    /// A run limit tripped first.
    Exhausted(ExhaustionReason),
    /// Every path was explored without finding a fault.
    Completed,
}

impl RunOutcome {
    /// The discovered vulnerability, if any.
    pub fn found(&self) -> Option<&FoundVulnerability> {
        match self {
            RunOutcome::Found(f) => Some(f),
            _ => None,
        }
    }

    /// True when a vulnerable path was found.
    pub fn is_found(&self) -> bool {
        matches!(self, RunOutcome::Found(_))
    }
}

/// Work counters for a whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Executor counters (steps, forks, pruning, ...).
    pub exec: ExecStats,
    /// Paths that terminated normally.
    pub paths_completed: u64,
    /// Total paths examined: completed + pruned + faulting + states
    /// still pending or suspended when the run stopped.
    pub paths_explored: u64,
    /// Total states ever created.
    pub states_created: u64,
    /// Peak modeled memory (bytes).
    pub peak_memory: usize,
    /// Peak live state count.
    pub peak_live_states: usize,
    /// Solver counters.
    pub solver: SolverStats,
    /// States suspended by guidance and never resumed.
    pub left_suspended: u64,
}

/// Report of one engine run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Work counters.
    pub stats: EngineStats,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
}

/// The symbolic execution engine over a SIR module.
pub struct Engine<'m> {
    module: &'m Module,
    config: EngineConfig,
    ctx: TermCtx,
    solver: Solver,
    hook: Box<dyn EventHook + 'm>,
    pinned: concrete::InputMap,
    suppressed: Vec<(String, minic::Span)>,
    rec: &'m dyn Recorder,
}

impl<'m> Engine<'m> {
    /// Creates a pure (unguided) engine — the KLEE baseline.
    pub fn new(module: &'m Module, config: EngineConfig) -> Engine<'m> {
        Engine::with_hook(module, config, Box::new(NoGuidance))
    }

    /// Creates an engine guided by `hook` (the StatSym mode).
    pub fn with_hook(
        module: &'m Module,
        config: EngineConfig,
        hook: Box<dyn EventHook + 'm>,
    ) -> Engine<'m> {
        Engine {
            module,
            config,
            ctx: TermCtx::new(),
            solver: Solver::with_config(config.solver),
            hook,
            pinned: concrete::InputMap::new(),
            suppressed: Vec::new(),
            rec: &NOOP,
        }
    }

    /// Injects a shared solver verdict cache (see `solver::cache`):
    /// definitive Sat/Unsat verdicts cross engine boundaries while
    /// models stay local, keeping exploration identical to an unshared
    /// run.
    pub fn set_shared_cache(&mut self, cache: Rc<dyn QueryCache>) {
        self.solver.set_query_cache(cache);
    }

    /// Attaches a telemetry recorder. The engine wraps each run in an
    /// `engine.run` span, streams state-lifecycle counters (fork,
    /// suspend-on-τ, suspend-on-predicate-conflict, resume, kill,
    /// scheduler picks) and the hop-divergence histogram, advances the
    /// deterministic trace clock by its step count, and emits its
    /// [`EngineStats`] as counter deltas when the run ends.
    pub fn set_recorder(&mut self, rec: &'m dyn Recorder) {
        self.rec = rec;
    }

    /// Suppresses faults at a known fault site (function + span): states
    /// reaching it terminate as ordinary completed paths instead of
    /// stopping the search. This enables the paper's §III-C iterative
    /// discovery of multiple vulnerabilities — each found vulnerable
    /// path is eliminated and exploration continues for the next.
    pub fn suppress_fault_site(&mut self, func: impl Into<String>, span: minic::Span) {
        self.suppressed.push((func.into(), span));
    }

    /// Pins a named input to a concrete value: the engine treats it as a
    /// constant instead of a symbolic variable. This mirrors the paper's
    /// methodology (§VII-A): semantically required program options are
    /// configured concretely for both StatSym and the KLEE baseline so
    /// neither wastes time enumerating option-parsing paths.
    pub fn pin_input(&mut self, name: impl Into<String>, value: concrete::InputValue) {
        self.pinned.insert(name.into(), value);
    }

    /// The term context (for rendering constraints after a run).
    pub fn ctx(&self) -> &TermCtx {
        &self.ctx
    }

    /// Explores the program until a fault is found or a run limit trips.
    ///
    /// The one scheduling loop: pop the next state from the scheduler,
    /// step it until it forks, terminates or is suspended by guidance,
    /// and settle each of its successors (`Frontier::settle`). When
    /// only suspended states remain they are resumed with guidance off,
    /// so the worst case degrades to pure symbolic execution.
    pub fn run(&mut self) -> EngineReport {
        let start = Instant::now();
        let config = self.config;
        let rec = self.rec;
        let run_span = rec.span_open(names::ENGINE_RUN);
        let solver_before = self.solver.stats();
        // Lineage deltas are charged from this run's start, not from the
        // solver's birth (the solver may be reused across runs).
        let mut lineage = Lineage::new(
            config.lineage && rec.enabled(),
            WorkSnapshot {
                steps: 0,
                solver_nodes: solver_before.nodes,
                solver_us: solver_before.query_us,
            },
        );
        let mut last_tick: u64 = 0;
        // Source-level cost attribution and solver-query provenance: a
        // trace feature, so without a recorder the brackets run bare.
        let mut attr = StepAttr::new(config.attribution && rec.enabled());
        if config.attribution && rec.enabled() {
            self.solver.set_provenance(config.candidate_rank);
        }
        let mut stats = EngineStats::default();
        let mut inputs_map: HashMap<InputId, SymValue> = HashMap::new();
        for (i, def) in self.module.inputs.iter().enumerate() {
            if let Some(v) = self.pinned.get(&def.name) {
                let sym = match (v, def.kind) {
                    (InputValue::Int(n), sir::InputKind::Int) => SymValue::Int(self.ctx.int(*n)),
                    (InputValue::Str(bytes), sir::InputKind::Str { cap }) => {
                        let mut b = bytes.clone();
                        b.truncate(cap as usize);
                        SymValue::Str(crate::value::SymStr::concrete(&mut self.ctx, &b))
                    }
                    // Kind mismatch: leave the input symbolic.
                    _ => continue,
                };
                inputs_map.insert(InputId(i as u32), sym);
            }
        }
        let mut next_id: u64 = 0;
        let locs = func_locations(self.module);
        let mut front = Frontier::new(config.scheduler, self.suppressed.clone());

        let module = self.module;
        let time_up = || config.time_budget.is_some_and(|tb| start.elapsed() > tb);

        let end = {
            let mut env = ExecEnv {
                module,
                ctx: &mut self.ctx,
                solver: &mut self.solver,
                inputs: &mut inputs_map,
                hook: self.hook.as_mut(),
                stats: &mut stats.exec,
                rec,
                next_state_id: &mut next_id,
                lineage: &mut lineage,
                locs: &locs,
            };

            let root = initial_state(&mut env);
            front.queue(&env, root);

            'outer: loop {
                tick(rec, &mut last_tick, env.stats.steps);
                if let Some(threshold) = config.panic_after {
                    if env.stats.steps >= threshold {
                        panic!(
                            "chaos: forced engine panic after {} steps (panic_after={threshold})",
                            env.stats.steps
                        );
                    }
                }
                if time_up() {
                    break LoopEnd::Exhausted(ExhaustionReason::Time);
                }
                front.note_peaks(&env);
                if front.live_mem + env.solver.cache_len() * 160 > config.memory_budget {
                    break LoopEnd::Exhausted(ExhaustionReason::Memory);
                }
                if front.sched.len() + front.suspended.len() > config.max_live_states {
                    break LoopEnd::Exhausted(ExhaustionReason::LiveStates);
                }

                let Some(mut state) = front.pop(&env) else {
                    if front.suspended.is_empty() {
                        break LoopEnd::Completed;
                    }
                    front.resume_all(&mut env);
                    continue;
                };
                rec.counter_add(names::SYMEX_SCHED_PICKS, 1);

                // Run this state until it forks, terminates, or parks:
                // a block per driver call, or one instruction when
                // attribution bills each one to its source line. Its id
                // is the lineage fork parent for any fresh successors; a
                // successor that keeps this id stays the same tree node.
                let parent = state.id;
                let popped_at = env.stats.steps;
                let successors = loop {
                    let steps = env.stats.steps;
                    let checkpoint = steps.is_multiple_of(CHECKPOINT);
                    if checkpoint {
                        tick(rec, &mut last_tick, steps);
                    }
                    let cut = if checkpoint && time_up() {
                        Some(ExhaustionReason::Time)
                    } else {
                        (steps >= config.max_steps).then_some(ExhaustionReason::Steps)
                    };
                    if let Some(reason) = cut {
                        // A cap ends the run with this state in flight.
                        tick(rec, &mut last_tick, steps);
                        env.lineage_event(lineage_op::BUDGET_EXCEEDED, &state, None);
                        rec.counter_add(names::BUDGET_EXCEEDED, 1);
                        break 'outer LoopEnd::Cut(reason);
                    }
                    let limit = if attr.on() {
                        steps + 1
                    } else {
                        config.max_steps.min((steps / CHECKPOINT + 1) * CHECKPOINT)
                    };
                    let f = state.mach.frame();
                    let block = (f.func.0, f.block.0);
                    let ran = attr.bracket(&mut env, &mut state, None, |env, s| {
                        interp::run_block(env, module, s, limit)
                    });
                    // Coverage search counts the block of every step but
                    // the popped state's first.
                    if env.stats.steps > popped_at + 1 {
                        front.cover(block);
                    }
                    if let Break(successors) = ran {
                        break successors;
                    }
                };
                // The popped state was consumed; its successors are
                // accounted individually.
                front.in_flight = None;
                for succ in successors {
                    if let Break(end) = front.settle(&mut env, &mut attr, succ, parent) {
                        break 'outer end;
                    }
                }
            }
        };

        stats.states_created = next_id + 1;
        stats.paths_completed = front.paths_completed;
        stats.peak_memory = front.peak_memory;
        stats.peak_live_states = front.peak_live_states;
        let pending = front.sched.len() as u64;
        let parked = front.suspended.len() as u64 + front.unconfirmed;
        stats.left_suspended = parked;
        stats.paths_explored = stats.paths_completed + stats.exec.pruned + pending + parked;
        let outcome = match end {
            LoopEnd::Found(state, fault, model) => {
                stats.paths_explored += 1;
                RunOutcome::Found(Box::new(self.report(*state, fault, model, &inputs_map)))
            }
            LoopEnd::Cut(r) => {
                stats.paths_explored += 1;
                RunOutcome::Exhausted(r)
            }
            LoopEnd::Exhausted(r) => RunOutcome::Exhausted(r),
            LoopEnd::Completed => RunOutcome::Completed,
        };
        stats.solver = self.solver.stats();

        rec.tick(stats.exec.steps.saturating_sub(last_tick));
        attr.flush(self.module, rec);
        record_run_telemetry(rec, &stats, &solver_before, &outcome);
        rec.span_close(run_span);

        EngineReport {
            outcome,
            stats,
            wall_time: start.elapsed(),
        }
    }

    /// Builds the final vulnerable-path report from the triggering model
    /// the run loop confirmed at the fault site.
    fn report(
        &mut self,
        state: State,
        fault: Fault,
        model: solver::Model,
        inputs_map: &HashMap<InputId, SymValue>,
    ) -> FoundVulnerability {
        let constraints = state.cond.hard().conjuncts();
        let mut inputs = concrete::InputMap::new();
        for (i, def) in self.module.inputs.iter().enumerate() {
            let id = InputId(i as u32);
            let value = match inputs_map.get(&id) {
                Some(SymValue::Int(t)) => {
                    InputValue::Int(model.value_of(*t, &self.ctx).unwrap_or(0))
                }
                Some(SymValue::Str(s)) => {
                    let mut bytes = Vec::new();
                    for &cell in s.bytes.iter() {
                        let b = model.value_of(cell, &self.ctx).unwrap_or(0);
                        if b == 0 {
                            break;
                        }
                        bytes.push(b as u8);
                    }
                    InputValue::Str(bytes)
                }
                // Input never read on this path: provide a benign default.
                _ => match def.kind {
                    sir::InputKind::Int => InputValue::Int(0),
                    sir::InputKind::Str { .. } => InputValue::Str(Vec::new()),
                },
            };
            inputs.insert(def.name.clone(), value);
        }
        let rendered_constraints = constraints
            .iter()
            .map(|c| self.ctx.render_constraint(c))
            .collect();
        FoundVulnerability {
            fault,
            trace: state.trace.to_vec(),
            constraints,
            rendered_constraints,
            inputs,
            depth: state.depth,
        }
    }
}

/// How the scheduling loop ended.
enum LoopEnd {
    Found(Box<State>, Fault, solver::Model),
    /// A cap tripped with a state in flight; that state counts as
    /// pending.
    Cut(ExhaustionReason),
    /// A limit tripped between states.
    Exhausted(ExhaustionReason),
    Completed,
}

/// Step-clock checkpoint cadence: the clock advances and the wall-clock
/// budget is checked every this many steps within a state's run.
const CHECKPOINT: u64 = 8192;

/// Advances the step clock to `now` executed instructions.
fn tick(rec: &dyn Recorder, last: &mut u64, now: u64) {
    rec.tick(now - *last);
    *last = now;
}

/// The run's states between steps — queued, parked and in flight — and
/// the accounting that follows them.
struct Frontier {
    sched: Box<dyn Scheduler>,
    suspended: Vec<State>,
    /// Modeled bytes of every queued or parked state: the sum of their
    /// [`State::charged`].
    live_mem: usize,
    /// Modeled bytes of the state popped and executing, or of a faulting
    /// state awaiting its report: it is live too, so peak accounting
    /// must include it.
    in_flight: Option<usize>,
    peak_memory: usize,
    peak_live_states: usize,
    paths_completed: u64,
    /// Faulting paths whose triggering model the solver could not
    /// produce within budget. Reported as suspended work, never as
    /// found vulnerabilities: a Found with fabricated inputs would not
    /// replay concretely.
    unconfirmed: u64,
    /// Coverage-optimized search only: blocks ever executed by any
    /// state.
    covered: Option<HashSet<(u32, u32)>>,
    suppressed: Vec<(String, minic::Span)>,
}

impl Frontier {
    fn new(kind: SchedulerKind, suppressed: Vec<(String, minic::Span)>) -> Frontier {
        Frontier {
            sched: build_scheduler(kind),
            suspended: Vec::new(),
            live_mem: 0,
            in_flight: None,
            peak_memory: 0,
            peak_live_states: 0,
            paths_completed: 0,
            unconfirmed: 0,
            covered: matches!(kind, SchedulerKind::Coverage).then(HashSet::new),
            suppressed,
        }
    }

    /// Peaks are updated at *every* state-set mutation (push, pop, fork,
    /// suspend, resume) — not just at loop checkpoints — so a fork burst
    /// right before the run ends is still counted.
    fn note_peaks(&mut self, env: &ExecEnv<'_>) {
        let in_flight = self.in_flight.unwrap_or(0);
        let total_mem = self.live_mem + in_flight + env.solver.cache_len() * 160;
        self.peak_memory = self.peak_memory.max(total_mem);
        let live = self.sched.len() + self.suspended.len() + usize::from(self.in_flight.is_some());
        self.peak_live_states = self.peak_live_states.max(live);
    }

    /// Charges a queued or parked state's modeled bytes, and records
    /// them on the state so they can be returned when it is popped.
    fn admit(&mut self, state: &mut State) {
        state.charged = state.est_bytes();
        self.live_mem += state.charged;
    }

    fn queue(&mut self, env: &ExecEnv<'_>, mut state: State) {
        let pr = match &self.covered {
            Some(covered) => {
                let f = state.mach.frame();
                if covered.contains(&(f.func.0, f.block.0)) {
                    1_000_000 + state.depth as i64
                } else {
                    state.depth as i64
                }
            }
            None => env.hook.priority(&state.meta, state.depth),
        };
        self.admit(&mut state);
        self.sched.push(state, pr);
        self.note_peaks(env);
    }

    /// Pops the next state to run; it is in flight until it is settled.
    fn pop(&mut self, env: &ExecEnv<'_>) -> Option<State> {
        let state = self.sched.pop()?;
        self.live_mem -= state.charged;
        self.in_flight = Some(state.charged);
        self.note_peaks(env);
        Some(state)
    }

    /// Records a block some state executed in (coverage search).
    fn cover(&mut self, block: (u32, u32)) {
        if let Some(covered) = &mut self.covered {
            covered.insert(block);
        }
    }

    /// Resumes every suspended state with guidance disabled: the worst
    /// case degrades to pure symbolic execution.
    fn resume_all(&mut self, env: &mut ExecEnv<'_>) {
        let resumed = self.suspended.len() as u64;
        for mut s in self.suspended.drain(..) {
            env.lineage_event(lineage_op::RESUME, &s, None);
            s.guidance_off = true;
            s.cond = s.cond.without_soft();
            self.sched.push(s, i64::MAX);
        }
        env.rec.counter_add(names::SYMEX_RESUME, resumed);
        self.note_peaks(env);
    }

    /// Settles one successor of a step: the one place a state's fate is
    /// acted on and narrated. A fresh id (one that is not the stepped
    /// state's `parent` id) first gets its `fork` lineage event; then
    /// the state is queued with its priority, parked (its
    /// `symex.suspend.<cause>` counter, hop-divergence observation and
    /// `suspend.<cause>` event), dropped (`symex.kill` and `kill`),
    /// counted as a completed path (`exit`), or its fault's model is
    /// confirmed. A fault at a suppressed site is an ordinary exit.
    /// `Break` ends the run with the confirmed fault.
    fn settle(
        &mut self,
        env: &mut ExecEnv<'_>,
        attr: &mut StepAttr,
        (mut state, mut fate): Successor,
        parent: u64,
    ) -> ControlFlow<LoopEnd> {
        if state.id != parent {
            env.lineage_event(lineage_op::FORK, &state, Some(parent));
        }
        if let Fate::Fault(fault) = &fate {
            if self
                .suppressed
                .iter()
                .any(|(func, span)| *func == fault.func && *span == fault.span)
            {
                fate = Fate::Exit;
            }
        }
        match fate {
            Fate::Active => self.queue(env, state),
            Fate::Suspended(cause) => {
                let (counter, op) = cause.names();
                env.rec.counter_add(counter, 1);
                env.rec
                    .observe(names::SYMEX_HOP_DIVERGENCE, state.meta.hops as u64);
                env.lineage_event(op, &state, None);
                self.admit(&mut state);
                self.suspended.push(state);
                self.note_peaks(env);
            }
            Fate::Killed => {
                env.rec.counter_add(names::SYMEX_KILL, 1);
                env.lineage_event(lineage_op::KILL, &state, None);
            }
            Fate::Exit => {
                env.lineage_event(lineage_op::EXIT, &state, None);
                self.paths_completed += 1;
            }
            Fate::Fault(fault) => {
                // The faulting state is live until the report is built.
                self.in_flight = Some(state.est_bytes());
                self.note_peaks(env);
                // Solve the path for a triggering model *before*
                // committing to a Found outcome, billed to (and stamped
                // with) the faulting statement's source line. No model
                // (the solver budget ran out, or vacuously the path is
                // infeasible) means the fault cannot be confirmed and
                // must not be reported with made-up inputs.
                let confirmed = attr.bracket(env, &mut state, Some(fault.span.line), |env, s| {
                    env.solver
                        .check_at(env.ctx, s.cond.hard(), env.rec, "report_model")
                });
                let SatResult::Sat(model) = confirmed else {
                    env.lineage_event(lineage_op::UNCONFIRMED, &state, None);
                    self.in_flight = None;
                    self.unconfirmed += 1;
                    env.rec.counter_add(names::SYMEX_UNCONFIRMED, 1);
                    return Continue(());
                };
                env.lineage_event(lineage_op::FAULT, &state, None);
                return Break(LoopEnd::Found(Box::new(state), fault, model));
            }
        }
        Continue(())
    }
}

/// Stable string label for a run outcome, as emitted in the
/// `engine.outcome` trace event.
pub fn outcome_label(outcome: &RunOutcome) -> &'static str {
    match outcome {
        RunOutcome::Found(_) => "found",
        RunOutcome::Completed => "completed",
        RunOutcome::Exhausted(ExhaustionReason::Steps) => "exhausted_steps",
        RunOutcome::Exhausted(ExhaustionReason::Time) => "exhausted_time",
        RunOutcome::Exhausted(ExhaustionReason::Memory) => "exhausted_memory",
        RunOutcome::Exhausted(ExhaustionReason::LiveStates) => "exhausted_live_states",
    }
}

/// Mirrors one finished run's [`EngineStats`] into recorder counters and
/// emits the `engine.outcome` event, so a trace file reconciles exactly
/// with the printed report. Counters accumulate across candidate attempts
/// sharing one recorder.
///
/// `solver_before` is the solver's stats snapshot taken before the run:
/// solver counters are emitted as deltas so a solver reused across runs
/// is not double-counted. Pass `SolverStats::default()` for a fresh
/// solver.
///
/// This is called by [`Engine::run`] itself.
pub fn record_run_telemetry(
    rec: &dyn Recorder,
    stats: &EngineStats,
    solver_before: &SolverStats,
    outcome: &RunOutcome,
) {
    if !rec.enabled() {
        return;
    }
    rec.counter_add(names::SYMEX_STEPS, stats.exec.steps);
    rec.counter_add(names::SYMEX_FORKS, stats.exec.forks);
    rec.counter_add(names::SYMEX_PRUNED, stats.exec.pruned);
    rec.counter_add(names::SYMEX_SUSPENDED, stats.exec.suspended);
    rec.counter_add(names::SYMEX_CONCRETIZATIONS, stats.exec.concretizations);
    rec.counter_add(names::SYMEX_STRLEN_FORKS, stats.exec.strlen_forks);
    rec.counter_add(names::SYMEX_PATHS_COMPLETED, stats.paths_completed);
    rec.counter_add(names::SYMEX_PATHS_EXPLORED, stats.paths_explored);
    rec.counter_add(names::SYMEX_STATES_CREATED, stats.states_created);
    rec.counter_add(names::SYMEX_LEFT_SUSPENDED, stats.left_suspended);
    rec.gauge_max(names::SYMEX_PEAK_LIVE_STATES, stats.peak_live_states as i64);
    rec.gauge_max(names::SYMEX_PEAK_MEMORY, stats.peak_memory as i64);
    let sv = &stats.solver;
    rec.counter_add(names::SOLVER_QUERIES, sv.queries - solver_before.queries);
    rec.counter_add(names::SOLVER_SAT, sv.sat - solver_before.sat);
    rec.counter_add(names::SOLVER_UNSAT, sv.unsat - solver_before.unsat);
    rec.counter_add(names::SOLVER_UNKNOWN, sv.unknown - solver_before.unknown);
    rec.counter_add(
        names::SOLVER_CACHE_HITS,
        sv.cache_hits - solver_before.cache_hits,
    );
    rec.counter_add(
        names::SOLVER_SHARED_HITS,
        sv.shared_hits - solver_before.shared_hits,
    );
    rec.counter_add(
        names::SOLVER_SHARED_MISSES,
        sv.shared_misses - solver_before.shared_misses,
    );
    rec.counter_add(names::SOLVER_NODES, sv.nodes - solver_before.nodes);
    rec.counter_add(
        names::SOLVER_PROPAGATION_ROUNDS,
        sv.propagation_rounds - solver_before.propagation_rounds,
    );
    rec.counter_add(
        names::SOLVER_BACKTRACKS,
        sv.backtracks - solver_before.backtracks,
    );
    // Independence-slicing counters follow the zero-vs-absent
    // convention: emitted only when some query of the run actually
    // split, so runs whose queries are all single-component carry no
    // `solver.indep.*` lines. The gate is per *family*, not per counter:
    // once any query splits, all of its counters are emitted — zeros
    // included — so a legitimate zero (e.g. no component hits despite
    // sliced queries) reads as `0` in `inspect diff`, not as a schema
    // change.
    let indep = [
        (
            names::SOLVER_INDEP_QUERIES,
            sv.indep_queries.saturating_sub(solver_before.indep_queries),
        ),
        (
            names::SOLVER_INDEP_COMPONENTS,
            sv.indep_components
                .saturating_sub(solver_before.indep_components),
        ),
        (
            names::SOLVER_INDEP_COMP_HITS,
            sv.indep_comp_hits
                .saturating_sub(solver_before.indep_comp_hits),
        ),
    ];
    if sv.indep_queries > solver_before.indep_queries {
        for (name, delta) in indep {
            rec.counter_add(name, delta);
        }
    }
    rec.event(
        names::ENGINE_OUTCOME,
        &[
            ("outcome", FieldValue::from(outcome_label(outcome))),
            ("steps", FieldValue::from(stats.exec.steps)),
            ("paths_explored", FieldValue::from(stats.paths_explored)),
            ("forks", FieldValue::from(stats.exec.forks)),
            (
                "solver_queries",
                FieldValue::from(sv.queries - solver_before.queries),
            ),
            (
                "solver_nodes",
                FieldValue::from(sv.nodes - solver_before.nodes),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{FaultKind, Vm, VmConfig};
    use statsym_telemetry::render_trace;

    fn engine_run(src: &str, config: EngineConfig) -> (EngineReport, sir::Module) {
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        let report = {
            let mut eng = Engine::new(&m, config);
            eng.run()
        };
        (report, m)
    }

    #[test]
    fn concrete_program_completes_without_fault() {
        let (r, _) = engine_run(
            "fn main() -> int { let i: int = 0; while (i < 10) { i = i + 1; } return i; }",
            EngineConfig::default(),
        );
        assert!(matches!(r.outcome, RunOutcome::Completed));
        assert_eq!(r.stats.paths_completed, 1);
    }

    #[test]
    fn finds_assert_violation_and_model_replays() {
        let src = r#"
            fn main() {
                let n: int = input_int("n");
                if (n > 100) { assert(n < 150); }
            }
        "#;
        let (r, m) = engine_run(src, EngineConfig::default());
        let found = r.outcome.found().expect("fault expected");
        assert_eq!(found.fault.kind, FaultKind::AssertFailed);
        // The generated input must actually crash the concrete VM.
        let vm = Vm::new(&m, VmConfig::default());
        let replay = vm.run(&found.inputs).unwrap();
        assert!(replay.outcome.is_fault(), "model input must reproduce");
        let n = match found.inputs.get("n") {
            Some(InputValue::Int(v)) => *v,
            other => panic!("unexpected input {other:?}"),
        };
        assert!(n >= 150, "constraint n >= 150 required, got {n}");
    }

    #[test]
    fn finds_string_driven_buffer_overflow() {
        // The polymorph pattern in miniature: copy a symbolic string into
        // a fixed 4-byte buffer without a bounds check.
        let src = r#"
            fn copy(s: str) {
                let b: buf[4];
                let i: int = 0;
                while (char_at(s, i) != 0) {
                    buf_set(b, i, char_at(s, i));
                    i = i + 1;
                }
            }
            fn main() {
                let s: str = input_str("arg", 8);
                copy(s);
            }
        "#;
        let (r, m) = engine_run(src, EngineConfig::default());
        let found = r.outcome.found().expect("overflow expected");
        assert!(matches!(
            found.fault.kind,
            FaultKind::BufferOverflow { cap: 4, .. }
        ));
        assert_eq!(found.fault.func, "copy");
        // Trace passes through copy():enter and never leaves it.
        assert!(found.trace.contains(&Location::enter("copy")));
        assert!(!found.trace.contains(&Location::leave("copy")));
        // Replay.
        let vm = Vm::new(&m, VmConfig::default());
        let replay = vm.run(&found.inputs).unwrap();
        let fault = replay.outcome.fault().expect("replay faults");
        assert!(matches!(fault.kind, FaultKind::BufferOverflow { .. }));
        // The triggering string must have at least 5 bytes.
        match found.inputs.get("arg") {
            Some(InputValue::Str(bytes)) => assert!(bytes.len() >= 5, "len {}", bytes.len()),
            other => panic!("unexpected input {other:?}"),
        }
    }

    #[test]
    fn infeasible_fault_is_not_reported() {
        let src = r#"
            fn main() {
                let n: int = input_int("n");
                if (n > 10) {
                    if (n < 5) { assert(false); } // unreachable
                }
            }
        "#;
        let (r, _) = engine_run(src, EngineConfig::default());
        assert!(matches!(r.outcome, RunOutcome::Completed));
        assert!(r.stats.exec.pruned > 0);
    }

    #[test]
    fn memory_budget_exhaustion() {
        // Exponential forking over 24 independent symbolic branches with
        // a tiny modeled memory budget must exhaust memory (the paper's
        // pure-KLEE failure mode).
        let src = r#"
            fn main() -> int {
                let s: str = input_str("x", 24);
                let acc: int = 0;
                let i: int = 0;
                while (i < 24) {
                    if (char_at(s, i) > 64) { acc = acc + 1; } else { acc = acc + 2; }
                    i = i + 1;
                }
                return acc;
            }
        "#;
        let cfg = EngineConfig {
            memory_budget: 200_000,
            ..EngineConfig::default()
        };
        let (r, _) = engine_run(src, cfg);
        assert!(
            matches!(r.outcome, RunOutcome::Exhausted(ExhaustionReason::Memory)),
            "got {:?}",
            r.outcome
        );
        assert!(r.stats.peak_memory >= 200_000);
    }

    #[test]
    fn dfs_reaches_deep_fault_quickly() {
        // DFS following the loop-continuation branch reaches the overflow
        // at depth 16 without enumerating shallow exits first.
        let src = r#"
            fn main() {
                let s: str = input_str("a", 32);
                let b: buf[16];
                let i: int = 0;
                while (char_at(s, i) != 0) {
                    buf_set(b, i, 1);
                    i = i + 1;
                }
            }
        "#;
        let bfs = engine_run(src, EngineConfig::default()).0;
        let dfs = engine_run(
            src,
            EngineConfig {
                scheduler: SchedulerKind::Dfs,
                ..EngineConfig::default()
            },
        )
        .0;
        assert!(bfs.outcome.is_found());
        assert!(dfs.outcome.is_found());
        assert!(
            dfs.stats.peak_live_states <= bfs.stats.peak_live_states,
            "dfs {} vs bfs {}",
            dfs.stats.peak_live_states,
            bfs.stats.peak_live_states
        );
    }

    #[test]
    fn random_scheduler_is_deterministic() {
        let src = r#"
            fn main() {
                let s: str = input_str("a", 8);
                let b: buf[4];
                let i: int = 0;
                while (char_at(s, i) != 0) { buf_set(b, i, 1); i = i + 1; }
            }
        "#;
        let cfg = EngineConfig {
            scheduler: SchedulerKind::Random { seed: 11 },
            ..EngineConfig::default()
        };
        let a = engine_run(src, cfg).0;
        let b = engine_run(src, cfg).0;
        assert_eq!(a.stats.exec.steps, b.stats.exec.steps);
        assert_eq!(a.stats.paths_explored, b.stats.paths_explored);
    }

    #[test]
    fn strlen_on_symbolic_string_forks_per_length() {
        let src = r#"
            fn main() -> int {
                let s: str = input_str("x", 3);
                return len(s);
            }
        "#;
        let (r, _) = engine_run(src, EngineConfig::default());
        assert!(matches!(r.outcome, RunOutcome::Completed));
        // Lengths 0, 1, 2, 3 are all feasible -> 4 completed paths.
        assert_eq!(r.stats.paths_completed, 4);
        assert_eq!(r.stats.exec.strlen_forks, 1);
    }

    #[test]
    fn div_by_symbolic_zero_forks_fault() {
        let src = r#"
            fn main() -> int {
                let d: int = input_int("d");
                return 100 / d;
            }
        "#;
        let (r, m) = engine_run(src, EngineConfig::default());
        let found = r.outcome.found().expect("div fault");
        assert_eq!(found.fault.kind, FaultKind::DivByZero);
        let vm = Vm::new(&m, VmConfig::default());
        let replay = vm.run(&found.inputs).unwrap();
        assert_eq!(replay.outcome.fault().unwrap().kind, FaultKind::DivByZero);
    }

    // Shared driver for the run-limit tests: records a step-clock
    // lineage trace of a run under `config` and returns (report, trace
    // events).
    fn limited_run(
        src: &str,
        config: EngineConfig,
    ) -> (EngineReport, Vec<statsym_telemetry::TraceEvent>) {
        use statsym_telemetry::{Clock, MemRecorder};
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        let rec = MemRecorder::new(Clock::steps());
        let report = {
            let mut eng = Engine::new(
                &m,
                EngineConfig {
                    lineage: true,
                    ..config
                },
            );
            eng.set_recorder(&rec);
            eng.run()
        };
        (report, rec.finish())
    }

    fn capped(max_steps: u64) -> EngineConfig {
        EngineConfig {
            max_steps,
            ..EngineConfig::default()
        }
    }

    const LONG_LOOP: &str = "fn main() { let i: int = 0; while (i < 100000) { i = i + 1; } }";

    #[test]
    fn step_cap_cuts_the_state_in_flight_with_full_telemetry() {
        use statsym_telemetry::TraceEvent;
        let (r, events) = limited_run(LONG_LOOP, capped(100));
        assert!(matches!(
            r.outcome,
            RunOutcome::Exhausted(ExhaustionReason::Steps)
        ));
        assert_eq!(outcome_label(&r.outcome), "exhausted_steps");
        // The cap is exact, and the cut state counts as pending.
        assert_eq!(r.stats.exec.steps, 100);
        assert_eq!(r.stats.paths_explored, 1);
        // The in-flight state carries the terminal disposition.
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::State { op, .. } if op == lineage_op::BUDGET_EXCEEDED
            )),
            "lineage budget_exceeded disposition expected"
        );
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Counter { name, value: 1 } if name == names::BUDGET_EXCEEDED
        )));
    }

    #[test]
    fn live_state_cap_trips_on_fork_heavy_program() {
        let src = r#"
            fn main() -> int {
                let s: str = input_str("s", 6);
                let t: str = input_str("t", 6);
                return len(s) + len(t);
            }
        "#;
        let cfg = EngineConfig {
            max_live_states: 4,
            ..EngineConfig::default()
        };
        let (r, events) = limited_run(src, cfg);
        assert!(matches!(
            r.outcome,
            RunOutcome::Exhausted(ExhaustionReason::LiveStates)
        ));
        assert_eq!(outcome_label(&r.outcome), "exhausted_live_states");
        assert!(r.stats.peak_live_states > 4);
        // The cap trips between states: no state is cut.
        assert!(!render_trace(&events).contains("budget"));
    }

    #[test]
    fn step_capped_runs_are_deterministic() {
        let (r1, ev1) = limited_run(LONG_LOOP, capped(1000));
        let (r2, ev2) = limited_run(LONG_LOOP, capped(1000));
        assert!(matches!(
            r1.outcome,
            RunOutcome::Exhausted(ExhaustionReason::Steps)
        ));
        assert_eq!(r1.stats.exec.steps, 1000);
        assert_eq!(r1.stats.exec.steps, r2.stats.exec.steps);
        assert_eq!(render_trace(&ev1), render_trace(&ev2));
    }

    #[test]
    fn runs_within_the_step_cap_emit_no_budget_telemetry() {
        let (full, events) = limited_run(LONG_LOOP, EngineConfig::default());
        assert!(matches!(full.outcome, RunOutcome::Completed));
        assert!(!render_trace(&events).contains("budget"));
        // A run that finishes its work exactly at the cap completes.
        let (r, events) = limited_run(LONG_LOOP, capped(full.stats.exec.steps));
        assert!(matches!(r.outcome, RunOutcome::Completed));
        assert_eq!(r.stats.exec.steps, full.stats.exec.steps);
        assert!(!render_trace(&events).contains("budget"));
    }

    #[test]
    fn step_cap_cuts_match_one_instruction_at_a_time() {
        use statsym_telemetry::TraceEvent;
        // A call, a fork on a symbolic branch and a loop.
        let src = r#"
            fn bump(x: int) -> int { return x + 1; }
            fn main() -> int {
                let n: int = input_int("n");
                let i: int = 0;
                let acc: int = 0;
                while (i < 4) {
                    if (n > i) { acc = bump(acc); i = i + 1; } else { i = i + 2; }
                }
                return acc;
            }
        "#;
        // Block stepping (attribution off) or one instruction per driver
        // call (attribution on): what the run's counts and lineage show.
        let run = |scheduler: SchedulerKind, max_steps: u64, attribution: bool| {
            let (r, events) = limited_run(
                src,
                EngineConfig {
                    scheduler,
                    attribution,
                    ..capped(max_steps)
                },
            );
            let states: Vec<TraceEvent> = events
                .into_iter()
                .filter(|e| matches!(e, TraceEvent::State { .. }))
                .collect();
            let s = r.stats;
            let counts = (
                s.exec.steps,
                s.exec.forks,
                s.paths_explored,
                s.states_created,
            );
            (outcome_label(&r.outcome), counts, states)
        };
        // Coverage search also reads which blocks the stepping visited.
        for scheduler in [SchedulerKind::Bfs, SchedulerKind::Coverage] {
            let (label, full, _) = run(scheduler, u64::MAX, false);
            assert_eq!(label, "completed");
            assert!(full.1 >= 2, "the program forks, got {full:?}");
            let full_steps = full.0;
            for n in 0..=full_steps {
                let blocks = run(scheduler, n, false);
                let one = run(scheduler, n, true);
                assert_eq!(blocks, one, "{scheduler:?}, max_steps {n}");
                let (label, counts, _) = blocks;
                assert_eq!(
                    counts.0, n,
                    "{scheduler:?}, max_steps {n}: the cap is exact"
                );
                assert_eq!(label == "completed", n == full_steps, "max_steps {n}");
            }
        }
    }

    #[test]
    fn coverage_scheduler_finds_faults_and_prefers_new_blocks() {
        let src = r#"
            fn main() {
                let s: str = input_str("a", 16);
                let b: buf[8];
                let i: int = 0;
                while (char_at(s, i) != 0) {
                    buf_set(b, i, 1);
                    i = i + 1;
                }
            }
        "#;
        let cov = engine_run(
            src,
            EngineConfig {
                scheduler: SchedulerKind::Coverage,
                ..EngineConfig::default()
            },
        )
        .0;
        assert!(cov.outcome.is_found());
        let bfs = engine_run(src, EngineConfig::default()).0;
        assert!(bfs.outcome.is_found());
        // Coverage search is at least as frugal with live states here.
        assert!(cov.stats.peak_live_states <= bfs.stats.peak_live_states);
    }

    #[test]
    fn suppressed_fault_sites_are_skipped() {
        let src = r#"
            fn main() {
                let n: int = input_int("n");
                if (n > 10) { assert(false); }
                if (n < -10) {
                    let b: buf[2];
                    buf_set(b, 5, 1);
                }
            }
        "#;
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        // First run: finds one of the two faults.
        let first = {
            let mut eng = Engine::new(&m, EngineConfig::default());
            eng.run()
        };
        let f1 = first.outcome.found().expect("first fault").fault.clone();
        // Second run with the first site suppressed: finds the *other*.
        let second = {
            let mut eng = Engine::new(&m, EngineConfig::default());
            eng.suppress_fault_site(f1.func.clone(), f1.span);
            eng.run()
        };
        let f2 = second.outcome.found().expect("second fault").fault.clone();
        assert_ne!((&f1.func, f1.span), (&f2.func, f2.span));
        // Third run with both suppressed: completes.
        let third = {
            let mut eng = Engine::new(&m, EngineConfig::default());
            eng.suppress_fault_site(f1.func.clone(), f1.span);
            eng.suppress_fault_site(f2.func.clone(), f2.span);
            eng.run()
        };
        assert!(matches!(third.outcome, RunOutcome::Completed));
    }

    #[test]
    fn globals_are_tracked_per_state() {
        let src = r#"
            global seen: int = 0;
            fn mark(v: int) { seen = v; }
            fn main() {
                let n: int = input_int("n");
                if (n > 0) { mark(1); } else { mark(2); }
                assert(seen != 2);
            }
        "#;
        let (r, m) = engine_run(src, EngineConfig::default());
        let found = r.outcome.found().expect("assert reachable via else");
        let vm = Vm::new(&m, VmConfig::default());
        let replay = vm.run(&found.inputs).unwrap();
        assert_eq!(
            replay.outcome.fault().unwrap().kind,
            FaultKind::AssertFailed
        );
        match found.inputs.get("n") {
            Some(InputValue::Int(v)) => assert!(*v <= 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn peak_live_states_is_exact_under_bfs() {
        // Two sequential strlen fan-outs over cap-3 strings. Under FIFO
        // BFS all four first-level children fork before any second-level
        // child is consumed, so exactly 12 queued + 4 freshly pushed
        // states coexist. Peak tracking must report precisely 16 — no
        // more (over-counting the consumed parent) and no less (sampling
        // too coarsely to see the burst).
        let src = r#"
            fn main() -> int {
                let s: str = input_str("x", 3);
                let a: int = len(s);
                let t: str = input_str("y", 3);
                let b: int = len(t);
                return a + b;
            }
        "#;
        let (r, _) = engine_run(src, EngineConfig::default());
        assert!(matches!(r.outcome, RunOutcome::Completed));
        assert_eq!(r.stats.paths_completed, 16);
        assert_eq!(r.stats.peak_live_states, 16, "peak must be exact");
    }

    #[test]
    fn peak_memory_counts_in_flight_state_at_fault() {
        // The only state that ever holds the 2000-cell buffer is the one
        // in flight when the fault fires: it allocates the buffer after
        // being popped and the run ends at the fault, so checkpoint-only
        // sampling never sees the 8 KB heap. Peak tracking must include
        // the in-flight state.
        let src = r#"
            fn main() {
                let b: buf[2000];
                let i: int = input_int("i");
                buf_set(b, i, 1);
            }
        "#;
        let (r, _) = engine_run(src, EngineConfig::default());
        let found = r.outcome.found().expect("overflow expected");
        assert!(matches!(
            found.fault.kind,
            FaultKind::BufferOverflow { cap: 2000, .. }
        ));
        assert!(
            r.stats.peak_memory >= 8000,
            "peak_memory {} must cover the in-flight 2000-cell heap",
            r.stats.peak_memory
        );
    }

    // Shared driver for the attribution tests: records a step-clock
    // trace of a run under `config` and returns (report, trace text).
    fn attr_run(src: &str, config: EngineConfig) -> (EngineReport, String) {
        use statsym_telemetry::{Clock, MemRecorder};
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        let rec = MemRecorder::new(Clock::steps());
        let report = {
            let mut eng = Engine::new(&m, config);
            eng.set_recorder(&rec);
            eng.run()
        };
        let trace = statsym_telemetry::render_trace(&rec.finish());
        (report, trace)
    }

    const ATTR_SRC: &str = r#"
        fn main() {
            let b: buf[8];
            let i: int = input_int("i");
            let j: int = 0;
            while (j < 3) { j = j + 1; }
            buf_set(b, i, 1);
        }
    "#;

    #[test]
    fn attribution_bills_every_step_to_a_source_line() {
        let cfg = EngineConfig {
            attribution: true,
            ..EngineConfig::default()
        };
        let (r, trace) = attr_run(ATTR_SRC, cfg);
        assert!(r.outcome.found().is_some());
        let events = statsym_telemetry::parse_trace_strict(&trace).expect("strict parse");
        let mut step_total = 0u64;
        let mut saw_attr = false;
        for e in &events {
            if let statsym_telemetry::TraceEvent::Counter { name, value } = e {
                let Some(rest) = name.strip_prefix(names::ATTR_PREFIX) else {
                    continue;
                };
                saw_attr = true;
                let (loc, dim) = rest.rsplit_once('.').expect("attr name has a dim");
                assert!(
                    names::ATTR_DIMS.contains(&dim),
                    "unknown attr dim in {name}"
                );
                assert_ne!(dim, "us", "no wall µs under the step clock");
                assert!(loc.contains(':'), "attr loc {loc} is function:line");
                if dim == "steps" {
                    step_total += value;
                }
            }
        }
        assert!(saw_attr, "attribution counters expected");
        // Conservation: every executed instruction is billed exactly once.
        assert_eq!(step_total, r.stats.exec.steps);
    }

    #[test]
    fn attribution_and_provenance_default_off_emit_nothing() {
        let (_, trace) = attr_run(ATTR_SRC, EngineConfig::default());
        assert!(
            !trace.contains("\"k\":\"counter\",\"name\":\"attr."),
            "default traces must be free of attr.* counters"
        );
        assert!(
            !trace.contains("\"k\":\"query\""),
            "default traces must be free of query events"
        );
    }

    #[test]
    fn provenance_stamps_queries_with_rank_and_location() {
        let cfg = EngineConfig {
            attribution: true,
            candidate_rank: 3,
            ..EngineConfig::default()
        };
        let (_, trace) = attr_run(ATTR_SRC, cfg);
        let events = statsym_telemetry::parse_trace_strict(&trace).expect("strict parse");
        let mut saw_query = false;
        for e in &events {
            if let statsym_telemetry::TraceEvent::Query {
                loc, rank, site, ..
            } = e
            {
                saw_query = true;
                assert_eq!(*rank, 3);
                assert!(loc.contains(':'), "query loc {loc} is function:line");
                assert!(!site.is_empty());
            }
        }
        assert!(saw_query, "provenance query events expected");
    }

    // Two independent symbolic inputs: slicing finds two components.
    const INDEP_SRC: &str = r#"
        fn main() {
            let b: buf[8];
            let i: int = input_int("i");
            let k: int = input_int("k");
            if (i > 2) {
                if (k > 3) {
                    buf_set(b, i, 1);
                }
            }
        }
    "#;

    // One symbolic input: every query is a single component.
    const SINGLE_SRC: &str = r#"
        fn main() {
            let b: buf[8];
            let i: int = input_int("i");
            if (i > 2) {
                if (i < 6) {
                    buf_set(b, i, 1);
                }
            }
        }
    "#;

    #[test]
    fn indep_counters_follow_zero_vs_absent() {
        // No query splits: the `solver.indep.*` family is absent.
        let (_, trace) = attr_run(SINGLE_SRC, EngineConfig::default());
        assert!(trace.contains("\"name\":\"solver.queries\""), "{trace}");
        assert!(!trace.contains("solver.indep."), "{trace}");

        // Some query splits: the whole family appears, zeros included.
        let (_, trace) = attr_run(INDEP_SRC, EngineConfig::default());
        for name in [
            names::SOLVER_INDEP_QUERIES,
            names::SOLVER_INDEP_COMPONENTS,
            names::SOLVER_INDEP_COMP_HITS,
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{name}\"")),
                "{name}: {trace}"
            );
        }
    }
}
