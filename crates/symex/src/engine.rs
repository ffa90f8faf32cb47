//! The symbolic execution engine: scheduling loop, budgets, and results.

use crate::attr::StepAttr;
use crate::executor::{
    func_locations, initial_state, step, Disposition, ExecEnv, ExecStats, StepResult,
};
use crate::hook::{EventHook, NoGuidance};
use crate::lineage::{Lineage, WorkSnapshot};
use crate::scheduler::{build_scheduler, SchedulerKind};
use crate::state::State;
use crate::value::SymValue;
use concrete::{Fault, InputValue, Location};
use sir::{InputId, Module};
use solver::{Constraint, QueryCache, SatResult, Solver, SolverConfig, SolverStats, TermCtx};
use statsym_telemetry::{lineage_op, names, ClockMode, FieldValue, Recorder, NOOP};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A cooperative per-run resource budget in deterministic units:
/// executed instructions and created states, both checked after every
/// executed instruction. `None` fields are unlimited; the default is
/// fully unlimited, so attaching a `Budget` never changes a run that
/// stays under it. Because both dimensions are counted, not timed, a
/// budget-limited run under the step-count clock still produces
/// byte-identical traces run to run. The one wall-clock limit
/// is [`EngineConfig::time_budget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Executor instructions this run may retire.
    pub max_steps: Option<u64>,
    /// States this run may ever create.
    pub max_states: Option<u64>,
}

impl Budget {
    /// A fully unlimited budget (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Whether any dimension is limited.
    pub fn is_limited(&self) -> bool {
        self.max_steps.is_some() || self.max_states.is_some()
    }
}

/// Engine resource budgets and policy.
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
    /// Wall-clock budget.
    pub time_budget: Option<Duration>,
    /// Total instruction budget.
    pub max_steps: u64,
    /// Cooperative resource budget for this run. Unlimited by default;
    /// unlike `max_steps`/`time_budget` (engine safety rails with fixed
    /// defaults), a tripped [`Budget`] is reported as its own
    /// `budget_exceeded` disposition so operators can tell an admission
    /// cut from genuine exhaustion.
    pub budget: Budget,
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
    /// MiniC source line that caused it. Off by default: the hooks add
    /// per-step bookkeeping and the counter section grows with program
    /// size.
    pub attribution: bool,
    /// Stamp solver queries with provenance (`query` events carrying
    /// the originating state id, source location, candidate rank, and
    /// cache disposition). Off by default: query events are the
    /// highest-frequency event family.
    pub provenance: bool,
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
            budget: Budget::default(),
            solver: SolverConfig::default(),
            lineage: false,
            state_workers: 0,
            attribution: false,
            provenance: false,
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
    /// Instruction budget exceeded.
    Steps,
    /// Live-state cap exceeded.
    LiveStates,
    /// The run's explicit [`Budget`] tripped.
    Budget,
}

impl fmt::Display for ExhaustionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustionReason::Memory => f.write_str("out of memory"),
            ExhaustionReason::Time => f.write_str("timeout"),
            ExhaustionReason::Steps => f.write_str("step budget exhausted"),
            ExhaustionReason::LiveStates => f.write_str("too many live states"),
            ExhaustionReason::Budget => f.write_str("resource budget exceeded"),
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
    /// A budget ran out first.
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

    /// Explores the program until a fault is found or a budget runs out.
    ///
    /// The one scheduling loop: pop the next state from the scheduler,
    /// step it until it forks, terminates or is suspended by guidance,
    /// and queue its successors. When only suspended states remain they
    /// are resumed with guidance off, so the worst case degrades to pure
    /// symbolic execution.
    pub fn run(&mut self) -> EngineReport {
        let start = Instant::now();
        let rec = self.rec;
        let run_span = rec.span_open(names::ENGINE_RUN);
        let solver_before = self.solver.stats();
        // Lineage deltas are charged from this run's start, not from the
        // solver's birth (the solver may be reused across runs).
        let mut lineage = Lineage::new(
            self.config.lineage && rec.enabled(),
            WorkSnapshot {
                steps: 0,
                solver_nodes: solver_before.nodes,
                solver_us: solver_before.query_us,
            },
        );
        let mut last_tick: u64 = 0;
        // Source-level cost attribution and solver-query provenance.
        // Both are trace features: without a recorder the per-step
        // hooks are skipped entirely.
        let mut attr = StepAttr::new(
            self.config.attribution && rec.enabled(),
            self.config.provenance && rec.enabled(),
        );
        if self.config.provenance && rec.enabled() {
            self.solver.set_provenance(self.config.candidate_rank);
        }
        let mut stats = EngineStats::default();
        let mut sched = build_scheduler(self.config.scheduler);
        let mut suspended: Vec<State> = Vec::new();
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
        let mut live_mem: usize = 0;
        let mut mem_by_state: solver::U64Map<usize> = solver::U64Map::default();
        let locs = func_locations(self.module);
        let suppressed = self.suppressed.clone();
        // Coverage-optimized search: blocks ever executed by any state.
        let coverage_mode = matches!(self.config.scheduler, SchedulerKind::Coverage);
        let mut covered: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let is_suppressed = |fault: &Fault| {
            suppressed
                .iter()
                .any(|(func, span)| *func == fault.func && *span == fault.span)
        };

        enum LoopEnd {
            Found(Box<State>, Fault, solver::Model),
            Exhausted(ExhaustionReason),
            Completed,
        }

        // Faulting paths whose triggering model the solver could not
        // produce within budget. Reported as suspended work, never as
        // found vulnerabilities: a Found with fabricated inputs would
        // not replay concretely.
        let mut unconfirmed: u64 = 0;

        // The state popped from the scheduler and currently executing:
        // it is live too, so peak accounting must include it.
        let mut in_flight: usize = 0;
        let mut in_flight_mem: usize = 0;

        // Explicit resource budget, enforced per executed instruction so
        // the trip point is exact and reproducible. All budget telemetry
        // is gated on a budget actually being set, so unlimited runs
        // emit byte-identical traces to builds that predate budgets.
        let budget = self.config.budget;
        let limited = budget.is_limited();
        let budget_telemetry = limited && rec.enabled();
        let wall_clock = rec.clock_mode() == ClockMode::Wall;
        let mut last_budget_note: Option<u64> = None;
        let det_tripped = |steps: u64, states: u64| {
            budget.max_steps.is_some_and(|m| steps > m)
                || budget.max_states.is_some_and(|m| states > m)
        };

        let end = {
            let mut env = ExecEnv {
                module: self.module,
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

            // Peaks are updated at *every* state-set mutation (push, pop,
            // fork, suspend, resume) — not just at loop checkpoints — so
            // a fork burst right before the run ends is still counted.
            macro_rules! note_peaks {
                () => {{
                    let total_mem = live_mem + in_flight_mem + env.solver.cache_len() * 160;
                    stats.peak_memory = stats.peak_memory.max(total_mem);
                    stats.peak_live_states = stats
                        .peak_live_states
                        .max(sched.len() + suspended.len() + in_flight);
                }};
            }

            // Periodic budget progress telemetry, deduplicated by step
            // count (the step-0 checkpoint re-fires once per popped
            // state). Wall-clock usage is only reported under a wall
            // clock, keeping step-clock traces deterministic.
            macro_rules! budget_note {
                () => {{
                    if budget_telemetry && last_budget_note != Some(env.stats.steps) {
                        last_budget_note = Some(env.stats.steps);
                        let states = *env.next_state_id + 1;
                        rec.gauge_max(names::BUDGET_STEPS_USED, env.stats.steps as i64);
                        rec.gauge_max(names::BUDGET_STATES_USED, states as i64);
                        if wall_clock {
                            let solver_us = env
                                .solver
                                .stats()
                                .query_us
                                .saturating_sub(solver_before.query_us);
                            let wall_ms = start.elapsed().as_millis() as u64;
                            rec.gauge_max(names::BUDGET_SOLVER_US_USED, solver_us as i64);
                            rec.gauge_max(names::BUDGET_WALL_MS_USED, wall_ms as i64);
                            rec.event(
                                names::BUDGET_TICK,
                                &[
                                    ("steps", FieldValue::from(env.stats.steps)),
                                    ("states", FieldValue::from(states)),
                                    ("solver_us", FieldValue::from(solver_us)),
                                    ("wall_ms", FieldValue::from(wall_ms)),
                                ],
                            );
                        } else {
                            rec.event(
                                names::BUDGET_TICK,
                                &[
                                    ("steps", FieldValue::from(env.stats.steps)),
                                    ("states", FieldValue::from(states)),
                                ],
                            );
                        }
                    }
                }};
            }

            // Solves the faulting state's path for a triggering model
            // *before* committing to a Found outcome. `None` means the
            // solver budget ran out (or, vacuously, the path turned out
            // infeasible): the fault cannot be confirmed and must not be
            // reported with made-up inputs.
            macro_rules! confirm_model {
                ($state:expr, $fault:expr) => {{
                    // The confirmation query runs outside step(), so it
                    // gets its own pre/post bracket: the solver work is
                    // billed to (and its provenance stamped with) the
                    // faulting statement's source line.
                    let pre = attr.active().then(|| {
                        let line = $fault.span.line;
                        attr.pre_fault(env.module, &$state, line, env.solver, env.stats)
                    });
                    let res = env
                        .solver
                        .check_at(env.ctx, $state.cond.hard(), rec, "report_model");
                    if let Some(pre) = pre {
                        attr.post_step(pre, &env.solver.stats(), env.stats);
                    }
                    match res {
                        SatResult::Sat(m) => Some(m),
                        _ => None,
                    }
                }};
            }

            let init = initial_state(&mut env);
            let est = init.est_bytes();
            live_mem += est;
            mem_by_state.insert(init.id, est);
            let pr = env.hook.priority(&init.meta, init.depth);
            sched.push(init, pr);
            note_peaks!();

            'outer: loop {
                // Budget checks.
                rec.tick(env.stats.steps - last_tick);
                last_tick = env.stats.steps;
                if let Some(threshold) = self.config.panic_after {
                    if env.stats.steps >= threshold {
                        panic!(
                            "chaos: forced engine panic after {} steps (panic_after={threshold})",
                            env.stats.steps
                        );
                    }
                }
                if let Some(tb) = self.config.time_budget {
                    if start.elapsed() > tb {
                        break LoopEnd::Exhausted(ExhaustionReason::Time);
                    }
                }
                if env.stats.steps > self.config.max_steps {
                    break LoopEnd::Exhausted(ExhaustionReason::Steps);
                }
                let total_mem = live_mem + env.solver.cache_len() * 160;
                note_peaks!();
                if total_mem > self.config.memory_budget {
                    break LoopEnd::Exhausted(ExhaustionReason::Memory);
                }
                if sched.len() + suspended.len() > self.config.max_live_states {
                    break LoopEnd::Exhausted(ExhaustionReason::LiveStates);
                }

                let Some(mut state) = sched.pop() else {
                    if suspended.is_empty() {
                        break LoopEnd::Completed;
                    }
                    // Resume suspended states with guidance disabled: the
                    // worst case degrades to pure symbolic execution.
                    let resumed = suspended.len() as u64;
                    for mut s in suspended.drain(..) {
                        env.lineage_event(lineage_op::RESUME, &s, None);
                        s.guidance_off = true;
                        s.cond = s.cond.without_soft();
                        sched.push(s, i64::MAX);
                    }
                    rec.counter_add(names::SYMEX_RESUME, resumed);
                    note_peaks!();
                    continue;
                };
                rec.counter_add(names::SYMEX_SCHED_PICKS, 1);
                if let Some(est) = mem_by_state.remove(&state.id) {
                    live_mem = live_mem.saturating_sub(est);
                    in_flight_mem = est;
                } else {
                    in_flight_mem = state.est_bytes();
                }
                in_flight = 1;
                note_peaks!();

                // Run this state until it forks, terminates, or parks.
                // Its id is the lineage fork parent for any fresh
                // children; the continuing fork child keeps this id and
                // stays the same tree node.
                let exec_id = state.id;
                let step_end = loop {
                    // The budget trips mid-state at an exact instruction
                    // count: the in-flight state gets the terminal
                    // `budget_exceeded` disposition. A run whose final
                    // state completes exactly on budget is reported
                    // Completed — the budget only interrupts pending work.
                    if limited && det_tripped(env.stats.steps, *env.next_state_id + 1) {
                        rec.tick(env.stats.steps - last_tick);
                        last_tick = env.stats.steps;
                        env.lineage_event(lineage_op::BUDGET_EXCEEDED, &state, None);
                        rec.counter_add(names::BUDGET_EXCEEDED, 1);
                        budget_note!();
                        break 'outer LoopEnd::Exhausted(ExhaustionReason::Budget);
                    }
                    if env.stats.steps.is_multiple_of(8192) {
                        rec.tick(env.stats.steps - last_tick);
                        last_tick = env.stats.steps;
                        budget_note!();
                        if let Some(tb) = self.config.time_budget {
                            if start.elapsed() > tb {
                                break 'outer LoopEnd::Exhausted(ExhaustionReason::Time);
                            }
                        }
                        if env.stats.steps > self.config.max_steps {
                            break 'outer LoopEnd::Exhausted(ExhaustionReason::Steps);
                        }
                    }
                    let pre = attr
                        .active()
                        .then(|| attr.pre_step(env.module, &state, env.solver, env.stats));
                    let res = step(&mut env, &mut state);
                    if let Some(pre) = pre {
                        attr.post_step(pre, &env.solver.stats(), env.stats);
                    }
                    match res {
                        StepResult::Continue => {
                            if coverage_mode {
                                if let Some(f) = state.mach.frames.last() {
                                    covered.insert((f.func.0, f.block.0));
                                }
                            }
                        }
                        other => break other,
                    }
                };
                // The popped state was consumed; its successors (if any)
                // are accounted individually below.
                in_flight = 0;
                in_flight_mem = 0;
                match step_end {
                    StepResult::Continue => unreachable!("inner loop keeps Continue"),
                    StepResult::Fork(children) => {
                        for child in children {
                            if child.state.id != exec_id {
                                env.lineage_event(lineage_op::FORK, &child.state, Some(exec_id));
                            }
                            match child.disposition {
                                Disposition::Active => {
                                    let est = child.state.est_bytes();
                                    live_mem += est;
                                    mem_by_state.insert(child.state.id, est);
                                    let pr = if coverage_mode {
                                        let f = child.state.mach.frame();
                                        if covered.contains(&(f.func.0, f.block.0)) {
                                            1_000_000 + child.state.depth as i64
                                        } else {
                                            child.state.depth as i64
                                        }
                                    } else {
                                        env.hook.priority(&child.state.meta, child.state.depth)
                                    };
                                    sched.push(child.state, pr);
                                    note_peaks!();
                                }
                                Disposition::Suspended => {
                                    let est = child.state.est_bytes();
                                    live_mem += est;
                                    mem_by_state.insert(child.state.id, est);
                                    rec.counter_add(names::SYMEX_SUSPEND_BRANCH, 1);
                                    rec.observe(
                                        names::SYMEX_HOP_DIVERGENCE,
                                        child.state.meta.hops as u64,
                                    );
                                    env.lineage_event(
                                        lineage_op::SUSPEND_BRANCH,
                                        &child.state,
                                        None,
                                    );
                                    suspended.push(child.state);
                                    note_peaks!();
                                }
                                Disposition::Fault(fault) => {
                                    if is_suppressed(&fault) {
                                        env.lineage_event(lineage_op::EXIT, &child.state, None);
                                        stats.paths_completed += 1;
                                        continue;
                                    }
                                    // The faulting state is live until the
                                    // report is built; count it.
                                    in_flight = 1;
                                    in_flight_mem = child.state.est_bytes();
                                    note_peaks!();
                                    match confirm_model!(child.state, fault) {
                                        Some(model) => {
                                            env.lineage_event(
                                                lineage_op::FAULT,
                                                &child.state,
                                                None,
                                            );
                                            break 'outer LoopEnd::Found(
                                                Box::new(child.state),
                                                fault,
                                                model,
                                            );
                                        }
                                        None => {
                                            env.lineage_event(
                                                lineage_op::UNCONFIRMED,
                                                &child.state,
                                                None,
                                            );
                                            in_flight = 0;
                                            in_flight_mem = 0;
                                            unconfirmed += 1;
                                            rec.counter_add(names::SYMEX_UNCONFIRMED, 1);
                                        }
                                    }
                                }
                            }
                        }
                        continue 'outer;
                    }
                    StepResult::Exit(s) => {
                        env.lineage_event(lineage_op::EXIT, &s, None);
                        stats.paths_completed += 1;
                        continue 'outer;
                    }
                    StepResult::Fault(s, fault) => {
                        if is_suppressed(&fault) {
                            env.lineage_event(lineage_op::EXIT, &s, None);
                            stats.paths_completed += 1;
                            continue 'outer;
                        }
                        in_flight = 1;
                        in_flight_mem = s.est_bytes();
                        note_peaks!();
                        match confirm_model!(s, fault) {
                            Some(model) => {
                                env.lineage_event(lineage_op::FAULT, &s, None);
                                break 'outer LoopEnd::Found(Box::new(s), fault, model);
                            }
                            None => {
                                env.lineage_event(lineage_op::UNCONFIRMED, &s, None);
                                in_flight = 0;
                                in_flight_mem = 0;
                                unconfirmed += 1;
                                rec.counter_add(names::SYMEX_UNCONFIRMED, 1);
                                continue 'outer;
                            }
                        }
                    }
                    StepResult::Suspend(s) => {
                        let est = s.est_bytes();
                        live_mem += est;
                        mem_by_state.insert(s.id, est);
                        suspended.push(s);
                        note_peaks!();
                        continue 'outer;
                    }
                    StepResult::Kill => continue 'outer,
                }
            }
        };

        // The budget-note dedupe marker is last written on trip paths
        // that immediately leave the loop.
        let _ = last_budget_note;
        stats.states_created = next_id + 1;
        stats.left_suspended = suspended.len() as u64 + unconfirmed;
        stats.paths_explored = stats.paths_completed
            + stats.exec.pruned
            + sched.len() as u64
            + suspended.len() as u64
            + unconfirmed;
        let outcome = match end {
            LoopEnd::Found(state, fault, model) => {
                stats.paths_explored += 1;
                RunOutcome::Found(Box::new(self.report(*state, fault, model, &inputs_map)))
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
        RunOutcome::Exhausted(ExhaustionReason::Budget) => "budget_exceeded",
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

    #[test]
    fn step_budget_exhaustion() {
        let cfg = EngineConfig {
            max_steps: 100,
            ..EngineConfig::default()
        };
        let (r, _) = engine_run(
            "fn main() { let i: int = 0; while (i < 100000) { i = i + 1; } }",
            cfg,
        );
        assert!(matches!(
            r.outcome,
            RunOutcome::Exhausted(ExhaustionReason::Steps)
        ));
    }

    // Shared driver for the budget tests: records a lineage trace of a
    // budget-limited run and returns (report, trace events).
    fn budget_run(src: &str, budget: Budget) -> (EngineReport, Vec<statsym_telemetry::TraceEvent>) {
        use statsym_telemetry::{Clock, MemRecorder};
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        let rec = MemRecorder::new(Clock::steps());
        let report = {
            let mut eng = Engine::new(
                &m,
                EngineConfig {
                    budget,
                    lineage: true,
                    ..EngineConfig::default()
                },
            );
            eng.set_recorder(&rec);
            eng.run()
        };
        (report, rec.finish())
    }

    const LONG_LOOP: &str = "fn main() { let i: int = 0; while (i < 100000) { i = i + 1; } }";

    #[test]
    fn step_budget_trips_as_budget_exceeded_with_full_telemetry() {
        use statsym_telemetry::TraceEvent;
        let budget = Budget {
            max_steps: Some(100),
            ..Budget::default()
        };
        let (r, events) = budget_run(LONG_LOOP, budget);
        assert!(matches!(
            r.outcome,
            RunOutcome::Exhausted(ExhaustionReason::Budget)
        ));
        assert_eq!(outcome_label(&r.outcome), "budget_exceeded");
        // The in-flight state carries the terminal disposition.
        assert!(
            events.iter().any(|e| matches!(
                e,
                TraceEvent::State { op, .. } if op == lineage_op::BUDGET_EXCEEDED
            )),
            "lineage budget_exceeded disposition expected"
        );
        // Trip counter and usage gauges are materialized.
        assert!(events.iter().any(|e| matches!(
            e,
            TraceEvent::Counter { name, value: 1 } if name == names::BUDGET_EXCEEDED
        )));
        let steps_used = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Gauge { name, value } if name == names::BUDGET_STEPS_USED => {
                    Some(*value)
                }
                _ => None,
            })
            .expect("budget.steps_used gauge present");
        assert!(steps_used > 100, "gauge reflects usage, got {steps_used}");
        // Periodic progress events use deterministic fields only under
        // the step clock.
        let tick_fields: Vec<&str> = events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Event { name, fields, .. } if name == names::BUDGET_TICK => {
                    Some(fields.iter().map(|(k, _)| k.as_str()).collect())
                }
                _ => None,
            })
            .expect("budget.tick event present");
        assert_eq!(tick_fields, ["steps", "states"]);
    }

    #[test]
    fn state_budget_trips_on_fork_heavy_program() {
        let src = r#"
            fn main() -> int {
                let s: str = input_str("s", 6);
                let t: str = input_str("t", 6);
                return len(s) + len(t);
            }
        "#;
        let budget = Budget {
            max_states: Some(4),
            ..Budget::default()
        };
        let (r, events) = budget_run(src, budget);
        assert!(matches!(
            r.outcome,
            RunOutcome::Exhausted(ExhaustionReason::Budget)
        ));
        assert!(r.stats.states_created > 4);
        assert!(events.iter().any(|e| matches!(
            e,
            statsym_telemetry::TraceEvent::State { op, .. } if op == lineage_op::BUDGET_EXCEEDED
        )));
    }

    #[test]
    fn budget_limited_runs_are_deterministic() {
        use statsym_telemetry::render_trace;
        let budget = Budget {
            max_steps: Some(1000),
            max_states: Some(100),
        };
        let (r1, ev1) = budget_run(LONG_LOOP, budget);
        let (r2, ev2) = budget_run(LONG_LOOP, budget);
        assert!(matches!(
            r1.outcome,
            RunOutcome::Exhausted(ExhaustionReason::Budget)
        ));
        assert_eq!(r1.stats.exec.steps, r2.stats.exec.steps);
        assert_eq!(render_trace(&ev1), render_trace(&ev2));
    }

    #[test]
    fn unlimited_budget_emits_no_budget_telemetry() {
        let (r, events) = budget_run(LONG_LOOP, Budget::unlimited());
        assert!(matches!(r.outcome, RunOutcome::Completed));
        let trace = statsym_telemetry::render_trace(&events);
        assert!(
            !trace.contains("budget"),
            "default-budget traces must be free of budget.* telemetry"
        );
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
            provenance: true,
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
