//! Work-stealing intra-candidate parallel symbolic execution.
//!
//! The legacy engine loop runs one state at a time; with guidance
//! pruning the frontier to a handful of states, candidate-level
//! portfolio parallelism plateaus at ~2 effective workers. This module
//! breaks that plateau by parallelizing *within* one candidate run:
//! worker threads execute state **segments** (up to
//! [`crate::EngineConfig::steal_slice`] instructions) concurrently,
//! stealing work from each other's deques when idle, while the main
//! thread — the **walker** — commits finished segments in a fixed
//! deterministic order.
//!
//! # Determinism
//!
//! The hard requirement is PR 2/3's guarantee: identical outcome
//! (lowest-rank winner) and byte-identical traces at *any* worker
//! count. Three mechanisms deliver it:
//!
//! * **Segment-local ids.** Workers cannot draw from a global state-id
//!   counter (allocation order would depend on the schedule), so each
//!   segment renumbers its executing state to `0` and numbers fork
//!   children from a per-segment counter. The walker translates local
//!   ids to trace-global ids at commit time.
//! * **Deterministic commit order.** Every task is addressed by its
//!   fork-lineage key (`root = [0]`, child *i* of `k` = `k + [i]`), and
//!   the walker commits segments in DFS pre-order over that tree — a
//!   pure function of the program, independent of which worker ran
//!   what. Workers record into private [`MemRecorder`]s; buffers
//!   are spliced into the real trace only at commit.
//! * **Boundary-checked budgets.** The budget dimensions (`max_steps`,
//!   `max_states`, both deterministic) are enforced by the walker at segment
//!   boundaries against globally-ordered committed counts, so the trip
//!   point is a function of the committed prefix, not of wall-clock
//!   interleaving. A segment that would overrun is *not* merged.
//!
//! The byte-identity bar is steal(1) == steal(N) for a fixed
//! `steal_slice`; the legacy loop (`state_workers = 0`) remains the
//! reference implementation with its own (also deterministic) traces.
//! A cross-task *shared* solver cache (`set_shared_cache`) keeps
//! verdicts sound but makes hit *counts* schedule-dependent; leave it
//! off when comparing traces. Each task's private cache (independence
//! slicing's component entries included) is cloned at every fork, so
//! it stays a pure function of the fork lineage.
//!
//! Steal mode ignores [`crate::SchedulerKind`]: exploration order is
//! the fork-tree pre-order (a DFS). Guidance still applies — suspension
//! and resumption work exactly as in the legacy loop, with suspended
//! states resumed (guidance off) in commit order once the active
//! frontier drains.

use crate::attr::StepAttr;
use crate::engine::{
    record_run_telemetry, Engine, EngineReport, EngineStats, ExhaustionReason, RunOutcome,
};
use crate::executor::{
    initial_state, materialize_inputs, step, Disposition, ExecEnv, ExecStats, StepResult,
};
use crate::hook::EventHook;
use crate::lineage::{state_loc, CapturedLin, Lineage, WorkSnapshot};
use crate::scheduler::{victim_order, StealQueues};
use crate::state::{CondList, State};
use crate::value::{SymStr, SymValue};
use concrete::{Fault, InputValue};
use sir::{InputId, Module};
use solver::{Model, SatResult, Solver, SolverStats, TermCtx};
use statsym_telemetry::{
    lineage_op, names, Clock, ClockMode, LineageEvent, MemRecorder, Recorder, TraceBuffer, NOOP,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Fork-lineage address of a task: the root is `[0]`; the *i*-th fork
/// child of a task extends its parent's key with `i`. Resumed
/// (phase-2+) tasks get fresh keys outside the `[0, ...]` subtree.
type TaskKey = Vec<u32>;

/// A schedulable unit: one state plus its private solver, positioned at
/// segment `seg` of the task addressed by `key`.
struct Task {
    key: TaskKey,
    seg: u32,
    state: State,
    solver: Solver,
}

/// What became of one fork child, as shipped to the walker.
enum ChildKind {
    /// Keeps exploring as its own task.
    Active { est: usize },
    /// Parked by guidance; resumed in a later phase.
    Suspended { state: Box<State>, est: usize },
    /// Confirmed fault: a winner candidate (first in commit order wins).
    Found {
        state: Box<State>,
        fault: Fault,
        model: Model,
    },
    /// Faulting path whose model the solver could not produce.
    Unconfirmed,
    /// Fault at a suppressed site: an ordinary completed path.
    CompletedSuppressed,
}

/// One fork child record; `local_id` is the child's *segment-local*
/// state id (0 = the continuing child that keeps the parent's tree
/// node).
struct ChildRec {
    local_id: u64,
    kind: ChildKind,
}

/// How a segment ended.
enum SegEnd {
    /// Slice exhausted; the task continues as `(key, seg + 1)`.
    Paused { est: usize },
    /// The path terminated normally (or hit a suppressed fault site).
    Exit,
    /// The state became infeasible and was dropped.
    Kill,
    /// Guidance parked the executing state.
    Suspended { state: Box<State>, est: usize },
    /// Confirmed fault on the executing state.
    Found {
        state: Box<State>,
        fault: Fault,
        model: Model,
    },
    /// Fault found but no triggering model within solver budget.
    Unconfirmed,
    /// The state forked; children in classification order.
    Forked(Vec<ChildRec>),
}

/// Everything the walker needs to commit one executed segment.
struct SegRecord {
    key: TaskKey,
    seg: u32,
    /// Executor counters for this segment alone.
    exec: ExecStats,
    /// Solver counter deltas for this segment alone.
    solver: SolverStats,
    /// Fresh segment-local state ids drawn (pruned children included),
    /// for the deterministic `max_states` budget.
    locals_used: u64,
    /// The segment's private trace, spliced into the real trace at
    /// commit (None when recording is off).
    buffer: Option<TraceBuffer>,
    /// Lineage events with segment-local ids, replayed at commit.
    lineage: Vec<CapturedLin>,
    /// Where the segment started (for boundary budget-trip lineage).
    start_loc: String,
    start_hops: u32,
    start_depth: u32,
    end: SegEnd,
}

/// Applies `f` field-wise to two solver counter snapshots. The struct
/// literal is exhaustive, so a new `SolverStats` field fails to compile
/// here until it is listed.
fn solver_zip(a: &SolverStats, b: &SolverStats, f: impl Fn(u64, u64) -> u64) -> SolverStats {
    macro_rules! zip {
        ($($f:ident),* $(,)?) => { SolverStats { $( $f: f(a.$f, b.$f), )* } };
    }
    zip!(
        queries,
        sat,
        unsat,
        unknown,
        cache_hits,
        shared_hits,
        shared_misses,
        nodes,
        propagation_rounds,
        backtracks,
        query_us,
        indep_queries,
        indep_components,
        indep_comp_hits,
    )
}

fn solver_delta(now: &SolverStats, base: &SolverStats) -> SolverStats {
    solver_zip(now, base, u64::saturating_sub)
}

fn solver_accum(into: &mut SolverStats, d: &SolverStats) {
    *into = solver_zip(into, d, |a, b| a + b);
}

fn exec_accum(into: &mut ExecStats, d: &ExecStats) {
    into.steps += d.steps;
    into.forks += d.forks;
    into.pruned += d.pruned;
    into.suspended += d.suspended;
    into.concretizations += d.concretizations;
    into.strlen_forks += d.strlen_forks;
}

/// Immutable per-run parameters shared by all workers.
struct SegCtx<'a> {
    module: &'a Module,
    max_call_depth: usize,
    slice: u64,
    traced: bool,
    lineage_on: bool,
    attribution: bool,
    provenance: bool,
    clock_mode: ClockMode,
    suppressed: &'a [(String, minic::Span)],
}

impl SegCtx<'_> {
    fn is_suppressed(&self, fault: &Fault) -> bool {
        self.suppressed
            .iter()
            .any(|(func, span)| *func == fault.func && *span == fault.span)
    }
}

/// Cross-worker run controls for one phase.
struct PhaseShared {
    stop: AtomicBool,
    tripped: Mutex<Option<ExhaustionReason>>,
    start: Instant,
    cancel: Option<Arc<AtomicBool>>,
    time_budget: Option<Duration>,
}

impl PhaseShared {
    /// Polled by workers every 1024 segment-local steps. True means
    /// abort the current segment (its record is discarded; the walker
    /// already holds a terminal end or a trip reason).
    fn should_abort(&self) -> bool {
        if self.stop.load(Ordering::Relaxed) {
            return true;
        }
        let reason = if self
            .cancel
            .as_ref()
            .is_some_and(|t| t.load(Ordering::Relaxed))
        {
            Some(ExhaustionReason::Cancelled)
        } else if self.time_budget.is_some_and(|tb| self.start.elapsed() > tb) {
            Some(ExhaustionReason::Time)
        } else {
            None
        };
        match reason {
            Some(r) => {
                self.trip(r);
                true
            }
            None => false,
        }
    }

    /// Records the first trip reason and stops every worker.
    fn trip(&self, r: ExhaustionReason) {
        let mut g = self.tripped.lock().unwrap_or_else(|e| e.into_inner());
        if g.is_none() {
            *g = Some(r);
        }
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Per-worker private resources, persistent across phases. The `TermCtx`
/// is a handle onto the engine's shared term store (concurrent interning
/// is safe; input variables are pre-materialized on the main thread so
/// `VarId`s — which the solver's branching tie-break keys on — never
/// depend on the schedule).
struct WorkerRes<'h> {
    ctx: TermCtx,
    hook: Box<dyn EventHook + Send + 'h>,
    inputs: HashMap<InputId, SymValue>,
}

/// Runs one segment of `task`. Returns the segment record (None when
/// aborted by the stop flag) and any follow-on tasks (the paused
/// continuation and/or active fork children).
fn run_segment(
    sc: &SegCtx<'_>,
    shared: &PhaseShared,
    res: &mut WorkerRes<'_>,
    task: Task,
) -> (Option<SegRecord>, Vec<Task>) {
    let Task {
        key,
        seg,
        mut state,
        mut solver,
    } = task;
    let buf = sc
        .traced
        .then(|| MemRecorder::new(Clock::with_mode(sc.clock_mode)));
    let rec: &dyn Recorder = match &buf {
        Some(b) => b,
        None => &NOOP,
    };
    let sv0 = solver.stats();
    let mut lineage = Lineage::capture(
        sc.lineage_on,
        WorkSnapshot {
            steps: 0,
            solver_nodes: sv0.nodes,
            solver_us: sv0.query_us,
        },
    );
    let mut exec = ExecStats::default();
    // Segment-local renumbering: the executing state is 0, fork children
    // draw 1, 2, ... from a fresh counter.
    state.id = 0;
    let mut next_local: u64 = 0;
    let start_loc = state_loc(sc.module, &state);
    let start_hops = state.meta.hops;
    let start_depth = state.depth;

    let mut env = ExecEnv {
        module: sc.module,
        ctx: &mut res.ctx,
        solver: &mut solver,
        inputs: &mut res.inputs,
        hook: res.hook.as_mut(),
        stats: &mut exec,
        rec,
        max_call_depth: sc.max_call_depth,
        next_state_id: &mut next_local,
        lineage: &mut lineage,
    };

    enum Seg {
        Paused(State),
        End(StepResult),
        Aborted,
    }

    // Per-segment attribution: cells accumulate segment-locally and
    // flush into the segment's private buffer, folding by counter name
    // across segments at splice — totals are schedule-independent.
    let mut attr = StepAttr::new(sc.attribution, sc.provenance);

    let outcome = loop {
        if env.stats.steps >= sc.slice {
            break Seg::Paused(state);
        }
        if env.stats.steps.is_multiple_of(1024) && shared.should_abort() {
            break Seg::Aborted;
        }
        let pre = attr
            .active()
            .then(|| attr.pre_step(sc.module, &state, env.solver, env.stats));
        let res = step(&mut env, state);
        if let Some(pre) = pre {
            attr.post_step(pre, &env.solver.stats(), env.stats);
        }
        match res {
            StepResult::Continue(s) => {
                state = s;
                rec.tick(1);
            }
            other => {
                rec.tick(1);
                break Seg::End(other);
            }
        }
    };

    let mut tasks_out: Vec<Task> = Vec::new();
    let mut cont_state: Option<State> = None;
    let end = match outcome {
        Seg::Aborted => return (None, Vec::new()),
        Seg::Paused(s) => {
            let est = s.est_bytes();
            cont_state = Some(s);
            SegEnd::Paused { est }
        }
        Seg::End(step_end) => match step_end {
            StepResult::Continue(_) => unreachable!("loop keeps Continue"),
            StepResult::Exit(s) => {
                env.lineage_event(lineage_op::EXIT, &s, None);
                SegEnd::Exit
            }
            StepResult::Kill => SegEnd::Kill,
            StepResult::Suspend(s) => {
                let est = s.est_bytes();
                SegEnd::Suspended {
                    state: Box::new(s),
                    est,
                }
            }
            StepResult::Fault(s, fault) => {
                if sc.is_suppressed(&fault) {
                    env.lineage_event(lineage_op::EXIT, &s, None);
                    SegEnd::Exit
                } else {
                    match confirm(&mut env, &mut attr, &s) {
                        Some(model) => {
                            env.lineage_event(lineage_op::FAULT, &s, None);
                            SegEnd::Found {
                                state: Box::new(s),
                                fault,
                                model,
                            }
                        }
                        None => {
                            env.lineage_event(lineage_op::UNCONFIRMED, &s, None);
                            rec.counter_add(names::SYMEX_UNCONFIRMED, 1);
                            SegEnd::Unconfirmed
                        }
                    }
                }
            }
            StepResult::Fork(children) => {
                let mut recs: Vec<ChildRec> = Vec::with_capacity(children.len());
                for child in children {
                    let local_id = child.state.id;
                    if local_id != 0 {
                        env.lineage_event(lineage_op::FORK, &child.state, Some(0));
                    }
                    match child.disposition {
                        Disposition::Active => {
                            let est = child.state.est_bytes();
                            let mut ck = key.clone();
                            ck.push(recs.len() as u32);
                            tasks_out.push(Task {
                                key: ck,
                                seg: 0,
                                state: child.state,
                                solver: env.solver.clone(),
                            });
                            recs.push(ChildRec {
                                local_id,
                                kind: ChildKind::Active { est },
                            });
                        }
                        Disposition::Suspended => {
                            rec.counter_add(names::SYMEX_SUSPEND_BRANCH, 1);
                            rec.observe(names::SYMEX_HOP_DIVERGENCE, child.state.meta.hops as u64);
                            env.lineage_event(lineage_op::SUSPEND_BRANCH, &child.state, None);
                            let est = child.state.est_bytes();
                            recs.push(ChildRec {
                                local_id,
                                kind: ChildKind::Suspended {
                                    state: Box::new(child.state),
                                    est,
                                },
                            });
                        }
                        Disposition::Fault(fault) => {
                            if sc.is_suppressed(&fault) {
                                env.lineage_event(lineage_op::EXIT, &child.state, None);
                                recs.push(ChildRec {
                                    local_id,
                                    kind: ChildKind::CompletedSuppressed,
                                });
                                continue;
                            }
                            match confirm(&mut env, &mut attr, &child.state) {
                                Some(model) => {
                                    env.lineage_event(lineage_op::FAULT, &child.state, None);
                                    recs.push(ChildRec {
                                        local_id,
                                        kind: ChildKind::Found {
                                            state: Box::new(child.state),
                                            fault,
                                            model,
                                        },
                                    });
                                    // Mirror the legacy loop: a confirmed
                                    // find stops child processing; later
                                    // siblings are never materialized.
                                    break;
                                }
                                None => {
                                    env.lineage_event(lineage_op::UNCONFIRMED, &child.state, None);
                                    rec.counter_add(names::SYMEX_UNCONFIRMED, 1);
                                    recs.push(ChildRec {
                                        local_id,
                                        kind: ChildKind::Unconfirmed,
                                    });
                                }
                            }
                        }
                    }
                }
                SegEnd::Forked(recs)
            }
        },
    };

    attr.flush(sc.module, rec);
    let locals_used = next_local;
    let record = SegRecord {
        key: key.clone(),
        seg,
        exec,
        solver: solver_delta(&solver.stats(), &sv0),
        locals_used,
        buffer: buf.map(MemRecorder::into_buffer),
        lineage: lineage.take_captured(),
        start_loc,
        start_hops,
        start_depth,
        end,
    };
    if let Some(s) = cont_state {
        tasks_out.push(Task {
            key,
            seg: seg + 1,
            state: s,
            solver,
        });
    }
    (Some(record), tasks_out)
}

/// Solves the faulting state's path for a triggering model before
/// committing to a Found outcome (same contract as the legacy loop's
/// `confirm_model!`).
fn confirm(env: &mut ExecEnv<'_>, attr: &mut StepAttr, state: &State) -> Option<Model> {
    let constraints = state.path.to_vec();
    // Outside step(): the confirmation query gets its own attribution
    // bracket, billed to the faulting state's final source location.
    let pre = attr
        .active()
        .then(|| attr.pre_step(env.module, state, env.solver, env.stats));
    let res = env
        .solver
        .check_traced_at(env.ctx, &constraints, env.rec, "report_model");
    if let Some(pre) = pre {
        attr.post_step(pre, &env.solver.stats(), env.stats);
    }
    match res {
        SatResult::Sat(m) => Some(m),
        _ => None,
    }
}

/// Registry entry for a live tree node: its trace-level ids (0 when
/// lineage is off) and modeled memory estimate.
#[derive(Debug, Clone, Copy)]
struct NodeInfo {
    trace_id: u64,
    parent_trace: u64,
    est: usize,
}

/// How the walk ended (None while still running / completed).
enum WalkEnd {
    Found(Box<State>, Fault, Model),
    Exhausted(ExhaustionReason),
}

/// The main-thread committer: consumes [`SegRecord`]s in deterministic
/// DFS pre-order, splices buffers, replays lineage, enforces budgets
/// and safety rails, and detects the winner.
struct Walker<'a> {
    rec: &'a dyn Recorder,
    lineage_on: bool,

    budget: crate::engine::Budget,
    limited: bool,
    budget_telemetry: bool,
    wall_clock: bool,
    last_budget_note: Option<u64>,
    max_steps: u64,
    memory_budget: usize,
    max_live_states: usize,
    time_budget: Option<Duration>,
    start: Instant,
    cancel: Option<Arc<AtomicBool>>,

    nodes: HashMap<TaskKey, NodeInfo>,
    /// Expected next segments, top of stack first (DFS pre-order).
    stack: Vec<(TaskKey, u32)>,
    /// Out-of-order arrivals waiting for their turn.
    ready: HashMap<(TaskKey, u32), SegRecord>,
    suspended: Vec<(TaskKey, State)>,

    exec: ExecStats,
    solver: SolverStats,
    fresh_states: u64,
    paths_completed: u64,
    unconfirmed: u64,
    live: usize,
    live_mem: usize,
    peak_live: usize,
    peak_mem: usize,
    end: Option<WalkEnd>,
}

impl Walker<'_> {
    fn deliver(&mut self, r: SegRecord) {
        self.ready.insert((r.key.clone(), r.seg), r);
    }

    /// Commits every ready segment that is next in order.
    fn advance(&mut self) {
        while self.end.is_none() {
            let Some((k, s)) = self.stack.last().cloned() else {
                break;
            };
            match self.ready.remove(&(k, s)) {
                Some(r) => {
                    self.stack.pop();
                    self.commit(r);
                }
                None => break,
            }
        }
    }

    fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|t| t.load(Ordering::Relaxed))
    }

    fn note_peaks(&mut self) {
        self.peak_live = self.peak_live.max(self.live);
        self.peak_mem = self.peak_mem.max(self.live_mem);
    }

    /// Emits the budget-usage gauges and the `budget.tick` event.
    fn note_budget_values(&mut self, steps: u64, states: u64) {
        if !self.budget_telemetry {
            return;
        }
        use statsym_telemetry::FieldValue;
        self.rec.gauge_max(names::BUDGET_STEPS_USED, steps as i64);
        self.rec.gauge_max(names::BUDGET_STATES_USED, states as i64);
        if self.wall_clock {
            let solver_us = self.solver.query_us;
            let wall_ms = self.start.elapsed().as_millis() as u64;
            self.rec
                .gauge_max(names::BUDGET_SOLVER_US_USED, solver_us as i64);
            self.rec
                .gauge_max(names::BUDGET_WALL_MS_USED, wall_ms as i64);
            self.rec.event(
                names::BUDGET_TICK,
                &[
                    ("steps", FieldValue::from(steps)),
                    ("states", FieldValue::from(states)),
                    ("solver_us", FieldValue::from(solver_us)),
                    ("wall_ms", FieldValue::from(wall_ms)),
                ],
            );
        } else {
            self.rec.event(
                names::BUDGET_TICK,
                &[
                    ("steps", FieldValue::from(steps)),
                    ("states", FieldValue::from(states)),
                ],
            );
        }
    }

    /// Periodic budget progress note at commit cadence, deduplicated by
    /// committed step count (like the legacy per-checkpoint note).
    fn budget_note(&mut self) {
        if self.budget_telemetry && self.last_budget_note != Some(self.exec.steps) {
            self.last_budget_note = Some(self.exec.steps);
            let steps = self.exec.steps;
            let states = 1 + self.fresh_states;
            self.note_budget_values(steps, states);
        }
    }

    /// Deterministic budget trip at a segment boundary: the offending
    /// segment is *not* merged, so committed counters and the trace
    /// clock reflect only the committed prefix.
    fn trip_budget(&mut self, r: &SegRecord, would_steps: u64, would_states: u64) {
        if self.lineage_on {
            if let Some(n) = self.nodes.get(&r.key).copied() {
                self.rec.state(&LineageEvent {
                    op: lineage_op::BUDGET_EXCEEDED,
                    id: n.trace_id,
                    parent: n.parent_trace,
                    loc: &r.start_loc,
                    hops: r.start_hops,
                    depth: r.start_depth,
                    steps: 0,
                    snodes: 0,
                    solver_us: 0,
                });
            }
        }
        self.rec.counter_add(names::BUDGET_EXCEEDED, 1);
        self.note_budget_values(would_steps, would_states);
        self.end = Some(WalkEnd::Exhausted(ExhaustionReason::Budget));
    }

    /// Replays the segment's captured lineage on the real recorder,
    /// translating segment-local ids to trace-global ids. Returns the
    /// local → (trace_id, parent_trace) map for child registration.
    fn replay(&mut self, r: &SegRecord) -> HashMap<u64, (u64, u64)> {
        let mut map: HashMap<u64, (u64, u64)> = HashMap::new();
        if let Some(n) = self.nodes.get(&r.key) {
            map.insert(0, (n.trace_id, n.parent_trace));
        }
        if !self.lineage_on {
            return map;
        }
        for ev in &r.lineage {
            let (id, parent) = if lineage_op::introduces(ev.op) {
                let parent = ev.parent_local.and_then(|p| map.get(&p)).map_or(0, |e| e.0);
                let id = self.rec.alloc_state_id();
                map.insert(ev.local_id, (id, parent));
                (id, parent)
            } else {
                match map.get(&ev.local_id) {
                    Some(&e) => e,
                    None => continue,
                }
            };
            self.rec.state(&LineageEvent {
                op: ev.op,
                id,
                parent,
                loc: &ev.loc,
                hops: ev.hops,
                depth: ev.depth,
                steps: ev.steps,
                snodes: ev.snodes,
                solver_us: ev.solver_us,
            });
        }
        // The bootstrap segment's ROOT introduction rebinds local 0.
        if let Some(&e) = map.get(&0) {
            if let Some(n) = self.nodes.get_mut(&r.key) {
                n.trace_id = e.0;
                n.parent_trace = e.1;
            }
        }
        map
    }

    /// Re-estimates a live node's modeled memory.
    fn update_est(&mut self, key: &TaskKey, est: usize) {
        let e = self.nodes.entry(key.clone()).or_insert(NodeInfo {
            trace_id: 0,
            parent_trace: 0,
            est: 0,
        });
        self.live_mem = self.live_mem.saturating_sub(e.est) + est;
        e.est = est;
    }

    /// Removes a state from the live set (its registry entry survives
    /// for child inheritance).
    fn terminal(&mut self, key: &TaskKey) {
        if let Some(n) = self.nodes.get(key) {
            self.live_mem = self.live_mem.saturating_sub(n.est);
        }
        self.live = self.live.saturating_sub(1);
    }

    /// Commits one in-order segment: budget pre-check, buffer splice,
    /// lineage replay, counter accumulation, end application, rails.
    fn commit(&mut self, r: SegRecord) {
        // The budget trips *before* the merge, on globally-ordered
        // committed counts.
        if self.limited {
            let would_steps = self.exec.steps + r.exec.steps;
            let would_states = 1 + self.fresh_states + r.locals_used;
            if self.budget.max_steps.is_some_and(|m| would_steps > m)
                || self.budget.max_states.is_some_and(|m| would_states > m)
            {
                self.trip_budget(&r, would_steps, would_states);
                return;
            }
        }
        if let Some(buf) = &r.buffer {
            self.rec.merge_buffer(buf, None);
        }
        let map = self.replay(&r);
        exec_accum(&mut self.exec, &r.exec);
        solver_accum(&mut self.solver, &r.solver);
        self.fresh_states += r.locals_used;

        self.apply_end(r, &map);
        if self.end.is_some() {
            return;
        }

        self.budget_note();
        if self.cancelled() {
            self.end = Some(WalkEnd::Exhausted(ExhaustionReason::Cancelled));
            return;
        }
        if let Some(tb) = self.time_budget {
            if self.start.elapsed() > tb {
                self.end = Some(WalkEnd::Exhausted(ExhaustionReason::Time));
                return;
            }
        }
        if self.exec.steps > self.max_steps {
            self.end = Some(WalkEnd::Exhausted(ExhaustionReason::Steps));
            return;
        }
        if self.live_mem > self.memory_budget {
            self.end = Some(WalkEnd::Exhausted(ExhaustionReason::Memory));
            return;
        }
        if self.live > self.max_live_states {
            self.end = Some(WalkEnd::Exhausted(ExhaustionReason::LiveStates));
        }
    }

    /// Applies a committed segment's end to the live-set simulation.
    fn apply_end(&mut self, r: SegRecord, map: &HashMap<u64, (u64, u64)>) {
        let key = r.key;
        match r.end {
            SegEnd::Paused { est } => {
                self.update_est(&key, est);
                self.stack.push((key, r.seg + 1));
                self.note_peaks();
            }
            SegEnd::Exit => {
                self.terminal(&key);
                self.paths_completed += 1;
            }
            SegEnd::Kill => {
                self.terminal(&key);
            }
            SegEnd::Unconfirmed => {
                self.terminal(&key);
                self.unconfirmed += 1;
            }
            SegEnd::Suspended { state, est } => {
                self.update_est(&key, est);
                self.suspended.push((key, *state));
            }
            SegEnd::Found {
                state,
                fault,
                model,
            } => {
                self.terminal(&key);
                self.end = Some(WalkEnd::Found(state, fault, model));
            }
            SegEnd::Forked(children) => {
                // The parent is consumed; children are accounted one by
                // one (peaks noted between additions, like the legacy
                // per-push accounting).
                self.terminal(&key);
                let parent_info = self.nodes.get(&key).copied().unwrap_or(NodeInfo {
                    trace_id: 0,
                    parent_trace: 0,
                    est: 0,
                });
                let mut active_keys: Vec<TaskKey> = Vec::new();
                for (i, ch) in children.into_iter().enumerate() {
                    let mut ck = key.clone();
                    ck.push(i as u32);
                    let (trace_id, parent_trace) = if ch.local_id == 0 {
                        (parent_info.trace_id, parent_info.parent_trace)
                    } else {
                        map.get(&ch.local_id).copied().unwrap_or((0, 0))
                    };
                    match ch.kind {
                        ChildKind::Active { est } => {
                            self.nodes.insert(
                                ck.clone(),
                                NodeInfo {
                                    trace_id,
                                    parent_trace,
                                    est,
                                },
                            );
                            self.live += 1;
                            self.live_mem += est;
                            active_keys.push(ck);
                            self.note_peaks();
                        }
                        ChildKind::Suspended { state, est } => {
                            self.nodes.insert(
                                ck.clone(),
                                NodeInfo {
                                    trace_id,
                                    parent_trace,
                                    est,
                                },
                            );
                            self.live += 1;
                            self.live_mem += est;
                            self.suspended.push((ck, *state));
                            self.note_peaks();
                        }
                        ChildKind::Found {
                            state,
                            fault,
                            model,
                        } => {
                            self.end = Some(WalkEnd::Found(state, fault, model));
                            break;
                        }
                        ChildKind::Unconfirmed => {
                            self.unconfirmed += 1;
                        }
                        ChildKind::CompletedSuppressed => {
                            self.paths_completed += 1;
                        }
                    }
                }
                // Expect children in order: reversed pushes onto the
                // LIFO stack put child 0 on top.
                for ck in active_keys.into_iter().rev() {
                    self.stack.push((ck, 0));
                }
            }
        }
    }
}

/// Runs one phase: spawns `workers` threads over `tasks`, commits
/// records on the main thread until the channel drains.
fn run_phase<'s>(
    sc: &SegCtx<'_>,
    shared: &PhaseShared,
    walker: &mut Walker<'_>,
    worker_res: &mut [WorkerRes<'s>],
    tasks: Vec<Task>,
    steal_seed: u64,
) {
    let workers = worker_res.len();
    let queues: StealQueues<Task> = StealQueues::new(workers);
    for (i, t) in tasks.into_iter().enumerate() {
        queues.push(i % workers, t);
    }
    let (tx, rx) = mpsc::channel::<SegRecord>();
    std::thread::scope(|s| {
        for (wid, res) in worker_res.iter_mut().enumerate() {
            let tx = tx.clone();
            let queues = &queues;
            s.spawn(move || {
                let victims = victim_order(workers, wid, steal_seed);
                loop {
                    if shared.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match queues.pop(wid, &victims) {
                        Some(task) => {
                            let (record, children) = run_segment(sc, shared, res, task);
                            // Reverse push so the first child is popped
                            // first: workers explore the fork tree in
                            // the same pre-order the walker commits.
                            for t in children.into_iter().rev() {
                                queues.push(wid, t);
                            }
                            if let Some(r) = record {
                                let _ = tx.send(r);
                            }
                            queues.done();
                        }
                        None => {
                            if queues.pending() == 0 {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                drop(tx);
            });
        }
        drop(tx);
        while let Ok(r) = rx.recv() {
            walker.deliver(r);
            walker.advance();
            if walker.end.is_some() {
                shared.stop.store(true, Ordering::SeqCst);
            }
        }
    });
    walker.advance();
    if walker.end.is_none() {
        if let Some(r) = shared
            .tripped
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            walker.end = Some(WalkEnd::Exhausted(r));
        }
    }
}

/// Drains the suspended pool into resumed phase tasks (guidance off),
/// emitting `resume` lineage and the resume counter in commit order.
fn resume_tasks(
    walker: &mut Walker<'_>,
    module: &Module,
    base_solver: &Solver,
    phase: u32,
) -> Vec<Task> {
    let drained = std::mem::take(&mut walker.suspended);
    let n = drained.len() as u64;
    let mut tasks = Vec::with_capacity(drained.len());
    let mut keys: Vec<TaskKey> = Vec::with_capacity(drained.len());
    for (i, (old_key, mut s)) in drained.into_iter().enumerate() {
        // Resumed tasks live outside the `[0, ...]` fork-key subtree so
        // phase keys never collide with phase-1 descendants.
        let new_key: TaskKey = vec![u32::MAX - phase, i as u32];
        let info = walker.nodes.get(&old_key).copied().unwrap_or(NodeInfo {
            trace_id: 0,
            parent_trace: 0,
            est: 0,
        });
        if walker.lineage_on {
            let loc = state_loc(module, &s);
            walker.rec.state(&LineageEvent {
                op: lineage_op::RESUME,
                id: info.trace_id,
                parent: info.parent_trace,
                loc: &loc,
                hops: s.meta.hops,
                depth: s.depth,
                steps: 0,
                snodes: 0,
                solver_us: 0,
            });
        }
        s.guidance_off = true;
        s.soft = CondList::new();
        walker.nodes.insert(new_key.clone(), info);
        keys.push(new_key.clone());
        tasks.push(Task {
            key: new_key,
            seg: 0,
            state: s,
            solver: base_solver.clone(),
        });
    }
    if n > 0 {
        walker.rec.counter_add(names::SYMEX_RESUME, n);
    }
    for k in keys.into_iter().rev() {
        walker.stack.push((k, 0));
    }
    tasks
}

/// Entry point: work-stealing execution of `eng`'s run. Returns None
/// when the guidance hook does not support cloning (the caller falls
/// back to the legacy loop before any recording happens).
pub(crate) fn run_steal(eng: &mut Engine<'_>) -> Option<EngineReport> {
    let workers = eng.config.state_workers.max(1);
    let mut hook_boxes: Vec<Box<dyn EventHook + Send + '_>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        hook_boxes.push(eng.hook.clone_hook()?);
    }

    let config = eng.config;
    let module = eng.module;
    let rec = eng.rec;
    let start = Instant::now();
    let run_span = rec.span_open(names::ENGINE_RUN);
    let solver_before = eng.solver.stats();

    // Pin and pre-materialize every input on the main thread: VarIds —
    // which the solver's branching tie-break keys on — are allocated in
    // module declaration order, never in execution order.
    let mut base_ctx = eng.ctx.clone();
    let mut inputs_map: HashMap<InputId, SymValue> = HashMap::new();
    for (i, def) in module.inputs.iter().enumerate() {
        if let Some(v) = eng.pinned.get(&def.name) {
            let sym = match (v, def.kind) {
                (InputValue::Int(n), sir::InputKind::Int) => SymValue::Int(base_ctx.int(*n)),
                (InputValue::Str(bytes), sir::InputKind::Str { cap }) => {
                    let mut b = bytes.clone();
                    b.truncate(cap as usize);
                    SymValue::Str(SymStr::concrete(&mut base_ctx, &b))
                }
                _ => continue,
            };
            inputs_map.insert(InputId(i as u32), sym);
        }
    }
    materialize_inputs(module, &mut base_ctx, &mut inputs_map);

    let traced = rec.enabled();
    let lineage_on = config.lineage && rec.enabled();
    let clock_mode = rec.clock_mode();
    // Provenance rides the solver itself, so enabling it on the
    // engine's solver *before* the bootstrap/base clones propagates the
    // flag (and the candidate rank) into every task's private solver.
    if config.provenance && traced {
        eng.solver.set_provenance(config.candidate_rank);
    }
    let suppressed = eng.suppressed.clone();
    let sc = SegCtx {
        module,
        max_call_depth: config.max_call_depth,
        slice: config.steal_slice.max(1),
        traced,
        lineage_on,
        attribution: config.attribution && traced,
        provenance: config.provenance && traced,
        clock_mode,
        suppressed: &suppressed,
    };

    let mut worker_res: Vec<WorkerRes<'_>> = hook_boxes
        .into_iter()
        .map(|hook| WorkerRes {
            ctx: base_ctx.clone(),
            hook,
            inputs: inputs_map.clone(),
        })
        .collect();

    // Bootstrap: build the initial state on the main thread as segment
    // 0 of the root task (guidance may query the solver here, so it is
    // recorded like any other segment).
    let root_key: TaskKey = vec![0];
    let mut boot_solver = eng.solver.clone();
    let boot_record = {
        let res = &mut worker_res[0];
        let buf = traced.then(|| MemRecorder::new(Clock::with_mode(clock_mode)));
        let brec: &dyn Recorder = match &buf {
            Some(b) => b,
            None => &NOOP,
        };
        let sv0 = boot_solver.stats();
        let mut lineage = Lineage::capture(
            lineage_on,
            WorkSnapshot {
                steps: 0,
                solver_nodes: sv0.nodes,
                solver_us: sv0.query_us,
            },
        );
        let mut exec = ExecStats::default();
        let mut next_local: u64 = 0;
        let mut env = ExecEnv {
            module,
            ctx: &mut res.ctx,
            solver: &mut boot_solver,
            inputs: &mut res.inputs,
            hook: res.hook.as_mut(),
            stats: &mut exec,
            rec: brec,
            max_call_depth: config.max_call_depth,
            next_state_id: &mut next_local,
            lineage: &mut lineage,
        };
        let init = initial_state(&mut env);
        let est = init.est_bytes();
        let start_loc = state_loc(module, &init);
        let start_hops = init.meta.hops;
        let start_depth = init.depth;
        let record = SegRecord {
            key: root_key.clone(),
            seg: 0,
            exec,
            solver: solver_delta(&boot_solver.stats(), &sv0),
            locals_used: next_local,
            buffer: buf.map(MemRecorder::into_buffer),
            lineage: lineage.take_captured(),
            start_loc,
            start_hops,
            start_depth,
            end: SegEnd::Paused { est },
        };
        (record, init)
    };
    let (boot_record, init) = boot_record;

    let mut walker = Walker {
        rec,
        lineage_on,
        budget: config.budget,
        limited: config.budget.is_limited(),
        budget_telemetry: config.budget.is_limited() && rec.enabled(),
        wall_clock: clock_mode == ClockMode::Wall,
        last_budget_note: None,
        max_steps: config.max_steps,
        memory_budget: config.memory_budget,
        max_live_states: config.max_live_states,
        time_budget: config.time_budget,
        start,
        cancel: eng.cancel.clone(),
        nodes: HashMap::from([(
            root_key.clone(),
            NodeInfo {
                trace_id: 0,
                parent_trace: 0,
                est: 0,
            },
        )]),
        stack: vec![(root_key.clone(), 0)],
        ready: HashMap::new(),
        suspended: Vec::new(),
        exec: ExecStats::default(),
        solver: SolverStats::default(),
        fresh_states: 0,
        paths_completed: 0,
        unconfirmed: 0,
        live: 1,
        live_mem: 0,
        peak_live: 1,
        peak_mem: 0,
        end: None,
    };
    walker.deliver(boot_record);
    walker.advance();

    // The engine's own solver stays the pristine base for resumed
    // phases (the bootstrap's queries live in `boot_solver`).
    let base_solver = eng.solver.clone();
    let mut tasks: Vec<Task> = vec![Task {
        key: root_key,
        seg: 1,
        state: init,
        solver: boot_solver,
    }];
    let mut phase: u32 = 0;
    while walker.end.is_none() && !tasks.is_empty() {
        let shared = PhaseShared {
            stop: AtomicBool::new(false),
            tripped: Mutex::new(None),
            start,
            cancel: eng.cancel.clone(),
            time_budget: config.time_budget,
        };
        run_phase(
            &sc,
            &shared,
            &mut walker,
            &mut worker_res,
            tasks,
            config.steal_seed,
        );
        tasks = Vec::new();
        if walker.end.is_none() && !walker.suspended.is_empty() {
            phase += 1;
            tasks = resume_tasks(&mut walker, module, &base_solver, phase);
        }
    }
    drop(worker_res);

    let mut stats = EngineStats {
        exec: walker.exec,
        paths_completed: walker.paths_completed,
        states_created: 1 + walker.fresh_states,
        left_suspended: walker.suspended.len() as u64 + walker.unconfirmed,
        paths_explored: walker.paths_completed
            + walker.exec.pruned
            + walker.live as u64
            + walker.unconfirmed,
        peak_live_states: walker.peak_live,
        peak_memory: walker.peak_mem,
        solver: {
            let mut sv = solver_before;
            solver_accum(&mut sv, &walker.solver);
            sv
        },
    };

    let outcome = match walker.end.take() {
        Some(WalkEnd::Found(state, fault, model)) => {
            stats.paths_explored += 1;
            RunOutcome::Found(Box::new(eng.report(*state, fault, model, &inputs_map)))
        }
        Some(WalkEnd::Exhausted(r)) => RunOutcome::Exhausted(r),
        None => RunOutcome::Completed,
    };

    record_run_telemetry(rec, &stats, &solver_before, &outcome);
    rec.span_close(run_span);
    Some(EngineReport {
        outcome,
        stats,
        wall_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_delta_and_accum_round_trip() {
        let base = SolverStats {
            queries: 5,
            nodes: 100,
            indep_components: 2,
            ..Default::default()
        };
        let mut now = base;
        now.queries = 9;
        now.nodes = 150;
        now.indep_components = 3;
        now.indep_queries = 4;
        let d = solver_delta(&now, &base);
        assert_eq!(d.queries, 4);
        assert_eq!(d.nodes, 50);
        assert_eq!(d.indep_components, 1);
        assert_eq!(d.indep_queries, 4);
        let mut acc = base;
        solver_accum(&mut acc, &d);
        assert_eq!(acc.queries, now.queries);
        assert_eq!(acc.nodes, now.nodes);
        assert_eq!(acc.indep_components, now.indep_components);
        assert_eq!(acc.indep_queries, now.indep_queries);
    }

    #[test]
    fn exec_accum_sums_fieldwise() {
        let mut a = ExecStats::default();
        let b = ExecStats {
            steps: 10,
            forks: 2,
            pruned: 1,
            suspended: 3,
            concretizations: 4,
            strlen_forks: 5,
        };
        exec_accum(&mut a, &b);
        exec_accum(&mut a, &b);
        assert_eq!(a.steps, 20);
        assert_eq!(a.forks, 4);
        assert_eq!(a.pruned, 2);
        assert_eq!(a.suspended, 6);
        assert_eq!(a.concretizations, 8);
        assert_eq!(a.strlen_forks, 10);
    }
}
