//! Source-level cost attribution (`attr.*` counters) and solver
//! provenance context.
//!
//! With [`crate::EngineConfig::attribution`] on, every executed
//! instruction is billed to the MiniC source line about to run: the
//! step itself plus the forks, suspensions, solver queries, solver
//! search nodes, and (wall-clock traces only) solver µs the step
//! caused. Totals accumulate in a per-run map and flush as
//! `attr.<function>:<line>.<dim>` counters. The final counter section
//! dumps sorted, so per-line totals are byte-identical run to run.
//!
//! With [`crate::EngineConfig::provenance`] on, the same pre-step hook
//! pushes the originating state id and source location into the solver,
//! which stamps them onto the canonical `query` events it emits.

use crate::executor::ExecStats;
use crate::state::State;
use sir::Module;
use solver::{Solver, SolverStats};
use statsym_telemetry::{names, ClockMode, Recorder};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Per-dimension cost cell for one source line, in
/// [`names::ATTR_DIMS`] order.
#[derive(Debug, Default, Clone, Copy)]
struct Cell {
    steps: u64,
    forks: u64,
    suspends: u64,
    queries: u64,
    nodes: u64,
    us: u64,
}

/// Pre-step snapshot: the source line about to execute plus the work
/// counters before the step ran.
pub(crate) struct PreStep {
    key: (u32, u32),
    steps: u64,
    forks: u64,
    suspended: u64,
    solver: SolverStats,
}

/// Step-granular cost attribution and solver provenance context. Inert
/// (the engine skips the per-step hooks entirely) unless at least one
/// of the two features is enabled.
pub(crate) struct StepAttr {
    attribution: bool,
    provenance: bool,
    map: HashMap<(u32, u32), Cell>,
    cur_key: (u32, u32),
    cur_loc: String,
}

/// Sentinel function id for a state whose call stack has fully unwound.
const EXIT_KEY: (u32, u32) = (u32::MAX, 0);

impl StepAttr {
    pub(crate) fn new(attribution: bool, provenance: bool) -> StepAttr {
        StepAttr {
            attribution,
            provenance,
            map: HashMap::new(),
            cur_key: (u32::MAX, u32::MAX),
            cur_loc: String::new(),
        }
    }

    /// Whether the per-step hooks need to run at all.
    pub(crate) fn active(&self) -> bool {
        self.attribution || self.provenance
    }

    /// Called immediately before executing one instruction of `state`
    /// (or before a solver call made on the state's behalf): resolves
    /// the current source location, pushes the provenance origin into
    /// the solver, and snapshots the work counters. The location string
    /// is cached, so consecutive steps on the same line allocate
    /// nothing.
    pub(crate) fn pre_step(
        &mut self,
        module: &Module,
        state: &State,
        solver: &mut Solver,
        exec: &ExecStats,
    ) -> PreStep {
        self.pre_at(loc_key(module, state), module, state, solver, exec)
    }

    /// Like [`StepAttr::pre_step`], for a solver call made on behalf of
    /// a state that faulted at source line `line` of its current
    /// function. A fault child forked by an instruction already sits at
    /// the next one, so its own position would name the wrong line.
    pub(crate) fn pre_fault(
        &mut self,
        module: &Module,
        state: &State,
        line: u32,
        solver: &mut Solver,
        exec: &ExecStats,
    ) -> PreStep {
        let key = state
            .mach
            .frames
            .last()
            .map_or(EXIT_KEY, |f| (f.func.0, line));
        self.pre_at(key, module, state, solver, exec)
    }

    /// Resolves `key` to its location string, pushes the provenance
    /// origin and snapshots the work counters.
    fn pre_at(
        &mut self,
        key: (u32, u32),
        module: &Module,
        state: &State,
        solver: &mut Solver,
        exec: &ExecStats,
    ) -> PreStep {
        if key != self.cur_key {
            self.cur_key = key;
            self.cur_loc.clear();
            if key == EXIT_KEY {
                self.cur_loc.push_str("exit:0");
            } else {
                let _ = write!(
                    self.cur_loc,
                    "{}:{}",
                    module.func(sir::FuncId(key.0)).name,
                    key.1
                );
            }
        }
        if self.provenance {
            solver.set_query_origin(state.id, &self.cur_loc);
        }
        PreStep {
            key,
            steps: exec.steps,
            forks: exec.forks,
            suspended: exec.suspended,
            solver: solver.stats(),
        }
    }

    /// Bills the work done since `pre` to the pre-step source line.
    pub(crate) fn post_step(&mut self, pre: PreStep, solver: &SolverStats, exec: &ExecStats) {
        if !self.attribution {
            return;
        }
        let cell = self.map.entry(pre.key).or_default();
        cell.steps += exec.steps - pre.steps;
        cell.forks += exec.forks - pre.forks;
        cell.suspends += exec.suspended - pre.suspended;
        cell.queries += solver.queries - pre.solver.queries;
        cell.nodes += solver.nodes - pre.solver.nodes;
        cell.us += solver.query_us - pre.solver.query_us;
    }

    /// Emits the accumulated cells as `attr.<function>:<line>.<dim>`
    /// counter adds and clears the map. Zero dims are skipped (the
    /// zero-vs-absent convention) and `.us` is emitted only under a
    /// wall clock — it is wall-measured even under the step clock, so a
    /// deterministic trace must not carry it. Emission order cannot
    /// affect trace bytes (counters dump sorted by name at finish), but
    /// keys are sorted anyway so the call sequence itself is
    /// deterministic.
    pub(crate) fn flush(&mut self, module: &Module, rec: &dyn Recorder) {
        if !self.attribution || self.map.is_empty() {
            return;
        }
        let wall = rec.clock_mode() == ClockMode::Wall;
        let mut keys: Vec<(u32, u32)> = self.map.keys().copied().collect();
        keys.sort_unstable();
        let mut name = String::new();
        for key in keys {
            let cell = self.map[&key];
            let func = if key == EXIT_KEY {
                "exit"
            } else {
                module.func(sir::FuncId(key.0)).name.as_str()
            };
            let dims = [
                cell.steps,
                cell.forks,
                cell.suspends,
                cell.queries,
                cell.nodes,
                cell.us,
            ];
            for (dim, v) in names::ATTR_DIMS.iter().zip(dims) {
                if v == 0 || (*dim == "us" && !wall) {
                    continue;
                }
                name.clear();
                let _ = write!(name, "{}{}:{}.{}", names::ATTR_PREFIX, func, key.1, dim);
                rec.counter_add(&name, v);
            }
        }
        self.map.clear();
    }
}

/// The `(function, source line)` about to execute: the span of the next
/// instruction, or of the block terminator once the instruction index
/// has run past the block body.
fn loc_key(module: &Module, state: &State) -> (u32, u32) {
    match state.mach.frames.last() {
        Some(f) => {
            let func = module.func(f.func);
            let block = &func.blocks[f.block.index()];
            let line = match block.insts.get(f.idx) {
                Some((_, span)) => span.line,
                None => block.term.1.line,
            };
            (f.func.0, line)
        }
        None => EXIT_KEY,
    }
}
