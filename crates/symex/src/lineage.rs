//! Exploration-tree lineage tracking.
//!
//! When [`crate::EngineConfig::lineage`] is on, the engine narrates the
//! life of every state it ever schedules as a stream of compact `state`
//! trace events: `root` and `fork` introduce tree nodes, `suspend.*` /
//! `resume` mark guidance decisions, and `exit` / `fault` /
//! `unconfirmed` / `kill` are terminal dispositions. The fate of every
//! successor of a step is narrated in one place, the engine's
//! `Frontier::settle`; only `root`, `resume` and `budget_exceeded` (the
//! state in flight when the step cap or the wall clock cuts the run)
//! are emitted elsewhere. `statsym-inspect tree` reconstructs the
//! exploration tree from this stream, and `report` its candidate-path
//! coverage.
//!
//! Two invariants the emitters uphold (and the strict trace parser
//! checks):
//!
//! * a node is introduced (`root`/`fork`) before any transition names
//!   it, so a prefix of the stream is always a valid forest — a
//!   crash-cut file reads at any cut point;
//! * trace-level state ids are allocated *at emission* through
//!   [`Recorder::alloc_state_id`], never taken from the engine's
//!   internal ids. Engine ids are assigned eagerly at fork sites and
//!   skip numbers for pruned children; trace ids are dense.
//!
//! Work attribution is differential: each event carries the steps,
//! solver search nodes, and solver wall-µs accumulated since the
//! *previous* lineage event. The engine executes one state at a time,
//! so the interval between two events is exactly the work done by the
//! state named in the second one (or by its parent, for `root`/`fork`
//! introductions — forks are billed to the fork site, which is the
//! parent's frontier).

use crate::state::State;
use sir::Module;
use statsym_telemetry::{lineage_op, LineageEvent, Recorder};
use std::collections::HashMap;

/// Cumulative work counters sampled at an emission point; the tracker
/// turns consecutive samples into per-event deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WorkSnapshot {
    /// Executor instructions retired so far.
    pub steps: u64,
    /// Solver search nodes visited so far.
    pub solver_nodes: u64,
    /// Wall-clock µs spent inside traced solver queries so far.
    pub solver_us: u64,
}

/// One tracked tree node: the engine-local id maps to the trace-level
/// id the recorder allocated, plus the parent's trace id for rendering
/// transitions without a second lookup.
#[derive(Debug, Clone, Copy)]
struct Node {
    trace_id: u64,
    parent: u64,
}

/// Per-run lineage emitter. Inert (all methods early-return) unless
/// constructed enabled, so the default engine path pays one branch per
/// would-be event and allocates nothing.
pub(crate) struct Lineage {
    on: bool,
    nodes: HashMap<u64, Node>,
    last: WorkSnapshot,
}

impl Lineage {
    /// Creates a tracker. `base` is the work already charged before this
    /// run started (a reused solver's counters), so the first event's
    /// deltas cover only this run.
    pub fn new(on: bool, base: WorkSnapshot) -> Lineage {
        Lineage {
            on,
            nodes: HashMap::new(),
            last: base,
        }
    }

    /// Whether lineage events are being emitted.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Emits one lineage event for the engine-local state `local_id`.
    ///
    /// For introducing ops (`root`/`fork`) a fresh trace id is drawn
    /// from the recorder and bound to `local_id`; `parent_local` names
    /// the fork parent (`None` for roots). For transitions the bound
    /// trace id is reused and `parent_local` is ignored. Transitions on
    /// ids that were never introduced (the defensive case; it would
    /// fail strict parsing) are dropped.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &mut self,
        rec: &dyn Recorder,
        op: &'static str,
        local_id: u64,
        parent_local: Option<u64>,
        loc: &str,
        hops: u32,
        depth: u32,
        cum: WorkSnapshot,
    ) {
        if !self.on {
            return;
        }
        let (id, parent) = if lineage_op::introduces(op) {
            let parent = parent_local
                .and_then(|p| self.nodes.get(&p))
                .map_or(0, |n| n.trace_id);
            let trace_id = rec.alloc_state_id();
            self.nodes.insert(local_id, Node { trace_id, parent });
            (trace_id, parent)
        } else {
            match self.nodes.get(&local_id) {
                Some(n) => (n.trace_id, n.parent),
                None => return,
            }
        };
        let delta = WorkSnapshot {
            steps: cum.steps.saturating_sub(self.last.steps),
            solver_nodes: cum.solver_nodes.saturating_sub(self.last.solver_nodes),
            solver_us: cum.solver_us.saturating_sub(self.last.solver_us),
        };
        self.last = cum;
        rec.state(&LineageEvent {
            op,
            id,
            parent,
            loc,
            hops,
            depth,
            steps: delta.steps,
            snodes: delta.solver_nodes,
            solver_us: delta.solver_us,
        });
    }
}

/// The lineage location label for a state: `{function}:b{block}`, or
/// `exit` once the call stack has fully unwound (terminal `exit` events
/// fire after the last `Return` pops the final frame).
pub(crate) fn state_loc(module: &Module, state: &State) -> String {
    match state.mach.frames.last() {
        Some(f) => format!("{}:b{}", module.func(f.func).name, f.block.index()),
        None => "exit".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{Clock, MemRecorder, TraceEvent};

    fn work(steps: u64, nodes: u64, us: u64) -> WorkSnapshot {
        WorkSnapshot {
            steps,
            solver_nodes: nodes,
            solver_us: us,
        }
    }

    fn state_events(events: &[TraceEvent]) -> Vec<&TraceEvent> {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::State { .. }))
            .collect()
    }

    #[test]
    fn disabled_tracker_emits_nothing() {
        let rec = MemRecorder::new(Clock::steps());
        let mut lin = Lineage::new(false, WorkSnapshot::default());
        lin.emit(
            &rec,
            lineage_op::ROOT,
            0,
            None,
            "main:b0",
            0,
            0,
            work(10, 5, 1),
        );
        assert!(state_events(&rec.finish()).is_empty());
    }

    #[test]
    fn ids_are_dense_and_deltas_differential() {
        let rec = MemRecorder::new(Clock::steps());
        // Pretend 100 steps happened before this run started.
        let mut lin = Lineage::new(true, work(100, 50, 0));
        lin.emit(
            &rec,
            lineage_op::ROOT,
            0,
            None,
            "main:b0",
            0,
            0,
            work(100, 50, 0),
        );
        // Engine ids skip 7 (a pruned child); trace ids must not.
        lin.emit(
            &rec,
            lineage_op::FORK,
            8,
            Some(0),
            "main:b2",
            0,
            1,
            work(130, 80, 0),
        );
        lin.emit(
            &rec,
            lineage_op::EXIT,
            8,
            None,
            "exit",
            0,
            1,
            work(150, 95, 0),
        );
        let events = rec.finish();
        let states: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::State {
                    op,
                    id,
                    par,
                    steps,
                    snodes,
                    ..
                } => Some((op.as_str(), *id, *par, *steps, *snodes)),
                _ => None,
            })
            .collect();
        assert_eq!(
            states,
            vec![
                ("root", 1, 0, 0, 0),
                ("fork", 2, 1, 30, 30),
                ("exit", 2, 1, 20, 15),
            ]
        );
    }

    #[test]
    fn transition_on_unknown_id_is_dropped() {
        let rec = MemRecorder::new(Clock::steps());
        let mut lin = Lineage::new(true, WorkSnapshot::default());
        lin.emit(
            &rec,
            lineage_op::KILL,
            42,
            None,
            "f:b1",
            0,
            0,
            work(5, 0, 0),
        );
        assert!(state_events(&rec.finish()).is_empty());
    }
}
