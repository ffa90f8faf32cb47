//! State schedulers (KLEE's "searchers").
//!
//! The engine is scheduler-agnostic: pure symbolic execution uses BFS,
//! DFS, or random selection (KLEE's built-ins, §VI-C of the paper), and
//! statistics-guided execution uses the priority scheduler fed by the
//! guidance hook (fewer diverted hops and deeper candidate-path progress
//! first).

use crate::state::State;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which scheduling policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// First-in first-out: breadth-first exploration.
    Bfs,
    /// Last-in first-out: depth-first exploration.
    Dfs,
    /// Uniformly random selection among pending states, seeded.
    Random {
        /// RNG seed (determinism).
        seed: u64,
    },
    /// Lowest priority value first (guided mode).
    Priority,
    /// KLEE-style coverage-optimized search: states whose next block has
    /// never been executed run first (the engine computes the priority).
    Coverage,
}

/// A pending-state queue.
pub trait Scheduler: std::fmt::Debug {
    /// Enqueues `state`. `priority` is meaningful only to
    /// [`SchedulerKind::Priority`] (lower runs sooner).
    fn push(&mut self, state: State, priority: i64);

    /// Removes and returns the next state to run.
    fn pop(&mut self) -> Option<State>;

    /// Number of pending states.
    fn len(&self) -> usize;

    /// True when no states are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds a scheduler of the given kind.
pub fn build_scheduler(kind: SchedulerKind) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Bfs => Box::new(BfsScheduler::default()),
        SchedulerKind::Dfs => Box::new(DfsScheduler::default()),
        SchedulerKind::Random { seed } => Box::new(RandomScheduler::new(seed)),
        SchedulerKind::Priority | SchedulerKind::Coverage => Box::new(PriorityScheduler::default()),
    }
}

/// FIFO scheduler (breadth-first).
#[derive(Debug, Default)]
pub struct BfsScheduler {
    queue: VecDeque<State>,
}

impl Scheduler for BfsScheduler {
    fn push(&mut self, state: State, _priority: i64) {
        self.queue.push_back(state);
    }

    fn pop(&mut self) -> Option<State> {
        self.queue.pop_front()
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// LIFO scheduler (depth-first).
#[derive(Debug, Default)]
pub struct DfsScheduler {
    stack: Vec<State>,
}

impl Scheduler for DfsScheduler {
    fn push(&mut self, state: State, _priority: i64) {
        self.stack.push(state);
    }

    fn pop(&mut self) -> Option<State> {
        self.stack.pop()
    }

    fn len(&self) -> usize {
        self.stack.len()
    }
}

/// Random-selection scheduler (KLEE's random state search).
#[derive(Debug)]
pub struct RandomScheduler {
    states: Vec<State>,
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a deterministic random scheduler.
    pub fn new(seed: u64) -> RandomScheduler {
        RandomScheduler {
            states: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn push(&mut self, state: State, _priority: i64) {
        self.states.push(state);
    }

    fn pop(&mut self) -> Option<State> {
        if self.states.is_empty() {
            return None;
        }
        let i = self.rng.random_range(0..self.states.len());
        Some(self.states.swap_remove(i))
    }

    fn len(&self) -> usize {
        self.states.len()
    }
}

/// Min-priority scheduler with FIFO tie-breaking; used by the
/// statistics-guided mode (priority = diverted hops, then negative
/// candidate-path progress). States are boxed, so a sift moves a key
/// and a pointer rather than a whole state.
#[derive(Debug, Default)]
pub struct PriorityScheduler {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

#[derive(Debug)]
struct Entry {
    key: Reverse<(i64, u64)>,
    state: Box<State>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl Scheduler for PriorityScheduler {
    fn push(&mut self, state: State, priority: i64) {
        self.seq += 1;
        self.heap.push(Entry {
            key: Reverse((priority, self.seq)),
            state: Box::new(state),
        });
    }

    fn pop(&mut self) -> Option<State> {
        self.heap.pop().map(|e| *e.state)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_state(id: u64) -> State {
        State {
            id,
            ..State::default()
        }
    }

    #[test]
    fn bfs_is_fifo() {
        let mut s = BfsScheduler::default();
        s.push(mk_state(1), 0);
        s.push(mk_state(2), 0);
        assert_eq!(s.pop().unwrap().id, 1);
        assert_eq!(s.pop().unwrap().id, 2);
        assert!(s.pop().is_none());
    }

    #[test]
    fn dfs_is_lifo() {
        let mut s = DfsScheduler::default();
        s.push(mk_state(1), 0);
        s.push(mk_state(2), 0);
        assert_eq!(s.pop().unwrap().id, 2);
        assert_eq!(s.pop().unwrap().id, 1);
    }

    #[test]
    fn priority_pops_lowest_first_fifo_ties() {
        let mut s = PriorityScheduler::default();
        s.push(mk_state(1), 5);
        s.push(mk_state(2), 1);
        s.push(mk_state(3), 5);
        assert_eq!(s.pop().unwrap().id, 2);
        assert_eq!(s.pop().unwrap().id, 1); // FIFO among equal priorities
        assert_eq!(s.pop().unwrap().id, 3);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_complete() {
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            for i in 0..10 {
                s.push(mk_state(i), 0);
            }
            let mut order = Vec::new();
            while let Some(st) = s.pop() {
                order.push(st.id);
            }
            order
        };
        assert_eq!(run(7), run(7));
        let mut sorted = run(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn build_scheduler_dispatches() {
        assert_eq!(build_scheduler(SchedulerKind::Bfs).len(), 0);
        assert!(build_scheduler(SchedulerKind::Random { seed: 1 }).is_empty());
    }
}
