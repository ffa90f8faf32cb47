//! Trace timestamping: wall-clock or deterministic step-count time.
//!
//! Every trace event carries a `t` field in *ticks*. A [`Clock`] decides
//! what a tick means:
//!
//! * [`Clock::wall`] — microseconds since the clock was created. Traces
//!   reflect real latency but differ between runs.
//! * [`Clock::steps`] — a logical counter advanced by the instrumented
//!   code itself (the symbolic executor reports its instruction count).
//!   Two runs with the same seed produce byte-identical traces.
//!
//! Deterministic mode also disables wall-clock-derived metric
//! observations (see `Recorder::observe_wall`), so nothing
//! non-reproducible leaks into the trace.

use std::cell::Cell;
use std::time::Instant;

/// What one trace tick means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Ticks are microseconds of wall-clock time since clock creation.
    Wall,
    /// Ticks are a logical counter advanced via [`Clock::advance`]
    /// (the executor's step count); fully deterministic.
    Steps,
}

/// The time source stamped onto every trace event.
#[derive(Debug)]
pub struct Clock {
    mode: ClockMode,
    origin: Instant,
    logical: Cell<u64>,
}

impl Clock {
    /// A wall-clock time source (microsecond ticks).
    pub fn wall() -> Clock {
        Clock {
            mode: ClockMode::Wall,
            origin: Instant::now(),
            logical: Cell::new(0),
        }
    }

    /// A deterministic step-count time source. Starts at tick 0 and only
    /// moves when [`Clock::advance`] is called.
    pub fn steps() -> Clock {
        Clock {
            mode: ClockMode::Steps,
            origin: Instant::now(),
            logical: Cell::new(0),
        }
    }

    /// The clock's mode.
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// True when ticks are fully reproducible (step-count mode).
    pub fn is_deterministic(&self) -> bool {
        self.mode == ClockMode::Steps
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        match self.mode {
            ClockMode::Wall => self.origin.elapsed().as_micros() as u64,
            ClockMode::Steps => self.logical.get(),
        }
    }

    /// Advances the logical clock by `delta` ticks (step-count mode
    /// only; a no-op for wall clocks).
    pub fn advance(&self, delta: u64) {
        if self.mode == ClockMode::Steps {
            self.logical.set(self.logical.get().saturating_add(delta));
        }
    }

    /// The label written into the trace's meta event.
    pub fn label(&self) -> &'static str {
        match self.mode {
            ClockMode::Wall => "wall_us",
            ClockMode::Steps => "steps",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_clock_is_manual_and_monotone() {
        let c = Clock::steps();
        assert_eq!(c.now(), 0);
        c.advance(5);
        c.advance(3);
        assert_eq!(c.now(), 8);
        assert!(c.is_deterministic());
        assert_eq!(c.label(), "steps");
    }

    #[test]
    fn wall_clock_ignores_advance() {
        let c = Clock::wall();
        let before = c.now();
        c.advance(1_000_000);
        assert!(c.now() < before + 1_000_000);
        assert!(!c.is_deterministic());
        assert_eq!(c.mode(), ClockMode::Wall);
    }
}
