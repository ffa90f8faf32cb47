//! `testkit` — generative differential testing and fault injection for
//! the whole StatSym pipeline (DESIGN.md §11).
//!
//! The paper's core claim (§4, Fig. 5) is an *equivalence*: guided
//! symbolic execution finds the same vulnerable paths as exhaustive
//! exploration, only faster. The hand-written tests pin that on a few
//! fixed programs; this crate checks it at scale:
//!
//! * [`gen`] mints well-typed minic programs from integer seeds,
//!   composing the five [`concrete::FaultKind`] classes behind input
//!   guards;
//! * [`oracles`] runs three differential/metamorphic oracles per
//!   program — exhaustive↔guided completeness, model→VM replay, and
//!   cache-configuration invariance;
//! * [`chaos`] injects deterministic solver/cache faults and asserts
//!   the engine degrades gracefully (suspends or exhausts, never
//!   panics, never reports a wrong fault);
//! * [`mod@shrink`] greedily reduces a failing program to a minimal
//!   reproducer, reported with its seed by [`runner`] and the
//!   `statsym-testkit` binary.
//!
//! Everything is seed-deterministic: a CI failure prints `--seeds N..M`
//! plus the shrunk source, and that exact invocation reproduces it.

pub mod chaos;
pub mod corpus;
pub mod gen;
pub mod oracles;
pub mod runner;
pub mod shrink;

pub use chaos::{ChaosCache, ChaosSchedule};
pub use gen::{generate, sample_inputs, FaultClass, Generated};
pub use oracles::{Oracle, OracleFailure, OracleOutcome};
pub use runner::{run_seeds, RunnerConfig, RunnerReport};
pub use shrink::shrink;
