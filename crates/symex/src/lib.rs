//! Symbolic execution engine over SIR — the KLEE-equivalent substrate.
//!
//! The engine interprets SIR symbolically, as the symbolic domain of the
//! shared interpreter `concrete::interp`: program inputs become solver
//! variables, branches on symbolic conditions fork states, and faults
//! (buffer overflows, assertion failures, division by zero) terminate
//! exploration with a complete vulnerable path, its constraints, and a
//! concrete triggering input generated from the solver model.
//!
//! The paper's statistics-guided mode plugs in through two seams:
//!
//! * [`hook::EventHook`] — called at every function entry/exit; may add
//!   *soft* constraints (intra-function predicate guidance) or suspend a
//!   state (inter-function hop guidance);
//! * [`scheduler::SchedulerKind::Priority`] — orders states by the
//!   hook-computed priority (fewer diverted hops first).
//!
//! Pure symbolic execution (the paper's KLEE baseline) is the same
//! engine with [`hook::NoGuidance`] and a BFS/DFS/random scheduler.
//!
//! # Example
//!
//! ```
//! use symex::{Engine, EngineConfig};
//!
//! let program = minic::parse_program(r#"
//!     fn main() {
//!         let n: int = input_int("n");
//!         assert(n < 1000);
//!     }
//! "#)?;
//! let module = sir::lower(&program)?;
//! let mut engine = Engine::new(&module, EngineConfig::default());
//! let report = engine.run();
//! let found = report.outcome.found().expect("assertion violable");
//! assert_eq!(found.fault.func, "main");
//! # Ok::<(), minic::Error>(())
//! ```

mod attr;
pub mod engine;
mod executor;
pub mod hook;
mod lineage;
pub mod scheduler;
pub mod state;
pub mod value;

pub use engine::{
    outcome_label, record_run_telemetry, Engine, EngineConfig, EngineReport, EngineStats,
    ExhaustionReason, FoundVulnerability, RunOutcome,
};
pub use executor::ExecStats;
pub use hook::{EventCtx, EventHook, GuidanceResult, NoGuidance};
pub use scheduler::{Scheduler, SchedulerKind};
pub use state::{PathCond, State, StateMeta, TraceList};
pub use value::{BoolVal, SymBuf, SymStr, SymValue};
