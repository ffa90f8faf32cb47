//! StatSym core — the paper's contribution: statistics-guided symbolic
//! execution for vulnerable path discovery (DSN 2017).
//!
//! The pipeline has four stages, mirroring Figure 3 of the paper:
//!
//! 1. **Log corpus** ([`corpus`]) — sampled function-boundary logs from
//!    correct and faulty executions (produced by `concrete::Monitor`).
//! 2. **Predicate construction and ranking** ([`predicate`]) — for every
//!    (location, variable) pair, the threshold predicate that optimally
//!    separates faulty from correct runs (Eq. 1), scored by
//!    `|P(x|C) − P(x|F)|` (Eq. 2).
//! 3. **Candidate path construction** ([`transition`], [`skeleton`],
//!    [`detour`], [`candidate`]) — association-rule mining of location
//!    transitions (Eq. 3), a maximum-average-score acyclic *skeleton*
//!    from program entry to the failure point, greedy *detours* to
//!    high-score predicates off the skeleton, and their ranked joins.
//! 4. **Statistics-guided symbolic execution** ([`guidance`],
//!    [`pipeline`]) — a `symex::EventHook` implementing
//!    the paper's inter-function (τ-hop) and intra-function (predicate
//!    constraint) guidance, plus the candidate loop that attempts ranked
//!    candidate paths until the vulnerable path is verified.
//!
//! # Example
//!
//! ```no_run
//! use statsym_core::pipeline::{StatSym, StatSymConfig};
//!
//! # fn get_logs() -> Vec<concrete::ExecutionLog> { vec![] }
//! let program = minic::parse_program("fn main() { return; }")?;
//! let module = sir::lower(&program)?;
//! let logs = get_logs(); // monitored correct + faulty runs
//! let statsym = StatSym::new(StatSymConfig::default());
//! let report = statsym.run(&module, &logs);
//! if let Some(found) = report.found {
//!     println!("vulnerable path: {} events", found.trace.len());
//! }
//! # Ok::<(), minic::Error>(())
//! ```

pub mod candidate;
mod candidate_loop;
pub mod compound;
pub mod corpus;
pub mod detour;
pub mod guidance;
pub mod multi;
pub mod pipeline;
pub mod predicate;
pub mod skeleton;
pub mod transition;

pub use candidate::{CandidatePath, CandidateSet, PathNode};
pub use compound::{CompoundPredicate, CompoundSet};
pub use corpus::LogCorpus;
pub use detour::{Detour, DetourKind};
pub use guidance::{GuidanceConfig, GuidedHook};
pub use multi::MultiReport;
pub use pipeline::{AnalysisReport, StatSym, StatSymConfig, StatSymReport};
pub use predicate::{PredOp, Predicate, PredicateSet};
pub use skeleton::Skeleton;
pub use transition::TransitionGraph;
