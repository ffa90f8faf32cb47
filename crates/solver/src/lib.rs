//! A from-scratch constraint solver over bounded integer terms.
//!
//! This crate replaces the role STP plays for KLEE in the paper: deciding
//! the satisfiability of path conditions and producing concrete models
//! (test inputs). Path conditions produced by the symbolic executor are
//! conjunctions of *atomic comparisons* over integer terms (MiniC's
//! `&&`/`||` are lowered to control flow), so the solver implements:
//!
//! 1. **Constraint-independence slicing** — split each conjunction into
//!    components that share no variables and decide each one separately,
//!    memoised under its own fingerprint (KLEE's default optimisation).
//!    A [`Partition`] carries the split incrementally, so a path
//!    condition that grows by one conjunct is never re-partitioned, and
//!    records which components are still undecided, so a feasibility
//!    query decides only what the new conjunct changed;
//! 2. **Interval (bounds) propagation** — HC4-style revise over the term
//!    DAG until fixpoint, which alone decides the vast majority of the
//!    byte/threshold constraints symbolic string exploration generates;
//! 3. **Backtracking search** — branch on the smallest unfixed domain
//!    with a node budget, for the residual cases;
//! 4. **Model extraction** — a concrete assignment for every variable,
//!    verified by concrete evaluation before being returned.
//!
//! # Example
//!
//! ```
//! use solver::{CmpOp, Constraint, SatResult, Solver, TermCtx};
//!
//! let mut ctx = TermCtx::new();
//! let x = ctx.new_var("x", 0, 255);
//! let five = ctx.int(5);
//! let sum = ctx.add(x, five);
//! let limit = ctx.int(200);
//! // x + 5 >= 200
//! let c = Constraint::new(CmpOp::Le, limit, sum);
//! let mut solver = Solver::default();
//! match solver.check(&ctx, &[c]) {
//!     SatResult::Sat(model) => assert!(model.value_of(x, &ctx).unwrap() >= 195),
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

pub mod cache;
pub mod interval;
pub mod partition;
pub mod solve;
pub mod term;

pub use cache::{CachedVerdict, QueryCache, SharedCache, SharedCacheStats, U64Map};
pub use interval::Interval;
pub use partition::{Component, Partition, Segment};
pub use solve::{Model, SatResult, Solver, SolverConfig, SolverStats};
pub use term::{CmpOp, Constraint, Term, TermCtx, TermId, VarId};
