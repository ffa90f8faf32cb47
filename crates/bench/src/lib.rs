//! Experiment harness: runs the paper's evaluation (Tables I–V and
//! Figures 2, 7, 9, 10) against the `benchapps` targets and formats the
//! results in the paper's layout.
//!
//! Every binary in `src/bin/` regenerates exactly one table or figure;
//! `benches/paper.rs` wraps the same experiments in Criterion for timing
//! stability. Absolute times differ from the paper's 2008-era testbed —
//! the *shape* (who wins, who fails, which module dominates) is the
//! reproduction target; see EXPERIMENTS.md.

pub mod experiments;
pub mod format;
pub mod trace;

pub use experiments::{
    breakdown_table, decoy, pure_engine_config, run_pure, run_pure_traced, run_statsym,
    run_statsym_sized, run_statsym_traced, statsym_config, ExperimentResult, PureResult,
    DECOY_MAX_STEPS, DEFAULT_MEMORY_BUDGET, DEFAULT_PURE_TIME_BUDGET, DEFAULT_SAMPLING, PAPER_SEED,
};
pub use format::Table;
pub use trace::TraceSink;

/// The median (the upper one of an even count) and the minimum of a
/// bench's repeated samples.
///
/// # Panics
///
/// Panics when `xs` is empty.
pub fn median_min(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0])
}
