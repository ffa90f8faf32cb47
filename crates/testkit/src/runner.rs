//! Seed-range soak driver behind the `statsym-testkit` binary.
//!
//! For each seed: generate a program, run the three differential oracles
//! and the chaos oracle, and on any violation greedily shrink the
//! program to a minimal reproducer. Failures carry the seed, the
//! violated oracle, and the shrunk source, so the fix-reproduce loop is
//! `statsym-testkit --seeds N..N+1`.

use crate::chaos::{check_chaos, ChaosStats};
use crate::gen::{generate, FaultClass};
use crate::oracles::{budget, check, check_all, OracleOutcome};
use crate::shrink::shrink;
use minic::ast::Program;
use minic::print_program;
use symex::Engine;

/// After this many failures the soak stops early: dozens of failures
/// are usually one bug, and shrinking each costs real time.
const MAX_FAILURES: usize = 3;

/// What to soak.
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// First seed (inclusive).
    pub start: u64,
    /// Last seed (exclusive).
    pub end: u64,
    /// Replace the real oracles with a deliberately broken one that
    /// rejects any program with a reachable fault — a demonstration
    /// (and self-test) of the shrink-and-report path.
    pub sabotage: bool,
    /// Also run the chaos (fault-injection) oracle per seed.
    pub chaos: bool,
    /// Log per-seed outcomes to stderr.
    pub verbose: bool,
    /// Only soak seeds whose planted fault class matches (per-family
    /// sweeps); `None` soaks every seed.
    pub class: Option<FaultClass>,
}

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            start: 0,
            end: 100,
            sabotage: false,
            chaos: true,
            verbose: false,
            class: None,
        }
    }
}

/// One shrunk, reproducible oracle violation.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The generating seed.
    pub seed: u64,
    /// Label of the violated oracle.
    pub oracle: String,
    /// What diverged.
    pub message: String,
    /// Minimal program that still violates the oracle.
    pub shrunk_source: String,
}

impl std::fmt::Display for SeedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "FAIL seed={} oracle={}", self.seed, self.oracle)?;
        writeln!(f, "  {}", self.message)?;
        writeln!(
            f,
            "  reproduce: statsym-testkit --seeds {}..{}",
            self.seed,
            self.seed + 1
        )?;
        writeln!(f, "  minimal reproducer:")?;
        for line in self.shrunk_source.lines() {
            writeln!(f, "    {line}")?;
        }
        Ok(())
    }
}

/// Aggregate soak result.
#[derive(Debug, Clone, Default)]
pub struct RunnerReport {
    /// Seeds actually executed (the soak stops early after three
    /// failures).
    pub seeds_run: u64,
    /// Oracle checks that engaged and held.
    pub passes: u64,
    /// Oracle checks that were vacuous for their program.
    pub vacuous: u64,
    /// Faults the chaos oracle's cache leg injected, summed over seeds.
    pub chaos: ChaosStats,
    /// Shrunk violations.
    pub failures: Vec<SeedFailure>,
}

impl RunnerReport {
    /// True when no oracle was violated.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl std::fmt::Display for RunnerReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "testkit: {} seed(s), {} oracle pass(es), {} vacuous, {} failure(s)",
            self.seeds_run,
            self.passes,
            self.vacuous,
            self.failures.len()
        )?;
        writeln!(
            f,
            "chaos: {} injected miss(es), {} dropped publish(es)",
            self.chaos.injected_misses, self.chaos.dropped_publishes
        )?;
        for failure in &self.failures {
            writeln!(f)?;
            write!(f, "{failure}")?;
        }
        Ok(())
    }
}

/// A deliberately wrong oracle: claims generated programs are
/// fault-free. Almost every seed violates it, and the shrinker reduces
/// the violation to the bare faulting core — which is exactly what a
/// real oracle failure report should look like.
fn sabotage_check(program: &Program) -> Result<(), String> {
    let module = sir::lower(program).map_err(|e| format!("lowering failed: {e}"))?;
    let report = Engine::new(&module, budget()).run();
    match report.outcome.found() {
        Some(found) => Err(format!(
            "sabotage oracle (intentionally wrong): program faults with {:?} in `{}`",
            found.fault.kind, found.fault.func
        )),
        None => Ok(()),
    }
}

fn record_failure(
    report: &mut RunnerReport,
    program: &Program,
    seed: u64,
    oracle: &str,
    message: String,
    still_fails: &mut dyn FnMut(&Program) -> bool,
) {
    let shrunk = shrink(program, still_fails);
    report.failures.push(SeedFailure {
        seed,
        oracle: oracle.to_string(),
        message,
        shrunk_source: print_program(&shrunk),
    });
}

/// Runs the soak described by `config`.
pub fn run_seeds(config: &RunnerConfig) -> RunnerReport {
    let mut report = RunnerReport::default();
    for seed in config.start..config.end {
        if report.failures.len() >= MAX_FAILURES {
            break;
        }
        let g = generate(seed);
        if config.class.is_some_and(|c| c != g.class) {
            continue;
        }
        report.seeds_run += 1;

        if config.sabotage {
            match sabotage_check(&g.program) {
                Ok(()) => report.passes += 1,
                Err(message) => record_failure(
                    &mut report,
                    &g.program,
                    seed,
                    "sabotage",
                    message,
                    &mut |q| sabotage_check(q).is_err(),
                ),
            }
            continue;
        }

        match check_all(&g.program, seed) {
            Ok(outcomes) => {
                for outcome in &outcomes {
                    match outcome {
                        OracleOutcome::Pass => report.passes += 1,
                        OracleOutcome::Vacuous(_) => report.vacuous += 1,
                    }
                }
                if config.verbose {
                    eprintln!(
                        "seed {seed} [{}]: {} oracle(s) engaged",
                        g.class.label(),
                        outcomes
                            .iter()
                            .filter(|o| matches!(o, OracleOutcome::Pass))
                            .count()
                    );
                }
            }
            Err(failure) => {
                let oracle = failure.oracle;
                record_failure(
                    &mut report,
                    &g.program,
                    seed,
                    oracle.label(),
                    failure.message,
                    &mut |q| check(oracle, q, seed).is_err(),
                );
                continue;
            }
        }

        if config.chaos {
            match check_chaos(&g.program, seed) {
                Ok(injected) => {
                    report.passes += 1;
                    report.chaos.injected_misses += injected.injected_misses;
                    report.chaos.dropped_publishes += injected.dropped_publishes;
                }
                Err(message) => {
                    record_failure(&mut report, &g.program, seed, "chaos", message, &mut |q| {
                        check_chaos(q, seed).is_err()
                    })
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_passes() {
        let report = run_seeds(&RunnerConfig {
            start: 0,
            end: 8,
            ..RunnerConfig::default()
        });
        assert!(report.passed(), "{report}");
        assert_eq!(report.seeds_run, 8);
        assert!(report.passes > 0, "no oracle ever engaged: {report}");
    }

    #[test]
    fn class_filter_soaks_only_matching_seeds() {
        let report = run_seeds(&RunnerConfig {
            start: 0,
            end: 64,
            chaos: false,
            class: Some(FaultClass::UseAfterFree),
            ..RunnerConfig::default()
        });
        assert!(report.passed(), "{report}");
        let expected = (0..64)
            .filter(|&s| generate(s).class == FaultClass::UseAfterFree)
            .count() as u64;
        assert!(expected > 0, "no uaf seed in 0..64");
        assert_eq!(report.seeds_run, expected);
    }

    #[test]
    fn sabotage_produces_shrunk_reproducers() {
        let report = run_seeds(&RunnerConfig {
            start: 0,
            end: 32,
            sabotage: true,
            ..RunnerConfig::default()
        });
        assert!(!report.passed(), "sabotage oracle never fired");
        let failure = &report.failures[0];
        assert_eq!(failure.oracle, "sabotage");
        // The reproducer is valid minic and still violates the oracle.
        let program = minic::parse_program(&failure.shrunk_source)
            .unwrap_or_else(|e| panic!("shrunk source no longer parses: {e}"));
        assert!(sabotage_check(&program).is_err());
        // And it is smaller than the original.
        let original = print_program(&generate(failure.seed).program);
        assert!(
            failure.shrunk_source.len() < original.len(),
            "shrinker made no progress: {} vs {}",
            failure.shrunk_source.len(),
            original.len()
        );
    }
}
