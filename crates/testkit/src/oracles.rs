//! The three differential oracles (DESIGN.md §11).
//!
//! Each oracle takes a *program* and a *seed* (driving log minting and
//! randomized schedules) and returns pass, vacuous-skip, or a failure
//! message. Oracles operate on [`minic::Program`] rather than
//! [`crate::gen::Generated`] so the shrinker can re-run them unchanged
//! on mutated programs.
//!
//! | oracle | claim |
//! |---|---|
//! | replay | every solver model the engine reports crashes the VM with the same fault class at the same function |
//! | completeness | any fault exhaustive search finds on a candidate-covered path, guided search finds within the same budget (paper Fig. 5) |
//! | cache | a shared verdict cache (off / empty / pre-warmed) never changes exploration, only solver work |

use crate::gen::FaultClass;
use concrete::{ExecutionLog, InputMap, InputValue, Vm, VmConfig};
use minic::ast::{Block, Expr, ExprKind, Program, Stmt, StmtKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sir::Module;
use solver::{QueryCache, SharedCache};
use statsym_core::pipeline::{StatSym, StatSymConfig};
use std::rc::Rc;
use symex::{
    outcome_label, Engine, EngineConfig, EngineReport, EngineStats, FoundVulnerability,
    SchedulerKind,
};

/// The three differential oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Solver-model → concrete-VM replay equivalence.
    Replay,
    /// Guided-vs-exhaustive completeness.
    Completeness,
    /// Cache-on/off metamorphic invariance.
    Cache,
}

impl Oracle {
    /// All oracles, in the order the runner executes them.
    pub const ALL: [Oracle; 3] = [Oracle::Replay, Oracle::Completeness, Oracle::Cache];

    /// Stable label for reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Oracle::Replay => "replay",
            Oracle::Completeness => "completeness",
            Oracle::Cache => "cache",
        }
    }
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A pass, or a documented reason the oracle did not apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleOutcome {
    /// The property was exercised and held.
    Pass,
    /// The property was vacuous for this program (e.g. no fault is
    /// reachable, or the analysis produced no candidate paths).
    Vacuous(&'static str),
}

/// An oracle violation: which oracle, and what went wrong.
#[derive(Debug, Clone)]
pub struct OracleFailure {
    /// The violated oracle.
    pub oracle: Oracle,
    /// Human-readable description of the divergence.
    pub message: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.message)
    }
}

/// The engine budget oracles run generated programs under: generous
/// for their size and deterministic (no wall-clock cutoff).
pub fn budget() -> EngineConfig {
    EngineConfig {
        scheduler: SchedulerKind::Bfs,
        max_steps: 150_000,
        time_budget: None,
        ..EngineConfig::default()
    }
}

/// The pipeline configuration oracles use: the oracle [`budget`].
pub fn statsym_config() -> StatSymConfig {
    StatSymConfig {
        engine: budget(),
        ..StatSymConfig::default()
    }
}

/// Runs one oracle on a program.
pub fn check(oracle: Oracle, program: &Program, seed: u64) -> Result<OracleOutcome, OracleFailure> {
    let res = match oracle {
        Oracle::Replay => replay(program, seed),
        Oracle::Completeness => completeness(program, seed),
        Oracle::Cache => cache_metamorphic(program),
    };
    res.map_err(|message| OracleFailure { oracle, message })
}

/// Runs all three oracles; returns the first failure.
pub fn check_all(program: &Program, seed: u64) -> Result<Vec<OracleOutcome>, OracleFailure> {
    Oracle::ALL
        .iter()
        .map(|&o| check(o, program, seed))
        .collect()
}

// ---------------------------------------------------------------------
// Input discovery and log minting
// ---------------------------------------------------------------------

/// The kind of a named program input, recovered from the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// `input_int(name)`.
    Int,
    /// `input_str(name, cap)`.
    Str {
        /// Declared capacity.
        cap: u32,
    },
}

/// Scans a program for `input_int` / `input_str` calls. Works on any
/// well-typed program (including shrunk mutants), so oracles never
/// depend on generator metadata.
pub fn input_spec(program: &Program) -> Vec<(String, InputKind)> {
    let mut spec: Vec<(String, InputKind)> = Vec::new();
    let mut add = |name: &str, kind: InputKind| {
        if !spec.iter().any(|(n, _)| n == name) {
            spec.push((name.to_string(), kind));
        }
    };
    fn walk_expr(e: &Expr, add: &mut dyn FnMut(&str, InputKind)) {
        match &e.kind {
            ExprKind::Call { callee, args } => {
                if callee == "input_int" {
                    if let Some(ExprKind::Str(name)) = args.first().map(|a| &a.kind) {
                        add(name, InputKind::Int);
                    }
                } else if callee == "input_str" {
                    if let (Some(ExprKind::Str(name)), Some(ExprKind::Int(cap))) =
                        (args.first().map(|a| &a.kind), args.get(1).map(|a| &a.kind))
                    {
                        add(name, InputKind::Str { cap: *cap as u32 });
                    }
                }
                for a in args {
                    walk_expr(a, add);
                }
            }
            ExprKind::Bin { lhs, rhs, .. } => {
                walk_expr(lhs, add);
                walk_expr(rhs, add);
            }
            ExprKind::Un { operand, .. } => walk_expr(operand, add),
            _ => {}
        }
    }
    fn walk_block(b: &Block, add: &mut dyn FnMut(&str, InputKind)) {
        for s in &b.stmts {
            walk_stmt(s, add);
        }
    }
    fn walk_stmt(s: &Stmt, add: &mut dyn FnMut(&str, InputKind)) {
        match &s.kind {
            StmtKind::Let { init: Some(e), .. } => walk_expr(e, add),
            StmtKind::Let { init: None, .. } => {}
            StmtKind::Assign { value, .. } => walk_expr(value, add),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                walk_expr(cond, add);
                walk_block(then_blk, add);
                if let Some(e) = else_blk {
                    walk_block(e, add);
                }
            }
            StmtKind::While { cond, body } => {
                walk_expr(cond, add);
                walk_block(body, add);
            }
            StmtKind::Return(Some(e)) | StmtKind::Assert(e) | StmtKind::Expr(e) => {
                walk_expr(e, add)
            }
            _ => {}
        }
    }
    for f in &program.functions {
        walk_block(&f.body, &mut add);
    }
    spec
}

/// Samples a random assignment for an input spec.
fn sample_spec(spec: &[(String, InputKind)], rng: &mut StdRng) -> InputMap {
    let mut map = InputMap::new();
    for (name, kind) in spec {
        let v = match kind {
            InputKind::Int => InputValue::Int(rng.random_range(-6..=12i64)),
            InputKind::Str { cap } => {
                let len = rng.random_range(0..=*cap);
                InputValue::Str((0..len).map(|_| rng.random_range(b'a'..=b'z')).collect())
            }
        };
        map.insert(name.clone(), v);
    }
    map
}

/// A jittered neighbour of a known-faulty assignment: ints move by a
/// few units, strings grow or shrink by a couple of bytes. Produces
/// the correct/faulty populations clustered around the fault threshold
/// that the statistical stage needs, even for programs whose fault
/// region random sampling almost never hits.
fn jitter(base: &InputMap, rng: &mut StdRng) -> InputMap {
    let mut map = InputMap::new();
    for (name, value) in base {
        let v = match value {
            InputValue::Int(i) => InputValue::Int(i.wrapping_add(rng.random_range(-3..=3i64))),
            InputValue::Str(bytes) => {
                let delta = rng.random_range(-2..=2i64);
                let len = (bytes.len() as i64 + delta).max(0) as usize;
                let mut b = bytes.clone();
                while b.len() < len {
                    b.push(rng.random_range(b'a'..=b'z'));
                }
                b.truncate(len);
                InputValue::Str(b)
            }
        };
        map.insert(name.clone(), v);
    }
    map
}

/// Mints a log corpus for the statistical stages: random draws over the
/// input spec plus (when a known-faulty assignment is available)
/// jittered neighbours of it, until both populations are represented.
pub fn mint_logs(
    module: &Module,
    spec: &[(String, InputKind)],
    seed: u64,
    known_faulty: Option<&InputMap>,
) -> Vec<ExecutionLog> {
    const WANT: usize = 12;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xf00d);
    let mut logs = Vec::new();
    let (mut n_correct, mut n_faulty) = (0usize, 0usize);
    let mut push = |log: ExecutionLog, n_correct: &mut usize, n_faulty: &mut usize| {
        if log.is_faulty() {
            if *n_faulty < WANT {
                *n_faulty += 1;
                logs.push(log);
            }
        } else if *n_correct < WANT {
            *n_correct += 1;
            logs.push(log);
        }
    };
    if let Some(inputs) = known_faulty {
        if let Ok(run) = concrete::run_logged(module, inputs, 1.0, seed) {
            push(run.log, &mut n_correct, &mut n_faulty);
        }
    }
    for attempt in 0..600u64 {
        if n_correct >= WANT && n_faulty >= WANT {
            break;
        }
        let inputs = match known_faulty {
            Some(base) if attempt % 2 == 0 => jitter(base, &mut rng),
            _ => sample_spec(spec, &mut rng),
        };
        if let Ok(run) = concrete::run_logged(module, &inputs, 1.0, seed ^ (attempt + 1)) {
            push(run.log, &mut n_correct, &mut n_faulty);
        }
    }
    logs
}

// ---------------------------------------------------------------------
// Report comparison
// ---------------------------------------------------------------------

/// Field-wise equality of two found vulnerabilities.
pub fn compare_found(a: &FoundVulnerability, b: &FoundVulnerability) -> Result<(), String> {
    if a.fault != b.fault {
        return Err(format!("fault mismatch: {:?} vs {:?}", a.fault, b.fault));
    }
    if a.inputs != b.inputs {
        return Err(format!("input mismatch: {:?} vs {:?}", a.inputs, b.inputs));
    }
    if a.trace != b.trace {
        return Err(format!(
            "trace mismatch ({} vs {} events)",
            a.trace.len(),
            b.trace.len()
        ));
    }
    if a.rendered_constraints != b.rendered_constraints {
        return Err("constraint mismatch".to_string());
    }
    if a.depth != b.depth {
        return Err(format!("depth mismatch: {} vs {}", a.depth, b.depth));
    }
    Ok(())
}

/// Equality of the exploration-visible counters: everything the paths
/// taken determine. Wall times and solver *work* counters (search
/// nodes, cache traffic, peak memory) legitimately differ across cache
/// configurations and scheduling, so they are excluded.
pub fn compare_stats(a: &EngineStats, b: &EngineStats, label: &str) -> Result<(), String> {
    let fields: [(&str, u64, u64); 10] = [
        ("steps", a.exec.steps, b.exec.steps),
        ("paths_completed", a.paths_completed, b.paths_completed),
        ("paths_explored", a.paths_explored, b.paths_explored),
        ("states_created", a.states_created, b.states_created),
        ("left_suspended", a.left_suspended, b.left_suspended),
        (
            "peak_live_states",
            a.peak_live_states as u64,
            b.peak_live_states as u64,
        ),
        ("solver.queries", a.solver.queries, b.solver.queries),
        ("solver.sat", a.solver.sat, b.solver.sat),
        ("solver.unsat", a.solver.unsat, b.solver.unsat),
        ("solver.unknown", a.solver.unknown, b.solver.unknown),
    ];
    for (name, x, y) in fields {
        if x != y {
            return Err(format!("{label}: {name} diverged: {x} vs {y}"));
        }
    }
    if a.exec != b.exec {
        return Err(format!("{label}: executor counters diverged"));
    }
    Ok(())
}

/// Equality of two whole engine reports (outcome + exploration stats).
pub fn compare_engine_reports(
    a: &EngineReport,
    b: &EngineReport,
    label: &str,
) -> Result<(), String> {
    if outcome_label(&a.outcome) != outcome_label(&b.outcome) {
        return Err(format!(
            "{label}: outcome diverged: {} vs {}",
            outcome_label(&a.outcome),
            outcome_label(&b.outcome)
        ));
    }
    if let (Some(x), Some(y)) = (a.outcome.found(), b.outcome.found()) {
        compare_found(x, y).map_err(|e| format!("{label}: {e}"))?;
    }
    compare_stats(&a.stats, &b.stats, label)
}

// ---------------------------------------------------------------------
// The oracles
// ---------------------------------------------------------------------

fn lower(program: &Program) -> Result<Module, String> {
    sir::lower(program).map_err(|e| format!("lowering failed: {e}"))
}

/// Replays the found input of every scheduler's run on the concrete VM
/// and demands the same fault class at the same function.
fn replay(program: &Program, seed: u64) -> Result<OracleOutcome, String> {
    let module = lower(program)?;
    let mut any = false;
    for scheduler in [
        SchedulerKind::Bfs,
        SchedulerKind::Dfs,
        SchedulerKind::Random { seed },
    ] {
        let mut engine = Engine::new(
            &module,
            EngineConfig {
                scheduler,
                ..budget()
            },
        );
        let report = engine.run();
        let Some(found) = report.outcome.found() else {
            continue;
        };
        any = true;
        let vm = Vm::new(&module, VmConfig::default());
        let run = vm
            .run(&found.inputs)
            .map_err(|e| format!("{scheduler:?}: VM rejected model inputs: {e}"))?;
        let Some(fault) = run.outcome.fault() else {
            return Err(format!(
                "{scheduler:?}: symbolic fault {:?} in `{}` but model inputs {:?} \
                 complete concretely",
                found.fault.kind, found.fault.func, found.inputs
            ));
        };
        if FaultClass::of_kind(&fault.kind) != FaultClass::of_kind(&found.fault.kind) {
            return Err(format!(
                "{scheduler:?}: fault class diverged: symbolic {:?} vs concrete {:?}",
                found.fault.kind, fault.kind
            ));
        }
        if fault.func != found.fault.func {
            return Err(format!(
                "{scheduler:?}: fault site diverged: symbolic `{}` vs concrete `{}`",
                found.fault.func, fault.func
            ));
        }
    }
    Ok(if any {
        OracleOutcome::Pass
    } else {
        OracleOutcome::Vacuous("no scheduler found a fault")
    })
}

/// Exhaustive-vs-guided completeness: any fault exhaustive search finds
/// must also be found by the statistics-guided pipeline, within the
/// same engine budget, whenever the analysis yields candidate paths.
fn completeness(program: &Program, seed: u64) -> Result<OracleOutcome, String> {
    let module = lower(program)?;
    let exhaustive = Engine::new(&module, budget()).run();
    let Some(found) = exhaustive.outcome.found() else {
        return Ok(OracleOutcome::Vacuous("exhaustive search found no fault"));
    };
    let spec = input_spec(program);
    let logs = mint_logs(&module, &spec, seed, Some(&found.inputs));
    let statsym = StatSym::new(statsym_config());
    let analysis = statsym.analyze(&logs);
    if analysis
        .candidates
        .as_ref()
        .is_none_or(|c| c.paths.is_empty())
    {
        return Ok(OracleOutcome::Vacuous("analysis yields no candidate paths"));
    }
    let report = statsym.run_with_analysis(&module, analysis);
    let Some(guided) = &report.found else {
        return Err(format!(
            "exhaustive found {:?} in `{}` but guided search found nothing \
             across {} candidate(s)",
            found.fault.kind,
            found.fault.func,
            report.attempts.len()
        ));
    };
    if FaultClass::of_kind(&guided.fault.kind) != FaultClass::of_kind(&found.fault.kind)
        || guided.fault.func != found.fault.func
    {
        return Err(format!(
            "guided fault {:?} in `{}` diverges from exhaustive {:?} in `{}`",
            guided.fault.kind, guided.fault.func, found.fault.kind, found.fault.func
        ));
    }
    Ok(OracleOutcome::Pass)
}

/// Metamorphic cache invariance: no cache, an empty cache, and a
/// pre-warmed cache must all leave exploration untouched.
fn cache_metamorphic(program: &Program) -> Result<OracleOutcome, String> {
    let module = lower(program)?;
    let run = |cache: Option<Rc<dyn QueryCache>>| -> EngineReport {
        let mut engine = Engine::new(&module, budget());
        if let Some(c) = cache {
            engine.set_shared_cache(c);
        }
        engine.run()
    };
    let base = run(None);
    let cache: Rc<SharedCache> = Rc::new(SharedCache::new());
    compare_engine_reports(&base, &run(Some(cache.clone())), "empty")?;
    // Second run against the now-populated cache: verdict hits replace
    // solver search but must not perturb exploration.
    compare_engine_reports(&base, &run(Some(cache)), "pre-warmed")?;
    Ok(OracleOutcome::Pass)
}
