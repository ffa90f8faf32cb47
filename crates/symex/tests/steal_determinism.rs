//! Steal-mode determinism properties.
//!
//! The work-stealing executor's contract (see `symex::steal`): for a
//! fixed program and `steal_slice`, the outcome, the stats, and the
//! *byte-identical rendered trace* are invariant under the state-worker
//! count and the steal seed. These tests generate random fork trees and
//! check every pair against the 1-worker baseline, then pin down the
//! guidance-suspension (multi-phase) and budget-trip paths explicitly,
//! and the solver's independence-slicing work on a fork-heavy loop.

use statsym_telemetry::{render_trace, Clock, MemRecorder};
use symex::{
    Budget, Engine, EngineConfig, EventCtx, EventHook, GuidanceResult, RunOutcome, StateMeta,
};

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Generates a random mini-C program: nested symbolic branches, bounded
/// loops, asserts (some violable → fault children), and a guarded
/// buffer access (concretization queries). Deterministic per seed.
fn gen_program(seed: u64) -> String {
    let mut r = Rng(seed ^ 0xfeed_beef);
    let mut vars: Vec<String> = vec!["a".into(), "b".into(), "c".into()];
    let mut body = String::new();
    for v in &vars {
        body.push_str(&format!("    let {v}: int = input_int(\"{v}\");\n"));
    }
    let mut counter = 0u32;
    gen_block(&mut r, 2, &mut vars, &mut body, 1, &mut counter);
    format!("fn main() {{\n{body}}}\n")
}

fn pick<'a>(r: &mut Rng, vars: &'a [String]) -> &'a str {
    &vars[r.below(vars.len() as u64) as usize]
}

fn expr(r: &mut Rng, vars: &[String]) -> String {
    match r.below(4) {
        0 => pick(r, vars).to_string(),
        1 => format!("{} + {}", pick(r, vars), r.below(20)),
        2 => format!("{} * {}", pick(r, vars), 1 + r.below(3)),
        _ => format!("{} - {}", pick(r, vars), pick(r, vars)),
    }
}

fn cond(r: &mut Rng, vars: &[String]) -> String {
    let op = ["<", ">", "=="][r.below(3) as usize];
    format!("{} {} {}", expr(r, vars), op, r.below(60) as i64 - 10)
}

fn gen_block(
    r: &mut Rng,
    depth: u32,
    vars: &mut Vec<String>,
    out: &mut String,
    indent: usize,
    counter: &mut u32,
) {
    let pad = "    ".repeat(indent);
    let stmts = 2 + r.below(2);
    for _ in 0..stmts {
        let choice = if depth > 0 { r.below(6) } else { r.below(4) };
        match choice {
            0 => {
                *counter += 1;
                let name = format!("t{}", *counter);
                out.push_str(&format!("{pad}let {name}: int = {};\n", expr(r, vars)));
                vars.push(name);
            }
            1 => {
                out.push_str(&format!("{pad}assert({});\n", cond(r, vars)));
            }
            2 => {
                *counter += 1;
                let k = format!("k{}", *counter);
                let n = 2 + r.below(4);
                out.push_str(&format!(
                    "{pad}let {k}: int = 0;\n{pad}while ({k} < {n}) {{ {k} = {k} + 1; }}\n"
                ));
            }
            3 => {
                *counter += 1;
                let b = format!("bb{}", *counter);
                let i = pick(r, vars).to_string();
                out.push_str(&format!(
                    "{pad}if ({i} > 0) {{\n{pad}    if ({i} < 7) {{\n{pad}        let {b}: buf[8];\n{pad}        buf_set({b}, {i}, 1);\n{pad}    }}\n{pad}}}\n"
                ));
            }
            4 => {
                out.push_str(&format!("{pad}if ({}) {{\n", cond(r, vars)));
                let before = vars.len();
                gen_block(r, depth - 1, vars, out, indent + 1, counter);
                vars.truncate(before);
                out.push_str(&format!("{pad}}} else {{\n"));
                gen_block(r, depth - 1, vars, out, indent + 1, counter);
                vars.truncate(before);
                out.push_str(&format!("{pad}}}\n"));
            }
            _ => {
                out.push_str(&format!("{pad}if ({}) {{\n", cond(r, vars)));
                let before = vars.len();
                gen_block(r, depth - 1, vars, out, indent + 1, counter);
                vars.truncate(before);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

/// One traced steal-mode run; returns the rendered trace and the report.
fn traced_run(
    module: &sir::Module,
    config: EngineConfig,
    hook: Option<Box<dyn EventHook + '_>>,
) -> (String, symex::EngineReport) {
    let rec = MemRecorder::new(Clock::steps());
    let report = {
        let mut eng = match hook {
            Some(h) => Engine::with_hook(module, config, h),
            None => Engine::new(module, config),
        };
        eng.set_recorder(&rec);
        eng.run()
    };
    (render_trace(&rec.finish()), report)
}

fn steal_config(workers: usize, slice: u64, seed: u64) -> EngineConfig {
    EngineConfig {
        state_workers: workers,
        steal_slice: slice,
        steal_seed: seed,
        lineage: true,
        ..EngineConfig::default()
    }
}

fn stats_key(r: &symex::EngineReport) -> (u64, u64, u64, u64, u64, u64) {
    (
        r.stats.exec.steps,
        r.stats.exec.forks,
        r.stats.paths_completed,
        r.stats.paths_explored,
        r.stats.states_created,
        r.stats.left_suspended,
    )
}

#[test]
fn random_fork_trees_are_worker_count_invariant() {
    for seed in 0..10u64 {
        let src = gen_program(seed);
        let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
        // Small slice so even short programs pause and requeue often.
        let (base_trace, base_report) = traced_run(&module, steal_config(1, 16, 0), None);
        for workers in [2usize, 4, 8] {
            let (trace, report) = traced_run(&module, steal_config(workers, 16, 0), None);
            assert_eq!(
                trace, base_trace,
                "trace diverged at {workers} workers (program seed {seed})\n{src}"
            );
            assert_eq!(stats_key(&report), stats_key(&base_report), "seed {seed}");
            match (&base_report.outcome, &report.outcome) {
                (RunOutcome::Found(a), RunOutcome::Found(b)) => {
                    assert_eq!(a.fault, b.fault, "different winner at {workers} workers");
                    assert_eq!(a.inputs, b.inputs, "different model at {workers} workers");
                }
                (RunOutcome::Completed, RunOutcome::Completed) => {}
                (RunOutcome::Exhausted(a), RunOutcome::Exhausted(b)) => assert_eq!(a, b),
                (a, b) => panic!("outcome kind diverged: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn attribution_traces_are_worker_count_invariant() {
    let attr_config = |workers: usize| {
        let mut c = steal_config(workers, 16, 0);
        c.attribution = true;
        c.provenance = true;
        c.candidate_rank = 2;
        c
    };
    let mut saw_query = false;
    for seed in 0..6u64 {
        let src = gen_program(seed);
        let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
        let (base_trace, _) = traced_run(&module, attr_config(1), None);
        // Attribution bills every executed step, so the counters are
        // present for any program; query events need a solver call.
        assert!(
            base_trace.contains("\"name\":\"attr."),
            "seed {seed}: attr.* counters expected\n{src}"
        );
        saw_query |= base_trace.contains("\"k\":\"query\"");
        for workers in [2usize, 4, 8] {
            let (trace, _) = traced_run(&module, attr_config(workers), None);
            assert_eq!(
                trace, base_trace,
                "attr/query trace diverged at {workers} workers (seed {seed})\n{src}"
            );
        }
    }
    assert!(saw_query, "no generated program issued a solver query");
}

#[test]
fn steal_seed_never_changes_the_trace() {
    let src = gen_program(3);
    let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
    let (base_trace, _) = traced_run(&module, steal_config(4, 16, 0), None);
    for seed in [1u64, 7, 0xdead_beef] {
        let (trace, _) = traced_run(&module, steal_config(4, 16, seed), None);
        assert_eq!(trace, base_trace, "steal seed {seed} changed the trace");
    }
}

#[test]
fn steal_mode_matches_legacy_outcome_kind_and_exhaustive_work() {
    for seed in 0..8u64 {
        let src = gen_program(seed);
        let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
        let legacy = Engine::new(&module, EngineConfig::default()).run();
        let steal = Engine::new(&module, steal_config(4, 64, 0)).run();
        assert_eq!(
            legacy.outcome.is_found(),
            steal.outcome.is_found(),
            "fault-reachability diverged (seed {seed})\n{src}"
        );
        if matches!(legacy.outcome, RunOutcome::Completed) {
            // Exhaustive exploration does the same total work in any
            // order.
            assert_eq!(legacy.stats.exec.steps, steal.stats.exec.steps);
            assert_eq!(legacy.stats.exec.forks, steal.stats.exec.forks);
            assert_eq!(legacy.stats.paths_completed, steal.stats.paths_completed);
        }
    }
}

/// Suspends every state at its second function event; steal mode must
/// park these, finish phase 1, and resume them deterministically.
#[derive(Clone, Copy)]
struct SuspendSecondHop;

impl EventHook for SuspendSecondHop {
    fn on_event(
        &mut self,
        _ev: &EventCtx<'_>,
        meta: &mut StateMeta,
        _ctx: &mut solver::TermCtx,
    ) -> GuidanceResult {
        meta.hops += 1;
        GuidanceResult {
            constraints: Vec::new(),
            suspend: meta.hops >= 2,
            matched: None,
        }
    }

    fn clone_hook<'a>(&'a self) -> Option<Box<dyn EventHook + Send + 'a>> {
        Some(Box::new(*self))
    }
}

#[test]
fn suspension_and_resume_phases_are_worker_count_invariant() {
    let src = r#"
        fn step_a(v: int) -> int { return v + 1; }
        fn step_b(v: int) -> int { return v * 2; }
        fn boom(v: int) { assert(v < 50); }
        fn main() {
            let v: int = input_int("v");
            let w: int = step_a(step_b(v));
            boom(w);
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let run = |workers: usize| {
        traced_run(
            &module,
            steal_config(workers, 8, 0),
            Some(Box::new(SuspendSecondHop)),
        )
    };
    let (base_trace, base_report) = run(1);
    assert!(
        base_report.outcome.is_found(),
        "fault found despite hostile suspension"
    );
    assert!(base_report.stats.exec.suspended > 0);
    for workers in [2usize, 4] {
        let (trace, report) = run(workers);
        assert_eq!(trace, base_trace, "resume phase diverged at {workers}");
        assert_eq!(stats_key(&report), stats_key(&base_report));
    }
}

#[test]
fn deterministic_budget_trips_identically_at_any_worker_count() {
    let src = gen_program(5);
    let module = sir::lower(&minic::parse_program(&src).unwrap()).unwrap();
    let mut config = steal_config(1, 16, 0);
    config.budget = Budget {
        max_steps: Some(40),
        ..Budget::default()
    };
    let (base_trace, base_report) = traced_run(&module, config, None);
    assert!(
        matches!(
            base_report.outcome,
            RunOutcome::Exhausted(symex::ExhaustionReason::Budget)
        ) || base_report.outcome.is_found(),
        "unexpected outcome {:?}",
        base_report.outcome
    );
    for workers in [2usize, 4, 8] {
        let mut c = steal_config(workers, 16, 0);
        c.budget = Budget {
            max_steps: Some(40),
            ..Budget::default()
        };
        let (trace, report) = traced_run(&module, c, None);
        assert_eq!(trace, base_trace, "budget trip diverged at {workers}");
        assert_eq!(stats_key(&report), stats_key(&base_report));
    }
}

/// A symbolically-bounded loop (every iteration forks on the bound)
/// with two variable-disjoint branch families in the body, which
/// independence slicing splits into separate components, and an
/// infeasible branch (`a > 60` under `a < 50`) that every iteration
/// refutes again. Fault-free, so every run drains the whole path space.
const FORK_HEAVY: &str = r#"
    fn main() {
        let n: int = input_int("n");
        let a: int = input_int("a");
        let b: int = input_int("b");
        let m: int = n;
        if (m > 7) { m = 7; }
        let acc: int = 0;
        let i: int = 0;
        if (a < 50) {
            while (i < m) {
                if (a + i > 40) { acc = acc + 1; } else { acc = acc + 2; }
                if (b - i < 3) { acc = acc + 3; }
                if (a > 60) { acc = acc + 99; }
                i = i + 1;
            }
        }
        assert(acc < 1000);
    }
"#;

#[test]
fn fork_heavy_loop_pins_slicing_work_and_trace_across_state_workers() {
    let module = sir::lower(&minic::parse_program(FORK_HEAVY).unwrap()).unwrap();
    let config = |workers: usize| EngineConfig {
        state_workers: workers,
        lineage: true,
        attribution: true,
        provenance: true,
        ..EngineConfig::default()
    };
    let (base_trace, base_report) = traced_run(&module, config(1), None);
    assert!(matches!(base_report.outcome, RunOutcome::Completed));
    let s = &base_report.stats.solver;
    assert_eq!(
        (s.indep_queries, s.indep_components, s.indep_comp_hits),
        (2456, 7358, 4144),
        "solver.indep.* work on the fork-heavy loop moved"
    );
    let (trace, report) = traced_run(&module, config(4), None);
    assert_eq!(
        trace, base_trace,
        "fork-heavy trace diverged at 4 state workers"
    );
    assert_eq!(stats_key(&report), stats_key(&base_report));
}
