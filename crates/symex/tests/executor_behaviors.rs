//! Focused behavioral tests of the symbolic executor: symbolic-index
//! concretization, string bounds, guidance worst-case degradation
//! (paper footnote 1), and trace fidelity.

use concrete::{FaultKind, Location, Vm, VmConfig};
use solver::{CmpOp, Constraint, TermCtx};
use symex::{
    Engine, EngineConfig, EventCtx, EventHook, GuidanceResult, RunOutcome, SchedulerKind, StateMeta,
};

fn run(src: &str, config: EngineConfig) -> (symex::EngineReport, sir::Module) {
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let report = Engine::new(&module, config).run();
    (report, module)
}

#[test]
fn symbolic_buffer_index_forks_a_fault_child() {
    // The index is an input, not a loop counter: the engine must fork an
    // out-of-bounds fault child and concretize the in-range access.
    let src = r#"
        fn main() -> int {
            let i: int = input_int("i");
            let b: buf[10];
            buf_set(b, i, 65);
            return buf_get(b, i);
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("oob reachable");
    assert!(matches!(
        found.fault.kind,
        FaultKind::BufferOverflow { cap: 10, .. }
    ));
    let vm = Vm::new(&module, VmConfig::default());
    let replay = vm.run(&found.inputs).unwrap();
    assert!(matches!(
        replay.outcome.fault().unwrap().kind,
        FaultKind::BufferOverflow { cap: 10, .. }
    ));
}

#[test]
fn negative_symbolic_index_is_found() {
    let src = r#"
        fn main() {
            let i: int = input_int("i");
            if (i < 5) {
                let b: buf[10];
                buf_set(b, i, 1); // fine for 0..=4, faults for negatives
            }
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("negative index fault");
    let vm = Vm::new(&module, VmConfig::default());
    assert!(vm.run(&found.inputs).unwrap().outcome.is_fault());
    match found.inputs.get("i") {
        Some(concrete::InputValue::Int(v)) => assert!(*v < 0, "i = {v}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn string_read_past_capacity_faults() {
    // Reading s[cap + 1] is beyond even the guaranteed terminator.
    let src = r#"
        fn main() -> int {
            let s: str = input_str("s", 4);
            return char_at(s, 6);
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("definite oob");
    assert!(matches!(found.fault.kind, FaultKind::StringOob { .. }));
}

#[test]
fn terminator_read_is_safe() {
    // Reading s[cap] is the guaranteed NUL: no fault on any path.
    let src = r#"
        fn main() -> int {
            let s: str = input_str("s", 4);
            return char_at(s, 4);
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    assert!(matches!(report.outcome, RunOutcome::Completed));
}

#[test]
fn trace_records_call_sequence_in_order() {
    let src = r#"
        fn inner() { return; }
        fn outer() { inner(); }
        fn boom(n: int) { assert(n < 1000); }
        fn main() {
            let n: int = input_int("n");
            outer();
            boom(n);
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("assert violable");
    let names: Vec<String> = found.trace.iter().map(|l| l.to_string()).collect();
    assert_eq!(
        names,
        vec![
            "main():enter",
            "outer():enter",
            "inner():enter",
            "inner():leave",
            "outer():leave",
            "boom():enter",
        ],
        "faulting function never leaves"
    );
}

/// A deliberately wrong guidance hook: it suspends every state at its
/// second function event. Paper footnote 1: "in the (unlikely) worst
/// case when erroneous statistical inference is made, the performance of
/// StatSym is equivalent to pure symbolic execution" — the engine must
/// resume the suspended states and still find the fault.
struct HostileGuidance;

impl EventHook for HostileGuidance {
    fn on_event(
        &mut self,
        _ev: &EventCtx<'_>,
        meta: &mut StateMeta,
        _ctx: &mut TermCtx,
    ) -> GuidanceResult {
        meta.hops += 1;
        GuidanceResult {
            constraints: Vec::new(),
            suspend: meta.hops >= 2,
            matched: None,
        }
    }
}

#[test]
fn wrong_guidance_degrades_to_pure_search_and_still_finds() {
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
    let mut engine = Engine::with_hook(
        &module,
        EngineConfig {
            scheduler: SchedulerKind::Priority,
            ..EngineConfig::default()
        },
        Box::new(HostileGuidance),
    );
    let report = engine.run();
    let found = report
        .outcome
        .found()
        .expect("fault found despite hostile guidance");
    assert_eq!(found.fault.func, "boom");
    assert!(
        report.stats.exec.suspended > 0,
        "the hostile hook did suspend states"
    );
}

/// Suspends the first state that reaches `f():leave`.
struct SuspendAtFirstLeave(bool);

impl EventHook for SuspendAtFirstLeave {
    fn on_event(
        &mut self,
        ev: &EventCtx<'_>,
        _meta: &mut StateMeta,
        _ctx: &mut TermCtx,
    ) -> GuidanceResult {
        let suspend = !self.0 && ev.loc == &Location::leave("f");
        self.0 |= suspend;
        GuidanceResult {
            suspend,
            ..GuidanceResult::default()
        }
    }
}

#[test]
fn a_state_resumed_at_a_leave_event_records_it_once() {
    // The suspended state resumes by re-running `f`'s return; the event
    // it was suspended at must not enter its trace twice.
    let src = r#"
        fn f(v: int) -> int { return v + 1; }
        fn main() {
            let n: int = input_int("n");
            let r: int = f(n);
            assert(r != 5);
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let mut engine = Engine::with_hook(
        &module,
        EngineConfig::default(),
        Box::new(SuspendAtFirstLeave(false)),
    );
    let report = engine.run();
    assert_eq!(report.stats.exec.suspended, 1);
    let found = report.outcome.found().expect("assert violable");
    assert_eq!(
        found.trace,
        [
            Location::enter("main"),
            Location::enter("f"),
            Location::leave("f")
        ]
    );
}

/// Guidance that injects a constraint contradicting the only fault path:
/// the fault-side states are suspended, resumed with guidance off, and
/// the fault is still found (soft constraints never cause unsoundness).
struct MisleadingPredicates;

impl EventHook for MisleadingPredicates {
    fn on_event(
        &mut self,
        ev: &EventCtx<'_>,
        _meta: &mut StateMeta,
        ctx: &mut TermCtx,
    ) -> GuidanceResult {
        let mut constraints = Vec::new();
        if ev.loc == &Location::enter("check") {
            // Wrong inference: claims v < 10, but the fault needs v >= 90.
            if let Some(symex::SymValue::Int(t)) = ev.arg("v") {
                let bound = ctx.int(10);
                constraints.push(Constraint::new(CmpOp::Lt, *t, bound));
            }
        }
        GuidanceResult {
            constraints,
            suspend: false,
            matched: None,
        }
    }
}

#[test]
fn misleading_soft_constraints_do_not_hide_the_fault() {
    let src = r#"
        fn check(v: int) { assert(v < 90); }
        fn main() {
            let v: int = input_int("v");
            check(v);
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let mut engine = Engine::with_hook(
        &module,
        EngineConfig {
            scheduler: SchedulerKind::Priority,
            ..EngineConfig::default()
        },
        Box::new(MisleadingPredicates),
    );
    let report = engine.run();
    let found = report
        .outcome
        .found()
        .expect("fault found after resuming suspended states");
    match found.inputs.get("v") {
        Some(concrete::InputValue::Int(v)) => assert!(*v >= 90),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn exit_paths_do_not_leak_into_fault_search() {
    // exit() before the vulnerable call on some paths must not stop the
    // engine from finding the fault on others.
    let src = r#"
        fn main() {
            let n: int = input_int("n");
            if (n == 0) { exit(0); }
            let b: buf[3];
            if (n > 3) { buf_set(b, n, 1); }
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("fault behind exit");
    let vm = Vm::new(&module, VmConfig::default());
    assert!(vm.run(&found.inputs).unwrap().outcome.is_fault());
}

#[test]
fn symbolic_alloc_size_forks_an_overflow_child() {
    // `n * 128` escapes [0, MAX_ALLOC] for most inputs; the engine must
    // fork the allocation-overflow child and the replay must agree.
    let src = r#"
        fn main() {
            let n: int = input_int("n");
            let h: buf = alloc(n * 128);
            buf_set(h, 0, 1);
            free(h);
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("alloc overflow reachable");
    assert!(matches!(found.fault.kind, FaultKind::AllocOverflow { .. }));
    let vm = Vm::new(&module, VmConfig::default());
    let replay = vm.run(&found.inputs).unwrap();
    assert!(matches!(
        replay.outcome.fault().unwrap().kind,
        FaultKind::AllocOverflow { .. }
    ));
}

#[test]
fn off_by_one_loop_bound_on_dynamic_buffer_is_classified() {
    // `i <= buf_cap(h)` walks one past the end; dynamic buffers classify
    // the fencepost as the off-by-one family, not a generic overflow.
    let src = r#"
        fn main() {
            let n: int = input_int("n");
            let h: buf = alloc(4);
            if (n > 10) {
                let i: int = 0;
                while (i <= buf_cap(h)) {
                    buf_set(h, i, 7);
                    i = i + 1;
                }
            }
            free(h);
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("off-by-one reachable");
    assert!(
        matches!(found.fault.kind, FaultKind::OffByOne { cap: 4 }),
        "got {:?}",
        found.fault.kind
    );
    let vm = Vm::new(&module, VmConfig::default());
    let replay = vm.run(&found.inputs).unwrap();
    assert!(matches!(
        replay.outcome.fault().unwrap().kind,
        FaultKind::OffByOne { cap: 4 }
    ));
}

#[test]
fn stack_buffer_fencepost_keeps_overflow_classification() {
    // The same `idx == cap` access on a stack buffer stays in the legacy
    // buffer-overflow class (the paper benchapps depend on this).
    let src = r#"
        fn main() {
            let b: buf[4];
            buf_set(b, 4, 1);
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("fencepost faults");
    assert!(matches!(
        found.fault.kind,
        FaultKind::BufferOverflow { cap: 4, idx: 4 }
    ));
}

#[test]
fn symbolic_format_string_finds_a_percent_byte() {
    let src = r#"
        fn main() {
            let s: str = input_str("s", 6);
            format(s);
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("percent byte reachable");
    assert!(matches!(found.fault.kind, FaultKind::FormatString { .. }));
    let vm = Vm::new(&module, VmConfig::default());
    let replay = vm.run(&found.inputs).unwrap();
    assert!(matches!(
        replay.outcome.fault().unwrap().kind,
        FaultKind::FormatString { .. }
    ));
}

#[test]
fn concrete_clean_format_does_not_fault() {
    let src = r#"
        fn main() {
            format("plain text");
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    assert!(matches!(report.outcome, RunOutcome::Completed));
}

#[test]
fn use_after_free_behind_symbolic_guard_is_found() {
    // The free happens only on the `n > 100` branch; the later write is
    // a use-after-free exactly there, and the model must land on it.
    let src = r#"
        fn main() {
            let n: int = input_int("n");
            let h: buf = alloc(4);
            if (n > 100) {
                free(h);
            }
            buf_set(h, 1, 2);
        }
    "#;
    let (report, module) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("uaf reachable");
    assert!(matches!(found.fault.kind, FaultKind::UseAfterFree));
    let vm = Vm::new(&module, VmConfig::default());
    let replay = vm.run(&found.inputs).unwrap();
    assert!(matches!(
        replay.outcome.fault().unwrap().kind,
        FaultKind::UseAfterFree
    ));
    match found.inputs.get("n") {
        Some(concrete::InputValue::Int(v)) => assert!(*v > 100, "n = {v}"),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn double_free_faults_symbolically() {
    let src = r#"
        fn main() {
            let h: buf = alloc(8);
            free(h);
            free(h);
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("double free faults");
    assert!(matches!(found.fault.kind, FaultKind::UseAfterFree));
}

#[test]
fn freeing_a_stack_buffer_is_an_invalid_free() {
    let src = r#"
        fn main() {
            let b: buf[4];
            free(b);
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("invalid free faults");
    assert!(matches!(found.fault.kind, FaultKind::UseAfterFree));
}

#[test]
fn rendered_constraints_are_human_readable() {
    let src = r#"
        fn main() {
            let n: int = input_int("n");
            if (n > 41) { assert(n != 42 + 0); }
        }
    "#;
    let (report, _) = run(src, EngineConfig::default());
    let found = report.outcome.found().expect("n == 42 faults");
    let joined = found.rendered_constraints.join(" && ");
    assert!(joined.contains('n'), "{joined}");
    assert!(
        joined.contains("42") || joined.contains("41"),
        "constraints mention the threshold: {joined}"
    );
}

#[test]
fn a_branch_fork_numbers_the_taken_child_first() {
    // Each side of the branch forks again at its own line, and
    // provenance stamps every query with the issuing state's id: the
    // parent forks at line 4, the taken child at line 5, the not-taken
    // child at line 7.
    use statsym_telemetry::{Clock, MemRecorder, TraceEvent};
    let src = r#"
        fn main() {
            let x: int = input_int("x");
            if (x > 10) {
                if (x > 20) { print(1); }
            } else {
                if (x < 0) { print(2); }
            }
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let rec = MemRecorder::new(Clock::steps());
    let mut engine = Engine::new(
        &module,
        EngineConfig {
            provenance: true,
            ..EngineConfig::default()
        },
    );
    engine.set_recorder(&rec);
    assert!(matches!(engine.run().outcome, RunOutcome::Completed));
    let sids_at = |line: &str| -> Vec<u64> {
        let mut sids: Vec<u64> = rec
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Query { sid, loc, .. } if loc == line => Some(sid),
                _ => None,
            })
            .collect();
        sids.dedup();
        sids
    };
    let parent = sids_at("main:4");
    assert_eq!(parent.len(), 1, "one forking state: {parent:?}");
    let n = parent[0];
    assert_eq!(sids_at("main:5"), [n + 1], "taken child");
    assert_eq!(sids_at("main:7"), [n + 2], "not-taken child");
}

#[test]
fn the_fault_model_query_is_stamped_with_the_faulting_line() {
    // The assert's fault child is forked at line 5 but sits at the
    // next instruction (the `if`'s join, line 4) when its triggering
    // model is solved: the `report_model` query must still carry, and
    // be billed to, the assert's line.
    use statsym_telemetry::{Clock, MemRecorder, TraceEvent};
    let src = r#"
        fn main() {
            let x: int = input_int("x");
            if (x > 10) {
                assert(x != 50);
            }
        }
    "#;
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let rec = MemRecorder::new(Clock::steps());
    let mut engine = Engine::new(
        &module,
        EngineConfig {
            provenance: true,
            attribution: true,
            ..EngineConfig::default()
        },
    );
    engine.set_recorder(&rec);
    let report = engine.run();
    let RunOutcome::Found(found) = &report.outcome else {
        panic!("assert fault expected: {:?}", report.outcome);
    };
    assert_eq!(found.fault.span.line, 5);
    let locs: Vec<String> = rec
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Query { loc, site, .. } if site == "report_model" => Some(loc),
            _ => None,
        })
        .collect();
    assert_eq!(locs, ["main:5"]);
    // Each fork checks both sides; the model query adds one to the
    // assert's line, not to the `if`'s.
    let queries = |line: u32| rec.metrics().counter(&format!("attr.main:{line}.queries"));
    assert_eq!((queries(4), queries(5)), (Some(2), Some(3)));
}
