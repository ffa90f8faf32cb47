//! Differential testing between the symbolic engine and the concrete VM:
//! every input the engine generates from a solver model must reproduce
//! the same fault class at the same fault site when replayed concretely.

use statsym::concrete::{FaultKind, InputValue, Vm, VmConfig};
use statsym::symex::{Engine, EngineConfig, SchedulerKind};

/// Programs covering each fault class and input kind.
const PROGRAMS: &[(&str, &str)] = &[
    (
        "int_assert",
        r#"
        fn check(v: int) { assert(v * 3 < 250); }
        fn main() { let n: int = input_int("n"); if (n > 0) { check(n); } }
        "#,
    ),
    (
        "string_copy_overflow",
        r#"
        fn fill(s: str) {
            let b: buf[5];
            let i: int = 0;
            while (char_at(s, i) != 0) { buf_set(b, i, char_at(s, i)); i = i + 1; }
            buf_set(b, i, 0);
        }
        fn main() { let s: str = input_str("s", 10); fill(s); }
        "#,
    ),
    (
        "div_by_zero",
        r#"
        fn main() -> int {
            let d: int = input_int("d");
            let n: int = input_int("n");
            if (n > 5) { return n / (d - 7); }
            return 0;
        }
        "#,
    ),
    (
        "expansion_overflow",
        r#"
        fn expand(s: str) {
            let out: buf[9];
            let i: int = 0;
            let o: int = 0;
            while (char_at(s, i) != 0) {
                if (char_at(s, i) == '%') {
                    buf_set(out, o, '2'); buf_set(out, o + 1, '5');
                    o = o + 2;
                } else {
                    buf_set(out, o, char_at(s, i));
                    o = o + 1;
                }
                i = i + 1;
            }
            buf_set(out, o, 0);
        }
        fn main() { let s: str = input_str("s", 8); expand(s); }
        "#,
    ),
    (
        "global_state_guard",
        r#"
        global armed: int = 0;
        fn arm(v: int) { if (v > 9) { armed = 1; } }
        fn fire(v: int) -> int { if (armed == 1) { assert(v != 13); } return v; }
        fn main() {
            let v: int = input_int("v");
            arm(v);
            print(fire(v));
        }
        "#,
    ),
    (
        "int_cell_equality",
        r#"
        fn main() {
            let n: int = input_int("n");
            let b: buf[4];
            buf_set(b, 0, n);
            if (buf_get(b, 0) == 300) { assert(false); }
        }
        "#,
    ),
    (
        "int_cell_sign",
        r#"
        fn main() {
            let n: int = input_int("n");
            let b: buf[4];
            buf_set(b, 0, n);
            if (buf_get(b, 0) < 0) { assert(false); }
        }
        "#,
    ),
    (
        "bounded_deep_recursion",
        r#"
        fn r(n: int) -> int { if (n <= 0) { return 0; } return r(n - 1) + 1; }
        fn main() { let n: int = input_int("n"); if (n > 290 && n < 300) { r(n); } }
        "#,
    ),
    (
        // One register passed twice: each parameter gets its own copy, so
        // overwriting one leaves the other and the caller's `x` intact.
        "one_register_passed_twice",
        r#"
        fn g(a: int, b: int) -> int { a = a + 1; b = b * 2; return a + b; }
        fn main() {
            let x: int = input_int("x");
            let r: int = g(x, x);
            if (r == 3 * x + 1) { assert(x != 7); }
        }
        "#,
    ),
    (
        // `g` needs more registers than `f`: its return lands in `f`'s
        // registers after the stack shrinks back, and `f`'s `a` survives.
        "return_after_deeper_callee",
        r#"
        fn g(b: int) -> int { let t: int = b * 2; let u: int = t + 3; return u - b; }
        fn f(a: int) -> int { return g(a + 1) + a; }
        fn main() {
            let n: int = input_int("n");
            let r: int = f(n);
            if (r == 2 * n + 4) { assert(n != 40); }
        }
        "#,
    ),
    (
        "symbolic_bool_equality",
        r#"
        fn main() {
            let x: int = input_int("x");
            let y: int = input_int("y");
            let a: bool = x > 3;
            let b: bool = y > 4;
            if (a == b) { assert(x < 100); }
        }
        "#,
    ),
    (
        // The two sides of one symbolic branch write different values
        // to one buffer cell and one global. Each child owns its
        // machine, so each side reads back its own writes; a child that
        // saw its sibling's would fail an assert the VM never fails.
        "fork_sides_write_apart",
        r#"
        global g: int = 0;
        fn main() {
            let x: int = input_int("x");
            let b: buf[2];
            if (x > 10) { buf_set(b, 0, 1); g = 2; } else { buf_set(b, 0, 3); g = 4; }
            if (buf_get(b, 0) == 1) { assert(x > 10); } else { assert(x <= 10); }
            if (g == 2) { assert(x > 10); } else { assert(x <= 10); }
            if (g + buf_get(b, 0) == 7) { assert(x != 5); }
        }
        "#,
    ),
];

fn fault_class(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::BufferOverflow { .. } => "overflow",
        FaultKind::StringOob { .. } => "string-oob",
        FaultKind::AssertFailed => "assert",
        FaultKind::DivByZero => "div0",
        FaultKind::StackOverflow => "stack",
        FaultKind::AllocOverflow { .. } => "alloc-overflow",
        FaultKind::OffByOne { .. } => "off-by-one",
        FaultKind::FormatString { .. } => "format-string",
        FaultKind::UseAfterFree => "uaf",
    }
}

#[test]
fn engine_models_replay_concretely() {
    for (name, src) in PROGRAMS {
        let program = statsym::minic::parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let module = statsym::sir::lower(&program).unwrap();
        for scheduler in [
            SchedulerKind::Bfs,
            SchedulerKind::Dfs,
            SchedulerKind::Random { seed: 3 },
        ] {
            let mut engine = Engine::new(
                &module,
                EngineConfig {
                    scheduler,
                    ..EngineConfig::default()
                },
            );
            let report = engine.run();
            let found = report
                .outcome
                .found()
                .unwrap_or_else(|| panic!("{name}/{scheduler:?}: no fault found"));

            let vm = Vm::new(&module, VmConfig::default());
            let replay = vm.run(&found.inputs).unwrap();
            let fault = replay
                .outcome
                .fault()
                .unwrap_or_else(|| panic!("{name}/{scheduler:?}: input does not crash"));
            assert_eq!(
                fault_class(&fault.kind),
                fault_class(&found.fault.kind),
                "{name}/{scheduler:?}: fault class mismatch"
            );
            assert_eq!(fault.func, found.fault.func, "{name}: fault site");
        }
    }
}

#[test]
fn fault_free_programs_complete_under_symex() {
    let src = r#"
        fn clamp(v: int) -> int {
            if (v < 0) { return 0; }
            if (v > 100) { return 100; }
            return v;
        }
        fn main() -> int {
            let n: int = input_int("n");
            let c: int = clamp(n);
            assert(c >= 0);
            assert(c <= 100);
            return c;
        }
    "#;
    let module = statsym::sir::lower(&statsym::minic::parse_program(src).unwrap()).unwrap();
    let mut engine = Engine::new(&module, EngineConfig::default());
    let report = engine.run();
    assert!(
        matches!(report.outcome, statsym::symex::RunOutcome::Completed),
        "{:?}",
        report.outcome
    );
    // Every explored path's assertion held.
    assert!(report.stats.paths_completed >= 3);
}

#[test]
fn concrete_and_symbolic_agree_on_fixed_inputs() {
    // With every input pinned, symbolic execution degenerates to
    // concrete interpretation: one path, identical outcome.
    let src = r#"
        fn mix(a: int, b: int) -> int { return a * 31 + b % 7; }
        fn main() -> int {
            let a: int = input_int("a");
            let b: int = input_int("b");
            let r: int = mix(a, b);
            if (r > 100) { return r - 100; }
            return r;
        }
    "#;
    let module = statsym::sir::lower(&statsym::minic::parse_program(src).unwrap()).unwrap();
    for (a, b) in [(0i64, 0i64), (5, 13), (-4, 100), (1000, -1)] {
        let inputs: statsym::concrete::InputMap = [
            ("a".to_string(), InputValue::Int(a)),
            ("b".to_string(), InputValue::Int(b)),
        ]
        .into_iter()
        .collect();
        let vm = Vm::new(&module, VmConfig::default());
        let concrete_result = vm.run(&inputs).unwrap();

        let mut engine = Engine::new(&module, EngineConfig::default());
        engine.pin_input("a", InputValue::Int(a));
        engine.pin_input("b", InputValue::Int(b));
        let report = engine.run();
        assert!(
            matches!(report.outcome, statsym::symex::RunOutcome::Completed),
            "pinned run must complete"
        );
        assert_eq!(report.stats.paths_completed, 1, "single concrete path");
        // Outcome parity: the concrete run also terminated normally.
        assert!(concrete_result.outcome.is_success());
    }
}
