//! The concrete SIR virtual machine.

use crate::fault::Fault;
use crate::interp::{self, Domain, Machine};
use crate::value::{InputValue, Value};
use sir::{FuncBody, FuncId, GlobalDef, InputId, InputKind, Module, Reg};
use std::collections::HashMap;
use std::fmt;
use std::ops::ControlFlow::{self, Break, Continue};
use std::rc::Rc;

/// VM resource limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Maximum instructions executed before the run is cut off.
    pub max_steps: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 5_000_000,
        }
    }
}

/// Named inputs for one run.
pub type InputMap = HashMap<String, InputValue>;

/// Configuration errors (distinct from program faults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The program read an input that the run did not provide.
    MissingInput(String),
    /// The provided input has the wrong kind (e.g. string for `input_int`).
    WrongInputKind(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::MissingInput(n) => write!(f, "missing input `{n}`"),
            VmError::WrongInputKind(n) => write!(f, "input `{n}` has the wrong kind"),
        }
    }
}

impl std::error::Error for VmError {}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Normal termination with an exit code.
    Exit(i64),
    /// A fault (vulnerability manifestation) was detected.
    Fault(Fault),
    /// The step budget ran out (treated as neither correct nor faulty).
    StepLimit,
}

impl Outcome {
    /// True for normal termination.
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Exit(_))
    }

    /// True when a fault was detected.
    pub fn is_fault(&self) -> bool {
        matches!(self, Outcome::Fault(_))
    }

    /// The fault, if any.
    pub fn fault(&self) -> Option<&Fault> {
        match self {
            Outcome::Fault(f) => Some(f),
            _ => None,
        }
    }
}

/// Result of a concrete run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Instructions executed.
    pub steps: u64,
    /// Lines produced by `print`.
    pub output: Vec<String>,
}

/// Observer of function-boundary events — the seam the program monitor
/// (and tests) hook into. Mirrors Fjalar's instrumentation of function
/// entries and exits.
pub trait ExecHook {
    /// Called once before `module`'s `main` is entered.
    fn on_start(&mut self, _module: &Module) {}

    /// Called when function `id` (body `func`) is entered with `args`
    /// (parallel to `func.params`). `globals`/`gvals` are the module's
    /// global definitions and their current values.
    fn on_enter(
        &mut self,
        id: FuncId,
        func: &FuncBody,
        args: &[Value],
        globals: &[GlobalDef],
        gvals: &[Value],
    );

    /// Called when function `id` returns `ret`. A faulting function
    /// never triggers `on_exit`, matching the paper's observation that
    /// the monitor cannot capture the return of a crashed function.
    fn on_exit(
        &mut self,
        id: FuncId,
        func: &FuncBody,
        ret: Option<&Value>,
        globals: &[GlobalDef],
        gvals: &[Value],
    );
}

/// A no-op hook for unmonitored runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl ExecHook for NoHook {
    fn on_enter(&mut self, _: FuncId, _: &FuncBody, _: &[Value], _: &[GlobalDef], _: &[Value]) {}
    fn on_exit(
        &mut self,
        _: FuncId,
        _: &FuncBody,
        _: Option<&Value>,
        _: &[GlobalDef],
        _: &[Value],
    ) {
    }
}

/// The concrete interpreter over a lowered module.
#[derive(Debug, Clone)]
pub struct Vm<'m> {
    module: &'m Module,
    config: VmConfig,
}

impl<'m> Vm<'m> {
    /// Creates a VM for `module` with the given limits.
    pub fn new(module: &'m Module, config: VmConfig) -> Self {
        Vm { module, config }
    }

    /// The module this VM executes.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// Runs the program without instrumentation.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if a required input is missing or ill-kinded.
    pub fn run(&self, inputs: &InputMap) -> Result<RunResult, VmError> {
        self.run_hooked(inputs, &mut NoHook)
    }

    /// Runs the program, delivering function-boundary events to `hook`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if a required input is missing or ill-kinded.
    pub fn run_hooked(
        &self,
        inputs: &InputMap,
        hook: &mut dyn ExecHook,
    ) -> Result<RunResult, VmError> {
        let module = self.module;
        let mut d = Concrete {
            module,
            inputs,
            hook,
            output: Vec::new(),
        };
        d.hook.on_start(module);
        let mut m = interp::boot(&mut d, module);
        let argc = module.func(module.main).params.len();
        let _ = d.enter(&mut m, module.main, argc); // never stops
        let mut steps = 0;
        let outcome = loop {
            if steps >= self.config.max_steps {
                break Outcome::StepLimit;
            }
            steps += 1;
            if let Break(out) = interp::step(&mut d, module, &mut m) {
                break out?;
            }
        };
        Ok(RunResult {
            outcome,
            steps,
            output: d.output,
        })
    }
}

/// The concrete domain: every value is known, so no decision forks.
struct Concrete<'m, 'h> {
    module: &'m Module,
    inputs: &'m InputMap,
    hook: &'h mut dyn ExecHook,
    output: Vec<String>,
}

impl Domain for Concrete<'_, '_> {
    type Int = i64;
    type Bool = bool;
    type Str = Rc<[u8]>;
    type State = Machine<i64, bool, Rc<[u8]>>;
    type Out = Result<Outcome, VmError>;

    #[inline]
    fn machine(st: &Self::State) -> &Self::State {
        st
    }
    #[inline]
    fn machine_mut(st: &mut Self::State) -> &mut Self::State {
        st
    }

    #[inline]
    fn int(&mut self, v: i64) -> i64 {
        v
    }
    #[inline]
    fn known_int(&self, v: i64) -> Option<i64> {
        Some(v)
    }
    #[inline]
    fn bool(b: bool) -> bool {
        b
    }
    #[inline]
    fn known_bool(b: bool) -> Option<bool> {
        Some(b)
    }
    #[inline]
    fn str_lit(&mut self, bytes: &[u8]) -> Rc<[u8]> {
        bytes.into()
    }
    #[inline]
    fn str_cap(s: &Rc<[u8]>) -> usize {
        s.len()
    }
    #[inline]
    fn str_byte(&mut self, s: &Rc<[u8]>, i: usize) -> i64 {
        s.get(i).map_or(0, |&b| i64::from(b))
    }
    #[inline]
    fn not(b: bool) -> bool {
        !b
    }

    #[inline]
    fn input(&mut self, id: InputId) -> ControlFlow<Self::Out, Value> {
        let def = &self.module.inputs[id.index()];
        let v = match (def.kind, self.inputs.get(&def.name)) {
            (_, None) => Err(VmError::MissingInput(def.name.clone())),
            (InputKind::Int, Some(InputValue::Int(v))) => Ok(Value::Int(*v)),
            (InputKind::Str { cap }, Some(InputValue::Str(bytes))) => {
                // A bounded read.
                Ok(Value::Str(bytes[..bytes.len().min(cap as usize)].into()))
            }
            _ => Err(VmError::WrongInputKind(def.name.clone())),
        };
        match v {
            Ok(v) => Continue(v),
            Err(e) => Break(Err(e)),
        }
    }
    #[inline]
    fn print(&mut self, m: &Self::State, args: &[Reg]) {
        let line: Vec<String> = args.iter().map(|r| m.reg(*r).to_string()).collect();
        self.output.push(line.join(" "));
    }
    #[inline]
    fn enter(&mut self, st: &mut Self::State, func: FuncId, argc: usize) -> ControlFlow<Self::Out> {
        let body = self.module.func(func);
        let args = st.args(argc);
        self.hook
            .on_enter(func, body, args, &self.module.globals, &st.globals);
        Continue(())
    }
    #[inline]
    fn leave(
        &mut self,
        st: &mut Self::State,
        func: FuncId,
        ret: Option<&Value>,
    ) -> ControlFlow<Self::Out> {
        let body = self.module.func(func);
        self.hook
            .on_exit(func, body, ret, &self.module.globals, &st.globals);
        Continue(())
    }
    #[inline]
    fn fault(&mut self, _: &mut Self::State, fault: Fault) -> Self::Out {
        Ok(Outcome::Fault(fault))
    }
    #[inline]
    fn exit(&mut self, _: &mut Self::State, code: Option<i64>) -> Self::Out {
        Ok(Outcome::Exit(code.unwrap_or(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    fn run_src(src: &str, inputs: &[(&str, InputValue)]) -> RunResult {
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());
        let map: InputMap = inputs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        vm.run(&map).unwrap()
    }

    #[test]
    fn arithmetic_and_exit_code() {
        let r = run_src("fn main() -> int { return (2 + 3) * 4 - 1; }", &[]);
        assert_eq!(r.outcome, Outcome::Exit(19));
    }

    #[test]
    fn while_loop_sums() {
        let r = run_src(
            r#"fn main() -> int {
                let i: int = 0; let acc: int = 0;
                while (i < 10) { acc = acc + i; i = i + 1; }
                return acc;
            }"#,
            &[],
        );
        assert_eq!(r.outcome, Outcome::Exit(45));
    }

    #[test]
    fn function_calls_and_globals() {
        let r = run_src(
            r#"
            global count: int = 0;
            fn bump(v: int) -> int { count = count + v; return count; }
            fn main() -> int { print(bump(2)); print(bump(3)); return count; }
            "#,
            &[],
        );
        assert_eq!(r.outcome, Outcome::Exit(5));
        assert_eq!(r.output, vec!["2", "5"]);
    }

    #[test]
    fn buffer_overflow_is_detected() {
        let r = run_src(
            r#"fn main() {
                let b: buf[4];
                let i: int = 0;
                while (i < 10) { buf_set(b, i, 65); i = i + 1; }
            }"#,
            &[],
        );
        let fault = r.outcome.fault().expect("expected fault");
        assert_eq!(fault.kind, FaultKind::BufferOverflow { cap: 4, idx: 4 });
        assert_eq!(fault.func, "main");
    }

    #[test]
    fn alloc_overflow_is_detected() {
        let r = run_src(
            r#"fn main() {
                let n: int = input_int("n");
                let h: buf = alloc(n * 256);
                buf_set(h, 0, 1);
            }"#,
            &[("n", InputValue::Int(100))],
        );
        assert_eq!(
            r.outcome.fault().unwrap().kind,
            FaultKind::AllocOverflow { req: 25600 }
        );
    }

    #[test]
    fn negative_alloc_is_overflow() {
        let r = run_src(
            r#"fn main() { let h: buf = alloc(0 - 1); buf_set(h, 0, 1); }"#,
            &[],
        );
        assert_eq!(
            r.outcome.fault().unwrap().kind,
            FaultKind::AllocOverflow { req: -1 }
        );
    }

    #[test]
    fn off_by_one_on_dynamic_buffer() {
        let r = run_src(
            r#"fn main() {
                let h: buf = alloc(4);
                let i: int = 0;
                while (i <= buf_cap(h)) { buf_set(h, i, 65); i = i + 1; }
            }"#,
            &[],
        );
        assert_eq!(
            r.outcome.fault().unwrap().kind,
            FaultKind::OffByOne { cap: 4 }
        );
    }

    #[test]
    fn stack_buffer_keeps_overflow_classification() {
        // idx == cap on a *stack* buffer stays BufferOverflow — the
        // paper benchapps (and their committed traces) rely on this.
        let r = run_src(
            r#"fn main() {
                let b: buf[4];
                let i: int = 0;
                while (i <= buf_cap(b)) { buf_set(b, i, 65); i = i + 1; }
            }"#,
            &[],
        );
        assert_eq!(
            r.outcome.fault().unwrap().kind,
            FaultKind::BufferOverflow { cap: 4, idx: 4 }
        );
    }

    #[test]
    fn use_after_free_is_detected() {
        let r = run_src(
            r#"fn main() {
                let h: buf = alloc(4);
                buf_set(h, 0, 1);
                free(h);
                buf_set(h, 1, 2);
            }"#,
            &[],
        );
        assert_eq!(r.outcome.fault().unwrap().kind, FaultKind::UseAfterFree);
    }

    #[test]
    fn double_free_is_detected() {
        let r = run_src(
            r#"fn main() { let h: buf = alloc(4); free(h); free(h); }"#,
            &[],
        );
        assert_eq!(r.outcome.fault().unwrap().kind, FaultKind::UseAfterFree);
    }

    #[test]
    fn format_string_faults_on_percent() {
        let r = run_src(
            r#"fn main() { let s: str = input_str("s", 8); format(s); }"#,
            &[("s", InputValue::text("ab%n"))],
        );
        assert_eq!(
            r.outcome.fault().unwrap().kind,
            FaultKind::FormatString { idx: 2 }
        );
    }

    #[test]
    fn format_without_percent_is_clean() {
        let r = run_src(
            r#"fn main() -> int { let s: str = input_str("s", 8); format(s); return 7; }"#,
            &[("s", InputValue::text("plain"))],
        );
        assert_eq!(r.outcome, Outcome::Exit(7));
    }

    #[test]
    fn len_stops_at_first_nul() {
        let r = run_src(
            r#"fn main() -> int { let s: str = input_str("s", 8); return len(s); }"#,
            &[("s", InputValue::Str(b"ab\0%".to_vec()))],
        );
        assert_eq!(r.outcome, Outcome::Exit(2));
    }

    #[test]
    fn format_scan_stops_at_first_nul() {
        let r = run_src(
            r#"fn main() -> int { let s: str = input_str("s", 8); format(s); return 7; }"#,
            &[("s", InputValue::Str(b"ab\0%".to_vec()))],
        );
        assert_eq!(r.outcome, Outcome::Exit(7));
    }

    #[test]
    fn string_iteration_stops_at_nul() {
        let r = run_src(
            r#"fn main() -> int {
                let s: str = input_str("name", 16);
                let i: int = 0;
                while (char_at(s, i) != 0) { i = i + 1; }
                return i;
            }"#,
            &[("name", InputValue::text("hello"))],
        );
        assert_eq!(r.outcome, Outcome::Exit(5));
    }

    #[test]
    fn string_input_truncated_to_capacity() {
        let r = run_src(
            r#"fn main() -> int { let s: str = input_str("x", 3); return len(s); }"#,
            &[("x", InputValue::text("abcdef"))],
        );
        assert_eq!(r.outcome, Outcome::Exit(3));
    }

    #[test]
    fn assert_failure_is_fault() {
        let r = run_src(
            "fn main() { let x: int = input_int(\"n\"); assert(x < 3); }",
            &[("n", InputValue::Int(5))],
        );
        assert_eq!(r.outcome.fault().unwrap().kind, FaultKind::AssertFailed);
    }

    #[test]
    fn division_by_zero_is_fault() {
        let r = run_src(
            "fn main() -> int { let d: int = input_int(\"d\"); return 10 / d; }",
            &[("d", InputValue::Int(0))],
        );
        assert_eq!(r.outcome.fault().unwrap().kind, FaultKind::DivByZero);
    }

    #[test]
    fn missing_input_is_config_error() {
        let p = minic::parse_program("fn main() -> int { return input_int(\"n\"); }").unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());
        assert_eq!(
            vm.run(&InputMap::new()),
            Err(VmError::MissingInput("n".into()))
        );
    }

    #[test]
    fn runaway_recursion_hits_stack_limit() {
        let r = run_src(
            "fn loopy(x: int) -> int { return loopy(x + 1); } fn main() -> int { return loopy(0); }",
            &[],
        );
        assert_eq!(r.outcome.fault().unwrap().kind, FaultKind::StackOverflow);
    }

    #[test]
    fn call_depth_limit_is_exact() {
        use crate::fault::MAX_CALL_DEPTH;
        // `r(n)` is `n` frames deep on top of `main`'s.
        let src = r#"
            fn r(n: int) -> int { if (n <= 1) { return 1; } return r(n - 1) + 1; }
            fn main() -> int { return r(input_int("n")); }
        "#;
        let deepest = MAX_CALL_DEPTH as i64 - 1;
        let r = run_src(src, &[("n", InputValue::Int(deepest))]);
        assert_eq!(r.outcome, Outcome::Exit(deepest));
        let r = run_src(src, &[("n", InputValue::Int(deepest + 1))]);
        assert_eq!(r.outcome.fault().unwrap().kind, FaultKind::StackOverflow);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let p = minic::parse_program("fn main() { while (true) { print(1); } }").unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig { max_steps: 1000 });
        let r = vm.run(&InputMap::new()).unwrap();
        assert_eq!(r.outcome, Outcome::StepLimit);
    }

    #[test]
    fn exit_builtin_halts_immediately() {
        let r = run_src("fn main() -> int { exit(42); return 0; }", &[]);
        assert_eq!(r.outcome, Outcome::Exit(42));
    }

    #[test]
    fn short_circuit_avoids_rhs_effects() {
        // If `&&` did not short-circuit, char_at(s, 99) would fault.
        let r = run_src(
            r#"fn main() -> int {
                let s: str = "ab";
                if (len(s) > 5 && char_at(s, 99) == 0) { return 1; }
                return 0;
            }"#,
            &[],
        );
        assert_eq!(r.outcome, Outcome::Exit(0));
    }

    #[test]
    fn hook_sees_enter_and_exit_events() {
        struct Spy(Vec<String>);
        impl ExecHook for Spy {
            fn on_start(&mut self, m: &Module) {
                self.0.push(format!("start {}", m.funcs.len()));
            }
            fn on_enter(
                &mut self,
                id: FuncId,
                f: &FuncBody,
                _: &[Value],
                _: &[GlobalDef],
                _: &[Value],
            ) {
                self.0.push(format!("enter {} {id}", f.name));
            }
            fn on_exit(
                &mut self,
                id: FuncId,
                f: &FuncBody,
                _: Option<&Value>,
                _: &[GlobalDef],
                _: &[Value],
            ) {
                self.0.push(format!("leave {} {id}", f.name));
            }
        }
        let p =
            minic::parse_program("fn inner() { return; } fn main() { inner(); return; }").unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());
        let mut spy = Spy(Vec::new());
        vm.run_hooked(&InputMap::new(), &mut spy).unwrap();
        let id = |name: &str| m.func_id(name).unwrap();
        assert_eq!(
            spy.0,
            vec![
                "start 2".to_string(),
                format!("enter main {}", id("main")),
                format!("enter inner {}", id("inner")),
                format!("leave inner {}", id("inner")),
                format!("leave main {}", id("main")),
            ]
        );
    }

    #[test]
    fn faulting_function_emits_no_leave() {
        struct Spy(Vec<String>);
        impl ExecHook for Spy {
            fn on_enter(
                &mut self,
                _: FuncId,
                f: &FuncBody,
                _: &[Value],
                _: &[GlobalDef],
                _: &[Value],
            ) {
                self.0.push(format!("enter {}", f.name));
            }
            fn on_exit(
                &mut self,
                _: FuncId,
                f: &FuncBody,
                _: Option<&Value>,
                _: &[GlobalDef],
                _: &[Value],
            ) {
                self.0.push(format!("leave {}", f.name));
            }
        }
        let p = minic::parse_program(
            r#"
            fn boom() { let b: buf[2]; buf_set(b, 5, 0); }
            fn main() { boom(); return; }
            "#,
        )
        .unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());
        let mut spy = Spy(Vec::new());
        let r = vm.run_hooked(&InputMap::new(), &mut spy).unwrap();
        assert!(r.outcome.is_fault());
        assert_eq!(spy.0, vec!["enter main", "enter boom"]);
    }
}
