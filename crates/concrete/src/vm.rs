//! The concrete SIR virtual machine.

use crate::fault::{Fault, FaultKind, MAX_ALLOC};
use crate::value::{InputValue, Value};
use minic::BinOp;
use sir::{
    BlockId, ConstValue, FuncBody, FuncId, GlobalDef, InputKind, Inst, Module, Reg, Terminator,
};
use std::collections::HashMap;
use std::fmt;

/// VM resource limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmConfig {
    /// Maximum instructions executed before the run is cut off.
    pub max_steps: u64,
    /// Maximum call depth before a [`FaultKind::StackOverflow`].
    pub max_call_depth: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 5_000_000,
            max_call_depth: 512,
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

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    regs: Vec<Value>,
    /// Where the caller wants the return value.
    ret_dst: Option<Reg>,
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
        Interp {
            module: self.module,
            config: self.config,
            inputs,
            hook,
            globals: self
                .module
                .globals
                .iter()
                .map(|g| const_value(&g.init))
                .collect(),
            heap: Vec::new(),
            stack: Vec::new(),
            steps: 0,
            output: Vec::new(),
        }
        .run()
    }
}

fn const_value(c: &ConstValue) -> Value {
    match c {
        ConstValue::Int(v) => Value::Int(*v),
        ConstValue::Bool(b) => Value::Bool(*b),
        ConstValue::Str(s) => Value::str_from(s.as_bytes().to_vec()),
    }
}

/// One heap allocation: its bytes, a liveness flag, and whether it was
/// produced by `alloc` (dynamic) rather than a sized stack declaration.
/// Dynamic cells get the stricter off-by-one bounds classification and
/// participate in the use-after-free liveness protocol.
struct HeapCell {
    data: Vec<u8>,
    live: bool,
    dynamic: bool,
}

struct Interp<'m, 'h> {
    module: &'m Module,
    config: VmConfig,
    inputs: &'m InputMap,
    hook: &'h mut dyn ExecHook,
    globals: Vec<Value>,
    heap: Vec<HeapCell>,
    stack: Vec<Frame>,
    steps: u64,
    output: Vec<String>,
}

/// Control-flow signal from executing one instruction or terminator.
enum Flow {
    Continue,
    Halt(Outcome),
}

impl<'m, 'h> Interp<'m, 'h> {
    fn run(mut self) -> Result<RunResult, VmError> {
        let main_id = self.module.main;
        self.hook.on_start(self.module);
        let main = self.module.func(main_id);
        let args: Vec<Value> = main.params.iter().map(|(_, ty)| default_for(*ty)).collect();
        self.push_frame(main_id, args, None);

        let outcome = loop {
            if self.steps >= self.config.max_steps {
                break Outcome::StepLimit;
            }
            self.steps += 1;
            match self.step() {
                Ok(Flow::Continue) => {}
                Ok(Flow::Halt(outcome)) => break outcome,
                Err(e) => return Err(e),
            }
        };
        Ok(RunResult {
            outcome,
            steps: self.steps,
            output: self.output,
        })
    }

    fn push_frame(&mut self, func: FuncId, args: Vec<Value>, ret_dst: Option<Reg>) {
        let body = self.module.func(func);
        let mut regs = vec![Value::Unit; body.num_regs as usize];
        for (i, a) in args.iter().enumerate() {
            regs[i] = a.clone();
        }
        self.hook
            .on_enter(func, body, &args, &self.module.globals, &self.globals);
        self.stack.push(Frame {
            func,
            block: body.entry(),
            idx: 0,
            regs,
            ret_dst,
        });
    }

    /// Resolves a register holding a buffer handle to a *live* heap cell
    /// index. `None` means the access is a use-after-free-class fault:
    /// a freed cell, an unbound dynamic `buf` local (register still holds
    /// its `Unit` default), or the never-allocated parameter sentinel.
    fn live_handle(&self, r: Reg) -> Option<usize> {
        match self.reg(r) {
            Value::Buf(id) if *id < self.heap.len() && self.heap[*id].live => Some(*id),
            _ => None,
        }
    }

    fn fault(&self, kind: FaultKind, span: minic::Span) -> Flow {
        let func = self
            .stack
            .last()
            .map(|f| self.module.func(f.func).name.clone())
            .unwrap_or_default();
        Flow::Halt(Outcome::Fault(Fault { kind, func, span }))
    }

    fn step(&mut self) -> Result<Flow, VmError> {
        let frame = self.stack.last().expect("non-empty stack while running");
        let body = self.module.func(frame.func);
        let block = &body.blocks[frame.block.index()];

        if frame.idx < block.insts.len() {
            let (inst, span) = &block.insts[frame.idx];
            let inst = inst.clone();
            let span = *span;
            self.stack.last_mut().unwrap().idx += 1;
            self.exec_inst(inst, span)
        } else {
            let (term, span) = &block.term;
            let term = term.clone();
            let span = *span;
            Ok(self.exec_term(term, span))
        }
    }

    fn reg(&self, r: Reg) -> &Value {
        &self.stack.last().unwrap().regs[r.index()]
    }

    fn set_reg(&mut self, r: Reg, v: Value) {
        self.stack.last_mut().unwrap().regs[r.index()] = v;
    }

    fn exec_inst(&mut self, inst: Inst, span: minic::Span) -> Result<Flow, VmError> {
        match inst {
            Inst::Const { dst, value } => {
                self.set_reg(dst, const_value(&value));
            }
            Inst::Move { dst, src } => {
                let v = self.reg(src).clone();
                self.set_reg(dst, v);
            }
            Inst::Bin { op, dst, a, b } => {
                let va = self.reg(a).clone();
                let vb = self.reg(b).clone();
                match bin_op(op, &va, &vb) {
                    Some(v) => self.set_reg(dst, v),
                    None => return Ok(self.fault(FaultKind::DivByZero, span)),
                }
            }
            Inst::Not { dst, src } => {
                let v = !self.reg(src).as_bool();
                self.set_reg(dst, Value::Bool(v));
            }
            Inst::Neg { dst, src } => {
                let v = self.reg(src).as_int().wrapping_neg();
                self.set_reg(dst, Value::Int(v));
            }
            Inst::LoadGlobal { dst, global } => {
                let v = self.globals[global.index()].clone();
                self.set_reg(dst, v);
            }
            Inst::StoreGlobal { global, src } => {
                self.globals[global.index()] = self.reg(src).clone();
            }
            Inst::Call { dst, func, args } => {
                if self.stack.len() >= self.config.max_call_depth {
                    return Ok(self.fault(FaultKind::StackOverflow, span));
                }
                let argv: Vec<Value> = args.iter().map(|r| self.reg(*r).clone()).collect();
                self.push_frame(func, argv, dst);
            }
            Inst::AllocBuf { dst, cap } => {
                let id = self.heap.len();
                self.heap.push(HeapCell {
                    data: vec![0u8; cap as usize],
                    live: true,
                    dynamic: false,
                });
                self.set_reg(dst, Value::Buf(id));
            }
            Inst::Alloc { dst, size } => {
                let n = self.reg(size).as_int();
                if !(0..=MAX_ALLOC).contains(&n) {
                    return Ok(self.fault(FaultKind::AllocOverflow { req: n }, span));
                }
                let id = self.heap.len();
                self.heap.push(HeapCell {
                    data: vec![0u8; n as usize],
                    live: true,
                    dynamic: true,
                });
                self.set_reg(dst, Value::Buf(id));
            }
            Inst::Free { buf } => {
                // Freeing a dead, unbound, or stack buffer is itself a
                // heap-lifetime fault (double free / invalid free).
                let Some(id) = self.live_handle(buf) else {
                    return Ok(self.fault(FaultKind::UseAfterFree, span));
                };
                if !self.heap[id].dynamic {
                    return Ok(self.fault(FaultKind::UseAfterFree, span));
                }
                self.heap[id].live = false;
            }
            Inst::BufSet { buf, idx, val } => {
                let Some(id) = self.live_handle(buf) else {
                    return Ok(self.fault(FaultKind::UseAfterFree, span));
                };
                let i = self.reg(idx).as_int();
                let v = self.reg(val).as_int();
                let cell = &mut self.heap[id];
                if i < 0 || i as usize >= cell.data.len() {
                    let cap = cell.data.len() as u32;
                    if cell.dynamic && i == cap as i64 {
                        return Ok(self.fault(FaultKind::OffByOne { cap }, span));
                    }
                    return Ok(self.fault(FaultKind::BufferOverflow { cap, idx: i }, span));
                }
                cell.data[i as usize] = v as u8;
            }
            Inst::BufGet { dst, buf, idx } => {
                let Some(id) = self.live_handle(buf) else {
                    return Ok(self.fault(FaultKind::UseAfterFree, span));
                };
                let i = self.reg(idx).as_int();
                let cell = &self.heap[id];
                if i < 0 || i as usize >= cell.data.len() {
                    let cap = cell.data.len() as u32;
                    if cell.dynamic && i == cap as i64 {
                        return Ok(self.fault(FaultKind::OffByOne { cap }, span));
                    }
                    return Ok(self.fault(FaultKind::BufferOverflow { cap, idx: i }, span));
                }
                let v = cell.data[i as usize] as i64;
                self.set_reg(dst, Value::Int(v));
            }
            Inst::BufCap { dst, buf } => {
                let Some(id) = self.live_handle(buf) else {
                    return Ok(self.fault(FaultKind::UseAfterFree, span));
                };
                let cap = self.heap[id].data.len() as i64;
                self.set_reg(dst, Value::Int(cap));
            }
            Inst::Format { fmt } => {
                let bytes = self.reg(fmt).as_str_bytes();
                if let Some(pos) = bytes.iter().position(|&b| b == b'%') {
                    return Ok(self.fault(FaultKind::FormatString { idx: pos as i64 }, span));
                }
            }
            Inst::StrAt { dst, s, idx } => {
                let i = self.reg(idx).as_int();
                let bytes = self.reg(s).as_str_bytes();
                let len = bytes.len();
                if i < 0 || i as usize > len {
                    return Ok(self.fault(
                        FaultKind::StringOob {
                            len: len as u32,
                            idx: i,
                        },
                        span,
                    ));
                }
                let v = if (i as usize) == len {
                    0 // NUL terminator
                } else {
                    bytes[i as usize] as i64
                };
                self.set_reg(dst, Value::Int(v));
            }
            Inst::StrLen { dst, s } => {
                let len = self.reg(s).as_str_bytes().len() as i64;
                self.set_reg(dst, Value::Int(len));
            }
            Inst::Input { dst, input } => {
                let def = &self.module.inputs[input.index()];
                let provided = self
                    .inputs
                    .get(&def.name)
                    .ok_or_else(|| VmError::MissingInput(def.name.clone()))?;
                let v = match (def.kind, provided) {
                    (InputKind::Int, InputValue::Int(v)) => Value::Int(*v),
                    (InputKind::Str { cap }, InputValue::Str(bytes)) => {
                        let mut b = bytes.clone();
                        b.truncate(cap as usize); // bounded read
                        Value::str_from(b)
                    }
                    _ => return Err(VmError::WrongInputKind(def.name.clone())),
                };
                self.set_reg(dst, v);
            }
            Inst::Print { args } => {
                let line: Vec<String> = args.iter().map(|r| self.reg(*r).to_string()).collect();
                self.output.push(line.join(" "));
            }
            Inst::Exit { code } => {
                let c = self.reg(code).as_int();
                return Ok(Flow::Halt(Outcome::Exit(c)));
            }
            Inst::Assert { cond } => {
                if !self.reg(cond).as_bool() {
                    return Ok(self.fault(FaultKind::AssertFailed, span));
                }
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_term(&mut self, term: Terminator, _span: minic::Span) -> Flow {
        match term {
            Terminator::Jump(b) => {
                let frame = self.stack.last_mut().unwrap();
                frame.block = b;
                frame.idx = 0;
                Flow::Continue
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let taken = self.reg(cond).as_bool();
                let frame = self.stack.last_mut().unwrap();
                frame.block = if taken { then_bb } else { else_bb };
                frame.idx = 0;
                Flow::Continue
            }
            Terminator::Return(r) => {
                let frame = self.stack.last().unwrap();
                let ret = r.map(|r| frame.regs[r.index()].clone());
                let body = self.module.func(frame.func);
                self.hook.on_exit(
                    frame.func,
                    body,
                    ret.as_ref(),
                    &self.module.globals,
                    &self.globals,
                );
                let ret_dst = frame.ret_dst;
                self.stack.pop();
                match self.stack.last_mut() {
                    None => {
                        let code = match ret {
                            Some(Value::Int(v)) => v,
                            _ => 0,
                        };
                        Flow::Halt(Outcome::Exit(code))
                    }
                    Some(caller) => {
                        if let (Some(dst), Some(v)) = (ret_dst, ret) {
                            caller.regs[dst.index()] = v;
                        }
                        Flow::Continue
                    }
                }
            }
        }
    }
}

fn default_for(ty: minic::Type) -> Value {
    match ty {
        minic::Type::Int => Value::Int(0),
        minic::Type::Bool => Value::Bool(false),
        minic::Type::Str => Value::str_from(Vec::new()),
        minic::Type::Buf(_) => Value::Buf(usize::MAX), // never allocated; unused by benchmarks
    }
}

/// Evaluates a binary operation; `None` signals division by zero.
fn bin_op(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    use BinOp::*;
    Some(match (op, a, b) {
        (Add, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(*y)),
        (Sub, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_sub(*y)),
        (Mul, Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_mul(*y)),
        (Div, Value::Int(x), Value::Int(y)) => {
            if *y == 0 {
                return None;
            }
            Value::Int(x.wrapping_div(*y))
        }
        (Rem, Value::Int(x), Value::Int(y)) => {
            if *y == 0 {
                return None;
            }
            Value::Int(x.wrapping_rem(*y))
        }
        (Eq, Value::Int(x), Value::Int(y)) => Value::Bool(x == y),
        (Ne, Value::Int(x), Value::Int(y)) => Value::Bool(x != y),
        (Eq, Value::Bool(x), Value::Bool(y)) => Value::Bool(x == y),
        (Ne, Value::Bool(x), Value::Bool(y)) => Value::Bool(x != y),
        (Lt, Value::Int(x), Value::Int(y)) => Value::Bool(x < y),
        (Le, Value::Int(x), Value::Int(y)) => Value::Bool(x <= y),
        (Gt, Value::Int(x), Value::Int(y)) => Value::Bool(x > y),
        (Ge, Value::Int(x), Value::Int(y)) => Value::Bool(x >= y),
        _ => panic!("ill-typed bin op {op:?} on {a:?}, {b:?} (checker should prevent)"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn infinite_loop_hits_step_limit() {
        let p = minic::parse_program("fn main() { while (true) { print(1); } }").unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(
            &m,
            VmConfig {
                max_steps: 1000,
                ..VmConfig::default()
            },
        );
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
