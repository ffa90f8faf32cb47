//! The one interpreter of SIR semantics, generic over a value domain.
//!
//! [`step`] executes one instruction or terminator. What a value *is*
//! comes from the [`Domain`]: the concrete VM ([`crate::vm`]) runs it over
//! `i64`/`bool`/`Rc<[u8]>` and never forks; the symbolic executor runs it
//! over solver terms and forks where a decision depends on a symbolic
//! value. Everything else is written once, here: frames, calls and
//! returns with the call-depth limit, the heap-liveness gate, bounds
//! classification, the `[0, MAX_ALLOC]` allocation rule, strings ending
//! at their first NUL, and the function-boundary events at calls and
//! returns. So a fault the engine reports replays on the VM under the
//! same rules.

use crate::fault::{Fault, FaultKind, MAX_ALLOC, MAX_CALL_DEPTH};
use crate::value::Val;
use minic::{BinOp, Span};
use sir::{BlockId, ConstValue, FuncId, InputId, Inst, Module, Reg, Terminator};
use std::fmt::Debug;
use std::ops::ControlFlow::{self, Break, Continue};

/// One stack frame. Its registers live in [`Machine::regs`], from
/// `base` up to the next frame's `base` (or the end of the stack).
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// The function being executed.
    pub func: FuncId,
    /// Current basic block.
    pub block: BlockId,
    /// Next instruction index within the block.
    pub idx: usize,
    /// Index of the frame's register 0 in [`Machine::regs`].
    pub base: usize,
    /// Caller register receiving the return value.
    pub ret_dst: Option<Reg>,
}

/// One heap allocation: its cells, a liveness flag, and whether `alloc`
/// produced it (dynamic) rather than a sized stack declaration. Each
/// cell holds the stored `int`. Dynamic cells get the stricter
/// off-by-one bounds classification and may be freed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapCell<I> {
    /// Cell values; the length is the capacity.
    pub cells: Vec<I>,
    /// False once `free` released the cell; any later access faults.
    pub live: bool,
    /// True for `alloc`-produced buffers.
    pub dynamic: bool,
}

impl<I> HeapCell<I> {
    /// A live stack (fixed-capacity) buffer.
    pub fn stack(cells: Vec<I>) -> HeapCell<I> {
        HeapCell {
            cells,
            live: true,
            dynamic: false,
        }
    }

    /// A live dynamic (`alloc`-produced) buffer.
    pub fn dynamic(cells: Vec<I>) -> HeapCell<I> {
        HeapCell {
            cells,
            live: true,
            dynamic: true,
        }
    }
}

/// The program's memory on one path: call stack, globals and heap.
#[derive(Debug, Clone)]
pub struct Machine<I, B, S> {
    /// Call stack; the last frame is active.
    pub frames: Vec<Frame>,
    /// Every frame's registers back to back: one register stack that a
    /// call grows and a return truncates.
    pub regs: Vec<Val<I, B, S>>,
    /// Global variable values, parallel to the module's globals.
    pub globals: Vec<Val<I, B, S>>,
    /// Buffer heap, indexed by [`Val::Buf`] handles.
    pub heap: Vec<HeapCell<I>>,
}

impl<I, B, S> Default for Machine<I, B, S> {
    fn default() -> Self {
        Machine {
            frames: Vec::new(),
            regs: Vec::new(),
            globals: Vec::new(),
            heap: Vec::new(),
        }
    }
}

/// A domain's value type.
pub type ValueOf<D> = Val<<D as Domain>::Int, <D as Domain>::Bool, <D as Domain>::Str>;
/// A domain's machine type.
pub type MachineOf<D> = Machine<<D as Domain>::Int, <D as Domain>::Bool, <D as Domain>::Str>;

impl<I: Copy + Debug, B: Copy + Debug, S: Clone + Debug> Machine<I, B, S> {
    /// The active frame.
    ///
    /// # Panics
    ///
    /// Panics once the program has returned from `main`.
    #[inline]
    pub fn frame(&self) -> &Frame {
        self.frames.last().expect("machine has an active frame")
    }

    /// The active frame, mutably.
    ///
    /// # Panics
    ///
    /// Panics once the program has returned from `main`.
    #[inline]
    pub fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("machine has an active frame")
    }

    /// Register `r` of the active frame.
    #[inline]
    pub fn reg(&self, r: Reg) -> &Val<I, B, S> {
        &self.regs[self.frame().base + r.index()]
    }

    /// Sets register `r` of the active frame.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: Val<I, B, S>) {
        let i = self.frame().base + r.index();
        self.regs[i] = v;
    }

    /// The active frame's first `n` registers: its arguments, right
    /// after the call.
    pub fn args(&self, n: usize) -> &[Val<I, B, S>] {
        let base = self.frame().base;
        &self.regs[base..base + n]
    }

    /// Resolves a register holding a buffer handle to a *live* heap
    /// cell. `None` is the use-after-free class: a freed cell, or a
    /// register still holding its `Unit` default (an unbound dynamic
    /// `buf` local or a never-allocated parameter).
    pub fn live_handle(&self, r: Reg) -> Option<usize> {
        match self.reg(r) {
            Val::Buf(id) if self.heap.get(*id).is_some_and(|c| c.live) => Some(*id),
            _ => None,
        }
    }

    /// A fault of `kind` at `span` in the active function.
    pub fn fault(&self, module: &Module, kind: FaultKind, span: Span) -> Fault {
        Fault {
            kind,
            func: module.func(self.frame().func).name.clone(),
            span,
        }
    }

    /// Pushes a frame for `func` on top of the register stack and copies
    /// the caller's registers `args` into its first registers.
    fn push_frame(&mut self, module: &Module, func: FuncId, args: &[Reg], ret_dst: Option<Reg>) {
        let body = module.func(func);
        let caller = self.frames.last().map_or(0, |f| f.base);
        let base = self.regs.len();
        self.regs.resize(base + body.num_regs as usize, Val::Unit);
        for (i, r) in args.iter().enumerate() {
            self.regs[base + i] = self.regs[caller + r.index()].clone();
        }
        self.frames.push(Frame {
            func,
            block: body.entry(),
            idx: 0,
            base,
            ret_dst,
        });
    }
}

/// A value domain: the value types plus one method per decision point.
///
/// The interpreter resolves every operation and decision on values the
/// domain knows ([`Domain::known_int`], [`Domain::known_bool`]) by the
/// one rule written here. Only operations on unknown values reach the
/// methods after [`Domain::not`]. A domain whose values are always known
/// never reaches them, so their defaults panic.
pub trait Domain: Sized {
    /// Integer values (also buffer cells and string bytes).
    type Int: Copy + Debug;
    /// Boolean values.
    type Bool: Copy + PartialEq + Debug;
    /// String values: `cap` content bytes, then a NUL terminator.
    type Str: Clone + Debug;
    /// Everything one path carries; it holds the [`Machine`].
    type State;
    /// What a step that stops produces (an outcome, a fork, an error).
    type Out;

    /// The machine inside a state.
    fn machine(st: &Self::State) -> &MachineOf<Self>;
    /// The machine inside a state, mutably.
    fn machine_mut(st: &mut Self::State) -> &mut MachineOf<Self>;

    /// The value of input `id`.
    fn input(&mut self, id: InputId) -> ControlFlow<Self::Out, ValueOf<Self>>;
    /// `print(args)`.
    fn print(&mut self, m: &MachineOf<Self>, args: &[Reg]);
    /// The enter event of `func`, after its frame is pushed: its
    /// arguments are the new frame's first `argc` registers
    /// ([`Machine::args`]).
    fn enter(&mut self, st: &mut Self::State, func: FuncId, argc: usize) -> ControlFlow<Self::Out>;
    /// The leave event of `func`, before its frame is popped.
    fn leave(
        &mut self,
        st: &mut Self::State,
        func: FuncId,
        ret: Option<&ValueOf<Self>>,
    ) -> ControlFlow<Self::Out>;
    /// The path faults.
    fn fault(&mut self, st: &mut Self::State, fault: Fault) -> Self::Out;
    /// The path exits: by `exit(code)`, or by returning from `main` with
    /// `code` (`None` when `main` returns no `int`).
    fn exit(&mut self, st: &mut Self::State, code: Option<Self::Int>) -> Self::Out;

    /// The integer `v`.
    fn int(&mut self, v: i64) -> Self::Int;
    /// The value of `v`, if the domain knows it.
    fn known_int(&self, v: Self::Int) -> Option<i64>;
    /// The boolean `b`.
    fn bool(b: bool) -> Self::Bool;
    /// The value of `b`, if the domain knows it.
    fn known_bool(b: Self::Bool) -> Option<bool>;
    /// A string literal.
    fn str_lit(&mut self, bytes: &[u8]) -> Self::Str;
    /// A string's capacity: the index of its guaranteed NUL terminator.
    fn str_cap(s: &Self::Str) -> usize;
    /// Byte `i` of `s`, `i <= cap` (byte `cap` is the terminator).
    fn str_byte(&mut self, s: &Self::Str, i: usize) -> Self::Int;
    /// `!b`.
    fn not(b: Self::Bool) -> Self::Bool;

    /// `a op b` for `Add`, `Sub`, `Mul`, and `Div`/`Rem` by a divisor
    /// checked non-zero, when `a` or `b` is unknown.
    fn arith(&mut self, _op: BinOp, _a: Self::Int, _b: Self::Int) -> Self::Int {
        unknown()
    }
    /// `a op b` for the integer comparisons, when `a` or `b` is unknown.
    fn cmp(&mut self, _op: BinOp, _a: Self::Int, _b: Self::Int) -> Self::Bool {
        unknown()
    }
    /// `-a` of an unknown `a`.
    fn neg(&mut self, _a: Self::Int) -> Self::Int {
        unknown()
    }
    /// Branch on an unknown `c`: each feasible side runs `k(child, side)`.
    fn fork_branch(
        &mut self,
        _st: &mut Self::State,
        _c: Self::Bool,
        _k: impl FnMut(&mut Self::State, bool),
    ) -> Self::Out {
        unknown()
    }
    /// `assert(c)` on an unknown `c`.
    fn fork_assert(&mut self, _st: &mut Self::State, _c: Self::Bool, _span: Span) -> Self::Out {
        unknown()
    }
    /// Runs before every `Div`/`Rem` whose divisor is not known to be
    /// zero. A domain that can split off a zero divisor forks here; the
    /// non-zero side runs `k`, which sets the quotient.
    fn guard_divisor(
        &mut self,
        _st: &mut Self::State,
        _divisor: Self::Int,
        _span: Span,
        _k: impl FnOnce(&mut Self, &mut Self::State),
    ) -> ControlFlow<Self::Out> {
        Continue(())
    }
    /// An unknown `v` that must lie in `range`: each feasible violation
    /// faults, and the in-range side runs `apply` at one value.
    fn fork_range(
        &mut self,
        _st: &mut Self::State,
        _v: Self::Int,
        _range: Range<impl Fn(i64) -> FaultKind>,
        _span: Span,
        _apply: impl FnOnce(&mut Self, &mut Self::State, i64),
    ) -> Self::Out {
        unknown()
    }
    /// `len(s)` where a byte before the first known NUL is unknown: each
    /// feasible length `n` runs `k(child, n)`.
    fn fork_strlen(
        &mut self,
        _st: &mut Self::State,
        _s: &Self::Str,
        _k: impl FnMut(&mut Self, &mut Self::State, usize),
    ) -> Self::Out {
        unknown()
    }
    /// `format(s)` where a byte before the first known NUL or `%` is
    /// unknown.
    fn fork_format(&mut self, _st: &mut Self::State, _s: &Self::Str, _span: Span) -> Self::Out {
        unknown()
    }
}

#[cold]
fn unknown() -> ! {
    unreachable!("an unknown value in a domain that knows every value")
}

/// The machine entering `main`: globals at their initializers and one
/// frame for `main` with default arguments. The caller delivers `main`'s
/// enter event.
pub fn boot<D: Domain>(d: &mut D, module: &Module) -> MachineOf<D> {
    let globals = module
        .globals
        .iter()
        .map(|g| const_value(d, &g.init))
        .collect();
    let mut m = Machine {
        globals,
        ..Machine::default()
    };
    m.push_frame(module, module.main, &[], None);
    for (i, (_, ty)) in module.func(module.main).params.iter().enumerate() {
        m.regs[i] = match ty {
            minic::Type::Int => Val::Int(d.int(0)),
            minic::Type::Bool => Val::Bool(D::bool(false)),
            minic::Type::Str => Val::Str(d.str_lit(b"")),
            minic::Type::Buf(_) => Val::Unit,
        };
    }
    m
}

/// The valid range `[0, hi)` (`[0, hi]` when `inclusive`) of an index
/// or an allocation size, and the fault a value outside it raises.
#[derive(Debug)]
pub struct Range<K> {
    /// Upper bound.
    pub hi: i64,
    /// Whether `hi` itself is valid.
    pub inclusive: bool,
    /// The witness reported above and below the range when none is known.
    pub fallback: [i64; 2],
    /// The fault of an out-of-range value.
    pub kind: K,
}

/// An access within `cap` elements; `inclusive` for a string read, which
/// may touch the NUL terminator at `cap`. On a dynamic buffer the
/// `idx == cap` fencepost is the off-by-one class.
#[inline]
fn access(cap: usize, inclusive: bool, dynamic: bool) -> Range<impl Fn(i64) -> FaultKind> {
    let hi = cap as i64;
    let kind = move |idx| match (inclusive, dynamic && idx == hi) {
        (true, _) => FaultKind::StringOob {
            len: hi as u32,
            idx,
        },
        (false, true) => FaultKind::OffByOne { cap: hi as u32 },
        (false, false) => FaultKind::BufferOverflow {
            cap: hi as u32,
            idx,
        },
    };
    Range {
        hi,
        inclusive,
        fallback: [hi, hi],
        kind,
    }
}

/// Executes one instruction (or the block terminator) of `st`.
/// `Continue` means the path advanced in place.
#[inline]
pub fn step<D: Domain>(d: &mut D, module: &Module, st: &mut D::State) -> ControlFlow<D::Out> {
    let frame = D::machine_mut(st).frame_mut();
    let block = &module.func(frame.func).blocks[frame.block.index()];
    match block.insts.get(frame.idx) {
        Some((inst, span)) => {
            frame.idx += 1;
            exec_inst(d, module, st, inst, *span)
        }
        None => exec_term(d, st, &block.term.0),
    }
}

#[inline]
fn const_value<D: Domain>(d: &mut D, c: &ConstValue) -> ValueOf<D> {
    match c {
        ConstValue::Int(v) => Val::Int(d.int(*v)),
        ConstValue::Bool(b) => Val::Bool(D::bool(*b)),
        ConstValue::Str(s) => Val::Str(d.str_lit(s.as_bytes())),
    }
}

#[inline]
fn set<D: Domain>(st: &mut D::State, r: Reg, v: ValueOf<D>) {
    D::machine_mut(st).set_reg(r, v);
}

#[inline]
fn goto<D: Domain>(st: &mut D::State, b: BlockId) {
    let f = D::machine_mut(st).frame_mut();
    f.block = b;
    f.idx = 0;
}

#[inline]
fn fault<D: Domain>(
    d: &mut D,
    module: &Module,
    st: &mut D::State,
    kind: FaultKind,
    span: Span,
) -> ControlFlow<D::Out> {
    let f = D::machine(st).fault(module, kind, span);
    Break(d.fault(st, f))
}

#[inline]
fn exec_inst<D: Domain>(
    d: &mut D,
    module: &Module,
    st: &mut D::State,
    inst: &Inst,
    span: Span,
) -> ControlFlow<D::Out> {
    let m = D::machine_mut(st);
    match *inst {
        Inst::Const { dst, ref value } => {
            let v = const_value(d, value);
            set::<D>(st, dst, v);
        }
        Inst::Move { dst, src } => {
            let v = m.reg(src).clone();
            m.set_reg(dst, v);
        }
        Inst::Bin { op, dst, a, b } => return exec_bin(d, module, st, op, dst, a, b, span),
        Inst::Not { dst, src } => {
            let v = D::not(m.reg(src).as_bool());
            m.set_reg(dst, Val::Bool(v));
        }
        Inst::Neg { dst, src } => {
            let x = m.reg(src).as_int();
            let v = match d.known_int(x) {
                Some(x) => d.int(x.wrapping_neg()),
                None => d.neg(x),
            };
            set::<D>(st, dst, Val::Int(v));
        }
        Inst::LoadGlobal { dst, global } => {
            let v = m.globals[global.index()].clone();
            m.set_reg(dst, v);
        }
        Inst::StoreGlobal { global, src } => {
            m.globals[global.index()] = m.reg(src).clone();
        }
        Inst::Call {
            dst,
            func,
            ref args,
        } => {
            if m.frames.len() >= MAX_CALL_DEPTH {
                return fault(d, module, st, FaultKind::StackOverflow, span);
            }
            m.push_frame(module, func, args, dst);
            return d.enter(st, func, args.len());
        }
        Inst::AllocBuf { dst, cap } => {
            let zero = d.int(0);
            let m = D::machine_mut(st);
            let id = m.heap.len();
            m.heap.push(HeapCell::stack(vec![zero; cap as usize]));
            m.set_reg(dst, Val::Buf(id));
        }
        Inst::Alloc { dst, size } => {
            let n = m.reg(size).as_int();
            let zero = d.int(0);
            let alloc = move |_: &mut D, st: &mut D::State, n: i64| {
                let m = D::machine_mut(st);
                let id = m.heap.len();
                m.heap.push(HeapCell::dynamic(vec![zero; n as usize]));
                m.set_reg(dst, Val::Buf(id));
            };
            let range = Range {
                hi: MAX_ALLOC,
                inclusive: true,
                fallback: [MAX_ALLOC + 1, -1],
                kind: |req| FaultKind::AllocOverflow { req },
            };
            return in_range(d, module, st, n, range, span, alloc);
        }
        Inst::Free { buf } => match m.live_handle(buf) {
            Some(id) if m.heap[id].dynamic => m.heap[id].live = false,
            // Freeing a dead, unbound, or stack buffer is itself a
            // heap-lifetime fault (double free / invalid free).
            _ => return fault(d, module, st, FaultKind::UseAfterFree, span),
        },
        Inst::BufSet { buf, idx, val } => {
            let Some(id) = m.live_handle(buf) else {
                return fault(d, module, st, FaultKind::UseAfterFree, span);
            };
            let (cell, i, v) = (&m.heap[id], m.reg(idx).as_int(), m.reg(val).as_int());
            let range = access(cell.cells.len(), false, cell.dynamic);
            return in_range(d, module, st, i, range, span, move |_, st, i| {
                D::machine_mut(st).heap[id].cells[i as usize] = v;
            });
        }
        Inst::BufGet { dst, buf, idx } => {
            let Some(id) = m.live_handle(buf) else {
                return fault(d, module, st, FaultKind::UseAfterFree, span);
            };
            let (cell, i) = (&m.heap[id], m.reg(idx).as_int());
            let range = access(cell.cells.len(), false, cell.dynamic);
            return in_range(d, module, st, i, range, span, move |_, st, i| {
                let m = D::machine_mut(st);
                let v = m.heap[id].cells[i as usize];
                m.set_reg(dst, Val::Int(v));
            });
        }
        Inst::BufCap { dst, buf } => {
            let Some(id) = m.live_handle(buf) else {
                return fault(d, module, st, FaultKind::UseAfterFree, span);
            };
            let cap = m.heap[id].cells.len() as i64;
            let v = d.int(cap);
            set::<D>(st, dst, Val::Int(v));
        }
        Inst::Format { fmt } => {
            let s = m.reg(fmt).as_str().clone();
            return match scan(d, &s, b'%') {
                Some((pos, true)) => {
                    let kind = FaultKind::FormatString { idx: pos as i64 };
                    fault(d, module, st, kind, span)
                }
                Some((_, false)) => Continue(()),
                None => Break(d.fork_format(st, &s, span)),
            };
        }
        Inst::StrAt { dst, s, idx } => {
            let (cap, i) = (D::str_cap(m.reg(s).as_str()), m.reg(idx).as_int());
            let range = access(cap, true, false);
            return in_range(d, module, st, i, range, span, move |d, st, i| {
                let b = d.str_byte(D::machine(st).reg(s).as_str(), i as usize);
                set::<D>(st, dst, Val::Int(b));
            });
        }
        Inst::StrLen { dst, s } => {
            let s = m.reg(s).as_str().clone();
            let set_len = move |d: &mut D, st: &mut D::State, n: usize| {
                let v = d.int(n as i64);
                set::<D>(st, dst, Val::Int(v));
            };
            match scan(d, &s, 0) {
                Some((n, _)) => set_len(d, st, n),
                None => return Break(d.fork_strlen(st, &s, set_len)),
            }
        }
        Inst::Input { dst, input } => {
            let v = d.input(input)?;
            set::<D>(st, dst, v);
        }
        Inst::Print { ref args } => d.print(D::machine(st), args),
        Inst::Exit { code } => {
            let c = m.reg(code).as_int();
            return Break(d.exit(st, Some(c)));
        }
        Inst::Assert { cond } => {
            let c = m.reg(cond).as_bool();
            match D::known_bool(c) {
                Some(true) => {}
                Some(false) => return fault(d, module, st, FaultKind::AssertFailed, span),
                None => return Break(d.fork_assert(st, c, span)),
            }
        }
    }
    Continue(())
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn exec_bin<D: Domain>(
    d: &mut D,
    module: &Module,
    st: &mut D::State,
    op: BinOp,
    dst: Reg,
    a: Reg,
    b: Reg,
    span: Span,
) -> ControlFlow<D::Out> {
    use BinOp::*;
    let m = D::machine(st);
    let v = match (m.reg(a), m.reg(b)) {
        (&Val::Bool(x), &Val::Bool(y)) => {
            let ne = match op {
                Eq => false,
                Ne => true,
                _ => unreachable!("ill-typed bool {op:?} (checker should prevent)"),
            };
            let eq = move |x: D::Bool, y: D::Bool| {
                let v = match (D::known_bool(x), D::known_bool(y)) {
                    (Some(a), Some(b)) => D::bool(a == b),
                    (Some(true), None) => y,
                    (Some(false), None) => D::not(y),
                    (None, Some(true)) => x,
                    (None, Some(false)) => D::not(x),
                    (None, None) if x == y => D::bool(true),
                    (None, None) => return None,
                };
                Some(if ne { D::not(v) } else { v })
            };
            match eq(x, y) {
                Some(v) => Val::Bool(v),
                // Two distinct unknown booleans: branch on `x`, which
                // leaves `y` or `!y` as the answer.
                None => {
                    return Break(d.fork_branch(st, x, move |st, xv| {
                        let x = D::bool(xv);
                        let v = eq(x, y).expect("a known side decides the comparison");
                        set::<D>(st, dst, Val::Bool(v));
                    }))
                }
            }
        }
        (va, vb) => {
            let (x, y) = (va.as_int(), vb.as_int());
            if matches!(op, Div | Rem) {
                if d.known_int(y) == Some(0) {
                    return fault(d, module, st, FaultKind::DivByZero, span);
                }
                let quot = move |d: &mut D, st: &mut D::State| {
                    let q = int_op(d, op, x, y);
                    set::<D>(st, dst, q);
                };
                d.guard_divisor(st, y, span, quot)?;
            }
            int_op(d, op, x, y)
        }
    };
    set::<D>(st, dst, v);
    Continue(())
}

/// Runs `apply` at `v` if it lies in `range`, else faults.
#[inline]
fn in_range<D: Domain>(
    d: &mut D,
    module: &Module,
    st: &mut D::State,
    v: D::Int,
    range: Range<impl Fn(i64) -> FaultKind>,
    span: Span,
    apply: impl FnOnce(&mut D, &mut D::State, i64),
) -> ControlFlow<D::Out> {
    match d.known_int(v) {
        Some(n) if n >= 0 && (n < range.hi || (range.inclusive && n == range.hi)) => {
            apply(d, st, n);
            Continue(())
        }
        Some(n) => fault(d, module, st, (range.kind)(n), span),
        None => Break(d.fork_range(st, v, range, span, apply)),
    }
}

/// `a op b` on integers: wrapping arithmetic (`Div`/`Rem` by a divisor
/// checked non-zero) and comparisons.
#[inline]
fn int_op<D: Domain>(d: &mut D, op: BinOp, a: D::Int, b: D::Int) -> ValueOf<D> {
    use BinOp::*;
    let Some((x, y)) = d.known_int(a).zip(d.known_int(b)) else {
        return match op {
            Add | Sub | Mul | Div | Rem => Val::Int(d.arith(op, a, b)),
            _ => Val::Bool(d.cmp(op, a, b)),
        };
    };
    match op {
        Add => Val::Int(d.int(x.wrapping_add(y))),
        Sub => Val::Int(d.int(x.wrapping_sub(y))),
        Mul => Val::Int(d.int(x.wrapping_mul(y))),
        Div => Val::Int(d.int(x.wrapping_div(y))),
        Rem => Val::Int(d.int(x.wrapping_rem(y))),
        Eq => Val::Bool(D::bool(x == y)),
        Ne => Val::Bool(D::bool(x != y)),
        Lt => Val::Bool(D::bool(x < y)),
        Le => Val::Bool(D::bool(x <= y)),
        Gt => Val::Bool(D::bool(x > y)),
        Ge => Val::Bool(D::bool(x >= y)),
        And | Or => unreachable!("&&/|| are lowered to control flow"),
    }
}

/// Scans `s` up to its first NUL for the first `stop` byte. A string
/// ends at its first NUL: `Some((i, hit))` is the index of the first
/// byte that is NUL or `stop` (`cap` when there is none), with `hit`
/// true when it is `stop`. `None` when an unknown byte comes first.
#[inline]
fn scan<D: Domain>(d: &mut D, s: &D::Str, stop: u8) -> Option<(usize, bool)> {
    for i in 0..D::str_cap(s) {
        let b = d.str_byte(s, i);
        match d.known_int(b)? {
            0 => return Some((i, false)),
            b if b == i64::from(stop) => return Some((i, true)),
            _ => {}
        }
    }
    Some((D::str_cap(s), false))
}

#[inline]
fn exec_term<D: Domain>(d: &mut D, st: &mut D::State, term: &Terminator) -> ControlFlow<D::Out> {
    match *term {
        Terminator::Jump(b) => goto::<D>(st, b),
        Terminator::Branch {
            cond,
            then_bb,
            else_bb,
        } => {
            let target = move |taken| if taken { then_bb } else { else_bb };
            let c = D::machine(st).reg(cond).as_bool();
            match D::known_bool(c) {
                Some(taken) => goto::<D>(st, target(taken)),
                None => {
                    return Break(d.fork_branch(st, c, move |st, taken| {
                        goto::<D>(st, target(taken));
                    }))
                }
            }
        }
        Terminator::Return(r) => {
            let m = D::machine(st);
            let ret = r.map(|r| m.reg(r).clone());
            let func = m.frame().func;
            d.leave(st, func, ret.as_ref())?;
            let m = D::machine_mut(st);
            let done = m.frames.pop().expect("returning frame");
            m.regs.truncate(done.base);
            if m.frames.is_empty() {
                let code = match ret {
                    Some(Val::Int(v)) => Some(v),
                    _ => None,
                };
                return Break(d.exit(st, code));
            }
            if let (Some(dst), Some(v)) = (done.ret_dst, ret) {
                m.set_reg(dst, v);
            }
        }
    }
    Continue(())
}
