//! SIR instruction set and module containers.

use minic::{BinOp, Span, Type};
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// The id as a usize index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name).chars().next().unwrap().to_ascii_lowercase(), self.0)
            }
        }
    };
}

id_type!(
    /// A virtual register within one function frame.
    Reg
);
id_type!(
    /// A basic block within one function.
    BlockId
);
id_type!(
    /// A function in the module.
    FuncId
);
id_type!(
    /// A global variable slot.
    GlobalId
);
id_type!(
    /// A named program input (symbolic source).
    InputId
);

/// Compile-time constant values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstValue {
    /// 64-bit integer (also used for byte/char values).
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// String literal.
    Str(String),
}

/// What kind of value a named input produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// Integer input.
    Int,
    /// NUL-terminated string input with at most `cap` content bytes.
    Str {
        /// Maximum number of content bytes (exclusive of the terminator).
        cap: u32,
    },
}

/// A named program input (command-line argument, environment variable,
/// request payload, ...). The concrete VM reads these from the run's
/// input map; the symbolic engine makes them symbolic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputDef {
    /// The name given at the `input_str`/`input_int` call site.
    pub name: String,
    /// Value kind.
    pub kind: InputKind,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalDef {
    /// Source-level name.
    pub name: String,
    /// Declared type (`int`, `bool`, or `str`).
    pub ty: Type,
    /// Initial value.
    pub init: ConstValue,
}

/// A single SIR instruction. Every instruction carries the [`Span`] of the
/// MiniC construct it was lowered from (stored alongside in the block).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inst {
    /// `dst <- const`.
    Const { dst: Reg, value: ConstValue },
    /// `dst <- src`.
    Move { dst: Reg, src: Reg },
    /// `dst <- a op b` for arithmetic and comparison operators. `&&`/`||`
    /// never appear here (lowered to control flow).
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- !src` (bool).
    Not { dst: Reg, src: Reg },
    /// `dst <- -src` (int).
    Neg { dst: Reg, src: Reg },
    /// `dst <- globals[g]`.
    LoadGlobal { dst: Reg, global: GlobalId },
    /// `globals[g] <- src`.
    StoreGlobal { global: GlobalId, src: Reg },
    /// Call a user function. `dst` is `None` for void functions.
    Call {
        dst: Option<Reg>,
        func: FuncId,
        args: Vec<Reg>,
    },
    /// Allocate a fresh zero-filled buffer of capacity `cap`.
    AllocBuf { dst: Reg, cap: u32 },
    /// Allocate a fresh zero-filled *dynamic* buffer whose capacity is the
    /// runtime value of `size`. A size outside `[0, MAX_ALLOC]` is an
    /// allocation-overflow fault (integer overflow feeding an allocation).
    Alloc { dst: Reg, size: Reg },
    /// Release the dynamic buffer held by `buf`; later access (or a second
    /// free) is a use-after-free fault.
    Free { buf: Reg },
    /// Format-string sink: fault if `fmt` contains a `%` byte before NUL.
    Format { fmt: Reg },
    /// `buf[idx] <- val & 0xff`. Out-of-capacity index is a
    /// buffer-overflow fault (the paper's vulnerability class).
    BufSet { buf: Reg, idx: Reg, val: Reg },
    /// `dst <- buf[idx]`; bounds-checked.
    BufGet { dst: Reg, buf: Reg, idx: Reg },
    /// `dst <- capacity(buf)`.
    BufCap { dst: Reg, buf: Reg },
    /// `dst <- s[idx]`; reading index `len(s)` yields 0 (the NUL
    /// terminator); reading past it or a negative index is a fault.
    StrAt { dst: Reg, s: Reg, idx: Reg },
    /// `dst <- len(s)`.
    StrLen { dst: Reg, s: Reg },
    /// `dst <- input(i)`.
    Input { dst: Reg, input: InputId },
    /// Output sink; evaluated for effect only.
    Print { args: Vec<Reg> },
    /// Terminate the program normally with the given exit code.
    Exit { code: Reg },
    /// Fault if `cond` is false.
    Assert { cond: Reg },
}

impl Inst {
    /// The destination register this instruction writes, if any.
    pub fn dst(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Move { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Not { dst, .. }
            | Inst::Neg { dst, .. }
            | Inst::LoadGlobal { dst, .. }
            | Inst::AllocBuf { dst, .. }
            | Inst::BufGet { dst, .. }
            | Inst::BufCap { dst, .. }
            | Inst::StrAt { dst, .. }
            | Inst::StrLen { dst, .. }
            | Inst::Input { dst, .. }
            | Inst::Alloc { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::StoreGlobal { .. }
            | Inst::BufSet { .. }
            | Inst::Print { .. }
            | Inst::Exit { .. }
            | Inst::Free { .. }
            | Inst::Format { .. }
            | Inst::Assert { .. } => None,
        }
    }

    /// All registers this instruction reads.
    pub fn sources(&self) -> Vec<Reg> {
        match self {
            Inst::Const { .. }
            | Inst::LoadGlobal { .. }
            | Inst::AllocBuf { .. }
            | Inst::Input { .. } => vec![],
            Inst::Move { src, .. } | Inst::Not { src, .. } | Inst::Neg { src, .. } => vec![*src],
            Inst::Bin { a, b, .. } => vec![*a, *b],
            Inst::StoreGlobal { src, .. } => vec![*src],
            Inst::Call { args, .. } => args.clone(),
            Inst::BufSet { buf, idx, val } => vec![*buf, *idx, *val],
            Inst::BufGet { buf, idx, .. } => vec![*buf, *idx],
            Inst::BufCap { buf, .. } => vec![*buf],
            Inst::StrAt { s, idx, .. } => vec![*s, *idx],
            Inst::StrLen { s, .. } => vec![*s],
            Inst::Print { args } => args.clone(),
            Inst::Exit { code } => vec![*code],
            Inst::Assert { cond } => vec![*cond],
            Inst::Alloc { size, .. } => vec![*size],
            Inst::Free { buf } => vec![*buf],
            Inst::Format { fmt } => vec![*fmt],
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on a bool register. This is the only state-forking
    /// point for the symbolic executor.
    Branch {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the current function.
    Return(Option<Reg>),
}

impl Terminator {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Return(_) => vec![],
        }
    }
}

/// A straight-line sequence of instructions ending in a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Instructions with their source spans.
    pub insts: Vec<(Inst, Span)>,
    /// The terminator and its source span.
    pub term: (Terminator, Span),
}

/// A lowered function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncBody {
    /// Source-level function name.
    pub name: String,
    /// Parameter names and types; parameters occupy registers `0..params.len()`.
    pub params: Vec<(String, Type)>,
    /// Return type, if any.
    pub ret: Option<Type>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Total number of registers used by the body.
    pub num_regs: u32,
    /// Debug names for registers holding named locals (index = register).
    pub reg_names: Vec<Option<String>>,
    /// Definition site in the source.
    pub span: Span,
}

impl FuncBody {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Registers that hold source-level named variables (params + locals),
    /// as `(register, name, type)` — the variables the program monitor logs.
    pub fn named_regs(&self) -> Vec<(Reg, &str)> {
        self.reg_names
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_deref().map(|n| (Reg(i as u32), n)))
            .collect()
    }
}

/// A whole lowered program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Module {
    /// Functions; `FuncId` indexes this vector.
    pub funcs: Vec<FuncBody>,
    /// Globals; `GlobalId` indexes this vector.
    pub globals: Vec<GlobalDef>,
    /// Named inputs; `InputId` indexes this vector.
    pub inputs: Vec<InputDef>,
    /// `FuncId` of `main`.
    pub main: FuncId,
}

impl Module {
    /// Looks up a function id by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Looks up a function body by name.
    pub fn function_by_name(&self, name: &str) -> Option<&FuncBody> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// The body of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (module ids are never forged).
    #[inline]
    pub fn func(&self, id: FuncId) -> &FuncBody {
        &self.funcs[id.index()]
    }

    /// Looks up a global id by name.
    pub fn global_id(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }

    /// Looks up an input id by name.
    pub fn input_id(&self, name: &str) -> Option<InputId> {
        self.inputs
            .iter()
            .position(|i| i.name == name)
            .map(|i| InputId(i as u32))
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.insts.len() + 1).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display_is_prefixed() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(BlockId(0).to_string(), "b0");
        assert_eq!(FuncId(7).to_string(), "f7");
    }

    #[test]
    fn inst_dst_and_sources() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        };
        assert_eq!(i.dst(), Some(Reg(2)));
        assert_eq!(i.sources(), vec![Reg(0), Reg(1)]);
        let s = Inst::BufSet {
            buf: Reg(0),
            idx: Reg(1),
            val: Reg(2),
        };
        assert_eq!(s.dst(), None);
        assert_eq!(s.sources().len(), 3);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(4)).successors(), vec![BlockId(4)]);
        assert!(Terminator::Return(None).successors().is_empty());
        assert_eq!(
            Terminator::Branch {
                cond: Reg(0),
                then_bb: BlockId(1),
                else_bb: BlockId(2)
            }
            .successors()
            .len(),
            2
        );
    }
}
