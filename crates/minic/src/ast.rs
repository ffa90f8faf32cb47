//! Abstract syntax tree for MiniC.

use crate::Span;
use std::fmt;

/// A complete MiniC program: global variables plus function definitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global variable declarations, in source order.
    pub globals: Vec<Global>,
    /// Function definitions, in source order. Execution starts at `main`.
    pub functions: Vec<Function>,
    /// The original source text (kept for SLOC statistics and diagnostics).
    pub source: String,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// A global variable declaration, e.g. `global track: int = 0;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Variable name.
    pub name: String,
    /// Declared type (only `int`, `bool`, and `str` globals are allowed).
    pub ty: Type,
    /// Optional initializer; must be a literal expression.
    pub init: Option<Expr>,
    /// Declaration site.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name; `main` is the entry point.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Return type; `None` means the function returns no value.
    pub ret: Option<Type>,
    /// Function body.
    pub body: Block,
    /// Definition site.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Declaration site.
    pub span: Span,
}

/// MiniC types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Boolean.
    Bool,
    /// Immutable NUL-terminated byte string (by value semantics).
    Str,
    /// Mutable fixed-capacity byte buffer. `Some(n)` at declaration sites;
    /// `None` for parameters, which accept any capacity (by reference).
    Buf(Option<u32>),
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => write!(f, "int"),
            Type::Bool => write!(f, "bool"),
            Type::Str => write!(f, "str"),
            Type::Buf(Some(n)) => write!(f, "buf[{n}]"),
            Type::Buf(None) => write!(f, "buf"),
        }
    }
}

impl Type {
    /// True if values of `self` may be passed where `other` is expected.
    pub fn compatible(self, other: Type) -> bool {
        matches!(
            (self, other),
            (Type::Int, Type::Int)
                | (Type::Bool, Type::Bool)
                | (Type::Str, Type::Str)
                | (Type::Buf(_), Type::Buf(_))
        )
    }
}

/// A `{ ... }` statement block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

/// A statement with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Statement payload.
    pub kind: StmtKind,
    /// Source location of the statement's first token.
    pub span: Span,
}

/// Statement kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `let name: ty = init;` — local variable declaration. Buffers use
    /// `let name: buf[N];` and take no initializer.
    Let {
        name: String,
        ty: Type,
        init: Option<Expr>,
    },
    /// `name = value;` — assignment to a local, parameter, or global.
    Assign { name: String, value: Expr },
    /// `if (cond) { .. } else { .. }`.
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    /// `while (cond) { .. }`.
    While { cond: Expr, body: Block },
    /// `return e;` / `return;`.
    Return(Option<Expr>),
    /// `assert(e);` — failure is a program fault (the paper's fault point).
    Assert(Expr),
    /// `break;` out of the innermost loop.
    Break,
    /// `continue;` the innermost loop.
    Continue,
    /// An expression evaluated for effect (a call).
    Expr(Expr),
}

/// An expression with its source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    /// Expression payload.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Variable reference (local, parameter, or global).
    Var(String),
    /// Binary operation.
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Un { op: UnOp, operand: Box<Expr> },
    /// Function or builtin call.
    Call { callee: String, args: Vec<Expr> },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Short-circuit logical and (lowered to control flow).
    And,
    /// Short-circuit logical or (lowered to control flow).
    Or,
}

impl BinOp {
    /// True for the six comparison operators.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for `+ - * / %`.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("!"),
        }
    }
}

/// The builtin (external) functions MiniC programs may call. These play the
/// role of libc/system calls in the paper's "External Calls" statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `len(s: str) -> int` — string length.
    Len,
    /// `char_at(s: str, i: int) -> int` — byte at index `i`; index `len(s)`
    /// yields the NUL terminator (0); beyond that is an out-of-bounds fault.
    CharAt,
    /// `buf_set(b: buf, i: int, v: int)` — store the `int` `v` in cell
    /// `i`; out-of-capacity is a buffer-overflow fault (the paper's
    /// vulnerability class).
    BufSet,
    /// `buf_get(b: buf, i: int) -> int` — the `int` last stored in cell
    /// `i` (0 if none); bounds-checked.
    BufGet,
    /// `buf_cap(b: buf) -> int` — buffer capacity.
    BufCap,
    /// `input_str(name: str, cap: int) -> str` — named string input
    /// (command-line argument, environment variable, or request payload).
    InputStr,
    /// `input_int(name: str) -> int` — named integer input.
    InputInt,
    /// `print(e)` — output sink (ignored by analyses).
    Print,
    /// `exit(code: int)` — terminate the program normally.
    Exit,
    /// `alloc(n: int) -> buf` — dynamic heap allocation. A request outside
    /// `[0, MAX_ALLOC]` is an allocation-overflow fault (models integer
    /// overflow/truncation feeding an allocation size).
    Alloc,
    /// `free(b: buf)` — release a heap allocation; later access (or a second
    /// free) is a use-after-free fault.
    Free,
    /// `format(fmt: str)` — format-string-style output sink: a `%` byte in
    /// attacker-controlled data is a format-string fault.
    Format,
}

impl Builtin {
    /// Resolves a call target name to a builtin.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "len" => Builtin::Len,
            "char_at" => Builtin::CharAt,
            "buf_set" => Builtin::BufSet,
            "buf_get" => Builtin::BufGet,
            "buf_cap" => Builtin::BufCap,
            "input_str" => Builtin::InputStr,
            "input_int" => Builtin::InputInt,
            "print" => Builtin::Print,
            "exit" => Builtin::Exit,
            "alloc" => Builtin::Alloc,
            "free" => Builtin::Free,
            "format" => Builtin::Format,
            _ => return None,
        })
    }

    /// The builtin's name as written in source.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Len => "len",
            Builtin::CharAt => "char_at",
            Builtin::BufSet => "buf_set",
            Builtin::BufGet => "buf_get",
            Builtin::BufCap => "buf_cap",
            Builtin::InputStr => "input_str",
            Builtin::InputInt => "input_int",
            Builtin::Print => "print",
            Builtin::Exit => "exit",
            Builtin::Alloc => "alloc",
            Builtin::Free => "free",
            Builtin::Format => "format",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_compatibility_ignores_buffer_capacity() {
        assert!(Type::Buf(Some(64)).compatible(Type::Buf(None)));
        assert!(Type::Buf(None).compatible(Type::Buf(Some(12))));
        assert!(!Type::Int.compatible(Type::Bool));
    }

    #[test]
    fn builtin_roundtrip() {
        for b in [
            Builtin::Len,
            Builtin::CharAt,
            Builtin::BufSet,
            Builtin::BufGet,
            Builtin::BufCap,
            Builtin::InputStr,
            Builtin::InputInt,
            Builtin::Print,
            Builtin::Exit,
            Builtin::Alloc,
            Builtin::Free,
            Builtin::Format,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("strcpy"), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Rem.is_arithmetic());
        assert!(!BinOp::And.is_arithmetic());
    }
}
