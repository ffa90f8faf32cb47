//! Symbolic runtime values.

use solver::{Constraint, TermCtx, TermId};
use std::sync::Arc;

/// A symbolic boolean: either a known constant or an atomic comparison
/// over integer terms. MiniC lowers `&&`/`||` to control flow, so a
/// single atom is always sufficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolVal {
    /// A known boolean.
    Const(bool),
    /// The truth value of an atomic constraint.
    Atom(Constraint),
}

impl BoolVal {
    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> BoolVal {
        match self {
            BoolVal::Const(b) => BoolVal::Const(!b),
            BoolVal::Atom(c) => BoolVal::Atom(c.negate()),
        }
    }

    /// The constant value, if known.
    pub fn as_const(self) -> Option<bool> {
        match self {
            BoolVal::Const(b) => Some(b),
            BoolVal::Atom(_) => None,
        }
    }
}

/// A symbolic string: `cap` content byte cells (each a term in
/// `[0, 255]`) with a guaranteed NUL terminator at index `cap`.
///
/// The string's *length* is not stored — it is the index of the first
/// zero byte, and materializes through path constraints as the program
/// iterates (exactly how C code observes string length).
///
/// Reads between an earlier NUL and `cap` are defined (they read bytes
/// inside the allocation), matching C semantics for a `char[cap + 1]`
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymStr {
    /// Byte cells; index `cap` is an implicit constant 0.
    pub bytes: Arc<Vec<TermId>>,
}

impl SymStr {
    /// Builds a fully concrete string.
    pub fn concrete(ctx: &mut TermCtx, bytes: &[u8]) -> SymStr {
        SymStr {
            bytes: Arc::new(bytes.iter().map(|&b| ctx.int(b as i64)).collect()),
        }
    }

    /// Capacity (content bytes before the guaranteed terminator).
    pub fn cap(&self) -> usize {
        self.bytes.len()
    }

    /// The byte term at `idx`; `idx == cap` yields the constant 0.
    ///
    /// # Panics
    ///
    /// Panics if `idx > cap` (callers bounds-check first).
    pub fn byte_at(&self, ctx: &mut TermCtx, idx: usize) -> TermId {
        if idx == self.cap() {
            ctx.int(0)
        } else {
            self.bytes[idx]
        }
    }
}

/// A symbolic buffer: fixed capacity, mutable cells holding `int`
/// terms, plus the heap lifetime metadata the use-after-free /
/// off-by-one checks need.
pub type SymBuf = concrete::interp::HeapCell<TermId>;

/// A symbolic value held in a register or global.
pub type SymValue = concrete::Val<TermId, BoolVal, SymStr>;

#[cfg(test)]
mod tests {
    use super::*;
    use solver::CmpOp;

    #[test]
    fn symbuf_constructors_set_lifetime_metadata() {
        let b = SymBuf::stack(vec![TermId(0)]);
        assert!(b.live && !b.dynamic);
        let d = SymBuf::dynamic(vec![TermId(0)]);
        assert!(d.live && d.dynamic);
    }

    #[test]
    fn boolval_negation() {
        assert_eq!(BoolVal::Const(true).not(), BoolVal::Const(false));
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 9);
        let five = ctx.int(5);
        let atom = BoolVal::Atom(Constraint::new(CmpOp::Lt, x, five));
        assert_eq!(atom.not().not(), atom);
        assert_eq!(atom.as_const(), None);
    }

    #[test]
    fn concrete_symstr_has_const_bytes() {
        let mut ctx = TermCtx::new();
        let s = SymStr::concrete(&mut ctx, b"hi");
        assert_eq!(s.cap(), 2);
        assert_eq!(ctx.as_const(s.bytes[0]), Some(b'h' as i64));
        let t = s.byte_at(&mut ctx, 2);
        assert_eq!(ctx.as_const(t), Some(0));
    }

    #[test]
    #[should_panic(expected = "expected bool")]
    fn wrong_accessor_panics() {
        SymValue::Int(TermId(0)).as_bool();
    }
}
