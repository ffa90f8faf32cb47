//! Interned term DAG and constraint atoms.

use crate::interval::Interval;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Id of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Id of a solver variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term over integers. Terms are interned: structurally equal terms
/// share a [`TermId`], and constructors constant-fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Term {
    /// Integer constant.
    Const(i64),
    /// A bounded variable.
    Var(VarId),
    /// `a + b`.
    Add(TermId, TermId),
    /// `a - b`.
    Sub(TermId, TermId),
    /// `a * b`.
    Mul(TermId, TermId),
    /// `a / b` (truncating).
    Div(TermId, TermId),
    /// `a % b` (truncating).
    Rem(TermId, TermId),
    /// `-a`.
    Neg(TermId),
}

/// Metadata for a variable: its name and initial (declared) domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarInfo {
    /// Debug name (e.g. `arg[17]` for string byte 17).
    pub name: String,
    /// Declared domain.
    pub domain: Interval,
}

/// Comparison operators for constraint atoms. `Gt`/`Ge` are normalized
/// away by swapping operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `lhs == rhs`.
    Eq,
    /// `lhs != rhs`.
    Ne,
    /// `lhs < rhs`.
    Lt,
    /// `lhs <= rhs`.
    Le,
}

impl CmpOp {
    /// The operator of the negated atom (`!(a < b)` is `b <= a`, handled
    /// by [`Constraint::negate`], which also swaps operands for `Lt`/`Le`).
    pub fn concrete(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
        }
    }
}

/// An atomic constraint `lhs op rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: TermId,
    /// Right operand.
    pub rhs: TermId,
}

impl Constraint {
    /// Creates `lhs op rhs`.
    pub fn new(op: CmpOp, lhs: TermId, rhs: TermId) -> Constraint {
        Constraint { op, lhs, rhs }
    }

    /// The logical negation, still an atomic constraint:
    /// `!(a == b)` → `a != b`, `!(a < b)` → `b <= a`, etc.
    #[must_use]
    pub fn negate(self) -> Constraint {
        match self.op {
            CmpOp::Eq => Constraint::new(CmpOp::Ne, self.lhs, self.rhs),
            CmpOp::Ne => Constraint::new(CmpOp::Eq, self.lhs, self.rhs),
            CmpOp::Lt => Constraint::new(CmpOp::Le, self.rhs, self.lhs),
            CmpOp::Le => Constraint::new(CmpOp::Lt, self.rhs, self.lhs),
        }
    }
}

/// SplitMix64 finalizer: the bit mixer behind all structural hashes.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// FNV-1a over raw bytes (variable names).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Order-sensitive combine for binary nodes.
#[inline]
fn combine2(tag: u64, a: u64, b: u64) -> u64 {
    mix64(
        tag.wrapping_add(a.wrapping_mul(0x9e3779b97f4a7c15))
            .wrapping_add(b.wrapping_mul(0xc2b2ae3d27d4eb4f)),
    )
}

/// The commutative fold behind query fingerprints: a sum and a rotated
/// xor of per-constraint structural hashes, plus the conjunct count.
/// Folding is order-independent and extends in O(1), so a partition can
/// carry one per component and one for the whole query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Fold {
    sum: u64,
    xor: u64,
    len: u64,
}

impl Fold {
    /// Folds in one constraint hash.
    #[inline]
    pub(crate) fn add(&mut self, h: u64) {
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h.rotate_left(17);
        self.len += 1;
    }

    /// Folds in every hash another fold has seen.
    #[inline]
    pub(crate) fn merge(&mut self, other: Fold) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.xor ^= other.xor;
        self.len += other.len;
    }

    /// The fingerprint of the folded conjunction.
    #[inline]
    pub(crate) fn fingerprint(self) -> u64 {
        mix64(self.sum ^ self.xor.wrapping_mul(0x9e3779b97f4a7c15)).wrapping_add(self.len)
    }
}

/// One interned term: the term, its structural hash and its variable
/// set (sorted, deduplicated), all computed once at intern time.
#[derive(Debug)]
struct Entry {
    term: Term,
    hash: u64,
    vars: Arc<[VarId]>,
}

/// The shared empty variable set of constants and variable-free terms.
fn no_vars() -> Arc<[VarId]> {
    static EMPTY: OnceLock<Arc<[VarId]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(Vec::new())))
}

/// The sorted union of two sorted variable sets, sharing an operand's
/// allocation when the union equals it (`x + 1`, `x * x`, ...).
fn union_vars(a: &Arc<[VarId]>, b: &Arc<[VarId]>) -> Arc<[VarId]> {
    if b.is_empty() || Arc::ptr_eq(a, b) {
        return Arc::clone(a);
    }
    if a.is_empty() {
        return Arc::clone(b);
    }
    let mut out: Vec<VarId> = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable();
    out.dedup();
    if out.len() == a.len() {
        Arc::clone(a)
    } else if out.len() == b.len() {
        Arc::clone(b)
    } else {
        Arc::from(out)
    }
}

/// The interning context: an append-only arena of terms and variable
/// metadata, owned by one engine (or one test) and passed by reference.
/// Forked states only hold `TermId`s; ids are dense and never reassigned.
/// Separately constructed contexts have unrelated id spaces.
///
/// Every interned term carries a precomputed *structural* hash
/// ([`TermCtx::term_hash`]): variables hash by (name, declared domain)
/// rather than by `VarId`, so hashes agree across independently built
/// contexts that intern structurally identical terms — the property the
/// run's verdict memo relies on, since each candidate attempt builds its
/// own context. Hashes are computed incrementally at intern time
/// (children are already interned), so fingerprinting a query is
/// allocation- and traversal-free. Each term's variable set
/// ([`TermCtx::vars_of`]) is computed at intern time too.
#[derive(Debug, Default)]
pub struct TermCtx {
    /// One entry per id, in interning order.
    terms: Vec<Entry>,
    intern: HashMap<Term, TermId>,
    vars: Vec<VarInfo>,
    /// Structural hash per variable, parallel to `vars`.
    var_hashes: Vec<u64>,
}

impl TermCtx {
    /// Creates an empty context.
    pub fn new() -> TermCtx {
        TermCtx::default()
    }

    /// The term behind an id.
    #[inline]
    pub fn term(&self, id: TermId) -> Term {
        self.terms[id.index()].term
    }

    /// Variable metadata.
    pub fn var_info(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Declared domain of a variable.
    #[inline]
    pub fn var_domain(&self, v: VarId) -> Interval {
        self.vars[v.index()].domain
    }

    /// All variables appearing in `t`, sorted and deduplicated. The set
    /// is computed once when `t` is interned, so this is a lookup.
    #[inline]
    pub fn vars_of(&self, t: TermId) -> Arc<[VarId]> {
        Arc::clone(&self.terms[t.index()].vars)
    }

    fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.intern.get(&t) {
            return id;
        }
        let hash = self.structural_hash(t);
        let vars = self.term_vars(t);
        let id = TermId(self.terms.len() as u32);
        self.terms.push(Entry {
            term: t,
            hash,
            vars,
        });
        self.intern.insert(t, id);
        id
    }

    /// Structural hash of a term whose children are already interned.
    fn structural_hash(&self, t: Term) -> u64 {
        match t {
            Term::Const(v) => mix64(0x01u64 ^ (v as u64)),
            Term::Var(v) => self.var_hashes[v.index()],
            Term::Add(a, b) => combine2(0x03, self.term_hash(a), self.term_hash(b)),
            Term::Sub(a, b) => combine2(0x04, self.term_hash(a), self.term_hash(b)),
            Term::Mul(a, b) => combine2(0x05, self.term_hash(a), self.term_hash(b)),
            Term::Div(a, b) => combine2(0x06, self.term_hash(a), self.term_hash(b)),
            Term::Rem(a, b) => combine2(0x07, self.term_hash(a), self.term_hash(b)),
            Term::Neg(a) => combine2(0x08, self.term_hash(a), 0),
        }
    }

    /// Variable set of a term whose children are already interned.
    fn term_vars(&self, t: Term) -> Arc<[VarId]> {
        match t {
            Term::Const(_) => no_vars(),
            Term::Var(v) => Arc::from(vec![v]),
            Term::Add(a, b)
            | Term::Sub(a, b)
            | Term::Mul(a, b)
            | Term::Div(a, b)
            | Term::Rem(a, b) => union_vars(&self.vars_of(a), &self.vars_of(b)),
            Term::Neg(a) => self.vars_of(a),
        }
    }

    /// Precomputed structural hash of an interned term. Two terms hash
    /// equal iff they are structurally identical (modulo 64-bit
    /// collisions), even across different `TermCtx` instances.
    #[inline]
    pub fn term_hash(&self, t: TermId) -> u64 {
        self.terms[t.index()].hash
    }

    /// Structural hash of one constraint atom.
    #[inline]
    pub fn constraint_hash(&self, c: &Constraint) -> u64 {
        combine2(
            0x10u64.wrapping_add(c.op as u64),
            self.term_hash(c.lhs),
            self.term_hash(c.rhs),
        )
    }

    /// Order-independent fingerprint of a conjunction of constraints:
    /// a commutative fold (sum ⊕ xor, plus the length) of per-constraint
    /// structural hashes. No allocation, no sorting — O(n) lookups into
    /// precomputed hashes. The solver's query-cache key, private and
    /// shared; a [`crate::Partition`] carries the same fold incrementally.
    pub fn query_fingerprint(&self, constraints: &[Constraint]) -> u64 {
        let mut fold = Fold::default();
        for c in constraints {
            fold.add(self.constraint_hash(c));
        }
        fold.fingerprint()
    }

    /// Creates a fresh variable with domain `[lo, hi]` and returns its
    /// term id.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new_var(&mut self, name: impl Into<String>, lo: i64, hi: i64) -> TermId {
        assert!(lo <= hi, "variable domain must be non-empty");
        let name = name.into();
        let h = combine2(
            0x02u64.wrapping_add(fnv1a(name.as_bytes())),
            lo as u64,
            hi as u64,
        );
        let v = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name,
            domain: Interval::new(lo, hi),
        });
        self.var_hashes.push(h);
        self.intern(Term::Var(v))
    }

    /// Interns an integer constant.
    pub fn int(&mut self, v: i64) -> TermId {
        self.intern(Term::Const(v))
    }

    /// Returns the constant value of `t` if it is a literal.
    pub fn as_const(&self, t: TermId) -> Option<i64> {
        match self.term(t) {
            Term::Const(v) => Some(v),
            _ => None,
        }
    }

    /// `a + b`, constant-folded.
    pub fn add(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.int(x.wrapping_add(y)),
            (Some(0), None) => b,
            (None, Some(0)) => a,
            _ => self.intern(Term::Add(a, b)),
        }
    }

    /// `a - b`, constant-folded.
    pub fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        if a == b {
            return self.int(0);
        }
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.int(x.wrapping_sub(y)),
            (None, Some(0)) => a,
            _ => self.intern(Term::Sub(a, b)),
        }
    }

    /// `a * b`, constant-folded.
    pub fn mul(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.int(x.wrapping_mul(y)),
            (Some(1), None) => b,
            (None, Some(1)) => a,
            (Some(0), _) | (_, Some(0)) => self.int(0),
            _ => self.intern(Term::Mul(a, b)),
        }
    }

    /// `a / b`, constant-folded (constant fold of division by zero is
    /// left symbolic; the VM faults on the concrete path instead).
    pub fn div(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) if y != 0 => {
                let v = if x == i64::MIN && y == -1 {
                    i64::MIN
                } else {
                    x / y
                };
                self.int(v)
            }
            (None, Some(1)) => a,
            _ => self.intern(Term::Div(a, b)),
        }
    }

    /// `a % b`, constant-folded.
    pub fn rem(&mut self, a: TermId, b: TermId) -> TermId {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) if y != 0 => self.int(x.wrapping_rem(y)),
            _ => self.intern(Term::Rem(a, b)),
        }
    }

    /// `-a`, constant-folded.
    pub fn neg(&mut self, a: TermId) -> TermId {
        match self.as_const(a) {
            Some(x) => self.int(x.wrapping_neg()),
            None => self.intern(Term::Neg(a)),
        }
    }

    /// Renders a term for diagnostics.
    pub fn render(&self, t: TermId) -> String {
        match self.term(t) {
            Term::Const(v) => v.to_string(),
            Term::Var(v) => self.var_info(v).name.clone(),
            Term::Add(a, b) => format!("({} + {})", self.render(a), self.render(b)),
            Term::Sub(a, b) => format!("({} - {})", self.render(a), self.render(b)),
            Term::Mul(a, b) => format!("({} * {})", self.render(a), self.render(b)),
            Term::Div(a, b) => format!("({} / {})", self.render(a), self.render(b)),
            Term::Rem(a, b) => format!("({} % {})", self.render(a), self.render(b)),
            Term::Neg(a) => format!("(-{})", self.render(a)),
        }
    }

    /// Renders a constraint for diagnostics.
    pub fn render_constraint(&self, c: &Constraint) -> String {
        let op = match c.op {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
        };
        format!("{} {} {}", self.render(c.lhs), op, self.render(c.rhs))
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_structurally_equal_terms() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let one_a = ctx.int(1);
        let one_b = ctx.int(1);
        assert_eq!(one_a, one_b);
        let s1 = ctx.add(x, one_a);
        let s2 = ctx.add(x, one_b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn constant_folding() {
        let mut ctx = TermCtx::new();
        let a = ctx.int(6);
        let b = ctx.int(7);
        let prod = ctx.mul(a, b);
        assert_eq!(ctx.as_const(prod), Some(42));
        let x = ctx.new_var("x", 0, 10);
        let zero = ctx.int(0);
        assert_eq!(ctx.add(x, zero), x);
        assert_eq!(ctx.mul(x, zero), zero);
        assert_eq!(ctx.sub(x, x), zero);
        let one = ctx.int(1);
        assert_eq!(ctx.mul(x, one), x);
        assert_eq!(ctx.div(x, one), x);
    }

    #[test]
    fn negate_roundtrips() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let c5 = ctx.int(5);
        let c = Constraint::new(CmpOp::Lt, x, c5);
        let n = c.negate();
        assert_eq!(n, Constraint::new(CmpOp::Le, c5, x));
        assert_eq!(n.negate(), c);
        let e = Constraint::new(CmpOp::Eq, x, c5);
        assert_eq!(e.negate().negate(), e);
    }

    #[test]
    fn vars_of_walks_dag() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let y = ctx.new_var("y", 0, 10);
        let sum = ctx.add(x, y);
        let expr = ctx.mul(sum, x);
        let vars = ctx.vars_of(expr);
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn cmpop_concrete_semantics() {
        assert!(CmpOp::Eq.concrete(3, 3));
        assert!(CmpOp::Ne.concrete(3, 4));
        assert!(CmpOp::Lt.concrete(3, 4));
        assert!(CmpOp::Le.concrete(4, 4));
        assert!(!CmpOp::Lt.concrete(4, 4));
    }

    #[test]
    fn term_hashes_are_structural_across_contexts() {
        let mut a = TermCtx::new();
        let mut b = TermCtx::new();
        // Different interning orders, same structures.
        let bx = b.new_var("x", 0, 10);
        let ax = a.new_var("x", 0, 10);
        let a1 = a.int(1);
        let b9 = b.int(9);
        let b1 = b.int(1);
        let asum = a.add(ax, a1);
        let bsum = b.add(bx, b1);
        assert_ne!(asum.0, bsum.0, "ids diverge across contexts");
        assert_eq!(a.term_hash(asum), b.term_hash(bsum));
        assert_eq!(a.term_hash(ax), b.term_hash(bx));
        assert_ne!(a.term_hash(a1), b.term_hash(b9));
        // Same name, different domain: different variable.
        let mut c = TermCtx::new();
        let cx = c.new_var("x", 0, 99);
        assert_ne!(a.term_hash(ax), c.term_hash(cx));
    }

    #[test]
    fn query_fingerprint_is_order_independent() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let y = ctx.new_var("y", 0, 10);
        let c5 = ctx.int(5);
        let a = Constraint::new(CmpOp::Lt, x, c5);
        let b = Constraint::new(CmpOp::Ne, y, c5);
        let ab = ctx.query_fingerprint(&[a, b]);
        let ba = ctx.query_fingerprint(&[b, a]);
        assert_eq!(ab, ba);
        assert_ne!(ab, ctx.query_fingerprint(&[a]));
        assert_ne!(ab, ctx.query_fingerprint(&[a, b, b]));
        assert_ne!(
            ctx.query_fingerprint(&[a, a, b]),
            ctx.query_fingerprint(&[a, b, b])
        );
    }

    #[test]
    fn constraint_hash_distinguishes_op_and_operand_order() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let c5 = ctx.int(5);
        let lt = ctx.constraint_hash(&Constraint::new(CmpOp::Lt, x, c5));
        let le = ctx.constraint_hash(&Constraint::new(CmpOp::Le, x, c5));
        let gt = ctx.constraint_hash(&Constraint::new(CmpOp::Lt, c5, x));
        assert_ne!(lt, le);
        assert_ne!(lt, gt);
    }

    #[test]
    fn render_is_readable() {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", 0, 10);
        let one = ctx.int(1);
        let t = ctx.add(x, one);
        assert_eq!(ctx.render(t), "(x + 1)");
        let c = Constraint::new(CmpOp::Le, t, one);
        assert_eq!(ctx.render_constraint(&c), "(x + 1) <= 1");
    }
}
