//! Property-based tests for the constraint solver: soundness of models,
//! agreement with brute force on small domains, and interval arithmetic
//! containment laws.

use proptest::prelude::*;
use solver::{CmpOp, Constraint, Interval, SatResult, Solver, Term, TermCtx, TermId};

// ---------------------------------------------------------------------
// Interval arithmetic: every concrete result is contained in the
// interval result (the fundamental soundness property of the domain).
// ---------------------------------------------------------------------

fn small_interval() -> impl Strategy<Value = Interval> {
    (-200i64..=200, 0i64..=80).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

proptest! {
    #[test]
    fn interval_add_contains_concrete(a in small_interval(), b in small_interval(),
                                      x in 0i64..=80, y in 0i64..=80) {
        let (xa, yb) = (a.lo + x.min(a.hi - a.lo), b.lo + y.min(b.hi - b.lo));
        prop_assert!(a.add(b).contains(xa + yb));
        prop_assert!(a.sub(b).contains(xa - yb));
        prop_assert!(a.mul(b).contains(xa * yb));
        prop_assert!(a.neg().contains(-xa));
        if yb != 0 {
            prop_assert!(a.div(b).contains(xa / yb), "{a} / {b} missing {}", xa / yb);
            prop_assert!(a.rem(b).contains(xa % yb), "{a} % {b} missing {}", xa % yb);
        }
    }

    #[test]
    fn interval_intersect_hull_laws(a in small_interval(), b in small_interval()) {
        let meet = a.intersect(b);
        let join = a.hull(b);
        if !meet.is_empty() {
            prop_assert!(meet.lo >= a.lo && meet.lo >= b.lo);
            prop_assert!(meet.hi <= a.hi && meet.hi <= b.hi);
        }
        prop_assert!(join.lo <= a.lo && join.hi >= a.hi);
        prop_assert!(join.lo <= b.lo && join.hi >= b.hi);
        // Idempotence.
        prop_assert_eq!(a.intersect(a), a);
        prop_assert_eq!(a.hull(a), a);
    }
}

// ---------------------------------------------------------------------
// Solver vs brute force on tiny domains.
// ---------------------------------------------------------------------

/// A random conjunction over two small-domain variables, built from
/// terms the symbolic executor actually emits.
#[derive(Debug, Clone)]
struct Problem {
    /// (op, lhs choice, rhs choice, const) encoded atoms.
    atoms: Vec<(u8, u8, i64)>,
}

fn problem() -> impl Strategy<Value = Problem> {
    proptest::collection::vec((0u8..4, 0u8..6, -20i64..=20), 1..6)
        .prop_map(|atoms| Problem { atoms })
}

/// Builds the constraint system over ctx with vars x, y in [-8, 8].
fn build(ctx: &mut TermCtx, p: &Problem) -> (TermId, TermId, Vec<Constraint>) {
    let x = ctx.new_var("x", -8, 8);
    let y = ctx.new_var("y", -8, 8);
    let cs = p
        .atoms
        .iter()
        .map(|&(op, shape, k)| {
            let c = ctx.int(k);
            let lhs = match shape {
                0 => x,
                1 => y,
                2 => ctx.add(x, y),
                3 => ctx.sub(x, y),
                4 => {
                    let two = ctx.int(2);
                    ctx.mul(x, two)
                }
                _ => {
                    let three = ctx.int(3);
                    ctx.mul(y, three)
                }
            };
            let op = match op {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                _ => CmpOp::Le,
            };
            Constraint::new(op, lhs, c)
        })
        .collect();
    (x, y, cs)
}

fn brute_force_sat(p: &Problem) -> bool {
    for x in -8i64..=8 {
        for y in -8i64..=8 {
            let ok = p.atoms.iter().all(|&(op, shape, k)| {
                let lhs = match shape {
                    0 => x,
                    1 => y,
                    2 => x + y,
                    3 => x - y,
                    4 => 2 * x,
                    _ => 3 * y,
                };
                match op {
                    0 => lhs == k,
                    1 => lhs != k,
                    2 => lhs < k,
                    _ => lhs <= k,
                }
            });
            if ok {
                return true;
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn solver_agrees_with_brute_force(p in problem()) {
        let mut ctx = TermCtx::new();
        let (x, y, cs) = build(&mut ctx, &p);
        let mut solver = Solver::default();
        match solver.check(&ctx, &cs) {
            SatResult::Sat(model) => {
                prop_assert!(brute_force_sat(&p), "solver sat, brute force unsat: {p:?}");
                // The model must actually satisfy the constraints.
                prop_assert!(model.satisfies(&ctx, &cs));
                let vx = model.value_of(x, &ctx).unwrap();
                let vy = model.value_of(y, &ctx).unwrap();
                prop_assert!((-8..=8).contains(&vx), "x={vx} out of domain");
                prop_assert!((-8..=8).contains(&vy), "y={vy} out of domain");
            }
            SatResult::Unsat => {
                prop_assert!(!brute_force_sat(&p), "solver unsat, brute force sat: {p:?}");
            }
            SatResult::Unknown => {
                // Allowed, but should not happen on 17x17 domains.
                prop_assert!(false, "unknown on a tiny domain: {p:?}");
            }
        }
    }

    #[test]
    fn negation_flips_satisfying_assignments(op in 0u8..4, k in -10i64..=10) {
        let mut ctx = TermCtx::new();
        let x = ctx.new_var("x", -12, 12);
        let c = ctx.int(k);
        let op = match op { 0 => CmpOp::Eq, 1 => CmpOp::Ne, 2 => CmpOp::Lt, _ => CmpOp::Le };
        let atom = Constraint::new(op, x, c);
        let neg = atom.negate();
        // For every concrete x exactly one of atom/neg holds.
        for v in -12i64..=12 {
            let holds = op.concrete(v, k);
            let neg_holds = neg.op.concrete(
                if neg.lhs == x { v } else { k },
                if neg.rhs == x { v } else { k },
            );
            prop_assert!(holds != neg_holds, "x={v}, k={k}, op={op:?}");
        }
    }

    #[test]
    fn constant_folding_matches_wrapping_semantics(a in any::<i32>(), b in any::<i32>()) {
        let (a, b) = (a as i64, b as i64);
        let mut ctx = TermCtx::new();
        let ta = ctx.int(a);
        let tb = ctx.int(b);
        let sum = ctx.add(ta, tb);
        prop_assert_eq!(ctx.as_const(sum), Some(a.wrapping_add(b)));
        let diff = ctx.sub(ta, tb);
        prop_assert_eq!(ctx.as_const(diff), Some(a.wrapping_sub(b)));
        let prod = ctx.mul(ta, tb);
        prop_assert_eq!(ctx.as_const(prod), Some(a.wrapping_mul(b)));
        if b != 0 {
            let q = ctx.div(ta, tb);
            let expected = if a == i64::MIN && b == -1 { i64::MIN } else { a / b };
            prop_assert_eq!(ctx.as_const(q), Some(expected));
        }
    }

    #[test]
    fn interning_is_stable(vals in proptest::collection::vec(-50i64..=50, 1..20)) {
        let mut ctx = TermCtx::new();
        let ids: Vec<TermId> = vals.iter().map(|&v| ctx.int(v)).collect();
        let again: Vec<TermId> = vals.iter().map(|&v| ctx.int(v)).collect();
        prop_assert_eq!(ids, again);
        for &v in &vals {
            let id = ctx.int(v);
            prop_assert_eq!(ctx.term(id), Term::Const(v));
        }
    }
}

// ---------------------------------------------------------------------
// Independence slicing vs brute force: conjunctions over 2–4 variables
// whose atoms often touch disjoint variables, so `check` splits them.
// ---------------------------------------------------------------------

/// A random conjunction over `domains.len()` variables; each atom is
/// (op, shape, first var, second var, const).
#[derive(Debug, Clone)]
struct MultiVar {
    domains: Vec<(i64, i64)>,
    atoms: Vec<(u8, u8, usize, usize, i64)>,
}

fn multi_var() -> impl Strategy<Value = MultiVar> {
    (
        proptest::collection::vec((-4i64..=4, 0i64..=7), 2..5),
        proptest::collection::vec((0u8..4, 0u8..4, 0usize..4, 0usize..4, -8i64..=8), 1..7),
    )
        .prop_map(|(doms, atoms)| {
            let n = doms.len();
            MultiVar {
                domains: doms.into_iter().map(|(lo, w)| (lo, lo + w)).collect(),
                atoms: atoms
                    .into_iter()
                    .map(|(op, shape, a, b, k)| (op, shape, a % n, b % n, k))
                    .collect(),
            }
        })
}

fn cmp_op(op: u8) -> CmpOp {
    match op {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        _ => CmpOp::Le,
    }
}

/// The atom's left-hand side over concrete variable values.
fn multi_lhs(shape: u8, a: i64, b: i64) -> i64 {
    match shape {
        0 => a,
        1 => a + b,
        2 => a - b,
        _ => 2 * a,
    }
}

fn build_multi(ctx: &mut TermCtx, p: &MultiVar) -> Vec<Constraint> {
    let vars: Vec<TermId> = p
        .domains
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| ctx.new_var(format!("v{i}"), lo, hi))
        .collect();
    p.atoms
        .iter()
        .map(|&(op, shape, a, b, k)| {
            let (va, vb) = (vars[a], vars[b]);
            let lhs = match shape {
                0 => va,
                1 => ctx.add(va, vb),
                2 => ctx.sub(va, vb),
                _ => {
                    let two = ctx.int(2);
                    ctx.mul(va, two)
                }
            };
            let c = ctx.int(k);
            Constraint::new(cmp_op(op), lhs, c)
        })
        .collect()
}

/// Enumerates every assignment in the product of the domains.
fn multi_brute_force_sat(p: &MultiVar) -> bool {
    let mut vals: Vec<i64> = p.domains.iter().map(|&(lo, _)| lo).collect();
    loop {
        if p.atoms
            .iter()
            .all(|&(op, shape, a, b, k)| cmp_op(op).concrete(multi_lhs(shape, vals[a], vals[b]), k))
        {
            return true;
        }
        // Odometer increment; done once every digit has wrapped.
        let mut i = 0;
        loop {
            if i == vals.len() {
                return false;
            }
            if vals[i] < p.domains[i].1 {
                vals[i] += 1;
                break;
            }
            vals[i] = p.domains[i].0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn sliced_check_agrees_with_brute_force(p in multi_var()) {
        let mut ctx = TermCtx::new();
        let cs = build_multi(&mut ctx, &p);
        let mut solver = Solver::default();
        match solver.check(&ctx, &cs) {
            SatResult::Sat(model) => {
                prop_assert!(multi_brute_force_sat(&p), "solver sat, brute force unsat: {p:?}");
                prop_assert!(model.satisfies(&ctx, &cs), "model fails the query: {p:?}");
            }
            SatResult::Unsat => {
                prop_assert!(!multi_brute_force_sat(&p), "solver unsat, brute force sat: {p:?}");
            }
            SatResult::Unknown => prop_assert!(false, "unknown on a tiny domain: {p:?}"),
        }
    }
}
