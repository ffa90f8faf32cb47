//! Carried independence partition micro-benchmark: the solver-layer
//! cost of one executor fork, on the two query shapes the e2e workloads
//! produce.
//!
//! Every fork child extends its parent's path condition by one hard
//! conjunct and asks a model-free feasibility query. The shapes are the
//! mean feasibility query of each workload:
//!
//! - `grep-decoys`: ~54 hard + ~1 soft conjuncts in ~27 components;
//! - `thttpd-30`: ~37 hard + ~300 soft conjuncts in ~79 components.
//!
//! Cases, each timed over the same batch of child conjuncts:
//!
//! - `push`: clone the parent's carried `Partition` and push the child's
//!   conjunct (what `PathCond::push_hard` costs a child);
//! - `repartition`: partition the child's flattened query from scratch
//!   with `Partition::of` (what the slice entry points cost);
//! - `check_sat`: `push`, then a model-free `check_sat_at` against a
//!   solver that has already decided the parent, so only the component
//!   the new conjunct joins is searched;
//! - `check_at`: the same queries through the model-building
//!   `check_at`, which also merges every component's model into one.

use criterion::{criterion_group, criterion_main, Criterion};
use solver::{CmpOp, Constraint, Partition, Segment, Solver, TermCtx, TermId};
use std::hint::black_box;

/// Child conjuncts per timed batch.
const CHILDREN: usize = 1000;

/// One conjunct over component `comp`: a disequality on its first
/// variable, or (every third conjunct) on the sum of its two variables,
/// against a constant outside the byte range, so every component stays
/// satisfiable.
fn conjunct(ctx: &mut TermCtx, vars: &[(TermId, TermId)], comp: usize, i: usize) -> Constraint {
    let (a, b) = vars[comp % vars.len()];
    let lhs = if i % 3 == 2 { ctx.add(a, b) } else { a };
    let k = ctx.int(1000 + i as i64);
    Constraint::new(CmpOp::Ne, lhs, k)
}

/// A parent path condition with `hard` + `soft` conjuncts spread over
/// `comps` components, plus `CHILDREN` fresh hard conjuncts to fork on.
fn shape(
    ctx: &mut TermCtx,
    hard: usize,
    soft: usize,
    comps: usize,
) -> (Partition, Vec<Constraint>, Vec<Constraint>) {
    let vars: Vec<(TermId, TermId)> = (0..comps)
        .map(|i| {
            (
                ctx.new_var(format!("a{i}"), 0, 255),
                ctx.new_var(format!("b{i}"), 0, 255),
            )
        })
        .collect();
    let mut parent = Partition::new();
    let mut flat = Vec::new();
    for i in 0..hard {
        let c = conjunct(ctx, &vars, i, i);
        parent.push(ctx, Segment::Hard, c);
        flat.push(c);
    }
    for i in 0..soft {
        let c = conjunct(ctx, &vars, i, hard + i);
        parent.push(ctx, Segment::Soft, c);
        flat.push(c);
    }
    let children = (0..CHILDREN)
        .map(|i| conjunct(ctx, &vars, i * 7, hard + soft + i))
        .collect();
    (parent, flat, children)
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/partition");
    for (name, hard, soft, comps) in [("grep-decoys", 54, 1, 27), ("thttpd-30", 37, 300, 79)] {
        let mut ctx = TermCtx::new();
        let (parent, flat, children) = shape(&mut ctx, hard, soft, comps);
        assert_eq!(parent.components().len(), comps);
        group.bench_function(format!("push/{name}/x{CHILDREN}"), |b| {
            b.iter(|| {
                for &child in &children {
                    let mut p = parent.clone();
                    p.push(&ctx, Segment::Hard, child);
                    black_box(p.fingerprint());
                }
            })
        });
        group.bench_function(format!("repartition/{name}/x{CHILDREN}"), |b| {
            let mut query = flat.clone();
            b.iter(|| {
                for &child in &children {
                    // The hard conjunct sorts before the soft segment.
                    query.insert(hard, child);
                    black_box(Partition::of(&ctx, &query).fingerprint());
                    query.remove(hard);
                }
            })
        });
        let mut warm = Solver::default();
        assert!(warm
            .check_sat_at(&ctx, &parent, &statsym_telemetry::NOOP, "bench")
            .is_sat());
        group.bench_function(format!("check_sat/{name}/x{CHILDREN}"), |b| {
            b.iter(|| {
                let mut solver = warm.clone();
                for &child in &children {
                    let q = parent.with(&ctx, Segment::Hard, child);
                    let r = solver.check_sat_at(&ctx, &q, &statsym_telemetry::NOOP, "bench");
                    black_box(r.is_sat());
                }
            })
        });
        group.bench_function(format!("check_at/{name}/x{CHILDREN}"), |b| {
            b.iter(|| {
                let mut solver = warm.clone();
                for &child in &children {
                    let q = parent.with(&ctx, Segment::Hard, child);
                    let r = solver.check_at(&ctx, &q, &statsym_telemetry::NOOP, "bench");
                    black_box(r.is_sat());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
