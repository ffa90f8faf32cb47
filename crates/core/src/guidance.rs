//! Statistics-guided symbolic execution (paper §V-C / §VI-C): the
//! `symex::EventHook` that implements the StatSym State Manager and
//! Scheduler behaviors.
//!
//! * **Inter-function search** — each state tracks its progress along
//!   the candidate path and the number of function-boundary events
//!   (hops) since the last matched node. States diverging more than τ
//!   hops are suspended.
//! * **Intra-function search** — when a state reaches a candidate-path
//!   node, the node's predicates are translated into solver constraints
//!   and added to the state's *soft* set: branch outcomes conflicting
//!   with them get suspended, pruning the search space.
//! * **Scheduling priority** — fewer diverted hops first, then deeper
//!   candidate-path progress (the paper's StatSym Scheduler).

use crate::candidate::CandidatePath;
use crate::predicate::{PredOp, Predicate};
use concrete::{Measure, VarRole};
use solver::{CmpOp, Constraint, TermCtx, TermId};
use symex::{EventCtx, EventHook, GuidanceResult, StateMeta, SymValue};

/// Guidance parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidanceConfig {
    /// Hop-divergence threshold τ (the paper's default is 10).
    pub tau: u32,
    /// How far ahead in the candidate path an event may match (bridges
    /// sampling gaps: consecutive candidate nodes may not be adjacent in
    /// the real execution).
    pub lookahead: usize,
}

impl Default for GuidanceConfig {
    fn default() -> Self {
        GuidanceConfig {
            tau: 10,
            lookahead: 8,
        }
    }
}

/// The guided-execution hook for one candidate path.
#[derive(Debug, Clone)]
pub struct GuidedHook {
    path: CandidatePath,
    config: GuidanceConfig,
}

impl GuidedHook {
    /// Creates a hook guiding exploration along `path`.
    pub fn new(path: CandidatePath, config: GuidanceConfig) -> GuidedHook {
        GuidedHook { path, config }
    }

    /// The candidate path being followed.
    pub fn path(&self) -> &CandidatePath {
        &self.path
    }
}

impl EventHook for GuidedHook {
    fn on_event(
        &mut self,
        ev: &EventCtx<'_>,
        meta: &mut StateMeta,
        ctx: &mut TermCtx,
    ) -> GuidanceResult {
        // A state that has traversed the whole candidate path is at the
        // failure point: it is the most promising state there is, and
        // further function events inside the fault region (e.g. repeated
        // calls of the vulnerable function in a loop) must not count as
        // divergence.
        if meta.progress >= self.path.nodes.len() {
            return GuidanceResult::default();
        }
        // Inter-function: match the event against the next candidate
        // nodes within the lookahead window.
        let window_end = (meta.progress + self.config.lookahead).min(self.path.nodes.len());
        let matched = (meta.progress..window_end).find(|&k| self.path.nodes[k].loc == *ev.loc);
        match matched {
            Some(k) => {
                meta.progress = k + 1;
                meta.hops = 0;
                // Intra-function: inject this node's predicates.
                let mut constraints = Vec::new();
                for pred in &self.path.nodes[k].predicates {
                    constraints.extend(translate(pred, ev, ctx));
                }
                GuidanceResult {
                    constraints,
                    suspend: false,
                    matched: Some(k),
                }
            }
            None => {
                meta.hops += 1;
                GuidanceResult {
                    constraints: Vec::new(),
                    suspend: meta.hops > self.config.tau,
                    matched: None,
                }
            }
        }
    }

    /// Fewer diverted hops first; deeper candidate-path progress breaks
    /// ties; among equals, deeper (more advanced) states run first so
    /// guided exploration dives along the candidate path instead of
    /// sweeping breadth-first (lower value = scheduled sooner).
    fn priority(&self, meta: &StateMeta, depth: u32) -> i64 {
        (meta.hops as i64) * 1_000_000_000_000
            - (meta.progress as i64) * 1_000_000
            - (depth as i64).min(999_999)
    }
}

/// Translates a statistical predicate into solver constraints over the
/// symbolic value observed at the event. Returns no constraints when the
/// variable is unavailable or the predicate is vacuous, and a
/// contradiction when it is structurally unsatisfiable (e.g. `len > σ`
/// beyond the input's capacity).
fn translate(pred: &Predicate, ev: &EventCtx<'_>, ctx: &mut TermCtx) -> Vec<Constraint> {
    if pred.is_degenerate() {
        // Degenerate predicates mark locations, not values.
        return Vec::new();
    }
    let value = match pred.var.role {
        VarRole::Param => ev.arg(&pred.var.name),
        VarRole::Global => ev.global(&pred.var.name),
        VarRole::Return => ev.ret,
    };
    let Some(value) = value else {
        return Vec::new();
    };
    match (pred.var.measure, value) {
        (Measure::Value, SymValue::Int(t)) => int_threshold(pred.op, pred.threshold, *t, ctx),
        (Measure::Length, SymValue::Str(s)) => {
            str_len_threshold(pred.op, pred.threshold, &s.bytes, ctx)
        }
        (Measure::Value, SymValue::Bool(b)) => bool_threshold(pred.op, pred.threshold, *b),
        _ => Vec::new(),
    }
}

/// `v > σ` / `v < σ` over an integer term.
fn int_threshold(op: PredOp, sigma: f64, t: TermId, ctx: &mut TermCtx) -> Vec<Constraint> {
    match op {
        // v > σ  ⇔  v > floor(σ)  ⇔  floor(σ) < v (integers).
        PredOp::Gt => {
            let bound = ctx.int(sigma.floor() as i64);
            vec![Constraint::new(CmpOp::Lt, bound, t)]
        }
        // v < σ  ⇔  v < ceil(σ).
        PredOp::Lt => {
            let bound = ctx.int(sigma.ceil() as i64);
            vec![Constraint::new(CmpOp::Lt, t, bound)]
        }
    }
}

/// `len(s) > σ` / `len(s) < σ` over a symbolic string. Length is the
/// index of the first NUL byte, so:
///
/// * `len > σ` ⇔ bytes `0..=floor(σ)` are all nonzero;
/// * `len < σ` ⇔ the byte at index `ceil(σ) - 1` is zero (bytes after an
///   earlier terminator are unconstrained, so this is exact).
fn str_len_threshold(
    op: PredOp,
    sigma: f64,
    bytes: &[TermId],
    ctx: &mut TermCtx,
) -> Vec<Constraint> {
    let cap = bytes.len() as i64;
    let zero = ctx.int(0);
    match op {
        PredOp::Gt => {
            let min_len = sigma.floor() as i64 + 1; // len >= min_len
            if min_len <= 0 {
                return Vec::new(); // vacuously true
            }
            if min_len > cap {
                // Structurally impossible: the input cannot be that long.
                let one = ctx.int(1);
                return vec![Constraint::new(CmpOp::Eq, zero, one)];
            }
            (0..min_len as usize)
                .map(|i| Constraint::new(CmpOp::Ne, bytes[i], zero))
                .collect()
        }
        PredOp::Lt => {
            let max_len = (sigma.ceil() as i64) - 1; // len <= max_len
            if max_len < 0 {
                let one = ctx.int(1);
                return vec![Constraint::new(CmpOp::Eq, zero, one)];
            }
            if max_len >= cap {
                return Vec::new(); // vacuously true
            }
            vec![Constraint::new(CmpOp::Eq, bytes[max_len as usize], zero)]
        }
    }
}

/// Thresholds over booleans logged as 0/1.
fn bool_threshold(op: PredOp, sigma: f64, b: symex::BoolVal) -> Vec<Constraint> {
    use symex::BoolVal;
    // `v > σ` with σ ∈ [0,1) means "v is true"; `v < σ` with σ ∈ (0,1]
    // means "v is false".
    let want_true = matches!(op, PredOp::Gt);
    if (want_true && !(0.0..1.0).contains(&sigma)) || (!want_true && !(0.0..=1.0).contains(&sigma))
    {
        return Vec::new();
    }
    match b {
        BoolVal::Const(_) => Vec::new(), // nothing to constrain
        BoolVal::Atom(c) => {
            if want_true {
                vec![c]
            } else {
                vec![c.negate()]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::PathNode;
    use concrete::{Location, VarId};
    use solver::{SatResult, Solver};
    use std::rc::Rc;
    use symex::SymStr;

    fn pred(name: &str, role: VarRole, measure: Measure, op: PredOp, sigma: f64) -> Predicate {
        Predicate {
            loc: Location::enter("f"),
            var: VarId::new(name, role, measure),
            op,
            threshold: sigma,
            score: 1.0,
            support: 5,
        }
    }

    fn path(nodes: Vec<PathNode>) -> CandidatePath {
        CandidatePath { nodes, score: 1.0 }
    }

    #[test]
    fn progress_and_hops_update() {
        let p = path(vec![
            PathNode {
                loc: Location::enter("main"),
                predicates: vec![],
            },
            PathNode {
                loc: Location::enter("target"),
                predicates: vec![],
            },
        ]);
        let mut hook = GuidedHook::new(
            p,
            GuidanceConfig {
                tau: 2,
                lookahead: 4,
            },
        );
        let mut meta = StateMeta::default();
        let mut ctx = TermCtx::new();

        let main_loc = Location::enter("main");
        let ev = EventCtx {
            loc: &main_loc,
            params: &[],
            args: &[],
            ret: None,
            global_defs: &[],
            globals: &[],
        };
        let r = hook.on_event(&ev, &mut meta, &mut ctx);
        assert!(!r.suspend);
        assert_eq!(meta.progress, 1);
        assert_eq!(meta.hops, 0);

        // Three off-path events exceed tau = 2.
        let off = Location::enter("noise");
        for expect_suspend in [false, false, true] {
            let ev = EventCtx {
                loc: &off,
                params: &[],
                args: &[],
                ret: None,
                global_defs: &[],
                globals: &[],
            };
            let r = hook.on_event(&ev, &mut meta, &mut ctx);
            assert_eq!(r.suspend, expect_suspend, "hops={}", meta.hops);
        }
    }

    #[test]
    fn lookahead_bridges_sampling_gaps() {
        let p = path(vec![
            PathNode {
                loc: Location::enter("main"),
                predicates: vec![],
            },
            PathNode {
                loc: Location::enter("skipped"),
                predicates: vec![],
            },
            PathNode {
                loc: Location::enter("target"),
                predicates: vec![],
            },
        ]);
        let mut hook = GuidedHook::new(p, GuidanceConfig::default());
        let mut meta = StateMeta {
            progress: 1,
            hops: 0,
        };
        let mut ctx = TermCtx::new();
        let target = Location::enter("target");
        let ev = EventCtx {
            loc: &target,
            params: &[],
            args: &[],
            ret: None,
            global_defs: &[],
            globals: &[],
        };
        hook.on_event(&ev, &mut meta, &mut ctx);
        assert_eq!(meta.progress, 3, "matched past the skipped node");
    }

    #[test]
    fn priority_orders_by_hops_then_progress() {
        let hook = GuidedHook::new(path(vec![]), GuidanceConfig::default());
        let close = StateMeta {
            progress: 5,
            hops: 0,
        };
        let far = StateMeta {
            progress: 9,
            hops: 3,
        };
        assert!(hook.priority(&close, 0) < hook.priority(&far, 0));
        let deep = StateMeta {
            progress: 9,
            hops: 0,
        };
        assert!(hook.priority(&deep, 0) < hook.priority(&close, 0));
    }

    #[test]
    fn int_predicate_translates_to_constraint() {
        let mut ctx = TermCtx::new();
        let t = ctx.new_var("n", 0, 10_000);
        let args = [SymValue::Int(t)];
        let params = [("n".to_string(), minic::Type::Int)];
        let loc = Location::enter("f");
        let ev = EventCtx {
            loc: &loc,
            params: &params,
            args: &args,
            ret: None,
            global_defs: &[],
            globals: &[],
        };
        let p = pred("n", VarRole::Param, Measure::Value, PredOp::Gt, 536.5);
        let cs = translate(&p, &ev, &mut ctx);
        assert_eq!(cs.len(), 1);
        // n > 536.5 ⇒ satisfying models have n >= 537.
        let mut solver = Solver::default();
        match solver.check(&ctx, &cs) {
            SatResult::Sat(m) => assert!(m.value_of(t, &ctx).unwrap() >= 537),
            other => panic!("expected sat: {other:?}"),
        }
        // Conjoined with n < 537 it must be unsat.
        let bound = ctx.int(537);
        let mut cs2 = cs.clone();
        cs2.push(solver::Constraint::new(CmpOp::Lt, t, bound));
        assert!(solver.check(&ctx, &cs2).is_unsat());
    }

    #[test]
    fn strlen_gt_predicate_constrains_prefix_bytes() {
        let mut ctx = TermCtx::new();
        let bytes: Vec<TermId> = (0..8)
            .map(|i| ctx.new_var(format!("s[{i}]"), 0, 255))
            .collect();
        let s = SymStr {
            bytes: Rc::new(bytes.clone()),
        };
        let args = [SymValue::Str(s)];
        let params = [("s".to_string(), minic::Type::Str)];
        let loc = Location::enter("f");
        let ev = EventCtx {
            loc: &loc,
            params: &params,
            args: &args,
            ret: None,
            global_defs: &[],
            globals: &[],
        };
        // len(s) > 4.5 ⇒ bytes 0..=4 nonzero.
        let p = pred("s", VarRole::Param, Measure::Length, PredOp::Gt, 4.5);
        let cs = translate(&p, &ev, &mut ctx);
        assert_eq!(cs.len(), 5);
        // len(s) > 8.5 exceeds capacity: contradiction.
        let p2 = pred("s", VarRole::Param, Measure::Length, PredOp::Gt, 8.5);
        let cs2 = translate(&p2, &ev, &mut ctx);
        let mut solver = Solver::default();
        assert!(solver.check(&ctx, &cs2).is_unsat());
        // len(s) < 3.5 pins byte 3 to zero.
        let p3 = pred("s", VarRole::Param, Measure::Length, PredOp::Lt, 3.5);
        let cs3 = translate(&p3, &ev, &mut ctx);
        assert_eq!(cs3.len(), 1);
        // len(s) < 9.5 is vacuous (cap 8).
        let p4 = pred("s", VarRole::Param, Measure::Length, PredOp::Lt, 9.5);
        assert!(translate(&p4, &ev, &mut ctx).is_empty());
    }

    #[test]
    fn missing_variable_translates_to_nothing() {
        let mut ctx = TermCtx::new();
        let loc = Location::enter("f");
        let ev = EventCtx {
            loc: &loc,
            params: &[],
            args: &[],
            ret: None,
            global_defs: &[],
            globals: &[],
        };
        let p = pred("ghost", VarRole::Param, Measure::Value, PredOp::Gt, 1.0);
        assert!(translate(&p, &ev, &mut ctx).is_empty());
        let d = Predicate {
            threshold: f64::NEG_INFINITY,
            ..p
        };
        assert!(translate(&d, &ev, &mut ctx).is_empty());
    }
}
