//! Pins the engine's narration of state fates.
//!
//! Each run below records a step-clock trace with lineage, attribution
//! and provenance on, and the test asserts the trace's FNV-1a digest, so
//! any change to which `state` events the engine emits, their order,
//! their step-clock ticks or their work deltas shows up here. Together
//! the runs exercise every lineage op:
//!
//! * a scripted guidance hook asks to suspend the root at
//!   `main():enter` (the root runs anyway, and no suspension is
//!   narrated for it), suspends one state on τ, one on a conflicting
//!   predicate and one fork child on its branch, and the suspended
//!   states are resumed once nothing else is left;
//! * a shared verdict cache that answers `unsat` while the hook says so
//!   refutes both queries of an injected predicate, which kills the
//!   state: its hard path ends in a concretized index that no
//!   verdict-only query has decided yet;
//! * a solver starved of search nodes cannot confirm a fault's model;
//! * the step cap ([`EngineConfig::max_steps`]) cuts a run mid-state;
//! * pure search over a string ends in exits and a confirmed fault.

use concrete::Location;
use solver::{
    CachedVerdict, CmpOp, Constraint, QueryCache, SharedCacheStats, SolverConfig, TermCtx,
};
use statsym_telemetry::{lineage_op, manifest::fnv64_hex, render_trace, Clock, MemRecorder};
use statsym_telemetry::{Recorder, TraceEvent};
use std::cell::Cell;
use std::rc::Rc;
use symex::{
    outcome_label, Engine, EngineConfig, EventCtx, EventHook, GuidanceResult, RunOutcome,
    SchedulerKind, StateMeta, SymValue,
};

/// Guidance scripted per event, with a switch it shares with
/// [`LyingCache`].
struct Scripted {
    lie: Rc<Cell<bool>>,
}

impl Scripted {
    /// `v < bound` (`below`) or `v > bound` on the event's argument `v`
    /// or `a`.
    fn bound(ev: &EventCtx<'_>, ctx: &mut TermCtx, below: bool, bound: i64) -> Vec<Constraint> {
        let Some(SymValue::Int(t)) = ev.arg("v").or_else(|| ev.arg("a")) else {
            return Vec::new();
        };
        let b = ctx.int(bound);
        let (lo, hi) = if below { (*t, b) } else { (b, *t) };
        vec![Constraint::new(CmpOp::Lt, lo, hi)]
    }
}

impl EventHook for Scripted {
    fn on_event(
        &mut self,
        ev: &EventCtx<'_>,
        meta: &mut StateMeta,
        ctx: &mut TermCtx,
    ) -> GuidanceResult {
        meta.hops += 1;
        let mut out = GuidanceResult::default();
        if ev.loc == &Location::enter("main") {
            // Ignored: the root always runs.
            out.suspend = true;
            out.matched = Some(0);
        } else if ev.loc == &Location::enter("tau") {
            out.suspend = true;
        } else if ev.loc == &Location::enter("pred") {
            // Conflicts with the caller's `v >= 90`.
            out.constraints = Scripted::bound(ev, ctx, true, 10);
            out.matched = Some(1);
        } else if ev.loc == &Location::enter("soft") {
            // Holds on entry; the `v < 20` branch inside conflicts.
            out.constraints = Scripted::bound(ev, ctx, false, 50);
            out.matched = Some(2);
        } else if ev.loc == &Location::enter("h") {
            self.lie.set(true);
            out.constraints = Scripted::bound(ev, ctx, true, 100);
            out.matched = Some(3);
        } else {
            self.lie.set(false);
        }
        out
    }

    fn priority(&self, meta: &StateMeta, _depth: u32) -> i64 {
        meta.hops as i64
    }
}

/// A shared verdict cache that answers every lookup `unsat` while its
/// switch is on, and nothing otherwise.
struct LyingCache(Rc<Cell<bool>>);

impl QueryCache for LyingCache {
    fn lookup(&self, _key: u64) -> Option<CachedVerdict> {
        self.0.get().then_some(CachedVerdict::Unsat)
    }
    fn publish(&self, _key: u64, _verdict: CachedVerdict) {}
    fn stats(&self) -> SharedCacheStats {
        SharedCacheStats::default()
    }
}

/// Root suspension, τ, predicate and branch suspensions, resumes.
const GUIDED: &str = r#"
    fn tau(v: int) -> int { return v + 1; }
    fn pred(v: int) -> int { return v * 2; }
    fn soft(v: int) -> int {
        if (v < 20) { return 1; }
        return 2;
    }
    fn main() {
        let v: int = input_int("v");
        let r: int = 0;
        if (v >= 90) { r = pred(v); } else { r = soft(v); }
        r = r + tau(v);
        assert(r != 5);
    }
"#;

/// The in-range index `a` is concretized, which pushes onto the hard
/// path without a verdict-only query; the lying cache then refutes it
/// at `h`.
const KILLED: &str = r#"
    fn h(a: int) -> int { return a; }
    fn main() {
        let a: int = input_int("a");
        let b: buf[4];
        let r: int = 0;
        if (a >= 0) {
            if (a < 4) {
                buf_set(b, a, 1);
                r = h(a);
            }
        }
    }
"#;

/// A product the starved solver can neither refute nor solve.
const UNCONFIRMED: &str = r#"
    fn main() {
        let x: int = input_int("x");
        let y: int = input_int("y");
        if (x * y == 999999937) { assert(false); }
    }
"#;

/// Pure search: one path per string length, one of them overflows.
const PURE: &str = r#"
    fn main() {
        let s: str = input_str("s", 4);
        let b: buf[3];
        let i: int = 0;
        while (char_at(s, i) != 0) {
            buf_set(b, i, 1);
            i = i + 1;
        }
    }
"#;

/// Forks on every iteration until the step cap cuts it.
const LOOP: &str = r#"
    fn main() {
        let n: int = input_int("n");
        let i: int = 0;
        while (i < 100000) {
            if (n > i) { i = i + 2; } else { i = i + 1; }
        }
    }
"#;

/// One traced run: the rendered trace, its `state` ops and the outcome.
fn traced(src: &str, config: EngineConfig, guided: bool) -> (String, Vec<String>, RunOutcome) {
    let module = sir::lower(&minic::parse_program(src).unwrap()).unwrap();
    let rec = MemRecorder::new(Clock::steps());
    let config = EngineConfig {
        lineage: true,
        attribution: true,
        ..config
    };
    let outcome = {
        let lie = Rc::new(Cell::new(false));
        let mut eng = if guided {
            let hook = Scripted { lie: lie.clone() };
            Engine::with_hook(&module, config, Box::new(hook))
        } else {
            Engine::new(&module, config)
        };
        eng.set_shared_cache(Rc::new(LyingCache(lie)));
        eng.set_recorder(&rec as &dyn Recorder);
        eng.run().outcome
    };
    let events = rec.finish();
    let ops = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::State { op, .. } => Some(op.clone()),
            _ => None,
        })
        .collect();
    (render_trace(&events), ops, outcome)
}

#[test]
fn fate_narration_is_pinned_and_covers_every_op() {
    let guided = EngineConfig {
        scheduler: SchedulerKind::Priority,
        ..EngineConfig::default()
    };
    let starved = EngineConfig {
        solver: SolverConfig {
            max_nodes: 1,
            ..SolverConfig::default()
        },
        ..EngineConfig::default()
    };
    let budget = EngineConfig {
        max_steps: 400,
        ..EngineConfig::default()
    };
    let runs = [
        ("guided", traced(GUIDED, guided, true)),
        ("killed", traced(KILLED, guided, true)),
        ("unconfirmed", traced(UNCONFIRMED, starved, false)),
        ("budget", traced(LOOP, budget, false)),
        ("pure", traced(PURE, EngineConfig::default(), false)),
    ];
    let mut seen: Vec<String> = Vec::new();
    let mut digests = Vec::new();
    for (name, (trace, ops, outcome)) in &runs {
        digests.push((*name, outcome_label(outcome), fnv64_hex(trace.as_bytes())));
        seen.extend(ops.iter().cloned());
    }
    for op in lineage_op::ALL {
        assert!(seen.iter().any(|s| s == op), "no run narrates `{op}`");
    }
    assert_eq!(
        digests,
        [
            ("guided", "found", "5381e5523a9efd4b".to_string()),
            ("killed", "completed", "f2959cd7f6ba86db".to_string()),
            ("unconfirmed", "completed", "7de674f7e0dc3fb4".to_string()),
            ("budget", "exhausted_steps", "91347c7ceeed2f6c".to_string()),
            ("pure", "found", "79993fee798d6448".to_string()),
        ],
        "a state-event trace moved"
    );
}
