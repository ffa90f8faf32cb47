//! Independence-slicing work on a fork-heavy loop.
//!
//! Pins the solver's `solver.indep.*` counters on a program whose path
//! conditions split into variable-disjoint components, and checks that
//! the traced run (lineage, attribution and provenance on) renders a
//! byte-identical trace when repeated.

use statsym_telemetry::{render_trace, Clock, MemRecorder};
use symex::{Engine, EngineConfig, RunOutcome};

/// A symbolically-bounded loop (every iteration forks on the bound)
/// with two variable-disjoint branch families in the body, which
/// independence slicing splits into separate components, and an
/// infeasible branch (`a > 60` under `a < 50`) that every iteration
/// refutes again. Fault-free, so every run drains the whole path space.
const FORK_HEAVY: &str = r#"
    fn main() {
        let n: int = input_int("n");
        let a: int = input_int("a");
        let b: int = input_int("b");
        let m: int = n;
        if (m > 7) { m = 7; }
        let acc: int = 0;
        let i: int = 0;
        if (a < 50) {
            while (i < m) {
                if (a + i > 40) { acc = acc + 1; } else { acc = acc + 2; }
                if (b - i < 3) { acc = acc + 3; }
                if (a > 60) { acc = acc + 99; }
                i = i + 1;
            }
        }
        assert(acc < 1000);
    }
"#;

/// One traced run; returns the rendered trace and the report.
fn traced_run(module: &sir::Module, config: EngineConfig) -> (String, symex::EngineReport) {
    let rec = MemRecorder::new(Clock::steps());
    let report = {
        let mut eng = Engine::new(module, config);
        eng.set_recorder(&rec);
        eng.run()
    };
    (render_trace(&rec.finish()), report)
}

#[test]
fn fork_heavy_loop_pins_slicing_work_and_trace() {
    let module = sir::lower(&minic::parse_program(FORK_HEAVY).unwrap()).unwrap();
    let config = EngineConfig {
        lineage: true,
        attribution: true,
        provenance: true,
        ..EngineConfig::default()
    };
    let (trace, report) = traced_run(&module, config);
    assert!(matches!(report.outcome, RunOutcome::Completed));
    let s = &report.stats.solver;
    assert_eq!(
        (s.indep_queries, s.indep_components, s.indep_comp_hits),
        (2456, 7358, 6400),
        "solver.indep.* work on the fork-heavy loop moved"
    );
    let (again, _) = traced_run(&module, config);
    assert_eq!(again, trace, "fork-heavy trace differs on a rerun");
}
