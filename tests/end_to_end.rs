//! Cross-crate integration: the full StatSym pipeline — workload →
//! monitored concrete runs → statistical analysis → guided symbolic
//! execution → verified vulnerable path — on every benchmark target.

use statsym::benchapps::{by_name, generate_corpus, CorpusSpec};
use statsym::concrete::{Vm, VmConfig};
use statsym::core::pipeline::{StatSym, StatSymConfig};
use statsym::symex::{Engine, EngineConfig, SchedulerKind};

fn spec(seed: u64) -> CorpusSpec {
    CorpusSpec {
        n_correct: 30,
        n_faulty: 30,
        sampling_rate: 0.5,
        seed,
    }
}

/// Runs the pipeline on one app (with its option inputs pinned, as the
/// paper does for both engines) and verifies the result end-to-end.
fn check_app(name: &str, expected_fault_func: &str) {
    let app = by_name(name).expect("known benchmark");
    let logs = generate_corpus(&app, spec(99));
    let statsym = StatSym::new(StatSymConfig::default());
    let analysis = statsym.analyze(&logs);
    assert_eq!(
        analysis.failure_location.as_ref().map(|l| &*l.func),
        Some(expected_fault_func),
        "{name}: failure location"
    );
    let candidates = analysis.candidates.as_ref().expect("candidate paths");
    assert!(!candidates.paths.is_empty());

    // Guided execution with pinned options.
    let mut found = None;
    for path in &candidates.paths {
        let hook = statsym::core::GuidedHook::new(path.clone(), statsym.config().guidance);
        let mut engine = Engine::with_hook(
            &app.module,
            EngineConfig {
                scheduler: SchedulerKind::Priority,
                ..EngineConfig::default()
            },
            Box::new(hook),
        );
        for (n, v) in &app.pins {
            engine.pin_input(n.clone(), v.clone());
        }
        let report = engine.run();
        if let statsym::symex::RunOutcome::Found(f) = report.outcome {
            found = Some(*f);
            break;
        }
    }
    let found = found.unwrap_or_else(|| panic!("{name}: no vulnerable path found"));
    assert_eq!(found.fault.func, expected_fault_func, "{name}: fault site");

    // The generated input must reproduce the crash on the concrete VM,
    // in the same function.
    let vm = Vm::new(&app.module, VmConfig::default());
    let replay = vm.run(&found.inputs).expect("replay runs");
    let fault = replay
        .outcome
        .fault()
        .unwrap_or_else(|| panic!("{name}: generated input did not crash"));
    assert_eq!(
        fault.func, expected_fault_func,
        "{name}: replayed fault site"
    );

    // The reported trace must be a plausible event sequence: starts at
    // main and ends inside the fault function without leaving it.
    assert_eq!(found.trace.first().map(|l| &*l.func), Some("main"));
    assert!(found.trace.iter().any(|l| &*l.func == expected_fault_func));
}

#[test]
fn polymorph_end_to_end() {
    check_app("polymorph", "convert_fileName");
}

#[test]
fn ctree_end_to_end() {
    check_app("ctree", "initlinedraw");
}

#[test]
fn grep_end_to_end() {
    check_app("grep", "stonesoup_handle_taint");
}

#[test]
fn thttpd_end_to_end() {
    check_app("thttpd", "defang");
}

#[test]
fn motivating_end_to_end() {
    let app = by_name("motivating").unwrap();
    let logs = generate_corpus(&app, spec(5));
    let report = StatSym::default().run(&app.module, &logs);
    let found = report.found.expect("fault found");
    assert_eq!(found.fault.func, "vul_func");
    // The paper's Figure 2 constraint: m must be at least 4 (loop runs
    // to a >= 3) and below 1000 (else branch).
    match found.inputs.get("sym_m") {
        Some(statsym::concrete::InputValue::Int(m)) => {
            assert!((4..1000).contains(m), "m = {m}");
        }
        other => panic!("unexpected input {other:?}"),
    }
}

#[test]
fn pipeline_is_deterministic() {
    let app = by_name("ctree").unwrap();
    let logs = generate_corpus(&app, spec(123));
    let a = StatSym::default().run(&app.module, &logs);
    let b = StatSym::default().run(&app.module, &logs);
    assert_eq!(a.found.is_some(), b.found.is_some());
    assert_eq!(a.candidate_used, b.candidate_used);
    assert_eq!(a.total_paths_explored(), b.total_paths_explored());
    assert_eq!(
        a.found.map(|f| f.inputs),
        b.found.map(|f| f.inputs),
        "generated inputs must be identical"
    );
}
