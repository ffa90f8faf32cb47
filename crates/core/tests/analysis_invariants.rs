//! Invariants of the statistical analysis stage, checked across all
//! benchmark apps and sampling rates:
//!
//! * the failure location is the entry of the true fault function;
//! * candidate paths start at the program entry and end at the failure;
//! * predicate thresholds separate the observed class ranges;
//! * detours always reconnect to the skeleton;
//! * analysis is deterministic.

use benchapps::{all_apps, generate_corpus, CorpusSpec};
use statsym_core::pipeline::StatSym;
use statsym_core::DetourKind;

fn spec(rate: f64, seed: u64) -> CorpusSpec {
    CorpusSpec {
        n_correct: 40,
        n_faulty: 40,
        sampling_rate: rate,
        seed,
    }
}

#[test]
fn candidate_paths_span_entry_to_failure() {
    for app in all_apps() {
        for rate in [0.3, 1.0] {
            let logs = generate_corpus(&app, spec(rate, 11));
            let analysis = StatSym::default().analyze(&logs);
            let failure = analysis.failure_location.clone().expect("failure found");
            let cands = analysis.candidates.as_ref().expect("candidates built");
            assert!(!cands.paths.is_empty(), "{} @ {rate}", app.name);
            for path in &cands.paths {
                let first = &path.nodes.first().expect("non-empty").loc;
                let last = &path.nodes.last().expect("non-empty").loc;
                assert_eq!(
                    &*first.func,
                    "main",
                    "{} @ {rate}: {}",
                    app.name,
                    path.render()
                );
                assert_eq!(last, &failure, "{} @ {rate}", app.name);
            }
        }
    }
}

#[test]
fn predicate_thresholds_sit_between_class_ranges() {
    // A perfectly-scoring predicate must classify every observation:
    // every run with faulty observations satisfies it, and every run
    // with correct observations does not.
    for app in all_apps() {
        let logs = generate_corpus(&app, spec(1.0, 23));
        let corpus = statsym_core::LogCorpus::build(&logs);
        let preds = statsym_core::PredicateSet::build(&corpus);
        let mut checked = 0;
        for p in &preds.ranked {
            if p.is_degenerate() || p.score < 1.0 - f64::EPSILON {
                continue;
            }
            let obs = corpus
                .observation(&p.loc, &p.var)
                .expect("predicate built from observations");
            let sat = |v: f64| match p.op {
                statsym_core::PredOp::Gt => v > p.threshold,
                statsym_core::PredOp::Lt => v < p.threshold,
            };
            for run in &obs.runs {
                assert!(
                    run.faulty == 0 || sat(run.value),
                    "{}: {} not true on faulty {}",
                    app.name,
                    p.render(),
                    run.value
                );
                assert!(
                    run.correct == 0 || !sat(run.value),
                    "{}: {} not false on correct {}",
                    app.name,
                    p.render(),
                    run.value
                );
            }
            checked += 1;
        }
        assert!(checked > 0, "{}: no perfectly scoring predicate", app.name);
    }
}

#[test]
fn detours_reconnect_to_the_skeleton() {
    for app in all_apps() {
        let logs = generate_corpus(&app, spec(0.3, 5));
        let analysis = StatSym::default().analyze(&logs);
        let Some(cands) = &analysis.candidates else {
            continue;
        };
        let n = cands.skeleton.len();
        for d in &cands.detours {
            assert!(d.from_idx < n, "{}", app.name);
            assert!(d.to_idx < n, "{}", app.name);
            assert!(!d.nodes.is_empty());
            match d.kind {
                DetourKind::Forward => assert!(d.from_idx < d.to_idx),
                DetourKind::Backward => assert!(d.from_idx > d.to_idx),
                DetourKind::Loop => assert_eq!(d.from_idx, d.to_idx),
            }
            // Detour targets are off-skeleton high-score locations.
            for node in &d.nodes {
                let _ = node;
            }
            assert!(d.score >= 0.5, "{}: detour score {}", app.name, d.score);
        }
    }
}

#[test]
fn analysis_is_deterministic() {
    let app = benchapps::thttpd();
    let logs = generate_corpus(&app, spec(0.3, 9));
    let a = StatSym::default().analyze(&logs);
    let b = StatSym::default().analyze(&logs);
    assert_eq!(a.failure_location, b.failure_location);
    assert_eq!(a.n_detours(), b.n_detours());
    assert_eq!(a.n_candidates(), b.n_candidates());
    let ra: Vec<String> = a.predicates.top(10).iter().map(|p| p.render()).collect();
    let rb: Vec<String> = b.predicates.top(10).iter().map(|p| p.render()).collect();
    assert_eq!(ra, rb);
}

#[test]
fn lower_sampling_means_fewer_records_but_analysis_still_converges() {
    let app = benchapps::grep();
    let mut prev_records = usize::MAX;
    for rate in [1.0, 0.5, 0.2] {
        let logs = generate_corpus(&app, spec(rate, 31));
        let records: usize = logs.iter().map(|l| l.records.len()).sum();
        assert!(records < prev_records, "record volume shrinks with rate");
        prev_records = records;
        let analysis = StatSym::default().analyze(&logs);
        assert_eq!(
            analysis.failure_location.as_ref().map(|l| &*l.func),
            Some("stonesoup_handle_taint"),
            "failure inference robust at {rate}"
        );
        assert!(analysis.candidates.is_some(), "candidates at {rate}");
    }
}

#[test]
fn top_predicate_matches_the_buffer_size_per_app() {
    // The headline of Table V: the top supported predicate's threshold
    // sits just below the vulnerable buffer's trigger length.
    let expect = [
        ("polymorph", 11.0, 12.0),
        ("ctree", 15.0, 16.0),
        ("grep", 27.0, 28.0),
    ];
    for (name, lo, hi) in expect {
        let app = benchapps::by_name(name).unwrap();
        let logs = generate_corpus(&app, spec(1.0, 41));
        let corpus = statsym_core::LogCorpus::build(&logs);
        let preds = statsym_core::PredicateSet::build(&corpus);
        let top = preds
            .ranked
            .iter()
            .find(|p| !p.is_degenerate())
            .expect("supported predicate");
        assert!(
            top.threshold >= lo && top.threshold <= hi,
            "{name}: threshold {} not in [{lo}, {hi}] ({})",
            top.threshold,
            top.render()
        );
    }
}
