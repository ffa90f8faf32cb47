//! Golden output of the statistical analysis stage.
//!
//! Renders `StatSym::analyze` for every paper app and every parser app
//! at 30% and 100% sampling on the paper-sized corpus (100 correct +
//! 100 faulty runs, seed 2017) and compares it byte for byte with
//! `tests/golden/analysis.txt`. Each predicate line carries the exact
//! bits of its threshold and score, so any change to predicate
//! construction or ranking — however small — shows up here.
//!
//! Re-bless with `BLESS=1 cargo test -p statsym-core --test analysis_golden`.

use benchapps::{all_apps, generate_corpus, parser_apps, CorpusSpec};
use statsym_core::pipeline::StatSym;
use std::fmt::Write as _;

fn render_app(out: &mut String, app: &benchapps::BenchApp, rate: f64) {
    let logs = generate_corpus(
        app,
        CorpusSpec {
            sampling_rate: rate,
            ..CorpusSpec::default()
        },
    );
    let analysis = StatSym::default().analyze(&logs);
    let failure = analysis
        .failure_location
        .as_ref()
        .map_or_else(|| "none".to_string(), |l| l.to_string());
    writeln!(
        out,
        "== {} @ {rate}: {} correct, {} faulty, failure {failure}",
        app.name, analysis.n_correct, analysis.n_faulty
    )
    .unwrap();
    for p in &analysis.predicates.ranked {
        writeln!(
            out,
            "pred {} | {} | t={:016x} s={:016x} support={}",
            p.loc,
            p.render(),
            p.threshold.to_bits(),
            p.score.to_bits(),
            p.support
        )
        .unwrap();
    }
    if let Some(cands) = &analysis.candidates {
        for (i, path) in cands.paths.iter().enumerate() {
            writeln!(
                out,
                "path #{i} s={:016x}: {}",
                path.score.to_bits(),
                path.render()
            )
            .unwrap();
        }
    }
}

#[test]
fn analysis_matches_golden_file() {
    let mut rendered = String::new();
    for app in all_apps().iter().chain(parser_apps().iter()) {
        for rate in [0.3, 1.0] {
            render_app(&mut rendered, app, rate);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/analysis.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert!(
        rendered == golden,
        "analysis output drifted from tests/golden/analysis.txt; \
         re-bless with BLESS=1 cargo test -p statsym-core --test analysis_golden"
    );
}
