//! Exact gates on the bench workloads that the trace views judge:
//! candidate-path coverage, attribution identity across reruns (and
//! the committed `results/ci_attr_baseline.json`), the shared flags'
//! usage errors, and the `--panic-after` crash drill through a table
//! binary.
//!
//! Every trace here is recorded under the deterministic step clock, so
//! the pins are exact: a guidance, ranking or attribution change that
//! moves them must re-pin them and say why. `BLESS=1` rewrites the
//! attribution baseline.

use bench::{decoy, statsym_config, DECOY_MAX_STEPS, PAPER_SEED};
use benchapps::{by_name, generate_corpus, BenchApp, CorpusSpec};
use statsym_core::pipeline::{StatSym, StatSymConfig};
use statsym_core::{AnalysisReport, GuidanceConfig};
use statsym_inspect::{calib, coverage, hotspots, report, RunView};
use statsym_telemetry::{parse_trace_strict, Clock, FileRecorder, Recorder, SharedBuf};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// Decoy candidates ranked ahead of grep's real ranking.
const DECOYS: usize = 2;

fn view_of(trace: &[u8]) -> RunView {
    let text = std::str::from_utf8(trace).expect("trace is UTF-8");
    RunView::from_events(parse_trace_strict(text).expect("trace parses strictly"))
}

/// Records `run` into an in-memory steps-clock trace and loads it.
fn traced(run: impl FnOnce(&dyn Recorder)) -> RunView {
    let buf = SharedBuf::new();
    let rec = FileRecorder::from_writer(Box::new(buf.clone()), Clock::steps());
    run(&rec);
    rec.finish().expect("trace flushes");
    view_of(&buf.contents())
}

/// The hotspots and calib JSON views, concatenated as the CLI prints
/// them: the attribution projection the baseline file pins.
fn attr_projection(view: &RunView) -> String {
    let json = hotspots::Opts {
        format: hotspots::Format::Json,
        ..hotspots::Opts::default()
    };
    hotspots::hotspots(view, &json) + &calib::calib(view, true)
}

/// The decoy workload's configuration: the paper settings with lineage,
/// attribution and provenance on, a step budget the decoys exhaust, and
/// a large τ that keeps decoy states alive until they reach the
/// poisoned fault region.
fn decoy_config() -> StatSymConfig {
    let mut cfg = statsym_config();
    cfg.engine.max_steps = DECOY_MAX_STEPS;
    cfg.engine.lineage = true;
    cfg.engine.attribution = true;
    cfg.guidance = GuidanceConfig {
        tau: 1_000_000,
        ..cfg.guidance
    };
    cfg
}

/// grep at 100% sampling with [`DECOYS`] decoys ranked first; the real
/// winner sits at rank `DECOYS`.
fn decoy_workload() -> &'static (BenchApp, AnalysisReport) {
    static WORKLOAD: OnceLock<(BenchApp, AnalysisReport)> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let app = benchapps::grep();
        let logs = generate_corpus(
            &app,
            CorpusSpec {
                n_correct: 100,
                n_faulty: 100,
                sampling_rate: 1.0,
                seed: PAPER_SEED,
            },
        );
        let mut analysis = StatSym::new(decoy_config()).analyze(&logs);
        let d = decoy(&analysis);
        let paths = &mut analysis.candidates.as_mut().expect("candidates").paths;
        for _ in 0..DECOYS {
            paths.insert(0, d.clone());
        }
        (app, analysis)
    })
}

/// One trace of the decoy workload.
fn decoy_trace() -> RunView {
    let (app, analysis) = decoy_workload();
    traced(|rec| {
        let report = StatSym::new(decoy_config()).run_with_analysis_pinned_traced(
            &app.module,
            analysis.clone(),
            &app.pins,
            rec,
        );
        assert_eq!(report.candidate_used, Some(DECOYS), "winner rank");
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("statsym-gates-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn decoy_workload_pins_coverage_and_attribution() {
    let view = decoy_trace();
    // Both decoys conjoin their single poisoned node and the winner
    // reaches 18 of its 20.
    let attempts = coverage::attempts(&view.events);
    let per_rank: Vec<(u64, usize, usize)> = attempts
        .iter()
        .map(|a| (a.rank, a.covered(), a.nodes.len()))
        .collect();
    assert_eq!(per_rank, [(1, 1, 1), (2, 1, 1), (3, 18, 20)]);
    let (covered, total, _) = coverage::totals(&attempts);
    assert_eq!((covered, total), (20, 22));
    assert!(coverage::gate(&view, 80.0));

    // The attr.* counters and calib.candidate records, solver work
    // included, repeat exactly on a rerun: the verdict memo fills in
    // rank order.
    let projection = attr_projection(&view);
    assert_eq!(attr_projection(&decoy_trace()), projection);

    // The committed baseline: this projection, then table2's under
    // `--attr`, byte for byte.
    let dir = temp_dir("attr");
    let trace = dir.join("table2.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--attr", "--trace"])
        .arg(&trace)
        .output()
        .expect("table2 runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let table2 = view_of(&std::fs::read(&trace).unwrap());
    let baseline =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/ci_attr_baseline.json");
    let got = projection + &attr_projection(&table2);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&baseline, &got).unwrap();
    }
    assert_eq!(
        got,
        std::fs::read_to_string(baseline).unwrap(),
        "attribution drifted from results/ci_attr_baseline.json"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_flags_fail_loudly() {
    // Flags of the retired parallel candidate loop are usage errors,
    // never silently ignored.
    for args in [&["--workers", "4"][..], &["--no-share-cache"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args(args)
            .output()
            .expect("table2 runs");
        assert_eq!(out.status.code(), Some(2), "table2 {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument"),
            "table2 {args:?}: {stderr}"
        );
    }
}

#[test]
fn parser_apps_engage_every_candidate_path_node() {
    // (app, covered/total nodes of its one attempt, at rank 1).
    const CASES: [(&str, usize, usize); 4] = [
        ("http_header", 4, 4),
        ("http_chunked", 4, 4),
        ("urldecode", 2, 2),
        ("base64", 3, 3),
    ];
    let mut config = statsym_config();
    config.engine.lineage = true;
    let view = traced(|rec| {
        for (name, _, _) in CASES {
            let app = by_name(name).expect("parser app");
            let logs = generate_corpus(
                &app,
                CorpusSpec {
                    n_correct: 30,
                    n_faulty: 30,
                    sampling_rate: 0.3,
                    seed: PAPER_SEED,
                },
            );
            let analysis = StatSym::new(config).analyze(&logs);
            let report = StatSym::new(config).run_with_analysis_traced(&app.module, analysis, rec);
            assert_eq!(report.candidate_used, Some(0), "{name}: winner rank");
        }
    });
    let attempts = coverage::attempts(&view.events);
    let per_app: Vec<(u64, usize, usize)> = attempts
        .iter()
        .map(|a| (a.rank, a.covered(), a.nodes.len()))
        .collect();
    let expected: Vec<(u64, usize, usize)> = CASES.iter().map(|&(_, c, n)| (1, c, n)).collect();
    assert_eq!(per_app, expected);
    assert!(coverage::gate(&view, 80.0));
}

#[test]
fn panic_after_crashes_a_table_run_into_a_readable_bundle() {
    let dir = temp_dir("crash");
    let crash_dir = dir.join("crash");
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .arg("--trace")
        .arg(dir.join("drill.jsonl"))
        .args(["--panic-after", "40", "--crash-dir"])
        .arg(&crash_dir)
        .output()
        .expect("table2 runs");
    assert!(
        !out.status.success(),
        "--panic-after 40 did not crash table2"
    );
    let bundle = crash_dir.join("drill");
    for member in [
        "panic.txt",
        "config.txt",
        "reproduce.txt",
        "trace.partial.jsonl",
        "manifest.jsonl",
    ] {
        assert!(bundle.join(member).is_file(), "bundle lacks {member}");
    }
    let manifest = std::fs::read_to_string(bundle.join("manifest.jsonl")).unwrap();
    assert!(manifest.contains("\"budget\":\"crashed\""), "{manifest}");
    let config = std::fs::read_to_string(bundle.join("config.txt")).unwrap();
    assert!(config.contains("panic_after: Some("), "{config}");
    // The partial trace still opens with its meta line and reports.
    let partial = bundle.join("trace.partial.jsonl");
    let view = RunView::load(partial.to_str().unwrap(), true).expect("partial trace loads");
    assert!(!report::report(&view).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
