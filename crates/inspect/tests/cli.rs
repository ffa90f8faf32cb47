//! End-to-end tests of the `statsym-inspect` binary: exit codes, the
//! golden run report, and the diff gate on trace inputs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn inspect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_statsym-inspect"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn report_matches_golden_file() {
    let out = inspect(&["report", fixture("base.jsonl").to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let rendered = stdout(&out);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden file exists");
    assert_eq!(
        rendered, golden,
        "report drifted from tests/golden/report.txt; \
         re-bless with BLESS=1 cargo test -p statsym-inspect --test cli"
    );
}

#[test]
fn diff_identical_traces_exits_zero() {
    let base = fixture("base.jsonl");
    let out = inspect(&["diff", base.to_str().unwrap(), base.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 regression(s)"));
}

#[test]
fn diff_flags_injected_regression_with_exit_one() {
    let out = inspect(&[
        "diff",
        fixture("base.jsonl").to_str().unwrap(),
        fixture("regressed.jsonl").to_str().unwrap(),
        "--threshold",
        "20%",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("REGRESSION"), "{text}");
    // engine.run grew 140 -> 230 ticks; solver nodes 1000 -> 1300.
    assert!(text.contains("phase engine.run"), "{text}");
    assert!(text.contains("counter solver.nodes"), "{text}");
}

#[test]
fn diff_threshold_above_growth_passes() {
    let out = inspect(&[
        "diff",
        fixture("base.jsonl").to_str().unwrap(),
        fixture("regressed.jsonl").to_str().unwrap(),
        "--threshold",
        "500%",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
}

#[test]
fn diff_ignore_prefixes_suppress_the_gate() {
    let out = inspect(&[
        "diff",
        fixture("base.jsonl").to_str().unwrap(),
        fixture("regressed.jsonl").to_str().unwrap(),
        "--threshold",
        "20%",
        "--ignore",
        "engine.run",
        "--ignore",
        "solver",
        "--ignore",
        "symex.steps",
        "--ignore",
        "candidate.attempt",
        "--ignore",
        "pipeline.symex",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("[ignored]"));
}

#[test]
fn diff_rejects_a_non_trace_json_file_with_exit_two() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("report.json");
    std::fs::write(&report, r#"{"wall_s": 1.6, "parallel": [{"wall_s": 0.5}]}"#).unwrap();
    let base = fixture("base.jsonl");
    for (old, new) in [
        (report.to_str().unwrap(), report.to_str().unwrap()),
        (base.to_str().unwrap(), report.to_str().unwrap()),
    ] {
        let out = inspect(&["diff", old, new]);
        assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
        assert!(stdout(&out).is_empty(), "{}", stdout(&out));
        assert!(
            stderr(&out).contains("not a JSONL trace"),
            "{}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_trace_fails_with_line_number_and_exit_two() {
    let out = inspect(&["report", fixture("unbalanced.jsonl").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    // Duplicate span id 1 reopened on line 3.
    assert!(err.contains(":3:"), "{err}");
    assert!(err.contains("span"), "{err}");
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["diff", "only-one-file"][..],
        &["diff", "a", "b", "--threshold", "nope"][..],
        &["tree", "x", "--format", "flame", "--metric", "bogus"][..],
        &["tree", "x", "--metric", "steps"][..],
        &["report", "x", "--limit", "1"][..],
    ] {
        let out = inspect(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
    }
}

/// Writes `name` under a per-process temp dir and returns its path.
fn temp_trace(dir: &Path, name: &str, body: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn diff_empty_traces_are_valid_and_schema_only() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A zero-byte file is a degenerate but well-formed trace: no spans
    // to balance, no metrics to compare.
    let empty = temp_trace(&dir, "empty.jsonl", "");
    let out = inspect(&["diff", empty.to_str().unwrap(), empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("0 regression(s)"), "{}", stdout(&out));

    // Empty vs populated: every metric is a schema change (no baseline),
    // never a regression — in either direction.
    let base = fixture("base.jsonl");
    for (a, b) in [(&empty, &base), (&base, &empty)] {
        let out = inspect(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
        let text = stdout(&out);
        assert!(text.contains("(absent)"), "{text}");
        assert!(text.contains("0 regression(s)"), "{text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_distinguishes_zero_counter_from_absent_counter() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let meta = r#"{"k":"meta","clock":"steps","version":1}"#;
    let zero = temp_trace(
        &dir,
        "zero.jsonl",
        &format!("{meta}\n{{\"k\":\"counter\",\"name\":\"cache.hits\",\"value\":0}}\n"),
    );
    let absent = temp_trace(&dir, "absent.jsonl", &format!("{meta}\n"));
    let grown = temp_trace(
        &dir,
        "grown.jsonl",
        &format!("{meta}\n{{\"k\":\"counter\",\"name\":\"cache.hits\",\"value\":4}}\n"),
    );

    // Zero -> absent is a schema change (a vanished counter is not a
    // regression to zero), and absent -> zero has no baseline.
    for (a, b) in [(&zero, &absent), (&absent, &zero)] {
        let out = inspect(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
        let text = stdout(&out);
        assert!(text.contains("[schema]"), "{text}");
        assert!(text.contains("1 schema change(s)"), "{text}");
    }
    // Zero -> nonzero is infinite relative growth: a real regression.
    let out = inspect(&["diff", zero.to_str().unwrap(), grown.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stdout(&out).contains("+inf%"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_threshold_boundary_is_strict_and_nan_is_rejected() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-thr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let meta = r#"{"k":"meta","clock":"steps","version":1}"#;
    let old = temp_trace(
        &dir,
        "old.jsonl",
        &format!("{meta}\n{{\"k\":\"counter\",\"name\":\"steps\",\"value\":100}}\n"),
    );
    let new = temp_trace(
        &dir,
        "new.jsonl",
        &format!("{meta}\n{{\"k\":\"counter\",\"name\":\"steps\",\"value\":110}}\n"),
    );
    // Exactly-at-threshold growth (10%) does not trip a 10% gate…
    let out = inspect(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold",
        "10%",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    // …but any threshold strictly below it does.
    let out = inspect(&[
        "diff",
        old.to_str().unwrap(),
        new.to_str().unwrap(),
        "--threshold",
        "9.9%",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    // Non-finite thresholds are usage errors, not silent always/never
    // gates: NaN compares false with everything and would wave every
    // regression through.
    for bad in ["nan", "NaN", "inf", "-inf", "-5%"] {
        let out = inspect(&[
            "diff",
            old.to_str().unwrap(),
            new.to_str().unwrap(),
            "--threshold",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(2), "--threshold {bad}");
        assert!(stderr(&out).contains("threshold"), "{}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_shows_attempts_and_solver_callsites() {
    let base = fixture("base.jsonl");
    let out = inspect(&["report", base.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("attempts: 2 attempt(s)\n"), "{text}");
    assert!(text.contains("longest attempt: rank 0"), "{text}");
    assert!(text.contains("feasibility"), "{text}");
    assert!(text.contains("94.0% attributed"), "{text}");
}

/// Renders a `--lineage` trace from a pinned testkit corpus entry. The
/// step clock plus the pinned seed make the bytes reproducible, so the
/// coverage golden below is stable without checking in an opaque JSONL
/// fixture.
fn lineage_trace(dir: &Path) -> PathBuf {
    use statsym_core::pipeline::StatSym;
    use statsym_telemetry::{render_trace, Clock, MemRecorder};
    use testkit::corpus::CORPUS;
    use testkit::oracles::{input_spec, mint_logs, statsym_config};

    let entry = CORPUS
        .iter()
        .find(|e| e.name == "string_copy_overflow")
        .expect("pinned corpus entry");
    let program = entry.program();
    let module = sir::lower(&program).expect("corpus entry lowers");
    let logs = mint_logs(&module, &input_spec(&program), entry.seed, None);
    let mut config = statsym_config();
    config.engine.lineage = true;
    let rec = MemRecorder::new(Clock::steps());
    let statsym = StatSym::new(config);
    let analysis = statsym.analyze_traced(&logs, &rec);
    let _ = statsym.run_with_analysis_traced(&module, analysis, &rec);
    temp_trace(dir, "lineage.jsonl", &render_trace(&rec.finish()))
}

#[test]
fn coverage_matches_golden_on_pinned_testkit_seed() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-cov-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = lineage_trace(&dir);
    let out = inspect(&["coverage", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let rendered = stdout(&out);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/coverage.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden_path, &rendered).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden file exists");
    assert_eq!(
        rendered, golden,
        "coverage drifted from tests/golden/coverage.txt; \
         re-bless with BLESS=1 cargo test -p statsym-inspect --test cli"
    );

    // The --min gate: trivially satisfied floor passes, impossible
    // floor fails with exit 1 and a FAIL verdict in the output.
    let out = inspect(&["coverage", trace.to_str().unwrap(), "--min", "1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("gate: pass"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tree_and_watch_render_lineage_trace() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-lin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = lineage_trace(&dir);

    let out = inspect(&["tree", trace.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("exploration forest:"), "{text}");
    assert!(text.contains("└─"), "{text}");
    assert!(text.contains("subtree"), "{text}");

    let out = inspect(&["tree", trace.to_str().unwrap(), "--format", "flame"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(!text.is_empty(), "flame output empty");
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("collapsed-stack line");
        assert!(!stack.is_empty(), "{line}");
        weight.parse::<u64>().expect("numeric weight");
    }
    // steps weights differ from the solver-node default.
    let out = inspect(&[
        "tree",
        trace.to_str().unwrap(),
        "--format",
        "flame",
        "--metric",
        "steps",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_ne!(stdout(&out), text);

    let out = inspect(&["watch", trace.to_str().unwrap(), "--once"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("StatSym watch"), "{text}");
    assert!(text.contains("run complete"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_format_json_emits_one_stable_object() {
    let base = fixture("base.jsonl");
    let out = inspect(&["report", base.to_str().unwrap(), "--format", "json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 1, "one JSON object per report");
    assert!(
        text.starts_with("{\"kind\":\"statsym.report\",\"schema_version\":1,\"clock\":"),
        "{text}"
    );
    for key in [
        "\"spans\":[",
        "\"counters\":{",
        "\"gauges\":{",
        "\"hists\":[",
        "\"events\":{",
        "\"attribution\":{",
        "\"queries\":[",
        "\"calibration\":{",
    ] {
        assert!(text.contains(key), "missing {key} in {text}");
    }
    // The fixture's attribution and calibration data fold into the
    // report's machine-readable sections.
    assert!(
        text.contains("\"attribution\":{\"convert:7\":{\"steps\":60,"),
        "{text}"
    );
    assert!(
        text.contains("\"winner_rank\":2,\"corr_milli\":-1000"),
        "{text}"
    );
    // Byte-stable across invocations (the CI contract for machine
    // consumers).
    let again = inspect(&["report", base.to_str().unwrap(), "--format", "json"]);
    assert_eq!(text, stdout(&again));

    let out = inspect(&["report", base.to_str().unwrap(), "--format", "yaml"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown format is a usage error"
    );
}

#[test]
fn hotspots_explain_and_calib_render_fixture() {
    let base = fixture("base.jsonl");
    let path = base.to_str().unwrap();

    // hotspots: main:3 leads on steps; JSON form is byte-stable.
    let out = inspect(&["hotspots", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    let main = text.find("main:3").expect("main row");
    let conv = text.find("convert:7").expect("convert row");
    assert!(main < conv, "{text}");
    let out = inspect(&["hotspots", path, "--format", "json", "--metric", "nodes"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(
        json.starts_with("{\"metric\":\"nodes\",\"total\":1000,"),
        "{json}"
    );
    let again = inspect(&["hotspots", path, "--format", "json", "--metric", "nodes"]);
    assert_eq!(json, stdout(&again));
    let out = inspect(&["hotspots", path, "--format", "flame"]);
    assert!(out.status.success());
    for line in stdout(&out).lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("collapsed-stack line");
        assert!(stack.contains(';'), "{line}");
        weight.parse::<u64>().expect("numeric weight");
    }

    // explain: the winning rank-2 candidate, end to end.
    let out = inspect(&["explain", path, "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("candidate rank 2 of 2"), "{text}");
    assert!(
        text.contains("winner rank           2  (this candidate)"),
        "{text}"
    );
    assert!(text.contains("where the attempt won"), "{text}");
    // A rank the trace does not carry exits 1 (not a usage error).
    let out = inspect(&["explain", path, "7"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stderr(&out).contains("rank 7"), "{}", stderr(&out));

    // calib: table + gates. The fixture anti-correlates (the winner was
    // ranked second and cheaper), so a -1000 floor passes and 0 fails.
    let out = inspect(&["calib", path]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("winner rank: 2"), "{text}");
    assert!(text.contains("rank-vs-cost corr: -1000 milli"), "{text}");
    let out = inspect(&["calib", path, "--min-corr", "-1000"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let out = inspect(&["calib", path, "--min-corr", "0"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    assert!(stderr(&out).contains("below the"), "{}", stderr(&out));
    let out = inspect(&["calib", path, "--format", "json"]);
    assert!(out.status.success());
    let json = stdout(&out);
    assert!(
        json.starts_with("{\"runs\":[{\"candidates\":[{\"rank\":1,"),
        "{json}"
    );
    assert!(json.contains("\"gauge_winner_rank\":2"), "{json}");
}

#[test]
fn malformed_provenance_events_are_rejected() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-prov-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let meta = "{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}\n";
    // Unknown cache disposition, unknown verdict, empty site: the
    // strict parser refuses each with a line-numbered error.
    for (name, bad) in [
        (
            "cache.jsonl",
            "{\"k\":\"query\",\"t\":1,\"sid\":1,\"loc\":\"f:1\",\"rank\":1,\"site\":\"s\",\
             \"verdict\":\"sat\",\"cache\":\"warp\",\"nodes\":1,\"us\":0}\n",
        ),
        (
            "verdict.jsonl",
            "{\"k\":\"query\",\"t\":1,\"sid\":1,\"loc\":\"f:1\",\"rank\":1,\"site\":\"s\",\
             \"verdict\":\"maybe\",\"cache\":\"search\",\"nodes\":1,\"us\":0}\n",
        ),
        (
            "site.jsonl",
            "{\"k\":\"query\",\"t\":1,\"sid\":1,\"loc\":\"f:1\",\"rank\":1,\"site\":\"\",\
             \"verdict\":\"sat\",\"cache\":\"search\",\"nodes\":1,\"us\":0}\n",
        ),
    ] {
        let path = temp_trace(&dir, name, &format!("{meta}{bad}"));
        let out = inspect(&["report", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        assert!(stderr(&out).contains(":2:"), "{name}: {}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_once_matches_report_on_truncated_traces() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A mid-write trace: valid meta line, one calibration record (so
    // `explain 1` has something to explain), then half an event line.
    let cut = temp_trace(
        &dir,
        "cut.jsonl",
        "{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}\n\
         {\"k\":\"event\",\"t\":0,\"name\":\"calib.candidate\",\"fields\":{\"rank\":1,\
         \"score_milli\":4200,\"path_len\":3,\"steps\":100,\"forks\":2,\"snodes\":600,\
         \"found\":0}}\n{\"k\":\"event\",\"t\":0,\"na",
    );
    let path = cut.to_str().unwrap();
    let views: [&[&str]; 9] = [
        &["report", path],
        &["report", path, "--format", "json"],
        &["tree", path],
        &["tree", path, "--format", "flame"],
        &["coverage", path],
        &["hotspots", path],
        &["explain", path, "1"],
        &["calib", path],
        &["watch", path, "--once"],
    ];

    // Strict by default: every view rejects the torn tail with exit 2.
    for args in views {
        let out = inspect(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(stderr(&out).contains(":3:"), "args: {args:?}");
    }
    // --allow-truncated: every view accepts it with exit 0.
    for args in views {
        let args = [args, &["--allow-truncated"]].concat();
        let out = inspect(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "args: {args:?} {}",
            stderr(&out)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_json_is_a_parse_error_not_a_crash() {
    let dir = std::env::temp_dir().join(format!("statsym-inspect-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = format!("{{\"k\":{}\n", "[".repeat(100_000));
    let trace = temp_trace(
        &dir,
        "deep.jsonl",
        &format!("{{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}}\n{deep}"),
    );
    let json = temp_trace(&dir, "deep.json", &deep);
    let archive = temp_trace(&dir, "history.jsonl", &deep);
    for args in [
        &["report", trace.to_str().unwrap()][..],
        &["diff", json.to_str().unwrap(), json.to_str().unwrap()][..],
        &["history", archive.to_str().unwrap()][..],
    ] {
        let out = inspect(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(stderr(&out).contains("nesting"), "{}", stderr(&out));
    }
    std::fs::remove_dir_all(&dir).ok();
}
