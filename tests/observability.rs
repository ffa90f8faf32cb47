//! Fleet-observability contracts (DESIGN.md §17): the run-history
//! manifest must be byte-identical from run to run, and a crashing
//! engine must still leave a usable diagnostic trail —
//! a complete crash bundle on disk whose partial trace still parses.

use statsym::concrete::{ExecutionLog, InputValue, VmConfig};
use statsym::core::pipeline::{config_fingerprint, StatSym, StatSymConfig};
use statsym::sir::Module;
use statsym::telemetry::crash::{CrashContext, CrashGuard};
use statsym::telemetry::manifest::{ManifestMeta, RunManifest};
use statsym::telemetry::{
    parse_trace_truncated, Clock, FileRecorder, MemRecorder, TraceEvent, NOOP,
};

const SRC: &str = r#"
    global track: int = 0;
    fn helper_a(x: int) -> int { track = track + 1; return x + 1; }
    fn helper_b(x: int) -> int { track = track + 2; return x * 2; }
    fn convert(s: str) {
        let b: buf[6];
        let i: int = 0;
        while (char_at(s, i) != 0) {
            buf_set(b, i, char_at(s, i));
            i = i + 1;
        }
    }
    fn main() {
        let m: int = input_int("mode");
        let s: str = input_str("name", 12);
        if (m > 0) { print(helper_a(m)); } else { print(helper_b(m)); }
        convert(s);
    }
"#;

fn module() -> Module {
    statsym::sir::lower(&statsym::minic::parse_program(SRC).unwrap()).unwrap()
}

fn corpus(module: &Module) -> Vec<ExecutionLog> {
    let mut logs = Vec::new();
    for len in [0usize, 2, 4, 6, 7, 9, 11, 12] {
        let name: Vec<u8> = std::iter::repeat_n(b'a', len).collect();
        let inputs = [
            ("mode".to_string(), InputValue::Int(len as i64 - 5)),
            ("name".to_string(), InputValue::Str(name)),
        ]
        .into_iter()
        .collect();
        let run = statsym::concrete::run_logged_traced(
            module,
            &inputs,
            1.0,
            0,
            VmConfig::default(),
            &NOOP,
        )
        .unwrap();
        logs.push(run.log);
    }
    logs
}

fn meta(cfg: &StatSymConfig) -> ManifestMeta {
    ManifestMeta {
        source: "test".to_string(),
        run: "observability".to_string(),
        git: "deadbeef0000".to_string(),
        seed: 7,
        config: config_fingerprint(cfg),
    }
}

/// The identity contract: the manifest a run folds down to is a
/// property of the *workload*. A rerun renders the same bytes, config
/// fingerprint and trace hash included.
#[test]
fn manifests_are_byte_identical_across_runs() {
    let m = module();
    let logs = corpus(&m);
    let analysis = StatSym::default().analyze(&logs);

    let manifest_for = || {
        let cfg = StatSymConfig::default();
        let meta = meta(&cfg);
        let rec = MemRecorder::new(Clock::steps());
        let _ = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
        RunManifest::from_events(&rec.finish(), &meta).render()
    };

    let baseline = manifest_for();
    assert!(
        baseline.contains("\"kind\":\"statsym.manifest\""),
        "manifest must carry its kind tag: {baseline}"
    );
    assert_eq!(baseline, manifest_for());
}

/// A forced engine panic (the `--panic-after` chaos knob) must leave
/// the full diagnostic trail: the panic hook writes a complete crash
/// bundle (panic text, config, reproduce line, partial trace, crashed
/// manifest), and the partial trace it copies is a readable trace that
/// opens with the meta line.
#[test]
fn engine_panic_yields_crash_bundle_and_readable_partial_trace() {
    let m = module();
    let logs = corpus(&m);
    let analysis = StatSym::default().analyze(&logs);

    let dir = std::env::temp_dir().join(format!("statsym-obs-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash_dir = dir.join("crash");
    let trace_path = dir.join("partial.jsonl");
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = StatSymConfig::default();
    cfg.engine.panic_after = Some(40);
    let guard = CrashGuard::install(CrashContext {
        dir: crash_dir.to_string_lossy().into_owned(),
        run: "obs-drill".to_string(),
        reproduce: "table2 --panic-after 40".to_string(),
        config: format!("{cfg:#?}"),
        trace_path: Some(trace_path.to_string_lossy().into_owned()),
        meta: ManifestMeta {
            run: "obs-drill".to_string(),
            ..meta(&cfg)
        },
    });

    // Record to a trace file, as `--trace` does; the bundle copies
    // whatever of it was flushed when the panic hit.
    let rec = FileRecorder::create(&trace_path, Clock::steps()).unwrap();

    let analysis2 = analysis.clone();
    let module2 = module();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = StatSym::new(cfg).run_with_analysis_traced(&module2, analysis2, &rec);
    }));
    assert!(outcome.is_err(), "panic_after=40 must actually panic");
    guard.disarm();

    // The bundle is complete: every required member is on disk and the
    // manifest records the crashed disposition.
    let bundle = crash_dir.join("obs-drill");
    for member in [
        "panic.txt",
        "config.txt",
        "reproduce.txt",
        "trace.partial.jsonl",
    ] {
        assert!(
            bundle.join(member).is_file(),
            "crash bundle must contain {member}"
        );
    }
    let manifest_line = std::fs::read_to_string(bundle.join("manifest.jsonl")).unwrap();
    let parsed = RunManifest::parse_line(manifest_line.trim(), 1).unwrap();
    assert_eq!(parsed.budget, "crashed");
    assert_eq!(parsed.run, "obs-drill");
    let panic_txt = std::fs::read_to_string(bundle.join("panic.txt")).unwrap();
    assert!(
        panic_txt.contains("forced engine panic"),
        "panic.txt must carry the payload: {panic_txt}"
    );

    // The partial trace is a trail a reader can follow: it parses with
    // the truncation-tolerant parser and opens with the meta line.
    let partial = std::fs::read_to_string(bundle.join("trace.partial.jsonl")).unwrap();
    let (events, _) = parse_trace_truncated(&partial).unwrap();
    assert!(
        matches!(events.first(), Some(TraceEvent::Meta { clock, .. }) if clock == "steps"),
        "partial trace must start with the meta line: {partial}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
