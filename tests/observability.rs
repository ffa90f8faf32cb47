//! Fleet-observability contracts (DESIGN.md §17): the run-history
//! manifest must be byte-identical no matter how the run was scheduled,
//! and a crashing engine must still leave a usable diagnostic trail —
//! a complete crash bundle on disk whose partial trace still parses.

use statsym::concrete::{ExecutionLog, InputValue, VmConfig};
use statsym::core::pipeline::{config_fingerprint, StatSym, StatSymConfig};
use statsym::sir::Module;
use statsym::symex::EngineConfig;
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

/// Deterministic config: no cancellation races, no shared solver cache,
/// so worker buffers are scheduling-independent.
fn config(workers: usize, state_workers: usize) -> StatSymConfig {
    StatSymConfig {
        workers,
        cancel_on_found: false,
        share_cache: false,
        engine: EngineConfig {
            state_workers,
            ..EngineConfig::default()
        },
        ..StatSymConfig::default()
    }
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

/// The tentpole identity contract: the manifest a run folds down to is
/// a property of the *workload*, not of how it was scheduled. Every
/// portfolio-worker x state-worker combination must render the same
/// bytes — config fingerprint included, because the fingerprint
/// canonicalizes scheduling knobs away.
#[test]
fn manifests_are_byte_identical_across_worker_and_state_worker_counts() {
    let m = module();
    let logs = corpus(&m);
    let analysis = StatSym::new(config(1, 1)).analyze(&logs);

    let manifest_for = |workers: usize, state_workers: usize| {
        let cfg = config(workers, state_workers);
        let meta = meta(&cfg);
        let rec = MemRecorder::new(Clock::steps());
        let _ = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
        RunManifest::from_events(&rec.finish(), &meta).render()
    };

    let baseline = manifest_for(1, 1);
    assert!(
        baseline.contains("\"kind\":\"statsym.manifest\""),
        "manifest must carry its kind tag: {baseline}"
    );
    for workers in [1usize, 2, 4] {
        for state_workers in [1usize, 2, 4] {
            let got = manifest_for(workers, state_workers);
            assert_eq!(
                baseline, got,
                "manifest must be byte-identical at workers={workers} \
                 state_workers={state_workers}"
            );
        }
    }
    // Rendering is itself deterministic: same run, same bytes.
    assert_eq!(baseline, manifest_for(1, 1));
}

/// The sequential (state_workers == 0) fallback loop and the
/// work-stealing scheduler agree on every workload metric — ticks,
/// winner, and all shared counters. Only the scheduler's own footprint
/// (`symex.sched_picks`, peak-memory) may differ, so history records
/// from the crash drill stay trend-comparable with fleet runs.
#[test]
fn sequential_fallback_agrees_on_workload_metrics() {
    let m = module();
    let logs = corpus(&m);
    let analysis = StatSym::new(config(1, 0)).analyze(&logs);

    let manifest_for = |state_workers: usize| {
        let cfg = config(1, state_workers);
        let meta = meta(&cfg);
        let rec = MemRecorder::new(Clock::steps());
        let _ = StatSym::new(cfg).run_with_analysis_traced(&m, analysis.clone(), &rec);
        RunManifest::from_events(&rec.finish(), &meta)
    };
    let mut seq = manifest_for(0);
    let mut par = manifest_for(2);
    assert_eq!(seq.ticks, par.ticks, "step clock must agree");
    assert_eq!(seq.winner_rank, par.winner_rank);
    assert_eq!(seq.budget, par.budget);
    for m in [&mut seq, &mut par] {
        m.counters.remove("symex.sched_picks");
        m.gauges.remove("symex.peak_memory_bytes");
    }
    assert_eq!(seq.counters, par.counters, "workload counters must agree");
    assert_eq!(seq.gauges, par.gauges, "workload gauges must agree");
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
    let analysis = StatSym::new(config(1, 0)).analyze(&logs);

    let dir = std::env::temp_dir().join(format!("statsym-obs-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let crash_dir = dir.join("crash");
    let trace_path = dir.join("partial.jsonl");
    std::fs::create_dir_all(&dir).unwrap();

    let mut cfg = config(1, 0);
    cfg.engine.panic_after = Some(40);
    let guard = CrashGuard::install(CrashContext {
        dir: crash_dir.to_string_lossy().into_owned(),
        run: "obs-drill".to_string(),
        reproduce: "statsym-portfolio --workers 1 --panic-after 40".to_string(),
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
