//! `--trace <path>` / `--clock steps|wall` support for the bench
//! binaries: every table/figure binary can export a structured JSONL
//! trace of the run it just printed. The file is the one trace
//! transport: it is flushed after every lineage event, so
//! `statsym-inspect watch` can tail it while the run is still going.
//!
//! With `--clock steps` the trace is stamped with the engine's logical
//! step counter instead of wall-clock time, making the file
//! byte-reproducible across runs under a fixed seed.
//!
//! The observability layer adds three more shared flags:
//!
//! * `--history <dir|file.jsonl>` — fold the finished trace into a
//!   [`statsym_telemetry::manifest::RunManifest`] and
//!   append it to the content-addressed run-history archive (e2ebench
//!   appends to `e2ebench/out/history/`). Requires `--trace`.
//! * `--crash-dir <dir>` — arm a panic hook that writes a diagnostic
//!   bundle (panic message, config, reproduce command, partial trace,
//!   crash manifest) under `<dir>/<run>/` if the run dies.
//! * `--panic-after <n>` — chaos knob: force an engine panic after `n`
//!   executed steps, for drilling the crash path end to end.
//!
//! The execution flags (`--lineage`, `--attr`, `--panic-after`) reach
//! the pipeline through one function, [`TraceSink::configure`].

use statsym_core::pipeline::{config_fingerprint, StatSymConfig};
use statsym_telemetry::crash::{CrashContext, CrashGuard};
use statsym_telemetry::manifest::{self, ManifestMeta, RunManifest};
use statsym_telemetry::{Clock, FileRecorder, Recorder, NOOP};
use symex::EngineConfig;

/// Command-line trace options for a bench binary.
#[derive(Debug)]
pub struct TraceSink {
    path: Option<String>,
    rec: Option<FileRecorder>,
    lineage: bool,
    attr: bool,
    history: Option<String>,
    panic_after: Option<u64>,
    run: String,
    meta: ManifestMeta,
    crash_guard: Option<CrashGuard>,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: [--trace <path>] [--clock steps|wall] [--lineage] [--attr] [--history <dir>] \
         [--crash-dir <dir>] [--panic-after <steps>]"
    );
    std::process::exit(2);
}

impl TraceSink {
    /// Parses `--trace <path>`, `--clock steps|wall` and the other
    /// shared flags from the process arguments. Defaults to the
    /// deterministic step clock so fixed-seed runs produce
    /// byte-identical trace files.
    ///
    /// Exits with status 2 (and a usage message on stderr) on a
    /// malformed command line, an unrecognized flag, or an unwritable
    /// trace path. Binaries with their own flags should call
    /// [`TraceSink::extract`] instead.
    pub fn from_args() -> TraceSink {
        let mut args: Vec<String> = std::env::args().skip(1).collect();
        let sink = TraceSink::extract(&mut args);
        if let Some(other) = args.first() {
            usage_exit(&format!("unknown argument `{other}`"));
        }
        sink
    }

    /// Pulls the shared trace/observability flags (`--trace`,
    /// `--clock`, `--lineage`, `--attr`, `--history`, `--crash-dir`,
    /// `--panic-after`) out of `args`,
    /// leaving every unrecognized argument in place for the caller to
    /// parse — how binaries combine their own flags with the shared
    /// trace options.
    ///
    /// Exits with status 2 on a malformed trace flag or an unwritable
    /// trace path.
    pub fn extract(args: &mut Vec<String>) -> TraceSink {
        let mut path = None;
        let mut wall = false;
        let mut lineage = false;
        let mut attr = false;
        let mut history = None;
        let mut crash_dir = None;
        let mut panic_after = None;
        let mut rest = Vec::new();
        let mut it = std::mem::take(args).into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => match it.next() {
                    Some(p) => path = Some(p),
                    None => usage_exit("--trace requires a file path"),
                },
                "--clock" => match it.next().as_deref() {
                    Some("steps") => wall = false,
                    Some("wall") => wall = true,
                    Some(other) => {
                        usage_exit(&format!("unknown clock `{other}`; use `steps` or `wall`"))
                    }
                    None => usage_exit("--clock requires `steps` or `wall`"),
                },
                "--lineage" => lineage = true,
                "--attr" => attr = true,
                "--history" => match it.next() {
                    Some(dir) => history = Some(dir),
                    None => usage_exit("--history requires a directory or .jsonl file"),
                },
                "--crash-dir" => match it.next() {
                    Some(dir) => crash_dir = Some(dir),
                    None => usage_exit("--crash-dir requires a directory"),
                },
                "--panic-after" => match it.next().map(|n| n.parse::<u64>()) {
                    Some(Ok(n)) => panic_after = Some(n),
                    Some(_) => usage_exit("--panic-after requires a step count"),
                    None => usage_exit("--panic-after requires a step count"),
                },
                _ => rest.push(a),
            }
        }
        *args = rest;
        // The run id names the manifest and crash-bundle entries: the
        // trace file stem.
        let run = path
            .as_deref()
            .and_then(|p| std::path::Path::new(p).file_stem())
            .and_then(|s| s.to_str())
            .unwrap_or("bench")
            .to_string();
        let rec = path.as_deref().map(|p| {
            let clock = if wall { Clock::wall() } else { Clock::steps() };
            FileRecorder::create(p, clock)
                .unwrap_or_else(|e| usage_exit(&format!("cannot open {p}: {e}")))
        });
        if lineage && rec.is_none() {
            usage_exit("--lineage requires --trace (lineage events go into the trace)");
        }
        if attr && rec.is_none() {
            usage_exit("--attr requires --trace (attribution events go into the trace)");
        }
        if history.is_some() && path.is_none() {
            usage_exit("--history requires --trace (the manifest is folded from the trace file)");
        }
        let meta = ManifestMeta {
            source: "bench".to_string(),
            run: run.clone(),
            git: manifest::git_rev(),
            seed: 0,
            config: String::new(),
        };
        let crash_guard = crash_dir.map(|dir| {
            let reproduce: Vec<String> = std::env::args().collect();
            CrashGuard::install(CrashContext {
                dir,
                run: run.clone(),
                reproduce: reproduce.join(" "),
                config: String::new(),
                trace_path: path.clone(),
                meta: meta.clone(),
            })
        });
        TraceSink {
            path,
            rec,
            lineage,
            attr,
            history,
            panic_after,
            run,
            meta,
            crash_guard,
        }
    }

    /// `base` with every shared execution flag applied: the engine
    /// flags of [`TraceSink::engine_config`]. The one place a binary's
    /// pipeline configuration picks up the command line.
    ///
    /// The result is also recorded as the run's manifest identity under
    /// `seed` (see [`TraceSink::set_manifest_meta`]), so call this before
    /// the engine starts and a crash bundle carries the config.
    pub fn configure(&mut self, base: StatSymConfig, seed: u64) -> StatSymConfig {
        let cfg = StatSymConfig {
            engine: self.engine_config(base.engine),
            ..base
        };
        self.set_manifest_meta(seed, &config_fingerprint(&cfg), &format!("{cfg:#?}"));
        cfg
    }

    /// `base` with the shared engine flags applied: `--lineage`
    /// (exploration-tree events), `--attr` (per-source-line `attr.*`
    /// counters and per-query provenance events, for `statsym-inspect
    /// hotspots|explain`) and `--panic-after` (the chaos knob).
    pub fn engine_config(&self, base: EngineConfig) -> EngineConfig {
        EngineConfig {
            lineage: self.lineage,
            attribution: self.attr,
            provenance: self.attr,
            panic_after: self.panic_after,
            ..base
        }
    }

    /// The run id (trace file stem, `bench` without `--trace`) stamped
    /// into manifests and crash bundles.
    pub fn run(&self) -> &str {
        &self.run
    }

    /// Records the run's manifest identity — the workload seed and the
    /// scheduling-canonical config fingerprint — once the binary has
    /// resolved its configuration. Also folded into the armed crash
    /// bundle (with `config_text` as its human-readable config dump), so
    /// call this before the engine starts.
    pub fn set_manifest_meta(&mut self, seed: u64, config: &str, config_text: &str) {
        self.meta.seed = seed;
        self.meta.config = config.to_string();
        if let Some(guard) = &self.crash_guard {
            let meta = self.meta.clone();
            let config_text = config_text.to_string();
            guard.update(move |ctx| {
                ctx.meta = meta;
                ctx.config = config_text;
            });
        }
    }

    /// The recorder to thread through the experiment: the trace-file
    /// recorder when `--trace` was given, the no-op recorder otherwise.
    pub fn recorder(&self) -> &dyn Recorder {
        match &self.rec {
            Some(r) => r,
            None => &NOOP,
        }
    }

    /// Flushes the trace (appending the final metrics snapshot), appends
    /// the run manifest to the history archive when `--history` was
    /// given, disarms the crash hook, and reports where everything was
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if the trace file could not be written in full,
    /// or if the manifest could not be folded or appended.
    pub fn finish(self) {
        if let (Some(rec), Some(p)) = (self.rec, &self.path) {
            rec.finish()
                .unwrap_or_else(|e| panic!("failed to write trace {p}: {e}"));
            eprintln!("trace written to {p}");
            if let Some(history) = &self.history {
                let text = std::fs::read_to_string(p)
                    .unwrap_or_else(|e| panic!("cannot re-read trace {p}: {e}"));
                let m = RunManifest::from_trace(&text, &self.meta).unwrap_or_else(|e| {
                    panic!(
                        "trace {p} does not fold into a manifest (line {}): {}",
                        e.line, e.reason
                    )
                });
                let id = manifest::append_manifest(history, &m)
                    .unwrap_or_else(|e| panic!("cannot append manifest to {history}: {e}"));
                eprintln!(
                    "manifest {id} appended to {}",
                    manifest::history_path(history).display()
                );
            }
        }
        if let Some(guard) = &self.crash_guard {
            guard.disarm();
        }
    }
}
