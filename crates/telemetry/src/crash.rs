//! Crash diagnostic bundles.
//!
//! A run armed with a [`CrashGuard`] captures everything needed to
//! reproduce and triage a panic: the panic message and location, the
//! effective config, the exact reproduce command, a copy of the partial
//! trace, and a [`crate::manifest::RunManifest`] folded
//! from that partial trace with budget disposition `"crashed"`. The
//! bundle lands under `<dir>/<run>/` (`results/crash/` by convention).
//!
//! The guard chains the previously installed panic hook, so the default
//! backtrace printing (or a test harness's capture) still runs. It is
//! armed exactly once: a clean finish calls [`CrashGuard::disarm`] and
//! the hook becomes a no-op, and a second panic cannot double-write the
//! bundle because arming is a `swap(false)`.

use crate::manifest::{ManifestMeta, RunManifest};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
// `std::panic::set_hook` needs `Send + Sync` state: any thread may panic.
#[allow(clippy::disallowed_types)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Everything a crash bundle needs, captured up front while the run is
/// still healthy.
#[derive(Debug, Clone, Default)]
pub struct CrashContext {
    /// Bundle root (`results/crash` by convention); the bundle itself is
    /// written to `<dir>/<run>/`.
    pub dir: String,
    /// Run id — names the bundle directory.
    pub run: String,
    /// Exact command line that reproduces the crashed run.
    pub reproduce: String,
    /// Human-readable dump of the effective configuration.
    pub config: String,
    /// Path of the (partial) trace file being written, if any.
    pub trace_path: Option<String>,
    /// Manifest identity fields for the crash manifest.
    pub meta: ManifestMeta,
}

/// Writes the crash bundle for `ctx` to `<ctx.dir>/<ctx.run>/`, with
/// `panic_msg` as the captured panic payload + location. Returns the
/// bundle directory.
///
/// The partial trace (when present) is copied into the bundle as
/// `trace.partial.jsonl` and folded into `manifest.jsonl` via the
/// truncated parser, so the manifest carries budget disposition
/// `"crashed"`. A trace too damaged even for the truncated parser is
/// reported in `manifest.error.txt` instead of aborting the bundle.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures for the
/// required members (`panic.txt`, `config.txt`, `reproduce.txt`).
pub fn write_bundle(ctx: &CrashContext, panic_msg: &str) -> io::Result<PathBuf> {
    let bundle = Path::new(&ctx.dir).join(&ctx.run);
    fs::create_dir_all(&bundle)?;
    write_text(&bundle.join("panic.txt"), panic_msg)?;
    write_text(&bundle.join("config.txt"), &ctx.config)?;
    write_text(&bundle.join("reproduce.txt"), &ctx.reproduce)?;
    if let Some(trace) = &ctx.trace_path {
        match fs::read_to_string(trace) {
            Ok(text) => {
                write_text(&bundle.join("trace.partial.jsonl"), &text)?;
                match RunManifest::from_trace_truncated(&text, &ctx.meta) {
                    Ok(m) => {
                        write_text(&bundle.join("manifest.jsonl"), &format!("{}\n", m.render()))?;
                    }
                    Err(e) => {
                        let msg = format!("line {}: {}\n", e.line, e.reason);
                        write_text(&bundle.join("manifest.error.txt"), &msg)?;
                    }
                }
            }
            Err(e) => {
                let msg = format!("unreadable trace {trace}: {e}\n");
                write_text(&bundle.join("manifest.error.txt"), &msg)?;
            }
        }
    }
    Ok(bundle)
}

fn write_text(path: &Path, text: &str) -> io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(text.as_bytes())?;
    if !text.ends_with('\n') {
        f.write_all(b"\n")?;
    }
    f.flush()
}

/// An armed panic hook that writes the crash bundle exactly once.
///
/// Install early (before the engine runs), call
/// [`disarm`](CrashGuard::disarm) when the run finishes cleanly. The
/// process-global hook chains whatever hook was installed before, so
/// stacking guards (tests, nested tools) degrades gracefully: each
/// guard only fires for its own armed window.
#[derive(Debug)]
#[allow(clippy::disallowed_types)] // panic-hook state, see the imports
pub struct CrashGuard {
    armed: Arc<AtomicBool>,
    ctx: Arc<std::sync::Mutex<CrashContext>>,
}

#[allow(clippy::disallowed_types)] // panic-hook state, see the imports
impl CrashGuard {
    /// Installs the chained panic hook and arms it with `ctx`.
    pub fn install(ctx: CrashContext) -> CrashGuard {
        let armed = Arc::new(AtomicBool::new(true));
        let ctx = Arc::new(std::sync::Mutex::new(ctx));
        let hook_armed = Arc::clone(&armed);
        let hook_ctx = Arc::clone(&ctx);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // swap: first panic claims the bundle, re-entrant or later
            // panics fall through to the chained hook only.
            if hook_armed.swap(false, Ordering::SeqCst) {
                let msg = render_panic(info);
                let snapshot = hook_ctx
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone();
                match write_bundle(&snapshot, &msg) {
                    Ok(dir) => {
                        eprintln!("crash bundle written to {}", dir.display());
                    }
                    Err(e) => eprintln!("crash bundle write failed: {e}"),
                }
            }
            prev(info);
        }));
        CrashGuard { armed, ctx }
    }

    /// Amends the armed context in place — for identity fields (seed,
    /// config fingerprint, config dump) resolved only after the guard
    /// had to be installed.
    pub fn update<F: FnOnce(&mut CrashContext)>(&self, f: F) {
        let mut ctx = self
            .ctx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut ctx);
    }

    /// Disarms the hook: the run finished cleanly, no bundle on exit.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }
}

fn render_panic(info: &std::panic::PanicHookInfo<'_>) -> String {
    let payload = info.payload();
    let msg = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    match info.location() {
        Some(loc) => format!(
            "panicked at {}:{}:{}\n{msg}",
            loc.file(),
            loc.line(),
            loc.column()
        ),
        None => msg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("statsym-crash-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_trace() -> String {
        use crate::Recorder;
        let rec = crate::MemRecorder::new(crate::Clock::steps());
        rec.tick(5);
        rec.counter_add("symex.steps", 5);
        // Sorts after symex.steps, so truncation below severs only this
        // line and the steps counter survives the truncated parse.
        rec.counter_add("zz.tail", 1);
        let events = rec.finish();
        // Truncate mid-line to simulate a crash cutting the writer off.
        let mut text = crate::render_trace(&events);
        text.truncate(text.len() - 4);
        text
    }

    #[test]
    fn bundle_contains_all_members_and_crashed_manifest() {
        let root = temp_dir("bundle");
        let trace_path = root.join("run.jsonl");
        fs::write(&trace_path, sample_trace()).unwrap();
        let ctx = CrashContext {
            dir: root.join("crash").to_string_lossy().into_owned(),
            run: "demo".to_string(),
            reproduce: "cargo run -p bench --bin table2 -- --trace run.jsonl".to_string(),
            config: "max_steps=40".to_string(),
            trace_path: Some(trace_path.to_string_lossy().into_owned()),
            meta: ManifestMeta {
                source: "bench".to_string(),
                run: "demo".to_string(),
                ..ManifestMeta::default()
            },
        };
        let bundle = write_bundle(&ctx, "panicked at x.rs:1:1\nboom").unwrap();
        for member in [
            "panic.txt",
            "config.txt",
            "reproduce.txt",
            "trace.partial.jsonl",
        ] {
            assert!(bundle.join(member).is_file(), "missing {member}");
        }
        let manifest = fs::read_to_string(bundle.join("manifest.jsonl")).unwrap();
        let parsed = RunManifest::parse_line(manifest.trim_end(), 1).expect("manifest parses");
        assert_eq!(parsed.budget, "crashed");
        assert_eq!(parsed.source, "bench");
        assert_eq!(parsed.counters.get("symex.steps"), Some(&5));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unreadable_trace_degrades_to_error_note() {
        let root = temp_dir("noread");
        let ctx = CrashContext {
            dir: root.join("crash").to_string_lossy().into_owned(),
            run: "gone".to_string(),
            trace_path: Some(root.join("missing.jsonl").to_string_lossy().into_owned()),
            ..CrashContext::default()
        };
        let bundle = write_bundle(&ctx, "boom").unwrap();
        assert!(bundle.join("manifest.error.txt").is_file());
        assert!(!bundle.join("manifest.jsonl").exists());
        let _ = fs::remove_dir_all(&root);
    }

    // One test covers the whole hook lifecycle: the panic hook is
    // process-global, so splitting this into parallel test functions
    // would let one test's intentional panic trip another's armed guard.
    #[test]
    fn guard_fires_once_on_panic_and_never_after_disarm() {
        let root = temp_dir("guard");
        let crash_dir = root.join("crash");
        let ctx = CrashContext {
            dir: crash_dir.to_string_lossy().into_owned(),
            run: "panicking".to_string(),
            reproduce: "repro".to_string(),
            config: "cfg".to_string(),
            trace_path: None,
            meta: ManifestMeta::default(),
        };
        let guard = CrashGuard::install(ctx);
        let result = std::panic::catch_unwind(|| panic!("chaos: forced test panic"));
        assert!(result.is_err());
        let bundle = crash_dir.join("panicking");
        let panic_txt = fs::read_to_string(bundle.join("panic.txt")).unwrap();
        assert!(
            panic_txt.contains("chaos: forced test panic"),
            "{panic_txt}"
        );
        assert!(bundle.join("reproduce.txt").is_file());

        // Second panic after the bundle is claimed: no rewrite.
        fs::remove_dir_all(&bundle).unwrap();
        let _ = std::panic::catch_unwind(|| panic!("again"));
        assert!(!bundle.exists(), "bundle must be written at most once");
        guard.disarm();

        // A fresh guard disarmed before any panic stays silent.
        let ctx2 = CrashContext {
            dir: crash_dir.to_string_lossy().into_owned(),
            run: "clean".to_string(),
            ..CrashContext::default()
        };
        let guard2 = CrashGuard::install(ctx2);
        guard2.disarm();
        let _ = std::panic::catch_unwind(|| panic!("after disarm"));
        assert!(!crash_dir.join("clean").exists());
        let _ = fs::remove_dir_all(&root);
    }
}
