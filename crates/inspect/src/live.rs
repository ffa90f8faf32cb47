//! `statsym-inspect live`: the stream-fed dashboard.
//!
//! Listens on a TCP address (`host:port`) or a Unix socket (any address
//! containing `/`), accepts any number of concurrent run streams as
//! produced by a `StreamSink`, and renders the `watch` dashboard per
//! run — driven by the stream itself instead of file polling. Each
//! stream opens with a `hello` frame naming the run and closes with an
//! `end` frame (the authoritative done signal; no metrics-flush
//! heuristic needed).
//!
//! With `--record <dir>`, every trace line of a stream is teed verbatim
//! (frames stripped) into `<dir>/<run>.jsonl` — byte-identical to the
//! file a `FileRecorder` attached to the same run would have written.

use crate::tail::{Backoff, Screen};
use crate::watch::dashboard;
use crate::RunView;
use statsym_telemetry::{StreamFrame, TraceEvent, TRACE_VERSION};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};

/// Options for [`live`].
#[derive(Debug, Default)]
pub struct LiveOpts {
    /// Tee each stream's trace lines into `<dir>/<run>.jsonl`.
    pub record: Option<String>,
    /// Exit after this many streams have ended (headless / CI mode).
    pub runs: Option<u64>,
    /// Suppress the dashboard (record/exit-code only).
    pub quiet: bool,
    /// Base render interval in milliseconds.
    pub interval_ms: u64,
    /// Append plain frames with no ANSI escapes (CI logs, pipes).
    pub no_color: bool,
}

/// A message from a connection reader thread to the render loop.
enum Msg {
    Connected(usize),
    Line(usize, String),
    Closed(usize),
}

/// Everything known about one connected run stream.
struct RunState {
    /// Name from the hello frame (connection ordinal until it arrives).
    name: String,
    /// Parsed trace events (frames excluded).
    events: Vec<TraceEvent>,
    /// Drop count from the end frame, once seen.
    ended: Option<u64>,
    /// The connection hung up (with or without an end frame).
    closed: bool,
    /// Verbatim tee of the stream's trace lines.
    record: Option<std::io::BufWriter<std::fs::File>>,
}

impl RunState {
    fn new(ordinal: usize) -> RunState {
        RunState {
            name: format!("stream-{ordinal}"),
            events: Vec::new(),
            ended: None,
            closed: false,
            record: None,
        }
    }
}

/// Replaces everything outside `[A-Za-z0-9._-]` so a hostile run name
/// cannot escape the record directory.
fn sanitize(run: &str) -> String {
    let cleaned: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.trim_matches(['.', '_']).is_empty() {
        "run".to_string()
    } else {
        cleaned
    }
}

/// Picks `<dir>/<run>.jsonl`, suffixing `-2`, `-3`, … on collision with
/// a path already claimed this session.
fn record_path(dir: &Path, run: &str, taken: &mut Vec<PathBuf>) -> PathBuf {
    let base = sanitize(run);
    let mut candidate = dir.join(format!("{base}.jsonl"));
    let mut n = 1;
    while taken.contains(&candidate) {
        n += 1;
        candidate = dir.join(format!("{base}-{n}.jsonl"));
    }
    taken.push(candidate.clone());
    candidate
}

/// Spawns a reader thread that forwards each line of `conn` to `tx`.
fn spawn_reader(conn: Box<dyn Read + Send>, id: usize, tx: Sender<Msg>) {
    std::thread::spawn(move || {
        let _ = tx.send(Msg::Connected(id));
        let mut reader = BufReader::new(conn);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let trimmed = line.strip_suffix('\n').unwrap_or(&line);
                    if tx.send(Msg::Line(id, trimmed.to_string())).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = tx.send(Msg::Closed(id));
    });
}

/// Binds `addr` and forwards every accepted connection's lines to the
/// returned channel. The accept thread runs for the process lifetime.
fn listen(addr: &str) -> Result<Receiver<Msg>, String> {
    let (tx, rx) = std::sync::mpsc::channel::<Msg>();
    if addr.contains('/') {
        #[cfg(unix)]
        {
            // A stale socket file from a previous run would make bind
            // fail with AddrInUse; remove it first.
            let _ = std::fs::remove_file(addr);
            let listener = std::os::unix::net::UnixListener::bind(addr)
                .map_err(|e| format!("{addr}: cannot bind unix socket: {e}"))?;
            std::thread::spawn(move || {
                for (id, conn) in listener.incoming().enumerate() {
                    match conn {
                        Ok(c) => spawn_reader(Box::new(c), id, tx.clone()),
                        Err(_) => break,
                    }
                }
            });
            return Ok(rx);
        }
        #[cfg(not(unix))]
        return Err(format!("{addr}: unix sockets unsupported on this platform"));
    }
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("{addr}: cannot bind tcp listener: {e}"))?;
    std::thread::spawn(move || {
        for (id, conn) in listener.incoming().enumerate() {
            match conn {
                Ok(c) => spawn_reader(Box::new(c), id, tx.clone()),
                Err(_) => break,
            }
        }
    });
    Ok(rx)
}

/// Renders the combined multi-run dashboard text.
fn render(order: &[usize], runs: &HashMap<usize, RunState>) -> String {
    let ended = order.iter().filter(|id| runs[id].ended.is_some()).count();
    let mut out = format!(
        "statsym-inspect live — {} stream(s), {} ended\n\n",
        order.len(),
        ended
    );
    for id in order {
        let run = &runs[id];
        let status = match (run.ended, run.closed) {
            (Some(0), _) => " (ended)".to_string(),
            (Some(d), _) => format!(" (ended, {d} dropped)"),
            (None, true) => " (connection lost)".to_string(),
            (None, false) => String::new(),
        };
        out.push_str(&format!("== run {}{status} ==\n", run.name));
        out.push_str(&dashboard(&RunView::from_events(run.events.clone())).text);
        out.push('\n');
    }
    if order.is_empty() {
        out.push_str("waiting for streams...\n");
    }
    out
}

/// Runs the live dashboard. Returns the process exit code: 0 when every
/// observed stream ended with an explicit end frame, 1 when a stream
/// hung up without one, 2 on setup errors.
pub fn live(addr: &str, opts: &LiveOpts) -> i32 {
    let record_dir = match &opts.record {
        Some(dir) => {
            let p = PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&p) {
                eprintln!("error: {dir}: cannot create record dir: {e}");
                return 2;
            }
            Some(p)
        }
        None => None,
    };
    let rx = match listen(addr) {
        Ok(rx) => rx,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let mut runs: HashMap<usize, RunState> = HashMap::new();
    let mut order: Vec<usize> = Vec::new();
    let mut taken: Vec<PathBuf> = Vec::new();
    let mut screen = if opts.no_color {
        Screen::plain()
    } else {
        Screen::new()
    };
    let mut backoff = Backoff::new(opts.interval_ms);
    let mut ended_total = 0u64;
    let mut lost_total = 0u64;
    let mut dirty = true;

    loop {
        // Drain everything pending, then render at most once.
        let mut got = 0usize;
        loop {
            let msg = if got == 0 {
                match rx.recv_timeout(backoff.current()) {
                    Ok(m) => m,
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => return 2,
                }
            } else {
                match rx.try_recv() {
                    Ok(m) => m,
                    Err(_) => break,
                }
            };
            got += 1;
            match msg {
                Msg::Connected(id) => {
                    runs.insert(id, RunState::new(id));
                    order.push(id);
                }
                Msg::Line(id, line) => {
                    let Some(run) = runs.get_mut(&id) else {
                        continue;
                    };
                    match StreamFrame::parse(&line) {
                        Some(StreamFrame::Hello { version, run: name }) => {
                            if version != TRACE_VERSION {
                                eprintln!(
                                    "warning: {name}: stream version {version}, expected {TRACE_VERSION}"
                                );
                            }
                            run.name = name;
                            if let Some(dir) = &record_dir {
                                let path = record_path(dir, &run.name, &mut taken);
                                match std::fs::File::create(&path) {
                                    Ok(f) => run.record = Some(std::io::BufWriter::new(f)),
                                    Err(e) => {
                                        eprintln!(
                                            "error: {}: cannot record stream: {e}",
                                            path.display()
                                        );
                                        return 2;
                                    }
                                }
                            }
                        }
                        Some(StreamFrame::End { dropped }) => {
                            run.ended = Some(dropped);
                            ended_total += 1;
                            if let Some(mut w) = run.record.take() {
                                let _ = w.flush();
                            }
                        }
                        None => {
                            // A trace line: tee verbatim, then keep the event.
                            if let Some(w) = run.record.as_mut() {
                                let _ = w.write_all(line.as_bytes());
                                let _ = w.write_all(b"\n");
                            }
                            if let Ok(ev) = TraceEvent::parse_line(&line) {
                                run.events.push(ev);
                            }
                        }
                    }
                }
                Msg::Closed(id) => {
                    if let Some(run) = runs.get_mut(&id) {
                        run.closed = true;
                        if run.ended.is_none() {
                            lost_total += 1;
                        }
                        if let Some(mut w) = run.record.take() {
                            let _ = w.flush();
                        }
                    }
                }
            }
        }

        if got > 0 {
            backoff.active();
            dirty = true;
        } else {
            backoff.idle();
        }
        if dirty && !opts.quiet {
            screen.draw(&render(&order, &runs));
        }
        dirty = false;

        // Exit once the requested number of runs ended, or — without
        // --runs — once every observed stream has finished.
        let target_met = match opts.runs {
            Some(n) => ended_total + lost_total >= n,
            None => {
                !order.is_empty()
                    && order
                        .iter()
                        .all(|id| runs[id].ended.is_some() || runs[id].closed)
            }
        };
        if target_met {
            if !opts.quiet {
                screen.draw(&render(&order, &runs));
            }
            return i32::from(lost_total > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_names_are_sanitized_for_the_filesystem() {
        assert_eq!(sanitize("bench-01.trace"), "bench-01.trace");
        assert_eq!(sanitize("../../etc/passwd"), ".._.._etc_passwd");
        assert_eq!(sanitize(""), "run");
        assert_eq!(sanitize("..."), "run");
    }

    #[test]
    fn record_paths_get_collision_suffixes() {
        let dir = Path::new("/tmp/rec");
        let mut taken = Vec::new();
        assert_eq!(record_path(dir, "a", &mut taken), dir.join("a.jsonl"));
        assert_eq!(record_path(dir, "a", &mut taken), dir.join("a-2.jsonl"));
        assert_eq!(record_path(dir, "a", &mut taken), dir.join("a-3.jsonl"));
        assert_eq!(record_path(dir, "b", &mut taken), dir.join("b.jsonl"));
    }

    #[test]
    fn render_reports_waiting_then_per_run_sections() {
        let runs = HashMap::new();
        let text = render(&[], &runs);
        assert!(text.contains("waiting for streams"), "{text}");

        let mut runs = HashMap::new();
        let mut r = RunState::new(0);
        r.name = "demo".into();
        r.ended = Some(3);
        runs.insert(0usize, r);
        let text = render(&[0], &runs);
        assert!(text.contains("1 stream(s), 1 ended"), "{text}");
        assert!(text.contains("== run demo (ended, 3 dropped) =="), "{text}");
    }
}
