//! Run manifests: one compact, versioned record per pipeline/bench/
//! testkit run, appended to a content-addressed JSONL archive
//! (`results/history/history.jsonl` by convention) so cross-run
//! analytics (`statsym-inspect history|trend|regress`) can reason about
//! drift instead of single-baseline diffs.
//!
//! A manifest folds the run's final metrics — counters, gauges, the
//! winner rank and budget disposition — together with identity metadata
//! (workload, seed, git revision, config fingerprint) and a content
//! hash of the canonical trace. Telemetry bookkeeping metrics
//! ([`SCHEDULING_PREFIXES`]: `telemetry.*`) are excluded from both the
//! fold and the trace hash, so a manifest derived from a deterministic
//! (steps-clock) trace is **byte-identical from run to run** — the
//! property the byte-identity test in `tests/observability.rs` pins.
//!
//! Records are single canonical JSON lines (fixed key order, integers
//! only) with a `kind` discriminator and a `schema_version`, parsed by
//! a strict line-numbered parser that rejects unknown schema majors and
//! verifies the content address (`id` = FNV-1a of the record body).

use crate::event::{json, push_json_str, ParseError, TraceEvent};
use crate::report::TraceSummary;
use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Schema major version of manifest records this build writes and
/// accepts. Strict parsers reject any other major with a line-numbered
/// error (the version-skew contract shared with `report --format json`).
pub const MANIFEST_SCHEMA_VERSION: u64 = 1;

/// The stable top-level discriminator every manifest record carries.
pub const MANIFEST_KIND: &str = "statsym.manifest";

/// File name of the archive inside a history directory.
pub const HISTORY_FILE: &str = "history.jsonl";

/// Metric-name prefixes excluded from manifests: these are shaped by
/// telemetry bookkeeping, not by the workload, and would break the
/// byte-identity guarantee.
pub const SCHEDULING_PREFIXES: [&str; 1] = ["telemetry."];

/// FNV-1a 64-bit hash — the std-only content address used for manifest
/// ids, trace content hashes, and config fingerprints.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv64`] rendered as the fixed-width lowercase hex used on the wire.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Best-effort git revision of the working tree: `STATSYM_GIT_REV` if
/// set, else the commit `.git/HEAD` resolves to (truncated to 12 hex
/// chars), else `"unknown"`. Never errors — a manifest without a
/// revision is still a manifest.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("STATSYM_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => match std::fs::read_to_string(Path::new(".git").join(r.trim())) {
            Ok(h) => h.trim().to_string(),
            Err(_) => return "unknown".to_string(),
        },
        None => head.to_string(),
    };
    if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        hash[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// Caller-provided identity metadata for a manifest: everything the
/// trace itself cannot know.
#[derive(Debug, Clone, Default)]
pub struct ManifestMeta {
    /// What produced the run: `pipeline`, `bench`, `testkit`, …
    pub source: String,
    /// Workload/run name (the trace file stem by convention).
    pub run: String,
    /// Git revision (see [`git_rev`]).
    pub git: String,
    /// Workload seed.
    pub seed: u64,
    /// Config fingerprint (scheduling-canonicalized; see
    /// `statsym_core::pipeline::config_fingerprint`).
    pub config: String,
}

/// One run's manifest record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunManifest {
    /// What produced the run (`pipeline` / `bench` / `testkit`).
    pub source: String,
    /// Workload/run name.
    pub run: String,
    /// Git revision.
    pub git: String,
    /// Workload seed.
    pub seed: u64,
    /// Config fingerprint.
    pub config: String,
    /// Clock label of the source trace (`steps` / `wall_us`).
    pub clock: String,
    /// Final clock reading (largest event timestamp).
    pub ticks: u64,
    /// Winning candidate rank (1-based); `0` when no candidate won.
    pub winner_rank: u64,
    /// Budget disposition: `none` (no budget configured), `within`,
    /// `exceeded`, or `crashed` (crash-bundle manifests).
    pub budget: String,
    /// Content hash of the scheduling-independent canonical trace lines.
    pub trace: String,
    /// Folded counters, scheduling-shaped prefixes excluded.
    pub counters: BTreeMap<String, u64>,
    /// Folded gauges, scheduling-shaped prefixes excluded.
    pub gauges: BTreeMap<String, i64>,
}

/// Whether a metric name is scheduling-shaped and thus excluded from
/// manifests (and from the manifest's trace content hash).
pub fn is_scheduling_metric(name: &str) -> bool {
    SCHEDULING_PREFIXES.iter().any(|p| name.starts_with(p))
}

impl RunManifest {
    /// Builds a manifest from parsed trace events plus caller metadata.
    /// Counters/gauges fold from the trace's final metric events with
    /// [`SCHEDULING_PREFIXES`] excluded; the winner rank comes from the
    /// `calib.winner_rank` gauge; the budget disposition from the
    /// `budget.*` metric family; the trace hash from the canonical
    /// renders of every scheduling-independent line.
    pub fn from_events(events: &[TraceEvent], meta: &ManifestMeta) -> RunManifest {
        let summary = TraceSummary::from_events(events);
        let mut counters = BTreeMap::new();
        for (name, v) in &summary.counters {
            if !is_scheduling_metric(name) {
                counters.insert(name.clone(), *v);
            }
        }
        let mut gauges = BTreeMap::new();
        for (name, v) in &summary.gauges {
            if !is_scheduling_metric(name) {
                gauges.insert(name.clone(), *v);
            }
        }
        let winner_rank = gauges
            .get(crate::names::CALIB_WINNER_RANK)
            .copied()
            .and_then(|v| u64::try_from(v).ok())
            .unwrap_or(0);
        let budget = if counters.get(crate::names::BUDGET_EXCEEDED).copied() > Some(0) {
            "exceeded"
        } else if counters
            .keys()
            .chain(gauges.keys())
            .any(|k| k.starts_with("budget."))
        {
            "within"
        } else {
            "none"
        };
        let mut ticks = 0u64;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for ev in events {
            ticks = ticks.max(event_ts(ev));
            if let TraceEvent::Counter { name, .. }
            | TraceEvent::Gauge { name, .. }
            | TraceEvent::Hist { name, .. } = ev
            {
                if is_scheduling_metric(name) {
                    continue;
                }
            }
            for &b in ev.to_json_line().as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= u64::from(b'\n');
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RunManifest {
            source: meta.source.clone(),
            run: meta.run.clone(),
            git: meta.git.clone(),
            seed: meta.seed,
            config: meta.config.clone(),
            clock: summary.clock.clone(),
            ticks,
            winner_rank,
            budget: budget.to_string(),
            trace: format!("{h:016x}"),
            counters,
            gauges,
        }
    }

    /// Builds a manifest from a canonical JSONL trace (strict parse).
    ///
    /// # Errors
    ///
    /// Returns the strict parser's line-numbered error for a malformed
    /// trace.
    pub fn from_trace(text: &str, meta: &ManifestMeta) -> Result<RunManifest, ParseError> {
        Ok(RunManifest::from_events(
            &crate::parse_trace_strict(text)?,
            meta,
        ))
    }

    /// Builds a manifest from a possibly-truncated trace (crash
    /// bundles): the budget disposition is forced to `crashed`.
    ///
    /// # Errors
    ///
    /// Returns the truncated parser's line-numbered error when even the
    /// tolerant parse fails.
    pub fn from_trace_truncated(
        text: &str,
        meta: &ManifestMeta,
    ) -> Result<RunManifest, ParseError> {
        let (events, _truncated) = crate::parse_trace_truncated(text)?;
        let mut m = RunManifest::from_events(&events, meta);
        m.budget = "crashed".to_string();
        Ok(m)
    }

    /// The record's content address: the FNV-1a hash of the rendered
    /// body with an empty `id` field.
    pub fn id(&self) -> String {
        fnv64_hex(self.render_with_id("").as_bytes())
    }

    /// Renders the canonical single-line record, content address
    /// included. Byte-stable: fixed key order, integers only, no
    /// whitespace.
    pub fn render(&self) -> String {
        self.render_with_id(&self.id())
    }

    fn render_with_id(&self, id: &str) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"kind\":");
        push_json_str(&mut s, MANIFEST_KIND);
        s.push_str(&format!(
            ",\"schema_version\":{MANIFEST_SCHEMA_VERSION},\"id\":"
        ));
        push_json_str(&mut s, id);
        s.push_str(",\"source\":");
        push_json_str(&mut s, &self.source);
        s.push_str(",\"run\":");
        push_json_str(&mut s, &self.run);
        s.push_str(",\"git\":");
        push_json_str(&mut s, &self.git);
        s.push_str(&format!(",\"seed\":{},\"config\":", self.seed));
        push_json_str(&mut s, &self.config);
        s.push_str(",\"clock\":");
        push_json_str(&mut s, &self.clock);
        s.push_str(&format!(
            ",\"ticks\":{},\"winner_rank\":{},\"budget\":",
            self.ticks, self.winner_rank
        ));
        push_json_str(&mut s, &self.budget);
        s.push_str(",\"trace\":");
        push_json_str(&mut s, &self.trace);
        s.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, name);
            s.push_str(&format!(":{v}"));
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, name);
            s.push_str(&format!(":{v}"));
        }
        s.push_str("}}");
        s
    }

    /// Parses one manifest record, verifying the schema major and the
    /// content address. `line_no` is the 1-based archive line for error
    /// reporting.
    ///
    /// # Errors
    ///
    /// Returns a line-numbered [`ParseError`] for malformed JSON, a
    /// wrong `kind`, an unsupported `schema_version` major, missing or
    /// mistyped fields, or a content-address mismatch.
    pub fn parse_line(line: &str, line_no: usize) -> Result<RunManifest, ParseError> {
        let fail = |reason: String| ParseError {
            line: line_no,
            reason,
        };
        let v = json::parse(line).map_err(|e| fail(format!("malformed manifest JSON: {e}")))?;
        let obj = v
            .as_object()
            .ok_or_else(|| fail("manifest record is not a JSON object".to_string()))?;
        let field = |key: &str| -> Result<&json::Value, ParseError> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| fail(format!("manifest record missing `{key}`")))
        };
        let str_field = |key: &str| -> Result<String, ParseError> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| fail(format!("manifest `{key}` is not a string")))
        };
        let u64_field = |key: &str| -> Result<u64, ParseError> {
            field(key)?
                .as_u64()
                .ok_or_else(|| fail(format!("manifest `{key}` is not a non-negative integer")))
        };
        let kind = str_field("kind")?;
        if kind != MANIFEST_KIND {
            return Err(fail(format!(
                "unknown record kind `{kind}` (expected `{MANIFEST_KIND}`)"
            )));
        }
        let schema = u64_field("schema_version")?;
        if schema != MANIFEST_SCHEMA_VERSION {
            return Err(fail(format!(
                "unsupported manifest schema_version {schema} \
                 (this build supports {MANIFEST_SCHEMA_VERSION})"
            )));
        }
        let id = str_field("id")?;
        let budget = str_field("budget")?;
        if !matches!(budget.as_str(), "none" | "within" | "exceeded" | "crashed") {
            return Err(fail(format!("unknown budget disposition `{budget}`")));
        }
        let mut counters = BTreeMap::new();
        for (name, v) in field("counters")?
            .as_object()
            .ok_or_else(|| fail("manifest `counters` is not an object".to_string()))?
        {
            let v = v
                .as_u64()
                .ok_or_else(|| fail(format!("counter `{name}` is not a non-negative integer")))?;
            counters.insert(name.clone(), v);
        }
        let mut gauges = BTreeMap::new();
        for (name, v) in field("gauges")?
            .as_object()
            .ok_or_else(|| fail("manifest `gauges` is not an object".to_string()))?
        {
            let v = v
                .as_i64()
                .ok_or_else(|| fail(format!("gauge `{name}` is not an integer")))?;
            gauges.insert(name.clone(), v);
        }
        let m = RunManifest {
            source: str_field("source")?,
            run: str_field("run")?,
            git: str_field("git")?,
            seed: u64_field("seed")?,
            config: str_field("config")?,
            clock: str_field("clock")?,
            ticks: u64_field("ticks")?,
            winner_rank: u64_field("winner_rank")?,
            budget,
            trace: str_field("trace")?,
            counters,
            gauges,
        };
        let actual = m.id();
        if actual != id {
            return Err(fail(format!(
                "content-address mismatch: record claims id {id}, body hashes to {actual}"
            )));
        }
        Ok(m)
    }
}

/// The largest timestamp an event carries (0 for unstamped final-value
/// metric events).
fn event_ts(ev: &TraceEvent) -> u64 {
    match ev {
        TraceEvent::SpanOpen { t, .. }
        | TraceEvent::SpanClose { t, .. }
        | TraceEvent::Event { t, .. }
        | TraceEvent::State { t, .. }
        | TraceEvent::Query { t, .. } => *t,
        TraceEvent::Meta { .. }
        | TraceEvent::Counter { .. }
        | TraceEvent::Gauge { .. }
        | TraceEvent::Hist { .. } => 0,
    }
}

/// Resolves a history argument to the archive file: a path ending in
/// `.jsonl` is used as-is, anything else is treated as a directory
/// containing [`HISTORY_FILE`].
pub fn history_path(dir_or_file: &str) -> PathBuf {
    let p = Path::new(dir_or_file);
    if p.extension().is_some_and(|e| e == "jsonl") {
        p.to_path_buf()
    } else {
        p.join(HISTORY_FILE)
    }
}

/// Appends one manifest record to the archive, creating parent
/// directories as needed, and returns the record's content address.
///
/// # Errors
///
/// Returns the underlying I/O error when the archive cannot be written.
pub fn append_manifest(dir_or_file: &str, m: &RunManifest) -> io::Result<String> {
    let path = history_path(dir_or_file);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let line = m.render();
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(m.id())
}

/// Loads every record of an archive in append order, strictly: any
/// malformed, version-skewed, or hash-mismatched line fails the whole
/// load with its line number.
///
/// # Errors
///
/// Returns a [`ParseError`] with the offending 1-based line (line 0 for
/// an unreadable file).
pub fn load_history(dir_or_file: &str) -> Result<Vec<RunManifest>, ParseError> {
    let path = history_path(dir_or_file);
    let text = std::fs::read_to_string(&path).map_err(|e| ParseError {
        line: 0,
        reason: format!("cannot read {}: {e}", path.display()),
    })?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(RunManifest::parse_line(line, i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{names, Clock, MemRecorder, Recorder};

    fn sample_meta() -> ManifestMeta {
        ManifestMeta {
            source: "bench".to_string(),
            run: "grep".to_string(),
            git: "abc123def456".to_string(),
            seed: 42,
            config: "00ff00ff00ff00ff".to_string(),
        }
    }

    fn sample_events() -> Vec<TraceEvent> {
        let rec = MemRecorder::new(Clock::steps());
        let sp = rec.span_open("pipeline.symex");
        rec.tick(10);
        rec.counter_add(names::SYMEX_STEPS, 91);
        rec.counter_add("telemetry.recorder.events", 3);
        rec.gauge_max(names::CALIB_WINNER_RANK, 3);
        rec.gauge_max(names::SYMEX_PEAK_LIVE_STATES, 7);
        rec.span_close(sp);
        rec.finish()
    }

    #[test]
    fn manifest_folds_and_excludes_scheduling_metrics() {
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        assert_eq!(m.counters.get("symex.steps"), Some(&91));
        assert!(!m.counters.contains_key("telemetry.recorder.events"));
        assert_eq!(m.winner_rank, 3);
        assert_eq!(m.budget, "none");
        assert_eq!(m.clock, "steps");
        assert_eq!(m.ticks, 10);
    }

    #[test]
    fn scheduling_metrics_do_not_perturb_the_trace_hash() {
        let with = RunManifest::from_events(&sample_events(), &sample_meta());
        let without: Vec<TraceEvent> = sample_events()
            .into_iter()
            .filter(
                |ev| !matches!(ev, TraceEvent::Counter { name, .. } if is_scheduling_metric(name)),
            )
            .collect();
        let stripped = RunManifest::from_events(&without, &sample_meta());
        assert_eq!(with.trace, stripped.trace);
        assert_eq!(with.render(), stripped.render());
    }

    #[test]
    fn render_parse_roundtrip_preserves_everything() {
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        let line = m.render();
        assert!(line.starts_with("{\"kind\":\"statsym.manifest\",\"schema_version\":1,\"id\":\""));
        let back = RunManifest::parse_line(&line, 1).expect("roundtrip");
        assert_eq!(back, m);
        assert_eq!(back.render(), line);
    }

    #[test]
    fn parser_rejects_unknown_schema_major_with_line_number() {
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        let skewed = m
            .render()
            .replace("\"schema_version\":1", "\"schema_version\":2");
        let err = RunManifest::parse_line(&skewed, 7).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(
            err.reason.contains("unsupported manifest schema_version 2"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn parser_rejects_tampered_content() {
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        let tampered = m
            .render()
            .replace("\"symex.steps\":91", "\"symex.steps\":92");
        let err = RunManifest::parse_line(&tampered, 3).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(
            err.reason.contains("content-address mismatch"),
            "{}",
            err.reason
        );
    }

    #[test]
    fn parser_rejects_wrong_kind_and_bad_budget() {
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        let wrong = m.render().replace("statsym.manifest", "statsym.other");
        assert!(RunManifest::parse_line(&wrong, 1)
            .unwrap_err()
            .reason
            .contains("unknown record kind"));
        let bad = m
            .render()
            .replace("\"budget\":\"none\"", "\"budget\":\"maybe\"");
        assert!(RunManifest::parse_line(&bad, 1)
            .unwrap_err()
            .reason
            .contains("unknown budget disposition"));
    }

    #[test]
    fn budget_disposition_follows_the_metric_family() {
        let rec = MemRecorder::new(Clock::steps());
        rec.counter_add(names::BUDGET_EXCEEDED, 1);
        let m = RunManifest::from_events(&rec.finish(), &sample_meta());
        assert_eq!(m.budget, "exceeded");

        let rec = MemRecorder::new(Clock::steps());
        rec.gauge_max("budget.steps_remaining", 50);
        let m = RunManifest::from_events(&rec.finish(), &sample_meta());
        assert_eq!(m.budget, "within");
    }

    #[test]
    fn archive_append_and_load_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("statsym-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        let id = append_manifest(&dir_s, &m).expect("append");
        let id2 = append_manifest(&dir_s, &m).expect("append again");
        assert_eq!(id, id2, "identical content has identical address");
        let loaded = load_history(&dir_s).expect("load");
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0], m);
        assert_eq!(loaded[1], m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_history_reports_the_offending_line() {
        let dir =
            std::env::temp_dir().join(format!("statsym-manifest-badline-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().unwrap().to_string();
        let m = RunManifest::from_events(&sample_events(), &sample_meta());
        append_manifest(&dir_s, &m).unwrap();
        let path = history_path(&dir_s);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"kind\":\"statsym.manifest\",\"schema_version\":9}\n");
        std::fs::write(&path, text).unwrap();
        let err = load_history(&dir_s).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("schema_version 9"), "{}", err.reason);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_trace_truncated_marks_crashed() {
        let rec = MemRecorder::new(Clock::steps());
        let _sp = rec.span_open("engine.run");
        rec.counter_add(names::SYMEX_STEPS, 5);
        let mut text = String::new();
        for ev in rec.finish() {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        // Simulate a mid-line crash cut.
        text.push_str("{\"k\":\"ev");
        let m = RunManifest::from_trace_truncated(&text, &sample_meta()).expect("tolerant parse");
        assert_eq!(m.budget, "crashed");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64_hex(b"a"), format!("{:016x}", fnv64(b"a")));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
