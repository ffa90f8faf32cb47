//! The trace event model and its JSONL wire format.
//!
//! A trace is a sequence of self-describing lines, one JSON object per
//! line, written in a *canonical* form: fixed key order, no whitespace,
//! integers only (no floats — they cannot round-trip bytewise). The
//! emitter and parser are exact inverses on canonical input, which the
//! round-trip tests pin down byte for byte.

use std::fmt;

/// Identifier of an open span. `SpanId(0)` is the reserved "no span"
/// value used for root parents and by the no-op recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The reserved null span.
    pub const NONE: SpanId = SpanId(0);
}

/// A structured field value attached to an event.
///
/// Deliberately float-free: every value is an integer or a string, so
/// canonical re-emission is byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// A signed integer (negative values).
    Int(i64),
    /// An unsigned integer (all non-negative values parse as this).
    Uint(u64),
    /// A string.
    Str(String),
}

impl FieldValue {
    /// The value as `u64`, if non-negative.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::Uint(v) => Some(*v),
            FieldValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if numeric.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            FieldValue::Int(v) => Some(*v),
            FieldValue::Uint(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if textual.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::Uint(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> FieldValue {
        if v >= 0 {
            FieldValue::Uint(v as u64)
        } else {
            FieldValue::Int(v)
        }
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::Uint(v as u64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> FieldValue {
        FieldValue::Str(if v { "true" } else { "false" }.to_string())
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Str(v)
    }
}

/// One line of a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Trace header: clock label (`wall_us` / `steps`) and format version.
    Meta {
        /// Clock label.
        clock: String,
        /// Format version (currently 1).
        version: u64,
    },
    /// A span opened at tick `t`.
    SpanOpen {
        /// Open tick.
        t: u64,
        /// Span id (unique, increasing within a trace).
        id: u64,
        /// Enclosing span id (0 = root).
        parent: u64,
        /// Span name (e.g. `phase.transition_mining`).
        name: String,
    },
    /// A span closed at tick `t`.
    SpanClose {
        /// Close tick.
        t: u64,
        /// The id from the matching [`TraceEvent::SpanOpen`].
        id: u64,
    },
    /// A point event with structured fields.
    Event {
        /// Emission tick.
        t: u64,
        /// Event name (e.g. `candidate.result`).
        name: String,
        /// Fields in emission order.
        fields: Vec<(String, FieldValue)>,
    },
    /// Final value of a monotone counter.
    Counter {
        /// Counter name.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// Final value of a gauge (recorded maxima, e.g. peak memory).
    Gauge {
        /// Gauge name.
        name: String,
        /// Final value.
        value: i64,
    },
    /// Final state of a log-scale histogram.
    Hist {
        /// Histogram name.
        name: String,
        /// Number of observations.
        count: u64,
        /// Sum of observed values.
        sum: u64,
        /// Sparse `(bucket, count)` pairs; bucket `b > 0` covers values
        /// in `[2^(b-1), 2^b - 1]`, bucket 0 holds zeros.
        buckets: Vec<(u32, u64)>,
    },
    /// One state-lineage transition in the exploration tree: a state is
    /// born (`root`/`fork`), changes disposition (`suspend.*`, `resume`,
    /// `kill`), or terminates (`exit`, `fault`, `unconfirmed`). The
    /// `steps`/`snodes`/`sus` fields are *deltas* attributed to the
    /// executing state since the previous lineage event.
    State {
        /// Emission tick.
        t: u64,
        /// Operation, one of [`lineage_op::ALL`].
        op: String,
        /// Trace-global state id (unique and increasing; never 0).
        id: u64,
        /// Parent state id (0 only for `root` states).
        par: u64,
        /// SIR location (`function:bN`) where the transition happened.
        loc: String,
        /// Hop count (divergence from the candidate path) at emission.
        hops: u64,
        /// Path depth (branch decisions taken) at emission.
        depth: u64,
        /// Executor steps attributed since the last lineage event.
        steps: u64,
        /// Solver search-tree nodes attributed since the last lineage
        /// event.
        snodes: u64,
        /// Solver µs attributed since the last lineage event (0 under
        /// the deterministic step clock).
        sus: u64,
    },
    /// Provenance of one solver query: which state asked, from which
    /// source location, under which candidate rank, and how the layered
    /// caches disposed of it. Emitted by the solver dispatch layer when
    /// provenance recording is enabled.
    ///
    /// `sid` is engine-local (unlike lineage state ids): it identifies
    /// the asking state within its enclosing attempt, not across the
    /// whole trace.
    Query {
        /// Emission tick.
        t: u64,
        /// Engine-local id of the state that issued the query.
        sid: u64,
        /// Source location (`function:line`) of the instruction that
        /// triggered the query.
        loc: String,
        /// Candidate rank of the enclosing attempt.
        rank: u64,
        /// Solver callsite (`feasibility`, `fault_model`, …).
        site: String,
        /// Verdict, one of [`query_disposition::VERDICTS`].
        verdict: String,
        /// Cache disposition, one of [`query_disposition::ALL`].
        cache: String,
        /// Solver search-tree nodes this query visited.
        nodes: u64,
        /// Wall µs this query took (0 under the deterministic step
        /// clock).
        us: u64,
    },
}

/// The operation vocabulary of [`TraceEvent::State`], kept in one place
/// so emitters, the strict parser, and `statsym-inspect` cannot drift.
pub mod lineage_op {
    /// Initial state of one engine run (its `par` is always 0).
    pub const ROOT: &str = "root";
    /// A fresh child forked off an executing parent.
    pub const FORK: &str = "fork";
    /// Suspension: the τ hop budget ran out (PAPER.md §IV).
    pub const SUSPEND_TAU: &str = "suspend.tau";
    /// Suspension: an injected candidate predicate conflicted with the
    /// hard path constraints.
    pub const SUSPEND_PREDICATE: &str = "suspend.predicate";
    /// A fork child born suspended by guidance classification.
    pub const SUSPEND_BRANCH: &str = "suspend.branch";
    /// A suspended state re-entered the schedulable pool (guidance off).
    pub const RESUME: &str = "resume";
    /// The state was killed outright (infeasible on hard constraints).
    pub const KILL: &str = "kill";
    /// Terminal: the path ran to normal completion.
    pub const EXIT: &str = "exit";
    /// Terminal: a confirmed fault (vulnerable path found).
    pub const FAULT: &str = "fault";
    /// Terminal: a fault the solver budget could not confirm a model
    /// for.
    pub const UNCONFIRMED: &str = "unconfirmed";
    /// Terminal: the run's resource budget tripped while this state was
    /// executing; exploration stopped here.
    pub const BUDGET_EXCEEDED: &str = "budget_exceeded";

    /// Every known op, in taxonomy order.
    pub const ALL: &[&str] = &[
        ROOT,
        FORK,
        SUSPEND_TAU,
        SUSPEND_PREDICATE,
        SUSPEND_BRANCH,
        RESUME,
        KILL,
        EXIT,
        FAULT,
        UNCONFIRMED,
        BUDGET_EXCEEDED,
    ];

    /// Whether `op` introduces a new state id (`root`/`fork`).
    pub fn introduces(op: &str) -> bool {
        op == ROOT || op == FORK
    }

    /// Whether `op` is part of the vocabulary.
    pub fn is_known(op: &str) -> bool {
        ALL.contains(&op)
    }
}

/// The cache-disposition and verdict vocabulary of
/// [`TraceEvent::Query`], kept in one place so the solver emitter, the
/// strict parser, and `statsym-inspect explain` cannot drift.
pub mod query_disposition {
    /// Trivially satisfiable: the constraint set was empty.
    pub const EMPTY: &str = "empty";
    /// Answered by the solver's private per-engine query cache.
    pub const PRIVATE: &str = "private";
    /// Answered by the run's verdict memo (shared by every attempt).
    pub const SHARED: &str = "shared";
    /// Solved by independence slicing into ≥ 2 components.
    pub const SLICED: &str = "sliced";
    /// Solved by a full constraint-graph search (every cache missed).
    pub const SEARCH: &str = "search";

    /// Every known disposition, cheapest first.
    pub const ALL: &[&str] = &[EMPTY, PRIVATE, SHARED, SLICED, SEARCH];

    /// Every known verdict.
    pub const VERDICTS: &[&str] = &["sat", "unsat", "unknown"];

    /// Whether `cache` is a known disposition.
    pub fn is_known(cache: &str) -> bool {
        ALL.contains(&cache)
    }

    /// Whether `verdict` is a known verdict.
    pub fn is_verdict(verdict: &str) -> bool {
        VERDICTS.contains(&verdict)
    }
}

/// A trace parsing failure: the offending line (1-based) and reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the parsed text.
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl std::error::Error for ParseError {}

/// Appends `s` to `out` as a JSON string literal, escaping quotes,
/// backslashes, and control characters. Shared by every canonical JSON
/// renderer in the workspace so escaping cannot drift.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::Int(i) => out.push_str(&i.to_string()),
        FieldValue::Uint(u) => out.push_str(&u.to_string()),
        FieldValue::Str(s) => push_json_str(out, s),
    }
}

impl TraceEvent {
    /// Renders the canonical single-line JSON form (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64);
        match self {
            TraceEvent::Meta { clock, version } => {
                s.push_str("{\"k\":\"meta\",\"clock\":");
                push_json_str(&mut s, clock);
                s.push_str(&format!(",\"version\":{version}}}"));
            }
            TraceEvent::SpanOpen {
                t,
                id,
                parent,
                name,
            } => {
                s.push_str(&format!(
                    "{{\"k\":\"span_open\",\"t\":{t},\"id\":{id},\"parent\":{parent},\"name\":"
                ));
                push_json_str(&mut s, name);
                s.push('}');
            }
            TraceEvent::SpanClose { t, id } => {
                s.push_str(&format!("{{\"k\":\"span_close\",\"t\":{t},\"id\":{id}}}"));
            }
            TraceEvent::Event { t, name, fields } => {
                s.push_str(&format!("{{\"k\":\"event\",\"t\":{t},\"name\":"));
                push_json_str(&mut s, name);
                s.push_str(",\"fields\":{");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    push_json_str(&mut s, k);
                    s.push(':');
                    push_field_value(&mut s, v);
                }
                s.push_str("}}");
            }
            TraceEvent::Counter { name, value } => {
                s.push_str("{\"k\":\"counter\",\"name\":");
                push_json_str(&mut s, name);
                s.push_str(&format!(",\"value\":{value}}}"));
            }
            TraceEvent::Gauge { name, value } => {
                s.push_str("{\"k\":\"gauge\",\"name\":");
                push_json_str(&mut s, name);
                s.push_str(&format!(",\"value\":{value}}}"));
            }
            TraceEvent::Hist {
                name,
                count,
                sum,
                buckets,
            } => {
                s.push_str("{\"k\":\"hist\",\"name\":");
                push_json_str(&mut s, name);
                s.push_str(&format!(",\"count\":{count},\"sum\":{sum},\"buckets\":["));
                for (i, (b, n)) in buckets.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("[{b},{n}]"));
                }
                s.push_str("]}");
            }
            TraceEvent::State {
                t,
                op,
                id,
                par,
                loc,
                hops,
                depth,
                steps,
                snodes,
                sus,
            } => {
                s.push_str(&format!("{{\"k\":\"state\",\"t\":{t},\"op\":"));
                push_json_str(&mut s, op);
                s.push_str(&format!(",\"id\":{id},\"par\":{par},\"loc\":"));
                push_json_str(&mut s, loc);
                s.push_str(&format!(
                    ",\"hops\":{hops},\"depth\":{depth},\"steps\":{steps},\
                     \"snodes\":{snodes},\"sus\":{sus}}}"
                ));
            }
            TraceEvent::Query {
                t,
                sid,
                loc,
                rank,
                site,
                verdict,
                cache,
                nodes,
                us,
            } => {
                s.push_str(&format!(
                    "{{\"k\":\"query\",\"t\":{t},\"sid\":{sid},\"loc\":"
                ));
                push_json_str(&mut s, loc);
                s.push_str(&format!(",\"rank\":{rank},\"site\":"));
                push_json_str(&mut s, site);
                s.push_str(",\"verdict\":");
                push_json_str(&mut s, verdict);
                s.push_str(",\"cache\":");
                push_json_str(&mut s, cache);
                s.push_str(&format!(",\"nodes\":{nodes},\"us\":{us}}}"));
            }
        }
        s
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] (with `line` set to 0; [`parse_trace`]
    /// fills in the real line number) on malformed JSON or an unknown
    /// `k` discriminator.
    pub fn parse_line(line: &str) -> Result<TraceEvent, ParseError> {
        let err = |reason: &str| ParseError {
            line: 0,
            reason: reason.to_string(),
        };
        let json = json::parse(line).map_err(|e| err(&e))?;
        let obj = json.as_object().ok_or_else(|| err("expected an object"))?;
        let get = |key: &str| -> Result<&json::Value, ParseError> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| err(&format!("missing key `{key}`")))
        };
        let get_u64 = |key: &str| -> Result<u64, ParseError> {
            get(key)?
                .as_u64()
                .ok_or_else(|| err(&format!("`{key}` must be a non-negative integer")))
        };
        let get_i64 = |key: &str| -> Result<i64, ParseError> {
            get(key)?
                .as_i64()
                .ok_or_else(|| err(&format!("`{key}` must be an integer")))
        };
        let get_str = |key: &str| -> Result<String, ParseError> {
            get(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| err(&format!("`{key}` must be a string")))
        };
        let kind = get_str("k")?;
        match kind.as_str() {
            "meta" => Ok(TraceEvent::Meta {
                clock: get_str("clock")?,
                version: get_u64("version")?,
            }),
            "span_open" => Ok(TraceEvent::SpanOpen {
                t: get_u64("t")?,
                id: get_u64("id")?,
                parent: get_u64("parent")?,
                name: get_str("name")?,
            }),
            "span_close" => Ok(TraceEvent::SpanClose {
                t: get_u64("t")?,
                id: get_u64("id")?,
            }),
            "event" => {
                let fields_val = get("fields")?;
                let fields_obj = fields_val
                    .as_object()
                    .ok_or_else(|| err("`fields` must be an object"))?;
                let mut fields = Vec::with_capacity(fields_obj.len());
                for (k, v) in fields_obj {
                    let fv = match v {
                        json::Value::Uint(u) => FieldValue::Uint(*u),
                        json::Value::Int(i) => FieldValue::Int(*i),
                        json::Value::Str(s) => FieldValue::Str(s.clone()),
                        _ => return Err(err("field values must be integers or strings")),
                    };
                    fields.push((k.clone(), fv));
                }
                Ok(TraceEvent::Event {
                    t: get_u64("t")?,
                    name: get_str("name")?,
                    fields,
                })
            }
            "counter" => Ok(TraceEvent::Counter {
                name: get_str("name")?,
                value: get_u64("value")?,
            }),
            "gauge" => Ok(TraceEvent::Gauge {
                name: get_str("name")?,
                value: get_i64("value")?,
            }),
            "hist" => {
                let arr = get("buckets")?
                    .as_array()
                    .ok_or_else(|| err("`buckets` must be an array"))?;
                let mut buckets = Vec::with_capacity(arr.len());
                for pair in arr {
                    let pair = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| err("each bucket must be a [bucket, count] pair"))?;
                    let b = pair[0]
                        .as_u64()
                        .and_then(|b| u32::try_from(b).ok())
                        .ok_or_else(|| err("bucket index must fit u32"))?;
                    let n = pair[1]
                        .as_u64()
                        .ok_or_else(|| err("bucket count must be u64"))?;
                    buckets.push((b, n));
                }
                Ok(TraceEvent::Hist {
                    name: get_str("name")?,
                    count: get_u64("count")?,
                    sum: get_u64("sum")?,
                    buckets,
                })
            }
            "state" => Ok(TraceEvent::State {
                t: get_u64("t")?,
                op: get_str("op")?,
                id: get_u64("id")?,
                par: get_u64("par")?,
                loc: get_str("loc")?,
                hops: get_u64("hops")?,
                depth: get_u64("depth")?,
                steps: get_u64("steps")?,
                snodes: get_u64("snodes")?,
                sus: get_u64("sus")?,
            }),
            "query" => Ok(TraceEvent::Query {
                t: get_u64("t")?,
                sid: get_u64("sid")?,
                loc: get_str("loc")?,
                rank: get_u64("rank")?,
                site: get_str("site")?,
                verdict: get_str("verdict")?,
                cache: get_str("cache")?,
                nodes: get_u64("nodes")?,
                us: get_u64("us")?,
            }),
            other => Err(err(&format!("unknown event kind `{other}`"))),
        }
    }
}

/// Parses a whole JSONL trace (empty lines are skipped).
///
/// # Errors
///
/// Returns the first [`ParseError`] with its 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match TraceEvent::parse_line(line) {
            Ok(ev) => out.push(ev),
            Err(mut e) => {
                e.line = i + 1;
                return Err(e);
            }
        }
    }
    Ok(out)
}

/// Parses a whole JSONL trace and validates span structure: every
/// `span_open` id must be fresh (no duplicates) and every `span_close`
/// must match an open, still-unclosed span. Spans left open at end of
/// trace are an error too (reported at their open line). State-lineage
/// events are validated as well: ops must be known, state ids must be
/// introduced (`root`/`fork`) before any later transition references
/// them, roots have parent 0, and forks name an already-introduced
/// parent — so every lineage event's `par` precedes it and the events
/// form a forest of per-run trees. Solver-query provenance events are
/// validated against the [`query_disposition`] vocabulary (known
/// verdict, known cache disposition, non-empty site). Use this for
/// untrusted input —
/// `statsym-inspect` runs it on every file — where a skewed span tree
/// would otherwise produce a silently wrong `TraceSummary`.
///
/// # Errors
///
/// Returns the first structural [`ParseError`] with its 1-based line
/// number.
pub fn parse_trace_strict(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    parse_strict_inner(text, false).map(|(events, _)| events)
}

/// [`parse_trace_strict`] for traces still being written (or cut short
/// by a crash): tolerates *exactly one* trailing partial line — dropped,
/// reported via the returned flag — and spans/states left open at end
/// of text. Interior corruption (a malformed line that is not the last,
/// duplicate ids, closes of never-opened spans, lineage orphans) is
/// still rejected.
///
/// # Errors
///
/// Returns the first interior structural [`ParseError`] with its
/// 1-based line number.
pub fn parse_trace_truncated(text: &str) -> Result<(Vec<TraceEvent>, bool), ParseError> {
    parse_strict_inner(text, true)
}

fn parse_strict_inner(
    text: &str,
    allow_truncated: bool,
) -> Result<(Vec<TraceEvent>, bool), ParseError> {
    let mut out = Vec::new();
    // span id -> (open line, still open?)
    let mut spans: std::collections::HashMap<u64, (usize, bool)> = std::collections::HashMap::new();
    // state id -> intro line (root/fork that created it)
    let mut states: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let fail = |line: usize, reason: String| Err(ParseError { line, reason });
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut truncated = false;
    for (pos, &(i, line)) in lines.iter().enumerate() {
        let lineno = i + 1;
        let ev = match TraceEvent::parse_line(line) {
            Ok(ev) => ev,
            Err(mut e) => {
                if allow_truncated && pos == lines.len() - 1 {
                    // A crash mid-write leaves at most one partial line,
                    // and only at the very end.
                    truncated = true;
                    break;
                }
                e.line = lineno;
                return Err(e);
            }
        };
        match &ev {
            TraceEvent::Meta { version, .. } if *version != crate::recorder::TRACE_VERSION => {
                return fail(
                    lineno,
                    format!(
                        "unsupported trace version {version} (this build supports {})",
                        crate::recorder::TRACE_VERSION
                    ),
                );
            }
            TraceEvent::Meta { .. } => {}
            TraceEvent::SpanOpen { id, .. } => {
                if *id == 0 {
                    return fail(lineno, "span_open with reserved id 0".to_string());
                }
                if let Some((first, _)) = spans.get(id) {
                    return fail(
                        lineno,
                        format!("duplicate span id {id} (first opened at line {first})"),
                    );
                }
                spans.insert(*id, (lineno, true));
            }
            TraceEvent::SpanClose { id, .. } => match spans.get_mut(id) {
                None => {
                    return fail(lineno, format!("span_close for never-opened span id {id}"));
                }
                Some((open_line, open)) => {
                    if !*open {
                        return fail(
                            lineno,
                            format!(
                                "span_close for already-closed span id {id} \
                                 (opened at line {open_line})"
                            ),
                        );
                    }
                    *open = false;
                }
            },
            TraceEvent::State { op, id, par, .. } => {
                if !lineage_op::is_known(op) {
                    return fail(lineno, format!("unknown lineage op `{op}`"));
                }
                if *id == 0 {
                    return fail(lineno, "state event with reserved id 0".to_string());
                }
                if lineage_op::introduces(op) {
                    if let Some(first) = states.get(id) {
                        return fail(
                            lineno,
                            format!("duplicate state id {id} (introduced at line {first})"),
                        );
                    }
                    if op == lineage_op::ROOT && *par != 0 {
                        return fail(
                            lineno,
                            format!("root state {id} must have parent 0, got {par}"),
                        );
                    }
                    if op == lineage_op::FORK && !states.contains_key(par) {
                        return fail(
                            lineno,
                            format!("fork state {id} references unintroduced parent {par}"),
                        );
                    }
                    states.insert(*id, lineno);
                } else if !states.contains_key(id) {
                    return fail(
                        lineno,
                        format!("lineage op `{op}` for unintroduced state id {id}"),
                    );
                }
            }
            TraceEvent::Query {
                site,
                verdict,
                cache,
                ..
            } => {
                if site.is_empty() {
                    return fail(lineno, "query event with empty site".to_string());
                }
                if !query_disposition::is_verdict(verdict) {
                    return fail(lineno, format!("unknown query verdict `{verdict}`"));
                }
                if !query_disposition::is_known(cache) {
                    return fail(lineno, format!("unknown query cache disposition `{cache}`"));
                }
            }
            _ => {}
        }
        out.push(ev);
    }
    if !allow_truncated {
        if let Some((&id, &(open_line, _))) = spans
            .iter()
            .filter(|(_, (_, open))| *open)
            .min_by_key(|(_, (line, _))| *line)
        {
            return fail(open_line, format!("span id {id} is never closed"));
        }
    }
    Ok((out, truncated))
}

/// Renders events back to canonical JSONL (one line each, trailing
/// newline after every line). `parse_trace` ∘ `render_trace` is the
/// identity on canonical traces, byte for byte.
pub fn render_trace(events: &[TraceEvent]) -> String {
    let mut s = String::new();
    for ev in events {
        s.push_str(&ev.to_json_line());
        s.push('\n');
    }
    s
}

/// A minimal JSON reader: just enough to parse the canonical trace
/// format (objects, arrays, strings, integers) plus standard escapes
/// and whitespace tolerance. Floats are intentionally rejected — the
/// emitter never produces them, and they cannot round-trip bytewise.
/// Also the one reader `statsym-inspect` checks its JSON views with.
pub mod json {
    /// A parsed JSON value (integer-only numbers).
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Non-negative integer.
        Uint(u64),
        /// Negative integer.
        Int(i64),
        /// String.
        Str(String),
        /// Array.
        Array(Vec<Value>),
        /// Object with preserved key order.
        Object(Vec<(String, Value)>),
        /// `true`/`false`.
        Bool(bool),
        /// `null`.
        Null,
    }

    impl Value {
        /// The value as a non-negative integer.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Uint(v) => Some(*v),
                _ => None,
            }
        }

        /// The value as a signed integer, if it fits.
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Uint(v) => i64::try_from(*v).ok(),
                Value::Int(v) => Some(*v),
                _ => None,
            }
        }

        /// The value as a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(v) => Some(v),
                _ => None,
            }
        }

        /// The value as an object, keys in document order.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Object(v) => Some(v),
                _ => None,
            }
        }
    }

    /// Deepest object/array nesting accepted. The reader is recursive,
    /// so deeper input is refused before it can exhaust the stack; the
    /// canonical formats nest at most a few levels.
    pub const MAX_DEPTH: usize = 128;

    /// Parses one JSON document (surrounding whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first defect.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
        /// Objects/arrays currently open around `pos`.
        depth: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.peek()?;
            self.pos += 1;
            Some(b)
        }

        fn skip_ws(&mut self) {
            while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.bump() == Some(b) {
                Ok(())
            } else {
                Err(format!(
                    "expected `{}` at byte {}",
                    b as char,
                    self.pos.saturating_sub(1)
                ))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek() {
                Some(b'{') => self.nested(Self::object),
                Some(b'[') => self.nested(Self::array),
                Some(b'"') => Ok(Value::Str(self.string()?)),
                Some(b't') => self.keyword("true", Value::Bool(true)),
                Some(b'f') => self.keyword("false", Value::Bool(false)),
                Some(b'n') => self.keyword("null", Value::Null),
                Some(b'-') | Some(b'0'..=b'9') => self.number(),
                other => Err(format!("unexpected byte {other:?} at {}", self.pos)),
            }
        }

        /// Runs `parse` on an object or array one nesting level deeper,
        /// refusing to go past [`MAX_DEPTH`].
        fn nested(
            &mut self,
            parse: fn(&mut Self) -> Result<Value, String>,
        ) -> Result<Value, String> {
            if self.depth == MAX_DEPTH {
                return Err(format!(
                    "nesting deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ));
            }
            self.depth += 1;
            let v = parse(self);
            self.depth -= 1;
            v
        }

        fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
                self.pos += kw.len();
                Ok(v)
            } else {
                Err(format!("invalid keyword at byte {}", self.pos))
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut entries = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let val = self.value()?;
                entries.push((key, val));
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => return Ok(Value::Object(entries)),
                    _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => return Ok(Value::Array(items)),
                    _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut s = String::new();
            loop {
                match self.bump() {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => return Ok(s),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let mut code: u32 = 0;
                            for _ in 0..4 {
                                let d = self
                                    .bump()
                                    .and_then(|b| (b as char).to_digit(16))
                                    .ok_or("bad \\u escape")?;
                                code = code * 16 + d;
                            }
                            s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        _ => return Err("bad escape".to_string()),
                    },
                    Some(b) if b < 0x80 => s.push(b as char),
                    Some(b) => {
                        // Re-decode the UTF-8 sequence starting at b.
                        let start = self.pos - 1;
                        let width = match b {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            0xF0..=0xF7 => 4,
                            _ => return Err("invalid UTF-8".to_string()),
                        };
                        let end = start + width;
                        let chunk = self
                            .bytes
                            .get(start..end)
                            .ok_or("truncated UTF-8 sequence")?;
                        let text = std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?;
                        s.push_str(text);
                        self.pos = end;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                return Err("floats are not part of the trace format".to_string());
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
            if let Some(stripped) = text.strip_prefix('-') {
                let _ = stripped;
                text.parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| "integer out of range".to_string())
            } else {
                text.parse::<u64>()
                    .map(Value::Uint)
                    .map_err(|_| "integer out of range".to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: TraceEvent) {
        let line = ev.to_json_line();
        let back = TraceEvent::parse_line(&line).expect(&line);
        assert_eq!(back, ev, "{line}");
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn all_event_kinds_roundtrip() {
        roundtrip(TraceEvent::Meta {
            clock: "steps".into(),
            version: 1,
        });
        roundtrip(TraceEvent::SpanOpen {
            t: 0,
            id: 1,
            parent: 0,
            name: "pipeline.analyze".into(),
        });
        roundtrip(TraceEvent::SpanClose { t: 42, id: 1 });
        roundtrip(TraceEvent::Event {
            t: 7,
            name: "candidate.result".into(),
            fields: vec![
                ("index".into(), FieldValue::Uint(0)),
                ("delta".into(), FieldValue::Int(-5)),
                ("found".into(), FieldValue::Str("true".into())),
            ],
        });
        roundtrip(TraceEvent::Counter {
            name: "solver.queries".into(),
            value: u64::MAX,
        });
        roundtrip(TraceEvent::Gauge {
            name: "symex.peak_memory_bytes".into(),
            value: -1,
        });
        roundtrip(TraceEvent::Hist {
            name: "solver.query_us".into(),
            count: 3,
            sum: 10,
            buckets: vec![(0, 1), (2, 2)],
        });
        roundtrip(TraceEvent::State {
            t: 12,
            op: lineage_op::FORK.into(),
            id: 5,
            par: 2,
            loc: "main:b3".into(),
            hops: 1,
            depth: 4,
            steps: 37,
            snodes: 12,
            sus: 0,
        });
        roundtrip(TraceEvent::Query {
            t: 19,
            sid: 3,
            loc: "main:12".into(),
            rank: 2,
            site: "feasibility".into(),
            verdict: "unsat".into(),
            cache: query_disposition::SLICED.into(),
            nodes: 44,
            us: 0,
        });
    }

    fn state_line(op: &str, id: u64, par: u64) -> String {
        TraceEvent::State {
            t: 0,
            op: op.into(),
            id,
            par,
            loc: "f:b0".into(),
            hops: 0,
            depth: 0,
            steps: 0,
            snodes: 0,
            sus: 0,
        }
        .to_json_line()
            + "\n"
    }

    #[test]
    fn strict_parse_accepts_lineage_tree() {
        let text = state_line(lineage_op::ROOT, 1, 0)
            + &state_line(lineage_op::FORK, 2, 1)
            + &state_line(lineage_op::SUSPEND_TAU, 2, 1)
            + &state_line(lineage_op::RESUME, 2, 1)
            + &state_line(lineage_op::EXIT, 1, 0)
            + &state_line(lineage_op::ROOT, 3, 0); // second run's root
        assert_eq!(parse_trace_strict(&text).unwrap().len(), 6);
    }

    #[test]
    fn strict_parse_rejects_lineage_orphans_and_bad_ops() {
        // Fork before its parent is introduced.
        let err = parse_trace_strict(&state_line(lineage_op::FORK, 2, 1)).unwrap_err();
        assert!(err.reason.contains("unintroduced parent 1"), "{err}");
        // Transition on a never-introduced state.
        let err = parse_trace_strict(&state_line(lineage_op::KILL, 9, 0)).unwrap_err();
        assert!(err.reason.contains("unintroduced state id 9"), "{err}");
        // Duplicate introduction.
        let text = state_line(lineage_op::ROOT, 1, 0) + &state_line(lineage_op::ROOT, 1, 0);
        let err = parse_trace_strict(&text).unwrap_err();
        assert!(err.reason.contains("duplicate state id 1"), "{err}");
        // Root with a parent.
        let err = parse_trace_strict(&state_line(lineage_op::ROOT, 1, 7)).unwrap_err();
        assert!(err.reason.contains("must have parent 0"), "{err}");
        // Unknown op.
        let err = parse_trace_strict(&state_line("teleport", 1, 0)).unwrap_err();
        assert!(err.reason.contains("unknown lineage op"), "{err}");
        // Reserved id 0.
        let err = parse_trace_strict(&state_line(lineage_op::ROOT, 0, 0)).unwrap_err();
        assert!(err.reason.contains("reserved id 0"), "{err}");
    }

    fn query_line(site: &str, verdict: &str, cache: &str) -> String {
        TraceEvent::Query {
            t: 0,
            sid: 1,
            loc: "f:3".into(),
            rank: 0,
            site: site.into(),
            verdict: verdict.into(),
            cache: cache.into(),
            nodes: 2,
            us: 0,
        }
        .to_json_line()
            + "\n"
    }

    #[test]
    fn strict_parse_accepts_well_formed_queries() {
        let mut text = String::new();
        for cache in query_disposition::ALL {
            for verdict in query_disposition::VERDICTS {
                text.push_str(&query_line("feasibility", verdict, cache));
            }
        }
        let n = query_disposition::ALL.len() * query_disposition::VERDICTS.len();
        assert_eq!(parse_trace_strict(&text).unwrap().len(), n);
    }

    #[test]
    fn strict_parse_rejects_malformed_provenance() {
        // Unknown verdict.
        let err = parse_trace_strict(&query_line("feasibility", "maybe", "search")).unwrap_err();
        assert!(err.reason.contains("unknown query verdict"), "{err}");
        // Unknown cache disposition.
        let err = parse_trace_strict(&query_line("feasibility", "sat", "psychic")).unwrap_err();
        assert!(err.reason.contains("cache disposition"), "{err}");
        // Empty callsite.
        let err = parse_trace_strict(&query_line("", "sat", "search")).unwrap_err();
        assert!(err.reason.contains("empty site"), "{err}");
        // Missing key entirely.
        assert!(TraceEvent::parse_line(
            "{\"k\":\"query\",\"t\":0,\"sid\":1,\"loc\":\"f:3\",\"rank\":0,\"site\":\"s\",\
             \"verdict\":\"sat\",\"cache\":\"search\",\"nodes\":2}"
        )
        .is_err());
    }

    #[test]
    fn truncated_parse_tolerates_one_trailing_partial_line() {
        let good = state_line(lineage_op::ROOT, 1, 0);
        let text = format!("{good}{{\"k\":\"sta"); // cut mid-write
        let (events, truncated) = parse_trace_truncated(&text).unwrap();
        assert_eq!(events.len(), 1);
        assert!(truncated);
        // A complete trace parses un-truncated.
        let (events, truncated) = parse_trace_truncated(&good).unwrap();
        assert_eq!(events.len(), 1);
        assert!(!truncated);
        // Strict mode still rejects the partial line.
        assert!(parse_trace_strict(&text).is_err());
    }

    #[test]
    fn truncated_parse_still_rejects_interior_corruption() {
        let text = format!(
            "{}not json\n{}",
            state_line(lineage_op::ROOT, 1, 0),
            state_line(lineage_op::EXIT, 1, 0)
        );
        let err = parse_trace_truncated(&text).unwrap_err();
        assert_eq!(err.line, 2);
        // Structural violations are interior corruption even on the
        // last line: the line itself parses, so no tolerance applies.
        let bad = state_line(lineage_op::ROOT, 1, 0) + &state_line(lineage_op::KILL, 5, 0);
        assert!(parse_trace_truncated(&bad).is_err());
    }

    #[test]
    fn truncated_parse_tolerates_open_spans_at_eof() {
        let text = "{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"a\"}\n";
        assert!(parse_trace_strict(text).is_err());
        let (events, truncated) = parse_trace_truncated(text).unwrap();
        assert_eq!(events.len(), 1);
        assert!(!truncated);
    }

    #[test]
    fn strings_with_escapes_roundtrip() {
        roundtrip(TraceEvent::Event {
            t: 0,
            name: "weird \"name\"\twith\nescapes \\ λ".into(),
            fields: vec![("k\u{1}".into(), FieldValue::Str("v\u{7f}λ中".into()))],
        });
    }

    #[test]
    fn parse_trace_reports_line_numbers() {
        let text = "{\"k\":\"span_close\",\"t\":1,\"id\":1}\n\nnot json\n";
        let err = parse_trace(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn strict_parse_accepts_balanced_spans() {
        let text = "{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"a\"}\n\
                    {\"k\":\"span_open\",\"t\":1,\"id\":2,\"parent\":1,\"name\":\"b\"}\n\
                    {\"k\":\"span_close\",\"t\":2,\"id\":2}\n\
                    {\"k\":\"span_close\",\"t\":3,\"id\":1}\n";
        assert_eq!(parse_trace_strict(text).unwrap().len(), 4);
    }

    #[test]
    fn strict_parse_rejects_duplicate_span_id() {
        let text = "{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"a\"}\n\
                    {\"k\":\"span_close\",\"t\":1,\"id\":1}\n\
                    {\"k\":\"span_open\",\"t\":2,\"id\":1,\"parent\":0,\"name\":\"b\"}\n";
        let err = parse_trace_strict(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("duplicate span id 1"));
        assert!(err.reason.contains("line 1"));
    }

    #[test]
    fn strict_parse_rejects_unmatched_close() {
        let err = parse_trace_strict("{\"k\":\"span_close\",\"t\":1,\"id\":7}\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("never-opened"));

        let text = "{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"a\"}\n\
                    {\"k\":\"span_close\",\"t\":1,\"id\":1}\n\
                    {\"k\":\"span_close\",\"t\":2,\"id\":1}\n";
        let err = parse_trace_strict(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.reason.contains("already-closed"));
    }

    #[test]
    fn strict_parse_rejects_unclosed_span_at_eof() {
        let text = "{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"a\"}\n\
                    {\"k\":\"span_open\",\"t\":1,\"id\":2,\"parent\":1,\"name\":\"b\"}\n\
                    {\"k\":\"span_close\",\"t\":2,\"id\":2}\n";
        let err = parse_trace_strict(text).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("never closed"));
    }

    #[test]
    fn strict_parse_rejects_unknown_trace_version_with_line_number() {
        // A future-major trace must be refused up front, not
        // half-interpreted: the meta line is line 1 by construction, but
        // the parser reports wherever it actually sits.
        let text = "{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"a\"}\n\
                    {\"k\":\"span_close\",\"t\":1,\"id\":1}\n\
                    {\"k\":\"meta\",\"clock\":\"steps\",\"version\":99}\n";
        for parse in [
            parse_trace_strict(text).map(|_| ()),
            parse_trace_truncated(text).map(|_| ()),
        ] {
            let err = parse.unwrap_err();
            assert_eq!(err.line, 3);
            assert!(
                err.reason.contains("unsupported trace version 99"),
                "{}",
                err.reason
            );
            assert!(err.reason.contains("supports 1"), "{}", err.reason);
        }
        // The current version stays accepted.
        let ok = "{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}\n";
        assert_eq!(parse_trace_strict(ok).unwrap().len(), 1);
    }

    #[test]
    fn strict_parse_rejects_reserved_id_zero() {
        let err = parse_trace_strict(
            "{\"k\":\"span_open\",\"t\":0,\"id\":0,\"parent\":0,\"name\":\"a\"}\n",
        )
        .unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.reason.contains("reserved id 0"));
    }

    #[test]
    fn floats_are_rejected() {
        assert!(
            TraceEvent::parse_line("{\"k\":\"counter\",\"name\":\"x\",\"value\":1.5}").is_err()
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(TraceEvent::parse_line("{\"k\":\"bogus\"}").is_err());
    }

    #[test]
    fn render_trace_is_parse_inverse() {
        let evs = vec![
            TraceEvent::Meta {
                clock: "steps".into(),
                version: 1,
            },
            TraceEvent::Counter {
                name: "a".into(),
                value: 1,
            },
        ];
        let text = render_trace(&evs);
        let back = parse_trace(&text).unwrap();
        assert_eq!(back, evs);
        assert_eq!(render_trace(&back), text);
    }
}
