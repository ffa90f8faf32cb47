//! Run-report renderer: turns a parsed trace into the per-phase
//! breakdown the paper prints in Tables II/III.
//!
//! The summary aggregates spans by name (count, total ticks, nesting
//! depth from the parent chain) and appends final metric values. The
//! rendering is fully deterministic: span rows appear in first-open
//! order, metrics in the sorted order the registry dumped them in, and
//! all numbers are integers.

use std::collections::{BTreeMap, HashMap};

use crate::event::{push_json_str, TraceEvent};
use crate::names;

/// Schema version stamped into [`TraceSummary::render_json`] output.
/// Strict consumers reject majors they don't understand.
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// Stable top-level `kind` discriminator of the JSON report, so a
/// machine consumer can tell a report apart from a manifest or any
/// other single-line JSON artifact before reading further.
pub const REPORT_KIND: &str = "statsym.report";

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: String,
    /// Nesting depth of the first occurrence (0 = root).
    pub depth: usize,
    /// Number of times a span with this name was opened.
    pub count: u64,
    /// Total ticks spent inside (sum of close − open over closed
    /// spans; unclosed spans contribute nothing).
    pub total_ticks: u64,
}

/// Final state of one log₂ histogram, buckets included, with
/// bucket-resolution percentile estimates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistStat {
    /// Histogram name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Sparse `(bucket, count)` pairs as recorded in the trace; bucket
    /// `b > 0` covers `[2^(b-1), 2^b - 1]`, bucket 0 holds zeros.
    pub buckets: Vec<(u32, u64)>,
}

impl HistStat {
    /// The value at quantile `num/den`, estimated as the *upper bound*
    /// of the log₂ bucket holding that rank (so the true value is ≤ the
    /// estimate, within one power of two). Returns 0 for an empty
    /// histogram.
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 || den == 0 {
            return 0;
        }
        // 1-based rank of the requested quantile, rounded up.
        let rank = ((self.count as u128 * num as u128).div_ceil(den as u128)).max(1);
        let mut seen: u128 = 0;
        for &(b, n) in &self.buckets {
            seen += n as u128;
            if seen >= rank {
                return if b == 0 {
                    0
                } else if b >= 64 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
            }
        }
        // Sparse buckets should sum to `count`; fall back to the top.
        self.buckets.last().map_or(
            0,
            |&(b, _)| if b >= 64 { u64::MAX } else { (1u64 << b) - 1 },
        )
    }

    /// Median estimate (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(1, 2)
    }

    /// 90th-percentile estimate (bucket upper bound).
    pub fn p90(&self) -> u64 {
        self.percentile(9, 10)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(99, 100)
    }
}

/// One `calib.candidate` record: the ranking's prediction for a
/// candidate next to what the attempt actually cost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalibCandidate {
    /// Candidate rank (0 = ranked first).
    pub rank: u64,
    /// Statistical score in milli-units (`score * 1000`, truncated).
    pub score_milli: i64,
    /// Candidate path length in branches.
    pub path_len: u64,
    /// Executor steps the attempt spent.
    pub steps: u64,
    /// Forks the attempt spent.
    pub forks: u64,
    /// Solver search-tree nodes the attempt spent.
    pub snodes: u64,
    /// Solver wall-µs the attempt spent (0 under the step clock).
    pub solver_us: u64,
    /// Whether the attempt reached the vulnerability.
    pub found: bool,
}

impl CalibCandidate {
    /// Parses a [`TraceEvent::Event`] field list into a record. Missing
    /// or non-numeric fields default to zero, so partial records from
    /// older traces still summarize.
    pub fn from_fields(fields: &[(String, crate::event::FieldValue)]) -> CalibCandidate {
        let mut c = CalibCandidate::default();
        for (k, v) in fields {
            match k.as_str() {
                "rank" => c.rank = v.as_u64().unwrap_or(0),
                "score_milli" => c.score_milli = v.as_i64().unwrap_or(0),
                "path_len" => c.path_len = v.as_u64().unwrap_or(0),
                "steps" => c.steps = v.as_u64().unwrap_or(0),
                "forks" => c.forks = v.as_u64().unwrap_or(0),
                "snodes" => c.snodes = v.as_u64().unwrap_or(0),
                "solver_us" => c.solver_us = v.as_u64().unwrap_or(0),
                "found" => c.found = v.as_u64().unwrap_or(0) != 0,
                _ => {}
            }
        }
        c
    }

    /// Appends the record as one JSON object (stable key order,
    /// integers only) — the candidate form both the JSON run report and
    /// `statsym-inspect calib --format json` emit.
    pub fn push_json(&self, s: &mut String) {
        s.push_str(&format!(
            "{{\"rank\":{},\"score_milli\":{},\"path_len\":{},\"steps\":{},\
             \"forks\":{},\"snodes\":{},\"solver_us\":{},\"found\":{}}}",
            self.rank,
            self.score_milli,
            self.path_len,
            self.steps,
            self.forks,
            self.snodes,
            self.solver_us,
            u64::from(self.found)
        ));
    }
}

/// Renders calibration records as the predicted-vs-actual table: a
/// header row, then one fixed-width row per record. The run report and
/// `statsym-inspect calib` both print it.
pub fn render_calib_table(out: &mut String, candidates: &[CalibCandidate]) {
    out.push_str(&format!(
        "  {:>4}  {:>11}  {:>8}  {:>10}  {:>8}  {:>10}  {:>10}  {:>5}\n",
        "rank", "score_milli", "path_len", "steps", "forks", "snodes", "solver_us", "found"
    ));
    for c in candidates {
        out.push_str(&format!(
            "  {:>4}  {:>11}  {:>8}  {:>10}  {:>8}  {:>10}  {:>10}  {:>5}\n",
            c.rank,
            c.score_milli,
            c.path_len,
            c.steps,
            c.forks,
            c.snodes,
            c.solver_us,
            if c.found { "yes" } else { "no" }
        ));
    }
}

/// Spearman rank correlation between candidate rank order (the slice
/// index: rank 0 first) and per-attempt cost, in per-mille (ρ × 1000,
/// rounded). A positive value means the statistical ranking predicted
/// cost well — better-ranked candidates really were cheaper to attempt.
/// Tied costs get average ranks. `None` when fewer than two attempts or
/// when every cost ties (the correlation is undefined, and the
/// zero-vs-absent convention says emit nothing rather than a fake 0).
/// The pipeline derives the [`names::CALIB_RANK_COST_CORR`] gauge from
/// it; `statsym-inspect calib` recomputes it per run from the records.
///
/// ```
/// use statsym_telemetry::spearman_milli;
/// assert_eq!(spearman_milli(&[10, 20, 30]), Some(1000));
/// assert_eq!(spearman_milli(&[30, 20, 10]), Some(-1000));
/// assert_eq!(spearman_milli(&[5, 5]), None);
/// assert_eq!(spearman_milli(&[5]), None);
/// ```
pub fn spearman_milli(costs: &[u64]) -> Option<i64> {
    let n = costs.len();
    if n < 2 {
        return None;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| costs[i]);
    let mut cost_rank = vec![0f64; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && costs[idx[j + 1]] == costs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0;
        for &k in &idx[i..=j] {
            cost_rank[k] = avg;
        }
        i = j + 1;
    }
    // Candidate ranks are 0..n-1 with no ties; average cost ranks keep
    // the same mean, so one centered pass computes the correlation.
    let mean = (n as f64 - 1.0) / 2.0;
    let (mut num, mut dx, mut dy) = (0f64, 0f64, 0f64);
    for (r, &cr) in cost_rank.iter().enumerate() {
        let x = r as f64 - mean;
        let y = cr - mean;
        num += x * y;
        dx += x * x;
        dy += y * y;
    }
    if dy == 0.0 {
        return None;
    }
    Some((num / (dx * dy).sqrt() * 1000.0).round() as i64)
}

/// `(site, verdict, cache)` key of one query-provenance rollup row.
pub type QueryKey = (String, String, String);
/// `(count, nodes, us)` totals of one query-provenance rollup row.
pub type QueryTotals = (u64, u64, u64);

/// A digest of one trace, ready to render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Clock label from the meta event (`wall_us` / `steps`).
    pub clock: String,
    /// Span aggregates in first-open order.
    pub spans: Vec<SpanStat>,
    /// Final counter values in dump order.
    pub counters: Vec<(String, u64)>,
    /// Final gauge values in dump order.
    pub gauges: Vec<(String, i64)>,
    /// Histograms in dump order, buckets preserved for percentile
    /// summaries.
    pub hists: Vec<HistStat>,
    /// Point events grouped by name, in first-seen order.
    pub event_counts: Vec<(String, u64)>,
    /// Solver-query provenance rollup: `(site, verdict, cache)` ->
    /// `(count, nodes, us)`, in first-seen order.
    pub query_stats: Vec<(QueryKey, QueryTotals)>,
    /// Per-candidate calibration records in trace order.
    pub calib: Vec<CalibCandidate>,
}

impl TraceSummary {
    /// Builds a summary from a parsed event stream.
    pub fn from_events(events: &[TraceEvent]) -> TraceSummary {
        let mut summary = TraceSummary::default();
        // Per-open-span bookkeeping: id -> (name index, open tick).
        let mut open: HashMap<u64, (usize, u64)> = HashMap::new();
        let mut depth_of: HashMap<u64, usize> = HashMap::new();
        let mut name_index: HashMap<String, usize> = HashMap::new();
        let mut event_index: HashMap<String, usize> = HashMap::new();
        let mut query_index: HashMap<QueryKey, usize> = HashMap::new();
        for ev in events {
            match ev {
                TraceEvent::Meta { clock, .. } => summary.clock = clock.clone(),
                TraceEvent::SpanOpen {
                    t,
                    id,
                    parent,
                    name,
                } => {
                    let depth = if *parent == 0 {
                        0
                    } else {
                        depth_of.get(parent).map_or(0, |d| d + 1)
                    };
                    depth_of.insert(*id, depth);
                    let idx = *name_index.entry(name.clone()).or_insert_with(|| {
                        summary.spans.push(SpanStat {
                            name: name.clone(),
                            depth,
                            count: 0,
                            total_ticks: 0,
                        });
                        summary.spans.len() - 1
                    });
                    summary.spans[idx].count += 1;
                    open.insert(*id, (idx, *t));
                }
                TraceEvent::SpanClose { t, id } => {
                    if let Some((idx, opened)) = open.remove(id) {
                        summary.spans[idx].total_ticks += t.saturating_sub(opened);
                    }
                }
                TraceEvent::Event { name, fields, .. } => {
                    let idx = *event_index.entry(name.clone()).or_insert_with(|| {
                        summary.event_counts.push((name.clone(), 0));
                        summary.event_counts.len() - 1
                    });
                    summary.event_counts[idx].1 += 1;
                    if name == names::CALIB_CANDIDATE {
                        summary.calib.push(CalibCandidate::from_fields(fields));
                    }
                }
                TraceEvent::Counter { name, value } => {
                    summary.counters.push((name.clone(), *value));
                }
                TraceEvent::Gauge { name, value } => {
                    summary.gauges.push((name.clone(), *value));
                }
                TraceEvent::Hist {
                    name,
                    count,
                    sum,
                    buckets,
                } => {
                    summary.hists.push(HistStat {
                        name: name.clone(),
                        count: *count,
                        sum: *sum,
                        buckets: buckets.clone(),
                    });
                }
                TraceEvent::State { .. } => {}
                TraceEvent::Query {
                    site,
                    verdict,
                    cache,
                    nodes,
                    us,
                    ..
                } => {
                    let key = (site.clone(), verdict.clone(), cache.clone());
                    let idx = *query_index.entry(key.clone()).or_insert_with(|| {
                        summary.query_stats.push((key, (0, 0, 0)));
                        summary.query_stats.len() - 1
                    });
                    let (count, total_nodes, total_us) = &mut summary.query_stats[idx].1;
                    *count += 1;
                    *total_nodes += nodes;
                    *total_us += us;
                }
            }
        }
        summary
    }

    /// Total ticks of the named span (0 if absent).
    pub fn span_ticks(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.total_ticks)
    }

    /// Final value of the named counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_opt(name).unwrap_or(0)
    }

    /// Final value of the named counter, or `None` if the trace never
    /// recorded it — distinct from an observed zero, which matters to
    /// `statsym-inspect diff` (a vanished counter is a schema change,
    /// not a regression to 0).
    pub fn counter_opt(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Final value of the named gauge.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Per-source-line attribution totals derived from the `attr.*`
    /// counter family: `loc -> [steps, forks, suspends, queries, nodes,
    /// us]` (the [`names::ATTR_DIMS`] order), sorted by location.
    pub fn attr_locs(&self) -> BTreeMap<String, [u64; 6]> {
        let mut locs: BTreeMap<String, [u64; 6]> = BTreeMap::new();
        for (name, v) in &self.counters {
            let Some(rest) = name.strip_prefix(names::ATTR_PREFIX) else {
                continue;
            };
            let Some((loc, dim)) = rest.rsplit_once('.') else {
                continue;
            };
            let Some(idx) = names::ATTR_DIMS.iter().position(|d| *d == dim) else {
                continue;
            };
            locs.entry(loc.to_string()).or_default()[idx] += *v;
        }
        locs
    }

    /// Renders the Table II/III-style run report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let unit = if self.clock.is_empty() {
            "ticks".to_string()
        } else {
            self.clock.clone()
        };
        out.push_str(&format!("run report (clock: {unit})\n"));

        if !self.spans.is_empty() {
            out.push_str("\nphases:\n");
            let name_w = self
                .spans
                .iter()
                .map(|s| s.name.len() + 2 * s.depth)
                .max()
                .unwrap_or(0)
                .max(5);
            out.push_str(&format!(
                "  {:<name_w$}  {:>8}  {:>12}\n",
                "phase", "count", unit
            ));
            for s in &self.spans {
                let label = format!("{}{}", "  ".repeat(s.depth), s.name);
                out.push_str(&format!(
                    "  {label:<name_w$}  {:>8}  {:>12}\n",
                    s.count, s.total_ticks
                ));
            }
        }

        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<32}  {v:>12}\n"));
            }
        }

        if !self.gauges.is_empty() {
            out.push_str("\ngauges (peaks):\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<32}  {v:>12}\n"));
            }
        }

        if !self.hists.is_empty() {
            out.push_str("\nhistograms:\n");
            for h in &self.hists {
                let mean = h.sum.checked_div(h.count).unwrap_or(0);
                out.push_str(&format!(
                    "  {:<32}  count {:>8}  sum {:>12}  mean {mean:>8}  \
                     p50 {:>8}  p90 {:>8}  p99 {:>8}\n",
                    h.name,
                    h.count,
                    h.sum,
                    h.p50(),
                    h.p90(),
                    h.p99(),
                ));
            }
        }

        if !self.event_counts.is_empty() {
            out.push_str("\nevents:\n");
            for (name, n) in &self.event_counts {
                out.push_str(&format!("  {name:<32}  {n:>12}\n"));
            }
        }

        if !self.query_stats.is_empty() {
            out.push_str("\nsolver queries (site / verdict / cache):\n");
            let mut rows: Vec<_> = self.query_stats.iter().collect();
            rows.sort_by(|a, b| a.0.cmp(&b.0));
            for ((site, verdict, cache), (count, nodes, us)) in rows {
                let key = format!("{site} / {verdict} / {cache}");
                out.push_str(&format!(
                    "  {key:<36}  n {count:>8}  nodes {nodes:>10}  us {us:>10}\n"
                ));
            }
        }

        if !self.calib.is_empty() {
            out.push_str("\ncalibration (predicted vs actual):\n");
            render_calib_table(&mut out, &self.calib);
        }
        out
    }

    /// Renders the summary as a single-line JSON object with a stable
    /// key order, for machine consumers (`statsym-inspect report
    /// --format json`, CI assertions). All numbers are integers; span
    /// and histogram rows keep their deterministic trace order, and
    /// counter/gauge/event maps keep the sorted dump order they arrived
    /// in.
    pub fn render_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"kind\":");
        push_json_str(&mut s, REPORT_KIND);
        s.push_str(&format!(",\"schema_version\":{REPORT_SCHEMA_VERSION}"));
        s.push_str(",\"clock\":");
        push_json_str(&mut s, &self.clock);
        s.push_str(",\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_str(&mut s, &sp.name);
            s.push_str(&format!(
                ",\"depth\":{},\"count\":{},\"ticks\":{}}}",
                sp.depth, sp.count, sp.total_ticks
            ));
        }
        s.push_str("],\"counters\":{");
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
        s.push_str("},\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            push_json_str(&mut s, &h.name);
            let mean = h.sum.checked_div(h.count).unwrap_or(0);
            s.push_str(&format!(
                ",\"count\":{},\"sum\":{},\"mean\":{mean},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count,
                h.sum,
                h.p50(),
                h.p90(),
                h.p99()
            ));
        }
        s.push_str("],\"events\":{");
        for (i, (name, n)) in self.event_counts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, name);
            s.push_str(&format!(":{n}"));
        }
        s.push_str("},\"attribution\":{");
        for (i, (loc, d)) in self.attr_locs().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_json_str(&mut s, loc);
            s.push(':');
            s.push('{');
            for (j, dim) in names::ATTR_DIMS.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{dim}\":{}", d[j]));
            }
            s.push('}');
        }
        s.push_str("},\"queries\":[");
        let mut rows: Vec<_> = self.query_stats.iter().collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        for (i, ((site, verdict, cache), (count, nodes, us))) in rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"site\":");
            push_json_str(&mut s, site);
            s.push_str(",\"verdict\":");
            push_json_str(&mut s, verdict);
            s.push_str(",\"cache\":");
            push_json_str(&mut s, cache);
            s.push_str(&format!(
                ",\"count\":{count},\"nodes\":{nodes},\"us\":{us}}}"
            ));
        }
        s.push_str("],\"calibration\":{\"candidates\":[");
        for (i, c) in self.calib.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            c.push_json(&mut s);
        }
        s.push(']');
        if let Some(w) = self.gauge(names::CALIB_WINNER_RANK) {
            s.push_str(&format!(",\"winner_rank\":{w}"));
        }
        if let Some(corr) = self.gauge(names::CALIB_RANK_COST_CORR) {
            s.push_str(&format!(",\"corr_milli\":{corr}"));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FieldValue;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Meta {
                clock: "steps".into(),
                version: 1,
            },
            TraceEvent::SpanOpen {
                t: 0,
                id: 1,
                parent: 0,
                name: "pipeline.analyze".into(),
            },
            TraceEvent::SpanOpen {
                t: 1,
                id: 2,
                parent: 1,
                name: "phase.skeleton".into(),
            },
            TraceEvent::SpanClose { t: 4, id: 2 },
            TraceEvent::SpanClose { t: 6, id: 1 },
            TraceEvent::SpanOpen {
                t: 6,
                id: 3,
                parent: 0,
                name: "pipeline.analyze".into(),
            },
            TraceEvent::SpanClose { t: 8, id: 3 },
            TraceEvent::Event {
                t: 8,
                name: "candidate.result".into(),
                fields: vec![("found".into(), FieldValue::Str("true".into()))],
            },
            TraceEvent::Counter {
                name: "solver.queries".into(),
                value: 12,
            },
            TraceEvent::Gauge {
                name: "symex.peak_live_states".into(),
                value: 4,
            },
            TraceEvent::Hist {
                name: "solver.query_us".into(),
                count: 2,
                sum: 9,
                buckets: vec![(2, 1), (3, 1)],
            },
        ]
    }

    #[test]
    fn summary_aggregates_spans_by_name() {
        let s = TraceSummary::from_events(&sample_events());
        assert_eq!(s.clock, "steps");
        assert_eq!(s.spans.len(), 2);
        assert_eq!(s.spans[0].name, "pipeline.analyze");
        assert_eq!(s.spans[0].count, 2);
        assert_eq!(s.spans[0].total_ticks, 8);
        assert_eq!(s.spans[0].depth, 0);
        assert_eq!(s.spans[1].name, "phase.skeleton");
        assert_eq!(s.spans[1].depth, 1);
        assert_eq!(s.span_ticks("phase.skeleton"), 3);
        assert_eq!(s.counter("solver.queries"), 12);
        assert_eq!(s.counter("nope"), 0);
        assert_eq!(s.counter_opt("solver.queries"), Some(12));
        assert_eq!(s.counter_opt("nope"), None);
        assert_eq!(s.gauge("symex.peak_live_states"), Some(4));
        assert_eq!(s.event_counts, vec![("candidate.result".to_string(), 1)]);
    }

    #[test]
    fn render_is_deterministic_and_indented() {
        let s = TraceSummary::from_events(&sample_events());
        let a = s.render();
        let b = s.render();
        assert_eq!(a, b);
        assert!(a.contains("run report (clock: steps)"));
        assert!(a.contains("  phase.skeleton") || a.contains("    phase.skeleton"));
        assert!(a.contains("solver.queries"));
        assert!(a.contains("mean"));
        assert!(a.contains("p50"));
        assert!(a.contains("p99"));
    }

    #[test]
    fn render_json_is_stable_and_parseable() {
        let s = TraceSummary::from_events(&sample_events());
        let a = s.render_json();
        assert_eq!(a, s.render_json());
        // Key order is fixed by construction, and the kind + schema
        // version lead so consumers can dispatch before parsing fully.
        assert!(a.starts_with(
            "{\"kind\":\"statsym.report\",\"schema_version\":1,\"clock\":\"steps\",\"spans\":["
        ));
        assert!(a.contains("\"counters\":{\"solver.queries\":12}"));
        assert!(a.contains("\"gauges\":{\"symex.peak_live_states\":4}"));
        assert!(a.contains("\"events\":{\"candidate.result\":1}"));
        assert!(a.contains(
            "{\"name\":\"solver.query_us\",\"count\":2,\"sum\":9,\"mean\":4,\
             \"p50\":3,\"p90\":7,\"p99\":7}"
        ));
        // New sections are always present, empty when the trace carries
        // no attribution/provenance/calibration data.
        assert!(
            a.ends_with("\"attribution\":{},\"queries\":[],\"calibration\":{\"candidates\":[]}}")
        );
        // It is valid JSON by our own strict reader.
        crate::event::json::parse(&a).unwrap();
    }

    #[test]
    fn summary_folds_attribution_queries_and_calibration() {
        let mut events = sample_events();
        events.push(TraceEvent::Counter {
            name: "attr.convert:7.steps".into(),
            value: 40,
        });
        events.push(TraceEvent::Counter {
            name: "attr.convert:7.nodes".into(),
            value: 9,
        });
        events.push(TraceEvent::Counter {
            name: "attr.main:2.steps".into(),
            value: 3,
        });
        events.push(TraceEvent::Query {
            t: 5,
            sid: 1,
            loc: "convert:7".into(),
            rank: 0,
            site: "feasibility".into(),
            verdict: "sat".into(),
            cache: "search".into(),
            nodes: 6,
            us: 0,
        });
        events.push(TraceEvent::Query {
            t: 6,
            sid: 1,
            loc: "convert:7".into(),
            rank: 0,
            site: "feasibility".into(),
            verdict: "sat".into(),
            cache: "search".into(),
            nodes: 3,
            us: 0,
        });
        events.push(TraceEvent::Event {
            t: 7,
            name: "calib.candidate".into(),
            fields: vec![
                ("rank".into(), FieldValue::Uint(1)),
                ("score_milli".into(), FieldValue::Uint(4250)),
                ("path_len".into(), FieldValue::Uint(3)),
                ("steps".into(), FieldValue::Uint(120)),
                ("forks".into(), FieldValue::Uint(2)),
                ("snodes".into(), FieldValue::Uint(9)),
                ("found".into(), FieldValue::Uint(1)),
            ],
        });
        events.push(TraceEvent::Gauge {
            name: "calib.winner_rank".into(),
            value: 1,
        });
        events.push(TraceEvent::Gauge {
            name: "calib.rank_cost_corr_milli".into(),
            value: -500,
        });

        let s = TraceSummary::from_events(&events);
        let locs = s.attr_locs();
        assert_eq!(locs["convert:7"], [40, 0, 0, 0, 9, 0]);
        assert_eq!(locs["main:2"], [3, 0, 0, 0, 0, 0]);
        assert_eq!(locs.len(), 2);
        assert_eq!(
            s.query_stats,
            vec![(
                (
                    "feasibility".to_string(),
                    "sat".to_string(),
                    "search".to_string()
                ),
                (2, 9, 0)
            )]
        );
        assert_eq!(s.calib.len(), 1);
        assert_eq!(s.calib[0].rank, 1);
        assert_eq!(s.calib[0].score_milli, 4250);
        assert!(s.calib[0].found);
        assert_eq!(s.calib[0].solver_us, 0);

        let json = s.render_json();
        assert!(json.contains(
            "\"attribution\":{\"convert:7\":{\"steps\":40,\"forks\":0,\"suspends\":0,\
             \"queries\":0,\"nodes\":9,\"us\":0},\"main:2\":{\"steps\":3,"
        ));
        assert!(json.contains(
            "\"queries\":[{\"site\":\"feasibility\",\"verdict\":\"sat\",\
             \"cache\":\"search\",\"count\":2,\"nodes\":9,\"us\":0}]"
        ));
        assert!(json.contains(
            "\"calibration\":{\"candidates\":[{\"rank\":1,\"score_milli\":4250,\
             \"path_len\":3,\"steps\":120,\"forks\":2,\"snodes\":9,\"solver_us\":0,\
             \"found\":1}],\"winner_rank\":1,\"corr_milli\":-500}"
        ));
        crate::event::json::parse(&json).unwrap();

        let text = s.render();
        assert!(text.contains("solver queries (site / verdict / cache):"));
        assert!(text.contains("feasibility / sat / search"));
        assert!(text.contains("calibration (predicted vs actual):"));
    }

    #[test]
    fn spearman_averages_tied_costs() {
        assert_eq!(spearman_milli(&[]), None);
        // Monotone but tied in the middle.
        assert_eq!(spearman_milli(&[1, 2, 2, 3]), Some(949));
    }

    #[test]
    fn percentiles_follow_bucket_upper_bounds() {
        // 10 observations: 4 zeros, 3 in bucket 2 ([2,3]), 2 in bucket
        // 5 ([16,31]), 1 in bucket 7 ([64,127]).
        let h = HistStat {
            name: "lat".into(),
            count: 10,
            sum: 0,
            buckets: vec![(0, 4), (2, 3), (5, 2), (7, 1)],
        };
        assert_eq!(h.p50(), 3); // rank 5 lands in bucket 2 -> 2^2-1
        assert_eq!(h.p90(), 31); // rank 9 lands in bucket 5 -> 2^5-1
        assert_eq!(h.p99(), 127); // rank 10 lands in bucket 7 -> 2^7-1
        assert_eq!(h.percentile(1, 10), 0); // rank 1: a zero

        let empty = HistStat::default();
        assert_eq!(empty.p50(), 0);

        // Bucket 64 (values >= 2^63) saturates at u64::MAX.
        let top = HistStat {
            name: "big".into(),
            count: 1,
            sum: u64::MAX,
            buckets: vec![(64, 1)],
        };
        assert_eq!(top.p50(), u64::MAX);
    }
}
