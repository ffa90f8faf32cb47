//! `statsym-inspect diff`: the perf-regression gate.
//!
//! Compares two runs metric by metric and flags **increases** beyond a
//! configurable threshold as regressions — every compared quantity
//! (phase ticks, work counters, histogram totals, wall times) is a
//! cost, so up is bad and down is an improvement. Metrics that are
//! legitimately nondeterministic (shared-cache work, wall-clock noise)
//! are excluded with `--ignore <prefix>`.
//!
//! Both operands are canonical JSONL traces, compared phase-by-phase
//! and counter-by-counter; any other file is an error. A metric present
//! on only one side is reported as a schema change, never a regression:
//! a vanished counter is not a "regression to zero", and a new one has
//! no baseline.

use statsym_telemetry::{parse_trace_strict, TraceEvent, TraceSummary};

/// Diff configuration (thresholds and exclusions).
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative increase (percent) above which a metric regresses.
    pub threshold_pct: f64,
    /// Metric-name prefixes excluded from regression checks.
    pub ignore: Vec<String>,
    /// Minimum absolute increase for a regression — keeps ±1 jitter on
    /// tiny counters from tripping a percentage threshold.
    pub min_delta: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            threshold_pct: 10.0,
            ignore: Vec::new(),
            min_delta: 0.0,
        }
    }
}

/// Parses a `--threshold` argument: `20%`, `20`, or `12.5%`.
///
/// # Errors
///
/// Returns a usage message for non-numeric or negative input.
pub fn parse_threshold(s: &str) -> Result<f64, String> {
    let t = s.strip_suffix('%').unwrap_or(s);
    match t.parse::<f64>() {
        Ok(v) if v >= 0.0 && v.is_finite() => Ok(v),
        _ => Err(format!("invalid threshold `{s}`; expected e.g. `20%`")),
    }
}

/// The rendered diff plus the regression verdict.
#[derive(Debug)]
pub struct DiffReport {
    /// Human-readable diff, one line per changed metric.
    pub rendered: String,
    /// Number of metrics that regressed beyond the threshold.
    pub regressions: usize,
}

/// One comparable metric: a stable key and a cost value.
type Metric = (String, f64);

/// Flattens a parsed trace into comparable cost metrics.
fn trace_metrics(events: &[TraceEvent]) -> Vec<Metric> {
    let s = TraceSummary::from_events(events);
    let mut out: Vec<Metric> = Vec::new();
    for sp in &s.spans {
        out.push((format!("phase {}", sp.name), sp.total_ticks as f64));
    }
    for (name, v) in &s.counters {
        out.push((format!("counter {name}"), *v as f64));
    }
    for (name, v) in &s.gauges {
        out.push((format!("gauge {name}"), *v as f64));
    }
    for h in &s.hists {
        out.push((format!("hist {}.count", h.name), h.count as f64));
        out.push((format!("hist {}.sum", h.name), h.sum as f64));
    }
    for (name, n) in &s.event_counts {
        out.push((format!("event {name}"), *n as f64));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// The metric name without its `phase `/`counter `/… kind tag, for
/// `--ignore` prefix matching (so `--ignore portfolio` matches the
/// span, the counters, and the events alike).
fn bare_name(key: &str) -> &str {
    key.split_once(' ').map_or(key, |(_, n)| n)
}

/// Diffs two metric sets under `cfg`. Keys must be sorted.
fn diff_metrics(old: &[Metric], new: &[Metric], cfg: &DiffConfig) -> DiffReport {
    let mut rendered = String::new();
    let mut regressions = 0usize;
    let mut improvements = 0usize;
    let mut schema_changes = 0usize;
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < new.len() {
        let ord = match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) => a.0.cmp(&b.0),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => break,
        };
        match ord {
            std::cmp::Ordering::Less => {
                let (key, v) = &old[i];
                rendered.push_str(&format!("  {key:<44} {v:>14} -> (absent)  [schema]\n"));
                schema_changes += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                let (key, v) = &new[j];
                rendered.push_str(&format!("  {key:<44} (absent) -> {v:>14}  [schema]\n"));
                schema_changes += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let (key, a) = &old[i];
                let b = new[j].1;
                i += 1;
                j += 1;
                if (b - a).abs() < f64::EPSILON * a.abs().max(1.0) {
                    continue;
                }
                let ignored = cfg.ignore.iter().any(|p| bare_name(key).starts_with(p));
                let pct = if *a == 0.0 {
                    f64::INFINITY
                } else {
                    (b - a) / a * 100.0
                };
                let grew = b > *a;
                let is_regression = !ignored
                    && grew
                    && (b - a) >= cfg.min_delta.max(f64::MIN_POSITIVE)
                    && (pct > cfg.threshold_pct);
                let tag = if ignored {
                    "  [ignored]"
                } else if is_regression {
                    "  REGRESSION"
                } else if !grew {
                    improvements += 1;
                    ""
                } else {
                    ""
                };
                regressions += usize::from(is_regression);
                let pct_s = if pct.is_infinite() {
                    "+inf%".to_string()
                } else {
                    format!("{pct:+.1}%")
                };
                rendered.push_str(&format!(
                    "  {key:<44} {} -> {}  {pct_s}{tag}\n",
                    fmt_num(*a),
                    fmt_num(b)
                ));
            }
        }
    }
    rendered.push_str(&format!(
        "\n{regressions} regression(s) over {:.1}% threshold, \
         {improvements} improvement(s), {schema_changes} schema change(s)\n",
        cfg.threshold_pct
    ));
    DiffReport {
        rendered,
        regressions,
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Diffs two JSONL trace files.
///
/// # Errors
///
/// Returns a rendered error when a file is unreadable or not a valid
/// trace.
pub fn diff_files(old_path: &str, new_path: &str, cfg: &DiffConfig) -> Result<DiffReport, String> {
    Ok(diff_metrics(
        &load_metrics(old_path)?,
        &load_metrics(new_path)?,
        cfg,
    ))
}

fn load_metrics(path: &str) -> Result<Vec<Metric>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read: {e}"))?;
    let events = parse_trace_strict(&text)
        .map_err(|e| format!("{path}:{}: not a JSONL trace: {}", e.line, e.reason))?;
    Ok(trace_metrics(&events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: f64) -> DiffConfig {
        DiffConfig {
            threshold_pct: threshold,
            ..DiffConfig::default()
        }
    }

    fn m(pairs: &[(&str, f64)]) -> Vec<Metric> {
        let mut v: Vec<Metric> = pairs.iter().map(|(k, x)| (k.to_string(), *x)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    #[test]
    fn flags_increases_over_threshold_only() {
        let old = m(&[
            ("counter solver.queries", 100.0),
            ("phase engine.run", 50.0),
        ]);
        let new = m(&[
            ("counter solver.queries", 125.0),
            ("phase engine.run", 54.0),
        ]);
        let d = diff_metrics(&old, &new, &cfg(20.0));
        assert_eq!(d.regressions, 1, "{}", d.rendered);
        assert!(d.rendered.contains("REGRESSION"));
        // 8% growth on engine.run stays under the 20% bar.
        assert!(d.rendered.contains("phase engine.run"));
    }

    #[test]
    fn improvements_and_equal_values_do_not_regress() {
        let old = m(&[("counter a", 100.0), ("counter b", 7.0)]);
        let new = m(&[("counter a", 60.0), ("counter b", 7.0)]);
        let d = diff_metrics(&old, &new, &cfg(10.0));
        assert_eq!(d.regressions, 0);
        assert!(d.rendered.contains("counter a"));
        assert!(!d.rendered.contains("counter b"), "{}", d.rendered);
    }

    #[test]
    fn ignore_prefix_suppresses_regressions() {
        let old = m(&[("counter portfolio.cache.hits", 10.0)]);
        let new = m(&[("counter portfolio.cache.hits", 100.0)]);
        let mut c = cfg(10.0);
        c.ignore.push("portfolio".into());
        let d = diff_metrics(&old, &new, &c);
        assert_eq!(d.regressions, 0);
        assert!(d.rendered.contains("[ignored]"));
    }

    #[test]
    fn schema_changes_are_reported_but_never_fail() {
        let old = m(&[("counter gone", 5.0)]);
        let new = m(&[("counter fresh", 5.0)]);
        let d = diff_metrics(&old, &new, &cfg(10.0));
        assert_eq!(d.regressions, 0);
        assert!(d.rendered.contains("(absent)"));
        assert!(d.rendered.contains("2 schema change(s)"));
    }

    #[test]
    fn min_delta_filters_small_absolute_jitter() {
        let old = m(&[("counter tiny", 2.0)]);
        let new = m(&[("counter tiny", 3.0)]);
        let mut c = cfg(10.0);
        assert_eq!(diff_metrics(&old, &new, &c).regressions, 1);
        c.min_delta = 5.0;
        assert_eq!(diff_metrics(&old, &new, &c).regressions, 0);
    }

    #[test]
    fn zero_baseline_growth_is_a_regression() {
        let old = m(&[("counter x", 0.0)]);
        let new = m(&[("counter x", 4.0)]);
        let d = diff_metrics(&old, &new, &cfg(10.0));
        assert_eq!(d.regressions, 1);
        assert!(d.rendered.contains("+inf%"));
    }

    /// Metric list for a trace that folded the given counters — the
    /// same path real traces take through [`trace_metrics`].
    fn counter_trace(counters: &[(&str, u64)]) -> Vec<Metric> {
        let events: Vec<TraceEvent> = counters
            .iter()
            .map(|(name, value)| TraceEvent::Counter {
                name: (*name).to_string(),
                value: *value,
            })
            .collect();
        trace_metrics(&events)
    }

    /// A run with an optional feature *enabled but idle* emits its
    /// counter family at zero; a run with it disabled emits nothing.
    /// Diffing those two configs must read as a schema change (the
    /// counters vanished), never as regressions or improvements.
    #[test]
    fn disabling_a_counter_family_is_a_schema_change() {
        let enabled = counter_trace(&[
            ("solver.indep.queries", 0),
            ("solver.indep.components", 0),
            ("solver.indep.component_hits", 0),
            ("solver.queries", 40),
        ]);
        let disabled = counter_trace(&[("solver.queries", 40)]);
        let d = diff_metrics(&enabled, &disabled, &cfg(10.0));
        assert_eq!(d.regressions, 0, "{}", d.rendered);
        assert!(d.rendered.contains("3 schema change(s)"), "{}", d.rendered);
        assert!(d.rendered.contains("-> (absent)"));
        // And the reverse (turning the feature on) is also schema-only.
        let d = diff_metrics(&disabled, &enabled, &cfg(10.0));
        assert_eq!(d.regressions, 0, "{}", d.rendered);
        assert!(d.rendered.contains("(absent) ->"));
    }

    /// Within one config the family is always present, so a counter
    /// going 0 -> N is a genuine +inf% regression — the zero baseline
    /// distinguishes "feature idle" from "feature missing".
    #[test]
    fn present_at_zero_growth_is_inf_regression_not_schema() {
        let idle = counter_trace(&[("solver.indep.component_hits", 0), ("attr.lines", 0)]);
        let busy = counter_trace(&[("solver.indep.component_hits", 9), ("attr.lines", 12)]);
        let d = diff_metrics(&idle, &busy, &cfg(10.0));
        assert_eq!(d.regressions, 2, "{}", d.rendered);
        assert!(d.rendered.contains("+inf%"));
        assert!(d.rendered.contains("0 schema change(s)"), "{}", d.rendered);
    }

    #[test]
    fn threshold_parser_accepts_percent_suffix() {
        assert_eq!(parse_threshold("20%").unwrap(), 20.0);
        assert_eq!(parse_threshold("12.5").unwrap(), 12.5);
        assert!(parse_threshold("-3%").is_err());
        assert!(parse_threshold("abc").is_err());
    }
}
