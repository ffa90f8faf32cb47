//! `statsym-inspect hotspots`: the per-source-line cost table.
//!
//! An `--attr` trace carries `attr.<func>:<line>.<dim>` counters
//! billing every executor step, fork, suspension, solver query, search
//! node, and (wall clock only) solver µs to the MiniC source location
//! that incurred it. This view folds them into one row per location
//! ([`statsym_telemetry::TraceSummary::attr_locs`]), ranks by a chosen
//! dimension, and shows the share of the total each line explains.
//!
//! Under the step clock the table repeats exactly from run to run, so
//! `--format json` output is cmp-gateable in CI. `--format flame`
//! emits collapsed stacks (`func;line weight`) compatible with
//! inferno / speedscope / flamegraph.pl.

use crate::RunView;
use statsym_telemetry::{names, push_json_str};

/// Output format of the hotspots view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable table.
    Text,
    /// One JSON object, stable key order, integers only.
    Json,
    /// Collapsed-stack lines (`func;line weight`) for flamegraph tools.
    Flame,
}

impl Format {
    /// Parses a `--format` value.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown formats.
    pub fn parse(s: &str) -> Result<Format, String> {
        match s {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "flame" => Ok(Format::Flame),
            other => Err(format!(
                "unknown format `{other}` (expected text, json or flame)"
            )),
        }
    }
}

/// Options for [`hotspots`].
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Index into [`names::ATTR_DIMS`] selecting the ranking dimension.
    pub metric: usize,
    /// Keep at most this many rows (text format only).
    pub top: usize,
    /// Drop rows explaining less than this per-mille share of the
    /// metric total (applies to all formats).
    pub min_millipct: u64,
    /// Output format.
    pub format: Format,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            metric: 0,
            top: 20,
            min_millipct: 0,
            format: Format::Text,
        }
    }
}

/// Parses a `--metric` value into an [`names::ATTR_DIMS`] index.
///
/// # Errors
///
/// Returns a usage message listing the valid dimensions.
pub fn parse_metric(s: &str) -> Result<usize, String> {
    names::ATTR_DIMS
        .iter()
        .position(|d| *d == s)
        .ok_or_else(|| {
            format!(
                "unknown metric `{s}` (expected one of: {})",
                names::ATTR_DIMS.join(", ")
            )
        })
}

/// Renders the per-source-line cost table for a loaded trace.
pub fn hotspots(view: &RunView, opts: &Opts) -> String {
    let locs = view.summary.attr_locs();
    if locs.is_empty() {
        return match opts.format {
            Format::Json => "{\"metric\":\"steps\",\"total\":0,\"locs\":[]}\n".to_string(),
            Format::Flame => String::new(),
            Format::Text => "no attr.* counters in trace (recorded without --attr?)\n".to_string(),
        };
    }

    let metric = opts.metric.min(names::ATTR_DIMS.len() - 1);
    let total: u64 = locs.values().map(|d| d[metric]).sum();
    // Per-mille share of the ranking metric; everything stays integer so
    // the JSON form is byte-comparable across runs.
    let share = |v: u64| -> u64 {
        if total == 0 {
            0
        } else {
            (v as u128 * 1000 / total as u128) as u64
        }
    };

    // BTreeMap iteration is already location-sorted; re-sort by the
    // chosen metric (desc) with the location as deterministic tie-break.
    let mut rows: Vec<(&String, &[u64; 6])> = locs.iter().collect();
    rows.sort_by(|a, b| b.1[metric].cmp(&a.1[metric]).then(a.0.cmp(b.0)));
    rows.retain(|(_, d)| share(d[metric]) >= opts.min_millipct);

    match opts.format {
        Format::Flame => crate::tree::collapsed(
            rows.iter()
                .map(|(loc, d)| (loc.replacen(':', ";", 1), d[metric])),
        ),
        Format::Json => {
            let mut s = String::with_capacity(256);
            s.push_str(&format!(
                "{{\"metric\":\"{}\",\"total\":{total},\"locs\":[",
                names::ATTR_DIMS[metric]
            ));
            for (i, (loc, d)) in rows.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str("{\"loc\":");
                push_json_str(&mut s, loc);
                for (j, dim) in names::ATTR_DIMS.iter().enumerate() {
                    s.push_str(&format!(",\"{dim}\":{}", d[j]));
                }
                s.push_str(&format!(",\"share_milli\":{}}}", share(d[metric])));
            }
            s.push_str("]}\n");
            s
        }
        Format::Text => {
            let shown = rows.len().min(opts.top);
            let loc_w = rows[..shown]
                .iter()
                .map(|(loc, _)| loc.len())
                .max()
                .unwrap_or(0)
                .max(8);
            let mut out = format!(
                "source hotspots by {} ({} location(s), total {total})\n\n",
                names::ATTR_DIMS[metric],
                rows.len()
            );
            out.push_str(&format!(
                "  {:<loc_w$} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>6}\n",
                "location", "steps", "forks", "susp", "queries", "nodes", "us", "%"
            ));
            for (loc, d) in &rows[..shown] {
                out.push_str(&format!(
                    "  {loc:<loc_w$} {:>10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>6}\n",
                    d[0],
                    d[1],
                    d[2],
                    d[3],
                    d[4],
                    d[5],
                    format!("{}.{}", share(d[metric]) / 10, share(d[metric]) % 10),
                ));
            }
            if rows.len() > shown {
                out.push_str(&format!("  … {} more location(s)\n", rows.len() - shown));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::TraceEvent;

    fn counter(name: &str, value: u64) -> TraceEvent {
        TraceEvent::Counter {
            name: name.into(),
            value,
        }
    }

    fn sample() -> RunView {
        RunView::from_events(vec![
            counter("attr.main:3.steps", 60),
            counter("attr.main:3.nodes", 5),
            counter("attr.convert:7.steps", 30),
            counter("attr.convert:7.queries", 4),
            counter("attr.exit:0.steps", 10),
        ])
    }

    #[test]
    fn ranks_locations_by_metric_with_shares() {
        let text = hotspots(&sample(), &Opts::default());
        let main = text.find("main:3").expect("main row");
        let conv = text.find("convert:7").expect("convert row");
        let exit = text.find("exit:0").expect("exit row");
        assert!(main < conv && conv < exit, "{text}");
        assert!(text.contains("total 100"), "{text}");
        assert!(text.contains("60.0"), "{text}");
        assert_eq!(text, hotspots(&sample(), &Opts::default()));
    }

    #[test]
    fn metric_and_min_pct_filter_rows() {
        let opts = Opts {
            metric: parse_metric("queries").unwrap(),
            min_millipct: 500,
            ..Opts::default()
        };
        let text = hotspots(&sample(), &opts);
        // convert:7 holds 100% of the queries; the others hold 0%.
        assert!(text.contains("convert:7"), "{text}");
        assert!(!text.contains("main:3"), "{text}");
    }

    #[test]
    fn top_truncates_rows() {
        let opts = Opts {
            top: 1,
            ..Opts::default()
        };
        let text = hotspots(&sample(), &opts);
        assert!(text.contains("… 2 more location(s)"), "{text}");
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let opts = Opts {
            format: Format::Json,
            ..Opts::default()
        };
        let json = hotspots(&sample(), &opts);
        assert!(
            json.starts_with("{\"metric\":\"steps\",\"total\":100,\"locs\":[{\"loc\":\"main:3\""),
            "{json}"
        );
        assert!(
            json.contains("\"steps\":60") && json.contains("\"share_milli\":600"),
            "{json}"
        );
        statsym_telemetry::json::parse(&json).unwrap();
        assert_eq!(json, hotspots(&sample(), &opts));
    }

    #[test]
    fn flame_emits_collapsed_stacks() {
        let opts = Opts {
            format: Format::Flame,
            ..Opts::default()
        };
        let out = hotspots(&sample(), &opts);
        assert_eq!(out, "convert;7 30\nexit;0 10\nmain;3 60\n");
    }

    #[test]
    fn empty_trace_is_reported_per_format() {
        let text = hotspots(&RunView::from_events(Vec::new()), &Opts::default());
        assert!(text.contains("no attr.*"), "{text}");
        assert!(text.contains("recorded without --attr?"), "{text}");
        let json = hotspots(
            &RunView::from_events(Vec::new()),
            &Opts {
                format: Format::Json,
                ..Opts::default()
            },
        );
        assert_eq!(json, "{\"metric\":\"steps\",\"total\":0,\"locs\":[]}\n");
        let flame = hotspots(
            &RunView::from_events(Vec::new()),
            &Opts {
                format: Format::Flame,
                ..Opts::default()
            },
        );
        assert!(flame.is_empty());
    }

    #[test]
    fn parse_helpers_reject_unknown_values() {
        assert_eq!(parse_metric("nodes"), Ok(4));
        assert!(parse_metric("bogus").is_err());
        assert_eq!(Format::parse("flame"), Ok(Format::Flame));
        assert!(Format::parse("xml").is_err());
    }
}
