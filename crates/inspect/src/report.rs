//! `statsym-inspect report`: the run report.
//!
//! The report is [`TraceSummary::render`] (phases, metrics, query
//! provenance, calibration) followed by the sections that answer where
//! the solver work went, which ranked candidate bounded the run, and
//! how much of each candidate path the executor engaged.
//! `--format json` prints [`TraceSummary::render_json`] alone.
//!
//! * **solver callsites** — the engine tags every solver call with its
//!   callsite (`feasibility`, `fault_model`, `concretize`,
//!   `report_model`), and the solver emits per-site query counts,
//!   search-node deltas, and — under a wall clock — query-latency
//!   histograms (`solver.site.<site>.*`). Sites rank by search nodes
//!   (the clock-independent work proxy).
//! * **attempts** — one row per candidate attempt, the longest
//!   attempt's share of the summed attempt time, and the steps spent
//!   outside the winning attempt, per pipeline run.
//! * **candidate-path node coverage** — `--lineage` traces only; see
//!   [`coverage`].

use std::collections::BTreeMap;

use crate::{coverage, RunView};
use statsym_telemetry::{names, TraceSummary};

/// Renders the text run report.
pub fn report(view: &RunView) -> String {
    let mut out = view.summary.render();
    callsites(&view.summary, &mut out);
    attempts_section(view, &mut out);
    if let Some(section) = coverage::section(view) {
        out.push('\n');
        out.push_str(&section);
    }
    out
}

#[derive(Debug, Default)]
struct Site {
    queries: u64,
    nodes: u64,
    lat_count: u64,
    lat_sum_us: u64,
}

/// The `(site, metric)` a per-site solver metric name carries.
fn site_metric(name: &str) -> Option<(String, &str)> {
    let (site, metric) = name
        .strip_prefix(names::SOLVER_SITE_PREFIX)?
        .rsplit_once('.')?;
    Some((site.to_string(), metric))
}

/// Appends the per-callsite solver profile; nothing when the trace
/// carries no `solver.site.*` metrics.
fn callsites(s: &TraceSummary, out: &mut String) {
    let mut by_label: BTreeMap<String, Site> = BTreeMap::new();
    for (name, v) in &s.counters {
        match site_metric(name) {
            Some((label, "queries")) => by_label.entry(label).or_default().queries += v,
            Some((label, "nodes")) => by_label.entry(label).or_default().nodes += v,
            _ => {}
        }
    }
    for h in &s.hists {
        if let Some((label, "query_us")) = site_metric(&h.name) {
            let site = by_label.entry(label).or_default();
            site.lat_count += h.count;
            site.lat_sum_us += h.sum;
        }
    }
    if by_label.is_empty() {
        return;
    }
    // Stable sort: equal-cost sites keep their label order.
    let mut sites: Vec<(String, Site)> = by_label.into_iter().collect();
    sites.sort_by_key(|(_, site)| std::cmp::Reverse(site.nodes));

    out.push_str("\nsolver callsites (by search nodes):\n");
    out.push_str(&format!(
        "  {:<28} {:>10} {:>12} {:>12} {:>12}\n",
        "site", "queries", "nodes", "nodes/query", "mean µs"
    ));
    for (label, st) in &sites {
        let per_query = if st.queries == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", st.nodes as f64 / st.queries as f64)
        };
        let mean_us = st
            .lat_sum_us
            .checked_div(st.lat_count)
            .map_or("-".to_string(), |mean| mean.to_string());
        out.push_str(&format!(
            "  {label:<28} {:>10} {:>12} {per_query:>12} {mean_us:>12}\n",
            st.queries, st.nodes
        ));
    }
    let total_nodes = s.counter(names::SOLVER_NODES);
    let attributed: u64 = sites.iter().map(|(_, st)| st.nodes).sum();
    out.push_str(&format!(
        "  total solver nodes: {total_nodes} ({:.1}% attributed to ranked-attempt sites)\n",
        percent(attributed, total_nodes)
    ));
}

/// Appends the attempt timeline with the longest attempt and each
/// run's wasted work; nothing when the trace has no candidate attempts.
/// A trace of several pipeline runs (one per app of a table binary)
/// keys every line by its run.
fn attempts_section(view: &RunView, out: &mut String) {
    let runs: Vec<_> = view.runs().collect();
    let all = || {
        runs.iter()
            .enumerate()
            .flat_map(|(i, run)| run.iter().map(move |a| (i, a)))
    };
    let Some((longest_run, longest)) = all().max_by_key(|(_, a)| a.ticks) else {
        return;
    };
    let multi = runs.len() > 1;
    let run = |i: usize| {
        if multi {
            format!("run {} ", i + 1)
        } else {
            String::new()
        }
    };
    out.push_str(&format!("\nattempts: {} attempt(s)", view.attempts.len()));
    if multi {
        out.push_str(&format!(" in {} runs", runs.len()));
    }
    out.push('\n');
    let run_column = |label: String| {
        if multi {
            format!("{label:<6}")
        } else {
            String::new()
        }
    };
    out.push_str(&format!(
        "  {}{:<6} {:>10} {:>12} {:>7}\n",
        run_column("run".to_string()),
        "rank",
        "steps",
        "ticks",
        "found"
    ));
    for (i, a) in all() {
        out.push_str(&format!(
            "  {}{:<6} {:>10} {:>12} {:>7}\n",
            run_column((i + 1).to_string()),
            a.rank,
            a.steps,
            a.ticks,
            if a.found { "yes" } else { "no" },
        ));
    }

    let total_ticks: u64 = view.attempts.iter().map(|a| a.ticks).sum();
    out.push_str(&format!(
        "  longest attempt: {}rank {} ({} ticks, {:.1}% of summed attempt time)\n",
        run(longest_run),
        longest.rank,
        longest.ticks,
        percent(longest.ticks, total_ticks),
    ));
    for (i, attempts) in runs.iter().enumerate() {
        let total_steps: u64 = attempts.iter().map(|a| a.steps).sum();
        let useful_steps: u64 = attempts.iter().filter(|a| a.found).map(|a| a.steps).sum();
        out.push_str(&format!(
            "  wasted work: {}{:.1}% of {total_steps} steps (everything but the winning attempt)\n",
            run(i),
            percent(total_steps - useful_steps, total_steps)
        ));
    }
}

/// `part` as a percentage of `whole`; 0 when `whole` is 0.
pub(crate) fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::{Clock, FieldValue, MemRecorder};
    use statsym_telemetry::{Recorder, TraceEvent};

    fn counter(name: &str, value: u64) -> TraceEvent {
        TraceEvent::Counter {
            name: name.into(),
            value,
        }
    }

    fn render(events: Vec<TraceEvent>) -> String {
        report(&RunView::from_events(events))
    }

    #[test]
    fn callsites_rank_by_nodes_and_attribute_totals() {
        let text = render(vec![
            counter("solver.site.feasibility.queries", 50),
            counter("solver.site.feasibility.nodes", 900),
            counter("solver.site.concretize.queries", 5),
            counter("solver.site.concretize.nodes", 40),
            counter(names::SOLVER_NODES, 1000),
            TraceEvent::Hist {
                name: "solver.site.feasibility.query_us".into(),
                count: 50,
                sum: 500,
                buckets: vec![(4, 50)],
            },
        ]);
        let feas = text.find("  feasibility ").expect("feasibility row");
        let conc = text.find("  concretize ").expect("concretize row");
        assert!(feas < conc, "{text}");
        // 900 + 40 attributed out of 1000 total.
        assert!(
            text.contains("(94.0% attributed to ranked-attempt sites)"),
            "{text}"
        );
        // 900 nodes / 50 queries, mean latency 500/50 = 10µs.
        let row = text
            .lines()
            .find(|l| l.starts_with("  feasibility "))
            .unwrap();
        assert!(row.ends_with(" 18.0           10"), "{row}");
    }

    #[test]
    fn equal_cost_sites_sort_by_name() {
        // Deterministic tie-break: same node count must order by label,
        // regardless of the order the counters appear in the trace.
        let events = vec![
            counter("solver.site.zeta.nodes", 5),
            counter("solver.site.alpha.nodes", 5),
            counter("solver.site.mid.nodes", 5),
        ];
        let text = render(events.clone());
        let a = text.find("  alpha").expect("alpha row");
        let m = text.find("  mid").expect("mid row");
        let z = text.find("  zeta").expect("zeta row");
        assert!(a < m && m < z, "{text}");
        assert_eq!(text, render(events));
    }

    #[test]
    fn sections_are_omitted_without_data() {
        let text = render(Vec::new());
        assert!(!text.contains("solver callsites"), "{text}");
        assert!(!text.contains("attempts:"), "{text}");
    }

    fn record_attempt(rec: &dyn Recorder, index: u64, steps: u64, found: bool) {
        let sp = rec.span_open(names::CANDIDATE_ATTEMPT);
        rec.tick(steps);
        rec.span_close(sp);
        rec.event(
            names::CANDIDATE_RESULT,
            &[
                ("index", FieldValue::from(index)),
                ("path_len", FieldValue::from(1u64)),
                ("found", FieldValue::from(found)),
                ("paths_explored", FieldValue::from(1u64)),
                ("steps", FieldValue::from(steps)),
            ],
        );
    }

    #[test]
    fn attempts_show_longest_and_waste() {
        let rec = MemRecorder::new(Clock::steps());
        for (i, steps, found) in [(0u64, 100u64, false), (1, 60, false), (2, 40, true)] {
            record_attempt(&rec, i, steps, found);
        }

        let text = render(rec.finish());
        assert!(text.contains("attempts: 3 attempt(s)\n"), "{text}");
        assert!(
            text.contains("longest attempt: rank 1 (100 ticks, 50.0% of summed attempt time)"),
            "{text}"
        );
        // 100 + 60 + 40 = 200 steps total; the winner used 40.
        assert!(text.contains("wasted work: 80.0% of 200 steps"), "{text}");
    }

    #[test]
    fn attempts_are_keyed_by_run() {
        // Two pipeline runs, as a table binary's trace holds one per app.
        let rec = MemRecorder::new(Clock::steps());
        for (i, steps, found) in [(0u64, 100u64, false), (1, 40, true)] {
            record_attempt(&rec, i, steps, found);
        }
        for (i, steps, found) in [(0u64, 30u64, false), (1, 150, false), (2, 20, true)] {
            record_attempt(&rec, i, steps, found);
        }
        let text = render(rec.finish());
        let section = &text[text.find("\nattempts:").expect("an attempts section")..];
        assert_eq!(
            section,
            "\nattempts: 5 attempt(s) in 2 runs\n  \
             run   rank        steps        ticks   found\n  \
             1     1             100          100      no\n  \
             1     2              40           40     yes\n  \
             2     1              30           30      no\n  \
             2     2             150          150      no\n  \
             2     3              20           20     yes\n  \
             longest attempt: run 2 rank 2 (150 ticks, 44.1% of summed attempt time)\n  \
             wasted work: run 1 71.4% of 140 steps (everything but the winning attempt)\n  \
             wasted work: run 2 90.0% of 200 steps (everything but the winning attempt)\n"
        );
    }
}
