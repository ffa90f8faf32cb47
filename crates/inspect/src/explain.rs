//! `statsym-inspect explain`: one candidate attempt, end to end.
//!
//! Answers the three questions a ranked attempt leaves behind: why was
//! this candidate ranked where it was (statistical score, path length),
//! what did the attempt actually cost (steps, forks, solver work from
//! its `calib.candidate` record), and where did the solver effort go
//! (its `query` provenance events, grouped by callsite and by source
//! location, ending with the last query — where the attempt died or
//! won). Needs a trace recorded with calibration (any recorded run)
//! and, for the per-location breakdown, `--provenance`.

use std::collections::BTreeMap;

use crate::RunView;
use statsym_telemetry::{names, TraceEvent};

/// Renders the end-to-end story of the candidate at 1-based `rank`.
///
/// # Errors
///
/// Returns a message when the trace has no `calib.candidate` record for
/// that rank (recorded without calibration, or rank out of range).
pub fn explain(view: &RunView, rank: u64) -> Result<String, String> {
    let s = &view.summary;
    let cand = s.calib.iter().find(|c| c.rank == rank).ok_or_else(|| {
        format!(
            "no calib.candidate record for rank {rank} \
             (trace predates calibration, or rank out of range; \
             trace has {} candidate record(s))",
            s.calib.len()
        )
    })?;

    let mut out = format!("candidate rank {rank} of {}\n", s.calib.len());

    out.push_str("\npredicted (statistical ranking):\n");
    out.push_str(&format!("  score_milli  {:>10}\n", cand.score_milli));
    out.push_str(&format!("  path_len     {:>10}\n", cand.path_len));

    out.push_str("\nactual (attempt cost):\n");
    out.push_str(&format!("  steps        {:>10}\n", cand.steps));
    out.push_str(&format!("  forks        {:>10}\n", cand.forks));
    out.push_str(&format!("  solver nodes {:>10}\n", cand.snodes));
    if cand.solver_us > 0 {
        out.push_str(&format!("  solver µs    {:>10}\n", cand.solver_us));
    }
    out.push_str(&format!(
        "  outcome      {:>10}\n",
        if cand.found { "found" } else { "not found" }
    ));

    if s.gauge(names::CALIB_WINNER_RANK).is_some() || s.gauge(names::CALIB_RANK_COST_CORR).is_some()
    {
        out.push_str("\nranking context:\n");
        if let Some(w) = s.gauge(names::CALIB_WINNER_RANK) {
            out.push_str(&format!(
                "  winner rank  {w:>10}{}\n",
                if w == rank as i64 {
                    "  (this candidate)"
                } else {
                    ""
                }
            ));
        }
        if let Some(c) = s.gauge(names::CALIB_RANK_COST_CORR) {
            out.push_str(&format!("  rank-vs-cost corr (milli)  {c}\n"));
        }
    }

    // Provenance: fold this rank's queries by callsite disposition and
    // by source location, keeping the last query as the endpoint.
    let mut sites: BTreeMap<(&str, &str, &str), (u64, u64, u64)> = BTreeMap::new();
    let mut locs: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut last: Option<&TraceEvent> = None;
    for ev in &view.events {
        if let TraceEvent::Query {
            loc,
            rank: r,
            site,
            verdict,
            cache,
            nodes,
            us,
            ..
        } = ev
        {
            if *r != rank {
                continue;
            }
            let e = sites.entry((site, verdict, cache)).or_default();
            e.0 += 1;
            e.1 += nodes;
            e.2 += us;
            let l = locs.entry(loc).or_default();
            l.0 += 1;
            l.1 += nodes;
            last = Some(ev);
        }
    }

    if sites.is_empty() {
        out.push_str("\nno query provenance for this rank (recorded without --provenance?)\n");
        return Ok(out);
    }

    out.push_str("\nsolver queries (site / verdict / cache):\n");
    for ((site, verdict, cache), (n, nodes, us)) in &sites {
        let key = format!("{site} / {verdict} / {cache}");
        out.push_str(&format!(
            "  {key:<36}  n {n:>6}  nodes {nodes:>10}  us {us:>8}\n"
        ));
    }

    out.push_str("\nquery locations (by search nodes):\n");
    let mut rows: Vec<(&str, (u64, u64))> = locs.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
    let loc_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0).max(8);
    for (loc, (n, nodes)) in &rows {
        out.push_str(&format!("  {loc:<loc_w$}  n {n:>6}  nodes {nodes:>10}\n"));
    }

    if let Some(TraceEvent::Query {
        loc,
        site,
        verdict,
        cache,
        ..
    }) = last
    {
        out.push_str(&format!(
            "\nlast query: {loc} ({site}, {verdict}, {cache}) — where the attempt {}\n",
            if cand.found { "won" } else { "died" }
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::FieldValue;

    fn calib_event(rank: u64, score_milli: i64, steps: u64, found: bool) -> TraceEvent {
        TraceEvent::Event {
            t: 1,
            name: names::CALIB_CANDIDATE.into(),
            fields: vec![
                ("rank".into(), FieldValue::Uint(rank)),
                ("score_milli".into(), FieldValue::Int(score_milli)),
                ("path_len".into(), FieldValue::Uint(3)),
                ("steps".into(), FieldValue::Uint(steps)),
                ("forks".into(), FieldValue::Uint(2)),
                ("snodes".into(), FieldValue::Uint(7)),
                ("found".into(), FieldValue::Uint(u64::from(found))),
            ],
        }
    }

    fn query(rank: u64, loc: &str, verdict: &str, nodes: u64) -> TraceEvent {
        TraceEvent::Query {
            t: 2,
            sid: 1,
            loc: loc.into(),
            rank,
            site: "feasibility".into(),
            verdict: verdict.into(),
            cache: "search".into(),
            nodes,
            us: 0,
        }
    }

    fn sample() -> RunView {
        RunView::from_events(vec![
            calib_event(1, 4200, 50, false),
            calib_event(2, 3100, 120, true),
            query(1, "main:3", "sat", 4),
            query(2, "main:3", "sat", 5),
            query(2, "convert:7", "sat", 9),
            query(2, "convert:9", "unsat", 2),
            TraceEvent::Gauge {
                name: names::CALIB_WINNER_RANK.into(),
                value: 2,
            },
            TraceEvent::Gauge {
                name: names::CALIB_RANK_COST_CORR.into(),
                value: -1000,
            },
        ])
    }

    #[test]
    fn explains_predicted_actual_and_endpoint() {
        let text = explain(&sample(), 2).unwrap();
        assert!(text.contains("candidate rank 2 of 2"), "{text}");
        assert!(text.contains("score_milli        3100"), "{text}");
        assert!(text.contains("steps               120"), "{text}");
        assert!(text.contains("outcome           found"), "{text}");
        assert!(
            text.contains("winner rank           2  (this candidate)"),
            "{text}"
        );
        assert!(text.contains("rank-vs-cost corr (milli)  -1000"), "{text}");
        // Rank-1 queries are excluded; locations rank by nodes.
        assert!(text.contains("feasibility / sat / search"), "{text}");
        let conv = text.find("convert:7").expect("convert:7 row");
        let main = text.find("main:3").expect("main:3 row");
        assert!(conv < main, "{text}");
        assert!(
            text.contains(
                "last query: convert:9 (feasibility, unsat, search) — where the attempt won"
            ),
            "{text}"
        );
    }

    #[test]
    fn losing_candidate_dies_at_its_last_query() {
        let text = explain(&sample(), 1).unwrap();
        assert!(text.contains("outcome       not found"), "{text}");
        assert!(text.contains("where the attempt died"), "{text}");
        assert!(!text.contains("(this candidate)"), "{text}");
    }

    #[test]
    fn missing_rank_is_an_error() {
        let err = explain(&sample(), 9).unwrap_err();
        assert!(err.contains("rank 9"), "{err}");
        assert!(err.contains("2 candidate record(s)"), "{err}");
    }

    #[test]
    fn missing_provenance_is_flagged_not_fatal() {
        let view = RunView::from_events(vec![calib_event(1, 10, 5, false)]);
        let text = explain(&view, 1).unwrap();
        assert!(text.contains("no query provenance"), "{text}");
    }
}
