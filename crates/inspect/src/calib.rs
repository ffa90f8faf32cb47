//! `statsym-inspect calib`: ranking-calibration — predicted vs actual.
//!
//! The pipeline emits one `calib.candidate` record per ranked attempt
//! (the statistical score and path length it was ranked on, next to the
//! steps/forks/solver work the attempt actually cost) plus two derived
//! gauges: which rank won and the Spearman correlation between rank
//! order and step cost. This view renders the predicted-vs-actual
//! table per run and recomputes the correlation from the records, so a
//! trace that predates the gauges still summarizes.
//!
//! `--rank <n>` follows the candidate at rank `n` end to end in each
//! run instead: why it was ranked there (score, path length), what its
//! attempt cost, and — in an `--attr` trace — where its solver
//! queries went, ending with the last query, where the attempt died or
//! won. A query belongs to the attempt whose record next follows it
//! (the [`attempt`](crate::attempt) model).
//!
//! `--min-corr <milli>` turns the view into a CI gate: exit 1 when any
//! run's rank-vs-cost correlation falls below the floor (or when the
//! trace has no run with enough candidates to correlate at all) —
//! catching ranking regressions that still find the vulnerability,
//! just at a higher rank than they should.

use std::collections::BTreeMap;

use crate::attempt::Attempt;
use crate::RunView;
use statsym_telemetry::{names, render_calib_table, spearman_milli, CalibCandidate, TraceEvent};

/// The runs that carry `calib.candidate` records.
fn calibrated(view: &RunView) -> Vec<&[Attempt]> {
    view.runs()
        .filter(|run| run.iter().any(|a| a.calib.is_some()))
        .collect()
}

/// One run's calibration records, in rank order.
fn records(run: &[Attempt]) -> impl Iterator<Item = &CalibCandidate> {
    run.iter().filter_map(|a| a.calib.as_ref())
}

/// 1-based rank of the run's winning attempt, if any attempt won.
fn winner_rank(run: &[Attempt]) -> Option<u64> {
    records(run).find(|c| c.found).map(|c| c.rank)
}

/// The run's rank-vs-step-cost correlation in per-mille.
fn corr_milli(run: &[Attempt]) -> Option<i64> {
    let costs: Vec<u64> = records(run).map(|c| c.steps).collect();
    spearman_milli(&costs)
}

/// Renders the predicted-vs-actual calibration table.
pub fn calib(view: &RunView, json: bool) -> String {
    let runs = calibrated(view);
    let s = &view.summary;
    if json {
        return render_json(&runs, view);
    }
    if runs.is_empty() {
        return "no calib.candidate records in trace (recorded before calibration?)\n".to_string();
    }

    let mut out = String::new();
    for (i, run) in runs.iter().enumerate() {
        if runs.len() > 1 {
            out.push_str(&format!("run {}:\n", i + 1));
        }
        render_calib_table(&mut out, records(run));
        match winner_rank(run) {
            Some(w) => out.push_str(&format!("  winner rank: {w}\n")),
            None => out.push_str("  winner rank: - (no attempt found the vulnerability)\n"),
        }
        match corr_milli(run) {
            Some(c) => out.push_str(&format!("  rank-vs-cost corr: {c} milli\n")),
            None => {
                out.push_str("  rank-vs-cost corr: - (needs 2+ attempts with distinct costs)\n")
            }
        }
        out.push('\n');
    }
    if let Some(w) = s.gauge(names::CALIB_WINNER_RANK) {
        out.push_str(&format!("recorded winner_rank gauge: {w}\n"));
    }
    if let Some(c) = s.gauge(names::CALIB_RANK_COST_CORR) {
        out.push_str(&format!("recorded corr gauge: {c} milli\n"));
    }
    out
}

fn render_json(runs: &[&[Attempt]], view: &RunView) -> String {
    let mut out = String::from("{\"runs\":[");
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"candidates\":[");
        for (j, c) in records(run).enumerate() {
            if j > 0 {
                out.push(',');
            }
            c.push_json(&mut out);
        }
        out.push(']');
        if let Some(w) = winner_rank(run) {
            out.push_str(&format!(",\"winner_rank\":{w}"));
        }
        if let Some(c) = corr_milli(run) {
            out.push_str(&format!(",\"corr_milli\":{c}"));
        }
        out.push('}');
    }
    out.push(']');
    if let Some(w) = view.summary.gauge(names::CALIB_WINNER_RANK) {
        out.push_str(&format!(",\"gauge_winner_rank\":{w}"));
    }
    if let Some(c) = view.summary.gauge(names::CALIB_RANK_COST_CORR) {
        out.push_str(&format!(",\"gauge_corr_milli\":{c}"));
    }
    out.push_str("}\n");
    out
}

/// Renders the candidate at 1-based `rank` end to end, one block per
/// run that attempted it.
///
/// # Errors
///
/// Returns a message when no run has a `calib.candidate` record for
/// that rank (recorded without calibration, or rank out of range).
pub fn rank(view: &RunView, rank: u64) -> Result<String, String> {
    let runs = calibrated(view);
    let mut blocks = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        let Some((attempt, cand)) = run
            .iter()
            .find_map(|a| Some((a, a.calib.as_ref().filter(|c| c.rank == rank)?)))
        else {
            continue;
        };
        let mut out = String::new();
        if runs.len() > 1 {
            out.push_str(&format!("run {} of {}: ", i + 1, runs.len()));
        }
        out.push_str(&format!(
            "candidate rank {rank} of {}\n",
            records(run).count()
        ));
        rank_block(view, run, attempt, cand, &mut out);
        blocks.push(out);
    }
    if blocks.is_empty() {
        let total: usize = runs.iter().map(|run| records(run).count()).sum();
        return Err(format!(
            "no calib.candidate record for rank {rank} \
             (trace predates calibration, or rank out of range; \
             trace has {total} candidate record(s) in {} run(s))",
            runs.len()
        ));
    }
    Ok(blocks.join("\n"))
}

/// The body of one `--rank` block: prediction, cost, the run's ranking
/// context, and the attempt's solver queries.
fn rank_block(
    view: &RunView,
    run: &[Attempt],
    attempt: &Attempt,
    cand: &CalibCandidate,
    out: &mut String,
) {
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

    out.push_str("\nranking context:\n");
    let winner = winner_rank(run);
    let this = if winner == Some(cand.rank) {
        "  (this candidate)"
    } else {
        ""
    };
    out.push_str(&format!(
        "  winner rank  {:>10}{this}\n",
        winner.map_or("-".to_string(), |w| w.to_string())
    ));
    if let Some(c) = corr_milli(run) {
        out.push_str(&format!("  rank-vs-cost corr (milli)  {c}\n"));
    }

    // Fold the attempt's queries by callsite disposition and by source
    // location, keeping the last query as the endpoint.
    let mut sites: BTreeMap<(&str, &str, &str), (u64, u64, u64)> = BTreeMap::new();
    let mut locs: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut last = None;
    for &i in &attempt.queries {
        let TraceEvent::Query {
            loc,
            site,
            verdict,
            cache,
            nodes,
            us,
            ..
        } = &view.events[i]
        else {
            continue;
        };
        let e = sites.entry((site, verdict, cache)).or_default();
        e.0 += 1;
        e.1 += nodes;
        e.2 += us;
        let l = locs.entry(loc).or_default();
        l.0 += 1;
        l.1 += nodes;
        last = Some((loc, site, verdict, cache));
    }
    let Some((loc, site, verdict, cache)) = last else {
        out.push_str("\nno query provenance for this attempt (recorded without --attr?)\n");
        return;
    };

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
    out.push_str(&format!(
        "\nlast query: {loc} ({site}, {verdict}, {cache}) — where the attempt {}\n",
        if cand.found { "won" } else { "died" }
    ));
}

/// The `--min-corr` CI gate.
///
/// # Errors
///
/// Returns a message when any run's correlation falls below
/// `min_milli`, or when no run has a defined correlation at all (a
/// trace with nothing to gate must fail loudly, not pass silently).
pub fn gate(view: &RunView, min_milli: i64) -> Result<(), String> {
    let runs = calibrated(view);
    let mut gated = 0usize;
    for (i, run) in runs.iter().enumerate() {
        if let Some(c) = corr_milli(run) {
            gated += 1;
            if c < min_milli {
                return Err(format!(
                    "run {} rank-vs-cost correlation {c} milli is below the \
                     --min-corr floor {min_milli}",
                    i + 1
                ));
            }
        }
    }
    if gated == 0 {
        return Err(format!(
            "--min-corr {min_milli} given but no run has a defined \
             correlation ({} run(s), need 2+ attempts with distinct costs)",
            runs.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use statsym_telemetry::FieldValue;

    fn empty() -> RunView {
        RunView::from_events(Vec::new())
    }

    fn cand(rank: u64, steps: u64, found: bool) -> TraceEvent {
        TraceEvent::Event {
            t: 1,
            name: names::CALIB_CANDIDATE.into(),
            fields: vec![
                ("rank".into(), FieldValue::Uint(rank)),
                ("score_milli".into(), FieldValue::Uint(rank * 100)),
                ("path_len".into(), FieldValue::Uint(4)),
                ("steps".into(), FieldValue::Uint(steps)),
                ("forks".into(), FieldValue::Uint(1)),
                ("snodes".into(), FieldValue::Uint(6)),
                ("found".into(), FieldValue::Uint(u64::from(found))),
            ],
        }
    }

    fn query(loc: &str, verdict: &str, nodes: u64) -> TraceEvent {
        TraceEvent::Query {
            t: 2,
            sid: 1,
            loc: loc.into(),
            rank: 1,
            site: "feasibility".into(),
            verdict: verdict.into(),
            cache: "search".into(),
            nodes,
            us: 0,
        }
    }

    #[test]
    fn rank_reset_starts_a_new_run() {
        let events = vec![
            cand(1, 10, false),
            cand(2, 30, true),
            cand(1, 40, false),
            cand(2, 20, false),
            cand(3, 10, true),
        ];
        let view = RunView::from_events(events);
        let rs = calibrated(&view);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].len(), 2);
        assert_eq!(rs[1].len(), 3);
        assert_eq!(winner_rank(rs[0]), Some(2));
        assert_eq!(winner_rank(rs[1]), Some(3));
        assert_eq!(corr_milli(rs[0]), Some(1000));
        assert_eq!(corr_milli(rs[1]), Some(-1000));
    }

    #[test]
    fn renders_table_winner_and_corr() {
        let events = vec![
            cand(1, 10, false),
            cand(2, 30, true),
            TraceEvent::Gauge {
                name: names::CALIB_WINNER_RANK.into(),
                value: 2,
            },
        ];
        let view = RunView::from_events(events);
        let text = calib(&view, false);
        assert!(text.contains("rank"), "{text}");
        assert!(text.contains("winner rank: 2"), "{text}");
        assert!(text.contains("rank-vs-cost corr: 1000 milli"), "{text}");
        assert!(text.contains("recorded winner_rank gauge: 2"), "{text}");
        assert_eq!(text, calib(&view, false));
    }

    #[test]
    fn json_is_stable_and_parseable() {
        let view = RunView::from_events(vec![cand(1, 10, false), cand(2, 30, true)]);
        let json = calib(&view, true);
        assert!(
            json.starts_with("{\"runs\":[{\"candidates\":[{\"rank\":1,"),
            "{json}"
        );
        assert!(
            json.contains("\"winner_rank\":2,\"corr_milli\":1000"),
            "{json}"
        );
        statsym_telemetry::json::parse(&json).unwrap();
        assert_eq!(json, calib(&view, true));
        // Empty trace: still a valid document.
        assert_eq!(calib(&empty(), true), "{\"runs\":[]}\n");
    }

    #[test]
    fn gate_fails_below_floor_and_on_ungateable_traces() {
        let good = RunView::from_events(vec![cand(1, 10, true), cand(2, 30, false)]);
        assert!(gate(&good, 500).is_ok());
        let bad = RunView::from_events(vec![cand(1, 30, false), cand(2, 10, true)]);
        let err = gate(&bad, 500).unwrap_err();
        assert!(err.contains("-1000"), "{err}");
        // No run with a defined correlation: the gate must not pass.
        assert!(gate(&empty(), 0).is_err());
        assert!(gate(&RunView::from_events(vec![cand(1, 10, true)]), 0).is_err());
    }

    #[test]
    fn empty_trace_is_reported() {
        assert!(calib(&empty(), false).contains("no calib.candidate"));
    }

    fn two_candidates() -> RunView {
        RunView::from_events(vec![
            query("main:3", "sat", 4),
            cand(1, 50, false),
            query("main:3", "sat", 5),
            query("convert:7", "sat", 9),
            query("convert:9", "unsat", 2),
            cand(2, 120, true),
            TraceEvent::Gauge {
                name: names::CALIB_RANK_COST_CORR.into(),
                value: -1000,
            },
        ])
    }

    #[test]
    fn rank_explains_predicted_actual_and_endpoint() {
        let text = rank(&two_candidates(), 2).unwrap();
        assert!(text.starts_with("candidate rank 2 of 2\n"), "{text}");
        assert!(text.contains("score_milli         200"), "{text}");
        assert!(text.contains("steps               120"), "{text}");
        assert!(text.contains("outcome           found"), "{text}");
        assert!(
            text.contains("winner rank           2  (this candidate)"),
            "{text}"
        );
        assert!(text.contains("rank-vs-cost corr (milli)  1000"), "{text}");
        // Rank 1's query precedes rank 1's record; locations rank by nodes.
        assert!(text.contains("n      2  nodes         14"), "{text}");
        let conv = text.find("convert:7").expect("convert:7 row");
        let main = text.find("main:3").expect("main:3 row");
        assert!(conv < main, "{text}");
        assert!(
            text.contains(
                "last query: convert:9 (feasibility, unsat, search) — where the attempt won"
            ),
            "{text}"
        );
        let text = rank(&two_candidates(), 1).unwrap();
        assert!(text.contains("outcome       not found"), "{text}");
        assert!(text.contains("last query: main:3"), "{text}");
        assert!(text.contains("where the attempt died"), "{text}");
        assert!(!text.contains("(this candidate)"), "{text}");
    }

    #[test]
    fn rank_renders_one_block_per_run() {
        let view = RunView::from_events(vec![
            query("f:1", "sat", 3),
            cand(1, 10, true),
            query("g:2", "sat", 8),
            cand(1, 20, false),
            cand(2, 30, true),
        ]);
        let text = rank(&view, 1).unwrap();
        let blocks: Vec<&str> = text.split("run ").skip(1).collect();
        assert_eq!(blocks.len(), 2, "{text}");
        assert!(
            blocks[0].starts_with("1 of 2: candidate rank 1 of 1"),
            "{text}"
        );
        assert!(
            blocks[0].contains("f:1") && !blocks[0].contains("g:2"),
            "{text}"
        );
        assert!(
            blocks[1].starts_with("2 of 2: candidate rank 1 of 2"),
            "{text}"
        );
        assert!(blocks[1].contains("last query: g:2"), "{text}");
        // Rank 2 exists in the second run only.
        let text = rank(&view, 2).unwrap();
        assert!(
            text.starts_with("run 2 of 2: candidate rank 2 of 2\n"),
            "{text}"
        );
    }

    #[test]
    fn missing_rank_is_an_error_and_missing_provenance_is_not() {
        let err = rank(&two_candidates(), 9).unwrap_err();
        assert!(err.contains("rank 9"), "{err}");
        assert!(err.contains("2 candidate record(s) in 1 run(s)"), "{err}");
        let view = RunView::from_events(vec![cand(1, 5, false)]);
        let text = rank(&view, 1).unwrap();
        assert!(text.contains("no query provenance"), "{text}");
        assert!(text.contains("recorded without --attr?"), "{text}");
    }
}
