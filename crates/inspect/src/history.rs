//! `statsym-inspect history`: the run-history archive viewer.
//!
//! `history <archive>` lists the manifests of a history archive (see
//! [`statsym_telemetry::manifest`]) in append order, with `--source` /
//! `--run` filters and a `--limit` tail window.

use statsym_telemetry::manifest::RunManifest;

/// Row filters for [`list`].
#[derive(Debug, Default)]
pub struct HistoryFilter {
    /// Keep only records with this `source`.
    pub source: Option<String>,
    /// Keep only records with this `run` name.
    pub run: Option<String>,
    /// Keep only the last `n` matching records.
    pub limit: Option<usize>,
}

/// Applies `f` to `manifests`, preserving each record's 1-based archive
/// index.
pub fn filter<'a>(
    manifests: &'a [RunManifest],
    f: &HistoryFilter,
) -> Vec<(usize, &'a RunManifest)> {
    let mut rows: Vec<(usize, &RunManifest)> = manifests
        .iter()
        .enumerate()
        .map(|(i, m)| (i + 1, m))
        .filter(|(_, m)| f.source.as_ref().is_none_or(|s| &m.source == s))
        .filter(|(_, m)| f.run.as_ref().is_none_or(|r| &m.run == r))
        .collect();
    if let Some(n) = f.limit {
        let skip = rows.len().saturating_sub(n);
        rows.drain(..skip);
    }
    rows
}

/// Renders the archive listing, one row per matching record.
pub fn list(manifests: &[RunManifest], f: &HistoryFilter) -> String {
    let rows = filter(manifests, f);
    let mut out = String::new();
    out.push_str(&format!(
        "  {:>4}  {:<16} {:<8} {:<14} {:<12} {:<8} {:>6} {:>10}\n",
        "#", "id", "source", "run", "git", "budget", "winner", "ticks"
    ));
    for (idx, m) in &rows {
        out.push_str(&format!(
            "  {:>4}  {:<16} {:<8} {:<14} {:<12} {:<8} {:>6} {:>10}\n",
            idx,
            m.id(),
            m.source,
            m.run,
            m.git,
            m.budget,
            m.winner_rank,
            m.ticks,
        ));
    }
    out.push_str(&format!(
        "\n{} record(s) shown of {} in archive\n",
        rows.len(),
        manifests.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(run: &str, source: &str, steps: u64) -> RunManifest {
        let mut m = RunManifest {
            source: source.to_string(),
            run: run.to_string(),
            git: "abc123def456".to_string(),
            seed: 7,
            config: "fp".to_string(),
            clock: "steps".to_string(),
            ticks: 100,
            winner_rank: 1,
            budget: "none".to_string(),
            trace: "0000000000000000".to_string(),
            ..RunManifest::default()
        };
        m.counters.insert("symex.steps".to_string(), steps);
        m
    }

    #[test]
    fn list_filters_by_source_run_and_limit() {
        let ms = vec![
            sample("grep", "bench", 10),
            sample("grep", "pipeline", 11),
            sample("sed", "bench", 12),
            sample("grep", "bench", 13),
        ];
        let all = list(&ms, &HistoryFilter::default());
        assert!(all.contains("4 record(s) shown of 4"), "{all}");

        let f = HistoryFilter {
            source: Some("bench".into()),
            run: Some("grep".into()),
            ..HistoryFilter::default()
        };
        let rows = filter(&ms, &f);
        assert_eq!(
            rows.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![1, 4],
            "archive indices survive filtering"
        );

        let f = HistoryFilter {
            limit: Some(2),
            ..HistoryFilter::default()
        };
        let rows = filter(&ms, &f);
        assert_eq!(rows.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![3, 4]);
    }
}
