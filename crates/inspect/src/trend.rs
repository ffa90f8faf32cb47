//! `statsym-inspect trend`: cross-run analytics over a manifest
//! archive.
//!
//! Where `diff` compares a run against one frozen baseline, `trend`
//! compares the archive's **last** run against a sliding window of its
//! predecessors, per metric, using robust statistics: the window median
//! and the MAD-derived sigma (1.4826·MAD — the consistency constant
//! that makes the MAD estimate the standard deviation under normality).
//! A metric regresses when the last value sits more than `--sigma`
//! robust deviations above the window median (increases only: every
//! manifest metric is a cost). A zero-MAD window — the common case for
//! deterministic steps-clock runs, where the window is byte-identical —
//! degenerates to "any increase beyond `--min-delta` regresses".
//!
//! `--first-bad <metric>` answers the follow-up question: *which run
//! broke it?* It takes the earliest `--window` runs as the baseline and
//! scans forward for the first run the same verdict calls a regression
//! — first-bad-run isolation without a rebuild-and-bisect loop, because
//! the archive already holds every data point.

use statsym_telemetry::manifest::RunManifest;

/// Options shared by [`trend`] and [`first_bad`].
#[derive(Debug, Clone)]
pub struct TrendOpts {
    /// Window size: how many preceding runs form the baseline.
    pub window: usize,
    /// Robust z-score above which an increase is a regression.
    pub sigma: f64,
    /// Minimum absolute increase for a regression (and the entire
    /// threshold when the window has zero spread).
    pub min_delta: f64,
    /// Metric-name prefixes to analyze (empty = every folded metric).
    pub metrics: Vec<String>,
    /// Keep only records with this `source`.
    pub source: Option<String>,
    /// Keep only records with this `run` name.
    pub run: Option<String>,
}

impl Default for TrendOpts {
    fn default() -> Self {
        TrendOpts {
            window: 8,
            sigma: 3.0,
            min_delta: 0.0,
            metrics: Vec::new(),
            source: None,
            run: None,
        }
    }
}

/// Fewest baseline values a metric needs before it is gateable.
const MIN_WINDOW: usize = 3;

/// The rendered trend table plus the regression verdict.
#[derive(Debug)]
pub struct TrendReport {
    /// Human-readable per-metric table.
    pub rendered: String,
    /// Metrics whose last value regressed beyond the threshold.
    pub regressions: usize,
}

/// Median of a non-empty sorted slice.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `(median, mad)` of a non-empty value set.
fn median_mad(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let med = median_sorted(&sorted);
    let mut dev: Vec<f64> = sorted.iter().map(|v| (v - med).abs()).collect();
    dev.sort_by(f64::total_cmp);
    (med, median_sorted(&dev))
}

/// The consistency constant turning a MAD into a normal-equivalent
/// standard deviation.
const MAD_SIGMA: f64 = 1.4826;

/// One metric's windowed verdict.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Within the robust band (or an improvement).
    Ok,
    /// Increase beyond the threshold.
    Regression,
    /// Fewer than [`MIN_WINDOW`] baseline values carry the metric.
    New,
}

/// Evaluates one metric: baseline `window` values vs `last`.
fn judge(window: &[f64], last: f64, opts: &TrendOpts) -> (Verdict, f64, f64, f64) {
    if window.len() < MIN_WINDOW {
        return (Verdict::New, 0.0, 0.0, 0.0);
    }
    let (med, mad) = median_mad(window);
    let spread = MAD_SIGMA * mad;
    let delta = last - med;
    let z = if spread > 0.0 {
        delta / spread
    } else if delta > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let regressed = if spread > 0.0 {
        delta > opts.min_delta && z > opts.sigma
    } else {
        delta > opts.min_delta
    };
    (
        if regressed {
            Verdict::Regression
        } else {
            Verdict::Ok
        },
        med,
        mad,
        z,
    )
}

/// The archive records matching the `source`/`run` filters, in order.
fn matching<'a>(manifests: &'a [RunManifest], opts: &TrendOpts) -> Vec<&'a RunManifest> {
    manifests
        .iter()
        .filter(|m| opts.source.as_ref().is_none_or(|s| &m.source == s))
        .filter(|m| opts.run.as_ref().is_none_or(|r| &m.run == r))
        .collect()
}

/// A manifest's value for `metric`: a folded counter, a folded gauge,
/// or the pseudo-metric `ticks`.
fn metric_value(m: &RunManifest, metric: &str) -> Option<f64> {
    if metric == "ticks" {
        return Some(m.ticks as f64);
    }
    if let Some(v) = m.counters.get(metric) {
        return Some(*v as f64);
    }
    m.gauges.get(metric).map(|v| *v as f64)
}

/// Metric names the last run carries, prefix-filtered, `ticks` first.
fn metric_names(last: &RunManifest, opts: &TrendOpts) -> Vec<String> {
    let mut names = vec!["ticks".to_string()];
    names.extend(last.counters.keys().cloned());
    names.extend(last.gauges.keys().cloned());
    if !opts.metrics.is_empty() {
        names.retain(|n| opts.metrics.iter().any(|p| n.starts_with(p)));
    }
    names
}

fn fmt(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:.1}")
    }
}

/// Renders the windowed trend table for the archive's last matching run.
///
/// # Errors
///
/// Returns a rendered error when the filters match nothing at all (a
/// thin-but-nonempty archive renders a "not enough history" note and
/// gates clean instead — seeding order must not fail CI).
pub fn trend(manifests: &[RunManifest], opts: &TrendOpts) -> Result<TrendReport, String> {
    let rows = matching(manifests, opts);
    if rows.is_empty() {
        return Err("no archive records match the filters".to_string());
    }
    let (last, base) = rows.split_last().expect("nonempty");
    let window: Vec<&RunManifest> = base.iter().rev().take(opts.window).rev().copied().collect();
    let mut out = format!(
        "trend: last of {} matching run(s) vs window of {} (sigma {}, min-delta {})\n",
        rows.len(),
        window.len(),
        opts.sigma,
        opts.min_delta
    );
    if window.len() < MIN_WINDOW {
        out.push_str(&format!(
            "\nnot enough history ({} baseline run(s), need >= {MIN_WINDOW}) — nothing to gate\n",
            window.len()
        ));
        return Ok(TrendReport {
            rendered: out,
            regressions: 0,
        });
    }
    out.push_str(&format!(
        "\n  {:<40} {:>3} {:>12} {:>8} {:>12} {:>8}  verdict\n",
        "metric", "n", "median", "mad", "last", "z"
    ));
    let mut regressions = 0usize;
    for name in metric_names(last, opts) {
        let values: Vec<f64> = window
            .iter()
            .filter_map(|m| metric_value(m, &name))
            .collect();
        let last_v = metric_value(last, &name).expect("name taken from last run");
        let (verdict, med, mad, z) = judge(&values, last_v, opts);
        let (verdict_s, z_s) = match verdict {
            Verdict::Ok => ("ok", format!("{z:>8.1}")),
            Verdict::Regression => {
                regressions += 1;
                (
                    "REGRESSION",
                    if z.is_infinite() {
                        format!("{:>8}", "inf")
                    } else {
                        format!("{z:>8.1}")
                    },
                )
            }
            Verdict::New => ("new", format!("{:>8}", "-")),
        };
        out.push_str(&format!(
            "  {:<40} {:>3} {:>12} {:>8} {:>12} {}  {}\n",
            name,
            values.len(),
            fmt(med),
            fmt(mad),
            fmt(last_v),
            z_s,
            verdict_s
        ));
    }
    out.push_str(&format!("\n{regressions} regression(s)\n"));
    Ok(TrendReport {
        rendered: out,
        regressions,
    })
}

/// Isolates the first archive run whose `metric` the windowed table's
/// verdict would call a regression against the earliest `--window`
/// runs. Renders either the first bad run's identity or a
/// no-regression note.
///
/// # Errors
///
/// Returns a rendered error when the filters match nothing, or the
/// metric appears in fewer than three baseline runs.
pub fn first_bad(
    manifests: &[RunManifest],
    metric: &str,
    opts: &TrendOpts,
) -> Result<String, String> {
    let rows = matching(manifests, opts);
    if rows.is_empty() {
        return Err("no archive records match the filters".to_string());
    }
    let split = opts.window.min(rows.len());
    let baseline: Vec<f64> = rows[..split]
        .iter()
        .filter_map(|m| metric_value(m, metric))
        .collect();
    if baseline.len() < MIN_WINDOW {
        return Err(format!(
            "metric `{metric}` appears in only {} of the first {split} run(s); \
             need >= {MIN_WINDOW} baseline values",
            baseline.len()
        ));
    }
    let (med, mad) = median_mad(&baseline);
    let mut out = format!(
        "first-bad {metric}: baseline median {} mad {} over first {} run(s) (sigma {}, min-delta {})\n",
        fmt(med),
        fmt(mad),
        baseline.len(),
        opts.sigma,
        opts.min_delta
    );
    for (i, m) in rows.iter().enumerate().skip(split) {
        let Some(v) = metric_value(m, metric) else {
            continue;
        };
        if judge(&baseline, v, opts).0 == Verdict::Regression {
            out.push_str(&format!(
                "first bad run: #{} id {} run {} git {} — {metric} {} (baseline {})\n",
                i + 1,
                m.id(),
                m.run,
                m.git,
                fmt(v),
                fmt(med)
            ));
            return Ok(out);
        }
    }
    out.push_str("no run deviates beyond the threshold\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(steps: u64) -> RunManifest {
        let mut m = RunManifest {
            source: "bench".to_string(),
            run: "grep".to_string(),
            git: "abc123def456".to_string(),
            clock: "steps".to_string(),
            ticks: steps / 2,
            budget: "none".to_string(),
            ..RunManifest::default()
        };
        m.counters.insert("symex.steps".to_string(), steps);
        m.gauges.insert("symex.peak_live_states".to_string(), 5);
        m
    }

    fn archive(steps: &[u64]) -> Vec<RunManifest> {
        steps.iter().map(|&s| run(s)).collect()
    }

    #[test]
    fn identical_deterministic_runs_gate_clean() {
        let ms = archive(&[100; 10]);
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        assert_eq!(r.regressions, 0, "{}", r.rendered);
        assert!(r.rendered.contains("symex.steps"), "{}", r.rendered);
        assert!(r.rendered.contains("0 regression(s)"), "{}", r.rendered);
    }

    #[test]
    fn spike_over_flat_window_regresses_with_infinite_z() {
        let mut ms = archive(&[100; 9]);
        ms.push(run(500));
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        assert_eq!(
            r.regressions, 2,
            "steps and ticks both spike: {}",
            r.rendered
        );
        assert!(r.rendered.contains("inf  REGRESSION"), "{}", r.rendered);
    }

    #[test]
    fn noisy_window_needs_a_real_outlier() {
        // Window spread ±2 around 100: a 3-sigma bar sits near 109.
        let base = [98, 100, 102, 99, 101, 100, 98, 102];
        let mut ms = archive(&base);
        ms.push(run(104));
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        let steps_row = r
            .rendered
            .lines()
            .find(|l| l.contains("symex.steps"))
            .unwrap()
            .to_string();
        assert!(steps_row.ends_with("ok"), "{steps_row}");

        let mut ms = archive(&base);
        ms.push(run(150));
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        assert!(r.regressions >= 1, "{}", r.rendered);
    }

    #[test]
    fn improvements_never_regress() {
        let mut ms = archive(&[100; 9]);
        ms.push(run(40));
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        assert_eq!(r.regressions, 0, "{}", r.rendered);
    }

    #[test]
    fn min_delta_absorbs_flat_window_jitter() {
        let mut ms = archive(&[100; 9]);
        ms.push(run(103));
        let strict = trend(&ms, &TrendOpts::default()).unwrap();
        assert!(strict.regressions >= 1, "{}", strict.rendered);
        let lenient = trend(
            &ms,
            &TrendOpts {
                min_delta: 5.0,
                ..TrendOpts::default()
            },
        )
        .unwrap();
        assert_eq!(lenient.regressions, 0, "{}", lenient.rendered);
    }

    #[test]
    fn thin_archive_notes_and_gates_clean() {
        let ms = archive(&[100, 100, 100]);
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        assert_eq!(r.regressions, 0);
        assert!(r.rendered.contains("not enough history"), "{}", r.rendered);
        assert!(trend(&[], &TrendOpts::default()).is_err());
    }

    #[test]
    fn metric_prefix_filter_restricts_the_table() {
        let ms = archive(&[100; 10]);
        let r = trend(
            &ms,
            &TrendOpts {
                metrics: vec!["symex.".to_string()],
                ..TrendOpts::default()
            },
        )
        .unwrap();
        assert!(r.rendered.contains("symex.steps"), "{}", r.rendered);
        assert!(!r.rendered.contains("\n  ticks"), "{}", r.rendered);
    }

    #[test]
    fn source_filter_selects_the_right_series() {
        let mut ms = archive(&[100; 10]);
        for m in &mut ms {
            m.source = "testkit".to_string();
        }
        ms.extend(archive(&[100; 9]));
        ms.push(run(999));
        let r = trend(
            &ms,
            &TrendOpts {
                source: Some("testkit".to_string()),
                ..TrendOpts::default()
            },
        )
        .unwrap();
        assert_eq!(r.regressions, 0, "testkit series is flat: {}", r.rendered);
    }

    #[test]
    fn first_bad_isolates_the_first_bad_run() {
        // 8 good, then the break, then more bad runs.
        let mut steps: Vec<u64> = vec![100; 8];
        steps.extend([100, 480, 500, 505]);
        let ms = archive(&steps);
        let out = first_bad(&ms, "symex.steps", &TrendOpts::default()).unwrap();
        assert!(out.contains("first bad run: #10"), "{out}");
        assert!(out.contains("symex.steps 480"), "{out}");

        let clean = archive(&[100; 12]);
        let out = first_bad(&clean, "symex.steps", &TrendOpts::default()).unwrap();
        assert!(out.contains("no run deviates"), "{out}");
    }

    #[test]
    fn first_bad_rejects_unknown_metric() {
        let ms = archive(&[100; 10]);
        let err = first_bad(&ms, "no.such", &TrendOpts::default()).unwrap_err();
        assert!(err.contains("no.such"), "{err}");
    }

    #[test]
    fn gauges_and_ticks_are_analyzable_metrics() {
        let ms = archive(&[100; 10]);
        let r = trend(&ms, &TrendOpts::default()).unwrap();
        assert!(
            r.rendered.contains("symex.peak_live_states"),
            "{}",
            r.rendered
        );
        assert!(r.rendered.contains("ticks"), "{}", r.rendered);
        let out = first_bad(&ms, "ticks", &TrendOpts::default()).unwrap();
        assert!(out.contains("no run deviates"), "{out}");
    }
}
