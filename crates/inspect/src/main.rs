//! `statsym-inspect` — trace analytics over StatSym JSONL traces.
//!
//! Run it without arguments for the command list (`USAGE` below).
//!
//! Exit codes: 0 success (and no regressions), 1 `diff` found at least
//! one regression, `trend --gate` found a windowed regression, `calib`
//! fell below `--min-corr` or was asked for a `--rank` no run carries,
//! 2 usage or parse error.

use statsym_inspect::diff::{diff_files, parse_threshold, DiffConfig};
use statsym_inspect::{calib, history, hotspots, report, tree, trend, RunView};
use statsym_telemetry::manifest;

const USAGE: &str = "\
usage: statsym-inspect <command> [args]

commands:
  Views of one trace file. Each also accepts --allow-truncated, which
  reads a trace cut short mid-line (a running or crash-cut run) instead
  of exiting 2:

  report <trace.jsonl> [--format text|json]
      Render the run report (phases, counters, gauges, histograms,
      calibration per run, solver callsites by search nodes, the
      candidate attempts with the one that bounded the run, and, for a
      --lineage trace, each candidate path's node coverage). --format
      json emits one machine-readable JSON object with stable key order.
  tree <trace.jsonl> [--format text|flame] [--metric solver-nodes|solver-us|steps]
      Render the exploration tree of a --lineage trace: fork structure,
      suspend causes, per-subtree solver rollups. --format flame emits
      collapsed stacks of --metric (default solver-nodes) keyed by fork
      lineage (inferno / speedscope / flamegraph.pl compatible).
  hotspots <trace.jsonl> [--metric <dim>] [--top <n>] [--min-pct <pct>] [--format text|json|flame]
      Per-source-line cost table from an --attr trace: steps,
      forks, suspensions, solver queries/nodes/µs billed to the MiniC
      line that incurred them. --metric picks the ranking dimension
      (steps, forks, suspends, queries, nodes, us); --min-pct drops
      lines below a share floor; --format flame emits collapsed
      stacks, --format json a stable cmp-gateable object.
  calib <trace.jsonl> [--format text|json] [--min-corr <milli>] [--rank <n>]
      Predicted-vs-actual ranking calibration per run: score and rank
      next to real attempt cost, the winning rank, and the Spearman
      rank-vs-cost correlation (per-mille). --min-corr exits 1 when a
      run correlates below the floor (or nothing is gateable). --rank
      follows the candidate at 1-based rank n in each run instead:
      predicted score vs actual cost, its solver queries by callsite
      and source location, and the last query — where the attempt died
      or won. Exits 1 when no run has that rank.

  Comparisons and run history:

  diff <old> <new> [--threshold <pct>%] [--ignore <prefix>]... [--min-delta <n>]
      Compare two traces. Exits 1 when a metric grew past the threshold
      (default 10%), 2 when either file is not a trace.
  history <archive> [--source <s>] [--run <r>] [--limit <n>]
      List the manifest records of a run-history archive (a directory
      holding history.jsonl, or the file itself) in append order.
  trend <archive> [--window <n>] [--sigma <z>] [--min-delta <n>]
        [--metric <prefix>]... [--source <s>] [--run <r>] [--gate | --first-bad <metric>]
      Windowed drift analysis: the archive's last matching run vs the
      median/MAD of its preceding --window runs (default 8), per
      metric. Increases beyond --sigma (default 3.0) robust deviations
      regress; a zero-spread window regresses on any increase beyond
      --min-delta. With --gate, exits 1 on any regression.
      --first-bad baselines <metric> over the earliest --window runs
      instead and names the first later run the same test calls a
      regression.
";

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some(cmd @ ("report" | "tree" | "hotspots" | "calib")) => {
            let (rest, allow_truncated) = take_flag(&args[1..], "--allow-truncated");
            trace_view(cmd, &rest, allow_truncated)
        }
        Some("diff") => run_diff(&args[1..]),
        Some("history") => run_history(&args[1..]),
        Some("trend") => run_trend(&args[1..]),
        Some(other) => usage_exit(&format!("unknown command `{other}`")),
        None => usage_exit("missing command"),
    };
    std::process::exit(code);
}

/// Runs one command over a single trace file. `--allow-truncated`, the
/// one flag they all share, is already split out of `args`; every
/// trace view then reads the file once, as a [`RunView`].
fn trace_view(cmd: &str, args: &[String], allow_truncated: bool) -> i32 {
    let load = |path: &str| match RunView::load(path, allow_truncated) {
        Ok(view) => view,
        Err(e) => fail(&e),
    };
    let mut rest = Vec::new();
    let mut it = args.iter();
    match cmd {
        "report" => {
            let mut json = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--format" => json = json_format(it.next()),
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "report <trace.jsonl> [--format text|json] [--allow-truncated]",
            );
            let view = load(&path);
            if json {
                println!("{}", view.summary.render_json());
            } else {
                print!("{}", report::report(&view));
            }
            0
        }
        "tree" => {
            let mut flame = false;
            let mut metric = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--format" => match it.next().map(String::as_str) {
                        Some("text") => flame = false,
                        Some("flame") => flame = true,
                        _ => usage_exit("--format requires `text` or `flame`"),
                    },
                    "--metric" => match it.next() {
                        Some(m) => match tree::Metric::parse(m) {
                            Ok(v) => metric = Some(v),
                            Err(e) => usage_exit(&e),
                        },
                        None => usage_exit("--metric requires a value"),
                    },
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "tree <trace.jsonl> [--format text|flame] [--metric <m>] [--allow-truncated]",
            );
            let text = match (flame, metric) {
                (false, None) => tree::tree(&load(&path)),
                (false, Some(_)) => usage_exit("--metric applies to --format flame"),
                (true, m) => tree::flame(&load(&path), m.unwrap_or(tree::Metric::SolverNodes)),
            };
            print!("{text}");
            0
        }
        "hotspots" => {
            let mut opts = hotspots::Opts::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--metric" => match it.next() {
                        Some(m) => match hotspots::parse_metric(m) {
                            Ok(v) => opts.metric = v,
                            Err(e) => usage_exit(&e),
                        },
                        None => usage_exit("--metric requires a value"),
                    },
                    "--top" => match it.next().map(|n| n.parse::<usize>()) {
                        Some(Ok(n)) if n >= 1 => opts.top = n,
                        _ => usage_exit("--top requires a positive integer"),
                    },
                    "--min-pct" => match it.next().map(|n| n.parse::<f64>()) {
                        Some(Ok(v)) if (0.0..=100.0).contains(&v) => {
                            opts.min_millipct = (v * 10.0).round() as u64;
                        }
                        _ => usage_exit("--min-pct requires a percentage in 0..=100"),
                    },
                    "--format" => match it.next() {
                        Some(f) => match hotspots::Format::parse(f) {
                            Ok(v) => opts.format = v,
                            Err(e) => usage_exit(&e),
                        },
                        None => usage_exit("--format requires text, json or flame"),
                    },
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "hotspots <trace.jsonl> [--metric <dim>] [--top <n>] \
                 [--min-pct <pct>] [--format text|json|flame] [--allow-truncated]",
            );
            print!("{}", hotspots::hotspots(&load(&path), &opts));
            0
        }
        "calib" => {
            let mut json = false;
            let mut min_corr = None;
            let mut rank = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--format" => json = json_format(it.next()),
                    "--min-corr" => match it.next().map(|n| n.parse::<i64>()) {
                        Some(Ok(v)) if (-1000..=1000).contains(&v) => min_corr = Some(v),
                        _ => usage_exit("--min-corr requires a per-mille value in -1000..=1000"),
                    },
                    "--rank" => match it.next().map(|n| n.parse::<u64>()) {
                        Some(Ok(n)) if n >= 1 => rank = Some(n),
                        _ => usage_exit("--rank requires a 1-based rank"),
                    },
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "calib <trace.jsonl> [--format text|json] [--min-corr <milli>] [--rank <n>] \
                 [--allow-truncated]",
            );
            let view = load(&path);
            let shown = match rank {
                None => Ok(calib::calib(&view, json)),
                Some(_) if json => usage_exit("--rank renders text only"),
                Some(n) => calib::rank(&view, n),
            };
            let mut code = 0;
            match shown {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    code = 1;
                }
            }
            if let Some(Err(e)) = min_corr.map(|m| calib::gate(&view, m)) {
                eprintln!("error: {e}");
                code = 1;
            }
            code
        }
        _ => unreachable!("main dispatches only trace commands here"),
    }
}

/// Parses a `--format text|json` value: true for JSON.
fn json_format(value: Option<&String>) -> bool {
    match value.map(String::as_str) {
        Some("text") => false,
        Some("json") => true,
        _ => usage_exit("--format requires `text` or `json`"),
    }
}

/// Splits one boolean flag out of `args`.
fn take_flag(args: &[String], flag: &str) -> (Vec<String>, bool) {
    let rest: Vec<String> = args.iter().filter(|a| *a != flag).cloned().collect();
    let found = rest.len() < args.len();
    (rest, found)
}

/// Loads a manifest archive or exits with its line-numbered error.
fn load_archive(archive: &str) -> Vec<statsym_telemetry::manifest::RunManifest> {
    match manifest::load_history(archive) {
        Ok(ms) => ms,
        Err(e) => fail(&format!("{archive}:{}: {}", e.line, e.reason)),
    }
}

fn run_history(args: &[String]) -> i32 {
    // `history add` is not a command; refuse it by name rather than
    // read an archive called `add`.
    if args.first().map(String::as_str) == Some("add") {
        usage_exit("unknown command `history add`");
    }
    let mut f = history::HistoryFilter::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--source" => match it.next() {
                Some(s) => f.source = Some(s.clone()),
                None => usage_exit("--source requires a value"),
            },
            "--run" => match it.next() {
                Some(r) => f.run = Some(r.clone()),
                None => usage_exit("--run requires a value"),
            },
            "--limit" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => f.limit = Some(n),
                _ => usage_exit("--limit requires a positive integer"),
            },
            _ => rest.push(a.clone()),
        }
    }
    let [archive] = positional::<1>(
        &rest,
        "history <archive> [--source <s>] [--run <r>] [--limit <n>]",
    );
    print!("{}", history::list(&load_archive(&archive), &f));
    0
}

fn run_trend(args: &[String]) -> i32 {
    let mut opts = trend::TrendOpts::default();
    let mut gate = false;
    let mut first_bad = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--window" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.window = n,
                _ => usage_exit("--window requires a positive integer"),
            },
            "--sigma" => match it.next().map(|n| n.parse::<f64>()) {
                Some(Ok(v)) if v > 0.0 && v.is_finite() => opts.sigma = v,
                _ => usage_exit("--sigma requires a positive number"),
            },
            "--min-delta" => match it.next().map(|n| n.parse::<f64>()) {
                Some(Ok(v)) if v >= 0.0 && v.is_finite() => opts.min_delta = v,
                _ => usage_exit("--min-delta requires a non-negative number"),
            },
            "--metric" => match it.next() {
                Some(m) => opts.metrics.push(m.clone()),
                None => usage_exit("--metric requires a name prefix"),
            },
            "--source" => match it.next() {
                Some(s) => opts.source = Some(s.clone()),
                None => usage_exit("--source requires a value"),
            },
            "--run" => match it.next() {
                Some(r) => opts.run = Some(r.clone()),
                None => usage_exit("--run requires a value"),
            },
            "--gate" => gate = true,
            "--first-bad" => match it.next() {
                Some(m) => first_bad = Some(m.clone()),
                None => usage_exit("--first-bad requires a metric name"),
            },
            _ => rest.push(a.clone()),
        }
    }
    let [archive] = positional::<1>(
        &rest,
        "trend <archive> [--window <n>] [--sigma <z>] [--min-delta <n>] \
         [--metric <prefix>]... [--source <s>] [--run <r>] [--gate | --first-bad <metric>]",
    );
    if first_bad.is_some() && (gate || !opts.metrics.is_empty()) {
        usage_exit("--first-bad takes neither --gate nor --metric");
    }
    let manifests = load_archive(&archive);
    let shown = match &first_bad {
        Some(metric) => trend::first_bad(&manifests, metric, &opts).map(|text| (text, 0)),
        None => trend::trend(&manifests, &opts)
            .map(|r| (r.rendered, i32::from(gate && r.regressions > 0))),
    };
    match shown {
        Ok((text, code)) => {
            print!("{text}");
            code
        }
        Err(e) => fail(&e),
    }
}

/// Exactly `N` positional arguments, or a usage error.
fn positional<const N: usize>(args: &[String], usage: &str) -> [String; N] {
    if args.len() != N || args.iter().any(|a| a.starts_with("--")) {
        usage_exit(&format!("expected: {usage}"));
    }
    std::array::from_fn(|i| args[i].clone())
}

fn run_diff(args: &[String]) -> i32 {
    let mut cfg = DiffConfig::default();
    let mut paths = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => match it.next() {
                Some(t) => match parse_threshold(t) {
                    Ok(v) => cfg.threshold_pct = v,
                    Err(e) => usage_exit(&e),
                },
                None => usage_exit("--threshold requires a percentage"),
            },
            "--ignore" => match it.next() {
                Some(p) => cfg.ignore.push(p.clone()),
                None => usage_exit("--ignore requires a metric-name prefix"),
            },
            "--min-delta" => match it.next().map(|n| n.parse::<f64>()) {
                Some(Ok(v)) if v >= 0.0 => cfg.min_delta = v,
                _ => usage_exit("--min-delta requires a non-negative number"),
            },
            other if other.starts_with("--") => usage_exit(&format!("unknown diff flag `{other}`")),
            _ => paths.push(a.clone()),
        }
    }
    let [old, new]: [String; 2] = match paths.try_into() {
        Ok(p) => p,
        Err(_) => usage_exit("expected: diff <old> <new>"),
    };
    match diff_files(&old, &new, &cfg) {
        Ok(d) => {
            print!("{}", d.rendered);
            i32::from(d.regressions > 0)
        }
        Err(e) => fail(&e),
    }
}
