//! `statsym-inspect` — trace analytics over StatSym JSONL traces.
//!
//! Run it without arguments for the command list (`USAGE` below).
//!
//! Exit codes: 0 success (and no regressions), 1 `diff` found at least
//! one regression, `trend --gate` found a windowed regression,
//! `coverage` fell below `--min`, `calib` fell below `--min-corr`, or
//! `explain` was asked about a rank the trace does not carry, 2 usage
//! or parse error.

use statsym_inspect::diff::{diff_files, parse_threshold, DiffConfig};
use statsym_inspect::{
    calib, coverage, explain, history, hotspots, report, tree, trend, watch, RunView,
};
use statsym_telemetry::manifest;

const USAGE: &str = "\
usage: statsym-inspect <command> [args]

commands:
  Views of one trace file. Each also accepts --allow-truncated, which
  reads a trace cut short mid-line (a running or crash-cut run) instead
  of exiting 2:

  report <trace.jsonl> [--format text|json]
      Render the run report (phases, counters, gauges, histograms,
      solver callsites by search nodes, and the candidate attempts with
      the one that bounded the run). --format json emits one
      machine-readable JSON object with stable key order.
  tree <trace.jsonl> [--format text|flame] [--metric solver-nodes|solver-us|steps]
      Render the exploration tree of a --lineage trace: fork structure,
      suspend causes, per-subtree solver rollups. --format flame emits
      collapsed stacks of --metric (default solver-nodes) keyed by fork
      lineage (inferno / speedscope / flamegraph.pl compatible).
  coverage <trace.jsonl> [--min <pct>]
      Candidate-path node coverage per rank (reached / conjoined /
      conflicted / never reached). Exits 1 below the --min floor.
  hotspots <trace.jsonl> [--metric <dim>] [--top <n>] [--min-pct <pct>] [--format text|json|flame]
      Per-source-line cost table from an --attribution trace: steps,
      forks, suspensions, solver queries/nodes/µs billed to the MiniC
      line that incurred them. --metric picks the ranking dimension
      (steps, forks, suspends, queries, nodes, us); --min-pct drops
      lines below a share floor; --format flame emits collapsed
      stacks, --format json a stable cmp-gateable object.
  explain <trace.jsonl> <rank>
      One ranked candidate end to end: predicted score vs actual cost,
      its solver queries by callsite and source location, and the last
      query — where the attempt died or won. Exits 1 when the trace
      has no record for that rank.
  calib <trace.jsonl> [--format text|json] [--min-corr <milli>]
      Predicted-vs-actual ranking calibration per run: score and rank
      next to real attempt cost, the winning rank, and the Spearman
      rank-vs-cost correlation (per-mille). --min-corr exits 1 when a
      run correlates below the floor (or nothing is gateable).
  watch <trace.jsonl> [--interval <ms>] [--once] [--no-color]
      Live dashboard tailing a growing --lineage trace (the recorder
      flushes after every lineage event); exits when the run's final
      metrics appear. Polling backs off adaptively while the file is
      idle. With --once, the trace is parsed strictly (like report)
      unless --allow-truncated is given. --no-color appends plain
      frames with no ANSI escapes (CI logs, pipes).

  Comparisons and run history:

  diff <old> <new> [--threshold <pct>%] [--ignore <prefix>]... [--min-delta <n>]
      Compare two traces. Exits 1 when a metric grew past the threshold
      (default 10%), 2 when either file is not a trace.
  history <archive> [--source <s>] [--run <r>] [--limit <n>]
      List the manifest records of a run-history archive (a directory
      holding history.jsonl, or the file itself) in append order.
  history add <archive> [--from-trace <trace.jsonl>] [--source <s>] [--run <r>]
              [--seed <n>] [--config <fp>] [--inflate <metric=pct>]... [--repeat <n>]
      Append a record without running a workload: folded from a trace,
      or cloned from the archive's last record. --inflate grows a
      counter (or `ticks`) by pct% — the synthetic-regression injector
      the CI gate self-test uses. --repeat appends the record n times.
  trend <archive> [--window <n>] [--sigma <z>] [--min-delta <n>]
        [--metric <prefix>]... [--source <s>] [--run <r>] [--gate]
      Windowed drift analysis: the archive's last matching run vs the
      median/MAD of its preceding --window runs (default 8), per
      metric. Increases beyond --sigma (default 3.0) robust deviations
      regress; a zero-spread window regresses on any increase beyond
      --min-delta. With --gate, exits 1 on any regression.
  regress <archive> <metric> [--window <n>] [--sigma <z>] [--min-delta <n>]
          [--source <s>] [--run <r>]
      First-bad-run isolation: baselines <metric> over the earliest
      --window runs and reports the first run deviating beyond the
      robust threshold.
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
        Some(
            cmd @ ("report" | "tree" | "coverage" | "hotspots" | "explain" | "calib" | "watch"),
        ) => {
            let (rest, allow_truncated) = take_flag(&args[1..], "--allow-truncated");
            trace_view(cmd, &rest, allow_truncated)
        }
        Some("diff") => run_diff(&args[1..]),
        Some("history") => run_history(&args[1..]),
        Some("trend") => run_trend(&args[1..]),
        Some("regress") => run_regress(&args[1..]),
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
        "coverage" => {
            let mut min = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--min" => match it.next().map(|n| n.parse::<f64>()) {
                        Some(Ok(v)) if (0.0..=100.0).contains(&v) => min = Some(v),
                        _ => usage_exit("--min requires a percentage in 0..=100"),
                    },
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "coverage <trace.jsonl> [--min <pct>] [--allow-truncated]",
            );
            let view = load(&path);
            print!("{}", coverage::coverage(&view, min));
            i32::from(min.is_some_and(|m| !coverage::gate(&view, m)))
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
        "explain" => {
            let [path, rank] =
                positional::<2>(args, "explain <trace.jsonl> <rank> [--allow-truncated]");
            let rank: u64 = rank
                .parse()
                .unwrap_or_else(|_| usage_exit("explain requires a numeric 1-based rank"));
            match explain::explain(&load(&path), rank) {
                Ok(text) => {
                    print!("{text}");
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    1
                }
            }
        }
        "calib" => {
            let mut json = false;
            let mut min_corr = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--format" => json = json_format(it.next()),
                    "--min-corr" => match it.next().map(|n| n.parse::<i64>()) {
                        Some(Ok(v)) if (-1000..=1000).contains(&v) => min_corr = Some(v),
                        _ => usage_exit("--min-corr requires a per-mille value in -1000..=1000"),
                    },
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "calib <trace.jsonl> [--format text|json] [--min-corr <milli>] [--allow-truncated]",
            );
            let view = load(&path);
            print!("{}", calib::calib(&view, json));
            match min_corr.map(|m| calib::gate(&view, m)) {
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    1
                }
                _ => 0,
            }
        }
        "watch" => {
            let mut interval = 500u64;
            let mut once = false;
            let mut no_color = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--interval" => match it.next().map(|n| n.parse::<u64>()) {
                        Some(Ok(ms)) if ms >= 1 => interval = ms,
                        _ => usage_exit("--interval requires a positive millisecond count"),
                    },
                    "--once" => once = true,
                    "--no-color" => no_color = true,
                    _ => rest.push(a.clone()),
                }
            }
            let [path] = positional::<1>(
                &rest,
                "watch <trace.jsonl> [--interval <ms>] [--once] [--allow-truncated] [--no-color]",
            );
            watch::watch(&path, interval, once, allow_truncated, no_color)
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
    if args.first().map(String::as_str) == Some("add") {
        return run_history_add(&args[1..]);
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

fn run_history_add(args: &[String]) -> i32 {
    let mut opts = history::AddOpts::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--from-trace" => match it.next() {
                Some(p) => opts.from_trace = Some(p.clone()),
                None => usage_exit("--from-trace requires a file path"),
            },
            "--source" => match it.next() {
                Some(s) => opts.source = Some(s.clone()),
                None => usage_exit("--source requires a value"),
            },
            "--run" => match it.next() {
                Some(r) => opts.run = Some(r.clone()),
                None => usage_exit("--run requires a value"),
            },
            "--seed" => match it.next().map(|n| n.parse::<u64>()) {
                Some(Ok(n)) => opts.seed = Some(n),
                _ => usage_exit("--seed requires a non-negative integer"),
            },
            "--config" => match it.next() {
                Some(c) => opts.config = Some(c.clone()),
                None => usage_exit("--config requires a fingerprint"),
            },
            "--inflate" => match it.next() {
                Some(s) => match history::parse_inflate(s) {
                    Ok(p) => opts.inflate.push(p),
                    Err(e) => usage_exit(&e),
                },
                None => usage_exit("--inflate requires metric=pct"),
            },
            "--repeat" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.repeat = n,
                _ => usage_exit("--repeat requires a positive integer"),
            },
            _ => rest.push(a.clone()),
        }
    }
    let [archive] = positional::<1>(
        &rest,
        "history add <archive> [--from-trace <t>] [--source <s>] [--run <r>] \
         [--seed <n>] [--config <fp>] [--inflate <metric=pct>]... [--repeat <n>]",
    );
    match history::add(&archive, &opts) {
        Ok(ids) => {
            for id in &ids {
                println!("appended {id}");
            }
            0
        }
        Err(e) => fail(&e),
    }
}

/// Parses the flags `trend` and `regress` share into a [`trend::TrendOpts`].
fn trend_opts(args: &[String]) -> (trend::TrendOpts, bool, Vec<String>) {
    let mut opts = trend::TrendOpts::default();
    let mut gate = false;
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
            _ => rest.push(a.clone()),
        }
    }
    (opts, gate, rest)
}

fn run_trend(args: &[String]) -> i32 {
    let (opts, gate, rest) = trend_opts(args);
    let [archive] = positional::<1>(
        &rest,
        "trend <archive> [--window <n>] [--sigma <z>] [--min-delta <n>] \
         [--metric <prefix>]... [--source <s>] [--run <r>] [--gate]",
    );
    match trend::trend(&load_archive(&archive), &opts) {
        Ok(r) => {
            print!("{}", r.rendered);
            i32::from(gate && r.regressions > 0)
        }
        Err(e) => fail(&e),
    }
}

fn run_regress(args: &[String]) -> i32 {
    let (opts, gate, rest) = trend_opts(args);
    if gate {
        usage_exit("--gate applies to trend, not regress");
    }
    let [archive, metric] = positional::<2>(
        &rest,
        "regress <archive> <metric> [--window <n>] [--sigma <z>] [--min-delta <n>] \
         [--source <s>] [--run <r>]",
    );
    match trend::regress(&load_archive(&archive), &metric, &opts) {
        Ok(text) => {
            print!("{text}");
            0
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
