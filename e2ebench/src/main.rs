//! End-to-end benchmark of the StatSym pipeline on fixed job lists.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <grep-full|thttpd-30|grep-decoys|small-apps> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process, one thread, one client: jobs run one at a time in a
//! closed loop. `--seed` and `--seconds` fix the job list; no clock
//! decides how many jobs run, so every run of a seed does identical
//! work. The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` for the metrics and workloads.

mod job;
mod workloads;

use job::{prepare, run_job, run_traced_job, JobRun, Layers, Prepared};
use statsym_core::pipeline::{config_fingerprint, StatSymConfig};
use statsym_telemetry::NOOP;
use std::time::Instant;
use workloads::Workload;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage_exit(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage_exit(&format!("{flag} needs a whole number")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::by_name(&value)
                        .unwrap_or_else(|| usage_exit(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number().max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage_exit("--trace needs 0 or 1"),
            },
            _ => usage_exit(&format!("unknown argument `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage_exit("--workload is required")),
        seed: seed.unwrap_or_else(|| usage_exit("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage_exit("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage_exit("--trace is required")),
    }
}

/// Corpus seed of job `i` in the list that `run_seed` expands to
/// (SplitMix64 over the pair).
fn job_seed(run_seed: u64, i: usize) -> u64 {
    let mut z = run_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    assert!(value.is_finite(), "{name} is not finite: {value}");
    Metric { name, value, unit }
}

/// Panics loudly when a repetition of a job did not reproduce its exact
/// work counts.
fn assert_same_counts(what: &str, reference: &JobRun, repeat: &JobRun) {
    let (a, b) = (reference.signatures(), repeat.signatures());
    assert!(
        a == b,
        "nondeterminism: {what} of job seed {} did not repeat its work counts\n  \
         first:  {a:?}\n  repeat: {b:?}",
        reference.seed
    );
}

/// Re-runs `seed`'s job with a step-clock trace recorder and appends the
/// run manifest to the history archive under `e2ebench/out/`, through the
/// bench binaries' `--trace`/`--history` plumbing, so `statsym-inspect
/// trend e2ebench/out/history` reads benchmark runs. Untimed.
fn record_manifest(args: &Args, cfg: &StatSymConfig, apps: &[Prepared], seed: u64) -> JobRun {
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(out).unwrap_or_else(|e| panic!("cannot create {out}: {e}"));
    let trace = format!(
        "{out}/{}-seed{}-trace{}.jsonl",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    );
    let mut flags = vec![
        "--trace".to_string(),
        trace,
        "--history".to_string(),
        format!("{out}/history"),
    ];
    let mut sink = bench::TraceSink::extract(&mut flags);
    sink.set_manifest_meta(args.seed, &config_fingerprint(cfg), &format!("{cfg:#?}"));
    let job = run_job(args.workload, cfg, apps, seed, sink.recorder());
    sink.finish();
    job
}

fn end_to_end(setup_s: Vec<f64>, jobs: &[JobRun]) -> Vec<Metric> {
    let n = jobs.len() as f64;
    let per_job = |f: fn(&job::Signature) -> u64| {
        jobs.iter()
            .flat_map(|j| j.apps.iter())
            .map(|a| f(&a.sig) as f64)
            .sum::<f64>()
            / n
    };
    vec![
        metric("setup_s", median(setup_s), "s"),
        metric(
            "job_s_p50",
            median(jobs.iter().map(|j| j.job_s).collect()),
            "s",
        ),
        metric(
            "verdict_s_p50",
            median(jobs.iter().map(|j| j.verdict_s).collect()),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("paths_per_job", per_job(|s| s.paths), "count"),
        metric("attempts_per_job", per_job(|s| s.attempts), "count"),
    ]
}

fn per_layer(compile_s: Vec<f64>, untraced: &[JobRun], traced: &[JobRun]) -> Vec<Metric> {
    let n = traced.len() as f64;
    let sum = |f: fn(&Layers) -> f64| traced.iter().map(|j| f(&j.layers)).sum::<f64>();
    let mean = |f: fn(&Layers) -> f64| sum(f) / n;
    let p50 = |f: fn(&Layers) -> f64| median(traced.iter().map(|j| f(&j.layers)).collect());
    let job_p50 = |jobs: &[JobRun]| median(jobs.iter().map(|j| j.job_s).collect());
    vec![
        metric("sir.compile_s", median(compile_s), "s"),
        metric("concrete.corpus_s", p50(|l| l.corpus_s), "s"),
        metric(
            "concrete.records_per_job",
            mean(|l| l.records as f64),
            "count",
        ),
        metric(
            "concrete.records_per_s",
            ratio(sum(|l| l.records as f64), sum(|l| l.corpus_s)),
            "1/s",
        ),
        metric("core.preprocess_s", p50(|l| l.preprocess_s), "s"),
        metric("core.predicates_s", p50(|l| l.predicates_s), "s"),
        metric("core.mine_s", p50(|l| l.mine_s), "s"),
        metric("core.search_s", p50(|l| l.search_s), "s"),
        metric("core.analysis_s", p50(Layers::analysis_s), "s"),
        metric("core.predicates", mean(|l| l.predicates as f64), "count"),
        metric("core.candidates", mean(|l| l.candidates as f64), "count"),
        metric("core.winner_rank", mean(|l| l.winner_rank as f64), "count"),
        metric("symex.attempt_s", p50(|l| l.attempt_s), "s"),
        metric("symex.steps", mean(|l| l.steps as f64), "count"),
        metric(
            "symex.steps_per_s",
            ratio(sum(|l| l.steps as f64), sum(|l| l.attempt_s)),
            "1/s",
        ),
        metric("symex.forks", mean(|l| l.forks as f64), "count"),
        metric(
            "symex.pruned_per_fork",
            ratio(sum(|l| l.pruned as f64), sum(|l| l.forks as f64)),
            "ratio",
        ),
        metric("symex.suspended", mean(|l| l.suspended as f64), "count"),
        metric(
            "symex.states_created",
            mean(|l| l.states_created as f64),
            "count",
        ),
        metric(
            "symex.peak_live_states",
            mean(|l| l.peak_live_states as f64),
            "count",
        ),
        metric("solver.queries", mean(|l| l.queries as f64), "count"),
        metric("solver.nodes", mean(|l| l.nodes as f64), "count"),
        metric(
            "solver.propagation_rounds",
            mean(|l| l.propagation_rounds as f64),
            "count",
        ),
        metric(
            "solver.cache_hit_ratio",
            ratio(sum(|l| l.cache_hits as f64), sum(|l| l.queries as f64)),
            "ratio",
        ),
        metric("solver.query_s", p50(|l| l.query_s), "s"),
        metric(
            "solver.query_share",
            ratio(sum(|l| l.query_s), sum(|l| l.attempt_s)),
            "ratio",
        ),
        metric(
            "telemetry.overhead_ratio",
            job_p50(traced) / job_p50(untraced),
            "ratio",
        ),
    ]
}

fn main() {
    let args = parse_args();
    let wl = args.workload;
    let cfg = wl.config();
    let seeds: Vec<u64> = (0..wl.jobs(args.seconds))
        .map(|i| job_seed(args.seed, i))
        .collect();

    // Set-up, several times: compile the apps, then one untimed warm-up
    // job (the list's first) so lazy allocation lands here, not in job 1.
    let mut setup_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut warmups = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..wl.setups {
        let start = Instant::now();
        let (built, compiled) = prepare(wl);
        warmups.push(run_job(wl, &cfg, &built, seeds[0], &NOOP));
        setup_s.push(start.elapsed().as_secs_f64());
        compile_s.push(compiled);
        apps = built;
    }

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for &seed in &seeds {
        untraced.push(run_job(wl, &cfg, &apps, seed, &NOOP));
        if args.trace {
            // Right after its untraced twin, so the overhead ratio compares
            // jobs run under the same host conditions.
            traced.push(run_traced_job(wl, &cfg, &apps, seed));
        }
    }
    let end_to_end = (!args.trace).then(|| end_to_end(setup_s, &untraced));
    let manifest_job = record_manifest(&args, &cfg, &apps, seeds[0]);

    // Determinism: every repetition of a job repeats its exact counts,
    // and the outside-in phase sequence ranks the same candidate paths
    // as `StatSym::analyze` on the same logs.
    for warm in &warmups {
        assert_same_counts("a set-up warm-up", &untraced[0], warm);
    }
    assert_same_counts("the manifest run", &untraced[0], &manifest_job);
    for (plain, timed) in untraced.iter().zip(&traced) {
        assert_same_counts("the traced run", plain, timed);
        for (a, b) in plain.apps.iter().zip(&timed.apps) {
            assert!(
                a.ranked == b.ranked,
                "{} job seed {}: the traced phase sequence ranked other candidate paths \
                 than StatSym::analyze",
                a.app,
                plain.seed
            );
        }
    }

    // Verdict accounting over every timed job.
    let checked: Vec<&JobRun> = untraced.iter().chain(&traced).collect();
    for job in &checked {
        eprintln!(
            "job seed {:>20}: job {:.4} s, verdict {:.4} s, {} steps, {} solver nodes",
            job.seed, job.job_s, job.verdict_s, job.layers.steps, job.layers.nodes
        );
    }
    let failed: Vec<&JobRun> = checked.iter().copied().filter(|j| j.failed()).collect();
    for job in &failed {
        for app in job.apps.iter().filter(|a| a.failure.is_some()) {
            eprintln!(
                "FAILED job seed {}: {}: {}",
                job.seed,
                app.app,
                app.failure.as_deref().unwrap_or_default()
            );
        }
    }

    let metrics = match end_to_end {
        Some(m) => m,
        None => per_layer(compile_s, &untraced, &traced),
    };
    println!(
        "{} seed {}: {} jobs, closed loop, 1 client, 1 thread",
        wl.name,
        args.seed,
        seeds.len()
    );
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<28} {:>16} ({} failed / {} attempted)",
        "fail_ratio",
        ratio(failed.len() as f64, checked.len() as f64),
        failed.len(),
        checked.len()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed.is_empty(),
        checked.len(),
        failed.len(),
        body.join(", ")
    );
}
