//! VM throughput benchmark: the concrete interpreter alone, on the
//! inputs a log corpus is collected from.
//!
//! For `grep` and `thttpd` it replays the first `RUNS` inputs of the
//! app's generator at seed 1 (alternately correct- and fault-biased, as
//! the corpus generator asks for them), once bare (`NoHook`) and once
//! under the program monitor at sampling rate 1.0, the paper's full
//! Fjalar instrumentation. Each case replays the inputs `REPS` times and
//! prints the median and the fastest wall time, the instructions per
//! replay and the median instructions per second.
//!
//! The instruction totals are asserted on every repetition: they depend
//! only on the VM's semantics, so a change that moves them fails the
//! bench.

use benchapps::BenchApp;
use concrete::{ExecHook, InputMap, Monitor, NoHook, SiteTable, Vm, VmConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statsym_telemetry::NOOP;
use std::hint::black_box;
use std::time::Instant;

/// Timed replays of each case.
const REPS: usize = 15;

/// Inputs replayed per app.
const RUNS: u64 = 200;

/// Input-generator seed.
const SEED: u64 = 1;

/// `(app, instructions over the RUNS inputs)`: the same bare and
/// monitored, since the monitor only observes.
const APPS: [(&str, u64); 2] = [("grep", 5_003_404), ("thttpd", 277_874)];

/// The first `RUNS` generated inputs of `app`.
fn corpus_inputs(app: &BenchApp) -> Vec<InputMap> {
    let mut rng = StdRng::seed_from_u64(SEED);
    (1..=RUNS)
        .map(|attempt| (app.gen_inputs)(&mut rng, attempt % 2 == 0))
        .collect()
}

/// Runs every input once and returns the instructions executed, under
/// a rate-1.0 monitor when `monitored`.
fn replay(app: &BenchApp, inputs: &[InputMap], monitored: bool) -> u64 {
    let vm = Vm::new(&app.module, VmConfig::default());
    let sites = SiteTable::of(&app.module);
    let mut steps = 0;
    for (seed, inputs) in (0..).zip(inputs) {
        let run = |hook: &mut dyn ExecHook| {
            let r = vm.run_hooked(inputs, hook);
            r.unwrap_or_else(|e| panic!("{}: {e}", app.name))
        };
        let result = if monitored {
            let mut monitor = Monitor::sharing(sites.clone(), 1.0, seed, &NOOP);
            let r = run(&mut monitor);
            black_box(monitor.finish_with(&r.outcome));
            r
        } else {
            run(&mut NoHook)
        };
        steps += result.steps;
    }
    steps
}

fn bench_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");
    for (name, expected) in APPS {
        let app = benchapps::by_name(name).expect("benchmark app");
        let inputs = corpus_inputs(&app);
        for (mode, monitored) in [("bare", false), ("monitor", true)] {
            group.bench_function(format!("{name}/{mode}"), |b| {
                b.iter(|| {
                    let mut secs = Vec::with_capacity(REPS);
                    for _ in 0..REPS {
                        let start = Instant::now();
                        let steps = replay(&app, &inputs, monitored);
                        secs.push(start.elapsed().as_secs_f64());
                        assert_eq!(
                            steps, expected,
                            "{name}/{mode}: instruction total moved (VM semantics changed)"
                        );
                    }
                    let (median, min) = bench::median_min(secs);
                    println!(
                        "vm {name}/{mode:<8} median {:>8.3} ms  min {:>8.3} ms  {expected:>10} instructions {:>8.1} M instructions/s  ({REPS} reps)",
                        median * 1e3,
                        min * 1e3,
                        expected as f64 / median / 1e6
                    );
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_vm);
criterion_main!(benches);
