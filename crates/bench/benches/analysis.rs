//! Analysis throughput benchmark: log preprocessing and transition
//! mining on the paper's heaviest analysis input.
//!
//! It generates the `grep` corpus at sampling rate 1.0 and seed 1
//! (100 correct and 100 faulty runs, as `e2ebench`'s `grep-full`
//! workload does), then `REPS` times builds the `LogCorpus`, mines the
//! faulty traces' transition graph (Eq. 3) and drops the corpus. Each
//! phase prints the median and the fastest of its `REPS` wall times.
//!
//! The record total and the mined graph's node and edge counts are
//! asserted: they depend only on the corpus generator and on the
//! analysis' semantics, so a change that moves them fails the bench.

use benchapps::{generate_corpus, CorpusSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use statsym_core::transition::MineConfig;
use statsym_core::{LogCorpus, TransitionGraph};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions of each phase.
const REPS: usize = 30;

/// Records in the corpus' logs.
const RECORDS: usize = 349_352;

/// `(nodes, edges)` of the graph mined from the faulty traces.
const GRAPH: (usize, usize) = (18, 26);

/// Median and minimum of `times`.
fn summary(mut times: Vec<Duration>) -> (f64, f64) {
    times.sort_unstable();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    (ms(times[times.len() / 2]), ms(times[0]))
}

fn bench_analysis(c: &mut Criterion) {
    let app = benchapps::by_name("grep").expect("benchmark app");
    let spec = CorpusSpec {
        n_correct: 100,
        n_faulty: 100,
        sampling_rate: 1.0,
        seed: 1,
    };
    let logs = generate_corpus(&app, spec);
    let records: usize = logs.iter().map(|l| l.records.len()).sum();
    assert_eq!(records, RECORDS, "record total moved (corpus changed)");
    c.bench_function("analysis/grep-1.0", |b| {
        b.iter(|| {
            let (mut builds, mut mines, mut drops) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..REPS {
                let start = Instant::now();
                let corpus = LogCorpus::build(&logs);
                builds.push(start.elapsed());

                let start = Instant::now();
                let graph = TransitionGraph::mine(&corpus.faulty_traces, MineConfig::default());
                mines.push(start.elapsed());
                assert_eq!(
                    (graph.node_count(), graph.edge_count()),
                    GRAPH,
                    "mined graph moved (analysis semantics changed)"
                );
                black_box(graph);

                let start = Instant::now();
                drop(corpus);
                drops.push(start.elapsed());
            }
            for (phase, times) in [("build", builds), ("mine", mines), ("drop", drops)] {
                let (median, min) = summary(times);
                println!(
                    "analysis grep-1.0/{phase:<6} median {median:>8.3} ms  min {min:>8.3} ms  ({REPS} reps, {records} records)"
                );
            }
        })
    });
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
