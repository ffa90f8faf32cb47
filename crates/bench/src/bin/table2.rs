//! Regenerates **Table II**: number of detours and time breakdown
//! (statistical analysis vs guided symbolic execution) at 100% sampling.
//!
//! Takes the shared flags of [`bench::TraceSink`]: `--trace <path>`
//! exports a structured JSONL trace of the run (`--clock wall` stamps
//! it with wall-clock time instead of the deterministic step counter),
//! `--lineage` records the per-state exploration tree for
//! `statsym-inspect tree|coverage|flame|watch`, and `--attr` the
//! per-source-line costs for `hotspots|explain`.

use bench::{breakdown_table, statsym_config, TraceSink, PAPER_SEED};

fn main() {
    let mut sink = TraceSink::from_args();
    let cfg = sink.configure(statsym_config(), PAPER_SEED);
    let table = breakdown_table(
        1.0,
        "TABLE II: detours and time breakdown, sampling rate 100%",
        cfg,
        sink.recorder(),
    );
    println!("{}", table.render());
    sink.finish();
}
