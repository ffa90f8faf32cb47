//! Regenerates **Table III**: number of detours and time breakdown at
//! 30% sampling.
//!
//! Takes the shared flags of [`bench::TraceSink`] (`--trace`,
//! `--clock`, `--lineage`, `--attr`, `--workers`, ...), as `table2`
//! does.

use bench::{breakdown_table, statsym_config, TraceSink, PAPER_SEED};

fn main() {
    let mut sink = TraceSink::from_args();
    let cfg = sink.configure(statsym_config(), PAPER_SEED);
    let table = breakdown_table(
        0.3,
        "TABLE III: detours and time breakdown, sampling rate 30%",
        cfg,
        sink.recorder(),
    );
    println!("{}", table.render());
    sink.finish();
}
