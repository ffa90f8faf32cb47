//! Regenerates **Table IV**: paths explored and time to find the bug —
//! StatSym (KLEE w/ statistics guidance) vs pure symbolic execution, at
//! 30% sampling. Pure runs that exhaust the memory budget print
//! `Failed`, as in the paper.
//!
//! Takes the shared flags of [`bench::TraceSink`] (`--trace`,
//! `--clock`, `--lineage`, `--attr`, ...), as `table2`
//! does; the engine flags reach the pure runs too.

use bench::{
    pure_engine_config, run_pure_traced, run_statsym_traced, statsym_config, Table, TraceSink,
    DEFAULT_SAMPLING, PAPER_SEED,
};
use symex::RunOutcome;

fn main() {
    let mut sink = TraceSink::from_args();
    let cfg = sink.configure(statsym_config(), PAPER_SEED);
    let mut table = Table::new(
        "TABLE IV: paths explored and time before finding the bug (30% sampling)",
        &[
            "Benchmark",
            "StatSym #paths",
            "StatSym time(sec)",
            "Pure #paths",
            "Pure time(sec)",
        ],
    );
    for app in benchapps::all_apps() {
        let guided = run_statsym_traced(
            &app,
            DEFAULT_SAMPLING,
            PAPER_SEED,
            100,
            100,
            cfg,
            sink.recorder(),
        );
        assert!(
            guided.report.found.is_some(),
            "StatSym must find the bug in {}",
            app.name
        );
        let pure = run_pure_traced(
            &app,
            sink.engine_config(pure_engine_config()),
            sink.recorder(),
        );
        let pure_time = match &pure.report.outcome {
            RunOutcome::Found(_) => format!("{:.2}", pure.report.wall_time.as_secs_f64()),
            RunOutcome::Exhausted(r) => format!("Failed ({r})"),
            RunOutcome::Completed => "Completed (no bug?)".to_string(),
        };
        table.row(&[
            app.name.to_string(),
            guided.report.total_paths_explored().to_string(),
            format!("{:.2}", guided.report.total_time().as_secs_f64()),
            pure.report.stats.paths_explored.to_string(),
            pure_time,
        ]);
    }
    println!("{}", table.render());
    println!("Paper: StatSym finds all 4; pure KLEE fails (OOM) on CTree, thttpd, Grep");
    println!("and is ~15x slower on polymorph.");
    sink.finish();
}
