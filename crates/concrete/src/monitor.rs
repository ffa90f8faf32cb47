//! The runtime program monitor: Fjalar-style function-boundary logging
//! with probabilistic sampling.
//!
//! At each function entry the monitor records the function's parameters
//! and all global variables; at each exit it records the return value and
//! all globals. Every record is retained with probability `sampling_rate`
//! (the paper's partial logging). String values are recorded as lengths.
//!
//! Records are columnar ([`Records`]): the monitor pushes the site id of
//! the function boundary (`2 * FuncId` on entry, `+ 1` on exit, see
//! [`SiteTable::of`]) and the numeric values, and nothing else. The
//! values stay 4-byte `i32`s while every value of the run fits one.

use crate::event::Location;
use crate::fault::Fault;
use crate::records::{Column, Records, SiteTable};
use crate::value::Value;
use crate::vm::ExecHook;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sir::{FuncBody, FuncId, GlobalDef, Module};
use statsym_telemetry::{names, Recorder, NOOP};
use std::sync::Arc;

/// Whether a run was correct or faulty — the paper's partition of the
/// log corpus (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The run terminated normally.
    Correct,
    /// The run manifested a fault.
    Faulty,
    /// The run hit a resource limit; excluded from statistical analysis.
    Inconclusive,
}

/// The full (sampled) log of one program run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionLog {
    /// Sampled records in execution order.
    pub records: Records,
    /// Correct / faulty annotation (the paper annotates each log file).
    pub verdict: Verdict,
    /// The detected fault, for faulty runs.
    pub fault: Option<Fault>,
}

impl ExecutionLog {
    /// True if this log came from a faulty execution.
    pub fn is_faulty(&self) -> bool {
        self.verdict == Verdict::Faulty
    }

    /// The sequence of sampled locations (the event trace used for
    /// transition mining).
    pub fn locations(&self) -> impl Iterator<Item = &Location> {
        self.records.iter().map(|r| r.loc())
    }
}

/// The monitor: an [`ExecHook`] that collects sampled records.
///
/// # Example
///
/// ```
/// use concrete::{Monitor, Vm, VmConfig};
///
/// let p = minic::parse_program("fn main() -> int { return 0; }")?;
/// let m = sir::lower(&p)?;
/// let vm = Vm::new(&m, VmConfig::default());
/// let mut monitor = Monitor::new(1.0, 42);
/// vm.run_hooked(&Default::default(), &mut monitor)?;
/// let log = monitor.finish_with(&vm.run(&Default::default())?.outcome);
/// assert_eq!(log.records.len(), 2); // main enter + leave
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Monitor<'r> {
    sampling_rate: f64,
    rng: StdRng,
    /// The module's sites; empty until the run starts, unless given.
    table: Arc<SiteTable>,
    /// Each kept record's site id.
    sites: Vec<u32>,
    /// Each kept record's values, back to back.
    values: Column,
    rec: &'r dyn Recorder,
    /// Records kept and dropped, added to `rec` once, on drop.
    sampled: u64,
    dropped: u64,
}

impl std::fmt::Debug for Monitor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("sampling_rate", &self.sampling_rate)
            .field("records", &self.sites.len())
            .finish_non_exhaustive()
    }
}

impl<'r> Monitor<'r> {
    /// Creates a monitor sampling each record with probability
    /// `sampling_rate` (clamped to `[0, 1]`), deterministically seeded.
    pub fn new(sampling_rate: f64, seed: u64) -> Monitor<'static> {
        Monitor::traced(sampling_rate, seed, &NOOP)
    }

    /// Like [`Monitor::new`] with a telemetry recorder: every record
    /// attempt is counted as sampled or dropped. The monitor builds the
    /// module's [`SiteTable`] when the run starts.
    pub fn traced(sampling_rate: f64, seed: u64, rec: &dyn Recorder) -> Monitor<'_> {
        Monitor::sharing(Arc::default(), sampling_rate, seed, rec)
    }

    /// Like [`Monitor::traced`] over a prebuilt `table`, which must be
    /// [`SiteTable::of`] the module the monitored VM runs. Every log of
    /// a corpus collected this way shares one table.
    pub fn sharing(
        table: Arc<SiteTable>,
        sampling_rate: f64,
        seed: u64,
        rec: &dyn Recorder,
    ) -> Monitor<'_> {
        Monitor {
            sampling_rate: sampling_rate.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
            table,
            sites: Vec::new(),
            values: Column::default(),
            rec,
            sampled: 0,
            dropped: 0,
        }
    }

    fn sample(&mut self) -> bool {
        let keep = self.sampling_rate >= 1.0 || self.rng.random_bool(self.sampling_rate);
        if keep {
            self.sampled += 1;
        } else {
            self.dropped += 1;
        }
        keep
    }

    /// Appends a record at `site` logging the numeric view of `own`
    /// (parameters or the return value), then of every global.
    fn push<'a>(&mut self, site: u32, own: impl Iterator<Item = &'a Value>, gvals: &'a [Value]) {
        let before = self.values.len();
        self.values.extend(
            own.chain(gvals)
                .filter_map(|v| v.numeric_view().map(|(num, _)| num)),
        );
        debug_assert_eq!(
            self.values.len() - before,
            self.table.site(site).vars.len(),
            "well-typed values fill the site's static layout"
        );
        self.sites.push(site);
    }

    /// Consumes the collected records into an [`ExecutionLog`], deriving
    /// the verdict from `outcome`.
    pub fn finish_with(mut self, outcome: &crate::vm::Outcome) -> ExecutionLog {
        use crate::vm::Outcome;
        let (verdict, fault) = match outcome {
            Outcome::Exit(_) => (Verdict::Correct, None),
            Outcome::Fault(f) => (Verdict::Faulty, Some(f.clone())),
            Outcome::StepLimit => (Verdict::Inconclusive, None),
        };
        // A log lives as long as its corpus: give back the growth slack.
        self.sites.shrink_to_fit();
        self.values.shrink_to_fit();
        ExecutionLog {
            records: Records::from_parts(
                self.table.clone(),
                std::mem::take(&mut self.sites),
                std::mem::take(&mut self.values),
            ),
            verdict,
            fault,
        }
    }
}

/// Adds the sampled and dropped counts to the recorder, so a run that
/// stops with an error counts the same as one that finishes.
impl Drop for Monitor<'_> {
    fn drop(&mut self) {
        for (name, n) in [
            (names::MONITOR_SAMPLED, self.sampled),
            (names::MONITOR_DROPPED, self.dropped),
        ] {
            if n > 0 {
                self.rec.counter_add(name, n);
            }
        }
    }
}

impl ExecHook for Monitor<'_> {
    fn on_start(&mut self, module: &Module) {
        if self.table.is_empty() {
            self.table = SiteTable::of(module);
        }
        debug_assert_eq!(self.table.len(), 2 * module.funcs.len());
    }

    fn on_enter(
        &mut self,
        id: FuncId,
        _: &FuncBody,
        args: &[Value],
        _: &[GlobalDef],
        gvals: &[Value],
    ) {
        if self.sample() {
            self.push(2 * id.0, args.iter(), gvals);
        }
    }

    fn on_exit(
        &mut self,
        id: FuncId,
        _: &FuncBody,
        ret: Option<&Value>,
        _: &[GlobalDef],
        gvals: &[Value],
    ) {
        if self.sample() {
            self.push(2 * id.0 + 1, ret.into_iter(), gvals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FnEvent, Measure, VarRole};
    use crate::vm::{InputMap, Vm, VmConfig};

    fn logged(src: &str, rate: f64, seed: u64) -> ExecutionLog {
        let p = minic::parse_program(src).unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());
        let mut mon = Monitor::new(rate, seed);
        let r = vm.run_hooked(&InputMap::new(), &mut mon).unwrap();
        mon.finish_with(&r.outcome)
    }

    const SRC: &str = r#"
        global hits: int = 0;
        fn step(x: int) -> int { hits = hits + 1; return x * 2; }
        fn main() -> int {
            let i: int = 0;
            while (i < 5) { i = step(i); i = i + 1; }
            return hits;
        }
    "#;

    #[test]
    fn full_sampling_logs_every_boundary() {
        let log = logged(SRC, 1.0, 1);
        // main enter/leave + 3 step enter/leave pairs (i = 0,1,3 -> 3 calls).
        let enters = log
            .records
            .iter()
            .filter(|r| r.loc().event == FnEvent::Enter)
            .count();
        let leaves = log.records.len() - enters;
        assert_eq!(enters, leaves);
        assert!(log.records.len() >= 6);
        assert_eq!(log.verdict, Verdict::Correct);
    }

    #[test]
    fn records_carry_params_globals_and_returns() {
        let log = logged(SRC, 1.0, 1);
        let step_enter = log
            .records
            .iter()
            .find(|r| *r.loc() == Location::enter("step"))
            .unwrap();
        let names: Vec<String> = step_enter.vars().map(|(v, _)| v.to_string()).collect();
        assert!(names.contains(&"x FUNCPARAM".to_string()));
        assert!(names.contains(&"hits GLOBAL".to_string()));
        let step_leave = log
            .records
            .iter()
            .find(|r| *r.loc() == Location::leave("step"))
            .unwrap();
        assert!(step_leave.vars().any(|(v, _)| v.role == VarRole::Return));
    }

    #[test]
    fn zero_sampling_logs_nothing() {
        let log = logged(SRC, 0.0, 7);
        assert!(log.records.is_empty());
    }

    #[test]
    fn partial_sampling_drops_some_records() {
        let full = logged(SRC, 1.0, 3).records.len();
        let partial = logged(SRC, 0.3, 3).records.len();
        assert!(partial < full, "expected {partial} < {full}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        assert_eq!(logged(SRC, 0.5, 9), logged(SRC, 0.5, 9));
    }

    #[test]
    fn telemetry_counts_sampled_and_dropped_records() {
        use statsym_telemetry::{names, Clock, MemRecorder};

        let p = minic::parse_program(SRC).unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());

        // Full sampling: every boundary is sampled, none dropped.
        let rec = MemRecorder::new(Clock::steps());
        let mut mon = Monitor::traced(1.0, 1, &rec);
        let r = vm.run_hooked(&InputMap::new(), &mut mon).unwrap();
        let kept = mon.finish_with(&r.outcome).records.len() as u64;
        assert_eq!(rec.metrics().counter(names::MONITOR_SAMPLED), Some(kept));
        assert_eq!(rec.metrics().counter(names::MONITOR_DROPPED), None);

        // Zero sampling: every boundary is dropped.
        let rec0 = MemRecorder::new(Clock::steps());
        let mut mon0 = Monitor::traced(0.0, 1, &rec0);
        let r0 = vm.run_hooked(&InputMap::new(), &mut mon0).unwrap();
        assert!(mon0.finish_with(&r0.outcome).records.is_empty());
        assert_eq!(rec0.metrics().counter(names::MONITOR_SAMPLED), None);
        assert_eq!(rec0.metrics().counter(names::MONITOR_DROPPED), Some(kept));
    }

    #[test]
    fn telemetry_counts_records_of_a_run_that_errors() {
        use statsym_telemetry::{names, Clock, MemRecorder};

        // `main` and `step` are entered and `step` left before the
        // missing input stops the run.
        let p = minic::parse_program(
            r#"
            fn step(x: int) -> int { return x + 1; }
            fn main() -> int { let y: int = step(1); return input_int("n") + y; }
            "#,
        )
        .unwrap();
        let m = sir::lower(&p).unwrap();
        let vm = Vm::new(&m, VmConfig::default());
        let rec = MemRecorder::new(Clock::steps());
        let mut mon = Monitor::traced(1.0, 1, &rec);
        assert!(vm.run_hooked(&InputMap::new(), &mut mon).is_err());
        drop(mon);
        assert_eq!(rec.metrics().counter(names::MONITOR_SAMPLED), Some(3));
        assert_eq!(rec.metrics().counter(names::MONITOR_DROPPED), None);
    }

    #[test]
    fn string_params_logged_as_lengths() {
        let log = logged(
            r#"
            fn consume(s: str) { return; }
            fn main() { consume("abcd"); return; }
            "#,
            1.0,
            1,
        );
        let rec = log
            .records
            .iter()
            .find(|r| *r.loc() == Location::enter("consume"))
            .unwrap();
        let (var, val) = rec.vars().next().unwrap();
        assert_eq!(var.measure, Measure::Length);
        assert_eq!(val, 4.0);
    }
}
