//! The runtime program monitor: Fjalar-style function-boundary logging
//! with probabilistic sampling.
//!
//! At each function entry the monitor records the function's parameters
//! and all global variables; at each exit it records the return value and
//! all globals. Every record is retained with probability `sampling_rate`
//! (the paper's partial logging). String values are recorded as lengths.

use crate::event::{Location, Measure, VarId, VarRole};
use crate::fault::Fault;
use crate::value::Value;
use crate::vm::ExecHook;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sir::{FuncBody, GlobalDef};
use statsym_telemetry::{names, Recorder, NOOP};
use std::collections::HashMap;
use std::sync::Arc;

/// One sampled instrumentation record: a location plus the numeric view
/// of every variable visible there.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The instrumentation point.
    pub loc: Location,
    /// Logged variables and their numeric values.
    pub vars: Vec<(VarId, f64)>,
}

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
    pub records: Vec<LogRecord>,
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
        self.records.iter().map(|r| &r.loc)
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
    records: Vec<LogRecord>,
    rec: &'r dyn Recorder,
    /// Each function's boundary identities, built on its first sampled
    /// record and shared by every later one.
    sites: HashMap<String, FuncSite>,
    /// Global variable names, built on the first sampled record.
    global_names: Vec<Arc<str>>,
    /// The name every return value is logged under.
    ret_name: Arc<str>,
}

/// The shared identities of one function's instrumentation points.
struct FuncSite {
    enter: Location,
    leave: Location,
    params: Vec<Arc<str>>,
}

impl FuncSite {
    fn new(func: &FuncBody) -> FuncSite {
        let name: Arc<str> = func.name.as_str().into();
        FuncSite {
            enter: Location::enter(name.clone()),
            leave: Location::leave(name),
            params: func.params.iter().map(|(p, _)| p.as_str().into()).collect(),
        }
    }
}

impl std::fmt::Debug for Monitor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("sampling_rate", &self.sampling_rate)
            .field("records", &self.records.len())
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
    /// attempt is counted as sampled or dropped.
    pub fn traced(sampling_rate: f64, seed: u64, rec: &dyn Recorder) -> Monitor<'_> {
        Monitor {
            sampling_rate: sampling_rate.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
            records: Vec::new(),
            rec,
            sites: HashMap::new(),
            global_names: Vec::new(),
            ret_name: "ret".into(),
        }
    }

    fn sample(&mut self) -> bool {
        let keep = self.sampling_rate >= 1.0 || self.rng.random_bool(self.sampling_rate);
        let name = if keep {
            names::MONITOR_SAMPLED
        } else {
            names::MONITOR_DROPPED
        };
        self.rec.counter_add(name, 1);
        keep
    }

    /// Builds `func`'s boundary identities and the names of `globals`
    /// unless an earlier record already did.
    fn intern(&mut self, func: &FuncBody, globals: &[GlobalDef]) {
        if self.global_names.len() != globals.len() {
            self.global_names = globals.iter().map(|g| g.name.as_str().into()).collect();
        }
        if !self.sites.contains_key(&func.name) {
            self.sites.insert(func.name.clone(), FuncSite::new(func));
        }
    }

    /// Builds one record's variables: `own` (parameters or the return
    /// value), then every global with a numeric view. The vector is
    /// sized up front: records are the bulk of a corpus's memory.
    fn record_vars<'a>(
        own: impl ExactSizeIterator<Item = (&'a Arc<str>, VarRole, &'a Value)>,
        global_names: &'a [Arc<str>],
        gvals: &'a [Value],
    ) -> Vec<(VarId, f64)> {
        let mut vars = Vec::with_capacity(own.len() + global_names.len());
        let globals = global_names.iter().zip(gvals);
        vars.extend(
            own.chain(globals.map(|(n, v)| (n, VarRole::Global, v)))
                .filter_map(|(name, role, val)| {
                    val.numeric_view().map(|(num, is_len)| {
                        let measure = if is_len {
                            Measure::Length
                        } else {
                            Measure::Value
                        };
                        (VarId::new(name.clone(), role, measure), num)
                    })
                }),
        );
        vars
    }

    /// Consumes the collected records into an [`ExecutionLog`], deriving
    /// the verdict from `outcome`.
    pub fn finish_with(self, outcome: &crate::vm::Outcome) -> ExecutionLog {
        use crate::vm::Outcome;
        let (verdict, fault) = match outcome {
            Outcome::Exit(_) => (Verdict::Correct, None),
            Outcome::Fault(f) => (Verdict::Faulty, Some(f.clone())),
            Outcome::StepLimit => (Verdict::Inconclusive, None),
        };
        ExecutionLog {
            records: self.records,
            verdict,
            fault,
        }
    }
}

impl ExecHook for Monitor<'_> {
    fn on_enter(
        &mut self,
        func: &FuncBody,
        args: &[Value],
        globals: &[GlobalDef],
        gvals: &[Value],
    ) {
        if !self.sample() {
            return;
        }
        self.intern(func, globals);
        let site = &self.sites[&func.name];
        let params = site
            .params
            .iter()
            .zip(args)
            .map(|(n, v)| (n, VarRole::Param, v));
        let vars = Self::record_vars(params, &self.global_names, gvals);
        self.records.push(LogRecord {
            loc: site.enter.clone(),
            vars,
        });
    }

    fn on_exit(
        &mut self,
        func: &FuncBody,
        ret: Option<&Value>,
        globals: &[GlobalDef],
        gvals: &[Value],
    ) {
        if !self.sample() {
            return;
        }
        self.intern(func, globals);
        let site = &self.sites[&func.name];
        let ret = ret.map(|v| (&self.ret_name, VarRole::Return, v));
        let vars = Self::record_vars(ret.into_iter(), &self.global_names, gvals);
        self.records.push(LogRecord {
            loc: site.leave.clone(),
            vars,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FnEvent;
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
            .filter(|r| r.loc.event == FnEvent::Enter)
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
            .find(|r| r.loc == Location::enter("step"))
            .unwrap();
        let names: Vec<String> = step_enter.vars.iter().map(|(v, _)| v.to_string()).collect();
        assert!(names.contains(&"x FUNCPARAM".to_string()));
        assert!(names.contains(&"hits GLOBAL".to_string()));
        let step_leave = log
            .records
            .iter()
            .find(|r| r.loc == Location::leave("step"))
            .unwrap();
        assert!(step_leave
            .vars
            .iter()
            .any(|(v, _)| v.role == VarRole::Return));
    }

    #[test]
    fn records_share_location_and_variable_identities() {
        let log = logged(SRC, 1.0, 1);
        let at = |loc: Location| -> Vec<&LogRecord> {
            log.records.iter().filter(|r| r.loc == loc).collect()
        };
        let var = |r: &LogRecord, name: &str| -> Arc<str> {
            let (v, _) = r.vars.iter().find(|(v, _)| &*v.name == name).unwrap();
            v.name.clone()
        };
        let enters = at(Location::enter("step"));
        let leaves = at(Location::leave("step"));
        assert!(enters.len() >= 2 && leaves.len() >= 2);
        // Two records at one location share one function name...
        assert!(Arc::ptr_eq(&enters[0].loc.func, &enters[1].loc.func));
        // ...with the function's other boundary...
        assert!(Arc::ptr_eq(&enters[0].loc.func, &leaves[0].loc.func));
        // ...and one variable logged in two records shares one name,
        // for parameters, return values and globals alike.
        assert!(Arc::ptr_eq(&var(enters[0], "x"), &var(enters[1], "x")));
        assert!(Arc::ptr_eq(&var(leaves[0], "ret"), &var(leaves[1], "ret")));
        assert!(Arc::ptr_eq(
            &var(enters[0], "hits"),
            &var(leaves[1], "hits")
        ));
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
            .find(|r| r.loc == Location::enter("consume"))
            .unwrap();
        let (var, val) = &rec.vars[0];
        assert_eq!(var.measure, Measure::Length);
        assert_eq!(*val, 4.0);
    }
}
