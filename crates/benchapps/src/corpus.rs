//! Log-corpus generation: emulates the paper's collection of correct
//! and faulty execution logs from randomly generated inputs (§VII-A).

use crate::apps::BenchApp;
use concrete::{ExecutionLog, Monitor, SiteTable, Verdict, Vm, VmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use statsym_telemetry::{Recorder, NOOP};

/// How many logs to collect and how they are sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Number of correct-execution logs (the paper uses 100).
    pub n_correct: usize,
    /// Number of faulty-execution logs (the paper uses 100).
    pub n_faulty: usize,
    /// Per-record sampling rate of the program monitor.
    pub sampling_rate: f64,
    /// RNG seed for input generation and sampling.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            n_correct: 100,
            n_faulty: 100,
            sampling_rate: 0.3,
            seed: 2017,
        }
    }
}

/// Runs `app` under the program monitor until the requested numbers of
/// correct and faulty logs are collected.
///
/// # Panics
///
/// Panics if the app's input generator cannot produce the requested run
/// mix within a generous attempt budget (a bug in the workload model,
/// caught by `benchapps` tests).
pub fn generate_corpus(app: &BenchApp, spec: CorpusSpec) -> Vec<ExecutionLog> {
    generate_corpus_traced(app, spec, &NOOP)
}

/// Like [`generate_corpus`] with a telemetry recorder: the monitor's
/// sampled/dropped record counts accumulate across all runs.
///
/// The app's [`SiteTable`] is built once, and every log holds it.
///
/// # Panics
///
/// Panics under the same conditions as [`generate_corpus`].
pub fn generate_corpus_traced(
    app: &BenchApp,
    spec: CorpusSpec,
    rec: &dyn Recorder,
) -> Vec<ExecutionLog> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let vm = Vm::new(&app.module, VmConfig::default());
    let sites = SiteTable::of(&app.module);
    let mut logs = Vec::with_capacity(spec.n_correct + spec.n_faulty);
    let mut n_correct = 0;
    let mut n_faulty = 0;
    let mut attempt: u64 = 0;
    let max_attempts = ((spec.n_correct + spec.n_faulty) as u64) * 50 + 1000;

    while n_correct < spec.n_correct || n_faulty < spec.n_faulty {
        attempt += 1;
        assert!(
            attempt <= max_attempts,
            "workload for `{}` cannot reach {}+{} runs",
            app.name,
            spec.n_correct,
            spec.n_faulty
        );
        let want_faulty =
            n_faulty < spec.n_faulty && (n_correct >= spec.n_correct || attempt.is_multiple_of(2));
        let inputs = (app.gen_inputs)(&mut rng, want_faulty);
        let seed = spec.seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut monitor = Monitor::sharing(sites.clone(), spec.sampling_rate, seed, rec);
        let result = vm
            .run_hooked(&inputs, &mut monitor)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let log = monitor.finish_with(&result.outcome);
        match log.verdict {
            Verdict::Correct if n_correct < spec.n_correct => {
                n_correct += 1;
                logs.push(log);
            }
            Verdict::Faulty if n_faulty < spec.n_faulty => {
                n_faulty += 1;
                logs.push(log);
            }
            _ => {}
        }
    }
    logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps;

    #[test]
    fn generates_requested_mix() {
        let app = apps::polymorph();
        let spec = CorpusSpec {
            n_correct: 10,
            n_faulty: 10,
            sampling_rate: 1.0,
            seed: 5,
        };
        let logs = generate_corpus(&app, spec);
        assert_eq!(logs.len(), 20);
        assert_eq!(logs.iter().filter(|l| l.is_faulty()).count(), 10);
    }

    #[test]
    fn partial_sampling_thins_records() {
        let app = apps::ctree();
        let full = generate_corpus(
            &app,
            CorpusSpec {
                n_correct: 5,
                n_faulty: 5,
                sampling_rate: 1.0,
                seed: 9,
            },
        );
        let partial = generate_corpus(
            &app,
            CorpusSpec {
                n_correct: 5,
                n_faulty: 5,
                sampling_rate: 0.3,
                seed: 9,
            },
        );
        let count = |logs: &[ExecutionLog]| logs.iter().map(|l| l.records.len()).sum::<usize>();
        assert!(count(&partial) < count(&full));
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let app = apps::thttpd();
        let spec = CorpusSpec {
            n_correct: 5,
            n_faulty: 5,
            sampling_rate: 0.5,
            seed: 33,
        };
        let a = generate_corpus(&app, spec);
        let b = generate_corpus(&app, spec);
        assert_eq!(a, b);
    }

    #[test]
    fn log_volume_ordering_matches_analysis_cost_shape() {
        // The paper's Table II/III: grep has the largest logs (statistical
        // analysis dominates), polymorph the smallest.
        let spec = CorpusSpec {
            n_correct: 10,
            n_faulty: 10,
            sampling_rate: 1.0,
            seed: 11,
        };
        let vol = |app: &BenchApp| {
            generate_corpus(app, spec)
                .iter()
                .map(|l| l.records.len())
                .sum::<usize>()
        };
        let p = vol(&apps::polymorph());
        let g = vol(&apps::grep());
        let c = vol(&apps::ctree());
        let t = vol(&apps::thttpd());
        assert!(g > t && t > p, "grep {g} > thttpd {t} > polymorph {p}");
        assert!(g > c, "grep {g} > ctree {c}");
    }
}

/// The monitor's columnar records against the row builder it replaced.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::apps::{self, all_apps, parser_apps};
    use concrete::{write_log, ExecHook, InputMap, Location, Measure, Value, VarId, VarRole};
    use rand::{RngExt, SeedableRng};
    use sir::{FuncBody, FuncId, GlobalDef};
    use std::sync::Arc;

    type Row = (Location, Vec<(VarId, f64)>);

    /// The former row-shaped monitor: it samples with the same RNG draws
    /// and builds each record's variables from the runtime values.
    struct RowMonitor {
        sampling_rate: f64,
        rng: StdRng,
        rows: Vec<Row>,
    }

    impl RowMonitor {
        fn new(sampling_rate: f64, seed: u64) -> RowMonitor {
            RowMonitor {
                sampling_rate: sampling_rate.clamp(0.0, 1.0),
                rng: StdRng::seed_from_u64(seed),
                rows: Vec::new(),
            }
        }

        fn sample(&mut self) -> bool {
            self.sampling_rate >= 1.0 || self.rng.random_bool(self.sampling_rate)
        }

        /// One record's variables: `own` (parameters or the return
        /// value), then every global, each with a numeric view.
        fn record_vars<'a>(
            own: impl Iterator<Item = (&'a str, VarRole, &'a Value)>,
            globals: &'a [GlobalDef],
            gvals: &'a [Value],
        ) -> Vec<(VarId, f64)> {
            let globals = globals.iter().zip(gvals);
            own.chain(globals.map(|(g, v)| (g.name.as_str(), VarRole::Global, v)))
                .filter_map(|(name, role, val)| {
                    val.numeric_view().map(|(num, is_len)| {
                        let measure = if is_len {
                            Measure::Length
                        } else {
                            Measure::Value
                        };
                        (VarId::new(name, role, measure), num)
                    })
                })
                .collect()
        }
    }

    impl ExecHook for RowMonitor {
        fn on_enter(
            &mut self,
            _: FuncId,
            func: &FuncBody,
            args: &[Value],
            globals: &[GlobalDef],
            gvals: &[Value],
        ) {
            if self.sample() {
                let params = func
                    .params
                    .iter()
                    .zip(args)
                    .map(|((n, _), v)| (n.as_str(), VarRole::Param, v));
                let vars = Self::record_vars(params, globals, gvals);
                self.rows.push((Location::enter(func.name.as_str()), vars));
            }
        }

        fn on_exit(
            &mut self,
            _: FuncId,
            func: &FuncBody,
            ret: Option<&Value>,
            globals: &[GlobalDef],
            gvals: &[Value],
        ) {
            if self.sample() {
                let ret = ret.map(|v| ("ret", VarRole::Return, v));
                let vars = Self::record_vars(ret.into_iter(), globals, gvals);
                self.rows.push((Location::leave(func.name.as_str()), vars));
            }
        }
    }

    fn rows(log: &ExecutionLog) -> Vec<Row> {
        log.records
            .iter()
            .map(|r| {
                let vars = r.vars().map(|(v, x)| (v.clone(), x)).collect();
                (r.loc().clone(), vars)
            })
            .collect()
    }

    #[test]
    fn columnar_records_match_the_row_oracle() {
        for app in all_apps().into_iter().chain(parser_apps()) {
            let vm = Vm::new(&app.module, VmConfig::default());
            let sites = SiteTable::of(&app.module);
            for rate in [1.0, 0.3] {
                let mut rng = StdRng::seed_from_u64(5);
                for attempt in 0..24u64 {
                    let inputs: InputMap = (app.gen_inputs)(&mut rng, attempt % 2 == 0);
                    let mut columns = Monitor::sharing(sites.clone(), rate, attempt, &NOOP);
                    let outcome = vm.run_hooked(&inputs, &mut columns).unwrap().outcome;
                    let log = columns.finish_with(&outcome);
                    let mut oracle = RowMonitor::new(rate, attempt);
                    vm.run_hooked(&inputs, &mut oracle).unwrap();
                    assert_eq!(
                        rows(&log),
                        oracle.rows,
                        "{} @ {rate}, attempt {attempt}",
                        app.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_log_of_one_corpus_shares_one_site_table() {
        let spec = CorpusSpec {
            n_correct: 6,
            n_faulty: 6,
            sampling_rate: 0.5,
            seed: 3,
        };
        let logs = generate_corpus(&apps::grep(), spec);
        let table = logs[0].records.table();
        assert!(logs.iter().all(|l| Arc::ptr_eq(l.records.table(), table)));
        // Within the table, a function's two boundaries share its name
        // and every site shares one name per global.
        let sites: Vec<_> = table.iter().collect();
        assert!(Arc::ptr_eq(&sites[0].loc.func, &sites[1].loc.func));
        let global = |i: usize| {
            let v = sites[i].vars.iter().find(|v| v.role == VarRole::Global);
            v.expect("grep has globals").name.clone()
        };
        assert!(Arc::ptr_eq(&global(0), &global(sites.len() - 1)));
    }

    /// FNV-1a over every log written as text, so the log format of a
    /// fixed corpus is pinned byte for byte.
    fn written_digest(app: &BenchApp, sampling_rate: f64) -> u64 {
        let spec = CorpusSpec {
            n_correct: 10,
            n_faulty: 10,
            sampling_rate,
            seed: 7,
        };
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for log in generate_corpus(app, spec) {
            for b in write_log(&log).bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The digests were taken from the row-shaped logs that preceded
    /// the columnar records.
    #[test]
    fn written_corpus_text_is_pinned() {
        assert_eq!(written_digest(&apps::grep(), 0.3), 0x09ab_e7b5_804c_3eb6);
        assert_eq!(written_digest(&apps::thttpd(), 1.0), 0x8d48_fd91_338b_b8e0);
    }
}
