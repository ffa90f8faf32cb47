//! Log corpus preprocessing (algorithm steps (a)–(b) in the paper's
//! Figure 5): partition runs into correct and faulty executions and
//! count the numeric observations per (location, variable).

use concrete::{ExecutionLog, Location, SiteTable, VarId, Verdict};
use solver::U64Map;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;

/// One run of a (location, variable) slot's sorted values, as in
/// run-length encoding: a distinct value and how often correct and
/// faulty executions observed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// The value (never NaN, never `-0.0`).
    pub value: f64,
    /// Observations of `value` in correct executions.
    pub correct: usize,
    /// Observations of `value` in faulty executions.
    pub faulty: usize,
}

/// Numeric observations of one variable at one location, as counts per
/// distinct value: all Eq. 1 and Eq. 2 need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observations {
    /// Distinct values in ascending `total_cmp` order, with `-0.0`
    /// folded into `+0.0`.
    pub runs: Vec<Run>,
    /// Values seen in correct executions (the sum of `runs[..].correct`).
    pub n_correct: usize,
    /// Values seen in faulty executions (the sum of `runs[..].faulty`).
    pub n_faulty: usize,
}

/// Counts the values of one slot as they stream in, then yields its
/// sorted [`Observations`].
#[derive(Default)]
pub(crate) struct Tally {
    /// Runs in first-seen order.
    runs: Vec<Run>,
    /// Run index by value bits.
    index: U64Map<usize>,
    /// Bits and run index of the last value counted: repeats skip the
    /// map.
    last: Option<(u64, usize)>,
    n_correct: usize,
    n_faulty: usize,
}

impl Tally {
    /// Counts one observation; NaN is skipped and `-0.0` counts as
    /// `+0.0`.
    #[inline]
    pub(crate) fn push(&mut self, value: f64, faulty: bool) {
        if value.is_nan() {
            return;
        }
        let value = if value == 0.0 { 0.0 } else { value };
        let bits = value.to_bits();
        let at = match self.last {
            Some((last, at)) if last == bits => at,
            _ => {
                let next = self.runs.len();
                let at = *self.index.entry(bits).or_insert(next);
                if at == next {
                    self.runs.push(Run {
                        value,
                        correct: 0,
                        faulty: 0,
                    });
                }
                self.last = Some((bits, at));
                at
            }
        };
        let run = &mut self.runs[at];
        if faulty {
            run.faulty += 1;
            self.n_faulty += 1;
        } else {
            run.correct += 1;
            self.n_correct += 1;
        }
    }

    /// The counted observations, runs sorted by value.
    pub(crate) fn finish(self) -> Observations {
        let mut runs = self.runs;
        runs.sort_unstable_by(|a, b| a.value.total_cmp(&b.value));
        Observations {
            runs,
            n_correct: self.n_correct,
            n_faulty: self.n_faulty,
        }
    }
}

/// A preprocessed corpus of execution logs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogCorpus {
    /// Number of correct runs (with at least one record).
    pub n_correct: usize,
    /// Number of faulty runs.
    pub n_faulty: usize,
    /// Observations per (location, variable). Deterministically ordered.
    pub observations: BTreeMap<(Location, VarId), Observations>,
    /// The event traces of faulty runs (for transition mining).
    pub faulty_traces: Vec<Vec<Location>>,
    /// The event traces of correct runs.
    pub correct_traces: Vec<Vec<Location>>,
    /// The inferred failure point: the entry of the modal crash function
    /// reported by faulty runs (falling back to the most common final
    /// sampled location when no crash report is available).
    pub failure_location: Option<Location>,
    /// All locations seen anywhere in the corpus.
    pub locations: Vec<Location>,
    /// For each location, the number of faulty traces containing it
    /// (used to separate the mainline skeleton from detour targets).
    pub faulty_presence: BTreeMap<Location, usize>,
}

impl LogCorpus {
    /// Builds a corpus from annotated logs. Inconclusive runs (resource
    /// limits) are excluded, mirroring the paper's correct/faulty
    /// partition. NaN values are skipped: they satisfy no threshold
    /// predicate and have no place in the value order. Infinities are
    /// kept, and `-0.0` counts as `+0.0`.
    ///
    /// Each (site table, site) pair is resolved once to its location and
    /// the (location, variable) slots of its variables; every record
    /// then counts its values straight into those slots, and no value
    /// is stored. Logs from one corpus generation share one table, so
    /// each site is resolved once for the whole corpus; logs with their
    /// own tables (parsed or hand-built) resolve each of their sites
    /// once per log. Keys are borrowed from the tables and cloned once
    /// per distinct slot.
    pub fn build(logs: &[ExecutionLog]) -> LogCorpus {
        let mut corpus = LogCorpus::default();
        let mut index = SiteIndex::default();
        let mut last_locs: BTreeMap<Location, usize> = BTreeMap::new();
        let mut fault_locs: BTreeMap<Location, usize> = BTreeMap::new();

        for (run, log) in logs.iter().enumerate() {
            let faulty = match log.verdict {
                Verdict::Correct => false,
                Verdict::Faulty => true,
                Verdict::Inconclusive => continue,
            };
            let table = index.table(log.records.table());
            let mut values = log.records.values();
            let mut trace = Vec::with_capacity(log.records.len());
            for &site in log.records.site_ids() {
                let (loc, slots) = index.site(table, site);
                if faulty && index.last_run[loc] != Some(run) {
                    index.last_run[loc] = Some(run);
                    index.faulty_presence[loc] += 1;
                }
                let (vals, rest) = values.split_at(slots.len());
                values = rest;
                for (&slot, &value) in index.slot_list[slots].iter().zip(vals) {
                    index.slots[slot].2.push(value, faulty);
                }
                trace.push(index.locations[loc].clone());
            }
            if faulty {
                corpus.n_faulty += 1;
                if let Some(last) = trace.last() {
                    *last_locs.entry(last.clone()).or_default() += 1;
                }
                if let Some(fault) = &log.fault {
                    *fault_locs
                        .entry(Location::enter(fault.func.as_str()))
                        .or_default() += 1;
                }
                corpus.faulty_traces.push(trace);
            } else {
                corpus.n_correct += 1;
                corpus.correct_traces.push(trace);
            }
        }

        // Prefer the crash report (the observable failure point); fall
        // back to the modal last sampled record.
        corpus.failure_location = fault_locs
            .into_iter()
            .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
            .map(|(loc, _)| loc)
            .or_else(|| {
                last_locs
                    .into_iter()
                    .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
                    .map(|(loc, _)| loc)
            });
        corpus.observations = index
            .slots
            .into_iter()
            .map(|(loc, var, tally)| {
                let key = (index.locations[loc].clone(), var.clone());
                (key, tally.finish())
            })
            .collect();
        corpus.faulty_presence = index
            .locations
            .iter()
            .zip(index.faulty_presence)
            .filter(|&(_, n)| n > 0)
            .map(|(loc, n)| ((*loc).clone(), n))
            .collect();
        corpus.locations = index.locations.into_iter().cloned().collect();
        corpus.locations.sort();
        corpus
    }

    /// Observations for one (location, variable), if any.
    pub fn observation(&self, loc: &Location, var: &VarId) -> Option<&Observations> {
        self.observations.get(&(loc.clone(), var.clone()))
    }

    /// Total number of usable runs.
    pub fn n_runs(&self) -> usize {
        self.n_correct + self.n_faulty
    }
}

/// A site resolved for one corpus build: its location id and the range
/// of `SiteIndex::slot_list` holding the slot of each of its variables.
type Resolved = (usize, Range<usize>);

/// Interned locations and (location, variable) slots of one corpus
/// build, borrowed from the site tables of the logs it reads.
#[derive(Default)]
struct SiteIndex<'a> {
    /// Table id by table address.
    table_ids: HashMap<*const SiteTable, usize>,
    /// Per table id: the table and each of its sites once resolved.
    tables: Vec<(&'a SiteTable, Vec<Option<Resolved>>)>,
    /// Location id by location.
    location_ids: HashMap<&'a Location, usize>,
    /// Locations in first-seen order (indexed by location id).
    locations: Vec<&'a Location>,
    /// Per location id: the last faulty run that reached it.
    last_run: Vec<Option<usize>>,
    /// Per location id: the number of faulty runs that reached it.
    faulty_presence: Vec<usize>,
    /// Slot id by (location id, variable).
    slot_ids: HashMap<(usize, &'a VarId), usize>,
    /// The slots of every resolved site's variables, site after site.
    slot_list: Vec<usize>,
    /// Slots in first-seen order: location id, variable, value counts.
    slots: Vec<(usize, &'a VarId, Tally)>,
}

impl<'a> SiteIndex<'a> {
    /// The id of `table`, registering it on first sight.
    fn table(&mut self, table: &'a Arc<SiteTable>) -> usize {
        let next = self.tables.len();
        let id = *self.table_ids.entry(Arc::as_ptr(table)).or_insert(next);
        if id == next {
            self.tables.push((table, vec![None; table.len()]));
        }
        id
    }

    /// Site `site` of table `table`: its location id and slot range,
    /// interning its location and slots on first sight.
    fn site(&mut self, table: usize, site: u32) -> Resolved {
        let (sites, resolved): &(&'a SiteTable, _) = &self.tables[table];
        if let Some(r) = &resolved[site as usize] {
            return r.clone();
        }
        let site_ref = sites.site(site);
        let next = self.locations.len();
        let loc = *self.location_ids.entry(&site_ref.loc).or_insert(next);
        if loc == next {
            self.locations.push(&site_ref.loc);
            self.last_run.push(None);
            self.faulty_presence.push(0);
        }
        let start = self.slot_list.len();
        for var in &site_ref.vars {
            let next = self.slots.len();
            let slot = *self.slot_ids.entry((loc, var)).or_insert(next);
            if slot == next {
                self.slots.push((loc, var, Tally::default()));
            }
            self.slot_list.push(slot);
        }
        let r = (loc, start..self.slot_list.len());
        self.tables[table].1[site as usize] = Some(r.clone());
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{Measure, Records, VarRole};

    type Row = (Location, Vec<(VarId, f64)>);

    fn rec(loc: Location, vars: &[(&str, VarRole, f64)]) -> Row {
        let vars = vars
            .iter()
            .map(|(n, r, v)| (VarId::new(*n, *r, Measure::Value), *v))
            .collect();
        (loc, vars)
    }

    fn run(value: f64, correct: usize, faulty: usize) -> Run {
        Run {
            value,
            correct,
            faulty,
        }
    }

    fn log(verdict: Verdict, records: Vec<Row>) -> ExecutionLog {
        ExecutionLog {
            records: Records::from_rows(records),
            verdict,
            fault: None,
        }
    }

    #[test]
    fn partitions_and_indexes_observations() {
        let logs = vec![
            log(
                Verdict::Correct,
                vec![
                    rec(Location::enter("main"), &[("g", VarRole::Global, 1.0)]),
                    rec(Location::leave("main"), &[("g", VarRole::Global, 2.0)]),
                ],
            ),
            log(
                Verdict::Faulty,
                vec![rec(Location::enter("main"), &[("g", VarRole::Global, 9.0)])],
            ),
            log(Verdict::Inconclusive, vec![]),
        ];
        let corpus = LogCorpus::build(&logs);
        assert_eq!(corpus.n_correct, 1);
        assert_eq!(corpus.n_faulty, 1);
        assert_eq!(corpus.n_runs(), 2);
        let obs = corpus
            .observation(
                &Location::enter("main"),
                &VarId::new("g", VarRole::Global, Measure::Value),
            )
            .unwrap();
        assert_eq!(obs.runs, vec![run(1.0, 1, 0), run(9.0, 0, 1)]);
        assert_eq!((obs.n_correct, obs.n_faulty), (1, 1));
    }

    #[test]
    fn failure_location_is_modal_last_faulty_record() {
        let logs = vec![
            log(
                Verdict::Faulty,
                vec![
                    rec(Location::enter("a"), &[]),
                    rec(Location::enter("boom"), &[]),
                ],
            ),
            log(Verdict::Faulty, vec![rec(Location::enter("boom"), &[])]),
            log(Verdict::Faulty, vec![rec(Location::enter("other"), &[])]),
        ];
        let corpus = LogCorpus::build(&logs);
        assert_eq!(corpus.failure_location, Some(Location::enter("boom")));
    }

    #[test]
    fn empty_corpus_is_well_formed() {
        let corpus = LogCorpus::build(&[]);
        assert_eq!(corpus.n_runs(), 0);
        assert!(corpus.failure_location.is_none());
        assert!(corpus.locations.is_empty());
    }

    #[test]
    fn locations_are_deduplicated_and_sorted() {
        let logs = vec![log(
            Verdict::Correct,
            vec![
                rec(Location::enter("b"), &[]),
                rec(Location::enter("a"), &[]),
                rec(Location::enter("b"), &[]),
            ],
        )];
        let corpus = LogCorpus::build(&logs);
        assert_eq!(corpus.locations.len(), 2);
        assert_eq!(corpus.locations[0], Location::enter("a"));
    }

    #[test]
    fn faulty_presence_counts_runs_not_records() {
        let logs = vec![
            log(
                Verdict::Faulty,
                vec![
                    rec(Location::enter("a"), &[]),
                    rec(Location::enter("b"), &[]),
                    rec(Location::enter("a"), &[]),
                ],
            ),
            log(Verdict::Faulty, vec![rec(Location::enter("a"), &[])]),
            log(Verdict::Correct, vec![rec(Location::enter("c"), &[])]),
        ];
        let corpus = LogCorpus::build(&logs);
        let presence: Vec<(String, usize)> = corpus
            .faulty_presence
            .iter()
            .map(|(loc, n)| (loc.to_string(), *n))
            .collect();
        assert_eq!(
            presence,
            vec![("a():enter".to_string(), 2), ("b():enter".to_string(), 1)]
        );
    }

    #[test]
    fn changing_variable_lists_at_one_location_keep_their_slots() {
        // Records at one location whose variable lists differ (one
        // missing, or in another order) must still file every value
        // under its own (location, variable).
        let main = || Location::enter("main");
        let logs = vec![
            log(
                Verdict::Correct,
                vec![
                    rec(
                        main(),
                        &[("g", VarRole::Global, 1.0), ("h", VarRole::Global, 2.0)],
                    ),
                    rec(main(), &[("h", VarRole::Global, 3.0)]),
                    rec(
                        main(),
                        &[("g", VarRole::Global, 4.0), ("h", VarRole::Global, 5.0)],
                    ),
                ],
            ),
            log(
                Verdict::Faulty,
                vec![rec(
                    main(),
                    &[("h", VarRole::Global, 6.0), ("g", VarRole::Global, 7.0)],
                )],
            ),
        ];
        let corpus = LogCorpus::build(&logs);
        let obs = |name: &str| {
            corpus
                .observation(&main(), &VarId::new(name, VarRole::Global, Measure::Value))
                .unwrap()
                .clone()
        };
        assert_eq!(
            obs("g").runs,
            vec![run(1.0, 1, 0), run(4.0, 1, 0), run(7.0, 0, 1)]
        );
        assert_eq!((obs("g").n_correct, obs("g").n_faulty), (2, 1));
        assert_eq!(
            obs("h").runs,
            vec![
                run(2.0, 1, 0),
                run(3.0, 1, 0),
                run(5.0, 1, 0),
                run(6.0, 0, 1)
            ]
        );
        assert_eq!((obs("h").n_correct, obs("h").n_faulty), (3, 1));
        assert_eq!(corpus.observations.len(), 2);
    }

    #[test]
    fn shared_table_build_matches_per_log_table_build() {
        // Generated logs share one site table; parsing each written log
        // gives it its own. Both builds, and a build over a mix of the
        // two, must agree in every field.
        use benchapps::{all_apps, generate_corpus, parser_apps, CorpusSpec};
        use concrete::{parse_log, write_log};
        for app in all_apps().into_iter().chain(parser_apps()) {
            for rate in [1.0, 0.3] {
                let spec = CorpusSpec {
                    n_correct: 15,
                    n_faulty: 15,
                    sampling_rate: rate,
                    seed: 11,
                };
                let shared = generate_corpus(&app, spec);
                let own: Vec<ExecutionLog> = shared
                    .iter()
                    .map(|l| parse_log(&write_log(l)).unwrap())
                    .collect();
                let mixed: Vec<ExecutionLog> = shared
                    .iter()
                    .zip(&own)
                    .enumerate()
                    .map(|(i, (s, o))| if i % 3 == 0 { o.clone() } else { s.clone() })
                    .collect();
                let expected = LogCorpus::build(&shared);
                let what = format!("{} @ {rate}", app.name);
                assert!(
                    expected.n_runs() > 0 && !expected.observations.is_empty(),
                    "{what}"
                );
                assert_eq!(LogCorpus::build(&own), expected, "{what}");
                assert_eq!(LogCorpus::build(&mixed), expected, "{what}");
            }
        }
    }

    #[test]
    fn repeats_nan_and_signed_zeros_are_counted_per_value() {
        let x = |v: f64| rec(Location::enter("f"), &[("x", VarRole::Global, v)]);
        let logs = vec![
            log(
                Verdict::Correct,
                [3.0, 3.0, -0.0, f64::NAN, 3.0, 0.0, f64::INFINITY]
                    .map(x)
                    .to_vec(),
            ),
            log(
                Verdict::Faulty,
                [-0.0, f64::NAN, 3.0, f64::NEG_INFINITY].map(x).to_vec(),
            ),
        ];
        let corpus = LogCorpus::build(&logs);
        let obs = corpus.observations.values().next().unwrap();
        assert_eq!(
            obs.runs,
            vec![
                run(f64::NEG_INFINITY, 0, 1),
                run(0.0, 2, 1),
                run(3.0, 3, 1),
                run(f64::INFINITY, 1, 0),
            ]
        );
        assert_eq!(obs.runs[1].value.to_bits(), 0.0f64.to_bits());
        assert_eq!((obs.n_correct, obs.n_faulty), (6, 3));
    }

    #[test]
    fn runs_conserve_every_logged_value() {
        // Per slot, the runs must be strictly ascending, hold no -0.0,
        // and count exactly the values the logs' records carry there,
        // class by class and value by value.
        use benchapps::{all_apps, generate_corpus, parser_apps, CorpusSpec};
        type Counts = BTreeMap<u64, (usize, usize)>;
        for app in all_apps().into_iter().chain(parser_apps()) {
            for rate in [0.3, 1.0] {
                let spec = CorpusSpec {
                    n_correct: 20,
                    n_faulty: 20,
                    sampling_rate: rate,
                    seed: 5,
                };
                let logs = generate_corpus(&app, spec);
                let mut expected: BTreeMap<(Location, VarId), Counts> = BTreeMap::new();
                for log in &logs {
                    let faulty = match log.verdict {
                        Verdict::Correct => false,
                        Verdict::Faulty => true,
                        Verdict::Inconclusive => continue,
                    };
                    for record in log.records.iter() {
                        for (var, v) in record.vars() {
                            let key = (record.loc().clone(), var.clone());
                            let bits = (if v == 0.0 { 0.0 } else { v }).to_bits();
                            let n = expected.entry(key).or_default().entry(bits).or_default();
                            if faulty {
                                n.1 += 1;
                            } else {
                                n.0 += 1;
                            }
                        }
                    }
                }
                let corpus = LogCorpus::build(&logs);
                let what = format!("{} @ {rate}", app.name);
                assert!(!expected.is_empty(), "{what}");
                assert_eq!(
                    corpus.observations.keys().collect::<Vec<_>>(),
                    expected.keys().collect::<Vec<_>>(),
                    "{what}"
                );
                for (key, obs) in &corpus.observations {
                    let at = format!("{what}: {} @ {}", key.1, key.0);
                    assert!(
                        obs.runs.windows(2).all(|w| w[0].value < w[1].value),
                        "{at}: runs not strictly ascending"
                    );
                    assert!(
                        obs.runs
                            .iter()
                            .all(|r| r.value.to_bits() != (-0.0f64).to_bits()),
                        "{at}: -0.0 run"
                    );
                    let counts: Counts = obs
                        .runs
                        .iter()
                        .map(|r| (r.value.to_bits(), (r.correct, r.faulty)))
                        .collect();
                    assert_eq!(counts, expected[key], "{at}");
                    let (c, f) = counts.values().fold((0, 0), |(c, f), n| (c + n.0, f + n.1));
                    assert_eq!((obs.n_correct, obs.n_faulty), (c, f), "{at}");
                }
            }
        }
    }
}
