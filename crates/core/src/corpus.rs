//! Log corpus preprocessing (algorithm steps (a)–(b) in the paper's
//! Figure 5): partition runs into correct and faulty executions and
//! index the numeric observations per (location, variable).

use concrete::{ExecutionLog, Location, VarId, Verdict};
use std::collections::{BTreeMap, HashMap};

/// Numeric observations of one variable at one location, split by run
/// verdict.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observations {
    /// Values seen in correct executions.
    pub correct: Vec<f64>,
    /// Values seen in faulty executions.
    pub faulty: Vec<f64>,
}

/// A preprocessed corpus of execution logs.
#[derive(Debug, Clone, Default)]
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
    /// partition.
    ///
    /// Locations and (location, variable) slots are interned by
    /// borrowing from the logs, so each key is cloned once per distinct
    /// slot rather than once per observation.
    pub fn build(logs: &[ExecutionLog]) -> LogCorpus {
        let mut corpus = LogCorpus::default();
        let mut sites = SiteIndex::default();
        let mut last_locs: BTreeMap<Location, usize> = BTreeMap::new();
        let mut fault_locs: BTreeMap<Location, usize> = BTreeMap::new();

        for (run, log) in logs.iter().enumerate() {
            let faulty = match log.verdict {
                Verdict::Correct => false,
                Verdict::Faulty => true,
                Verdict::Inconclusive => continue,
            };
            for rec in &log.records {
                let loc = sites.location(&rec.loc);
                if faulty && sites.last_run[loc] != Some(run) {
                    sites.last_run[loc] = Some(run);
                    sites.faulty_presence[loc] += 1;
                }
                sites.observe(loc, &rec.vars, faulty);
            }
            let trace: Vec<Location> = log.locations().cloned().collect();
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
        corpus.observations = sites
            .slots
            .into_iter()
            .map(|(loc, var, obs)| ((sites.locations[loc].clone(), var.clone()), obs))
            .collect();
        corpus.faulty_presence = sites
            .locations
            .iter()
            .zip(sites.faulty_presence)
            .filter(|&(_, n)| n > 0)
            .map(|(loc, n)| ((*loc).clone(), n))
            .collect();
        corpus.locations = sites.locations.into_iter().cloned().collect();
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

/// Interned locations and (location, variable) slots of one corpus
/// build, borrowed from the logs it reads.
#[derive(Default)]
struct SiteIndex<'a> {
    /// Location id by location.
    ids: HashMap<&'a Location, usize>,
    /// Locations in first-seen order (indexed by location id).
    locations: Vec<&'a Location>,
    /// Per location id: the last faulty run that reached it.
    last_run: Vec<Option<usize>>,
    /// Per location id: the number of faulty runs that reached it.
    faulty_presence: Vec<usize>,
    /// Per location id: the variable list of the last record seen
    /// there, and the slot of each of its variables.
    layouts: Vec<(Vec<&'a VarId>, Vec<usize>)>,
    /// Slot id by (location id, variable).
    slot_ids: HashMap<(usize, &'a VarId), usize>,
    /// Slots in first-seen order: location id, variable, observations.
    slots: Vec<(usize, &'a VarId, Observations)>,
}

impl<'a> SiteIndex<'a> {
    /// The id of `loc`, interning it on first sight.
    fn location(&mut self, loc: &'a Location) -> usize {
        if let Some(&id) = self.ids.get(loc) {
            return id;
        }
        let id = self.locations.len();
        self.ids.insert(loc, id);
        self.locations.push(loc);
        self.last_run.push(None);
        self.faulty_presence.push(0);
        self.layouts.push((Vec::new(), Vec::new()));
        id
    }

    /// Appends each of `vars` to its slot at location `loc`, on the
    /// correct or the faulty side. Records at one location almost always
    /// log the same variables, so the previous record's layout is reused
    /// whenever it matches.
    fn observe(&mut self, loc: usize, vars: &'a [(VarId, f64)], faulty: bool) {
        let (cached_vars, cached_slots) = &mut self.layouts[loc];
        let hit = cached_vars.len() == vars.len()
            && cached_vars.iter().zip(vars).all(|(a, (b, _))| *a == b);
        if !hit {
            cached_vars.clear();
            cached_slots.clear();
            for (var, _) in vars {
                let next = self.slots.len();
                let slot = *self.slot_ids.entry((loc, var)).or_insert(next);
                if slot == next {
                    self.slots.push((loc, var, Observations::default()));
                }
                cached_vars.push(var);
                cached_slots.push(slot);
            }
        }
        for (&slot, (_, value)) in cached_slots.iter().zip(vars) {
            let obs = &mut self.slots[slot].2;
            if faulty {
                obs.faulty.push(*value);
            } else {
                obs.correct.push(*value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{LogRecord, Measure, VarRole};

    fn rec(loc: Location, vars: &[(&str, VarRole, f64)]) -> LogRecord {
        LogRecord {
            loc,
            vars: vars
                .iter()
                .map(|(n, r, v)| (VarId::new(*n, *r, Measure::Value), *v))
                .collect(),
        }
    }

    fn log(verdict: Verdict, records: Vec<LogRecord>) -> ExecutionLog {
        ExecutionLog {
            records,
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
        assert_eq!(obs.correct, vec![1.0]);
        assert_eq!(obs.faulty, vec![9.0]);
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
        assert_eq!(obs("g").correct, vec![1.0, 4.0]);
        assert_eq!(obs("g").faulty, vec![7.0]);
        assert_eq!(obs("h").correct, vec![2.0, 3.0, 5.0]);
        assert_eq!(obs("h").faulty, vec![6.0]);
        assert_eq!(corpus.observations.len(), 2);
    }
}
