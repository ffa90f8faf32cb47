//! Log corpus preprocessing (algorithm steps (a)–(b) in the paper's
//! Figure 5): partition runs into correct and faulty executions and
//! count the numeric observations per (location, variable).
//!
//! Each slot counts into a `Tally`: integral values in a dense window
//! of per-integer counts, everything else in a hash map by bits. A
//! log's value column is read at its own width (`i32` while narrow,
//! `f64` once widened) by one counting loop generic over the two.

use crate::transition::Trace;
use concrete::{ExecutionLog, Location, SiteTable, Values, VarId, Verdict};
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

/// Window cells allowed per distinct value of a slot: a window grows
/// only while it stays within this many cells per distinct value.
const CELLS_PER_VALUE: u128 = 8;

/// Counts the values of one slot as they stream in, then yields its
/// sorted [`Observations`].
///
/// Integral values are counted in a dense window: one (correct, faulty)
/// cell per integer of a contiguous range, so a count is an index and
/// an add. A value outside the window grows it to cover the value if
/// the grown window is at least twice as long and holds at most
/// `CELLS_PER_VALUE` cells per distinct value the slot has seen;
/// otherwise the value goes to a hash map by its bits, as do fractional
/// and infinite values. So the window stays within a constant factor of
/// the slot's distinct values, and its growth copies each cell O(1)
/// times amortized. `finish` sorts the window's and the map's runs
/// together and merges a value counted in both (the window can grow
/// over a value the map already holds).
#[derive(Default)]
pub(crate) struct Tally {
    /// The integer of `window[0]`.
    lo: i64,
    /// Counts of `lo + i` at `window[i]`, indexed by class (correct 0,
    /// faulty 1).
    window: Vec<[usize; 2]>,
    /// Distinct values in the window.
    dense: usize,
    /// Counts of the other values by bits.
    sparse: U64Map<[usize; 2]>,
}

impl Tally {
    /// Counts one observation; NaN is skipped and `-0.0` counts as
    /// `+0.0`.
    #[inline]
    pub(crate) fn push(&mut self, value: f64, faulty: bool) {
        // -2^63 <= value < 2^63, so `as` is exact for an integral value.
        const BOUND: f64 = 9_223_372_036_854_775_808.0;
        if value.fract() == 0.0 && (-BOUND..BOUND).contains(&value) {
            self.push_integer(value as i64, faulty);
        } else if !value.is_nan() {
            self.push_sparse(value.to_bits(), faulty);
        }
    }

    /// Counts an integer that converts to `f64` exactly.
    #[inline]
    fn push_integer(&mut self, value: i64, faulty: bool) {
        let at = (value as u64).wrapping_sub(self.lo as u64);
        if at < self.window.len() as u64 {
            let cell = &mut self.window[at as usize];
            if *cell == [0; 2] {
                self.dense += 1;
            }
            cell[usize::from(faulty)] += 1;
        } else if self.grow(value) {
            self.push_integer(value, faulty);
        } else {
            self.push_sparse((value as f64).to_bits(), faulty);
        }
    }

    /// Counts a value outside the window by its bits (never those of
    /// `-0.0`, which is integral).
    fn push_sparse(&mut self, bits: u64, faulty: bool) {
        self.sparse.entry(bits).or_default()[usize::from(faulty)] += 1;
    }

    /// Grows the window to cover `value`, to at least twice its length,
    /// if that stays within `CELLS_PER_VALUE` cells per distinct value
    /// (`value` included). False if it would not.
    #[cold]
    fn grow(&mut self, value: i64) -> bool {
        let v = i128::from(value);
        let lo = if self.window.is_empty() {
            v
        } else {
            i128::from(self.lo)
        };
        let len = self.window.len() as i128;
        let (new_lo, new_hi) = if v < lo {
            ((lo - len).min(v).max(i128::from(i64::MIN)), lo + len)
        } else {
            (lo, (lo + 2 * len).max(v + 1).min(i128::from(i64::MAX) + 1))
        };
        let distinct = (self.dense + self.sparse.len() + 1) as u128;
        let new_len = (new_hi - new_lo) as u128;
        if new_len > CELLS_PER_VALUE * distinct {
            return false;
        }
        let mut window = vec![[0; 2]; new_len as usize];
        let at = (lo - new_lo) as usize;
        window[at..at + self.window.len()].copy_from_slice(&self.window);
        self.window = window;
        self.lo = new_lo as i64;
        true
    }

    /// The counted observations, runs sorted by value.
    pub(crate) fn finish(self) -> Observations {
        let run = |value: f64, [correct, faulty]: [usize; 2]| Run {
            value,
            correct,
            faulty,
        };
        let mut runs = Vec::with_capacity(self.dense + self.sparse.len());
        for (i, &cell) in self.window.iter().enumerate() {
            if cell != [0; 2] {
                runs.push(run(self.lo.wrapping_add(i as i64) as f64, cell));
            }
        }
        if !self.sparse.is_empty() {
            runs.extend(
                self.sparse
                    .into_iter()
                    .map(|(bits, cell)| run(f64::from_bits(bits), cell)),
            );
            runs.sort_unstable_by(|a, b| a.value.total_cmp(&b.value));
            runs.dedup_by(|later, kept| {
                let same = later.value == kept.value;
                if same {
                    kept.correct += later.correct;
                    kept.faulty += later.faulty;
                }
                same
            });
        }
        Observations {
            n_correct: runs.iter().map(|r| r.correct).sum(),
            n_faulty: runs.iter().map(|r| r.faulty).sum(),
            runs,
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
    /// The event traces of faulty runs (for transition mining). All
    /// traces of one corpus share one location table.
    pub faulty_traces: Vec<Trace>,
    /// The event traces of correct runs.
    pub correct_traces: Vec<Trace>,
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
    /// is stored. A narrow column is counted as `i32`s, with no `f64`
    /// conversion. Logs from one corpus generation share one table, so
    /// each site is resolved once for the whole corpus; logs with their
    /// own tables (parsed or hand-built) resolve each of their sites
    /// once per log. Keys are borrowed from the tables and cloned once
    /// per distinct slot. Traces hold the location ids and share one
    /// table of the corpus's locations, cloned once per location.
    pub fn build(logs: &[ExecutionLog]) -> LogCorpus {
        let mut corpus = LogCorpus::default();
        let mut index = SiteIndex::default();
        let mut faulty_ids = Vec::new();
        let mut correct_ids = Vec::new();
        let mut last_locs: BTreeMap<u32, usize> = BTreeMap::new();
        let mut fault_locs: BTreeMap<Location, usize> = BTreeMap::new();

        for (run, log) in logs.iter().enumerate() {
            let faulty = match log.verdict {
                Verdict::Correct => false,
                Verdict::Faulty => true,
                Verdict::Inconclusive => continue,
            };
            let table = index.table(log.records.table());
            let sites = log.records.site_ids();
            let trace = match log.records.values() {
                Values::Narrow(values) => index.count(table, sites, values, run, faulty),
                Values::Wide(values) => index.count(table, sites, values, run, faulty),
            };
            if faulty {
                corpus.n_faulty += 1;
                if let Some(&last) = trace.last() {
                    *last_locs.entry(last).or_default() += 1;
                }
                if let Some(fault) = &log.fault {
                    *fault_locs
                        .entry(Location::enter(fault.func.as_str()))
                        .or_default() += 1;
                }
                faulty_ids.push(trace);
            } else {
                corpus.n_correct += 1;
                correct_ids.push(trace);
            }
        }
        let table: Arc<[Location]> = index.locations.iter().map(|&loc| loc.clone()).collect();
        let traces = |ids: Vec<Vec<u32>>| -> Vec<Trace> {
            ids.into_iter()
                .map(|ids| Trace::new(table.clone(), ids))
                .collect()
        };
        corpus.faulty_traces = traces(faulty_ids);
        corpus.correct_traces = traces(correct_ids);

        // Prefer the crash report (the observable failure point); fall
        // back to the modal last sampled record.
        corpus.failure_location = fault_locs
            .into_iter()
            .max_by_key(|(loc, n)| (*n, std::cmp::Reverse(loc.clone())))
            .map(|(loc, _)| loc)
            .or_else(|| {
                last_locs
                    .into_iter()
                    .map(|(id, n)| (&table[id as usize], n))
                    .max_by_key(|&(loc, n)| (n, std::cmp::Reverse(loc)))
                    .map(|(loc, _)| loc.clone())
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
        corpus.locations = table.to_vec();
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

/// An element of a value column: `i32` in a narrow one, `f64` in a
/// wide one.
trait Sample: Copy {
    /// Counts the value in `tally`.
    fn tally(self, tally: &mut Tally, faulty: bool);
}

impl Sample for i32 {
    #[inline]
    fn tally(self, tally: &mut Tally, faulty: bool) {
        tally.push_integer(i64::from(self), faulty);
    }
}

impl Sample for f64 {
    #[inline]
    fn tally(self, tally: &mut Tally, faulty: bool) {
        tally.push(self, faulty);
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

    /// Counts the values of log `run`, whose records sit at `sites` of
    /// table `table` and carry `values`, into their slots, and returns
    /// its trace of location ids.
    fn count<T: Sample>(
        &mut self,
        table: usize,
        sites: &[u32],
        mut values: &[T],
        run: usize,
        faulty: bool,
    ) -> Vec<u32> {
        let mut trace = Vec::with_capacity(sites.len());
        for &site in sites {
            let (loc, slots) = self.site(table, site);
            if faulty && self.last_run[loc] != Some(run) {
                self.last_run[loc] = Some(run);
                self.faulty_presence[loc] += 1;
            }
            let (vals, rest) = values.split_at(slots.len());
            values = rest;
            for (&slot, &value) in self.slot_list[slots].iter().zip(vals) {
                value.tally(&mut self.slots[slot].2, faulty);
            }
            trace.push(u32::try_from(loc).expect("at most u32::MAX locations"));
        }
        trace
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
    use proptest::prelude::*;

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
    fn traces_share_one_table_and_replay_their_logs() {
        // Every trace of a generated corpus indexes the one table, lists
        // its log's locations in order, and inconclusive logs have none.
        use benchapps::{all_apps, generate_corpus, CorpusSpec};
        for app in all_apps() {
            let spec = CorpusSpec {
                n_correct: 12,
                n_faulty: 12,
                sampling_rate: 0.5,
                seed: 7,
            };
            let mut logs = generate_corpus(&app, spec);
            for log in logs.iter_mut().step_by(5) {
                log.verdict = Verdict::Inconclusive;
            }
            let corpus = LogCorpus::build(&logs);
            let kept = |verdict: Verdict| logs.iter().filter(move |l| l.verdict == verdict);
            let what = app.name;
            assert_eq!(
                corpus.faulty_traces.len(),
                kept(Verdict::Faulty).count(),
                "{what}"
            );
            assert_eq!(
                corpus.correct_traces.len(),
                kept(Verdict::Correct).count(),
                "{what}"
            );
            let traces: Vec<&Trace> = corpus
                .faulty_traces
                .iter()
                .chain(&corpus.correct_traces)
                .collect();
            let table = traces[0].table();
            assert_eq!(table.len(), corpus.locations.len(), "{what}");
            let logs = kept(Verdict::Faulty).chain(kept(Verdict::Correct));
            for (trace, log) in traces.iter().zip(logs) {
                assert!(Arc::ptr_eq(trace.table(), table), "{what}");
                assert!(trace.iter().eq(log.locations()), "{what}");
            }
            assert!(traces.iter().any(|t| t.len() > 1), "{what}");
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

    /// One observation for [`Tally`]: a value and its class, pushed as
    /// an `i32` of a narrow column when `narrow` (the value then fits).
    #[derive(Debug, Clone, Copy)]
    struct Obs {
        value: f64,
        faulty: bool,
        narrow: bool,
    }

    /// Streams of observations shaped to exercise the window: dense
    /// runs, walks that grow it down and up, sparse wide ranges,
    /// negatives, values near `i64::MIN`/`MAX`, and the values that
    /// are not integers.
    fn stream() -> impl Strategy<Value = Vec<Obs>> {
        // 2^63: the first integer past i64::MAX, and the step of f64
        // just below it.
        const TOP: f64 = 9_223_372_036_854_775_808.0;
        let dense = (-5000i64..5000, collection::vec(0i64..40, 1..60))
            .prop_map(|(base, offs)| offs.into_iter().map(|o| (base + o) as f64).collect());
        let walk =
            (-5000i64..5000, collection::vec(-4i64..=4, 1..80)).prop_map(|(start, steps)| {
                let mut at = start;
                steps
                    .into_iter()
                    .map(|d| {
                        at += d;
                        at as f64
                    })
                    .collect()
            });
        let wide = collection::vec(
            prop_oneof![
                any::<i32>().prop_map(f64::from),
                any::<i64>().prop_map(|v| v as f64),
                (-1_000_000i64..0).prop_map(|v| v as f64),
            ],
            1..20,
        );
        let edges = collection::vec(
            prop_oneof![
                (0i64..4).prop_map(|k| -TOP + 2048.0 * k as f64),
                (1i64..4).prop_map(|k| TOP - 1024.0 * k as f64),
                Just(TOP),
                Just(-TOP * 2.0),
                (-3i64..=3).prop_map(|k| 9_007_199_254_740_992.0 + k as f64),
                (-3i64..=3).prop_map(|k| -9_007_199_254_740_992.0 + k as f64),
            ],
            1..10,
        );
        let odd = collection::vec(
            prop_oneof![
                Just(-0.0),
                Just(0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                (-1000i64..1000).prop_map(|v| v as f64 / 4.0),
            ],
            1..10,
        );
        let part = prop_oneof![dense, walk, wide, edges, odd];
        (
            collection::vec(part, 1..5),
            collection::vec(any::<u8>(), 64),
        )
            .prop_map(|(parts, flags)| {
                parts
                    .into_iter()
                    .flatten()
                    .zip(flags.into_iter().cycle())
                    .map(|(value, flag)| Obs {
                        value,
                        faulty: flag & 1 == 1,
                        narrow: flag & 2 == 2
                            && f64::from(value as i32).to_bits() == value.to_bits(),
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn tally_matches_a_map_oracle(obs in stream()) {
            let mut tally = Tally::default();
            let mut oracle: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
            for &Obs { value, faulty, narrow } in &obs {
                if narrow {
                    (value as i32).tally(&mut tally, faulty);
                } else {
                    value.tally(&mut tally, faulty);
                }
                if value.is_nan() {
                    continue;
                }
                let bits = (if value == 0.0 { 0.0 } else { value }).to_bits();
                let n = oracle.entry(bits).or_default();
                if faulty {
                    n.1 += 1;
                } else {
                    n.0 += 1;
                }
            }
            let got = tally.finish();
            prop_assert!(
                got.runs.windows(2).all(|w| w[0].value < w[1].value),
                "runs not strictly ascending: {:?}",
                got.runs
            );
            let counts: BTreeMap<u64, (usize, usize)> = got
                .runs
                .iter()
                .map(|r| (r.value.to_bits(), (r.correct, r.faulty)))
                .collect();
            prop_assert_eq!(counts.len(), got.runs.len());
            prop_assert_eq!(&counts, &oracle);
            let (c, f) = oracle.values().fold((0, 0), |(c, f), n| (c + n.0, f + n.1));
            prop_assert_eq!((got.n_correct, got.n_faulty), (c, f));
        }
    }
}
