//! Predicate construction and ranking (paper §V-A).
//!
//! For each (location, variable) pair, the constructor finds the
//! threshold predicate `v > σ` or `v < σ` that minimizes the
//! quantification error of Eq. 1:
//!
//! ```text
//! E = |P ∩ C| + |Pᶜ ∩ F|
//! ```
//!
//! i.e. correct observations that satisfy the predicate plus faulty
//! observations that violate it (a predicate should be *true on faulty
//! runs*). Each predicate is scored by Eq. 2, `s = |P(x|C) − P(x|F)|`,
//! and ranked.
//!
//! Variables observed on only one side produce the paper's degenerate
//! `< -infinity` / `> -infinity` predicates (Table V rows 7–10): the
//! *location itself* discriminates, not the value.

use crate::corpus::{LogCorpus, Observations};
use concrete::{Location, VarId};
use std::fmt;

/// Threshold comparison direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// Variable greater than the threshold indicates fault.
    Gt,
    /// Variable less than the threshold indicates fault.
    Lt,
}

impl fmt::Display for PredOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredOp::Gt => f.write_str(">"),
            PredOp::Lt => f.write_str("<"),
        }
    }
}

/// A ranked predicate over one variable at one instrumentation location.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Where the variable was observed.
    pub loc: Location,
    /// Which variable.
    pub var: VarId,
    /// Comparison direction.
    pub op: PredOp,
    /// Threshold (`-inf` for degenerate location-only predicates).
    pub threshold: f64,
    /// Confidence score `|P(x|C) − P(x|F)|` (Eq. 2).
    pub score: f64,
    /// Number of observations on the sparser side (tie-break: predicates
    /// supported by both run classes outrank degenerate ones).
    pub support: usize,
}

impl Predicate {
    /// True for the degenerate "variable never observed on one side"
    /// predicates.
    pub fn is_degenerate(&self) -> bool {
        self.threshold.is_infinite()
    }

    /// Renders the predicate the way the paper's Table V does, e.g.
    /// `len(suspect FUNCPARAM) > 536.5`.
    pub fn render(&self) -> String {
        if self.is_degenerate() {
            format!("{} {} -infinity", self.var, self.op)
        } else {
            format!("{} {} {}", self.var, self.op, self.threshold)
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} (s={:.3})", self.render(), self.loc, self.score)
    }
}

/// The ranked predicate list for a corpus.
#[derive(Debug, Clone, Default)]
pub struct PredicateSet {
    /// Predicates, highest score first.
    pub ranked: Vec<Predicate>,
}

impl PredicateSet {
    /// Builds and ranks predicates for every (location, variable) pair
    /// in the corpus (steps (c)–(d) of the paper's algorithm).
    pub fn build(corpus: &LogCorpus) -> PredicateSet {
        Self::build_traced(corpus, &statsym_telemetry::NOOP)
    }

    /// Like [`PredicateSet::build`] with a telemetry recorder: threshold
    /// construction (Eq. 1) and confidence ranking (Eq. 2) each run
    /// under their own span, and the predicate count is recorded.
    pub fn build_traced(corpus: &LogCorpus, rec: &dyn statsym_telemetry::Recorder) -> PredicateSet {
        use statsym_telemetry::{names, Span};

        let sp = Span::start(rec, names::PHASE_PREDICATE_CONSTRUCT);
        let mut ranked: Vec<Predicate> = corpus
            .observations
            .iter()
            .filter_map(|((loc, var), obs)| construct(loc.clone(), var.clone(), obs))
            .collect();
        let _ = sp.finish();

        let sp = Span::start(rec, names::PHASE_CONFIDENCE_RANK);
        ranked.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.support.cmp(&a.support))
                .then(a.loc.cmp(&b.loc))
                .then(a.var.cmp(&b.var))
        });
        let _ = sp.finish();
        rec.counter_add(names::PIPELINE_PREDICATES_BUILT, ranked.len() as u64);
        PredicateSet { ranked }
    }

    /// The top `n` predicates (the paper's Table V shows the top 10).
    pub fn top(&self, n: usize) -> &[Predicate] {
        &self.ranked[..self.ranked.len().min(n)]
    }

    /// Highest score attached to `loc` (0 when nothing is known) — the
    /// node score used by skeleton construction.
    pub fn location_score(&self, loc: &Location) -> f64 {
        self.ranked
            .iter()
            .filter(|p| &p.loc == loc)
            .map(|p| p.score)
            .fold(0.0, f64::max)
    }

    /// All predicates at `loc`, best first.
    pub fn at_location<'a>(&'a self, loc: &'a Location) -> impl Iterator<Item = &'a Predicate> {
        self.ranked.iter().filter(move |p| &p.loc == loc)
    }
}

/// Constructs the optimal predicate for one (location, variable) pair.
fn construct(loc: Location, var: VarId, obs: &Observations) -> Option<Predicate> {
    match (obs.n_correct == 0, obs.n_faulty == 0) {
        (true, true) => None,
        // Only observed in faulty runs: reaching the location at all
        // indicates fault; `v > -inf` is vacuously true.
        (true, false) => Some(Predicate {
            loc,
            var,
            op: PredOp::Gt,
            threshold: f64::NEG_INFINITY,
            score: 1.0,
            support: 0,
        }),
        // Only observed in correct runs: the paper's `< -infinity` rows.
        (false, true) => Some(Predicate {
            loc,
            var,
            op: PredOp::Lt,
            threshold: f64::NEG_INFINITY,
            score: 1.0,
            support: 0,
        }),
        (false, false) => Some(optimal_threshold(loc, var, obs)),
    }
}

/// Finds the threshold/direction minimizing Eq. 1 over all candidate
/// cut points (midpoints between adjacent distinct observed values).
///
/// The runs are the distinct values in ascending order, so prefix sums
/// of their counts give the correct and faulty observations below every
/// run, and each cut is counted by binary search over the run values
/// with the same `>` / `<` comparisons a direct count uses: O(k log k)
/// per pair in its k distinct values, whatever the observation count.
/// Cuts are visited in ascending order, `Gt` before `Lt`, and a later
/// candidate wins only with a strictly lower error or an equal error
/// and a strictly higher score.
fn optimal_threshold(loc: Location, var: VarId, obs: &Observations) -> Predicate {
    let runs = &obs.runs;
    // below[i]: (correct, faulty) observations of `runs[..i]`.
    let below: Vec<(usize, usize)> = std::iter::once((0, 0))
        .chain(runs.iter().scan((0, 0), |(c, f), r| {
            *c += r.correct;
            *f += r.faulty;
            Some((*c, *f))
        }))
        .collect();

    // Candidate thresholds: midpoints plus sentinels beyond both ends.
    let cuts = std::iter::once(runs[0].value - 1.0)
        .chain(runs.windows(2).map(|w| (w[0].value + w[1].value) / 2.0))
        .chain(std::iter::once(runs[runs.len() - 1].value + 1.0));

    let (total_c, total_f) = (obs.n_correct, obs.n_faulty);
    let (n_c, n_f) = (total_c as f64, total_f as f64);
    // (correct, faulty) observations satisfying `v op cut`. `!(v > cut)`,
    // not `v <= cut`: a NaN cut (the midpoint of -inf and +inf) satisfies
    // no comparison, so it must count nothing either way.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let satisfying = |op: PredOp, cut: f64| match op {
        PredOp::Gt => {
            let (c, f) = below[runs.partition_point(|r| !(r.value > cut))];
            (total_c - c, total_f - f)
        }
        PredOp::Lt => below[runs.partition_point(|r| r.value < cut)],
    };
    let mut best: Option<(usize, PredOp, f64, f64)> = None; // (err, op, cut, score)

    for cut in cuts {
        for op in [PredOp::Gt, PredOp::Lt] {
            // Eq. 1: correct samples satisfying + faulty samples violating.
            let (sat_c, sat_f) = satisfying(op, cut);
            let err = sat_c + (total_f - sat_f);
            let score = (sat_c as f64 / n_c - sat_f as f64 / n_f).abs();
            let better = match &best {
                None => true,
                Some((be, _, _, bs)) => err < *be || (err == *be && score > *bs),
            };
            if better {
                best = Some((err, op, cut, score));
            }
        }
    }

    let (_, op, threshold, score) = best.expect("at least one cut candidate");
    Predicate {
        loc,
        var,
        op,
        threshold,
        score,
        support: total_c.min(total_f),
    }
}

/// The Eq. 1 sweep over raw values: each class sorted once, every cut
/// counted by binary search. An oracle [`optimal_threshold`] must match;
/// returns `(op, threshold, score, support)`.
#[cfg(test)]
fn optimal_threshold_sorted(correct: &[f64], faulty: &[f64]) -> (PredOp, f64, f64, usize) {
    let by_value = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
    let mut correct = correct.to_vec();
    correct.sort_by(by_value);
    let mut faulty = faulty.to_vec();
    faulty.sort_by(by_value);
    let mut values: Vec<f64> = correct.iter().chain(&faulty).copied().collect();
    values.sort_by(by_value);
    values.dedup();

    let cuts = std::iter::once(values[0] - 1.0)
        .chain(values.windows(2).map(|w| (w[0] + w[1]) / 2.0))
        .chain(std::iter::once(values[values.len() - 1] + 1.0));

    let n_c = correct.len() as f64;
    let n_f = faulty.len() as f64;
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let count = |sorted: &[f64], op: PredOp, cut: f64| match op {
        PredOp::Gt => sorted.len() - sorted.partition_point(|&v| !(v > cut)),
        PredOp::Lt => sorted.partition_point(|&v| v < cut),
    };
    let mut best: Option<(usize, PredOp, f64, f64)> = None; // (err, op, cut, score)

    for cut in cuts {
        for op in [PredOp::Gt, PredOp::Lt] {
            let sat_c = count(&correct, op, cut);
            let sat_f = count(&faulty, op, cut);
            let err = sat_c + (faulty.len() - sat_f);
            let score = (sat_c as f64 / n_c - sat_f as f64 / n_f).abs();
            let better = match &best {
                None => true,
                Some((be, _, _, bs)) => err < *be || (err == *be && score > *bs),
            };
            if better {
                best = Some((err, op, cut, score));
            }
        }
    }

    let (_, op, threshold, score) = best.expect("at least one cut candidate");
    (op, threshold, score, correct.len().min(faulty.len()))
}

/// The direct Eq. 1 search over raw values that recounts every
/// observation for every cut: the second oracle, returning
/// `(op, threshold, score, support)`.
#[cfg(test)]
fn optimal_threshold_brute(correct: &[f64], faulty: &[f64]) -> (PredOp, f64, f64, usize) {
    let mut values: Vec<f64> = correct.iter().chain(faulty).copied().collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();

    let mut cuts = Vec::with_capacity(values.len() + 1);
    cuts.push(values[0] - 1.0);
    for w in values.windows(2) {
        cuts.push((w[0] + w[1]) / 2.0);
    }
    cuts.push(values[values.len() - 1] + 1.0);

    let n_c = correct.len() as f64;
    let n_f = faulty.len() as f64;
    let mut best: Option<(usize, PredOp, f64, f64)> = None; // (err, op, cut, score)

    for &cut in &cuts {
        for op in [PredOp::Gt, PredOp::Lt] {
            let pred = |v: f64| match op {
                PredOp::Gt => v > cut,
                PredOp::Lt => v < cut,
            };
            let err = correct.iter().filter(|&&v| pred(v)).count()
                + faulty.iter().filter(|&&v| !pred(v)).count();
            let p_c = correct.iter().filter(|&&v| pred(v)).count() as f64 / n_c;
            let p_f = faulty.iter().filter(|&&v| pred(v)).count() as f64 / n_f;
            let score = (p_c - p_f).abs();
            let better = match &best {
                None => true,
                Some((be, _, _, bs)) => err < *be || (err == *be && score > *bs),
            };
            if better {
                best = Some((err, op, cut, score));
            }
        }
    }

    let (_, op, threshold, score) = best.expect("at least one cut candidate");
    (op, threshold, score, correct.len().min(faulty.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{LogCorpus, Tally};
    use concrete::{ExecutionLog, Measure, Records, VarRole, Verdict};
    use proptest::prelude::*;

    /// The observations of a (value, faulty) stream, counted in order.
    fn tally(stream: impl IntoIterator<Item = (f64, bool)>) -> Observations {
        let mut tally = Tally::default();
        for (v, faulty) in stream {
            tally.push(v, faulty);
        }
        tally.finish()
    }

    fn mk(correct: &[f64], faulty: &[f64]) -> Predicate {
        let correct = correct.iter().map(|&v| (v, false));
        construct(
            Location::enter("f"),
            VarId::new("x", VarRole::Param, Measure::Value),
            &tally(correct.chain(faulty.iter().map(|&v| (v, true)))),
        )
        .unwrap()
    }

    #[test]
    fn perfectly_separable_above() {
        // Faulty values all larger: predicate v > σ with σ between 30 and 500.
        let p = mk(&[10.0, 20.0, 30.0], &[500.0, 600.0]);
        assert_eq!(p.op, PredOp::Gt);
        assert!(p.threshold > 30.0 && p.threshold < 500.0);
        assert_eq!(p.score, 1.0);
        assert!(!p.is_degenerate());
    }

    #[test]
    fn perfectly_separable_below() {
        let p = mk(&[100.0, 120.0], &[1.0, 2.0]);
        assert_eq!(p.op, PredOp::Lt);
        assert_eq!(p.score, 1.0);
        assert!(p.threshold > 2.0 && p.threshold < 100.0);
    }

    #[test]
    fn overlapping_distributions_score_below_one() {
        let p = mk(&[1.0, 2.0, 3.0, 10.0], &[3.0, 11.0, 12.0]);
        assert!(p.score < 1.0);
        assert!(p.score > 0.0);
    }

    #[test]
    fn identical_distributions_score_zero_ish() {
        let p = mk(&[5.0, 5.0], &[5.0, 5.0]);
        assert!(p.score <= f64::EPSILON);
    }

    #[test]
    fn paper_polymorph_shape_len_threshold() {
        // Correct runs: short names (< 512); faulty: > 512. The optimal
        // threshold must land strictly between the two clusters, as in
        // Table V's len(...) > 536.5 rows.
        let correct: Vec<f64> = (1..=40).map(|i| (i * 12) as f64).collect(); // up to 480
        let faulty: Vec<f64> = vec![513.0, 560.0, 600.0];
        let p = mk(&correct, &faulty);
        assert_eq!(p.op, PredOp::Gt);
        assert!(
            p.threshold > 480.0 && p.threshold < 513.0,
            "{}",
            p.threshold
        );
        assert_eq!(p.score, 1.0);
    }

    #[test]
    fn degenerate_only_correct_side() {
        let p = mk(&[1.0, 2.0], &[]);
        assert!(p.is_degenerate());
        assert_eq!(p.op, PredOp::Lt);
        assert_eq!(p.render(), "x FUNCPARAM < -infinity");
        assert_eq!(p.score, 1.0);
        assert_eq!(p.support, 0);
    }

    #[test]
    fn degenerate_only_faulty_side() {
        let p = mk(&[], &[9.0]);
        assert!(p.is_degenerate());
        assert_eq!(p.op, PredOp::Gt);
    }

    #[test]
    fn ranking_prefers_supported_predicates_over_degenerate() {
        let var_real = VarId::new("n", VarRole::Param, Measure::Value);
        let var_deg = VarId::new("only_correct", VarRole::Global, Measure::Value);
        let mk_log = |verdict: Verdict, n: f64, with_deg: bool| {
            let mut vars = vec![(var_real.clone(), n)];
            if with_deg {
                vars.push((var_deg.clone(), 0.0));
            }
            ExecutionLog {
                records: Records::from_rows([(Location::enter("f"), vars)]),
                verdict,
                fault: None,
            }
        };
        let logs = vec![
            mk_log(Verdict::Correct, 1.0, true),
            mk_log(Verdict::Correct, 2.0, true),
            mk_log(Verdict::Faulty, 100.0, false),
            mk_log(Verdict::Faulty, 200.0, false),
        ];
        let corpus = LogCorpus::build(&logs);
        let preds = PredicateSet::build(&corpus);
        // Both score 1.0, but the real (supported) predicate ranks first.
        assert_eq!(preds.ranked[0].var, var_real);
        assert!(!preds.ranked[0].is_degenerate());
        assert!(preds.ranked[1].is_degenerate());
        assert_eq!(preds.top(1).len(), 1);
        assert!(preds.location_score(&Location::enter("f")) >= 1.0 - f64::EPSILON);
        assert_eq!(preds.location_score(&Location::enter("nowhere")), 0.0);
    }

    /// Observed values mixing the shapes Eq. 1 is sensitive to: heavy
    /// duplicates, negatives and fractions, infinities, signed zeros,
    /// and adjacent floats whose midpoint rounds onto an endpoint (or
    /// overflows, next to `f64::MAX`).
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-3i64..=3).prop_map(|v| v as f64),
            (-1000i64..=1000).prop_map(|v| v as f64 / 8.0),
            prop_oneof![
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(0.0),
                Just(-0.0)
            ],
            (0usize..4, any::<bool>()).prop_map(|(i, neighbour)| {
                let base: f64 = [1.0, -3.5, 1e300, f64::MAX][i];
                if neighbour {
                    f64::from_bits(base.to_bits() - 1)
                } else {
                    base
                }
            }),
        ]
    }

    /// Counts `stream` in order into runs and checks that the run sweep
    /// equals both raw-value oracles bit for bit.
    fn assert_sweep_matches_oracles(stream: &[(f64, bool)]) {
        let correct: Vec<f64> = stream.iter().filter(|s| !s.1).map(|s| s.0).collect();
        let faulty: Vec<f64> = stream.iter().filter(|s| s.1).map(|s| s.0).collect();
        let obs = tally(stream.iter().copied());
        let p = optimal_threshold(
            Location::enter("f"),
            VarId::new("x", VarRole::Param, Measure::Value),
            &obs,
        );
        let sweep = (p.op, p.threshold.to_bits(), p.score.to_bits(), p.support);
        for (name, (op, threshold, score, support)) in [
            ("sorted", optimal_threshold_sorted(&correct, &faulty)),
            ("brute", optimal_threshold_brute(&correct, &faulty)),
        ] {
            let oracle = (op, threshold.to_bits(), score.to_bits(), support);
            prop_assert_eq!(sweep, oracle, "{} oracle on {:?}", name, stream);
        }
    }

    fn assert_sweep_matches_oracle(correct: Vec<f64>, faulty: Vec<f64>) {
        assert_sweep_matches_oracles(&interleave(&correct, &faulty, &[]));
    }

    /// Interleaves the two classes in the order `picks` gives (true
    /// takes the next faulty value while one is left).
    fn interleave(correct: &[f64], faulty: &[f64], picks: &[bool]) -> Vec<(f64, bool)> {
        let (mut c, mut f) = (correct.iter(), faulty.iter());
        let mut stream = Vec::new();
        for &pick in picks.iter().chain(std::iter::repeat(&false)) {
            let next = if pick {
                f.next().map(|&v| (v, true))
            } else {
                None
            };
            match next.or_else(|| c.next().map(|&v| (v, false))) {
                Some(item) => stream.push(item),
                None => break,
            }
        }
        stream.extend(f.map(|&v| (v, true)));
        stream
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn sweep_matches_oracles(
            correct in collection::vec(value(), 1..40),
            faulty in collection::vec(value(), 1..40),
            picks in collection::vec(any::<bool>(), 0..80),
        ) {
            assert_sweep_matches_oracles(&interleave(&correct, &faulty, &picks));
        }

        #[test]
        fn sweep_matches_oracles_on_heavy_repeats(
            correct in collection::vec(-3i64..=3, 1..200),
            faulty in collection::vec(-3i64..=3, 1..200),
            picks in collection::vec(any::<bool>(), 0..400),
        ) {
            let f = |v: &Vec<i64>| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
            assert_sweep_matches_oracles(&interleave(&f(&correct), &f(&faulty), &picks));
        }

        #[test]
        fn sweep_matches_oracles_on_single_values(c in value(), f in value()) {
            assert_sweep_matches_oracle(vec![c], vec![f]);
        }

        #[test]
        fn sweep_matches_oracles_on_infinities_only(
            correct in collection::vec(any::<bool>(), 1..6),
            faulty in collection::vec(any::<bool>(), 1..6),
        ) {
            // With no finite value the middle cut is (-inf + inf) / 2 = NaN.
            let inf = |up: bool| if up { f64::INFINITY } else { f64::NEG_INFINITY };
            assert_sweep_matches_oracle(
                correct.into_iter().map(inf).collect(),
                faulty.into_iter().map(inf).collect(),
            );
        }

        #[test]
        fn ranked_predicates_do_not_depend_on_log_order(
            rows in collection::vec((nan_or(value()), nan_or(value()), any::<bool>()), 2..24),
            keys in collection::vec(any::<u64>(), 24),
        ) {
            let logs: Vec<ExecutionLog> = rows.iter().map(|&(n, m, f)| one_record(n, m, f)).collect();
            let mut order: Vec<usize> = (0..logs.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let shuffled: Vec<ExecutionLog> = order.iter().map(|&i| logs[i].clone()).collect();
            let expected = fingerprint(&logs);
            prop_assert_eq!(fingerprint(&shuffled), expected.clone(), "{:?}", rows);
            let mut rotated = logs.clone();
            rotated.rotate_left(1);
            prop_assert_eq!(fingerprint(&rotated), expected, "{:?}", rows);
        }
    }

    /// `strategy`, NaN, `+0.0` or `-0.0`, one time in four each.
    fn nan_or(strategy: impl Strategy<Value = f64> + 'static) -> impl Strategy<Value = f64> {
        prop_oneof![strategy, Just(f64::NAN), Just(0.0), Just(-0.0)]
    }

    /// A one-record log at `f():enter` logging `n` and `m`.
    fn one_record(n: f64, m: f64, faulty: bool) -> ExecutionLog {
        let var = |name: &str| VarId::new(name, VarRole::Param, Measure::Value);
        ExecutionLog {
            records: Records::from_rows([(
                Location::enter("f"),
                vec![(var("n"), n), (var("m"), m)],
            )]),
            verdict: if faulty {
                Verdict::Faulty
            } else {
                Verdict::Correct
            },
            fault: None,
        }
    }

    /// The ranked predicates of `logs`, floats as bits.
    fn fingerprint(logs: &[ExecutionLog]) -> Vec<(String, PredOp, u64, u64, usize)> {
        PredicateSet::build(&LogCorpus::build(logs))
            .ranked
            .iter()
            .map(|p| {
                let at = format!("{} @ {}", p.var, p.loc);
                (
                    at,
                    p.op,
                    p.threshold.to_bits(),
                    p.score.to_bits(),
                    p.support,
                )
            })
            .collect()
    }

    #[test]
    fn nan_observations_are_skipped() {
        // The probe that exposed the order dependence: 16 one-record
        // logs, 3 of them NaN. The NaN logs must add nothing, in any
        // order.
        let n: Vec<(f64, bool)> = (1..=13)
            .map(|i| (i as f64, i % 3 == 0))
            .chain([(f64::NAN, true), (f64::NAN, false), (f64::NAN, true)])
            .collect();
        let logs: Vec<ExecutionLog> = n.iter().map(|&(v, f)| one_record(v, v, f)).collect();
        let finite: Vec<ExecutionLog> = n
            .iter()
            .filter(|(v, _)| !v.is_nan())
            .map(|&(v, f)| one_record(v, v, f))
            .collect();
        let expected = fingerprint(&finite);
        for k in 0..logs.len() {
            let mut rotated = logs.clone();
            rotated.rotate_left(k);
            assert_eq!(fingerprint(&rotated), expected, "rotation {k}");
        }
    }

    #[test]
    fn sweep_matches_oracle_on_midpoints_that_round_onto_endpoints() {
        let up = f64::from_bits(1.0f64.to_bits() + 1);
        // (1 + next_up(1)) / 2 rounds to 1.0, so the cut equals a value.
        assert_eq!((1.0 + up) / 2.0, 1.0);
        assert_sweep_matches_oracle(vec![1.0, 1.0], vec![up]);
        assert_sweep_matches_oracle(vec![up], vec![1.0, up]);
        let below_max = f64::from_bits(f64::MAX.to_bits() - 1);
        assert_sweep_matches_oracle(vec![below_max], vec![f64::MAX, f64::INFINITY]);
        assert_sweep_matches_oracle(vec![f64::NEG_INFINITY], vec![f64::INFINITY]);
        // A NaN cut that counted every value as `> NaN` would win here.
        let inf = f64::INFINITY;
        assert_sweep_matches_oracle(vec![inf], vec![-inf, inf, inf]);
    }
}
