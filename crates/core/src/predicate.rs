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
    match (obs.correct.is_empty(), obs.faulty.is_empty()) {
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
/// Both classes are sorted once and every cut is counted by binary
/// search with the same `>` / `<` comparisons a direct count uses, so
/// each pair costs O(n log n) instead of O(n²). Cuts are visited in
/// ascending order, `Gt` before `Lt`, and a later candidate wins only
/// with a strictly lower error or an equal error and a strictly higher
/// score.
fn optimal_threshold(loc: Location, var: VarId, obs: &Observations) -> Predicate {
    let by_value = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal);
    let mut correct = obs.correct.clone();
    correct.sort_by(by_value);
    let mut faulty = obs.faulty.clone();
    faulty.sort_by(by_value);
    let mut values: Vec<f64> = correct.iter().chain(&faulty).copied().collect();
    values.sort_by(by_value);
    values.dedup();

    // Candidate thresholds: midpoints plus sentinels beyond both ends.
    let cuts = std::iter::once(values[0] - 1.0)
        .chain(values.windows(2).map(|w| (w[0] + w[1]) / 2.0))
        .chain(std::iter::once(values[values.len() - 1] + 1.0));

    let n_c = correct.len() as f64;
    let n_f = faulty.len() as f64;
    // `!(v > cut)`, not `v <= cut`: a NaN cut (the midpoint of -inf and
    // +inf) satisfies no comparison, so it must count nothing either way.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let count = |sorted: &[f64], op: PredOp, cut: f64| match op {
        PredOp::Gt => sorted.len() - sorted.partition_point(|&v| !(v > cut)),
        PredOp::Lt => sorted.partition_point(|&v| v < cut),
    };
    let mut best: Option<(usize, PredOp, f64, f64)> = None; // (err, op, cut, score)

    for cut in cuts {
        for op in [PredOp::Gt, PredOp::Lt] {
            // Eq. 1: correct samples satisfying + faulty samples violating.
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
    Predicate {
        loc,
        var,
        op,
        threshold,
        score,
        support: obs.correct.len().min(obs.faulty.len()),
    }
}

/// The direct Eq. 1 search that recounts every observation for every
/// cut: the oracle the sweep in [`optimal_threshold`] must match.
#[cfg(test)]
fn optimal_threshold_brute(loc: Location, var: VarId, obs: &Observations) -> Predicate {
    let mut values: Vec<f64> = obs
        .correct
        .iter()
        .chain(obs.faulty.iter())
        .copied()
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    values.dedup();

    let mut cuts = Vec::with_capacity(values.len() + 1);
    cuts.push(values[0] - 1.0);
    for w in values.windows(2) {
        cuts.push((w[0] + w[1]) / 2.0);
    }
    cuts.push(values[values.len() - 1] + 1.0);

    let n_c = obs.correct.len() as f64;
    let n_f = obs.faulty.len() as f64;
    let mut best: Option<(usize, PredOp, f64, f64)> = None; // (err, op, cut, score)

    for &cut in &cuts {
        for op in [PredOp::Gt, PredOp::Lt] {
            let pred = |v: f64| match op {
                PredOp::Gt => v > cut,
                PredOp::Lt => v < cut,
            };
            let err = obs.correct.iter().filter(|&&v| pred(v)).count()
                + obs.faulty.iter().filter(|&&v| !pred(v)).count();
            let p_c = obs.correct.iter().filter(|&&v| pred(v)).count() as f64 / n_c;
            let p_f = obs.faulty.iter().filter(|&&v| pred(v)).count() as f64 / n_f;
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
    Predicate {
        loc,
        var,
        op,
        threshold,
        score,
        support: obs.correct.len().min(obs.faulty.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{Measure, VarRole};
    use proptest::prelude::*;

    fn mk(correct: &[f64], faulty: &[f64]) -> Predicate {
        construct(
            Location::enter("f"),
            VarId::new("x", VarRole::Param, Measure::Value),
            &Observations {
                correct: correct.to_vec(),
                faulty: faulty.to_vec(),
            },
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
        use crate::corpus::LogCorpus;
        use concrete::{ExecutionLog, Records, Verdict};
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

    fn assert_sweep_matches_oracle(correct: Vec<f64>, faulty: Vec<f64>) {
        let loc = Location::enter("f");
        let var = VarId::new("x", VarRole::Param, Measure::Value);
        let obs = Observations { correct, faulty };
        let sweep = optimal_threshold(loc.clone(), var.clone(), &obs);
        let brute = optimal_threshold_brute(loc, var, &obs);
        prop_assert_eq!(sweep.op, brute.op, "{:?}", obs);
        prop_assert_eq!(
            sweep.threshold.to_bits(),
            brute.threshold.to_bits(),
            "{:?}",
            obs
        );
        prop_assert_eq!(sweep.score.to_bits(), brute.score.to_bits(), "{:?}", obs);
        prop_assert_eq!(sweep.support, brute.support, "{:?}", obs);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn sweep_matches_brute_force_oracle(
            correct in collection::vec(value(), 1..40),
            faulty in collection::vec(value(), 1..40),
        ) {
            assert_sweep_matches_oracle(correct, faulty);
        }

        #[test]
        fn sweep_matches_brute_force_oracle_on_single_values(c in value(), f in value()) {
            assert_sweep_matches_oracle(vec![c], vec![f]);
        }

        #[test]
        fn sweep_matches_brute_force_oracle_on_infinities_only(
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
