//! Compound boolean predicates — the extension the paper's related-work
//! section points at (Arumuga Nainar et al., "Statistical Debugging
//! Using Compound Boolean Predicates"): conjunctions of two threshold
//! predicates observed at the same location can separate run classes
//! that no single threshold separates.
//!
//! Scoring follows the same Eq. 2 form as simple predicates, but is
//! evaluated per *record* so the two variables are paired within the
//! same observation.

use crate::predicate::{PredOp, Predicate, PredicateSet};
use concrete::{ExecutionLog, Location, Site, SiteTable, Verdict};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A conjunction of two simple predicates at one location.
#[derive(Debug, Clone, PartialEq)]
pub struct CompoundPredicate {
    /// The shared location.
    pub loc: Location,
    /// First conjunct.
    pub lhs: Predicate,
    /// Second conjunct.
    pub rhs: Predicate,
    /// `|P(lhs ∧ rhs | C) − P(lhs ∧ rhs | F)|`.
    pub score: f64,
    /// Best individual conjunct score (for measuring the gain).
    pub best_single: f64,
}

impl CompoundPredicate {
    /// How much the conjunction improves on its best conjunct.
    pub fn gain(&self) -> f64 {
        self.score - self.best_single
    }

    /// Renders like `a FUNCPARAM > 3 && b GLOBAL < 7`.
    pub fn render(&self) -> String {
        format!("{} && {}", self.lhs.render(), self.rhs.render())
    }
}

impl fmt::Display for CompoundPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} (s={:.3})", self.render(), self.loc, self.score)
    }
}

/// Ranked compound predicates.
#[derive(Debug, Clone, Default)]
pub struct CompoundSet {
    /// Compounds with positive gain, best score first.
    pub ranked: Vec<CompoundPredicate>,
}

impl CompoundSet {
    /// Builds compound predicates by pairing the top simple predicates
    /// at each location and re-scoring the conjunction per record.
    /// Only conjunctions that strictly improve on both conjuncts are
    /// kept.
    pub fn build(logs: &[ExecutionLog], simple: &PredicateSet, per_location: usize) -> CompoundSet {
        // Group top simple predicates by location.
        let mut by_loc: BTreeMap<&Location, Vec<&Predicate>> = BTreeMap::new();
        for p in &simple.ranked {
            if p.is_degenerate() {
                continue;
            }
            let v = by_loc.entry(&p.loc).or_default();
            if v.len() < per_location {
                v.push(p);
            }
        }

        let mut ranked = Vec::new();
        for (loc, preds) in &by_loc {
            for i in 0..preds.len() {
                for j in (i + 1)..preds.len() {
                    let (a, b) = (preds[i], preds[j]);
                    if a.var == b.var {
                        continue; // conjunction over one variable is just an interval
                    }
                    if let Some(score) = joint_score(logs, loc, a, b) {
                        let best_single = a.score.max(b.score);
                        if score > best_single {
                            ranked.push(CompoundPredicate {
                                loc: (*loc).clone(),
                                lhs: a.clone(),
                                rhs: b.clone(),
                                score,
                                best_single,
                            });
                        }
                    }
                }
            }
        }
        ranked.sort_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| x.loc.cmp(&y.loc))
        });
        CompoundSet { ranked }
    }
}

fn eval(p: &Predicate, value: f64) -> bool {
    match p.op {
        PredOp::Gt => value > p.threshold,
        PredOp::Lt => value < p.threshold,
    }
}

/// `|P(a ∧ b | C) − P(a ∧ b | F)|` over records at `loc` that observe
/// both variables. `None` when either side has no paired records.
///
/// Each site of a log's table is resolved once to the columns of `a`
/// and `b` (the first of each in its variable list), and re-resolved
/// only when a log brings another table.
fn joint_score(logs: &[ExecutionLog], loc: &Location, a: &Predicate, b: &Predicate) -> Option<f64> {
    let mut counts = [(0usize, 0usize); 2]; // [correct, faulty] = (sat, total)

    // The columns of `a` and `b` per site of `table`, if at `loc`.
    let mut table: Option<&Arc<SiteTable>> = None;
    let mut columns: Vec<Option<(usize, usize)>> = Vec::new();
    for log in logs {
        let class = match log.verdict {
            Verdict::Correct => 0,
            Verdict::Faulty => 1,
            Verdict::Inconclusive => continue,
        };
        let sites = log.records.table();
        if !table.is_some_and(|t| Arc::ptr_eq(t, sites)) {
            let resolve = |site: &Site| {
                if site.loc != *loc {
                    return None;
                }
                let col = |var| site.vars.iter().position(|v| v == var);
                Some((col(&a.var)?, col(&b.var)?))
            };
            columns = sites.iter().map(resolve).collect();
            table = Some(sites);
        }
        for rec in &log.records {
            let Some((ia, ib)) = columns[rec.id as usize] else {
                continue;
            };
            counts[class].1 += 1;
            let value = |i| rec.values.get(i).expect("a column of the record's site");
            if eval(a, value(ia)) && eval(b, value(ib)) {
                counts[class].0 += 1;
            }
        }
    }
    let (c_sat, c_tot) = counts[0];
    let (f_sat, f_tot) = counts[1];
    if c_tot == 0 || f_tot == 0 {
        return None;
    }
    Some((c_sat as f64 / c_tot as f64 - f_sat as f64 / f_tot as f64).abs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::LogCorpus;
    use concrete::{Measure, Records, VarId, VarRole};

    /// Builds a corpus where neither x nor y separates classes alone,
    /// but (x > σ && y > σ) does: faulty runs have both high, correct
    /// runs have exactly one high.
    fn xor_ish_logs() -> Vec<ExecutionLog> {
        let loc = Location::enter("f");
        let vx = VarId::new("x", VarRole::Param, Measure::Value);
        let vy = VarId::new("y", VarRole::Param, Measure::Value);
        let mk = |verdict, x: f64, y: f64| ExecutionLog {
            records: Records::from_rows([(loc.clone(), [(vx.clone(), x), (vy.clone(), y)])]),
            verdict,
            fault: None,
        };
        let mut logs = Vec::new();
        for i in 0..20 {
            // Correct: one of the two is high.
            if i % 2 == 0 {
                logs.push(mk(Verdict::Correct, 100.0 + i as f64, 1.0));
            } else {
                logs.push(mk(Verdict::Correct, 1.0, 100.0 + i as f64));
            }
            // Faulty: both high.
            logs.push(mk(Verdict::Faulty, 100.0 + i as f64, 100.0 + i as f64));
        }
        logs
    }

    #[test]
    fn conjunction_beats_single_thresholds() {
        let logs = xor_ish_logs();
        let corpus = LogCorpus::build(&logs);
        let simple = PredicateSet::build(&corpus);
        // No single predicate separates perfectly here.
        let best_single = simple.ranked.first().map(|p| p.score).unwrap_or(0.0);
        assert!(best_single < 0.9, "single score {best_single}");

        let compound = CompoundSet::build(&logs, &simple, 4);
        let best = compound.ranked.first().expect("a compound is found");
        assert!(best.score > 0.9, "compound score {:.3}", best.score);
        assert!(best.gain() > 0.3, "gain {:.3}", best.gain());
        let rendered = best.render();
        assert!(rendered.contains("&&"), "{rendered}");
    }

    #[test]
    fn no_compounds_when_single_is_perfect() {
        // One variable already separates: conjunctions cannot improve.
        let loc = Location::enter("f");
        let vx = VarId::new("x", VarRole::Param, Measure::Value);
        let vy = VarId::new("y", VarRole::Param, Measure::Value);
        let mk = |verdict, x: f64, y: f64| ExecutionLog {
            records: Records::from_rows([(loc.clone(), [(vx.clone(), x), (vy.clone(), y)])]),
            verdict,
            fault: None,
        };
        let mut logs = Vec::new();
        for i in 0..10 {
            logs.push(mk(Verdict::Correct, i as f64, (i * 7 % 5) as f64));
            logs.push(mk(Verdict::Faulty, 100.0 + i as f64, (i * 3 % 5) as f64));
        }
        let corpus = LogCorpus::build(&logs);
        let simple = PredicateSet::build(&corpus);
        assert!(simple.ranked[0].score > 0.99);
        let compound = CompoundSet::build(&logs, &simple, 4);
        assert!(
            compound.ranked.iter().all(|c| c.gain() > 0.0),
            "only strict improvements are kept"
        );
        // The top simple predicate is perfect, so nothing can beat it at
        // that location.
        assert!(compound.ranked.iter().all(|c| c.score > c.best_single));
    }

    #[test]
    fn same_variable_pairs_are_skipped() {
        let logs = xor_ish_logs();
        let corpus = LogCorpus::build(&logs);
        let simple = PredicateSet::build(&corpus);
        let compound = CompoundSet::build(&logs, &simple, 8);
        for c in &compound.ranked {
            assert_ne!(c.lhs.var, c.rhs.var);
        }
    }

    #[test]
    fn shared_and_per_log_tables_score_alike() {
        // Generated logs share one site table; parsed copies each hold
        // their own. Compounds are scored per record either way.
        use benchapps::{all_apps, generate_corpus, CorpusSpec};
        use concrete::{parse_log, write_log};
        let spec = CorpusSpec {
            n_correct: 30,
            n_faulty: 30,
            ..CorpusSpec::default()
        };
        let mut found = 0;
        for app in all_apps() {
            let shared = generate_corpus(&app, spec);
            let own: Vec<ExecutionLog> = shared
                .iter()
                .map(|l| parse_log(&write_log(l)).unwrap())
                .collect();
            let simple = PredicateSet::build(&LogCorpus::build(&shared));
            let expected = CompoundSet::build(&shared, &simple, 4).ranked;
            assert_eq!(
                CompoundSet::build(&own, &simple, 4).ranked,
                expected,
                "{}",
                app.name
            );
            found += expected.len();
        }
        assert!(found > 0, "some app yields a compound");
    }
}
