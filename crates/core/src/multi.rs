//! Iterative discovery of multiple vulnerabilities (paper §III-C).
//!
//! The paper notes that a program may contain several vulnerabilities
//! and proposes isolating them — e.g. by clustering log files per bug —
//! and applying StatSym iteratively "until all vulnerabilities and paths
//! are identified". This module implements that loop:
//!
//! 1. cluster faulty logs by their crash site (the observable signal a
//!    field deployment has for separating bugs);
//! 2. run the pipeline on the correct logs plus the dominant cluster;
//! 3. on success, *suppress* the discovered fault site in the symbolic
//!    engine and drop that cluster from the corpus;
//! 4. repeat until no faulty logs remain or an iteration fails.

use crate::pipeline::{StatSym, StatSymReport};
use concrete::ExecutionLog;
use minic::Span;
use sir::Module;
use statsym_telemetry::NOOP;
use symex::FoundVulnerability;

/// Result of the iterative multi-vulnerability search.
#[derive(Debug)]
pub struct MultiReport {
    /// One pipeline report per discovered vulnerability, in discovery
    /// order.
    pub iterations: Vec<StatSymReport>,
    /// The distinct vulnerable paths found.
    pub found: Vec<FoundVulnerability>,
    /// Faulty logs whose cluster could not be resolved (empty when
    /// every vulnerability was found).
    pub unresolved_faulty_logs: usize,
}

impl StatSym {
    /// Discovers up to `max_vulnerabilities` distinct vulnerable paths,
    /// eliminating each found fault site before searching for the next
    /// (paper §III-C).
    pub fn run_iterative(
        &self,
        module: &Module,
        logs: &[ExecutionLog],
        max_vulnerabilities: usize,
    ) -> MultiReport {
        let correct: Vec<ExecutionLog> = logs.iter().filter(|l| !l.is_faulty()).cloned().collect();
        let mut remaining_faulty: Vec<ExecutionLog> =
            logs.iter().filter(|l| l.is_faulty()).cloned().collect();

        let mut iterations = Vec::new();
        let mut found: Vec<FoundVulnerability> = Vec::new();
        let mut suppressed: Vec<(String, Span)> = Vec::new();

        while found.len() < max_vulnerabilities && !remaining_faulty.is_empty() {
            // Cluster by crash function; take the dominant cluster.
            let dominant = match dominant_crash_func(&remaining_faulty) {
                Some(f) => f,
                None => break,
            };
            let cluster: Vec<ExecutionLog> = remaining_faulty
                .iter()
                .filter(|l| crash_func(l) == Some(dominant.as_str()))
                .cloned()
                .collect();
            let mut corpus = correct.clone();
            corpus.extend(cluster);

            let analysis = self.analyze(&corpus);
            let report = self.run_candidates(
                module,
                analysis,
                &concrete::InputMap::new(),
                &suppressed,
                &NOOP,
            );
            let hit = report.found.clone();
            iterations.push(report);
            match hit {
                Some(f) => {
                    suppressed.push((f.fault.func.clone(), f.fault.span));
                    found.push(f);
                    remaining_faulty.retain(|l| crash_func(l) != Some(dominant.as_str()));
                }
                None => break,
            }
        }

        MultiReport {
            iterations,
            found,
            unresolved_faulty_logs: remaining_faulty.len(),
        }
    }
}

fn crash_func(log: &ExecutionLog) -> Option<&str> {
    log.fault.as_ref().map(|f| f.func.as_str())
}

fn dominant_crash_func(faulty: &[ExecutionLog]) -> Option<String> {
    let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
    for log in faulty {
        if let Some(f) = crash_func(log) {
            *counts.entry(f).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|(f, n)| (*n, std::cmp::Reverse(f.to_string())))
        .map(|(f, _)| f.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use concrete::{run_logged, InputMap, InputValue};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Two independent bugs: an unchecked copy (buffer overflow) and an
    /// assertion on the mode value.
    const SRC: &str = r#"
        global mode_seen: int = 0;
        fn copy(s: str) {
            let b: buf[4];
            let i: int = 0;
            while (char_at(s, i) != 0) { buf_set(b, i, char_at(s, i)); i = i + 1; }
            buf_set(b, i, 0);
        }
        fn select_mode(m: int) {
            mode_seen = m;
            assert(m < 40);
        }
        fn main() {
            let m: int = input_int("mode");
            let s: str = input_str("name", 8);
            select_mode(m);
            copy(s);
        }
    "#;

    fn corpus(module: &sir::Module) -> Vec<ExecutionLog> {
        let mut rng = StdRng::seed_from_u64(77);
        let mut logs = Vec::new();
        for i in 0..120 {
            // Mix: correct runs, copy-overflow runs, assert runs.
            let (m, len) = match i % 3 {
                0 => (rng.random_range(0..40), rng.random_range(0..=3)), // correct
                1 => (rng.random_range(0..40), rng.random_range(4..=8)), // overflow
                _ => (rng.random_range(40..100), rng.random_range(0..=3)), // assert
            };
            let name: Vec<u8> = (0..len).map(|_| rng.random_range(b'a'..=b'z')).collect();
            let inputs: InputMap = [
                ("mode".to_string(), InputValue::Int(m)),
                ("name".to_string(), InputValue::Str(name)),
            ]
            .into_iter()
            .collect();
            logs.push(run_logged(module, &inputs, 1.0, 77 ^ i).unwrap().log);
        }
        logs
    }

    #[test]
    fn discovers_both_vulnerabilities_iteratively() {
        let module = sir::lower(&minic::parse_program(SRC).unwrap()).unwrap();
        let logs = corpus(&module);
        let statsym = StatSym::default();
        let report = statsym.run_iterative(&module, &logs, 4);
        assert_eq!(report.found.len(), 2, "both bugs found");
        let mut funcs: Vec<&str> = report.found.iter().map(|f| f.fault.func.as_str()).collect();
        funcs.sort_unstable();
        assert_eq!(funcs, vec!["copy", "select_mode"]);
        assert_eq!(report.unresolved_faulty_logs, 0);
        assert_eq!(report.iterations.len(), 2);

        // Each generated input reproduces its own bug.
        let vm = concrete::Vm::new(&module, concrete::VmConfig::default());
        for f in &report.found {
            let replay = vm.run(&f.inputs).unwrap();
            assert_eq!(replay.outcome.fault().unwrap().func, f.fault.func);
        }
    }

    #[test]
    fn max_vulnerabilities_caps_iterations() {
        let module = sir::lower(&minic::parse_program(SRC).unwrap()).unwrap();
        let logs = corpus(&module);
        let report = StatSym::default().run_iterative(&module, &logs, 1);
        assert_eq!(report.found.len(), 1);
        assert!(report.unresolved_faulty_logs > 0);
    }

    #[test]
    fn no_faulty_logs_means_no_iterations() {
        let module = sir::lower(&minic::parse_program(SRC).unwrap()).unwrap();
        let logs: Vec<ExecutionLog> = corpus(&module)
            .into_iter()
            .filter(|l| !l.is_faulty())
            .collect();
        let report = StatSym::default().run_iterative(&module, &logs, 4);
        assert!(report.found.is_empty());
        assert!(report.iterations.is_empty());
    }
}
