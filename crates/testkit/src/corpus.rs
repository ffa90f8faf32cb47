//! Seed-pinned corpus: the hand-written differential programs promoted
//! into testkit entries (DESIGN.md §11).
//!
//! `tests/differential.rs` pinned the engine↔VM replay contract on five
//! fixed programs, one per interesting shape (guarded assert, string
//! copy overflow, divide-by-zero, `%`-expansion overflow, global-state
//! guard). The corpus runs those same programs under *all three* oracles
//! plus the chaos oracle, each with a pinned seed so the log corpora the
//! statistical stages see are reproducible byte-for-byte.

use minic::ast::Program;

/// One corpus program with its pinned oracle seed.
#[derive(Debug, Clone, Copy)]
pub struct CorpusEntry {
    /// Stable name, used in failure reports.
    pub name: &'static str,
    /// Pinned seed driving log minting and randomized schedules.
    pub seed: u64,
    /// minic source.
    pub source: &'static str,
}

impl CorpusEntry {
    /// Parses the entry. Corpus sources are fixed, so a parse failure is
    /// a corpus bug and panics.
    pub fn program(&self) -> Program {
        minic::parse_program(self.source)
            .unwrap_or_else(|e| panic!("corpus entry `{}` no longer parses: {e}", self.name))
    }
}

/// The pinned corpus, mirroring `tests/differential.rs`.
pub const CORPUS: &[CorpusEntry] = &[
    CorpusEntry {
        name: "int_assert",
        seed: 1101,
        source: r#"
            fn check(v: int) { assert(v * 3 < 250); }
            fn main() { let n: int = input_int("n"); if (n > 0) { check(n); } }
        "#,
    },
    CorpusEntry {
        name: "string_copy_overflow",
        seed: 1102,
        source: r#"
            fn fill(s: str) {
                let b: buf[5];
                let i: int = 0;
                while (char_at(s, i) != 0) { buf_set(b, i, char_at(s, i)); i = i + 1; }
                buf_set(b, i, 0);
            }
            fn main() { let s: str = input_str("s", 10); fill(s); }
        "#,
    },
    CorpusEntry {
        name: "div_by_zero",
        seed: 1103,
        source: r#"
            fn main() -> int {
                let d: int = input_int("d");
                let n: int = input_int("n");
                if (n > 5) { return n / (d - 7); }
                return 0;
            }
        "#,
    },
    CorpusEntry {
        name: "expansion_overflow",
        seed: 1104,
        source: r#"
            fn expand(s: str) {
                let out: buf[9];
                let i: int = 0;
                let o: int = 0;
                while (char_at(s, i) != 0) {
                    if (char_at(s, i) == '%') {
                        buf_set(out, o, '2'); buf_set(out, o + 1, '5');
                        o = o + 2;
                    } else {
                        buf_set(out, o, char_at(s, i));
                        o = o + 1;
                    }
                    i = i + 1;
                }
                buf_set(out, o, 0);
            }
            fn main() { let s: str = input_str("s", 8); expand(s); }
        "#,
    },
    CorpusEntry {
        name: "global_state_guard",
        seed: 1105,
        source: r#"
            global armed: int = 0;
            fn arm(v: int) { if (v > 9) { armed = 1; } }
            fn fire(v: int) -> int { if (armed == 1) { assert(v != 13); } return v; }
            fn main() {
                let v: int = input_int("v");
                arm(v);
                print(fire(v));
            }
        "#,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::check_chaos;
    use crate::oracles::{check_all, OracleOutcome};

    #[test]
    fn corpus_parses_and_lowers() {
        for entry in CORPUS {
            let program = entry.program();
            sir::lower(&program).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        }
    }

    #[test]
    fn corpus_passes_all_oracles() {
        for entry in CORPUS {
            let program = entry.program();
            let outcomes = check_all(&program, entry.seed)
                .unwrap_or_else(|f| panic!("corpus `{}` seed {}: {f}", entry.name, entry.seed));
            // Every corpus program has a reachable fault, so the replay
            // and completeness oracles must actually engage.
            assert_eq!(
                outcomes[0],
                OracleOutcome::Pass,
                "{}: replay was vacuous",
                entry.name
            );
            assert_eq!(
                outcomes[1],
                OracleOutcome::Pass,
                "{}: completeness was vacuous",
                entry.name
            );
        }
    }

    #[test]
    fn corpus_survives_chaos() {
        for entry in CORPUS {
            let program = entry.program();
            // Two schedules per entry: the pinned seed and a shifted one,
            // covering different miss/starve combinations.
            for seed in [entry.seed, entry.seed ^ 0xffff] {
                check_chaos(&program, seed)
                    .unwrap_or_else(|e| panic!("corpus `{}` chaos seed {seed}: {e}", entry.name));
            }
        }
    }
}
