//! Text serialization of execution logs.
//!
//! The paper's monitor writes one log *file* per run (hundreds of MB for
//! Grep); the statistical module reads them back. This module provides
//! the equivalent plain-text format:
//!
//! ```text
//! #verdict faulty
//! #fault convert_fileName 35:13 buffer-overflow
//! @ convert_fileName():enter
//! len(original FUNCPARAM) = 517
//! track GLOBAL = 3
//! @ main():leave
//! ret RETURN = 0
//! ```
//!
//! Parsing is strict: malformed lines — including non-finite values
//! such as `NaN` or `inf` — are reported with their line number rather
//! than skipped, so corrupted corpora are caught early.

use crate::event::{FnEvent, Location, Measure, VarId, VarRole};
use crate::fault::{Fault, FaultKind};
use crate::monitor::{ExecutionLog, Verdict};
use crate::records::RecordsBuilder;
use minic::Span;
use std::fmt;

/// Error produced when parsing a log file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLogError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseLogError {}

/// Serializes a log to the text format.
pub fn write_log(log: &ExecutionLog) -> String {
    let mut out = String::new();
    let verdict = match log.verdict {
        Verdict::Correct => "correct",
        Verdict::Faulty => "faulty",
        Verdict::Inconclusive => "inconclusive",
    };
    out.push_str("#verdict ");
    out.push_str(verdict);
    out.push('\n');
    if let Some(fault) = &log.fault {
        out.push_str(&format!(
            "#fault {} {}:{} {}\n",
            fault.func,
            fault.span.line,
            fault.span.col,
            fault_tag(&fault.kind)
        ));
    }
    for rec in &log.records {
        out.push_str(&format!("@ {}\n", rec.loc()));
        for (var, value) in rec.vars() {
            out.push_str(&format!("{var} = {value}\n"));
        }
    }
    out
}

fn fault_tag(kind: &FaultKind) -> String {
    match kind {
        FaultKind::BufferOverflow { cap, idx } => format!("buffer-overflow/{cap}/{idx}"),
        FaultKind::StringOob { len, idx } => format!("string-oob/{len}/{idx}"),
        FaultKind::AssertFailed => "assert-failed".into(),
        FaultKind::DivByZero => "div-by-zero".into(),
        FaultKind::StackOverflow => "stack-overflow".into(),
        FaultKind::AllocOverflow { req } => format!("alloc-overflow/{req}"),
        FaultKind::OffByOne { cap } => format!("off-by-one/{cap}"),
        FaultKind::FormatString { idx } => format!("format-string/{idx}"),
        FaultKind::UseAfterFree => "use-after-free".into(),
    }
}

fn parse_fault_tag(tag: &str) -> Option<FaultKind> {
    let mut parts = tag.split('/');
    match parts.next()? {
        "buffer-overflow" => Some(FaultKind::BufferOverflow {
            cap: parts.next()?.parse().ok()?,
            idx: parts.next()?.parse().ok()?,
        }),
        "string-oob" => Some(FaultKind::StringOob {
            len: parts.next()?.parse().ok()?,
            idx: parts.next()?.parse().ok()?,
        }),
        "assert-failed" => Some(FaultKind::AssertFailed),
        "div-by-zero" => Some(FaultKind::DivByZero),
        "stack-overflow" => Some(FaultKind::StackOverflow),
        "alloc-overflow" => Some(FaultKind::AllocOverflow {
            req: parts.next()?.parse().ok()?,
        }),
        "off-by-one" => Some(FaultKind::OffByOne {
            cap: parts.next()?.parse().ok()?,
        }),
        "format-string" => Some(FaultKind::FormatString {
            idx: parts.next()?.parse().ok()?,
        }),
        "use-after-free" => Some(FaultKind::UseAfterFree),
        _ => None,
    }
}

/// Parses one serialized log.
///
/// # Errors
///
/// Returns a [`ParseLogError`] with the offending line number on any
/// malformed header, location, or variable line.
pub fn parse_log(text: &str) -> Result<ExecutionLog, ParseLogError> {
    let err = |line: usize, message: &str| ParseLogError {
        line,
        message: message.to_string(),
    };
    let mut verdict = None;
    let mut fault: Option<Fault> = None;
    let mut records = RecordsBuilder::default();
    // The record being read: its location and (variable, value) lines.
    let mut current: Option<(Location, Vec<(VarId, f64)>)> = None;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(v) = line.strip_prefix("#verdict ") {
            verdict = Some(match v {
                "correct" => Verdict::Correct,
                "faulty" => Verdict::Faulty,
                "inconclusive" => Verdict::Inconclusive,
                _ => return Err(err(lineno, "unknown verdict")),
            });
        } else if let Some(rest) = line.strip_prefix("#fault ") {
            let mut parts = rest.split_whitespace();
            let func = parts
                .next()
                .ok_or_else(|| err(lineno, "missing fault function"))?;
            let pos = parts
                .next()
                .ok_or_else(|| err(lineno, "missing fault position"))?;
            let (l, c) = pos
                .split_once(':')
                .ok_or_else(|| err(lineno, "bad fault position"))?;
            let kind = parts
                .next()
                .and_then(parse_fault_tag)
                .ok_or_else(|| err(lineno, "bad fault kind"))?;
            fault = Some(Fault {
                kind,
                func: func.to_string(),
                span: Span::new(
                    l.parse().map_err(|_| err(lineno, "bad line number"))?,
                    c.parse().map_err(|_| err(lineno, "bad column number"))?,
                ),
            });
        } else if let Some(loc) = line.strip_prefix("@ ") {
            let loc = parse_location(loc).ok_or_else(|| err(lineno, "bad location"))?;
            if let Some((loc, vars)) = current.replace((loc, Vec::new())) {
                records.push(loc, vars);
            }
        } else if let Some((var, value)) = line.split_once(" = ") {
            let (_, vars) = current
                .as_mut()
                .ok_or_else(|| err(lineno, "variable before any location"))?;
            let var = parse_var(var).ok_or_else(|| err(lineno, "bad variable"))?;
            // Non-finite values would leave Eq. 1's sort order, and so
            // every threshold, undefined; the monitor never emits them.
            let value = value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| err(lineno, "bad value"))?;
            vars.push((var, value));
        } else {
            return Err(err(lineno, "unrecognized line"));
        }
    }
    if let Some((loc, vars)) = current {
        records.push(loc, vars);
    }

    Ok(ExecutionLog {
        records: records.finish(),
        verdict: verdict.ok_or_else(|| err(0, "missing #verdict header"))?,
        fault,
    })
}

fn parse_location(s: &str) -> Option<Location> {
    let (func, event) = s.split_once("():")?;
    let event = match event {
        "enter" => FnEvent::Enter,
        "leave" => FnEvent::Leave,
        _ => return None,
    };
    Some(Location {
        func: func.into(),
        event,
    })
}

fn parse_var(s: &str) -> Option<VarId> {
    let (inner, measure) = match s.strip_prefix("len(").and_then(|r| r.strip_suffix(')')) {
        Some(inner) => (inner, Measure::Length),
        None => (s, Measure::Value),
    };
    let (name, role) = inner.rsplit_once(' ')?;
    let role = match role {
        "GLOBAL" => VarRole::Global,
        "FUNCPARAM" => VarRole::Param,
        "RETURN" => VarRole::Return,
        _ => return None,
    };
    Some(VarId::new(name, role, measure))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Records, Values};
    use proptest::prelude::*;

    fn sample_log() -> ExecutionLog {
        sample_log_with(517.0)
    }

    /// The sample log with `original` as its first value.
    fn sample_log_with(original: f64) -> ExecutionLog {
        ExecutionLog {
            records: Records::from_rows([
                (
                    Location::enter("convert_fileName"),
                    vec![
                        (
                            VarId::new("original", VarRole::Param, Measure::Length),
                            original,
                        ),
                        (VarId::new("track", VarRole::Global, Measure::Value), 3.0),
                    ],
                ),
                (
                    Location::leave("main"),
                    vec![(VarId::new("ret", VarRole::Return, Measure::Value), 0.0)],
                ),
            ]),
            verdict: Verdict::Faulty,
            fault: Some(Fault {
                kind: FaultKind::BufferOverflow { cap: 512, idx: 513 },
                func: "convert_fileName".into(),
                span: Span::new(35, 13),
            }),
        }
    }

    #[test]
    fn roundtrip_preserves_log() {
        let log = sample_log();
        let text = write_log(&log);
        let parsed = parse_log(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn roundtrip_correct_log_without_fault() {
        let log = ExecutionLog {
            records: Records::from_rows([(Location::enter("main"), vec![])]),
            verdict: Verdict::Correct,
            fault: None,
        };
        assert_eq!(parse_log(&write_log(&log)).unwrap(), log);
    }

    #[test]
    fn rejects_missing_verdict() {
        assert!(parse_log("@ main():enter\n").is_err());
    }

    #[test]
    fn rejects_variable_before_location() {
        let e = parse_log("#verdict correct\nx GLOBAL = 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("before any location"));
    }

    #[test]
    fn rejects_garbage_lines() {
        let e = parse_log("#verdict correct\n???\n").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_non_finite_values() {
        for value in [
            "NaN",
            "nan",
            "inf",
            "-inf",
            "+infinity",
            "Infinity",
            "1e999",
        ] {
            let text = format!("#verdict correct\n@ main():enter\nx GLOBAL = {value}\n");
            let e = parse_log(&text).unwrap_err();
            assert_eq!(e.line, 3, "{value}");
            assert_eq!(e.message, "bad value", "{value}");
        }
    }

    #[test]
    fn negative_and_fractional_values_roundtrip() {
        let log = sample_log_with(-12.5);
        let parsed = parse_log(&write_log(&log)).unwrap();
        assert_eq!(parsed.records.values().get(0), Some(-12.5));
        assert_eq!(parsed, log);
    }

    #[test]
    fn all_fault_kinds_roundtrip() {
        for kind in [
            FaultKind::BufferOverflow { cap: 4, idx: 9 },
            FaultKind::StringOob { len: 3, idx: -1 },
            FaultKind::AssertFailed,
            FaultKind::DivByZero,
            FaultKind::StackOverflow,
            FaultKind::AllocOverflow {
                req: -70368744177664,
            },
            FaultKind::OffByOne { cap: 16 },
            FaultKind::FormatString { idx: 3 },
            FaultKind::UseAfterFree,
        ] {
            let mut log = sample_log();
            log.fault.as_mut().unwrap().kind = kind;
            let parsed = parse_log(&write_log(&log)).unwrap();
            assert_eq!(parsed.fault.unwrap().kind, kind);
        }
    }

    #[test]
    fn monitored_run_roundtrips() {
        // An actual monitored execution survives the write/parse cycle.
        let p = minic::parse_program(
            r#"
            global count: int = 0;
            fn bump(v: int) -> int { count = count + v; return count; }
            fn main() { print(bump(3)); print(bump(4)); }
            "#,
        )
        .unwrap();
        let module = sir::lower(&p).unwrap();
        let run = crate::runner::run_logged(&module, &Default::default(), 1.0, 0).unwrap();
        let text = write_log(&run.log);
        assert_eq!(parse_log(&text).unwrap(), run.log);
    }

    /// A value spelling: finite, non-finite, or not a number at all.
    fn value_text() -> impl Strategy<Value = String> {
        prop_oneof![
            (-100_000i64..=100_000).prop_map(|v| (v as f64 / 16.0).to_string()),
            prop_oneof![
                Just("NaN"),
                Just("-nan"),
                Just("inf"),
                Just("-inf"),
                Just("infinity"),
                Just("1e999"),
                Just("-1e999"),
                Just("0x10"),
                Just("1.5.2"),
            ]
            .prop_map(str::to_string),
        ]
    }

    /// One log line: well-formed headers, locations and variables, their
    /// near misses, and short runs of arbitrary characters.
    fn line() -> impl Strategy<Value = String> {
        const JUNK: &str = "@#():= -.len(GLOBAL)é\t0xinfN/";
        let junk = collection::vec(0..JUNK.chars().count(), 0..12)
            .prop_map(|ix| ix.into_iter().filter_map(|i| JUNK.chars().nth(i)).collect());
        prop_oneof![
            prop_oneof![
                Just("#verdict correct"),
                Just("#verdict faulty"),
                Just("#verdict maybe"),
                Just("#fault f 3:4 assert-failed"),
                Just("#fault f 3 div-by-zero"),
                Just("#fault f x:y buffer-overflow/4/9"),
                Just("#fault"),
                Just("@ main():enter"),
                Just("@ f():leave"),
                Just("@ f():sideways"),
                Just("@ "),
            ]
            .prop_map(str::to_string),
            (
                prop_oneof![
                    Just("x GLOBAL"),
                    Just("len(s FUNCPARAM)"),
                    Just("ret RETURN"),
                    Just("x LOCAL"),
                    Just("len(s"),
                ],
                value_text()
            )
                .prop_map(|(var, value)| format!("{var} = {value}")),
            junk,
        ]
    }

    /// A random log: records at a few locations whose variable lists
    /// change from record to record (some missing, reordered or
    /// repeated), with finite values.
    fn random_log() -> impl Strategy<Value = ExecutionLog> {
        let loc = (0..3usize, any::<bool>()).prop_map(|(f, enter)| {
            let func = ["main", "f", "g"][f];
            if enter {
                Location::enter(func)
            } else {
                Location::leave(func)
            }
        });
        let var = (0..3usize, 0..3usize, any::<bool>()).prop_map(|(name, role, len)| {
            let role = [VarRole::Global, VarRole::Param, VarRole::Return][role];
            let measure = if len { Measure::Length } else { Measure::Value };
            VarId::new(["a", "b", "ret"][name], role, measure)
        });
        let value = (-100_000i64..=100_000).prop_map(|v| v as f64 / 16.0);
        let record = (loc, collection::vec((var, value), 0..4));
        let verdict = prop_oneof![
            Just(Verdict::Correct),
            Just(Verdict::Faulty),
            Just(Verdict::Inconclusive),
        ];
        let fault = prop_oneof![
            Just(None),
            (1u32..500, 1u32..80).prop_map(|(line, col)| Some(Fault {
                kind: FaultKind::AssertFailed,
                func: "f".into(),
                span: Span::new(line, col),
            })),
        ];
        (collection::vec(record, 0..10), verdict, fault).prop_map(|(rows, verdict, fault)| {
            ExecutionLog {
                records: Records::from_rows(rows),
                verdict,
                fault,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn random_logs_roundtrip_with_changing_variable_lists(log in random_log()) {
            let parsed = parse_log(&write_log(&log)).unwrap();
            prop_assert_eq!(&parsed, &log);
            // Record by record: the same location, variables and values.
            let rows = |l: &ExecutionLog| -> Vec<(Location, Vec<(VarId, f64)>)> {
                l.records
                    .iter()
                    .map(|r| (r.loc().clone(), r.vars().map(|(v, x)| (v.clone(), x)).collect()))
                    .collect()
            };
            prop_assert_eq!(rows(&parsed), rows(&log));
            // One site per distinct (location, variable list), as built.
            prop_assert_eq!(parsed.records.table().len(), log.records.table().len());
        }

        #[test]
        fn promoted_logs_roundtrip_bit_exact(
            ints in collection::vec(-1000i32..1000, 0..30),
            misfit in prop_oneof![
                prop_oneof![Just(-0.0), Just(0.5), Just(-2.5e9), Just(3e9), Just(1e300), Just(-1e-300)],
                (-1000i64..1000).prop_map(|v| v as f64 / 8.0 + 1.0 / 1024.0),
            ],
            at in any::<usize>(),
        ) {
            let log = |values: &[f64]| ExecutionLog {
                records: Records::from_rows(values.iter().map(|&v| {
                    let x = VarId::new("x", VarRole::Global, Measure::Value);
                    (Location::enter("f"), vec![(x, v)])
                })),
                verdict: Verdict::Faulty,
                fault: None,
            };
            let bits = |l: &ExecutionLog| -> Vec<u64> {
                l.records.values().iter().map(f64::to_bits).collect()
            };
            let mut values: Vec<f64> = ints.into_iter().map(f64::from).collect();
            let narrow = parse_log(&write_log(&log(&values))).unwrap();
            prop_assert!(matches!(narrow.records.values(), Values::Narrow(_)));
            values.insert(at % (values.len() + 1), misfit);
            let promoted = log(&values);
            prop_assert!(matches!(promoted.records.values(), Values::Wide(_)));
            let parsed = parse_log(&write_log(&promoted)).unwrap();
            prop_assert!(matches!(parsed.records.values(), Values::Wide(_)));
            prop_assert_eq!(bits(&parsed), bits(&promoted));
            prop_assert_eq!(&parsed, &promoted);
        }

        #[test]
        fn arbitrary_text_parses_or_errors_without_panicking(
            lines in collection::vec(line(), 0..12),
        ) {
            let text = lines.join("\n");
            match parse_log(&text) {
                Ok(log) => prop_assert!(log.records.values().iter().all(f64::is_finite)),
                Err(e) => prop_assert!(e.line <= lines.len()),
            }
        }

        #[test]
        fn any_value_line_parses_iff_its_value_is_finite(value in value_text()) {
            let text = format!("#verdict faulty\n@ f():enter\nx GLOBAL = {value}\n");
            let finite = value.parse::<f64>().is_ok_and(f64::is_finite);
            match parse_log(&text) {
                Ok(log) => {
                    prop_assert!(finite, "{value} accepted");
                    prop_assert_eq!(log.records.values().get(0), value.parse::<f64>().ok());
                }
                Err(e) => {
                    prop_assert!(!finite, "{value} rejected");
                    prop_assert_eq!((e.line, e.message.as_str()), (3, "bad value"));
                }
            }
        }
    }
}
