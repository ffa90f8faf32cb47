//! The strict readers of untrusted telemetry input — trace JSONL and run
//! manifests — return errors on malformed input and never panic or
//! overflow the stack, however deeply the input nests.

use proptest::{any, collection, prop_oneof, proptest, Strategy};
use statsym_telemetry::manifest::RunManifest;
use statsym_telemetry::{parse_trace_strict, parse_trace_truncated};

/// One line nesting `depth` unclosed arrays inside an object, the shape
/// that used to overflow the recursive JSON reader.
fn deep_line(depth: usize) -> String {
    format!("{{\"k\":{}", "[".repeat(depth))
}

#[test]
fn deeply_nested_trace_lines_are_line_numbered_errors() {
    let text = format!(
        "{{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}}\n{}\n",
        deep_line(100_000)
    );
    let err = parse_trace_strict(&text).unwrap_err();
    assert_eq!(err.line, 2, "{err}");
    assert!(err.reason.contains("nesting"), "{err}");
    // Interior corruption stays fatal under the tolerant parser; as
    // the final line it is the one partial tail it may drop.
    let interior = format!("{text}{{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}}\n");
    assert_eq!(parse_trace_truncated(&interior).unwrap_err().line, 2);
    let (_, truncated) = parse_trace_truncated(&text).unwrap();
    assert!(truncated);
}

#[test]
fn deeply_nested_manifest_is_a_line_numbered_error() {
    let err = RunManifest::parse_line(&deep_line(100_000), 7).unwrap_err();
    assert_eq!(err.line, 7, "{err}");
    assert!(err.reason.contains("nesting"), "{err}");
}

/// A valid trace to corrupt: every line kind the strict parser knows.
const VALID: &str = "\
{\"k\":\"meta\",\"clock\":\"steps\",\"version\":1}
{\"k\":\"span_open\",\"t\":0,\"id\":1,\"parent\":0,\"name\":\"candidate.attempt\"}
{\"k\":\"state\",\"t\":1,\"op\":\"root\",\"id\":1,\"par\":0,\"loc\":\"main:b0\",\"hops\":0,\"depth\":0,\"steps\":2,\"snodes\":0,\"sus\":0}
{\"k\":\"query\",\"t\":2,\"sid\":1,\"loc\":\"main:3\",\"rank\":1,\"site\":\"feasibility\",\"verdict\":\"sat\",\"cache\":\"search\",\"nodes\":5,\"us\":0}
{\"k\":\"span_close\",\"t\":3,\"id\":1}
{\"k\":\"event\",\"t\":3,\"name\":\"candidate.result\",\"fields\":{\"index\":0,\"found\":\"true\"}}
{\"k\":\"counter\",\"name\":\"solver.queries\",\"value\":1}
{\"k\":\"hist\",\"name\":\"solver.query_us\",\"count\":1,\"sum\":3,\"buckets\":[[2,1]]}
";

/// Fragments that assemble into JSON-shaped soup.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", ":", ",", "\"k\"", "\"meta\"", "\"span_open\"", "\"s\"", "\"end\"", "0",
    "-1", "18446744073709551616", "1.5", "\"", "\\", "\\u12", "\\ud800", "true", "null", "\n",
    "é", " ",
];

/// Untrusted text: arbitrary bytes (lossy UTF-8), JSON token soup, deep
/// nesting of either bracket, and single-byte corruptions or cuts of a
/// valid trace.
fn untrusted() -> impl Strategy<Value = String> {
    prop_oneof![
        collection::vec(any::<u8>(), 0..200)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        collection::vec(0..TOKENS.len(), 0..60)
            .prop_map(|picks| picks.into_iter().map(|i| TOKENS[i]).collect::<String>()),
        (1usize..2_000, any::<bool>()).prop_map(|(depth, objects)| if objects {
            "{\"a\":".repeat(depth)
        } else {
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        }),
        (0..VALID.len(), any::<u8>(), any::<bool>()).prop_map(|(at, byte, cut)| {
            let mut bytes = VALID.as_bytes().to_vec();
            if cut {
                bytes.truncate(at);
            } else {
                bytes[at] = byte;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }),
    ]
}

proptest! {
    #[test]
    fn readers_return_errors_and_never_panic(text in untrusted()) {
        let _ = parse_trace_strict(&text);
        let _ = parse_trace_truncated(&text);
        for (i, line) in text.lines().enumerate() {
            let _ = RunManifest::parse_line(line, i + 1);
        }
    }
}
