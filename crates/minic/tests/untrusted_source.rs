//! `parse_program` is the front door for MiniC source, so it must turn
//! any text into a program or an error: never a panic, never a stack
//! overflow, however deeply the input nests.

use proptest::{any, collection, prop_oneof, proptest, Strategy};

/// Fragments that assemble into MiniC-shaped soup.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "fn", "main", "f", "(", ")", "{", "}", "[", "]", ";", ",", ":", "->", "=", "==", "<", "+",
    "-", "*", "/", "%", "!", "&&", "||", "let", "x", "int", "bool", "str", "buf", "if", "else",
    "while", "return", "assert", "break", "continue", "global", "true", "false", "0", "1",
    "9223372036854775808", "'a'", "'", "\"s\"", "\"", "alloc", "free", "buf_set", "strlen", " ",
    "\n", "é",
];

/// Untrusted source: arbitrary bytes (lossy UTF-8), token soup, token
/// soup inside a `main` body, and deep nesting of parentheses, unary
/// operators, or blocks.
fn untrusted() -> impl Strategy<Value = String> {
    let soup = || {
        collection::vec(0..TOKENS.len(), 0..80).prop_map(|picks| {
            picks
                .into_iter()
                .map(|i| TOKENS[i])
                .collect::<Vec<_>>()
                .join(" ")
        })
    };
    prop_oneof![
        collection::vec(any::<u8>(), 0..200)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        soup(),
        soup().prop_map(|body| format!("fn main() {{ {body} }}")),
        (1usize..2_000, 0u8..3).prop_map(|(depth, shape)| match shape {
            0 => format!(
                "fn main() {{ let x: int = {}1{}; }}",
                "(".repeat(depth),
                ")".repeat(depth)
            ),
            1 => format!("fn main() {{ let x: int = {}1; }}", "-!".repeat(depth)),
            _ => format!(
                "fn main() {{ {}return;{} }}",
                "while (true) { ".repeat(depth),
                " }".repeat(depth)
            ),
        }),
    ]
}

proptest! {
    #[test]
    fn parse_program_returns_errors_and_never_panics(src in untrusted()) {
        let _ = minic::parse_program(&src);
    }
}
