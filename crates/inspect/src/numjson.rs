//! A tolerant numeric-JSON flattener for bench reports.
//!
//! The canonical trace format is deliberately float-free, but the bench
//! binaries emit ordinary JSON with floating-point wall times
//! (`BENCH_portfolio.json` and friends). `statsym-inspect diff` compares
//! those too, so this module walks arbitrary JSON and returns every
//! *numeric* leaf as a `(path, value)` pair — `parallel[0].wall_s`,
//! `sequential_wall_s`, … Strings, booleans, and nulls are structural
//! context only and never become comparable leaves.

/// Flattens the numeric leaves of a JSON document into sorted
/// `(path, value)` pairs.
///
/// # Errors
///
/// Returns `(byte offset, reason)` for malformed JSON.
pub fn flatten(text: &str) -> Result<Vec<(String, f64)>, (usize, String)> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let mut out = Vec::new();
    p.skip_ws();
    p.value(String::new(), &mut out)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err((p.pos, "trailing characters after JSON value".into()));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Deepest object/array nesting accepted: the walk is recursive, so
/// deeper input is refused before it can exhaust the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Objects/arrays currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), (usize, String)> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err((self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn value(&mut self, path: String, out: &mut Vec<(String, f64)>) -> Result<(), (usize, String)> {
        match self.peek() {
            Some(b'{') => self.nested(|p| p.object(path, out)),
            Some(b'[') => self.nested(|p| p.array(path, out)),
            Some(b'"') => self.string().map(|_| ()),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => {
                let v = self.number()?;
                out.push((path, v));
                Ok(())
            }
            _ => Err((self.pos, "expected a JSON value".into())),
        }
    }

    /// Runs `parse` on an object or array one nesting level deeper,
    /// refusing to go past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<(), (usize, String)>,
    ) -> Result<(), (usize, String)> {
        if self.depth == MAX_DEPTH {
            return Err((self.pos, format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        parse(self)?;
        self.depth -= 1;
        Ok(())
    }

    fn object(
        &mut self,
        path: String,
        out: &mut Vec<(String, f64)>,
    ) -> Result<(), (usize, String)> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let child = if path.is_empty() {
                key
            } else {
                format!("{path}.{key}")
            };
            self.value(child, out)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err((self.pos, "expected `,` or `}` in object".into())),
            }
        }
    }

    fn array(&mut self, path: String, out: &mut Vec<(String, f64)>) -> Result<(), (usize, String)> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let mut i = 0usize;
        loop {
            self.skip_ws();
            self.value(format!("{path}[{i}]"), out)?;
            i += 1;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err((self.pos, "expected `,` or `]` in array".into())),
            }
        }
    }

    fn string(&mut self) -> Result<String, (usize, String)> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err((self.pos, "unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or((self.pos, "truncated \\u escape".to_string()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| (self.pos, "bad \\u escape".to_string()))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| (self.pos, "bad \\u escape".to_string()))?;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err((self.pos, "bad escape".into())),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8: copy the full scalar.
                    let start = self.pos;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| (self.pos, "invalid UTF-8 in string".to_string()))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, (usize, String)> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+')) {
            self.pos += 1;
        }
        // A `-` inside an exponent (1e-3) stops the loop above; resume.
        while matches!(self.bytes.get(self.pos.wrapping_sub(1)), Some(b'e' | b'E'))
            && matches!(self.peek(), Some(b'-' | b'+'))
        {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or((start, "malformed number".into()))
    }

    fn literal(&mut self, word: &str) -> Result<(), (usize, String)> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err((self.pos, format!("expected `{word}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flattens_numeric_leaves_with_paths() {
        let text = r#"{
            "app": "grep", "seed": 42, "sequential_wall_s": 1.25,
            "parallel": [
                {"workers": 2, "wall_s": 0.7, "ok": true},
                {"workers": 4, "wall_s": 0.4, "note": null}
            ]
        }"#;
        let flat = flatten(text).unwrap();
        let get = |k: &str| flat.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("seed"), Some(42.0));
        assert_eq!(get("sequential_wall_s"), Some(1.25));
        assert_eq!(get("parallel[0].workers"), Some(2.0));
        assert_eq!(get("parallel[1].wall_s"), Some(0.4));
        // Strings/bools/nulls are not leaves.
        assert_eq!(flat.len(), 6);
        // Sorted by path.
        let mut sorted = flat.clone();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(flat, sorted);
    }

    #[test]
    fn parses_exponents_and_negatives() {
        let flat = flatten(r#"{"a": -3.5e-2, "b": 2E3}"#).unwrap();
        assert_eq!(flat, vec![("a".into(), -0.035), ("b".into(), 2000.0)]);
    }

    #[test]
    fn rejects_malformed_json_with_offset() {
        assert!(flatten("{\"a\": }").is_err());
        assert!(flatten("[1, 2").is_err());
        assert!(flatten("{} trailing").is_err());
    }
}
