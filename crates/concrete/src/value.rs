//! Runtime values, generic over the value domain.

use std::fmt;
use std::rc::Rc;

/// A runtime value over a value domain: integers `I`, booleans `B` and
/// strings `S`. The concrete VM instantiates it as [`Value`]; the
/// symbolic executor over solver terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val<I, B, S> {
    /// Integer (also bytes/chars).
    Int(I),
    /// Boolean.
    Bool(B),
    /// Immutable byte string (cheaply clonable).
    Str(S),
    /// Reference to a mutable buffer in the run's heap.
    Buf(usize),
    /// Result of a void call; never read.
    Unit,
}

/// A concrete runtime value.
pub type Value = Val<i64, bool, Rc<[u8]>>;

impl<I: Copy + fmt::Debug, B: Copy + fmt::Debug, S: fmt::Debug> Val<I, B, S> {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `Int` (the type checker rules this
    /// out for well-typed programs).
    #[inline]
    pub fn as_int(&self) -> I {
        match self {
            Val::Int(v) => *v,
            other => panic!("expected int value, found {other:?}"),
        }
    }

    /// The boolean payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Bool`.
    #[inline]
    pub fn as_bool(&self) -> B {
        match self {
            Val::Bool(b) => *b,
            other => panic!("expected bool value, found {other:?}"),
        }
    }

    /// The string payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Str`.
    #[inline]
    pub fn as_str(&self) -> &S {
        match self {
            Val::Str(s) => s,
            other => panic!("expected str value, found {other:?}"),
        }
    }

    /// The buffer id payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a `Buf`.
    pub fn as_buf(&self) -> usize {
        match self {
            Val::Buf(b) => *b,
            other => panic!("expected buf value, found {other:?}"),
        }
    }
}

impl Value {
    /// Makes a string value from bytes.
    pub fn str_from(bytes: impl Into<Vec<u8>>) -> Value {
        Value::Str(bytes.into().into())
    }

    /// The numeric view the program monitor logs: ints as themselves,
    /// bools as 0/1, strings as their length. Buffers and unit have no
    /// loggable value.
    pub fn numeric_view(&self) -> Option<(f64, bool)> {
        match self {
            Value::Int(v) => Some((*v as f64, false)),
            Value::Bool(b) => Some((if *b { 1.0 } else { 0.0 }, false)),
            Value::Str(s) => Some((s.len() as f64, true)),
            Value::Buf(_) | Value::Unit => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{:?}", String::from_utf8_lossy(s)),
            Value::Buf(id) => write!(f, "<buf#{id}>"),
            Value::Unit => write!(f, "<unit>"),
        }
    }
}

/// A named input supplied to a concrete run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputValue {
    /// Integer input (for `input_int`).
    Int(i64),
    /// String input (for `input_str`); truncated to the declared capacity
    /// on read, like a bounded `read(2)`.
    Str(Vec<u8>),
}

impl InputValue {
    /// Convenience constructor from text.
    pub fn text(s: &str) -> InputValue {
        InputValue::Str(s.as_bytes().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_view_transforms() {
        assert_eq!(Value::Int(-3).numeric_view(), Some((-3.0, false)));
        assert_eq!(Value::Bool(true).numeric_view(), Some((1.0, false)));
        assert_eq!(Value::str_from(*b"abc").numeric_view(), Some((3.0, true)));
        assert_eq!(Value::Buf(0).numeric_view(), None);
        assert_eq!(Value::Unit.numeric_view(), None);
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert!(Value::Bool(true).as_bool());
        assert_eq!(&**Value::str_from(*b"xy").as_str(), b"xy");
        assert_eq!(Value::Buf(5).as_buf(), 5);
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_int_panics_on_bool() {
        Value::Bool(false).as_int();
    }
}
