//! Fault (vulnerability manifestation) descriptions.

use minic::Span;
use std::fmt;

/// Largest `alloc(n)` request either VM will honor. Requests outside
/// `[0, MAX_ALLOC]` raise [`FaultKind::AllocOverflow`], modeling the
/// truncation/overflow ASAN-style check at the allocation site.
pub const MAX_ALLOC: i64 = 4096;

/// Deepest call stack either VM runs: a call made with this many frames
/// live raises [`FaultKind::StackOverflow`] (runaway recursion).
pub const MAX_CALL_DEPTH: usize = 256;

/// The vulnerability classes the VM detects, mirroring the paper's
/// benchmark bug classes (buffer overruns, assertion violations, integer
/// handling errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Write or read outside a buffer's capacity — the paper's stack
    /// buffer overflow class (polymorph, CTree, Grep, thttpd).
    BufferOverflow {
        /// Capacity of the violated buffer.
        cap: u32,
        /// Offending index.
        idx: i64,
    },
    /// String read beyond the NUL terminator or at a negative index.
    StringOob {
        /// Length of the string.
        len: u32,
        /// Offending index.
        idx: i64,
    },
    /// `assert(..)` evaluated to false.
    AssertFailed,
    /// Division or remainder by zero.
    DivByZero,
    /// Call depth reached [`MAX_CALL_DEPTH`] (runaway recursion).
    StackOverflow,
    /// `alloc(n)` requested a size outside `[0, MAX_ALLOC]` — the
    /// integer-overflow/truncation-feeding-an-allocation class.
    AllocOverflow {
        /// The out-of-range requested size.
        req: i64,
    },
    /// Write or read at exactly `cap` on a dynamically allocated buffer:
    /// the classic `<=` loop-bound off-by-one.
    OffByOne {
        /// Capacity of the violated buffer.
        cap: u32,
    },
    /// A `%` byte reached the `format(..)` sink (format-string class).
    FormatString {
        /// Byte offset of the first `%` in the formatted string.
        idx: i64,
    },
    /// Access (or double free) of a freed or never-allocated heap buffer.
    UseAfterFree,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::BufferOverflow { cap, idx } => {
                write!(f, "buffer overflow: index {idx} on capacity {cap}")
            }
            FaultKind::StringOob { len, idx } => {
                write!(f, "string read out of bounds: index {idx} on length {len}")
            }
            FaultKind::AssertFailed => f.write_str("assertion failed"),
            FaultKind::DivByZero => f.write_str("division by zero"),
            FaultKind::StackOverflow => f.write_str("call stack overflow"),
            FaultKind::AllocOverflow { req } => {
                write!(f, "allocation overflow: requested size {req}")
            }
            FaultKind::OffByOne { cap } => {
                write!(f, "off-by-one: index {cap} on capacity {cap}")
            }
            FaultKind::FormatString { idx } => {
                write!(f, "format string: `%` at offset {idx}")
            }
            FaultKind::UseAfterFree => f.write_str("use after free"),
        }
    }
}

/// A detected fault: the paper's *fault point* (root cause site). The
/// *failure point* — where the fault manifests to the user — is derived
/// by the statistical analysis from the logs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fault {
    /// What went wrong.
    pub kind: FaultKind,
    /// Function containing the fault point.
    pub func: String,
    /// Source location of the faulting statement.
    pub span: Span,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in `{}` at {}", self.kind, self.func, self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_display_mentions_function_and_kind() {
        let fault = Fault {
            kind: FaultKind::BufferOverflow { cap: 512, idx: 513 },
            func: "convert_fileName".into(),
            span: Span::new(10, 5),
        };
        let s = fault.to_string();
        assert!(s.contains("convert_fileName"));
        assert!(s.contains("buffer overflow"));
        assert!(s.contains("10:5"));
    }
}
