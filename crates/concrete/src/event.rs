//! Instrumentation locations and logged-variable identities.
//!
//! The paper instruments programs at *function entry and exit points*
//! (§III-B) and logs global variables, function parameters and return
//! values. [`Location`] is the identity of one instrumentation point
//! (rendered `convert_fileName():enter`, as in the paper's Figure 8);
//! [`VarId`] is the identity of one logged variable at a location
//! (rendered `suspect FUNCPARAM` / `track GLOBAL`, as in Table V).
//!
//! Names are shared `Arc<str>`s: as in Fjalar's per-program-point
//! layout, they live once, in the [`crate::SiteTable`] a corpus's logs
//! share, and records refer to them by site id.

use std::fmt;
use std::sync::Arc;

/// Entry or exit side of a function-boundary instrumentation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FnEvent {
    /// Function entry.
    Enter,
    /// Function exit (return). A faulting function never emits `Leave`.
    Leave,
}

impl fmt::Display for FnEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FnEvent::Enter => f.write_str("enter"),
            FnEvent::Leave => f.write_str("leave"),
        }
    }
}

/// One instrumentation location: a function boundary event.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// Function name.
    pub func: Arc<str>,
    /// Entry or exit.
    pub event: FnEvent,
}

impl Location {
    /// Creates the entry location for `func`.
    pub fn enter(func: impl Into<Arc<str>>) -> Location {
        Location {
            func: func.into(),
            event: FnEvent::Enter,
        }
    }

    /// Creates the exit location for `func`.
    pub fn leave(func: impl Into<Arc<str>>) -> Location {
        Location {
            func: func.into(),
            event: FnEvent::Leave,
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}():{}", self.func, self.event)
    }
}

/// The role of a logged variable, mirroring the paper's Table V labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VarRole {
    /// A program global variable (`GLOBAL`).
    Global,
    /// A function parameter (`FUNCPARAM`).
    Param,
    /// A function return value (`RETURN`).
    Return,
}

impl fmt::Display for VarRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarRole::Global => f.write_str("GLOBAL"),
            VarRole::Param => f.write_str("FUNCPARAM"),
            VarRole::Return => f.write_str("RETURN"),
        }
    }
}

/// How the logged numeric value relates to the variable: its value, or —
/// for strings — its length (the paper's privacy transformation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Measure {
    /// The variable's value itself (ints, bools-as-0/1).
    Value,
    /// The length of a string variable.
    Length,
}

/// Identity of a logged variable. The same source variable observed at
/// two different locations is treated as two distinct predicates by the
/// statistical analysis (paper §V-A), so `VarId` intentionally excludes
/// the location — pairing happens in the log records.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId {
    /// Source-level variable name (`ret` for return values).
    pub name: Arc<str>,
    /// Global / parameter / return value.
    pub role: VarRole,
    /// Value or string-length measurement.
    pub measure: Measure,
}

impl VarId {
    /// Creates a variable identity.
    pub fn new(name: impl Into<Arc<str>>, role: VarRole, measure: Measure) -> VarId {
        VarId {
            name: name.into(),
            role,
            measure,
        }
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.measure {
            Measure::Value => write!(f, "{} {}", self.name, self.role),
            Measure::Length => write!(f, "len({} {})", self.name, self.role),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn location_renders_like_the_paper() {
        assert_eq!(
            Location::enter("convert_fileName").to_string(),
            "convert_fileName():enter"
        );
        assert_eq!(Location::leave("main").to_string(), "main():leave");
    }

    #[test]
    fn varid_renders_like_table_v() {
        let v = VarId::new("suspect", VarRole::Param, Measure::Length);
        assert_eq!(v.to_string(), "len(suspect FUNCPARAM)");
        let g = VarId::new("track", VarRole::Global, Measure::Value);
        assert_eq!(g.to_string(), "track GLOBAL");
    }

    #[test]
    fn locations_order_deterministically() {
        let a = Location::enter("a");
        let b = Location::leave("a");
        assert!(a < b);
    }
}
