//! Concrete execution substrate: a SIR virtual machine with fault
//! detection plus the runtime program monitor the paper builds on
//! Valgrind/Fjalar.
//!
//! The VM detects the paper's vulnerability classes at runtime — stack
//! buffer overflows ([`FaultKind::BufferOverflow`]), assertion failures,
//! string out-of-bounds reads, and division by zero — and reports the
//! *fault point* (function + source span). It is the concrete domain of
//! [`interp`], the one interpreter of SIR semantics, which the symbolic
//! executor instantiates over solver terms.
//!
//! The [`monitor`] module implements the paper's instrumentation model:
//! at every function entry and exit it records global variables, function
//! parameters, and return values, each record retained with a tunable
//! sampling probability (the paper's partial logging, §III-B). String
//! values are logged as lengths, mirroring the paper's privacy-preserving
//! transformation. The [`records`] module stores the logs by column: a
//! site id per record and a flat value column, over a site table shared
//! by every log of one corpus.
//!
//! # Example
//!
//! ```
//! use concrete::{InputValue, Vm, VmConfig};
//!
//! let program = minic::parse_program(r#"
//!     fn main() -> int {
//!         let n: int = input_int("n");
//!         let b: buf[4];
//!         buf_set(b, n, 65); // overflows when n >= 4
//!         return 0;
//!     }
//! "#)?;
//! let module = sir::lower(&program)?;
//! let vm = Vm::new(&module, VmConfig::default());
//!
//! let ok = vm.run(&[("n".into(), InputValue::Int(2))].into_iter().collect())?;
//! assert!(ok.outcome.is_success());
//!
//! let bad = vm.run(&[("n".into(), InputValue::Int(9))].into_iter().collect())?;
//! assert!(bad.outcome.is_fault());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod event;
pub mod fault;
pub mod interp;
pub mod logfile;
pub mod monitor;
pub mod records;
pub mod runner;
pub mod value;
pub mod vm;

pub use event::{FnEvent, Location, Measure, VarId, VarRole};
pub use fault::{Fault, FaultKind, MAX_ALLOC, MAX_CALL_DEPTH};
pub use logfile::{parse_log, write_log, ParseLogError};
pub use monitor::{ExecutionLog, Monitor, Verdict};
pub use records::{Record, Records, Site, SiteTable, Values};
pub use runner::{run_logged, run_logged_traced, run_logged_with, LoggedRun};
pub use value::{InputValue, Val, Value};
pub use vm::{ExecHook, InputMap, NoHook, Outcome, RunResult, Vm, VmConfig, VmError};
