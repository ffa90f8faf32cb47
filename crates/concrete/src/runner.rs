//! Convenience driver: run a program once, monitored, and get both the
//! execution result and the sampled log.

use crate::monitor::{ExecutionLog, Monitor};
use crate::vm::{InputMap, RunResult, Vm, VmConfig, VmError};
use sir::Module;

/// A monitored run: the VM result plus the sampled execution log.
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedRun {
    /// VM outcome, step count and output.
    pub result: RunResult,
    /// The sampled log annotated with its verdict.
    pub log: ExecutionLog,
}

/// Runs `module` on `inputs` under the program monitor.
///
/// `sampling_rate` is the per-record retention probability; `seed` makes
/// sampling deterministic.
///
/// # Errors
///
/// Returns [`VmError`] if a required input is missing or ill-kinded.
///
/// # Example
///
/// ```
/// use concrete::{run_logged, InputValue};
///
/// let p = minic::parse_program(r#"
///     fn main() -> int { let n: int = input_int("n"); assert(n < 10); return n; }
/// "#)?;
/// let m = sir::lower(&p)?;
/// let inputs = [("n".into(), InputValue::Int(3))].into_iter().collect();
/// let run = run_logged(&m, &inputs, 1.0, 0)?;
/// assert!(run.result.outcome.is_success());
/// assert_eq!(run.log.records.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_logged(
    module: &Module,
    inputs: &InputMap,
    sampling_rate: f64,
    seed: u64,
) -> Result<LoggedRun, VmError> {
    run_logged_with(module, inputs, sampling_rate, seed, VmConfig::default())
}

/// Like [`run_logged`] with an explicit [`VmConfig`].
///
/// # Errors
///
/// Returns [`VmError`] if a required input is missing or ill-kinded.
pub fn run_logged_with(
    module: &Module,
    inputs: &InputMap,
    sampling_rate: f64,
    seed: u64,
    config: VmConfig,
) -> Result<LoggedRun, VmError> {
    run_logged_traced(
        module,
        inputs,
        sampling_rate,
        seed,
        config,
        &statsym_telemetry::NOOP,
    )
}

/// Like [`run_logged_with`] with a telemetry recorder: the monitor's
/// sampled/dropped record counts are added to the recorder's metrics.
///
/// # Errors
///
/// Returns [`VmError`] if a required input is missing or ill-kinded.
pub fn run_logged_traced(
    module: &Module,
    inputs: &InputMap,
    sampling_rate: f64,
    seed: u64,
    config: VmConfig,
    rec: &dyn statsym_telemetry::Recorder,
) -> Result<LoggedRun, VmError> {
    let vm = Vm::new(module, config);
    let mut monitor = Monitor::traced(sampling_rate, seed, rec);
    let result = vm.run_hooked(inputs, &mut monitor)?;
    let log = monitor.finish_with(&result.outcome);
    Ok(LoggedRun { result, log })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Verdict;
    use crate::value::InputValue;

    #[test]
    fn faulty_run_produces_faulty_log() {
        let p = minic::parse_program(
            r#"
            fn overflow(s: str) {
                let b: buf[4];
                let i: int = 0;
                while (char_at(s, i) != 0) { buf_set(b, i, char_at(s, i)); i = i + 1; }
            }
            fn main() { let s: str = input_str("a", 32); overflow(s); return; }
            "#,
        )
        .unwrap();
        let m = sir::lower(&p).unwrap();
        let inputs: InputMap = [("a".to_string(), InputValue::text("way too long"))]
            .into_iter()
            .collect();
        let run = run_logged(&m, &inputs, 1.0, 0).unwrap();
        assert_eq!(run.log.verdict, Verdict::Faulty);
        assert_eq!(run.log.fault.as_ref().unwrap().func, "overflow");
        // The faulting function has an enter record but no leave record.
        let enters = run
            .log
            .records
            .iter()
            .filter(|r| &*r.loc().func == "overflow")
            .count();
        assert_eq!(enters, 1);
    }

    #[test]
    fn correct_run_produces_correct_log() {
        let p = minic::parse_program("fn main() -> int { return 0; }").unwrap();
        let m = sir::lower(&p).unwrap();
        let run = run_logged(&m, &InputMap::new(), 1.0, 0).unwrap();
        assert_eq!(run.log.verdict, Verdict::Correct);
    }
}
