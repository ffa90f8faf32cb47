//! The four named workloads, the documented fault function of every
//! app, and the pipeline configuration each workload runs with.

use benchapps::BenchApp;
use statsym_core::pipeline::StatSymConfig;
use statsym_core::GuidanceConfig;

/// The function each app's documented vulnerability lives in. A verdict
/// that reports a fault anywhere else counts as a failed job.
pub const FAULT_FUNCTIONS: [(&str, &str); 8] = [
    ("polymorph", "convert_fileName"),
    ("ctree", "initlinedraw"),
    ("grep", "stonesoup_handle_taint"),
    ("thttpd", "defang"),
    ("http_header", "store_value"),
    ("http_chunked", "read_chunk"),
    ("urldecode", "decode"),
    ("base64", "log_reject"),
];

/// The documented fault function of `app`.
///
/// # Panics
///
/// Panics if `app` has no entry in [`FAULT_FUNCTIONS`].
pub fn fault_function(app: &str) -> &'static str {
    FAULT_FUNCTIONS
        .iter()
        .find(|(name, _)| *name == app)
        .map(|(_, func)| *func)
        .unwrap_or_else(|| panic!("no documented fault function for `{app}`"))
}

/// One named workload: which apps a job runs and how.
pub struct Workload {
    /// The name passed as `--workload`.
    pub name: &'static str,
    /// The apps one job runs, each through the full pipeline.
    pub apps: &'static [fn() -> BenchApp],
    /// Monitor sampling rate for corpus collection.
    pub sampling: f64,
    /// Hopeless decoy candidates ranked ahead of the real ones.
    pub decoys: usize,
    /// Reference wall time of one job on a 2-core x86-64 host. Fixes
    /// how many jobs a run of `--seconds` executes; it never reads a
    /// clock, so a given seed and length always run the same job list.
    pub nominal_job_s: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Every workload, in the order the docs list them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "grep-full",
        apps: &[benchapps::grep],
        sampling: 1.0,
        decoys: 0,
        nominal_job_s: 1.6,
        setups: 3,
    },
    Workload {
        name: "thttpd-30",
        apps: &[benchapps::thttpd],
        sampling: 0.3,
        decoys: 0,
        nominal_job_s: 0.3,
        setups: 5,
    },
    Workload {
        name: "grep-decoys",
        apps: &[benchapps::grep],
        sampling: 0.3,
        decoys: 2,
        nominal_job_s: 2.0,
        setups: 3,
    },
    Workload {
        name: "small-apps",
        apps: &[
            benchapps::polymorph,
            benchapps::ctree,
            benchapps::http_header,
            benchapps::http_chunked,
            benchapps::urldecode,
            benchapps::base64,
        ],
        sampling: 0.3,
        decoys: 0,
        nominal_job_s: 0.03,
        setups: 5,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Jobs in a run of `seconds`: at least three, so a median exists.
    pub fn jobs(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.nominal_job_s).round() as usize).max(3)
    }

    /// The pipeline configuration: the paper experiments' settings on
    /// one thread (`workers = 1`, `state_workers = 0`). With decoys, each
    /// candidate gets a 60 000-step budget the decoys exhaust, and a
    /// large τ keeps decoy states alive until they reach the poisoned
    /// fault region (as in the `portfolio` bench).
    pub fn config(&self) -> StatSymConfig {
        let base = bench::statsym_config();
        let mut cfg = StatSymConfig { workers: 1, ..base };
        cfg.engine.state_workers = 0;
        if self.decoys > 0 {
            cfg.engine.max_steps = 60_000;
            cfg.guidance = GuidanceConfig {
                tau: 1_000_000,
                ..base.guidance
            };
        }
        cfg
    }
}
