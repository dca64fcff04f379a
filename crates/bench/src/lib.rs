//! Shared fixtures for the benchmark harness and its binaries.
//!
//! Every Criterion bench measures an analysis stage over the same
//! deterministic simulation output, built once per process by
//! [`bench_sim`]. The binaries share their error exits ([`Cli`]) and
//! the peak-RSS probe ([`peak_rss_bytes`]).

#![warn(missing_docs)]

use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_workload::{Trace, WorkloadSpec};
use std::sync::OnceLock;

static SIM: OnceLock<SimOutput> = OnceLock::new();

/// A cached 4%-scale Supercloud simulation (≈3,000 jobs, 64 users) —
/// large enough that every figure's population is non-degenerate, small
/// enough that the bench suite stays in seconds.
pub fn bench_sim() -> &'static SimOutput {
    SIM.get_or_init(|| {
        let mut spec = WorkloadSpec::supercloud().scaled(0.04);
        spec.users = 64;
        let trace = Trace::generate(&spec, 20_230_101);
        Simulation::new(SimConfig { detailed_series_jobs: 90, ..Default::default() }).run(&trace)
    })
}

/// The bench trace itself (for generator/scheduler benches).
pub fn bench_trace() -> Trace {
    let mut spec = WorkloadSpec::supercloud().scaled(0.04);
    spec.users = 64;
    Trace::generate(&spec, 20_230_101)
}

/// A binary's name and usage text, for its two error exits: bad usage
/// (status 2, usage text appended) and a runtime failure (status 1).
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Prefix of every error line.
    pub name: &'static str,
    /// Usage text printed after a usage error.
    pub usage: &'static str,
}

impl Cli {
    /// Prints an error plus the usage text and exits with status 2, the
    /// conventional bad-usage code.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.name, self.usage);
        std::process::exit(2);
    }

    /// Parses `raw` as the positive, finite factor `flag` takes, or
    /// exits through [`Cli::usage_error`].
    pub fn positive_factor(&self, flag: &str, raw: &str) -> f64 {
        let f: f64 =
            raw.parse().unwrap_or_else(|_| self.usage_error(&format!("{flag} needs a number")));
        if !(f > 0.0 && f.is_finite()) {
            self.usage_error(&format!("{flag} must be a positive finite factor"));
        }
        f
    }

    /// Prints a runtime (non-usage) error and exits with status 1.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.name);
        std::process::exit(1);
    }
}

/// Peak resident set size of this process in bytes, from the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`). Returns 0 where
/// procfs is unavailable (non-Linux), which downstream gates treat as
/// "not measured".
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}
