//! Shared fixtures for the benchmark harness and its binaries.
//!
//! Every Criterion bench measures an analysis stage over the same
//! deterministic simulation output, built once per process by
//! [`bench_sim`]. The binaries share their error exits ([`Cli`]), the
//! report encoder ([`report_json`]) and the peak-RSS probe
//! ([`peak_rss_bytes`]).

#![warn(missing_docs)]

use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_workload::{Trace, WorkloadSpec};
use serde::Serialize;
use std::sync::OnceLock;

static SIM: OnceLock<SimOutput> = OnceLock::new();

/// A cached simulation of [`bench_trace`] — large enough that every
/// figure's population is non-degenerate, small enough that the bench
/// suite stays in seconds.
pub fn bench_sim() -> &'static SimOutput {
    SIM.get_or_init(|| {
        Simulation::new(SimConfig { detailed_series_jobs: 90, ..Default::default() })
            .run(&bench_trace())
    })
}

/// The bench trace: a 4%-scale Supercloud workload (≈3,000 jobs, 64
/// users), also used directly by the generator/scheduler benches.
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

    /// Parses `raw` as the `--threads` worker count, at least 1, or exits
    /// through [`Cli::usage_error`].
    pub fn thread_count(&self, raw: &str) -> usize {
        match raw.parse() {
            Ok(0) => self.usage_error("--threads must be at least 1"),
            Ok(n) => n,
            Err(_) => self.usage_error("--threads needs a count"),
        }
    }

    /// Prints a runtime (non-usage) error and exits with status 1.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.name);
        std::process::exit(1);
    }
}

/// `count / secs`, with `secs` floored so an instantaneous stage or mix
/// still reports a finite rate.
pub fn per_sec(count: usize, secs: f64) -> f64 {
    count as f64 / secs.max(1e-9)
}

/// Encodes a report as compact JSON plus the trailing newline every
/// bench report file ends with.
pub fn report_json<T: Serialize>(report: &T) -> String {
    let mut json = serde_json::to_string(report).expect("bench reports encode infallibly");
    json.push('\n');
    json
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
