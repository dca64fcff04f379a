//! The binaries' bad-usage exits: a flag value they cannot run with is
//! a usage error (status 2, a one-line reason), never a panic.

use std::process::Command;

#[test]
fn zero_threads_is_a_usage_error() {
    for bin in [env!("CARGO_BIN_EXE_repro_figures"), env!("CARGO_BIN_EXE_serve_load")] {
        let out = Command::new(bin).args(["--threads", "0"]).output().expect("binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.ends_with(": --threads must be at least 1"), "{bin}: {first}");
    }
}
