//! CI smoke gate for the scenario DSL: parse, validate, and smoke-run
//! every committed preset, and prove the malformed-input contract.
//!
//! ```text
//! scenario_check [--run-scale F] [FILE ...]
//! ```
//!
//! With no arguments the binary checks the four embedded presets:
//! each must parse, render a summary, round-trip through its canonical
//! serialization to an identical value, and (at `--run-scale`, default
//! 0.002) generate a non-empty trace. It then feeds a corpus of
//! malformed documents to the parser and requires every one to come
//! back as a typed [`sc_scenario::ScenarioError`] carrying line context — a panic
//! or an accepted document fails the gate. Extra `FILE` arguments are
//! validated the same way (parse + round-trip + smoke trace), so the
//! gate also covers user-supplied scenario files.
//!
//! Exit status: 0 all checks pass, 1 any check fails, 2 bad usage.

use sc_bench::Cli;
use sc_scenario::Scenario;
use sc_workload::Trace;

const USAGE: &str = "usage: scenario_check [--run-scale F] [FILE ...]

  --run-scale F  workload scale for the per-scenario smoke run
                 (default 0.002; 0 skips the run)
  FILE           extra scenario TOML files to validate alongside the
                 embedded presets";

const CLI: Cli = Cli { name: "scenario_check", usage: USAGE };

/// Malformed documents the parser must reject with a typed error.
/// Mirrors (a subset of) the corpus in `tests/scenario_invariants.rs`;
/// the binary re-checks it in CI so the gate holds even when the test
/// suite is skipped.
const MALFORMED: &[&str] = &[
    "",
    "[scenario]\n",
    "[scenario]\nname = \"x\"\nscale = 0.0\n",
    "[scenario]\nname = \"x\"\nbogus = 1\n",
    "[bogus]\nkey = 1\n",
    "[scenario]\nname = \"x\"\n[scenario]\nname = \"y\"\n",
    "[scenario]\nname = \"x\"\nname = \"y\"\n",
    "[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"lunar\"\n",
    "[scenario]\nname = \"x\"\n[arrivals]\nprocess = \"spikes\"\n",
    "[scenario]\nname = \"x\"\n[workload]\ngpu_job_fraction = 1.5\n",
    "[scenario]\nname = \"x\"\nseed = \"forty-two\"\n",
    "[scenario]\nname = \"x\"\nscale = [1.0]\n",
    "[scenario]\nname = \"x\"\n[classifier]\ntrees = 0\n",
    "[scenario]\nname = \"x\"\n[classifier]\ntrain_fraction = 1.0\n",
    "[scenario]\nname = \"x\"\n[classifier]\nenabled = \"yes\"\n",
    "[scenario]\nname = \"x\"\n[classifier]\nforest_size = 5\n",
    "[scenario]\nname = \"x\"\n[reliability]\nenabled = true\n",
    "[scenario]\nname = \"x\"\n[reliability]\nsweep_points = 1\n",
    "[scenario]\nname = \"x\"\n[reliability]\nsize_buckets = [8, 2]\n",
    "[scenario]\nname = \"x\"\n[reliability]\nmtbf_factors = [0.0]\n",
    "[scenario]\nname = \"x\"\n[reliability]\ngrowth_factor = 2.0\n",
    "[scenario]\nname = \"x\"\n[cluster]\nnodes = 2\ngpus_per_node = 4\n",
];

fn check(label: &str, ok: bool, detail: &str, failures: &mut u32) {
    if ok {
        println!("ok   {label}");
    } else {
        println!("FAIL {label}: {detail}");
        *failures += 1;
    }
}

/// Parse + round-trip + smoke-run one scenario source.
fn check_scenario(label: &str, text: &str, run_scale: f64, failures: &mut u32) {
    let sc = match Scenario::parse(text) {
        Ok(sc) => sc,
        Err(e) => {
            check(label, false, &format!("parse: {e}"), failures);
            return;
        }
    };
    let summary = sc.render_summary();
    check(
        &format!("{label}: summary"),
        summary.contains(&sc.name),
        "summary omits the scenario name",
        failures,
    );
    match Scenario::parse(&sc.to_toml()) {
        Ok(back) => check(
            &format!("{label}: round-trip"),
            back == sc,
            "canonical serialization parses to a different value",
            failures,
        ),
        Err(e) => check(&format!("{label}: round-trip"), false, &format!("reparse: {e}"), failures),
    }
    if run_scale > 0.0 {
        let spec = sc.scaled_spec(run_scale);
        let trace = Trace::generate(&spec, sc.seed);
        check(
            &format!("{label}: smoke run (scale {run_scale})"),
            !trace.jobs().is_empty(),
            "generated an empty trace",
            failures,
        );
    }
}

fn main() {
    let mut run_scale: f64 = 0.002;
    let mut files: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--run-scale" => {
                let v =
                    it.next().unwrap_or_else(|| CLI.usage_error("missing value for --run-scale"));
                run_scale =
                    v.parse().unwrap_or_else(|_| CLI.usage_error("--run-scale needs a number"));
                if !(run_scale >= 0.0 && run_scale.is_finite()) {
                    CLI.usage_error("--run-scale must be a non-negative finite factor");
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with("--") => CLI.usage_error(&format!("unknown flag {other}")),
            file => files.push(file.to_string()),
        }
    }

    let mut failures = 0u32;
    for name in Scenario::preset_names() {
        let sc = Scenario::preset(name).unwrap_or_else(|| unreachable!("embedded preset"));
        check_scenario(&format!("preset {name}"), &sc.to_toml(), run_scale, &mut failures);
    }
    for file in &files {
        match std::fs::read_to_string(file) {
            Ok(text) => check_scenario(&format!("file {file}"), &text, run_scale, &mut failures),
            Err(e) => check(&format!("file {file}"), false, &e.to_string(), &mut failures),
        }
    }
    for (i, text) in MALFORMED.iter().enumerate() {
        // A panic here aborts the process, which fails CI by itself;
        // an Ok is an accepted-garbage bug and fails explicitly.
        match Scenario::parse(text) {
            Err(e) => check(
                &format!("malformed #{i:02}: {e}"),
                !e.to_string().is_empty(),
                "empty diagnostic",
                &mut failures,
            ),
            Ok(_) => {
                check(&format!("malformed #{i:02}"), false, "parser accepted it", &mut failures)
            }
        }
    }

    if failures > 0 {
        eprintln!("scenario_check: {failures} check(s) failed");
        std::process::exit(1);
    }
    println!("scenario_check: all checks passed");
}
