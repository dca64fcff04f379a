//! Exports the joined analysis dataset as JSON — the synthetic
//! counterpart of the dataset the paper released at dcc.mit.edu.
//!
//! ```text
//! export_dataset [--scale F] [--seed N] [--out dataset.json] [--csv FILE]
//! ```
//!
//! The world is the `supercloud` scenario preset with `--scale` and
//! `--seed` written into it.

use sc_bench::Cli;
use sc_cluster::Simulation;
use sc_scenario::Scenario;
use sc_workload::Trace;

const USAGE: &str = "usage: export_dataset [--scale F] [--seed N] [--out dataset.json] [--csv FILE]

  --scale F   scale the workload by F (default 0.05)
  --seed N    master RNG seed (default 42)
  --out FILE  JSON output path (default dataset.json)
  --csv FILE  also write the flat CSV form";

const CLI: Cli = Cli { name: "export_dataset", usage: USAGE };

fn main() {
    let mut sc = Scenario::preset("supercloud").expect("committed preset");
    sc.scale = 0.05;
    let mut out = "dataset.json".to_string();
    let mut csv: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| CLI.usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scale" => sc.scale = CLI.positive_factor("--scale", &value("--scale")),
            "--seed" => {
                sc.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| CLI.usage_error("--seed needs an integer"));
            }
            "--out" => out = value("--out"),
            "--csv" => csv = Some(value("--csv")),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => CLI.usage_error(&format!("unknown flag {other}")),
        }
    }
    let trace = Trace::generate(&sc.scaled_spec(sc.scale), sc.seed);
    let result = Simulation::new(sc.sim_config(sc.scale, sc.seed)).run(&trace);
    if let Some(path) = &csv {
        std::fs::write(path, result.dataset.to_csv())
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write CSV {path}: {e}")));
        eprintln!("wrote {path}");
    }
    let json = result
        .dataset
        .to_json()
        .unwrap_or_else(|e| CLI.fail(&format!("cannot serialize dataset: {e}")));
    std::fs::write(&out, &json)
        .unwrap_or_else(|e| CLI.fail(&format!("cannot write dataset {out}: {e}")));
    eprintln!(
        "wrote {} ({} records, {:.1} MiB)",
        out,
        result.dataset.records().len(),
        json.len() as f64 / (1024.0 * 1024.0)
    );
}
