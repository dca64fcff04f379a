//! Runs the figure pipeline over a previously exported dataset
//! (`export_dataset` output) — the consumer side of the paper's
//! published-dataset workflow. Figures 6–7 need the 100 ms time-series
//! subset and are not part of the dataset release; every other figure
//! is regenerated.
//!
//! ```text
//! analyze_dataset dataset.json
//! ```

use sc_bench::Cli;
use sc_core::DatasetReport;
use sc_telemetry::Dataset;

const USAGE: &str = "usage: analyze_dataset <dataset.json>

Runs the figure pipeline over a dataset written by export_dataset.";

const CLI: Cli = Cli { name: "analyze_dataset", usage: USAGE };

fn main() {
    let mut args = std::env::args().skip(1);
    let path = match args.next().as_deref() {
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Some(p) => p.to_string(),
        None => CLI.usage_error("missing dataset path"),
    };
    if let Some(extra) = args.next() {
        CLI.usage_error(&format!("unexpected argument {extra}"));
    }
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| CLI.fail(&format!("cannot read {path}: {e}")));
    let dataset = Dataset::from_json(&json)
        .unwrap_or_else(|e| CLI.fail(&format!("invalid dataset JSON: {e}")));
    eprintln!(
        "loaded {}: {} records, {} analyzed GPU jobs, {} users",
        path,
        dataset.records().len(),
        dataset.funnel().gpu_jobs,
        dataset.funnel().unique_users
    );
    let report = DatasetReport::try_from_dataset(&dataset)
        .unwrap_or_else(|e| CLI.fail(&format!("figure pipeline: {e}")));
    println!("{}", report.render_text());
}
