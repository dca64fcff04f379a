//! Regenerates every table and figure of the paper and writes the
//! paper-vs-measured report.
//!
//! ```text
//! repro_figures [--scenario NAME|FILE] [--cross-system all|LIST]
//!               [--scale F] [--seed N] [--out EXPERIMENTS.md]
//!               [--threads N] [--bench-json BENCH_repro.json]
//!               [--failure-profile off|supercloud|stress|transient]
//!               [--mtbf FACTOR]
//!               [--trace FILE] [--trace-level off|spans|events]
//!               [--policy off|powercap:WATTS|coshare|coshare-predicted|tiered]
//!               [--data-quality off|supercloud|lossy|hostile]
//!               [--classify] [--classifier-json FILE]
//!               [--reliability] [--growth FACTORS]
//!               [--reliability-json FILE]
//! ```
//!
//! Every run is a [`Scenario`]: the `supercloud` preset (the paper's
//! 125-day / 74,820-job system) unless `--scenario` names another
//! preset or a TOML file. Each config flag — `--scale`, `--seed`, the
//! failure flags, `--policy`, `--data-quality`, `--classify`,
//! `--reliability`, `--growth` — overrides one scenario field, whatever
//! the flag order; the trace, the simulator configuration and every
//! optional stage then come from the scenario alone. With no arguments
//! this runs the full reproduction on all available cores and prints
//! the figure series to stdout; pass `--out` to also write the Markdown
//! comparison, `--threads 1` for the sequential reference run, and
//! `--bench-json` for a machine-readable per-stage timing breakdown.
//! The Markdown report's prose is the fragments in `crates/bench/report/`
//! around each study's render; its footer records the command line.
//!
//! The failure flags enable the fault-injection subsystem: a taxonomy
//! profile schedules GPU Xid, node-hardware, and transient-infrastructure
//! faults, the scheduler requeues victims with capped backoff, and the
//! goodput ledger attributes every lost GPU-hour to its cause.
//! `--failure-profile` and `--mtbf` replace the scenario's `[failures]`
//! section as a unit; `--mtbf` alone keeps the scenario's profile, or
//! uses `supercloud` when that profile is `off`.
//!
//! `--cross-system` additionally runs a list of scenarios (or `all`
//! four presets) through the identical pipeline at the run's scale and
//! seed and appends the side-by-side comparison.
//!
//! `--classify` trains the `sc-learn` workload-archetype classifier on
//! the generated trace — streamed feature extraction, seeded decision
//! forest, deterministic train/test split — and prints the
//! confusion-matrix report (`classifier_confusion.svg` with
//! `--svg-dir`). `--policy coshare-predicted` closes the loop: the A/B
//! harness routes co-sharing on *predicted* labels and runs a third
//! oracle-label arm, so the report shows what classifier error costs
//! in goodput and queue wait. `--classifier-json` writes the gate
//! metrics `scripts/check_bench.py --classifier` consumes.
//!
//! `--reliability` runs the reliability-at-scale study over the same
//! trace: a per-size-class ETTF/ETTR/failure-rate table under the
//! job-footprint-aware hazard model, a goodput frontier across MTBF
//! settings, and a checkpoint-interval sweep around the per-class
//! Young/Daly optimum with the simulated argmax overlaid on the
//! analytic prediction. `--growth 2,8,32` adds the cluster-growth
//! replay (same workload, scaled fleet); `--reliability-json` writes
//! the gate metrics `scripts/check_bench.py --reliability` consumes.
//!
//! `--trace FILE` streams the simulator's deterministic sim-time trace
//! (submit/start/finish/fault/kill/requeue, attempt and node-down
//! spans) as JSONL into FILE, plus a `FILE.chrome.json` sidecar of
//! wall-clock pipeline stage spans loadable in `chrome://tracing` or
//! Perfetto. `--trace-level` picks the detail (default `events` when
//! `--trace` is given); the `SC_OBS=level[:file]` environment variable
//! supplies a default when neither flag is present.

use sc_bench::{peak_rss_bytes, per_sec, report_json, Cli};
use sc_cluster::{FailureModel, Simulation};
use sc_core::{AnalysisReport, ClassifierFig, DataQualityFig};
use sc_learn::ArchetypePredictor;
use sc_obs::{chrome_trace_json, JsonlSink, Obs, StageLog, TraceLevel, TraceSink};
use sc_opportunity::OpportunityReport;
use sc_policy::{ExperimentResult, PolicyExperiment, PolicySpec};
use sc_scenario::{CrossSystemFig, FailureScenario, Scenario};
use sc_telemetry::DataQualityProfile;
use sc_workload::Trace;
use serde::Serialize;

struct Args {
    /// The command line as given, for the report footer.
    command: String,
    /// The run's configuration: the `supercloud` preset or
    /// `--scenario`, with every config flag written into it.
    scenario: Scenario,
    cross_system: Vec<Scenario>,
    out: Option<String>,
    svg_dir: Option<String>,
    threads: Option<usize>,
    bench_json: Option<String>,
    trace: Option<String>,
    trace_level: Option<String>,
    classifier_json: Option<String>,
    reliability_json: Option<String>,
}

/// The config flags as given, written into the scenario only once
/// `--scenario` has loaded, so flag order does not matter.
#[derive(Default)]
struct Overrides {
    scale: Option<f64>,
    seed: Option<u64>,
    failure_profile: Option<String>,
    mtbf_factor: Option<f64>,
    policy: Option<String>,
    data_quality: Option<String>,
    classify: bool,
    reliability: bool,
    growth: Option<Vec<f64>>,
}

impl Overrides {
    /// Writes each given flag into its scenario field.
    fn apply(self, sc: &mut Scenario) {
        if let Some(v) = self.scale {
            sc.scale = v;
        }
        if let Some(v) = self.seed {
            sc.seed = v;
        }
        // The failure flags replace `[failures]` as a unit. `--mtbf`
        // alone keeps the scenario's profile, or uses the default
        // taxonomy when the scenario is failure-free.
        if self.failure_profile.is_some() || self.mtbf_factor.is_some() {
            let profile =
                self.failure_profile.unwrap_or_else(|| match sc.failures.profile.as_str() {
                    "off" => "supercloud".to_string(),
                    p => p.to_string(),
                });
            let mtbf_factor = self.mtbf_factor.filter(|_| profile != "off");
            sc.failures = FailureScenario { profile, mtbf_factor };
        }
        if let Some(v) = self.policy {
            sc.policy = v;
        }
        if let Some(v) = self.data_quality {
            sc.data_quality = v;
        }
        sc.classifier.enabled |= self.classify;
        sc.reliability.enabled |= self.reliability;
        if let Some(v) = self.growth {
            sc.reliability.growth_factors = Some(v);
        }
    }
}

const USAGE: &str = "usage: repro_figures [--scenario NAME|FILE] [--cross-system all|LIST]
                     [--scale F] [--seed N] [--out FILE] [--svg-dir DIR]
                     [--threads N] [--bench-json FILE]
                     [--failure-profile off|supercloud|stress|transient]
                     [--mtbf FACTOR]
                     [--trace FILE] [--trace-level off|spans|events]
                     [--policy off|powercap:WATTS|coshare|coshare-predicted|tiered]
                     [--data-quality off|supercloud|lossy|hostile]
                     [--classify] [--classifier-json FILE]
                     [--reliability] [--growth FACTORS]
                     [--reliability-json FILE]

Every run is a scenario: the supercloud preset unless --scenario names
another. Each config flag below (--scale, --seed, --failure-profile,
--mtbf, --policy, --data-quality, --classify, --reliability, --growth)
overrides one field of it, in any order.

  --scenario S         drive the pipeline from a scenario preset or TOML
                       file (presets: supercloud|philly|nersc|in2p3;
                       default supercloud). The scenario supplies cluster,
                       workload, arrivals, failures, data quality, policy,
                       classifier, reliability, seed, and scale.
  --cross-system L     after the main run, replay the comma-separated
                       scenario list L (`all` = the four presets) at the
                       run's scale and seed and print the
                       side-by-side comparison (plus cross_system.svg
                       with --svg-dir and a methodology section in --out)
  --scale F            scale the scenario's workload by F (supercloud:
                       1.0 = 125 days / 74,820 jobs)
  --seed N             master RNG seed (supercloud: 42)
  --out FILE           also write the Markdown paper-vs-measured report
  --svg-dir DIR        write the SVG figure set into DIR
  --threads N          cap the worker pool (default: all cores)
  --bench-json FILE    write per-stage timings as JSON
  --failure-profile P  inject faults from taxonomy profile P (supercloud:
                       off); replaces the scenario's failures together
                       with --mtbf
  --mtbf FACTOR        scale every class MTBF by FACTOR; keeps the
                       scenario's failure profile, or uses supercloud when
                       that profile is off
  --trace FILE         write the deterministic sim-time JSONL trace to FILE
                       and a FILE.chrome.json Perfetto sidecar of pipeline
                       stage spans
  --trace-level L      trace detail: off, spans, or events (default events
                       when --trace is given); the SC_OBS=level[:file] env
                       var supplies a default when both flags are absent
  --policy P           run the closed-loop policy A/B harness: replay the
                       same trace with no policy and with P, and report
                       the deltas (see the Policy engine section of the
                       README); off skips the harness
  --data-quality P     corrupt the recorded dataset with collection-fault
                       profile P, run the hardened ingest repair, and report
                       recovered-vs-clean headline deltas plus the repair
                       ledger; off skips the stage entirely
  --classify           train the workload-archetype classifier on the
                       generated trace and print the confusion-matrix
                       report (classifier_confusion.svg with --svg-dir);
                       same as the scenario's [classifier] enabled = true
  --classifier-json F  write classifier gate metrics (accuracy, split
                       sizes, predicted-vs-oracle goodput delta when
                       --policy coshare-predicted ran) as JSON to F;
                       implies --classify
  --reliability        run the reliability-at-scale study: per-size-class
                       ETTF/ETTR table, goodput frontier across MTBF
                       settings, and the Young/Daly checkpoint-interval
                       sweep (simulated vs analytic); uses the scenario's
                       failure model, or the supercloud taxonomy at 0.05x
                       MTBF when the run is failure-free; same as the
                       scenario's [reliability] enabled = true
  --growth FACTORS     comma-separated fleet scale factors (e.g. 2,8,32)
                       for the cluster-growth replay: same workload on a
                       scaled cluster, reporting queue wait, goodput, and
                       event-loop throughput per scale; implies
                       --reliability
  --reliability-json F write reliability gate metrics (sweep worst ratio,
                       frontier monotonicity, growth throughput floor) as
                       JSON to F; implies --reliability";

const CLI: Cli = Cli { name: "repro_figures", usage: USAGE };

fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
    let argv: Vec<String> = argv.into_iter().collect();
    let mut set = Overrides::default();
    let mut args = Args {
        command: std::iter::once("repro_figures")
            .chain(argv.iter().map(String::as_str))
            .collect::<Vec<_>>()
            .join(" "),
        scenario: Scenario::preset("supercloud").expect("committed preset"),
        cross_system: Vec::new(),
        out: None,
        svg_dir: None,
        threads: None,
        bench_json: None,
        trace: None,
        trace_level: None,
        classifier_json: None,
        reliability_json: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| CLI.usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--scenario" => {
                let spec = value("--scenario");
                args.scenario = Scenario::load(&spec)
                    .unwrap_or_else(|e| CLI.usage_error(&format!("--scenario {spec}: {e}")));
            }
            "--cross-system" => {
                let list = value("--cross-system");
                let names: Vec<String> = if list == "all" {
                    Scenario::preset_names().map(String::from).collect()
                } else {
                    list.split(',').map(String::from).collect()
                };
                args.cross_system = names
                    .iter()
                    .map(|n| {
                        Scenario::load(n).unwrap_or_else(|e| {
                            CLI.usage_error(&format!("--cross-system {n}: {e}"))
                        })
                    })
                    .collect();
                if args.cross_system.is_empty() {
                    CLI.usage_error("--cross-system needs at least one scenario");
                }
            }
            "--scale" => set.scale = Some(CLI.positive_factor("--scale", &value("--scale"))),
            "--seed" => {
                set.seed = Some(
                    value("--seed")
                        .parse()
                        .unwrap_or_else(|_| CLI.usage_error("--seed needs an integer")),
                );
            }
            "--out" => args.out = Some(value("--out")),
            "--svg-dir" => args.svg_dir = Some(value("--svg-dir")),
            "--threads" => args.threads = Some(CLI.thread_count(&value("--threads"))),
            "--bench-json" => args.bench_json = Some(value("--bench-json")),
            "--failure-profile" => {
                let name = value("--failure-profile");
                if FailureModel::profile(&name, 0).is_none() {
                    CLI.usage_error(&format!(
                        "unknown --failure-profile {name} (expected {})",
                        FailureModel::PROFILE_NAMES
                    ));
                }
                set.failure_profile = Some(name);
            }
            "--mtbf" => set.mtbf_factor = Some(CLI.positive_factor("--mtbf", &value("--mtbf"))),
            "--trace" => args.trace = Some(value("--trace")),
            "--trace-level" => args.trace_level = Some(value("--trace-level")),
            "--policy" => {
                let arm = value("--policy");
                if let Err(e) = PolicySpec::parse(&arm) {
                    CLI.usage_error(&e);
                }
                set.policy = Some(arm);
            }
            "--data-quality" => {
                let name = value("--data-quality");
                if DataQualityProfile::parse(&name).is_none() {
                    CLI.usage_error(&format!(
                        "unknown --data-quality profile {name} (expected {})",
                        DataQualityProfile::NAMES
                    ));
                }
                set.data_quality = Some(name);
            }
            "--classify" => set.classify = true,
            "--classifier-json" => {
                args.classifier_json = Some(value("--classifier-json"));
                set.classify = true;
            }
            "--reliability" => set.reliability = true,
            "--growth" => {
                let list = value("--growth");
                let factors: Vec<f64> = list
                    .split(',')
                    .map(|s| {
                        let f: f64 = s.trim().parse().unwrap_or_else(|_| {
                            CLI.usage_error("--growth needs a comma-separated list of numbers")
                        });
                        if !(f.is_finite() && f > 0.0) {
                            CLI.usage_error("--growth factors must be positive and finite");
                        }
                        f
                    })
                    .collect();
                if factors.is_empty() {
                    CLI.usage_error("--growth needs at least one factor");
                }
                set.growth = Some(factors);
                set.reliability = true;
            }
            "--reliability-json" => {
                args.reliability_json = Some(value("--reliability-json"));
                set.reliability = true;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => CLI.usage_error(&format!("unknown flag {other}")),
        }
    }
    set.apply(&mut args.scenario);
    args
}

/// Resolves the tracing flags to `(level, jsonl path)`. The flags win;
/// with both absent, `SC_OBS=level[:file]` supplies the default; with
/// neither, tracing is off.
fn trace_settings(args: &Args) -> (TraceLevel, Option<String>) {
    let parse_level = |s: &str| {
        TraceLevel::parse(s).unwrap_or_else(|| {
            CLI.usage_error(&format!("bad trace level {s} (expected {})", TraceLevel::NAMES))
        })
    };
    if args.trace.is_some() || args.trace_level.is_some() {
        let level = match &args.trace_level {
            Some(s) => parse_level(s),
            None => TraceLevel::Events,
        };
        if level > TraceLevel::Off && args.trace.is_none() {
            CLI.usage_error("--trace-level needs --trace FILE to write to");
        }
        return (level, args.trace.clone());
    }
    match std::env::var("SC_OBS") {
        Ok(v) => {
            let (level_str, path) = match v.split_once(':') {
                Some((l, p)) => (l.to_string(), Some(p.to_string())),
                None => (v, None),
            };
            let level = parse_level(&level_str);
            if level > TraceLevel::Off && path.is_none() {
                CLI.usage_error("SC_OBS enables tracing but names no file (use SC_OBS=level:file)");
            }
            (level, path)
        }
        Err(_) => (TraceLevel::Off, None),
    }
}

/// The `--bench-json` report: the four timed pipeline stages and the
/// run's totals.
#[derive(Serialize)]
struct BenchReport {
    threads: usize,
    scale: f64,
    seed: u64,
    jobs: usize,
    stages: Stages,
    peak_rss_bytes: u64,
    total_secs: f64,
    total_jobs_per_sec: f64,
}

/// The four timed pipeline stages, in run order.
#[derive(Clone, Copy, Serialize)]
struct Stages {
    trace_gen: StageTiming,
    sim_event_loop: StageTiming,
    telemetry: StageTiming,
    analysis: StageTiming,
}

/// One stage's wall-clock seconds and the jobs it processed per second.
#[derive(Clone, Copy, Serialize)]
struct StageTiming {
    secs: f64,
    jobs_per_sec: f64,
}

impl StageTiming {
    fn new(jobs: usize, secs: f64) -> Self {
        StageTiming { secs, jobs_per_sec: per_sec(jobs, secs) }
    }
}

impl Stages {
    /// `(name, timing)` pairs in run order, for the markdown table.
    fn named(&self) -> [(&'static str, StageTiming); 4] {
        [
            ("trace_gen", self.trace_gen),
            ("sim_event_loop", self.sim_event_loop),
            ("telemetry", self.telemetry),
            ("analysis", self.analysis),
        ]
    }
}

impl BenchReport {
    fn new(threads: usize, scale: f64, seed: u64, jobs: usize, stages: Stages) -> Self {
        let total_secs: f64 = stages.named().iter().map(|(_, t)| t.secs).sum();
        BenchReport {
            threads,
            scale,
            seed,
            jobs,
            stages,
            peak_rss_bytes: peak_rss_bytes(),
            total_secs,
            total_jobs_per_sec: per_sec(jobs, total_secs),
        }
    }
}

/// The classifier gate metrics. `goodput_delta_pp` is `null` unless
/// the `coshare-predicted` policy harness ran its oracle arm alongside.
#[derive(Serialize)]
struct ClassifierReport {
    accuracy: f64,
    centroid_accuracy: f64,
    train_jobs: usize,
    test_jobs: usize,
    goodput_delta_pp: Option<f64>,
}

impl ClassifierReport {
    fn new(fig: &ClassifierFig, policy: Option<&ExperimentResult>) -> Self {
        ClassifierReport {
            accuracy: fig.accuracy,
            centroid_accuracy: fig.centroid_accuracy,
            train_jobs: fig.train_count,
            test_jobs: fig.test_count,
            goodput_delta_pp: policy.and_then(|r| r.predicted_vs_oracle_goodput_pp()),
        }
    }
}

/// The reliability gate metrics: the three scalars
/// `scripts/check_bench.py --reliability` gates, plus the per-class
/// sweep verdicts and growth timings behind them. Non-finite values (a
/// class the model cannot fail, an empty growth list) encode as `null`,
/// which the gate script treats as "not measured" for detail rows and
/// a hard failure for gated scalars.
#[derive(Serialize)]
struct ReliabilityGates {
    sweep_worst_ratio: Option<f64>,
    frontier_monotone_violation: f64,
    growth_min_jobs_per_sec: f64,
    sweep_classes: Vec<SweepClassRow>,
    growth: Vec<GrowthTimingRow>,
}

/// One size class's simulated-vs-analytic checkpoint optimum.
#[derive(Serialize)]
struct SweepClassRow {
    label: String,
    gpus: u32,
    analytic_secs: f64,
    simulated_secs: Option<f64>,
    ratio: Option<f64>,
}

/// One growth-study run's event-loop timing.
#[derive(Serialize)]
struct GrowthTimingRow {
    factor: f64,
    jobs: usize,
    event_loop_secs: f64,
    jobs_per_sec: f64,
}

impl ReliabilityGates {
    fn new(report: &sc_core::ReliabilityReport) -> Self {
        ReliabilityGates {
            sweep_worst_ratio: report.sweep.worst_ratio(),
            frontier_monotone_violation: report.frontier.monotone_violation(),
            growth_min_jobs_per_sec: report
                .growth_timings
                .iter()
                .map(|t| t.jobs_per_sec())
                .fold(f64::INFINITY, f64::min),
            sweep_classes: report
                .sweep
                .classes
                .iter()
                .map(|c| SweepClassRow {
                    label: c.label.clone(),
                    gpus: c.gpus,
                    analytic_secs: c.analytic_secs,
                    simulated_secs: c.simulated_secs,
                    ratio: c.ratio(),
                })
                .collect(),
            growth: report
                .growth_timings
                .iter()
                .map(|t| GrowthTimingRow {
                    factor: t.factor,
                    jobs: t.jobs,
                    event_loop_secs: t.event_loop_secs,
                    jobs_per_sec: t.jobs_per_sec(),
                })
                .collect(),
        }
    }
}

/// The reliability figure family as SVGs: the goodput frontier and the
/// checkpoint sweep as log-x line charts, the growth study as a bar
/// chart of median queue wait per scale. Series a degenerate run left
/// empty (a class with no exposure) are dropped; a chart with no data
/// at all is skipped rather than rendered blank.
fn reliability_svgs(report: &sc_core::ReliabilityReport) -> Vec<(&'static str, String)> {
    use sc_core::svg::{bar_chart, line_chart, Scale, Series};
    let mut out = Vec::new();

    let frontier: Vec<Series> = report
        .frontier
        .rows
        .iter()
        .map(|r| {
            let pts: Vec<(f64, f64)> = report
                .frontier
                .class_gpus
                .iter()
                .zip(&r.goodput_by_class)
                .filter_map(|(&g, gp)| gp.map(|v| (g as f64, v)))
                .collect();
            Series::new(format!("mtbf x{}", r.mtbf_factor), pts)
        })
        .filter(|s| !s.points.is_empty())
        .collect();
    if !frontier.is_empty() {
        out.push((
            "goodput_frontier.svg",
            line_chart(
                "Goodput frontier",
                "job size (GPUs)",
                "goodput fraction",
                Scale::Log10,
                &frontier,
            ),
        ));
    }

    let mut sweep = vec![Series::new(
        "overall",
        report.sweep.rows.iter().map(|r| (r.interval_secs, r.overall_goodput)).collect(),
    )];
    for (c, verdict) in report.sweep.classes.iter().enumerate() {
        let pts: Vec<(f64, f64)> = report
            .sweep
            .rows
            .iter()
            .filter_map(|r| r.goodput_by_class[c].map(|v| (r.interval_secs, v)))
            .collect();
        if !pts.is_empty() {
            sweep.push(Series::new(verdict.label.clone(), pts));
        }
    }
    out.push((
        "checkpoint_sweep.svg",
        line_chart(
            "Checkpoint-interval sweep (Young/Daly)",
            "checkpoint interval (s)",
            "goodput fraction",
            Scale::Log10,
            &sweep,
        ),
    ));

    if let Some(growth) = &report.growth {
        let bars: Vec<(String, f64)> =
            growth.rows.iter().map(|r| (format!("x{}", r.factor), r.median_wait_secs)).collect();
        out.push((
            "reliability_growth.svg",
            bar_chart("Cluster growth: median queue wait", "seconds", &bars),
        ));
    }
    out
}

/// The report prose, one markdown fragment per section. Edit the prose
/// in `crates/bench/report/`; these bindings only pull it in.
mod prose {
    pub const KNOWN_GAPS: &str = include_str!("../../report/known_gaps.md");
    pub const FAILURE_TAXONOMY: &str = include_str!("../../report/failure_taxonomy.md");
    pub const TRACING: &str = include_str!("../../report/tracing.md");
    pub const STREAMING_BENCH: &str = include_str!("../../report/streaming_bench.md");
    pub const SERVE_METHODOLOGY: &str = include_str!("../../report/serve_methodology.md");
    pub const BEYOND_THE_FIGURES: &str = include_str!("../../report/beyond_the_figures.md");
    pub const OPPORTUNITY_STUDIES: &str = include_str!("../../report/opportunity_studies.md");
    pub const POLICY_AB: &str = include_str!("../../report/policy_ab.md");
    /// Takes `{pp}` and `{wait}`, the predicted-vs-oracle deltas.
    pub const POLICY_ORACLE_GAP: &str = include_str!("../../report/policy_oracle_gap.md");
    pub const CLASSIFIER_METHODOLOGY: &str = include_str!("../../report/classifier_methodology.md");
    pub const CLASSIFIER_HEATMAP: &str = include_str!("../../report/classifier_heatmap.md");
    pub const DATA_QUALITY: &str = include_str!("../../report/data_quality.md");
    pub const RELIABILITY: &str = include_str!("../../report/reliability.md");
    pub const RELIABILITY_NOT_RUN: &str = include_str!("../../report/reliability_not_run.md");
    pub const CROSS_SYSTEM: &str = include_str!("../../report/cross_system.md");
    pub const CROSS_SYSTEM_NOT_RUN: &str = include_str!("../../report/cross_system_not_run.md");
}

/// What the markdown report shows: each study's one render plus the
/// run's own numbers. `None` marks an optional study that did not run.
struct Sections<'a> {
    /// The paper-vs-measured comparison tables.
    tables: &'a str,
    /// The wall-clock block: stage timings and peak RSS.
    run_block: &'a str,
    streaming: Option<&'a str>,
    beyond: &'a str,
    opportunity: &'a str,
    policy: Option<&'a str>,
    /// Predicted-vs-oracle goodput (pp) and mean-wait (s) deltas.
    oracle_gap: Option<(f64, f64)>,
    classifier: Option<&'a str>,
    data_quality: Option<&'a str>,
    reliability: Option<&'a str>,
    cross_system: Option<&'a str>,
    footer: &'a str,
}

/// Assembles the markdown report: the comparison tables, then each
/// section's prose fragment followed by its study's fenced render.
/// The policy, classifier and data-quality sections appear only when
/// their study ran; reliability and cross-system always do, with a
/// note in place of the render when they did not run.
fn markdown(s: &Sections) -> String {
    let fenced = |text: &str| format!("\n```text\n{text}```\n");
    let mut md = [
        s.tables,
        prose::KNOWN_GAPS,
        prose::FAILURE_TAXONOMY,
        prose::TRACING,
        prose::STREAMING_BENCH,
        s.run_block,
    ]
    .concat();
    if let Some(text) = s.streaming {
        md += &fenced(text);
    }
    md += prose::SERVE_METHODOLOGY;
    md += prose::BEYOND_THE_FIGURES;
    md += &fenced(s.beyond);
    md += prose::OPPORTUNITY_STUDIES;
    md += &fenced(s.opportunity);
    if let Some(text) = s.policy {
        md += prose::POLICY_AB;
        md += &fenced(text);
        if let Some((pp, wait)) = s.oracle_gap {
            md += &prose::POLICY_ORACLE_GAP
                .replace("{pp}", &format!("{pp:+.3}"))
                .replace("{wait}", &format!("{wait:+.1}"));
        }
    }
    if let Some(text) = s.classifier {
        md += prose::CLASSIFIER_METHODOLOGY;
        md += &fenced(text);
        md += prose::CLASSIFIER_HEATMAP;
    }
    if let Some(text) = s.data_quality {
        md += prose::DATA_QUALITY;
        md += &fenced(text);
    }
    md += prose::RELIABILITY;
    md += &s.reliability.map_or_else(|| prose::RELIABILITY_NOT_RUN.to_string(), fenced);
    md += prose::CROSS_SYSTEM;
    md += &s.cross_system.map_or_else(|| prose::CROSS_SYSTEM_NOT_RUN.to_string(), fenced);
    md += &format!("\n---\n{}\n", s.footer);
    md
}

/// Prints a study's one render to stdout, writes its SVGs into
/// `--svg-dir` when one is given, and hands the render back for the
/// report.
fn emit(
    text: String,
    svgs: impl FnOnce() -> Vec<(&'static str, String)>,
    svg_dir: Option<&str>,
) -> String {
    println!("{text}");
    if let Some(dir) = svg_dir {
        for (name, svg) in svgs() {
            let path = std::path::Path::new(dir).join(name);
            std::fs::write(&path, svg)
                .unwrap_or_else(|e| CLI.fail(&format!("cannot write {}: {e}", path.display())));
            eprintln!("wrote {}", path.display());
        }
    }
    text
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    if let Some(n) = args.threads {
        sc_par::set_max_threads(n);
    }
    let (trace_level, trace_path) = trace_settings(&args);
    let svg_dir = args.svg_dir.as_deref();
    // Everything below is configured by the scenario alone.
    let sc = &args.scenario;
    let (scale, seed) = (sc.scale, sc.seed);
    let spec = sc.scaled_spec(scale);
    let sim_config = sc.sim_config(scale, seed);
    let policy = sc.policy_spec();
    let data_quality = sc.data_quality_profile();
    let classifier_cfg = sc.classifier_config();
    eprintln!("scenario {} (hash {:016x})", sc.name, sc.hash());
    eprintln!(
        "generating {} jobs / {} users over {} days (seed {}, {} threads) ...",
        spec.total_jobs,
        spec.users,
        spec.duration_days,
        seed,
        sc_par::current_threads()
    );
    let stage_log = StageLog::new();
    let t0 = std::time::Instant::now();
    let trace = stage_log.time("trace_gen", || Trace::generate(&spec, seed));
    let trace_gen_secs = t0.elapsed().as_secs_f64();
    if let (Some(model), Some(checkpoint)) = (&sim_config.failures, &sim_config.checkpoint) {
        eprintln!(
            "failure injection on: {} classes, checkpoint interval {:.0}s",
            model.classes.len(),
            checkpoint.interval_secs
        );
    }
    let sim = Simulation::new(sim_config.clone());
    let sink = trace_path.as_ref().map(|path| {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot create trace file {path}: {e}")));
        JsonlSink::new(trace_level, file)
    });
    let t0 = std::time::Instant::now();
    let sim_start = stage_log.elapsed_secs();
    // The simulation, the policy arm and the ingest repair all trace
    // into this one sink. Each flushes after it runs, so a later step
    // that exits on an error leaves every event written so far on disk.
    let obs = sink.as_ref().map_or(Obs::off(), |s| Obs::new(s));
    let flush_trace = || {
        if let Some(s) = &sink {
            s.flush().unwrap_or_else(|e| CLI.fail(&format!("cannot flush trace file: {e}")));
        }
    };
    let (out, timings) = sim.run_with(&trace, &obs, None);
    flush_trace();
    stage_log.push("sim_event_loop", sim_start, timings.event_loop_secs);
    stage_log.push("telemetry", sim_start + timings.event_loop_secs, timings.telemetry_secs);
    eprintln!("simulated in {:?}; analyzing ...", t0.elapsed());
    let t0 = std::time::Instant::now();
    let report = AnalysisReport::try_from_sim_logged(&out, &stage_log)
        .unwrap_or_else(|e| CLI.fail(&format!("figure pipeline: {e}")));
    let analysis_secs = t0.elapsed().as_secs_f64();

    // The Chrome sidecar carries the wall-clock stage spans (trace
    // generation, event loop, telemetry batch, every figure) — load it
    // in chrome://tracing or https://ui.perfetto.dev.
    if let Some(path) = &trace_path {
        let chrome_path = format!("{path}.chrome.json");
        std::fs::write(&chrome_path, chrome_trace_json(&stage_log.spans()))
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write {chrome_path}: {e}")));
        eprintln!("wrote {path} (sim-time JSONL) and {chrome_path} (Perfetto stages)");
    }

    let jobs = trace.jobs().len();
    let stages = Stages {
        trace_gen: StageTiming::new(jobs, trace_gen_secs),
        sim_event_loop: StageTiming::new(jobs, timings.event_loop_secs),
        telemetry: StageTiming::new(jobs, timings.telemetry_secs),
        analysis: StageTiming::new(jobs, analysis_secs),
    };
    if let Some(path) = &args.bench_json {
        let bench = BenchReport::new(sc_par::current_threads(), scale, seed, jobs, stages);
        std::fs::write(path, report_json(&bench))
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write bench json {path}: {e}")));
        eprintln!("wrote {path}");
    }

    println!("{}", report.render_text());
    println!("detailed-series jobs collected: {}", out.detailed.len());
    println!("simulation stats: {:?}", out.stats);

    // Streaming-vs-batch cross-validation: every one-pass aggregate the
    // telemetry stage folded in flight is re-derived from the
    // materialized dataset and held to its documented error law. A
    // divergence means the streaming engine broke the batch contract,
    // so it is a hard failure, like an unbalanced ingest ledger. A
    // CPU-only trace streams nothing and skips the check.
    let streaming = sc_core::StreamingTelemetryFig::try_compute(&out).ok().map(|fig| {
        let text = fig.render();
        println!("{text}");
        if !fig.passes() {
            CLI.fail("streaming telemetry aggregates diverge from the batch dataset");
        }
        text
    });

    println!("\n================ paper vs measured ================\n");
    for (title, rows) in report.all_comparisons() {
        println!("{title}");
        for r in rows {
            println!(
                "  {:<42} paper {:>9.3} {:<4} measured {:>9.3}",
                r.metric, r.paper, r.unit, r.measured
            );
        }
        println!();
    }

    if let Some(dir) = svg_dir {
        let files = sc_core::svg::write_report_svgs(&report, std::path::Path::new(dir))
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write SVGs to {dir}: {e}")));
        eprintln!("wrote {} SVG figures to {dir}", files.len());
    }

    // Extra analyses over the same population: the Fig. 2 workflow
    // chain, the Sec. II arrival patterns, the facility power
    // reconstruction, and the opportunity studies (Secs. III/VI/VIII).
    let views = sc_core::gpu_views(&out.dataset);
    let beyond = [
        sc_core::WorkflowChain::fit(&views).render(),
        sc_core::arrivals::ArrivalAnalysis::compute(&out.dataset).render(&spec.deadline_days),
        sc_core::facility::reconstruct(
            &views,
            sc_telemetry::gpu_power::SUPERCLOUD_GPUS,
            sc_telemetry::gpu_power::V100_TDP_W,
            sc_telemetry::gpu_power::V100_IDLE_W,
        )
        .render(),
    ]
    .join("\n");
    println!("{beyond}");
    let opportunity = OpportunityReport::run(&views, 400).render();
    println!("{opportunity}");

    // Closed-loop policy A/B: replay the same trace with no policy and
    // with the selected policy. The policy arm shares the run's trace
    // sink so every cap_throttle / coshare_place / tier_route decision
    // lands in --trace output.
    let policy_ab = (policy != PolicySpec::Off).then(|| {
        eprintln!("running policy A/B ({}) ...", policy.label());
        let t0 = std::time::Instant::now();
        let mut exp = PolicyExperiment::new(sim_config.clone(), policy);
        exp.classifier = classifier_cfg.clone();
        let result = exp
            .run(&trace, &obs)
            .unwrap_or_else(|e| CLI.fail(&format!("policy A/B ({}): {e}", policy.label())));
        flush_trace();
        eprintln!("policy A/B done in {:?}", t0.elapsed());
        result
    });
    let policy_text = policy_ab.as_ref().map(|r| {
        let mut text = r.fig.render();
        if let Some(fig) = &r.oracle_fig {
            text.push('\n');
            text.push_str(&fig.render());
        }
        emit(text, || vec![("policy_ab.svg", r.fig.to_svg())], svg_dir)
    });
    let oracle_gap = policy_ab.as_ref().and_then(|r| {
        Some((r.predicted_vs_oracle_goodput_pp()?, r.predicted_vs_oracle_wait_secs()?))
    });
    if let Some((pp, wait)) = oracle_gap {
        println!(
            "predicted vs oracle placement: goodput {pp:+.3} pp, mean queue wait \
             {wait:+.1} s (negative goodput = classifier error cost)\n"
        );
    }

    // Workload classification: train the archetype classifier on the
    // same trace and report the held-out confusion matrix. When the
    // coshare-predicted harness already trained one (with the identical
    // config), reuse its evaluation instead of training twice.
    let classifier_fig = sc.classifier.enabled.then(|| {
        match policy_ab.as_ref().and_then(|r| r.classifier_eval.clone()) {
            Some(eval) => eval,
            None => {
                eprintln!(
                    "training workload classifier ({} trees, seed {}) ...",
                    classifier_cfg.trees, classifier_cfg.seed
                );
                let t0 = std::time::Instant::now();
                let (_, eval) = ArchetypePredictor::train(&trace, &classifier_cfg);
                eprintln!("classifier trained in {:?}", t0.elapsed());
                eval
            }
        }
        .to_fig()
    });
    let classifier_text = classifier_fig.as_ref().map(|fig| {
        emit(fig.render(), || vec![("classifier_confusion.svg", fig.to_svg())], svg_dir)
    });
    if let Some(path) = &args.classifier_json {
        let fig = classifier_fig.as_ref().expect("--classifier-json implies --classify");
        std::fs::write(path, report_json(&ClassifierReport::new(fig, policy_ab.as_ref())))
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write classifier json {path}: {e}")));
        eprintln!("wrote {path}");
    }

    // Data-quality round trip: corrupt the recorded dataset with the
    // selected collection-fault profile, repair it through the hardened
    // ingest stage, and re-run the figure pipeline on the recovered
    // dataset. `off` (the default) skips the stage entirely, so the
    // stock reproduction stays byte-identical.
    let data_quality_text = (data_quality != DataQualityProfile::Off).then(|| {
        eprintln!("running data-quality round trip ({}) ...", data_quality.label());
        let t0 = std::time::Instant::now();
        let mut fig = DataQualityFig::round_trip(&out.dataset, data_quality, seed, &obs)
            .unwrap_or_else(|e| CLI.fail(&format!("{} failed: {e}", e.stage())));
        flush_trace();
        fig.series = Some(
            sc_core::ingest::series_study(data_quality, seed, 64, 1_800.0, 0.1)
                .unwrap_or_else(|e| CLI.fail(&format!("series study failed: {e}"))),
        );
        eprintln!("data-quality round trip done in {:?}", t0.elapsed());
        let text = emit(fig.render(), || vec![("data_quality.svg", fig.to_svg())], svg_dir);
        if !fig.balanced() {
            CLI.fail("data-quality ledger does not balance");
        }
        text
    });

    // Cross-system comparison: replay the requested scenario list
    // through the identical pipeline at the effective scale and seed.
    // Off by default, so the stock reproduction stays byte-identical.
    let cross_system_text = (!args.cross_system.is_empty()).then(|| {
        eprintln!("running cross-system comparison ({} systems) ...", args.cross_system.len());
        let t0 = std::time::Instant::now();
        let fig = CrossSystemFig::run(&args.cross_system, scale, seed)
            .unwrap_or_else(|e| CLI.fail(&format!("cross-system comparison: {e}")));
        eprintln!("cross-system comparison done in {:?}", t0.elapsed());
        emit(fig.render(), || vec![("cross_system.svg", fig.to_svg())], svg_dir)
    });

    // Reliability-at-scale study: per-size-class failure table, goodput
    // frontier, Young/Daly checkpoint sweep, and (with --growth) the
    // cluster-growth replay. Off by default, so the stock reproduction
    // stays byte-identical. A failure-free run measures the default
    // supercloud taxonomy at 0.05x MTBF so every figure has failures.
    let reliability_report = sc.reliability.enabled.then(|| {
        let rel_cfg = sc.reliability_config();
        eprintln!(
            "running reliability study ({} MTBF factors, {}-point sweep, {} growth factors) ...",
            rel_cfg.mtbf_factors.len(),
            rel_cfg.sweep_points,
            rel_cfg.growth_factors.len()
        );
        let t0 = std::time::Instant::now();
        let model = sc.reliability_failure_model(seed);
        let report = sc_core::run_reliability_study(&trace, &sim_config, &model, &rel_cfg)
            .unwrap_or_else(|e| CLI.fail(&format!("reliability study: {e}")));
        eprintln!("reliability study done in {:?}", t0.elapsed());
        report
    });
    let reliability_text =
        reliability_report.as_ref().map(|r| emit(r.render(), || reliability_svgs(r), svg_dir));
    if let Some(path) = &args.reliability_json {
        let report = reliability_report.as_ref().expect("--reliability-json implies --reliability");
        std::fs::write(path, report_json(&ReliabilityGates::new(report)))
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write reliability json {path}: {e}")));
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.out {
        let mut run_block = format!(
            "\nThis run (scale {scale}, seed {seed}, {} threads):\n\n\
             | stage | secs | jobs/sec |\n|---|---|---|\n",
            sc_par::current_threads()
        );
        for (name, t) in stages.named() {
            run_block += &format!("| {name} | {:.3} | {:.0} |\n", t.secs, t.jobs_per_sec);
        }
        run_block += &format!(
            "\nPeak RSS this run: {:.1} MiB.\n",
            peak_rss_bytes() as f64 / (1024.0 * 1024.0)
        );
        let md = markdown(&Sections {
            tables: &report.experiments_markdown(),
            run_block: &run_block,
            streaming: streaming.as_deref(),
            beyond: &beyond,
            opportunity: &opportunity,
            policy: policy_text.as_deref(),
            oracle_gap,
            classifier: classifier_text.as_deref(),
            data_quality: data_quality_text.as_deref(),
            reliability: reliability_text.as_deref(),
            cross_system: cross_system_text.as_deref(),
            footer: &format!(
                "Generated by `{}`; detailed subset {} jobs; simulated {} events.",
                args.command,
                out.detailed.len(),
                out.stats.events
            ),
        });
        std::fs::write(path, md)
            .unwrap_or_else(|e| CLI.fail(&format!("cannot write report {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_of(flags: &[&str]) -> Scenario {
        parse_args(flags.iter().map(|s| s.to_string())).scenario
    }

    /// `preset`'s canonical TOML with `edits` applied, parsed: each
    /// `(section, key, value)` drops the key from its section and, for
    /// `Some(value)`, writes `key = value` in its place.
    fn preset_with(preset: &str, edits: &[(&str, &str, Option<&str>)]) -> Scenario {
        let text = Scenario::preset(preset).expect("preset").to_toml();
        let mut toml = String::new();
        let mut section = "";
        for line in text.lines() {
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name;
                toml.push_str(line);
                toml.push('\n');
                for &(s, key, value) in edits {
                    if let (true, Some(v)) = (s == section, value) {
                        toml.push_str(&format!("{key} = {v}\n"));
                    }
                }
            } else if !edits
                .iter()
                .any(|&(s, key, _)| s == section && line.split(" = ").next() == Some(key))
            {
                toml.push_str(line);
                toml.push('\n');
            }
        }
        Scenario::parse(&toml).unwrap_or_else(|e| panic!("edited preset: {e}\n{toml}"))
    }

    /// Each config flag writes exactly its one scenario field: the
    /// flag-built scenario equals the preset parsed with that key set,
    /// whether the flags come before or after `--scenario`.
    #[test]
    fn each_config_flag_sets_its_scenario_field() {
        type Row<'a> = (&'a str, &'a [&'a str], &'a [(&'a str, &'a str, Option<&'a str>)]);
        let rows: &[Row] = &[
            ("supercloud", &[], &[]),
            ("supercloud", &["--scale", "0.5"], &[("scenario", "scale", Some("0.5"))]),
            ("supercloud", &["--seed", "7"], &[("scenario", "seed", Some("7"))]),
            (
                "supercloud",
                &["--failure-profile", "stress"],
                &[("failures", "profile", Some("\"stress\""))],
            ),
            // A failure-free scenario: --mtbf falls back to supercloud.
            (
                "supercloud",
                &["--mtbf", "0.5"],
                &[
                    ("failures", "profile", Some("\"supercloud\"")),
                    ("failures", "mtbf_factor", Some("0.5")),
                ],
            ),
            // --mtbf keeps a scenario's own failure profile.
            ("in2p3", &["--mtbf", "0.5"], &[("failures", "mtbf_factor", Some("0.5"))]),
            // The failure flags replace [failures] as a unit.
            (
                "in2p3",
                &["--failure-profile", "stress"],
                &[("failures", "profile", Some("\"stress\"")), ("failures", "mtbf_factor", None)],
            ),
            (
                "in2p3",
                &["--mtbf", "0.3", "--failure-profile", "stress"],
                &[
                    ("failures", "profile", Some("\"stress\"")),
                    ("failures", "mtbf_factor", Some("0.3")),
                ],
            ),
            ("supercloud", &["--policy", "coshare"], &[("policy", "arm", Some("\"coshare\""))]),
            (
                "supercloud",
                &["--data-quality", "lossy"],
                &[("data_quality", "profile", Some("\"lossy\""))],
            ),
            ("supercloud", &["--classify"], &[("classifier", "enabled", Some("true"))]),
            (
                "supercloud",
                &["--classifier-json", "c.json"],
                &[("classifier", "enabled", Some("true"))],
            ),
            ("philly", &["--reliability"], &[("reliability", "enabled", Some("true"))]),
            (
                "philly",
                &["--growth", "2,8"],
                &[
                    ("reliability", "enabled", Some("true")),
                    ("reliability", "growth_factors", Some("[2.0, 8.0]")),
                ],
            ),
        ];
        for &(preset, flags, edits) in rows {
            let want = preset_with(preset, edits);
            let mut argv = vec!["--scenario", preset];
            argv.extend_from_slice(flags);
            assert_eq!(scenario_of(&argv), want, "{argv:?}");
            argv.rotate_left(2);
            assert_eq!(scenario_of(&argv), want, "{argv:?}");
            if preset == "supercloud" {
                assert_eq!(scenario_of(flags), want, "{flags:?} alone");
            }
        }
    }

    /// The `##` headings of a report, in order.
    fn headings(md: &str) -> Vec<&str> {
        md.lines().filter_map(|l| l.strip_prefix("## ")).collect()
    }

    /// With every study and with none: the sections come in the fixed
    /// order, the optional ones only when their study ran, and the
    /// reliability and cross-system notes stand in for a missing render.
    #[test]
    fn report_sections_keep_their_order() {
        let all = Sections {
            tables: "## Table I / dataset funnel\n",
            run_block: "\nThis run\n",
            streaming: Some("streaming\n"),
            beyond: "beyond\n",
            opportunity: "opportunity\n",
            policy: Some("policy\n"),
            oracle_gap: Some((0.5, -1.0)),
            classifier: Some("classifier\n"),
            data_quality: Some("data quality\n"),
            reliability: Some("reliability\n"),
            cross_system: Some("cross-system\n"),
            footer: "footer",
        };
        let none = Sections {
            streaming: None,
            policy: None,
            oracle_gap: None,
            classifier: None,
            data_quality: None,
            reliability: None,
            cross_system: None,
            ..all
        };
        let before = [
            "Table I / dataset funnel",
            "Known residual gaps",
            "Failure taxonomy and goodput accounting",
            "ClusterTimeline and deterministic tracing",
            "Streaming telemetry engine",
            "Query service methodology",
            "Beyond the figures",
            "Opportunity studies (Secs. III, VI, VIII)",
        ];
        let optional =
            ["Closed-loop policy A/B", "Workload classification", "Data quality & ingest repair"];
        let after = ["Reliability at scale", "Cross-system comparison methodology"];

        let full = markdown(&all);
        assert_eq!(headings(&full), [&before[..], &optional, &after].concat());
        assert!(full.contains("goodput +0.500 pp, mean queue wait -1.0 s"), "{full}");
        assert!(!full.contains(prose::RELIABILITY_NOT_RUN));
        assert!(!full.contains(prose::CROSS_SYSTEM_NOT_RUN));
        assert!(full.ends_with("\n---\nfooter\n"));

        let bare = markdown(&none);
        assert_eq!(headings(&bare), [&before[..], &after].concat());
        assert!(bare.contains(prose::RELIABILITY_NOT_RUN));
        assert!(bare.contains(prose::CROSS_SYSTEM_NOT_RUN));
        for absent in [prose::POLICY_AB, prose::CLASSIFIER_HEATMAP, prose::DATA_QUALITY] {
            assert!(!bare.contains(absent));
        }
    }

    /// A reliability report in which every gated scalar and detail row
    /// is unmeasured: no class with both optima, an infinite frontier
    /// step, and a growth run with no usable timing.
    fn unmeasured_reliability_report() -> sc_core::ReliabilityReport {
        use sc_core::figures::reliability::{FrontierRow, SweepClassVerdict};
        sc_core::ReliabilityReport {
            size_fig: sc_core::ReliabilitySizeFig { rows: Vec::new() },
            frontier: sc_core::GoodputFrontierFig {
                class_labels: vec!["small".into(), "large".into()],
                class_gpus: vec![1, 16],
                rows: vec![FrontierRow {
                    mtbf_factor: 1.0,
                    goodput_by_class: vec![Some(0.0), Some(f64::INFINITY)],
                    overall: 0.5,
                }],
            },
            sweep: sc_core::CheckpointSweepFig {
                rows: Vec::new(),
                classes: vec![SweepClassVerdict {
                    label: "large".into(),
                    gpus: 16,
                    analytic_secs: f64::NAN,
                    simulated_secs: None,
                }],
            },
            growth: None,
            growth_timings: vec![sc_core::GrowthTiming {
                factor: 2.0,
                jobs: 10,
                event_loop_secs: f64::NAN,
                telemetry_secs: 0.0,
            }],
        }
    }

    #[test]
    fn unmeasured_reliability_values_encode_as_null() {
        let json = report_json(&ReliabilityGates::new(&unmeasured_reliability_report()));
        assert_eq!(
            json,
            "{\"sweep_worst_ratio\":null,\"frontier_monotone_violation\":null,\
             \"growth_min_jobs_per_sec\":null,\
             \"sweep_classes\":[{\"label\":\"large\",\"gpus\":16,\"analytic_secs\":null,\
             \"simulated_secs\":null,\"ratio\":null}],\
             \"growth\":[{\"factor\":2.0,\"jobs\":10,\"event_loop_secs\":null,\
             \"jobs_per_sec\":null}]}\n"
        );
    }
}
