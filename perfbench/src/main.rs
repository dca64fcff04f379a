//! One benchmark for the whole system. See `README.md` beside this
//! crate for the workloads, the metrics and what each should move.
//!
//! ```text
//! perfbench --workload supercloud|in2p3-congested|serve-whatif
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` they are the per-layer ones from a separate traced run.

mod pipeline;
mod serve;
mod spans;

use pipeline::{PassOut, Prepared, World};
use sc_obs::StageLog;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload supercloud|in2p3-congested|serve-whatif \
                     --seed N --seconds S --trace 0|1";

/// The workloads, each stressing a different layer.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// The paper's own run: stock Table I cluster, 74,820-job trace.
    Supercloud,
    /// The in2p3 preset with its GPU tier cut to 8 nodes of 4 GPUs.
    In2p3Congested,
    /// The query service under a closed loop of [`serve::CLIENTS`] clients.
    ServeWhatif,
}

impl Workload {
    const ALL: [Workload; 3] =
        [Workload::Supercloud, Workload::In2p3Congested, Workload::ServeWhatif];

    fn name(self) -> &'static str {
        match self {
            Workload::Supercloud => "supercloud",
            Workload::In2p3Congested => "in2p3-congested",
            Workload::ServeWhatif => "serve-whatif",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Scale the workload runs at.
    fn default_scale(self) -> f64 {
        match self {
            Workload::Supercloud | Workload::In2p3Congested => 1.0,
            Workload::ServeWhatif => serve::SCALE,
        }
    }

    fn scenario(self) -> &'static str {
        match self {
            Workload::In2p3Congested => include_str!("../in2p3-congested.toml"),
            Workload::Supercloud | Workload::ServeWhatif => {
                include_str!("../../scenarios/supercloud.toml")
            }
        }
    }

    /// Seeds of the generated job trace and of the failure schedule.
    /// `in2p3-congested` replays one fixed input: its queue sits near
    /// saturation, where the event loop's cost moves 6x between trace
    /// seeds and ±20% between failure seeds (see README.md), which
    /// would drown any scheduler change in input variance.
    /// `serve-whatif` serves a fixed world ([`serve::WORLD_SEED`]) and
    /// takes the run's seed for its request stream.
    fn input_seeds(self, seed: u64) -> (u64, u64) {
        match self {
            Workload::In2p3Congested => (IN2P3_SEED, IN2P3_SEED),
            Workload::ServeWhatif => (serve::WORLD_SEED, serve::WORLD_SEED),
            Workload::Supercloud => (seed, seed),
        }
    }
}

/// The seed ROADMAP item 2b measured the congested event loop on.
const IN2P3_SEED: u64 = 42;

/// Set-ups measured per run (scenario parse and trace generation, or
/// `Service::build`, 40-80 ms each); `setup_s` is their median. A set-up
/// is short, so the count is high enough that host jitter on a few of
/// them does not move the median.
const SETUP_REPEATS: usize = 41;
/// Fewest timed passes per pipeline run, so the median has company.
const MIN_PASSES: usize = 2;
/// Closed-loop seconds of the serve probe in a pipeline workload's
/// traced run.
const PROBE_LOOP_SECS: f64 = 2.0;

/// Digests of correct outputs per (workload, seed) at the default scale.
const REFERENCES: &str = include_str!("../references.txt");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Always the workload's default scale; the self-test shrinks it.
    scale: f64,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage_error(&format!("missing value for {flag}")));
        let bad = |what: &str| -> ! { usage_error(&format!("{flag} needs {what}, got {value:?}")) };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| bad("a workload name")))
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| bad("an integer"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| bad("a number"));
                if !(s.is_finite() && s > 0.0) {
                    bad("a positive number");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("0 or 1"),
                })
            }
            _ => usage_error(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_error("--workload is required"));
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage_error("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage_error("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage_error("--trace is required")),
        scale: workload.default_scale(),
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A finished run: the result line's fields plus facts about the host
/// and the inputs.
#[derive(Debug)]
struct RunResult {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    facts: Vec<(&'static str, String)>,
}

impl RunResult {
    fn new() -> RunResult {
        RunResult {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            facts: Vec::new(),
        }
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Counts one attempted operation, failed when `problems` is not empty.
    fn tally(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(result) => {
            for p in &result.problems {
                eprintln!("perfbench: {p}");
            }
            let facts: Vec<String> =
                result.facts.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
            println!("facts {{{}}}", facts.join(", "));
            println!("{}", result.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Thread budget: two threads, or one on a one-core host.
fn thread_budget() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// Runs one workload as `args` asks.
///
/// # Errors
///
/// Set-up that cannot proceed (a scenario that does not parse or does
/// not fit its cluster, no `/proc/self/status`): nothing was measured.
fn run(args: &Args) -> Result<RunResult, String> {
    let threads = thread_budget();
    sc_par::set_max_threads(threads);
    let mut r = RunResult::new();
    r.fact("workload", args.workload.name());
    r.fact("seed", args.seed);
    let (trace_seed, failure_seed) = args.workload.input_seeds(args.seed);
    r.fact("trace_seed", trace_seed);
    r.fact("failure_seed", failure_seed);
    r.fact("scale", args.scale);
    r.fact("threads", threads);
    r.fact("available_parallelism", std::thread::available_parallelism().map_or(0, |n| n.get()));
    r.fact("commit", git_commit());
    let world = World { scenario: args.workload.scenario(), scale: args.scale };
    match (args.workload, args.trace) {
        (Workload::ServeWhatif, false) => serve_e2e(args, &mut r)?,
        (_, false) => pipeline_e2e(args, &world, &mut r)?,
        (_, true) => traced(args, &world, threads, &mut r)?,
    }
    // JSON has no NaN: a non-finite metric is a defect, reported as 0.
    for m in r.metrics.iter_mut().filter(|m| !m.value.is_finite()) {
        r.problems.push(format!("metric {} is not finite", m.name));
        m.value = 0.0;
    }
    Ok(r)
}

/// Stages `AnalysisReport::try_from_sim_logged` records, reported as
/// `core.fig.<stage>_s`.
const FIG_STAGES: [&str; 19] = [
    "gpu_views",
    "user_stats",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "goodput",
    "timeline",
];

/// Percentile `p` (0-100) of `v`, NaN when `v` is empty: the run then
/// reports the metric as not finite.
fn percentile(v: &[f64], p: f64) -> f64 {
    sc_stats::percentile(v, p).unwrap_or(f64::NAN)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// HEAD of the git checkout the benchmark runs in, or `unknown` when
/// the working directory is not the top of a git checkout.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir().ok().and_then(|d| d.canonicalize().ok());
    let top = git(&["rev-parse", "--show-toplevel"])
        .and_then(|t| std::path::Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(here), Some(top)) if here == top => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

/// The stored reference digest for this run, if any. A `report` is
/// keyed by the trace seed it was generated from, a `serve` digest by
/// the run's seed, which drives the request stream.
fn reference(args: &Args, what: &str) -> Option<u64> {
    if args.scale != args.workload.default_scale() {
        return None;
    }
    let seed = if what == "report" { args.workload.input_seeds(args.seed).0 } else { args.seed };
    REFERENCES.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        let (w, s, k, d) = (f.next()?, f.next()?, f.next()?, f.next()?);
        (w == args.workload.name() && s == seed.to_string() && k == what)
            .then(|| u64::from_str_radix(d, 16).ok())
            .flatten()
    })
}

/// Checks a digest against the stored reference, or against `expected`
/// (an earlier digest of the same run) when no reference is stored.
fn digest_problem(args: &Args, what: &str, digest: u64, expected: Option<u64>) -> Option<String> {
    let want = reference(args, what).or(expected)?;
    (digest != want)
        .then(|| format!("{what} digest {digest:016x} differs from the expected {want:016x}"))
}

/// Runs one pass, turning a panic into a problem.
fn guarded_pass(
    p: &Prepared,
    log: Option<&StageLog>,
    stages: &StageLog,
) -> Result<PassOut, String> {
    catch_unwind(AssertUnwindSafe(|| pipeline::pass(p, log, stages)))
        .map_err(|_| "pipeline pass panicked".to_string())
}

fn pipeline_e2e(args: &Args, world: &World, r: &mut RunResult) -> Result<(), String> {
    let (trace_seed, failure_seed) = args.workload.input_seeds(args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the last set-up first, so at most one trace is alive.
        drop(prepared.take());
        let t0 = Instant::now();
        let p = pipeline::prepare(world, trace_seed, failure_seed, None)?;
        setups.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let jobs = p.trace.jobs().len();
    r.fact("jobs", jobs);
    let mut walls = Vec::new();
    let mut first_digest = None;
    let t0 = Instant::now();
    while walls.len() < MIN_PASSES || t0.elapsed().as_secs_f64() < args.seconds {
        match guarded_pass(&p, None, &StageLog::new()) {
            Ok(out) => {
                let mut problems = out.problems.clone();
                problems.extend(digest_problem(args, "report", out.digest, first_digest));
                if first_digest.is_none() {
                    first_digest = Some(out.digest);
                    r.fact("events", out.events);
                    r.fact("report_digest", format!("{:016x}", out.digest));
                }
                walls.push(out.wall_s);
                r.tally(problems);
            }
            Err(e) => r.tally(vec![e]),
        }
    }
    r.fact("passes", walls.len());
    let wall = percentile(&walls, 50.0);
    r.metric("setup_s", percentile(&setups, 50.0), "s");
    r.metric("throughput", jobs as f64 / wall, "1/s");
    r.metric("latency_p50_ms", wall * 1e3, "ms");
    r.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(())
}

fn serve_e2e(args: &Args, r: &mut RunResult) -> Result<(), String> {
    let threads = thread_budget();
    let mut builds = Vec::with_capacity(SETUP_REPEATS);
    let mut svc = None;
    for _ in 0..SETUP_REPEATS {
        drop(svc.take());
        let t0 = Instant::now();
        let s = serve::build(args.scale, threads);
        builds.push(t0.elapsed().as_secs_f64());
        svc = Some(s);
    }
    let svc = svc.expect("at least one build");
    r.fact("jobs", svc.sim_output().dataset.funnel().total_jobs);
    r.fact("events", svc.sim_output().stats.events);
    let out = serve::closed_loop(&svc, args.seed, args.seconds);
    tally_loop(args, &out, r);
    r.metric("setup_s", percentile(&builds, 50.0), "s");
    r.metric("throughput", out.requests as f64 / out.wall_s, "1/s");
    r.metric("latency_p50_ms", percentile(&out.latencies, 50.0) * 1e3, "ms");
    r.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(())
}

/// Tallies a closed loop's requests and checks its digest.
fn tally_loop(args: &Args, out: &serve::LoopOut, r: &mut RunResult) {
    r.attempted += out.requests;
    r.failed += out.failed;
    r.problems.extend(out.problems.iter().cloned());
    r.problems.extend(digest_problem(args, "serve", out.digest, None));
    r.fact("serve_digest", format!("{:016x}", out.digest));
    r.fact("requests", out.requests);
}

/// The serve layer's per-layer metrics from a closed loop.
fn loop_metrics(svc: &sc_serve::Service, out: &serve::LoopOut, r: &mut RunResult) {
    let m = svc.metrics();
    let (hits, misses, coalesced) = (m.hits.get(), m.misses.get(), m.coalesced.get());
    r.metric("serve.hits", hits as f64, "count");
    r.metric("serve.misses", misses as f64, "count");
    r.metric("serve.coalesced", coalesced as f64, "count");
    r.metric("serve.evictions", m.evictions.get() as f64, "count");
    r.metric("serve.hit_rate", hits as f64 / (hits + misses + coalesced).max(1) as f64, "ratio");
    r.metric("serve.query_p99_ms", percentile(&out.latencies, 99.0) * 1e3, "ms");
    r.metric("serve.compute_share", out.compute_share, "ratio");
}

/// The traced run: untraced passes at the thread budget and at one
/// thread, then one pass with a span around every layer call plus the
/// serve layer's build and cold surface, then a closed loop.
fn traced(args: &Args, world: &World, threads: usize, r: &mut RunResult) -> Result<(), String> {
    let (trace_seed, failure_seed) = args.workload.input_seeds(args.seed);
    let p = pipeline::prepare(world, trace_seed, failure_seed, None)?;
    let jobs = p.trace.jobs().len();
    r.fact("jobs", jobs);

    let mut untraced = Vec::new();
    for budget in [threads, 1] {
        sc_par::set_max_threads(budget);
        match guarded_pass(&p, None, &StageLog::new()) {
            Ok(out) => {
                r.tally(out.problems.clone());
                untraced.push(out);
            }
            Err(e) => r.tally(vec![e]),
        }
    }
    sc_par::set_max_threads(threads);
    drop(p);

    let log = StageLog::new();
    let stages = StageLog::new();
    let root_start = log.elapsed_secs();
    let p = pipeline::prepare(world, trace_seed, failure_seed, Some(&log))?;
    let out = match guarded_pass(&p, Some(&log), &stages) {
        Ok(out) => out,
        Err(e) => {
            r.tally(vec![e]);
            return Ok(());
        }
    };
    let serve_scale =
        if args.workload == Workload::ServeWhatif { args.scale } else { serve::SCALE };
    let svc = log.time("serve.build", || serve::build(serve_scale, threads));
    let (cold_means, cold_bodies) = serve::cold_surface(&svc, Some(&log));
    log.push("traced", root_start, log.elapsed_secs() - root_start);

    // Digests must agree across thread budgets and tracing, and with
    // the stored reference when there is one.
    let mut problems = out.problems.clone();
    problems.extend(digest_problem(args, "report", out.digest, None));
    for u in &untraced {
        if u.digest != out.digest {
            problems.push(format!(
                "report digest {:016x} at one budget differs from {:016x} at another",
                u.digest, out.digest
            ));
        }
    }
    r.tally(problems);
    r.fact("events", out.events);
    r.fact("report_digest", format!("{:016x}", out.digest));

    let loop_secs =
        if args.workload == Workload::ServeWhatif { args.seconds } else { PROBE_LOOP_SECS };
    let looped = serve::closed_loop(&svc, args.seed, loop_secs);
    for (i, cold) in cold_bodies.iter().enumerate() {
        r.attempted += 1;
        let warm = looped.bodies[i].as_deref();
        if cold.starts_with("ERROR") || warm.is_some_and(|w| w != cold.as_str()) {
            r.failed += 1;
            r.problems.push(format!("cold and cached answers differ for {}", serve::surface()[i]));
        }
    }
    let serve_args = Args { workload: Workload::ServeWhatif, scale: serve_scale, ..*args };
    tally_loop(&serve_args, &looped, r);
    loop_metrics(&svc, &looped, r);

    let self_times = spans::self_times(&log.spans())?;
    // The root's self time is what no layer span covers: a layer call
    // left outside every span would show up here.
    let root = self_times.iter().find(|s| s.name == "traced").expect("root span recorded");
    r.fact("uncovered_share", format!("{:.5}", root.self_s / root.dur_s));
    if root.self_s > UNCOVERED_MAX * root.dur_s {
        r.problems.push(format!(
            "{:.3} s of the {:.3} s traced run lies outside every layer span",
            root.self_s, root.dur_s
        ));
    }
    let largest = self_times
        .iter()
        .filter(|s| s.name != "traced")
        .max_by(|a, b| a.self_s.total_cmp(&b.self_s));
    r.fact("largest_self_time", largest.map_or("none", |s| s.name.as_str()));
    let self_of =
        |name: &str| self_times.iter().filter(|s| s.name == name).map(|s| s.self_s).sum::<f64>();
    for name in [
        "scenario.parse",
        "workload.trace_gen",
        "cluster.run_timed",
        "cluster.event_loop",
        "telemetry.synth",
        "core.analysis",
        "core.streaming_check",
        "opportunity.report",
        "core.render",
        "serve.build",
    ] {
        r.metric(format!("{name}_s"), self_of(name), "s");
    }
    for (class, mean) in serve::CLASSES.iter().zip(&cold_means) {
        r.metric(format!("serve.cold.{class}_ms"), mean * 1e3, "ms");
    }
    let stage_spans = stages.spans();
    for stage in FIG_STAGES {
        let busy: f64 = stage_spans.iter().filter(|s| s.name == stage).map(|s| s.dur_secs).sum();
        r.metric(format!("core.fig.{stage}_s"), busy, "s");
    }
    r.metric("cluster.events", out.events as f64, "count");
    r.metric("cluster.events_per_s", out.events as f64 / out.timings.event_loop_secs, "1/s");
    r.metric("cluster.peak_queue_depth", out.peak_queue_depth as f64, "count");
    r.metric("cluster.requeues", out.requeues as f64, "count");
    r.metric("cluster.injected_failures", out.injected_failures as f64, "count");
    r.metric("cluster.absorbed_faults", out.absorbed_faults as f64, "count");
    r.metric("telemetry.jobs_per_s", jobs as f64 / out.timings.telemetry_secs, "1/s");
    if let [at_budget, at_one] = &untraced[..] {
        let t1 = at_one.timings.telemetry_secs;
        let tn = at_budget.timings.telemetry_secs;
        r.metric("telemetry.par_eff", t1 / (threads as f64 * tn), "ratio");
    }
    r.metric("trace.overhead_s", log.spans().len() as f64 * span_cost_s(), "s");

    write_trace(args, &log, &stages)?;
    Ok(())
}

/// Share of the traced run that may lie outside every layer span:
/// `Simulation::new`, the ledger check, digesting and dropping outputs.
const UNCOVERED_MAX: f64 = 0.02;

/// Spans recorded to price one.
const SPAN_PROBES: u32 = 10_000;

/// Cost of recording one span, seconds. Tracing adds only the spans
/// around layer calls (the figure pipeline's stage spans are recorded
/// untraced too), so their count times this is its overhead; a traced
/// pass minus an untraced one would be run-to-run noise instead.
fn span_cost_s() -> f64 {
    let probe = StageLog::new();
    let t0 = Instant::now();
    for _ in 0..SPAN_PROBES {
        probe.time("probe", || ());
    }
    t0.elapsed().as_secs_f64() / f64::from(SPAN_PROBES)
}

/// Writes the traced run's spans as a Chrome trace beside the
/// benchmark's executable, inside the build directory. The two logs
/// start together, so their clocks agree.
fn write_trace(args: &Args, log: &StageLog, stages: &StageLog) -> Result<(), String> {
    let mut all = log.spans();
    all.extend(stages.spans().into_iter().map(|mut s| {
        s.name = format!("core.fig.{}", s.name);
        s
    }));
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?.join("perfbench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.chrome.json", args.workload.name(), args.seed));
    std::fs::write(&path, sc_obs::chrome_trace_json(&all))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json`'s metric entries of one section, as `(name, unit)`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').expect("name closes")].to_string();
                let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
                (name, unit[..unit.find('"').expect("unit closes")].to_string())
            })
            .collect()
    }

    /// Every workload at a tiny scale, untraced and traced: each run is
    /// correct and emits exactly the declared metrics, finite and with
    /// their declared units. One test, because the thread budget is
    /// process-wide.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        for workload in Workload::ALL {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args { workload, seed: 5, seconds: 0.3, trace, scale: 0.02 };
                let r = run(&args).expect("tiny run sets up");
                let label = format!("{} trace={trace}", workload.name());
                assert!(r.correct(), "{label}: {:?}", r.problems);
                assert!(r.attempted >= 1, "{label}");
                let mut want = declared(section);
                let mut got: Vec<(String, String)> =
                    r.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
                want.sort();
                got.sort();
                assert_eq!(got, want, "{label}");
                for m in &r.metrics {
                    assert!(
                        m.value.is_finite() && m.value >= 0.0,
                        "{label}: {} = {}",
                        m.name,
                        m.value
                    );
                }
                assert!(r.json().starts_with("{\"correct\": true"), "{label}");
            }
        }
    }

    #[test]
    fn reference_digests_parse() {
        for line in REFERENCES.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 4, "{line}");
            assert!(Workload::parse(f[0]).is_some(), "{line}");
            assert!(f[1].parse::<u64>().is_ok() && u64::from_str_radix(f[3], 16).is_ok(), "{line}");
            assert!(["report", "serve"].contains(&f[2]), "{line}");
        }
    }
}
