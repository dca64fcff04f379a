//! The pipeline workloads: one scenario's trace through the event loop,
//! telemetry synthesis, the figure pipeline, the streaming cross-check,
//! the opportunity studies and rendering — the calls `repro_figures`
//! makes, wrapped from outside so each layer can be timed.

use crate::spans::timed;
use sc_cluster::sim::SimTimings;
use sc_cluster::{SimConfig, SimOutput, Simulation};
use sc_core::{AnalysisReport, StreamingTelemetryFig};
use sc_obs::StageLog;
use sc_opportunity::OpportunityReport;
use sc_scenario::Scenario;
use sc_serve::Digest;
use sc_workload::{Trace, WorkloadSpec};
use std::time::Instant;

/// A scenario document and the scale it runs at.
#[derive(Debug, Clone, Copy)]
pub struct World {
    /// TOML text handed to `Scenario::parse`.
    pub scenario: &'static str,
    /// Workload scale factor (1.0 = the scenario's full trace).
    pub scale: f64,
}

/// A parsed scenario with its generated trace: the set-up a pass reuses.
pub struct Prepared {
    pub trace: Trace,
    pub spec: WorkloadSpec,
    pub sim_config: SimConfig,
}

/// Fewest users a world is generated with: user-level figures (10-12,
/// 17) degenerate below a few dozen users at small scales. The same
/// floor as the query service's; no-op at full scale.
const USERS_FLOOR: usize = 64;

/// Parses the scenario and generates its trace from `trace_seed`, with
/// spans `scenario.parse` and `workload.trace_gen` when `log` is given.
/// `seed` drives the failure schedule.
///
/// # Errors
///
/// A scenario that does not parse, or whose widest GPU request does not
/// fit the cluster: such a job could never start, and shrinking or
/// re-seeding the workload to hide that would change what is measured.
pub fn prepare(
    world: &World,
    trace_seed: u64,
    seed: u64,
    log: Option<&StageLog>,
) -> Result<Prepared, String> {
    let sc = timed(log, "scenario.parse", || Scenario::parse(world.scenario))
        .map_err(|e| format!("scenario does not parse: {e}"))?;
    let mut spec = sc.scaled_spec(world.scale);
    spec.users = spec.users.max(USERS_FLOOR);
    let sim_config = sc.sim_config(world.scale, seed);
    let cluster_gpus = sim_config.cluster.nodes * sim_config.cluster.node.gpus;
    let widest = spec.gpu_count_mix.iter().filter(|(_, w)| *w > 0.0).map(|(g, _)| *g).max();
    if let Some(widest) = widest {
        if widest > cluster_gpus {
            return Err(format!(
                "scenario {}: widest GPU request {widest} exceeds the cluster's {cluster_gpus} GPUs",
                sc.name
            ));
        }
    }
    let trace = timed(log, "workload.trace_gen", || Trace::generate(&spec, trace_seed));
    Ok(Prepared { trace, spec, sim_config })
}

/// What one pass measured and produced.
pub struct PassOut {
    /// Wall-clock seconds from `run_timed` through rendering.
    pub wall_s: f64,
    pub timings: SimTimings,
    pub events: u64,
    pub requeues: u64,
    pub injected_failures: u64,
    pub absorbed_faults: u64,
    pub peak_queue_depth: u64,
    /// FNV-1a 64 over the rendered report, `SimStats` and the goodput
    /// ledger.
    pub digest: u64,
    /// Correctness violations (empty on a healthy pass).
    pub problems: Vec<String>,
}

/// One pass over a prepared trace. With `log`, every layer call is
/// wrapped in a span and the figure pipeline records its per-stage
/// spans into `stages`.
pub fn pass(p: &Prepared, log: Option<&StageLog>, stages: &StageLog) -> PassOut {
    let t0 = Instant::now();
    let sim = Simulation::new(p.sim_config.clone());
    let sim_start = log.map_or(0.0, StageLog::elapsed_secs);
    let (out, timings) = sim.run_timed(&p.trace);
    if let Some(log) = log {
        // The layer's own timings become child spans of the call.
        log.push("cluster.run_timed", sim_start, log.elapsed_secs() - sim_start);
        log.push("cluster.event_loop", sim_start, timings.event_loop_secs);
        log.push("telemetry.synth", sim_start + timings.event_loop_secs, timings.telemetry_secs);
    }
    let mut problems = Vec::new();
    let report = timed(log, "core.analysis", || AnalysisReport::try_from_sim_logged(&out, stages));
    let streaming = timed(log, "core.streaming_check", || StreamingTelemetryFig::try_compute(&out));
    match &streaming {
        Ok(fig) if !fig.passes() => {
            problems.push("streaming telemetry aggregates diverge from the batch dataset".into())
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("streaming cross-check failed: {e}")),
    }
    let ledger = &out.goodput;
    if ledger.balance_error() > 1e-9 * ledger.allocated_gpu_secs.max(1.0) {
        problems.push(format!("goodput ledger off by {} GPU-s", ledger.balance_error()));
    }
    let opportunity = timed(log, "opportunity.report", || {
        OpportunityReport::run(&sc_core::gpu_views(&out.dataset), 400)
    });
    let text = timed(log, "core.render", || match &report {
        Ok(report) => render(report, &out, streaming.as_ref().ok(), &opportunity, &p.spec),
        Err(e) => format!("ERROR analysis: {e}\n"),
    });
    if let Err(e) = &report {
        problems.push(format!("analysis failed: {e}"));
    }
    let mut digest = Digest::new();
    digest.update(text.as_bytes());
    digest.update(format!("{:?}", out.stats).as_bytes());
    digest.update(format!("{:?}", out.goodput).as_bytes());
    PassOut {
        wall_s: t0.elapsed().as_secs_f64(),
        timings,
        events: out.stats.events,
        requeues: out.stats.requeues,
        injected_failures: out.stats.injected_failures,
        absorbed_faults: out.stats.absorbed_faults,
        peak_queue_depth: peak_queue_depth(&out),
        digest: digest.finish(),
        problems,
    }
}

fn peak_queue_depth(out: &SimOutput) -> u64 {
    out.timeline.queue_depth().max().map_or(0, |d| d as u64)
}

/// The text `repro_figures` prints by default, in its order.
fn render(
    report: &AnalysisReport,
    out: &SimOutput,
    streaming: Option<&StreamingTelemetryFig>,
    opportunity: &OpportunityReport,
    spec: &WorkloadSpec,
) -> String {
    let mut s = report.render_text();
    s.push_str(&format!("\ndetailed-series jobs collected: {}\n", out.detailed.len()));
    s.push_str(&format!("simulation stats: {:?}\n", out.stats));
    if let Some(fig) = streaming {
        s.push_str(&fig.render());
    }
    for (title, rows) in report.all_comparisons() {
        s.push_str(title);
        s.push('\n');
        for r in rows {
            s.push_str(&format!(
                "  {:<42} paper {:>9.3} {:<4} measured {:>9.3}\n",
                r.metric, r.paper, r.unit, r.measured
            ));
        }
    }
    let views = sc_core::gpu_views(&out.dataset);
    s.push_str(&sc_core::WorkflowChain::fit(&views).render());
    s.push_str(
        &sc_core::arrivals::ArrivalAnalysis::compute(&out.dataset).render(&spec.deadline_days),
    );
    s.push_str(
        &sc_core::facility::reconstruct(
            &views,
            sc_telemetry::gpu_power::SUPERCLOUD_GPUS,
            sc_telemetry::gpu_power::V100_TDP_W,
            sc_telemetry::gpu_power::V100_IDLE_W,
        )
        .render(),
    );
    s.push_str(&opportunity.render());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cluster_narrower_than_the_widest_request_is_refused() {
        let text = include_str!("../in2p3-congested.toml").replace("nodes = 8", "nodes = 2");
        let world = World { scenario: Box::leak(text.into_boxed_str()), scale: 0.02 };
        let err = prepare(&world, 1, 1, None).err().expect("the guard refuses the scenario");
        assert!(err.contains("widest GPU request 32 exceeds the cluster's 8 GPUs"), "{err}");
    }
}
