//! Per-job specification and synthesis.
//!
//! A [`JobSpec`] is everything the cluster simulator and telemetry need
//! to know about one job *before it runs*: resources requested, arrival
//! time, the planned outcome (complete / user-cancel / crash / run to
//! timeout — the observable side of the lifecycle classes of Sec. VI),
//! and the seed + parameters of its telemetry ground truth.

use crate::spec::{ClassSpec, LifecycleClass, WorkloadArchetype, WorkloadSpec};
use crate::truth::{JobGroundTruth, ResourceLevels, TruthParams};
use crate::user::UserProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_stats::dist::{Beta, Categorical, LogNormal, Sample};
use sc_stats::hash::{hash_unit, splitmix64};
use sc_telemetry::metrics::GpuResource;
use sc_telemetry::record::{JobId, SubmissionInterface, UserId};
use serde::{Deserialize, Serialize};

/// How a job is destined to end, decided by the generator's ground
/// truth. The scheduler turns this into an [`sc_telemetry::ExitStatus`],
/// from which the analysis pipeline recovers the lifecycle class — the
/// same indirect inference the paper performs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlannedOutcome {
    /// Runs for `work_secs` then exits 0 (mature work).
    Complete {
        /// Productive run time, seconds.
        work_secs: f64,
    },
    /// The user kills it after `after_secs` (hyper-parameter trial
    /// deemed sub-optimal).
    Cancel {
        /// Time until the user cancels, seconds.
        after_secs: f64,
    },
    /// Crashes after `after_secs` (code under development).
    Fail {
        /// Time until the crash, seconds.
        after_secs: f64,
    },
    /// Never finishes on its own; the wall-clock limit reaps it
    /// (IDE sessions).
    RunUntilTimeout,
}

impl PlannedOutcome {
    /// The job's natural run time given its wall-clock limit.
    pub fn run_time(&self, time_limit: f64) -> f64 {
        match *self {
            PlannedOutcome::Complete { work_secs } => work_secs.min(time_limit),
            PlannedOutcome::Cancel { after_secs } => after_secs.min(time_limit),
            PlannedOutcome::Fail { after_secs } => after_secs.min(time_limit),
            PlannedOutcome::RunUntilTimeout => time_limit,
        }
    }
}

/// The complete pre-run description of one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Trace-unique id, assigned in arrival order.
    pub job_id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Submission time, seconds from trace start.
    pub arrival: f64,
    /// Submission interface.
    pub interface: SubmissionInterface,
    /// GPUs requested; 0 for CPU-only jobs.
    pub gpus: u32,
    /// CPU cores requested.
    pub cpus: u32,
    /// Host memory requested, GiB.
    pub mem_gib: f64,
    /// Wall-clock limit, seconds.
    pub time_limit: f64,
    /// Ground-truth lifecycle class (`None` for CPU jobs). The analysis
    /// never reads this directly — it re-derives the class from the exit
    /// status, and tests check the two agree.
    pub class: Option<LifecycleClass>,
    /// Planned termination behaviour.
    pub outcome: PlannedOutcome,
    /// Hidden workload archetype shaping the telemetry ground truth
    /// (`None` for CPU jobs). Like [`JobSpec::class`], analysis code
    /// never reads this directly — `sc-learn` recovers it from the
    /// sampled series and scores itself against this label.
    pub archetype: Option<WorkloadArchetype>,
    /// Telemetry ground-truth parameters (`None` for CPU jobs).
    pub truth_params: Option<TruthParams>,
    /// Number of the job's GPUs that sit idle throughout.
    pub idle_gpus: u32,
    /// Seed for lazily regenerating the job's [`JobGroundTruth`].
    pub truth_seed: u64,
    /// Whether the job writes periodic checkpoints when the cluster
    /// runs a checkpoint policy — training-style (mature/exploratory)
    /// work does, debug runs and IDE sessions do not.
    pub checkpointable: bool,
    /// Automatic requeues allowed after an infrastructure failure
    /// (Slurm `--requeue` semantics); 0 for interactive sessions, whose
    /// restart is worthless without the human attached.
    pub max_restarts: u32,
}

impl JobSpec {
    /// Whether this job requests GPUs.
    pub fn is_gpu_job(&self) -> bool {
        self.gpus > 0
    }

    /// Materializes the telemetry ground truth (deterministic in
    /// `truth_seed`). Returns `None` for CPU jobs.
    pub fn ground_truth(&self) -> Option<JobGroundTruth> {
        let params = self.truth_params.as_ref()?;
        let mut rng = StdRng::seed_from_u64(self.truth_seed);
        Some(JobGroundTruth::generate(&mut rng, params, self.gpus, self.idle_gpus, 0.05))
    }
}

/// Synthesizes jobs from the calibrated spec, one at a time.
#[derive(Debug)]
pub struct JobFactory<'a> {
    spec: &'a WorkloadSpec,
    gpu_counts: sc_stats::dist::EmpiricalDiscrete,
    interfaces: Categorical,
    multi_gpu_boost: LogNormal,
}

impl<'a> JobFactory<'a> {
    /// Builds a factory over a workload spec.
    pub fn new(spec: &'a WorkloadSpec) -> Self {
        let gpu_counts =
            sc_stats::dist::EmpiricalDiscrete::new(&spec.gpu_count_mix).expect("valid mix");
        let interfaces = Categorical::new(&spec.interface_weights).expect("valid weights");
        let multi_gpu_boost =
            LogNormal::new(0.0, spec.multi_gpu_runtime_sigma_boost).expect("valid lognormal");
        JobFactory { spec, gpu_counts, interfaces, multi_gpu_boost }
    }

    /// Synthesizes one GPU job for `user` arriving at `arrival`.
    pub fn gpu_job<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        job_id: JobId,
        user: &UserProfile,
        arrival: f64,
    ) -> JobSpec {
        let class = self.draw_class(rng, user);
        let cs = self.spec.class(class);
        let interface = self.draw_interface(rng, class);
        // Draw a job size, clamped to what this user ever scales to.
        let gpus = self.gpu_counts.sample_value(rng).max(1).min(user.gpu_ceiling.max(1));

        let (time_limit, outcome, run_secs) = self.draw_outcome(rng, class, cs, user, gpus);
        let mut truth_params = self.draw_truth_params(rng, class, cs, user, interface, run_secs);
        let idle_gpus = if gpus > 1 && rng.gen::<f64>() < self.spec.multi_gpu_idle_probability {
            let min_idle = gpus.div_ceil(2);
            rng.gen_range(min_idle..gpus)
        } else {
            0
        };

        let truth_seed = splitmix64(job_id.0 ^ 0x9e37_79b9_7f4a_7c15);
        // The archetype and its signature hash off the seed rather than
        // drawing from `rng`, like the recovery attributes below: adding
        // them must not shift the RNG stream any existing trace field is
        // derived from.
        let archetype = assign_archetype(class, truth_seed);
        apply_archetype_signature(&mut truth_params, archetype, truth_seed);
        JobSpec {
            job_id,
            user: user.id,
            arrival,
            interface,
            gpus,
            cpus: rng.gen_range(4..=16),
            mem_gib: rng.gen_range(16.0..128.0),
            time_limit,
            class: Some(class),
            outcome,
            archetype: Some(archetype),
            truth_params: Some(truth_params),
            idle_gpus,
            truth_seed,
            // Recovery attributes hash off the seed rather than drawing
            // from `rng`: adding them must not shift the RNG stream any
            // existing trace field is derived from.
            checkpointable: checkpointable(class, truth_seed),
            max_restarts: default_max_restarts(interface),
        }
    }

    /// Synthesizes one CPU job: short, but requesting most of a node
    /// ("CPU jobs usually request all cores and full memory of the
    /// nodes", Sec. III).
    pub fn cpu_job<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        job_id: JobId,
        user: &UserProfile,
        arrival: f64,
    ) -> JobSpec {
        let runtime = LogNormal::new(
            (self.spec.cpu_runtime_median_min * 60.0).ln(),
            self.spec.cpu_runtime_sigma,
        )
        .expect("valid lognormal")
        .sample(rng)
        .clamp(5.0, 86_400.0);
        JobSpec {
            job_id,
            user: user.id,
            arrival,
            interface: if rng.gen::<f64>() < 0.5 {
                SubmissionInterface::Batch
            } else {
                SubmissionInterface::MapReduce
            },
            gpus: 0,
            cpus: 80,
            mem_gib: rng.gen_range(368.0..380.0),
            time_limit: 86_400.0,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: runtime },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: splitmix64(job_id.0),
            checkpointable: false,
            max_restarts: DEFAULT_MAX_RESTARTS,
        }
    }

    fn draw_class<R: Rng + ?Sized>(&self, rng: &mut R, user: &UserProfile) -> LifecycleClass {
        let mix = Categorical::new(&user.class_mix).expect("valid mix");
        LifecycleClass::ALL[mix.sample_index(rng)]
    }

    fn draw_interface<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: LifecycleClass,
    ) -> SubmissionInterface {
        if class == LifecycleClass::Ide {
            return SubmissionInterface::Interactive;
        }
        if rng.gen::<f64>() < self.spec.interactive_non_ide_fraction {
            return SubmissionInterface::Interactive;
        }
        match self.interfaces.sample_index(rng) {
            0 => SubmissionInterface::MapReduce,
            1 => SubmissionInterface::Batch,
            _ => SubmissionInterface::Other,
        }
    }

    fn draw_outcome<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: LifecycleClass,
        cs: &ClassSpec,
        user: &UserProfile,
        gpus: u32,
    ) -> (f64, PlannedOutcome, f64) {
        if class == LifecycleClass::Ide {
            // "The timeout limit is 12 hours or 24 hours, depending on
            // the requested amount."
            let hours = self.spec.ide_timeout_hours[rng.gen_range(0..2usize)];
            let limit = hours * 3600.0;
            return (limit, PlannedOutcome::RunUntilTimeout, limit);
        }
        let median_secs = cs.runtime_median_min * 60.0 * user.runtime_scale;
        let dist = LogNormal::new(median_secs.ln(), cs.runtime_sigma).expect("valid lognormal");
        let mut runtime = dist.sample(rng);
        if gpus > 1 {
            runtime *= self.multi_gpu_boost.sample(rng);
        }
        // Short-job injection: a slice of GPU jobs finish in under 30 s
        // and are dropped by the dataset filter.
        if rng.gen::<f64>() < self.spec.short_gpu_job_fraction {
            runtime = rng.gen_range(2.0..28.0);
        }
        let limit = 86_400.0;
        let runtime = runtime.clamp(2.0, 0.95 * limit);
        let outcome = match class {
            LifecycleClass::Mature => PlannedOutcome::Complete { work_secs: runtime },
            LifecycleClass::Exploratory => PlannedOutcome::Cancel { after_secs: runtime },
            LifecycleClass::Development => PlannedOutcome::Fail { after_secs: runtime },
            LifecycleClass::Ide => unreachable!("handled above"),
        };
        (limit, outcome, runtime)
    }

    fn draw_truth_params<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: LifecycleClass,
        cs: &ClassSpec,
        user: &UserProfile,
        interface: SubmissionInterface,
        run_secs: f64,
    ) -> TruthParams {
        // Skill lifts average utilization (Fig. 12). Centred at 0.4 —
        // the job-weighted median skill — so the busy population's
        // multiplier is ≈ 1 and class medians stay on target.
        let skill_mult = 1.0 + self.spec.skill_utilization_gain * (user.skill - 0.4) * 2.0;
        // Interface modifiers (Fig. 5): map-reduce spends its time in
        // data movement; interactive sessions mostly think.
        let iface_mult = match interface {
            SubmissionInterface::MapReduce => 0.35,
            SubmissionInterface::Interactive => 0.5,
            SubmissionInterface::Batch => 0.85,
            SubmissionInterface::Other => 1.1,
        };
        // Job-mean levels are lognormal around the class median (scaled
        // by skill and interface), so the *median* across jobs lands on
        // the paper's reported medians while the heavy upper tail
        // supplies the ">50% utilization" mass of Fig. 4a. Expert users
        // are *not* more predictable (Fig. 12: the CoV correlations stay
        // low even though averages rise): their level spread widens with
        // skill, offsetting their narrower class mix.
        let sigma_scale = 0.45 + 1.6 * user.skill;
        let draw_level = |rng: &mut R, median: f64, sigma: f64| -> f64 {
            let m = (median * skill_mult * iface_mult).clamp(0.05, 90.0);
            LogNormal::new(m.ln(), sigma * sigma_scale)
                .expect("valid lognormal")
                .sample(rng)
                .clamp(0.0, 95.0)
        };
        let sm = draw_level(rng, cs.sm_median, 1.0);
        let mem = draw_level(rng, cs.mem_median, 1.35);
        let mem_size = draw_level(rng, cs.mem_size_median, 1.5);
        // PCIe means are near-uniform across jobs (Fig. 4b), but dormant
        // jobs barely move data.
        let busy = matches!(class, LifecycleClass::Mature | LifecycleClass::Exploratory);
        let (pcie_tx, pcie_rx) = if busy {
            (rng.gen_range(0.0..45.0), rng.gen_range(0.0..55.0))
        } else {
            (rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0))
        };
        // A slice of otherwise-busy jobs is input-pipeline-bound and
        // barely touches the GPU; together with development/IDE jobs
        // this supplies Fig. 6a's low-active mass (p25 ≈ 14%).
        let io_bound = busy && rng.gen::<f64>() < 0.10;
        let af_mean = if io_bound { 0.12 } else { cs.active_fraction_mean };
        let active_fraction =
            Beta::from_mean_concentration(af_mean.clamp(0.01, 0.99), cs.active_fraction_kappa)
                .expect("valid beta")
                .sample(rng);

        TruthParams {
            duration: 86_400.0f64.min(run_secs.max(30.0) * 1.05 + 60.0),
            active_fraction,
            mean_active_secs: (run_secs / 12.0).clamp(45.0, 900.0),
            sigma_active: 1.75,
            sigma_idle: 1.45,
            mean_levels: ResourceLevels { sm, mem, mem_size, pcie_tx, pcie_rx },
            phase_level_sigma: 0.15,
            wave_frac: rng.gen_range(0.05..0.35),
            wave_period: 45.0,
            spike_resources: self.draw_spikes(rng, busy, active_fraction),
            spike_len: 2.0,
        }
    }

    /// Draws the set of resources this job saturates at least once,
    /// with the correlation structure of Fig. 8: overall P(SM)≈22%,
    /// P(Rx)≈15%, P(Tx)≈10%, P(MemSize)≈10%, P(Mem)≈0%; jointly
    /// P(Rx∧SM)≈9%, P(Rx∧Tx)≈3%, every pair below 10%.
    fn draw_spikes<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        busy: bool,
        active_fraction: f64,
    ) -> Vec<GpuResource> {
        // Only jobs that actually exercise the GPU can hit a ceiling.
        if !busy || active_fraction < 0.15 {
            return Vec::new();
        }
        // Busy-and-active jobs are ~72% of the population; conditional
        // probabilities are scaled so the marginals land on the global
        // targets.
        let mut out = Vec::new();
        let sm = rng.gen::<f64>() < 0.30;
        if sm {
            out.push(GpuResource::Sm);
        }
        let p_rx = if sm { 0.41 } else { 0.11 };
        let rx = rng.gen::<f64>() < p_rx;
        if rx {
            out.push(GpuResource::PcieRx);
        }
        let p_tx = if rx { 0.22 } else { 0.11 };
        if rng.gen::<f64>() < p_tx {
            out.push(GpuResource::PcieTx);
        }
        if rng.gen::<f64>() < 0.14 {
            out.push(GpuResource::MemorySize);
        }
        if rng.gen::<f64>() < 0.005 {
            out.push(GpuResource::Memory);
        }
        out
    }
}

/// Default automatic-requeue cap for non-interactive jobs (Slurm sites
/// commonly bound `--requeue` retries to a small constant).
pub const DEFAULT_MAX_RESTARTS: u32 = 3;

/// Fraction of mature/exploratory jobs whose training loop actually
/// writes checkpoints — periodic saving is common but not universal.
const CHECKPOINT_ADOPTION: f64 = 0.85;

/// Whether a job of `class` checkpoints, decided by hashing its seed so
/// the choice is reproducible and consumes no RNG draws.
fn checkpointable(class: LifecycleClass, truth_seed: u64) -> bool {
    matches!(class, LifecycleClass::Mature | LifecycleClass::Exploratory)
        && hash_unit(truth_seed ^ 0xc4ec_7015) < CHECKPOINT_ADOPTION
}

/// Assigns the hidden archetype from the lifecycle class and the job's
/// seed — a pure hash, so the assignment consumes no RNG draws.
/// Debug runs are bursty, IDE sessions idle-heavy; training-style work
/// splits evenly between CNN-like and transformer-like shapes.
fn assign_archetype(class: LifecycleClass, truth_seed: u64) -> WorkloadArchetype {
    match class {
        LifecycleClass::Development => WorkloadArchetype::BurstyDev,
        LifecycleClass::Ide => WorkloadArchetype::IdleHeavy,
        LifecycleClass::Mature | LifecycleClass::Exploratory => {
            if hash_unit(truth_seed ^ 0xa11c_4a7e) < 0.5 {
                WorkloadArchetype::CnnPeriodic
            } else {
                WorkloadArchetype::TransformerPlateau
            }
        }
    }
}

/// Applies the archetype's phase-skeleton signature to freshly drawn
/// truth parameters. Only the wave geometry and the phase-length scale
/// move — mean levels, active fractions and interval sigmas stay on the
/// paper's calibrated class targets — and every adjustment is a pure
/// hash of the seed, so the trace RNG stream is untouched.
fn apply_archetype_signature(p: &mut TruthParams, archetype: WorkloadArchetype, truth_seed: u64) {
    let jitter = |salt: u64| hash_unit(truth_seed ^ salt);
    match archetype {
        WorkloadArchetype::CnnPeriodic => {
            // Epoch-periodic occupancy: a strong utilization wave with
            // a tens-of-seconds period.
            p.wave_frac = 0.50 + 0.25 * jitter(0x00c7_71a1);
            p.wave_period = 24.0 + 40.0 * jitter(0x00c7_71a2);
        }
        WorkloadArchetype::TransformerPlateau => {
            // Long, flat plateaus: stretch the phase-length scale and
            // flatten the wave to a ripple. Phases shorter than the
            // (long) wave period suppress their wave entirely.
            p.wave_frac = 0.03 + 0.04 * jitter(0x7a15_0001);
            p.wave_period = 300.0 + 300.0 * jitter(0x7a15_0002);
            p.mean_active_secs = (p.mean_active_secs * 3.0).min(2700.0);
        }
        WorkloadArchetype::BurstyDev => {
            // Choppy debug bursts: short phases with a fast, moderate
            // oscillation.
            p.wave_frac = 0.18 + 0.18 * jitter(0xdeb0_0001);
            p.wave_period = 8.0 + 10.0 * jitter(0xdeb0_0002);
            p.mean_active_secs = (p.mean_active_secs * 0.3).max(20.0);
        }
        WorkloadArchetype::IdleHeavy => {
            // Near-idle sessions: long stretches with no oscillation to
            // speak of.
            p.wave_frac = 0.02 + 0.03 * jitter(0x1d1e_0001);
            p.wave_period = 120.0 + 120.0 * jitter(0x1d1e_0002);
        }
    }
}

/// Requeue cap by interface: restarting an interactive session without
/// its human is pointless; everything else retries.
fn default_max_restarts(interface: SubmissionInterface) -> u32 {
    match interface {
        SubmissionInterface::Interactive => 0,
        _ => DEFAULT_MAX_RESTARTS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::user::UserPopulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (WorkloadSpec, UserPopulation) {
        let spec = WorkloadSpec::supercloud();
        let mut rng = StdRng::seed_from_u64(11);
        let pop = UserPopulation::generate(&mut rng, &spec);
        (spec, pop)
    }

    #[test]
    fn gpu_job_fields_are_sane() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..500 {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.gpu_job(&mut rng, JobId(i), &user, 1000.0);
            assert!(j.is_gpu_job());
            assert!(j.gpus >= 1 && j.gpus <= 32);
            assert!(j.idle_gpus < j.gpus);
            assert!(j.time_limit > 0.0);
            assert!(j.outcome.run_time(j.time_limit) <= j.time_limit);
            assert!(j.class.is_some());
            let p = j.truth_params.as_ref().unwrap();
            assert!((0.0..=1.0).contains(&p.active_fraction));
            assert!(p.mean_levels.sm >= 0.0 && p.mean_levels.sm <= 100.0);
        }
    }

    #[test]
    fn ide_jobs_run_to_timeout_on_interactive_interface() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(2);
        let mut saw_ide = false;
        for i in 0..3000 {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.gpu_job(&mut rng, JobId(i), &user, 0.0);
            if j.class == Some(LifecycleClass::Ide) {
                saw_ide = true;
                assert_eq!(j.interface, SubmissionInterface::Interactive);
                assert!(matches!(j.outcome, PlannedOutcome::RunUntilTimeout));
                let hours = j.time_limit / 3600.0;
                assert!(hours == 12.0 || hours == 24.0, "IDE limit {hours} h");
            }
        }
        assert!(saw_ide, "no IDE job generated in 3000 draws");
    }

    #[test]
    fn class_shares_converge_to_global_mix() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        let n = 20_000;
        for i in 0..n {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.gpu_job(&mut rng, JobId(i), &user, 0.0);
            let idx = LifecycleClass::ALL.iter().position(|c| Some(*c) == j.class).unwrap();
            counts[idx] += 1;
        }
        let shares: Vec<f64> = counts.iter().map(|c| *c as f64 / n as f64).collect();
        // Population-weighted user mixes are noisier than the global
        // target; allow a few points of slack.
        assert!((shares[0] - 0.595).abs() < 0.12, "mature {}", shares[0]);
        assert!((shares[3] - 0.035).abs() < 0.03, "IDE {}", shares[3]);
    }

    #[test]
    fn outcome_run_time_respects_limit() {
        let o = PlannedOutcome::Complete { work_secs: 100.0 };
        assert_eq!(o.run_time(50.0), 50.0);
        assert_eq!(o.run_time(200.0), 100.0);
        assert_eq!(PlannedOutcome::RunUntilTimeout.run_time(3600.0), 3600.0);
        assert_eq!(PlannedOutcome::Cancel { after_secs: 10.0 }.run_time(3600.0), 10.0);
        assert_eq!(PlannedOutcome::Fail { after_secs: 9e9 }.run_time(3600.0), 3600.0);
    }

    #[test]
    fn cpu_jobs_request_most_of_a_node() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..200 {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.cpu_job(&mut rng, JobId(i), &user, 0.0);
            assert!(!j.is_gpu_job());
            assert!(j.cpus >= 64);
            assert!(j.mem_gib >= 300.0);
            assert!(j.ground_truth().is_none());
        }
    }

    #[test]
    fn ground_truth_is_reproducible_from_seed() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(5);
        let user = pop.sample_user(&mut rng).clone();
        let j = factory.gpu_job(&mut rng, JobId(42), &user, 0.0);
        let a = j.ground_truth().unwrap();
        let b = j.ground_truth().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.gpus.len(), j.gpus as usize);
    }

    #[test]
    fn realized_gpu_count_mix_matches_fig13() {
        // After ceiling clamping, the job-level mix must land on the
        // paper's Fig. 13a: 84% single-GPU, ~2.4% above two GPUs.
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(31);
        let n = 30_000;
        let mut single = 0;
        let mut above_two = 0;
        let mut nine_plus = 0;
        for i in 0..n {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.gpu_job(&mut rng, JobId(i), &user, 0.0);
            match j.gpus {
                1 => single += 1,
                g if g >= 9 => {
                    nine_plus += 1;
                    above_two += 1;
                }
                g if g > 2 => above_two += 1,
                _ => {}
            }
        }
        let single = single as f64 / n as f64;
        let above_two = above_two as f64 / n as f64;
        let nine_plus = nine_plus as f64 / n as f64;
        assert!((single - 0.84).abs() < 0.05, "single-GPU share {single}");
        assert!((above_two - 0.024).abs() < 0.02, ">2-GPU share {above_two}");
        assert!(nine_plus < 0.012, "9+-GPU share {nine_plus}");
    }

    #[test]
    fn recovery_attributes_follow_class_and_interface() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(7);
        let mut ckpt = 0usize;
        let n = 5_000;
        for i in 0..n {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.gpu_job(&mut rng, JobId(i), &user, 0.0);
            if j.checkpointable {
                ckpt += 1;
                assert!(
                    matches!(j.class, Some(LifecycleClass::Mature | LifecycleClass::Exploratory)),
                    "only training-style work checkpoints"
                );
            }
            if j.interface == SubmissionInterface::Interactive {
                assert_eq!(j.max_restarts, 0, "interactive sessions never auto-requeue");
            } else {
                assert_eq!(j.max_restarts, DEFAULT_MAX_RESTARTS);
            }
            // Attributes are a pure function of the spec, not the RNG.
            assert_eq!(j.checkpointable, j.checkpointable);
        }
        let frac = ckpt as f64 / n as f64;
        assert!(frac > 0.4 && frac < 0.8, "checkpoint adoption {frac}");
        // CPU jobs never checkpoint but do requeue.
        let user = pop.sample_user(&mut rng).clone();
        let c = factory.cpu_job(&mut rng, JobId(99_999), &user, 0.0);
        assert!(!c.checkpointable);
        assert_eq!(c.max_restarts, DEFAULT_MAX_RESTARTS);
    }

    #[test]
    fn spike_marginals_near_fig8_targets() {
        let (spec, pop) = setup();
        let factory = JobFactory::new(&spec);
        let mut rng = StdRng::seed_from_u64(6);
        let n = 30_000;
        let mut sm = 0;
        let mut rx = 0;
        let mut joint = 0;
        for i in 0..n {
            let user = pop.sample_user(&mut rng).clone();
            let j = factory.gpu_job(&mut rng, JobId(i), &user, 0.0);
            let spikes = &j.truth_params.as_ref().unwrap().spike_resources;
            let has_sm = spikes.contains(&GpuResource::Sm);
            let has_rx = spikes.contains(&GpuResource::PcieRx);
            sm += has_sm as usize;
            rx += has_rx as usize;
            joint += (has_sm && has_rx) as usize;
        }
        let p_sm = sm as f64 / n as f64;
        let p_rx = rx as f64 / n as f64;
        let p_joint = joint as f64 / n as f64;
        assert!((p_sm - 0.22).abs() < 0.07, "P(SM spike) {p_sm}");
        assert!((p_rx - 0.15).abs() < 0.06, "P(Rx spike) {p_rx}");
        assert!((p_joint - 0.09).abs() < 0.05, "P(SM∧Rx) {p_joint}");
    }
}
