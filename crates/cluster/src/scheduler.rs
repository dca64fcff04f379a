//! The FCFS + EASY-backfill scheduler.
//!
//! Supercloud ran "a single job queue for all jobs" (Sec. II). We model
//! FCFS order with EASY backfill: when the head job cannot start, a
//! *shadow time* is computed from the running jobs' wall-clock limits
//! and later jobs may jump ahead only if their own limit guarantees they
//! finish before the shadow time. Estimates use requested limits — never
//! actual run times — so the scheduler cannot cheat.

use crate::policy::Policy;
use crate::resources::{Allocation, ClusterState};
use sc_telemetry::record::{ExitStatus, JobId};
use sc_workload::JobSpec;
use std::collections::HashMap;

/// A queued job: the trace index plus its submit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJob {
    /// Index into the trace job list.
    pub trace_idx: usize,
    /// Submission time.
    pub submit_time: f64,
}

/// A running job's bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJob {
    /// Index into the trace job list.
    pub trace_idx: usize,
    /// The held allocation.
    pub alloc: Allocation,
    /// Actual start time.
    pub start_time: f64,
    /// Scheduler's upper bound on the end (start + requested limit).
    pub estimated_end: f64,
    /// Run-time stretch factor of the tier the job landed on (1.0 on
    /// the fast tier) — needed to convert elapsed wall-clock back into
    /// completed work when a failure interrupts the job.
    pub stretch: f64,
    /// Per-job power cap imposed by a dispatch policy, watts. Carried
    /// here so the completion record (and hence the telemetry epilog)
    /// knows to clamp the job's synthesized power.
    pub power_cap_w: Option<f64>,
    /// When the attempt ends, decided when it started.
    pub end_time: f64,
    /// How the attempt ends if no injected failure kills it first.
    pub exit: ExitStatus,
    /// Which attempt (1-based) this is. A `Finish` event carrying a
    /// different tag is stale: the attempt it scheduled already died.
    pub attempt: u32,
}

/// Decisions produced by one scheduling pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SchedulePass {
    /// `(trace_idx, allocation)` of jobs to start now, in order.
    pub started: Vec<(usize, Allocation)>,
}

/// The queue discipline, for ablation studies.
///
/// Supercloud runs backfill; the ablation bench quantifies what the
/// backfill pass buys over strict FCFS on the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulePolicy {
    /// Strict FCFS: a blocked head job blocks everything behind it.
    FcfsOnly,
    /// FCFS with EASY backfill (the production default).
    #[default]
    EasyBackfill,
}

/// The scheduler state: pending queue and running set.
#[derive(Debug, Default)]
pub struct Scheduler {
    pending: Vec<QueuedJob>,
    running: HashMap<JobId, RunningJob>,
    policy: SchedulePolicy,
}

impl Scheduler {
    /// An empty scheduler with the production (backfill) policy.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// An empty scheduler with an explicit queue discipline.
    pub fn with_policy(policy: SchedulePolicy) -> Self {
        Scheduler { policy, ..Scheduler::default() }
    }

    /// The active queue discipline.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Enqueues a submitted job.
    pub fn submit(&mut self, trace_idx: usize, submit_time: f64) {
        self.pending.push(QueuedJob { trace_idx, submit_time });
    }

    /// Registers a started job.
    pub fn mark_running(&mut self, job_id: JobId, running: RunningJob) {
        self.running.insert(job_id, running);
    }

    /// The running entry of `job_id`, if it is running.
    pub(crate) fn running(&self, job_id: JobId) -> Option<&RunningJob> {
        self.running.get(&job_id)
    }

    /// Removes a finished job, returning its bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if the job is not running (an event-ordering bug).
    pub fn finish(&mut self, job_id: JobId) -> RunningJob {
        self.running.remove(&job_id).expect("finished job must be running")
    }

    /// Number of queued jobs.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of running jobs.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Runs one FCFS + EASY-backfill pass at time `now` against the
    /// cluster state, committing allocations for every job it starts and
    /// removing them from the queue. `jobs` is the full trace job list.
    pub fn schedule(
        &mut self,
        now: f64,
        cluster: &mut ClusterState,
        jobs: &[JobSpec],
    ) -> SchedulePass {
        self.schedule_with(now, cluster, jobs, None)
    }

    /// Like [`Scheduler::schedule`], consulting a closed-loop
    /// [`Policy`] for placement overrides: the policy's
    /// [`Policy::place`] is tried first for every candidate (head and
    /// backfill alike) and the cluster's own packing is the fallback.
    /// With `policy` `None` the pass is byte-identical to `schedule`.
    pub fn schedule_with(
        &mut self,
        now: f64,
        cluster: &mut ClusterState,
        jobs: &[JobSpec],
        mut policy: Option<&mut (dyn Policy + '_)>,
    ) -> SchedulePass {
        let mut place = |cluster: &ClusterState, job: &JobSpec| -> Option<Allocation> {
            if let Some(p) = policy.as_deref_mut() {
                if let Some(alloc) = p.place(job, cluster) {
                    return Some(alloc);
                }
            }
            cluster.try_place(job)
        };
        let mut pass = SchedulePass::default();
        let mut blocked_shadow: Option<f64> = None;
        let mut i = 0;
        while i < self.pending.len() {
            let q = self.pending[i];
            let job = &jobs[q.trace_idx];
            match blocked_shadow {
                None => {
                    if let Some(alloc) = place(cluster, job) {
                        cluster.allocate(&alloc);
                        pass.started.push((q.trace_idx, alloc));
                        self.pending.remove(i);
                        continue; // do not advance i; next job shifted in
                    }
                    if self.policy == SchedulePolicy::FcfsOnly {
                        // Strict FCFS: the blocked head blocks everyone.
                        break;
                    }
                    // Head-of-line blocking: compute the shadow time and
                    // switch to backfill mode.
                    blocked_shadow = Some(self.shadow_time(now));
                    i += 1;
                }
                Some(shadow) => {
                    // Backfill candidates must be guaranteed (by their
                    // requested limit) to clear out before the shadow.
                    if now + job.time_limit <= shadow {
                        if let Some(alloc) = place(cluster, job) {
                            cluster.allocate(&alloc);
                            pass.started.push((q.trace_idx, alloc));
                            self.pending.remove(i);
                            continue;
                        }
                    }
                    i += 1;
                }
            }
        }
        pass
    }

    /// Earliest time the blocked head job might start: the minimum
    /// estimated end among running jobs (conservative single-resource
    /// approximation of EASY's reservation computation). With nothing
    /// running there is nothing to wait for; schedule eagerly.
    fn shadow_time(&self, now: f64) -> f64 {
        self.running.values().map(|r| r.estimated_end).fold(f64::INFINITY, f64::min).max(now)
    }

    /// Queue snapshot (for tests and instrumentation).
    pub fn pending(&self) -> &[QueuedJob] {
        &self.pending
    }

    /// Running jobs holding resources on `node` — the blast radius of a
    /// node failure.
    pub fn running_on_node(&self, node: crate::resources::NodeId) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.parts.iter().any(|p| p.node == node))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// Running jobs holding at least one GPU on `node` — the candidate
    /// victims of a single-GPU Xid fault there.
    pub fn gpu_residents_on_node(&self, node: crate::resources::NodeId) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, r)| r.alloc.parts.iter().any(|p| p.node == node && p.gpus > 0))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;
    use sc_telemetry::record::{SubmissionInterface, UserId};
    use sc_workload::PlannedOutcome;

    fn job(id: u64, gpus: u32, cpus: u32, limit: f64) -> JobSpec {
        JobSpec {
            job_id: JobId(id),
            user: UserId(0),
            arrival: 0.0,
            interface: SubmissionInterface::Other,
            gpus,
            cpus,
            mem_gib: 16.0,
            time_limit: limit,
            class: None,
            outcome: PlannedOutcome::Complete { work_secs: limit / 2.0 },
            archetype: None,
            truth_params: None,
            idle_gpus: 0,
            truth_seed: 0,
            checkpointable: false,
            max_restarts: 0,
        }
    }

    fn one_node_cluster() -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.nodes = 1; // 2 GPUs
        ClusterState::new(spec)
    }

    fn two_node_cluster() -> ClusterState {
        let mut spec = ClusterSpec::supercloud();
        spec.nodes = 2; // 4 GPUs
        ClusterState::new(spec)
    }

    #[test]
    fn fcfs_starts_jobs_in_order_when_space_allows() {
        let jobs = vec![job(1, 1, 4, 3600.0), job(2, 1, 4, 3600.0)];
        let mut cluster = one_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        s.submit(1, 0.0);
        let pass = s.schedule(0.0, &mut cluster, &jobs);
        assert_eq!(pass.started.len(), 2);
        assert_eq!(pass.started[0].0, 0);
        assert_eq!(pass.started[1].0, 1);
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn head_of_line_blocks_non_backfillable_jobs() {
        // 4-GPU cluster. Job A holds 3 GPUs until t=1000 (limit), one
        // GPU stays free. Head job B needs 4 GPUs; job C (1 GPU, long
        // limit) physically fits in the free GPU but must NOT jump ahead
        // because it would outlive the shadow time.
        let jobs = vec![job(1, 3, 8, 1000.0), job(2, 4, 8, 1000.0), job(3, 1, 4, 5000.0)];
        let mut cluster = two_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs);
        assert_eq!(p.started.len(), 1);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 1000.0,
                stretch: 1.0,
                power_cap_w: None,
                end_time: 500.0,
                exit: ExitStatus::Completed,
                attempt: 1,
            },
        );
        s.submit(1, 1.0);
        s.submit(2, 2.0);
        let p = s.schedule(2.0, &mut cluster, &jobs);
        assert!(p.started.is_empty(), "nothing may start: head blocked, C too long");
        assert_eq!(s.pending_len(), 2);
    }

    #[test]
    fn short_job_backfills_ahead_of_blocked_head() {
        // Same as above but C's limit (500 s) fits before the shadow
        // time (1000 s), so it backfills into the free GPU.
        let jobs = vec![job(1, 3, 8, 1000.0), job(2, 4, 8, 1000.0), job(3, 1, 4, 500.0)];
        let mut cluster = two_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 1000.0,
                stretch: 1.0,
                power_cap_w: None,
                end_time: 500.0,
                exit: ExitStatus::Completed,
                attempt: 1,
            },
        );
        s.submit(1, 1.0);
        s.submit(2, 2.0);
        let p = s.schedule(2.0, &mut cluster, &jobs);
        assert_eq!(p.started.len(), 1);
        assert_eq!(p.started[0].0, 2, "the short job backfills");
        // FCFS order preserved for the blocked head.
        assert_eq!(s.pending()[0].trace_idx, 1);
    }

    #[test]
    fn fcfs_only_policy_blocks_backfillable_job() {
        // Identical setup to `short_job_backfills_ahead_of_blocked_head`
        // but with the strict-FCFS ablation: nothing may start.
        let jobs = vec![job(1, 3, 8, 1000.0), job(2, 4, 8, 1000.0), job(3, 1, 4, 500.0)];
        let mut cluster = two_node_cluster();
        let mut s = Scheduler::with_policy(SchedulePolicy::FcfsOnly);
        assert_eq!(s.policy(), SchedulePolicy::FcfsOnly);
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 1000.0,
                stretch: 1.0,
                power_cap_w: None,
                end_time: 500.0,
                exit: ExitStatus::Completed,
                attempt: 1,
            },
        );
        s.submit(1, 1.0);
        s.submit(2, 2.0);
        let p = s.schedule(2.0, &mut cluster, &jobs);
        assert!(p.started.is_empty(), "strict FCFS must not backfill");
        assert_eq!(s.pending_len(), 2);
    }

    #[test]
    fn finish_releases_bookkeeping() {
        let jobs = vec![job(1, 1, 4, 100.0)];
        let mut cluster = one_node_cluster();
        let mut s = Scheduler::new();
        s.submit(0, 0.0);
        let p = s.schedule(0.0, &mut cluster, &jobs);
        s.mark_running(
            JobId(1),
            RunningJob {
                trace_idx: 0,
                alloc: p.started[0].1.clone(),
                start_time: 0.0,
                estimated_end: 100.0,
                stretch: 1.0,
                power_cap_w: None,
                end_time: 500.0,
                exit: ExitStatus::Completed,
                attempt: 1,
            },
        );
        assert_eq!(s.running_len(), 1);
        let r = s.finish(JobId(1));
        cluster.release(&r.alloc);
        assert_eq!(s.running_len(), 0);
        assert_eq!(cluster.gpus_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "finished job must be running")]
    fn finishing_unknown_job_is_a_bug() {
        let mut s = Scheduler::new();
        let _ = s.finish(JobId(99));
    }
}
