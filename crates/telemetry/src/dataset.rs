//! The joined dataset and the paper's filtering funnel.
//!
//! "Over the duration of our study of 125 days, 191 unique users executed
//! 74,820 jobs in total … For GPU analysis, jobs running for less than 30
//! seconds are filtered out since no activity is observed for these very
//! short jobs, and 47,120 jobs are considered. … both datasets are
//! combined using job Ids to create a single dataset" (Sec. II).

use crate::record::{GpuJobRecord, JobRecord, SchedulerRecord, UserId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Minimum run time for a GPU job to enter the analysis, in seconds.
pub const MIN_GPU_JOB_RUNTIME_SECS: f64 = 30.0;

/// Counts at each stage of the dataset-construction funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DatasetFunnel {
    /// All jobs in the scheduler log (74,820 in the paper).
    pub total_jobs: usize,
    /// CPU-only jobs among them.
    pub cpu_jobs: usize,
    /// GPU jobs before the 30 s filter.
    pub gpu_jobs_unfiltered: usize,
    /// GPU jobs shorter than 30 s that were dropped.
    pub gpu_jobs_filtered_out: usize,
    /// GPU jobs in the analysis set (47,120 in the paper).
    pub gpu_jobs: usize,
    /// GPU jobs whose telemetry record was missing at join time
    /// (monitoring failure; kept out of GPU analyses).
    pub gpu_jobs_missing_telemetry: usize,
    /// Unique users across all jobs (191 in the paper).
    pub unique_users: usize,
}

/// The joined analysis dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    records: Vec<JobRecord>,
    funnel: DatasetFunnel,
}

impl Dataset {
    /// Joins scheduler records with GPU telemetry records by job id and
    /// applies the paper's 30-second GPU-job filter.
    ///
    /// CPU-only jobs are retained (Fig. 3 compares GPU and CPU jobs);
    /// GPU jobs shorter than [`MIN_GPU_JOB_RUNTIME_SECS`] are dropped
    /// entirely, as in the paper.
    pub fn join(sched: Vec<SchedulerRecord>, gpu: Vec<GpuJobRecord>) -> Self {
        let mut gpu_by_id: HashMap<_, _> = gpu.into_iter().map(|g| (g.job_id, g)).collect();
        let mut funnel = DatasetFunnel { total_jobs: sched.len(), ..Default::default() };
        let mut users: Vec<UserId> = Vec::new();
        let mut records = Vec::with_capacity(sched.len());
        for s in sched {
            users.push(s.user);
            if !s.is_gpu_job() {
                funnel.cpu_jobs += 1;
                records.push(JobRecord { sched: s, gpu: None });
                continue;
            }
            funnel.gpu_jobs_unfiltered += 1;
            if s.run_time() < MIN_GPU_JOB_RUNTIME_SECS {
                funnel.gpu_jobs_filtered_out += 1;
                gpu_by_id.remove(&s.job_id);
                continue;
            }
            let telemetry = gpu_by_id.remove(&s.job_id);
            if telemetry.is_none() {
                funnel.gpu_jobs_missing_telemetry += 1;
            }
            funnel.gpu_jobs += 1;
            records.push(JobRecord { sched: s, gpu: telemetry });
        }
        users.sort();
        users.dedup();
        funnel.unique_users = users.len();
        Dataset { records, funnel }
    }

    /// All retained records (CPU and GPU jobs).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// The funnel counts.
    pub fn funnel(&self) -> DatasetFunnel {
        self.funnel
    }

    /// GPU jobs with telemetry — the population of every GPU figure.
    pub fn gpu_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.gpu.is_some())
    }

    /// CPU-only jobs (Fig. 3 comparison population).
    pub fn cpu_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| !r.sched.is_gpu_job())
    }

    /// Serializes the dataset to JSON — the anonymized release format
    /// (the paper published its dataset at dcc.mit.edu; this is the
    /// equivalent artifact for the synthetic reproduction).
    ///
    /// # Errors
    ///
    /// Propagates serialization errors (practically unreachable for
    /// this schema).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes a dataset previously written by [`Dataset::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a parse error for malformed input.
    pub fn from_json(json: &str) -> serde_json::Result<Dataset> {
        serde_json::from_str(json)
    }

    /// Serializes the dataset as a flat CSV table, one row per job with
    /// the job-level min/mean/max of every GPU metric — the shape of the
    /// per-job summary the paper's release distributes. CPU-only jobs
    /// have empty GPU columns.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "job_id,user,interface,gpus,cpus,mem_gib,submit,start,end,time_limit,exit,\
             sm_min,sm_mean,sm_max,mem_min,mem_mean,mem_max,\
             memsize_min,memsize_mean,memsize_max,\
             pcie_tx_mean,pcie_tx_max,pcie_rx_mean,pcie_rx_max,\
             power_min,power_mean,power_max\n",
        );
        for r in &self.records {
            let j = &r.sched;
            s.push_str(&format!(
                "{},{},{},{},{},{:.1},{:.1},{:.1},{:.1},{:.0},{}",
                j.job_id.0,
                j.user.0,
                j.interface,
                j.gpus_requested,
                j.cpus_requested,
                j.mem_requested_gib,
                j.submit_time,
                j.start_time,
                j.end_time,
                j.time_limit,
                j.exit
            ));
            let tail = match r.gpu_job_level() {
                Some(a) => {
                    let f = |x: f64| if x.is_finite() { format!("{x:.3}") } else { String::new() };
                    format!(
                        ",{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                        f(a.sm_util.min),
                        f(a.sm_util.mean),
                        f(a.sm_util.max),
                        f(a.mem_util.min),
                        f(a.mem_util.mean),
                        f(a.mem_util.max),
                        f(a.mem_size_util.min),
                        f(a.mem_size_util.mean),
                        f(a.mem_size_util.max),
                        f(a.pcie_tx.mean),
                        f(a.pcie_tx.max),
                        f(a.pcie_rx.mean),
                        f(a.pcie_rx.max),
                        f(a.power_w.min),
                        f(a.power_w.mean),
                        f(a.power_w.max),
                    )
                }
                None => ",".repeat(16),
            };
            s.push_str(&tail);
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::GpuAggregates;
    use crate::record::{ExitStatus, JobId, SubmissionInterface};

    fn sched(id: u64, user: u32, gpus: u32, run_secs: f64) -> SchedulerRecord {
        SchedulerRecord {
            job_id: JobId(id),
            user: UserId(user),
            interface: SubmissionInterface::Other,
            gpus_requested: gpus,
            cpus_requested: 4,
            mem_requested_gib: 16.0,
            submit_time: 0.0,
            start_time: 10.0,
            end_time: 10.0 + run_secs,
            time_limit: 86_400.0,
            exit: ExitStatus::Completed,
        }
    }

    fn gpu_rec(id: u64, gpus: usize) -> GpuJobRecord {
        GpuJobRecord { job_id: JobId(id), per_gpu: vec![GpuAggregates::new(); gpus] }
    }

    #[test]
    fn join_filters_short_gpu_jobs() {
        let sched_recs = vec![
            sched(1, 1, 1, 600.0),
            sched(2, 1, 1, 10.0), // < 30 s: dropped
            sched(3, 2, 0, 5.0),  // CPU job: kept regardless of duration
        ];
        let gpu_recs = vec![gpu_rec(1, 1), gpu_rec(2, 1)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let f = ds.funnel();
        assert_eq!(f.total_jobs, 3);
        assert_eq!(f.cpu_jobs, 1);
        assert_eq!(f.gpu_jobs_unfiltered, 2);
        assert_eq!(f.gpu_jobs_filtered_out, 1);
        assert_eq!(f.gpu_jobs, 1);
        assert_eq!(f.unique_users, 2);
        assert_eq!(ds.records().len(), 2);
        assert_eq!(ds.gpu_jobs().count(), 1);
        assert_eq!(ds.cpu_jobs().count(), 1);
    }

    #[test]
    fn missing_telemetry_is_counted() {
        let ds = Dataset::join(vec![sched(1, 1, 2, 600.0)], vec![]);
        assert_eq!(ds.funnel().gpu_jobs_missing_telemetry, 1);
        assert_eq!(ds.funnel().gpu_jobs, 1);
        // Record retained but without GPU data, so GPU analyses skip it.
        assert_eq!(ds.gpu_jobs().count(), 0);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let sched_recs = vec![sched(1, 1, 1, 600.0), sched(2, 2, 0, 120.0)];
        let gpu_recs = vec![gpu_rec(1, 1)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let json = ds.to_json().expect("serializable");
        let back = Dataset::from_json(&json).expect("parseable");
        assert_eq!(back.funnel(), ds.funnel());
        assert_eq!(back.records().len(), ds.records().len());
        for (a, b) in back.records().iter().zip(ds.records()) {
            assert_eq!(a.sched, b.sched);
            assert_eq!(a.gpu, b.gpu);
        }
        assert!(Dataset::from_json("not json").is_err());
    }

    #[test]
    fn csv_has_one_row_per_job_and_consistent_columns() {
        let sched_recs = vec![sched(1, 1, 1, 600.0), sched(2, 2, 0, 120.0)];
        let gpu_recs = vec![gpu_rec(1, 1)];
        let ds = Dataset::join(sched_recs, gpu_recs);
        let csv = ds.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 1 + ds.records().len());
        let cols = lines[0].matches(',').count();
        for l in &lines[1..] {
            assert_eq!(l.matches(',').count(), cols, "ragged row: {l}");
        }
        assert!(lines[0].starts_with("job_id,user,interface"));
    }

    #[test]
    fn boundary_runtime_is_kept() {
        let ds = Dataset::join(vec![sched(1, 1, 1, 30.0)], vec![gpu_rec(1, 1)]);
        assert_eq!(ds.funnel().gpu_jobs, 1);
        assert_eq!(ds.funnel().gpu_jobs_filtered_out, 0);
    }
}
