//! Seeded data-quality fault injection: the lossy collection pipeline.
//!
//! The paper's dataset came from a real pipeline — Slurm prolog/epilog
//! hooks plus 100 ms `nvidia-smi` sampling — and such pipelines lose
//! data in production: killed jobs never run their epilog, collectors
//! restart and drop sample windows, node clocks skew, accounting logs
//! duplicate and reorder records, and sensors emit NaN or spike
//! readings. This module injects exactly those faults into an already
//! synthesized (ground-truth-fixed) dataset, deterministically: every
//! coin flip is a salted hash of the job id and the corruptor seed, so
//! the corrupted stream is byte-identical across runs and thread
//! budgets.
//!
//! The injector only applies a fault when the fault is *detectable* by
//! the ingest stage's published detectors (e.g. a clock skew is only
//! applied when it pulls `start` before `submit`). That discipline is
//! what lets the repair ledger balance exactly:
//! `injected == detected == repaired + quarantined` per fault class.

use crate::aggregate::GpuAggregates;
use crate::dataset::Dataset;
use crate::metrics::GpuMetricSample;
use crate::record::{GpuJobRecord, JobId, SchedulerRecord};
use crate::sampler::GpuTimeSeries;
use sc_stats::hash::hash_unit;
use serde::{Deserialize, Serialize};

/// How dirty the simulated collection pipeline is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataQualityProfile {
    /// Byte-perfect collection: the injector is a no-op.
    Off,
    /// The low fault rates a well-run production cluster still sees
    /// (the MIT Supercloud collection machinery).
    Supercloud,
    /// A degraded quarter: collector restarts, killed-job epilogs and
    /// clock drift at rates that visibly dent the raw stream.
    Lossy,
    /// An adversarial stress profile, including conflicting duplicate
    /// records; used to exercise the quarantine path, not to model a
    /// real site.
    Hostile,
}

impl DataQualityProfile {
    /// All profiles, mildest first.
    pub const ALL: [DataQualityProfile; 4] = [
        DataQualityProfile::Off,
        DataQualityProfile::Supercloud,
        DataQualityProfile::Lossy,
        DataQualityProfile::Hostile,
    ];

    /// CLI names accepted by [`DataQualityProfile::parse`].
    pub const NAMES: &'static str = "off|supercloud|lossy|hostile";

    /// Parses a CLI profile name.
    pub fn parse(name: &str) -> Option<DataQualityProfile> {
        match name {
            "off" => Some(DataQualityProfile::Off),
            "supercloud" => Some(DataQualityProfile::Supercloud),
            "lossy" => Some(DataQualityProfile::Lossy),
            "hostile" => Some(DataQualityProfile::Hostile),
            _ => None,
        }
    }

    /// Display label (also the CLI name).
    pub fn label(&self) -> &'static str {
        match self {
            DataQualityProfile::Off => "off",
            DataQualityProfile::Supercloud => "supercloud",
            DataQualityProfile::Lossy => "lossy",
            DataQualityProfile::Hostile => "hostile",
        }
    }

    /// The per-fault rates this profile injects at.
    pub fn config(&self) -> CorruptionConfig {
        match self {
            DataQualityProfile::Off => CorruptionConfig::default(),
            DataQualityProfile::Supercloud => CorruptionConfig {
                duplicate: 0.002,
                conflicting_duplicate: 0.0,
                missing_epilog: 0.005,
                truncated_epilog: 0.003,
                clock_skew: 0.02,
                max_skew_secs: 90.0,
                out_of_order: 0.01,
                shuffle_window: 4.0,
                nan_power: 0.003,
                power_spike: 0.001,
                dropped_window: 0.02,
                truncated_series: 0.01,
                max_truncated_frac: 0.10,
            },
            DataQualityProfile::Lossy => CorruptionConfig {
                duplicate: 0.01,
                conflicting_duplicate: 0.0,
                missing_epilog: 0.03,
                truncated_epilog: 0.02,
                clock_skew: 0.05,
                max_skew_secs: 600.0,
                out_of_order: 0.05,
                shuffle_window: 16.0,
                nan_power: 0.02,
                power_spike: 0.01,
                dropped_window: 0.10,
                truncated_series: 0.05,
                max_truncated_frac: 0.25,
            },
            DataQualityProfile::Hostile => CorruptionConfig {
                duplicate: 0.05,
                conflicting_duplicate: 0.5,
                missing_epilog: 0.10,
                truncated_epilog: 0.08,
                clock_skew: 0.20,
                max_skew_secs: 3600.0,
                out_of_order: 0.20,
                shuffle_window: 64.0,
                nan_power: 0.10,
                power_spike: 0.05,
                dropped_window: 0.25,
                truncated_series: 0.15,
                max_truncated_frac: 0.40,
            },
        }
    }
}

impl std::fmt::Display for DataQualityProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-fault injection rates. All rates are per-record (or per-series
/// segment for [`CorruptionConfig::dropped_window`]) probabilities in
/// `[0, 1]`; the all-zero default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CorruptionConfig {
    /// Probability a scheduler record is emitted twice.
    pub duplicate: f64,
    /// Fraction of duplicates whose copy carries a *conflicting*
    /// payload (a perturbed end time) instead of identical bytes.
    pub conflicting_duplicate: f64,
    /// Probability a GPU job's epilog (its telemetry record) is lost.
    pub missing_epilog: f64,
    /// Probability a record's accounting end time is lost (killed job:
    /// the epilog that stamps `end_time` never ran).
    pub truncated_epilog: f64,
    /// Probability a record's node clock is skewed backwards.
    pub clock_skew: f64,
    /// Largest clock skew, seconds.
    pub max_skew_secs: f64,
    /// Probability a record is displaced in the log.
    pub out_of_order: f64,
    /// Largest displacement, in record positions.
    pub shuffle_window: f64,
    /// Probability a power aggregate is replaced by NaN.
    pub nan_power: f64,
    /// Probability a power-max aggregate records a sensor spike far
    /// above the board limit.
    pub power_spike: f64,
    /// Per-segment probability a sample window is dropped from a
    /// detailed time series (collector restart).
    pub dropped_window: f64,
    /// Probability a detailed time series loses its tail.
    pub truncated_series: f64,
    /// Largest fraction of a series the tail loss removes.
    pub max_truncated_frac: f64,
}

/// One class of collection fault — the unit of the repair ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// A scheduler record emitted more than once.
    DuplicateRecord,
    /// A GPU job's telemetry record lost (epilog never ran).
    MissingEpilog,
    /// A record's accounting end time lost (killed job).
    TruncatedEpilog,
    /// A record's timestamps shifted by a per-node clock offset.
    ClockSkew,
    /// A record displaced from canonical log order.
    OutOfOrder,
    /// A power aggregate replaced by NaN.
    NanPower,
    /// A power-max aggregate far above the board limit.
    PowerSpike,
    /// A window of samples missing from a detailed time series.
    DroppedWindow,
    /// A detailed time series missing its tail.
    TruncatedSeries,
}

impl FaultClass {
    /// All classes, in ledger order.
    pub const ALL: [FaultClass; 9] = [
        FaultClass::DuplicateRecord,
        FaultClass::MissingEpilog,
        FaultClass::TruncatedEpilog,
        FaultClass::ClockSkew,
        FaultClass::OutOfOrder,
        FaultClass::NanPower,
        FaultClass::PowerSpike,
        FaultClass::DroppedWindow,
        FaultClass::TruncatedSeries,
    ];

    /// Number of classes (the ledger width).
    pub const COUNT: usize = Self::ALL.len();

    /// Index into [`FaultClass::ALL`] — the ledger slot.
    pub fn index(&self) -> usize {
        match self {
            FaultClass::DuplicateRecord => 0,
            FaultClass::MissingEpilog => 1,
            FaultClass::TruncatedEpilog => 2,
            FaultClass::ClockSkew => 3,
            FaultClass::OutOfOrder => 4,
            FaultClass::NanPower => 5,
            FaultClass::PowerSpike => 6,
            FaultClass::DroppedWindow => 7,
            FaultClass::TruncatedSeries => 8,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::DuplicateRecord => "duplicate-record",
            FaultClass::MissingEpilog => "missing-epilog",
            FaultClass::TruncatedEpilog => "truncated-epilog",
            FaultClass::ClockSkew => "clock-skew",
            FaultClass::OutOfOrder => "out-of-order",
            FaultClass::NanPower => "nan-power",
            FaultClass::PowerSpike => "power-spike",
            FaultClass::DroppedWindow => "dropped-window",
            FaultClass::TruncatedSeries => "truncated-series",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-class fault ledger: one counter slot per [`FaultClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CorruptionCounters {
    counts: [u64; FaultClass::COUNT],
}

impl CorruptionCounters {
    /// An all-zero ledger.
    pub fn new() -> Self {
        CorruptionCounters::default()
    }

    /// Adds one fault of `class`.
    pub fn record(&mut self, class: FaultClass) {
        self.counts[class.index()] += 1;
    }

    /// Reads one class's count.
    pub fn get(&self, class: FaultClass) -> u64 {
        self.counts[class.index()]
    }

    /// Sum over all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &CorruptionCounters) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates `(class, count)` in ledger order.
    pub fn iter(&self) -> impl Iterator<Item = (FaultClass, u64)> + '_ {
        FaultClass::ALL.iter().map(|c| (*c, self.get(*c)))
    }
}

/// The raw (possibly corrupted) collection output: the two streams the
/// real pipeline joins, plus the injection ledger. Canonical order is
/// by `(submit_time, job_id)` — the shape of a sorted accounting log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawCollection {
    /// Scheduler-side accounting records (may hold duplicates, skewed
    /// or missing timestamps, and out-of-order entries).
    pub sched: Vec<SchedulerRecord>,
    /// GPU-side epilog records (may hold duplicates or NaN/spiked
    /// power aggregates; missing-epilog jobs are absent).
    pub gpu: Vec<GpuJobRecord>,
    /// What the injector actually did, per fault class.
    pub injected: CorruptionCounters,
}

impl RawCollection {
    /// Decomposes a clean joined dataset back into the two collection
    /// streams, in canonical `(submit_time, job_id)` order, with an
    /// empty injection ledger — the byte-perfect archive.
    pub fn from_dataset(dataset: &Dataset) -> RawCollection {
        let mut sched: Vec<SchedulerRecord> =
            dataset.records().iter().map(|r| r.sched.clone()).collect();
        sort_canonical(&mut sched);
        let mut gpu: Vec<GpuJobRecord> =
            dataset.records().iter().filter_map(|r| r.gpu.clone()).collect();
        gpu.sort_by_key(|g| g.job_id);
        RawCollection { sched, gpu, injected: CorruptionCounters::new() }
    }
}

/// Sorts scheduler records into canonical `(submit_time, job_id)` order.
pub fn sort_canonical(records: &mut [SchedulerRecord]) {
    records.sort_by(|a, b| {
        a.submit_time.total_cmp(&b.submit_time).then_with(|| a.job_id.cmp(&b.job_id))
    });
}

/// Counts records that sit below the running submit-time maximum — the
/// shared out-of-order definition the injector and the ingest detector
/// both use, so their ledgers agree by construction.
pub fn out_of_order_count(records: &[SchedulerRecord]) -> u64 {
    out_of_order_ids(records).len() as u64
}

/// Job ids of records that sit below the running submit-time maximum.
/// An id can appear more than once (a duplicated record may be
/// displaced twice).
pub fn out_of_order_ids(records: &[SchedulerRecord]) -> Vec<JobId> {
    let mut max_submit = f64::NEG_INFINITY;
    let mut ids = Vec::new();
    for r in records {
        if r.submit_time < max_submit {
            ids.push(r.job_id);
        } else {
            max_submit = r.submit_time;
        }
    }
    ids
}

/// NaN-aware scheduler-record equality: two byte-identical copies of a
/// truncated record (both with a NaN end time) are still *exact*
/// duplicates, not conflicting ones.
pub fn records_equivalent(a: &SchedulerRecord, b: &SchedulerRecord) -> bool {
    let eq = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.job_id == b.job_id
        && a.user == b.user
        && a.interface == b.interface
        && a.gpus_requested == b.gpus_requested
        && a.cpus_requested == b.cpus_requested
        && eq(a.mem_requested_gib, b.mem_requested_gib)
        && eq(a.submit_time, b.submit_time)
        && eq(a.start_time, b.start_time)
        && eq(a.end_time, b.end_time)
        && eq(a.time_limit, b.time_limit)
        && a.exit == b.exit
}

// Distinct salts so each fault class draws an independent coin per job.
const SALT_DUP: u64 = 0x6475_706c;
const SALT_DUP_CONFLICT: u64 = 0x636f_6e66;
const SALT_DUP_SHIFT: u64 = 0x7368_6966;
const SALT_MISSING: u64 = 0x6d69_7373;
const SALT_TRUNC: u64 = 0x7472_756e;
const SALT_SKEW: u64 = 0x736b_6577;
const SALT_SKEW_AMT: u64 = 0x616d_6f75;
const SALT_OOO: u64 = 0x6f72_6465;
const SALT_OOO_AMT: u64 = 0x6a69_7474;
const SALT_SPIKE: u64 = 0x7370_696b;
const SALT_SPIKE_AMT: u64 = 0x6d61_676e;
const SALT_NAN: u64 = 0x6e61_6e70;
const SALT_WINDOW: u64 = 0x7769_6e64;
const SALT_WINDOW_POS: u64 = 0x7770_6f73;
const SALT_WINDOW_LEN: u64 = 0x776c_656e;
const SALT_TAIL: u64 = 0x7461_696c;
const SALT_TAIL_AMT: u64 = 0x7466_7263;

/// The seeded fault injector.
#[derive(Debug, Clone, Copy)]
pub struct Corruptor {
    profile: DataQualityProfile,
    cfg: CorruptionConfig,
    seed: u64,
}

impl Corruptor {
    /// Builds an injector for `profile` with the given seed.
    pub fn new(profile: DataQualityProfile, seed: u64) -> Corruptor {
        Corruptor { profile, cfg: profile.config(), seed }
    }

    /// The injector's profile.
    pub fn profile(&self) -> DataQualityProfile {
        self.profile
    }

    /// The effective per-fault rates.
    pub fn config(&self) -> &CorruptionConfig {
        &self.cfg
    }

    fn unit(&self, job: JobId, salt: u64) -> f64 {
        hash_unit(job.0 ^ self.seed.rotate_left(17) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Corrupts a clean dataset into the raw stream a lossy collection
    /// pipeline would have produced. Ground truth is already fixed:
    /// corruption happens strictly downstream of synthesis, exactly
    /// like a real collection fault.
    pub fn corrupt(&self, clean: &Dataset) -> RawCollection {
        let mut raw = RawCollection::from_dataset(clean);
        if self.profile == DataQualityProfile::Off {
            return raw;
        }
        let mut counters = CorruptionCounters::new();
        let mut drop_gpu: Vec<JobId> = Vec::new();

        // Pass 1: per-record timestamp and epilog faults, in canonical
        // order. The missing-epilog and truncated-epilog coins are
        // mutually exclusive so every injected fault stays repairable
        // or cleanly quarantinable by exactly one detector.
        let has_gpu_record: std::collections::HashSet<JobId> =
            raw.gpu.iter().map(|g| g.job_id).collect();
        for rec in &mut raw.sched {
            let id = rec.job_id;
            if self.unit(id, SALT_SKEW) < self.cfg.clock_skew {
                let offset = 30.0 + self.unit(id, SALT_SKEW_AMT) * (self.cfg.max_skew_secs - 30.0);
                // Only detectable (hence only injected) when the skew
                // pulls the start before the submit stamp.
                if offset > rec.queue_wait() + 1e-6 {
                    rec.start_time -= offset;
                    rec.end_time -= offset;
                    counters.record(FaultClass::ClockSkew);
                }
            }
            let truncated = self.unit(id, SALT_TRUNC) < self.cfg.truncated_epilog;
            if truncated {
                rec.end_time = f64::NAN;
                counters.record(FaultClass::TruncatedEpilog);
            }
            if !truncated
                && has_gpu_record.contains(&id)
                && self.unit(id, SALT_MISSING) < self.cfg.missing_epilog
            {
                drop_gpu.push(id);
                counters.record(FaultClass::MissingEpilog);
            }
        }
        raw.gpu.retain(|g| !drop_gpu.contains(&g.job_id));

        // Pass 2: power-sensor faults on the surviving epilog records.
        for g in &mut raw.gpu {
            let id = g.job_id;
            if self.unit(id, SALT_NAN) < self.cfg.nan_power {
                for agg in &mut g.per_gpu {
                    agg.power_w.min = f64::NAN;
                    agg.power_w.mean = f64::NAN;
                    agg.power_w.max = f64::NAN;
                }
                counters.record(FaultClass::NanPower);
            } else if self.unit(id, SALT_SPIKE) < self.cfg.power_spike {
                let magnitude = 2.0 + 6.0 * self.unit(id, SALT_SPIKE_AMT);
                for agg in &mut g.per_gpu {
                    agg.power_w.max = crate::gpu_power::V100_TDP_W * magnitude;
                }
                counters.record(FaultClass::PowerSpike);
            }
        }

        // Pass 3: duplication. Copies inherit the faults above; under
        // a hostile profile some copies carry a conflicting end time.
        let mut dup_sched = Vec::new();
        let mut dup_gpu = Vec::new();
        for rec in &raw.sched {
            let id = rec.job_id;
            if self.unit(id, SALT_DUP) < self.cfg.duplicate {
                let mut copy = rec.clone();
                if self.unit(id, SALT_DUP_CONFLICT) < self.cfg.conflicting_duplicate {
                    copy.end_time += 3600.0 * (1.0 + 10.0 * self.unit(id, SALT_DUP_SHIFT));
                }
                dup_sched.push(copy);
                if let Some(g) = raw.gpu.iter().find(|g| g.job_id == id) {
                    dup_gpu.push(g.clone());
                }
                counters.record(FaultClass::DuplicateRecord);
            }
        }
        raw.sched.extend(dup_sched);
        raw.gpu.extend(dup_gpu);
        sort_canonical(&mut raw.sched);
        raw.gpu.sort_by_key(|g| g.job_id);

        // Pass 4: log-order scramble. Each displaced record's sort key
        // is jittered by up to `shuffle_window` positions; the injected
        // count is then read off the final stream with the *same*
        // running-maximum definition the ingest detector uses.
        let mut keyed: Vec<(f64, SchedulerRecord)> = raw
            .sched
            .drain(..)
            .enumerate()
            .map(|(i, rec)| {
                let jitter = if self.unit(rec.job_id, SALT_OOO) < self.cfg.out_of_order {
                    (self.unit(rec.job_id, SALT_OOO_AMT) * 2.0 - 1.0) * self.cfg.shuffle_window
                } else {
                    0.0
                };
                (i as f64 + jitter, rec)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        raw.sched = keyed.into_iter().map(|(_, rec)| rec).collect();
        for _ in 0..out_of_order_count(&raw.sched) {
            counters.record(FaultClass::OutOfOrder);
        }

        raw.injected = counters;
        raw
    }

    /// Corrupts one detailed GPU time series in place, returning the
    /// injection ledger (dropped windows and tail truncations).
    ///
    /// Missing samples are marked by [`missing_sample`] — the NaN rows
    /// a re-gridded collector log shows where the sampler was down.
    /// Tail loss is applied first, and interior windows are then placed
    /// strictly inside the surviving prefix with at least one valid
    /// sample between them, so every injected fault is recoverable as
    /// one distinct detection.
    pub fn corrupt_series(&self, series: &mut GpuTimeSeries, job: JobId) -> CorruptionCounters {
        let mut counters = CorruptionCounters::new();
        if self.profile == DataQualityProfile::Off {
            return counters;
        }
        for (gpu_idx, samples) in series.per_gpu.iter_mut().enumerate() {
            let gpu_salt = (gpu_idx as u64 + 1).wrapping_mul(0x5851_f42d_4c95_7f2d);
            let id = JobId(job.0 ^ gpu_salt);
            if samples.len() < 8 {
                continue;
            }
            if self.unit(id, SALT_TAIL) < self.cfg.truncated_series {
                let frac = self.unit(id, SALT_TAIL_AMT) * self.cfg.max_truncated_frac;
                let cut = ((samples.len() as f64 * frac) as usize).min(samples.len() - 4);
                if cut > 0 {
                    samples.truncate(samples.len() - cut);
                    counters.record(FaultClass::TruncatedSeries);
                }
            }
            // One candidate window per segment, strictly interior and
            // separated, so maximal NaN runs map 1:1 to injections.
            let seg = 16usize;
            let mut k = 0;
            while (k + 1) * seg + 1 < samples.len() {
                let seg_id = JobId(id.0 ^ ((k as u64 + 1) << 32));
                if self.unit(seg_id, SALT_WINDOW) < self.cfg.dropped_window {
                    let len =
                        1 + (self.unit(seg_id, SALT_WINDOW_LEN) * (seg as f64 - 2.0)) as usize;
                    let start = k * seg
                        + 1
                        + (self.unit(seg_id, SALT_WINDOW_POS) * (seg - len - 1) as f64) as usize;
                    let end = (start + len).min(samples.len() - 1);
                    if start < end {
                        for s in &mut samples[start..end] {
                            *s = missing_sample();
                        }
                        counters.record(FaultClass::DroppedWindow);
                    }
                }
                k += 2; // skip a segment so windows never touch
            }
        }
        counters
    }
}

/// The all-NaN marker a re-gridded collector log carries where the
/// sampler was down.
pub fn missing_sample() -> GpuMetricSample {
    GpuMetricSample {
        sm_util: f64::NAN,
        mem_util: f64::NAN,
        mem_size_util: f64::NAN,
        pcie_tx: f64::NAN,
        pcie_rx: f64::NAN,
        power_w: f64::NAN,
    }
}

/// Whether a sample is the [`missing_sample`] marker.
pub fn is_missing(sample: &GpuMetricSample) -> bool {
    sample.sm_util.is_nan()
}

/// Whether any power field of any per-GPU aggregate is non-finite.
pub fn has_nan_power(record: &GpuJobRecord) -> bool {
    record.per_gpu.iter().any(|a| {
        !a.power_w.min.is_finite() || !a.power_w.mean.is_finite() || !a.power_w.max.is_finite()
    })
}

/// Whether any per-GPU power maximum exceeds the board limit by more
/// than the detector's 5% guard band. Clean synthesis clamps power at
/// TDP, so this never fires on uncorrupted data.
pub fn has_power_spike(record: &GpuJobRecord) -> bool {
    record
        .per_gpu
        .iter()
        .any(|a| a.power_w.max.is_finite() && a.power_w.max > crate::gpu_power::V100_TDP_W * 1.05)
}

/// Repairs a power aggregate from the job's utilization aggregates via
/// the linear V100 power model — the imputation the ingest stage uses
/// for NaN readings and spike clamping.
pub fn impute_power(agg: &GpuAggregates) -> crate::aggregate::Aggregate {
    let model = |sm: f64, mem: f64, msz: f64| {
        (crate::gpu_power::V100_IDLE_W + 1.3 * sm + 0.7 * mem + 0.3 * msz)
            .clamp(crate::gpu_power::V100_IDLE_W, crate::gpu_power::V100_TDP_W)
    };
    crate::aggregate::Aggregate {
        min: model(agg.sm_util.min, agg.mem_util.min, agg.mem_size_util.min),
        mean: model(agg.sm_util.mean, agg.mem_util.mean, agg.mem_size_util.mean),
        max: model(agg.sm_util.max, agg.mem_util.max, agg.mem_size_util.max),
        count: agg.power_w.count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::GpuAggregates;
    use crate::record::{ExitStatus, SubmissionInterface, UserId};

    fn sched(id: u64, submit: f64, start: f64, end: f64, gpus: u32) -> SchedulerRecord {
        SchedulerRecord {
            job_id: JobId(id),
            user: UserId(id as u32 % 7),
            interface: SubmissionInterface::Other,
            gpus_requested: gpus,
            cpus_requested: 4,
            mem_requested_gib: 16.0,
            submit_time: submit,
            start_time: start,
            end_time: end,
            time_limit: 86_400.0,
            exit: ExitStatus::Completed,
        }
    }

    fn gpu_record(id: u64, secs: f64) -> GpuJobRecord {
        let mut agg = GpuAggregates::new();
        let count = (secs / 0.1).ceil() as u64;
        for field in [
            &mut agg.sm_util,
            &mut agg.mem_util,
            &mut agg.mem_size_util,
            &mut agg.pcie_tx,
            &mut agg.pcie_rx,
        ] {
            *field = crate::aggregate::Aggregate { min: 5.0, mean: 30.0, max: 80.0, count };
        }
        agg.power_w = crate::aggregate::Aggregate { min: 25.0, mean: 80.0, max: 200.0, count };
        GpuJobRecord { job_id: JobId(id), per_gpu: vec![agg] }
    }

    fn small_dataset(n: u64) -> Dataset {
        let mut s = Vec::new();
        let mut g = Vec::new();
        for i in 0..n {
            let submit = i as f64 * 10.0;
            let run = 120.0 + i as f64;
            let gpus = if i % 3 == 0 { 0 } else { 1 };
            s.push(sched(i, submit, submit + 5.0, submit + 5.0 + run, gpus));
            if gpus > 0 {
                g.push(gpu_record(i, run));
            }
        }
        Dataset::join(s, g)
    }

    #[test]
    fn profile_parse_round_trips() {
        for p in DataQualityProfile::ALL {
            assert_eq!(DataQualityProfile::parse(p.label()), Some(p));
        }
        assert_eq!(DataQualityProfile::parse("dirty"), None);
    }

    #[test]
    fn fault_class_indices_match_all_order() {
        for (i, c) in FaultClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn off_profile_injects_nothing() {
        let ds = small_dataset(50);
        let raw = Corruptor::new(DataQualityProfile::Off, 7).corrupt(&ds);
        let clean = RawCollection::from_dataset(&ds);
        assert_eq!(raw, clean);
        assert_eq!(raw.injected.total(), 0);
    }

    #[test]
    fn corruption_is_deterministic() {
        let ds = small_dataset(200);
        let a = Corruptor::new(DataQualityProfile::Lossy, 42).corrupt(&ds);
        let b = Corruptor::new(DataQualityProfile::Lossy, 42).corrupt(&ds);
        // Debug formatting is NaN-stable, unlike `PartialEq` on the
        // truncated (NaN end time) records.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = Corruptor::new(DataQualityProfile::Lossy, 43).corrupt(&ds);
        assert_ne!(a.injected, c.injected);
    }

    #[test]
    fn lossy_injects_every_record_class() {
        let ds = small_dataset(2000);
        let raw = Corruptor::new(DataQualityProfile::Lossy, 42).corrupt(&ds);
        for class in [
            FaultClass::DuplicateRecord,
            FaultClass::MissingEpilog,
            FaultClass::TruncatedEpilog,
            FaultClass::ClockSkew,
            FaultClass::OutOfOrder,
            FaultClass::NanPower,
            FaultClass::PowerSpike,
        ] {
            assert!(raw.injected.get(class) > 0, "no {class} faults at n=2000");
        }
    }

    #[test]
    fn skew_is_always_detectable() {
        let ds = small_dataset(500);
        let raw = Corruptor::new(DataQualityProfile::Lossy, 1).corrupt(&ds);
        let skewed = raw
            .sched
            .iter()
            .filter(|r| r.start_time.is_finite() && r.start_time < r.submit_time - 1e-9)
            .count() as u64;
        assert_eq!(skewed, raw.injected.get(FaultClass::ClockSkew));
    }

    #[test]
    fn out_of_order_ledger_matches_detector_definition() {
        let ds = small_dataset(500);
        let raw = Corruptor::new(DataQualityProfile::Lossy, 9).corrupt(&ds);
        assert_eq!(out_of_order_count(&raw.sched), raw.injected.get(FaultClass::OutOfOrder));
        assert!(raw.injected.get(FaultClass::OutOfOrder) > 0);
    }

    #[test]
    fn series_corruption_marks_recoverable_runs() {
        let samples: Vec<GpuMetricSample> = (0..2000)
            .map(|i| GpuMetricSample { sm_util: i as f64 % 100.0, ..Default::default() })
            .collect();
        let mut series = GpuTimeSeries { period_secs: 1.0, per_gpu: vec![samples] };
        let corr = Corruptor::new(DataQualityProfile::Hostile, 5);
        let injected = corr.corrupt_series(&mut series, JobId(11));
        assert!(injected.get(FaultClass::DroppedWindow) > 0, "no windows dropped");
        // Count maximal NaN runs: they must equal the injected windows.
        let mut runs = 0u64;
        let mut in_run = false;
        for s in &series.per_gpu[0] {
            if is_missing(s) {
                if !in_run {
                    runs += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
            }
        }
        assert_eq!(runs, injected.get(FaultClass::DroppedWindow));
    }

    #[test]
    fn power_imputation_stays_in_model_range() {
        let g = gpu_record(1, 100.0);
        let imputed = impute_power(&g.per_gpu[0]);
        assert!(imputed.min >= crate::gpu_power::V100_IDLE_W);
        assert!(imputed.max <= crate::gpu_power::V100_TDP_W);
        assert!(imputed.min <= imputed.mean && imputed.mean <= imputed.max);
        assert_eq!(imputed.count, g.per_gpu[0].power_w.count);
    }

    #[test]
    fn records_equivalent_is_nan_aware() {
        let mut a = sched(1, 0.0, 1.0, 2.0, 1);
        let mut b = a.clone();
        assert!(records_equivalent(&a, &b));
        a.end_time = f64::NAN;
        b.end_time = f64::NAN;
        assert!(records_equivalent(&a, &b));
        b.end_time = 5.0;
        assert!(!records_equivalent(&a, &b));
    }
}
