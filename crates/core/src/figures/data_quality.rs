//! Data-quality report — what lossy collection does to the paper's
//! headline statistics, and how much of it the ingest stage repairs.
//!
//! Not a paper figure: the HPCA 2022 dataset was collected by a real
//! monitoring pipeline that silently dropped windows, truncated series
//! and duplicated records (Sec. II describes the collection plumbing).
//! This figure quantifies that threat on the synthetic twin: corrupt
//! the clean dataset with a seeded [`sc_telemetry::corruption`]
//! profile, push it through [`mod@crate::ingest`], and compare the
//! recovered headline statistics against the clean ones.

use crate::figures::fig13::SizeBucket;
use crate::ingest::{corrupt_and_ingest, DataQualityError, IngestReport, SeriesStudy};
use crate::pipeline::{DatasetReport, PipelineError};
use sc_obs::Obs;
use sc_telemetry::corruption::{CorruptionCounters, DataQualityProfile, FaultClass};
use sc_telemetry::Dataset;
use sc_workload::LifecycleClass;

/// The round-trip stage that failed. Displays as the underlying error;
/// [`RoundTripError::stage`] names the stage.
#[derive(Debug)]
pub enum RoundTripError {
    /// The figure pipeline on the clean dataset.
    Clean(PipelineError),
    /// Corruption plus the hardened ingest.
    Ingest(DataQualityError),
    /// The figure pipeline on the recovered dataset.
    Recovered(PipelineError),
}

impl RoundTripError {
    /// The failed stage: `clean pipeline`, `ingest` or `recovered
    /// pipeline`.
    pub fn stage(&self) -> &'static str {
        match self {
            RoundTripError::Clean(_) => "clean pipeline",
            RoundTripError::Ingest(_) => "ingest",
            RoundTripError::Recovered(_) => "recovered pipeline",
        }
    }
}

impl std::fmt::Display for RoundTripError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundTripError::Clean(e) | RoundTripError::Recovered(e) => e.fmt(f),
            RoundTripError::Ingest(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RoundTripError {}

/// One headline statistic, clean vs recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// The statistic (matches the figure it comes from).
    pub metric: &'static str,
    /// Value on the clean dataset.
    pub clean: f64,
    /// Value on the corrupted-then-repaired dataset.
    pub recovered: f64,
}

impl DeltaRow {
    /// Percent deviation of recovered from clean (0 for a ~zero clean
    /// value).
    pub fn delta_pct(&self) -> f64 {
        if self.clean.abs() < 1e-12 {
            0.0
        } else {
            (self.recovered - self.clean) / self.clean * 100.0
        }
    }
}

/// The full data-quality report: injection ledger, repair ledger, and
/// per-figure recovered-vs-clean deltas.
#[derive(Debug, Clone)]
pub struct DataQualityFig {
    /// The injection profile label (`supercloud`, `lossy`, `hostile`).
    pub profile: String,
    /// What the corruptor injected, per fault class.
    pub injected: CorruptionCounters,
    /// The ingest stage's detection/repair/quarantine ledger.
    pub report: IngestReport,
    /// Headline statistics, clean vs recovered, in figure order.
    pub deltas: Vec<DeltaRow>,
    /// The time-series micro-study (window drops and tail truncation
    /// repaired inside the 100 ms series), when run.
    pub series: Option<SeriesStudy>,
}

impl DataQualityFig {
    /// The whole round trip: corrupt `clean` with `profile` (seeded by
    /// `seed`), repair it through the hardened ingest (emitting its
    /// decisions into `obs`), and compare the figure pipeline on both
    /// datasets. The series micro-study is left unset.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as a [`RoundTripError`].
    pub fn round_trip(
        clean: &Dataset,
        profile: DataQualityProfile,
        seed: u64,
        obs: &Obs,
    ) -> Result<Self, RoundTripError> {
        let clean_report = DatasetReport::try_from_dataset(clean).map_err(RoundTripError::Clean)?;
        let (ingested, injected) =
            corrupt_and_ingest(clean, profile, seed, obs).map_err(RoundTripError::Ingest)?;
        let recovered = DatasetReport::try_from_dataset(&ingested.dataset)
            .map_err(RoundTripError::Recovered)?;
        Ok(Self::compute(profile.label(), injected, ingested.report, &clean_report, &recovered))
    }

    /// Builds the report from the two pipeline runs and the ledgers,
    /// with no series micro-study.
    pub fn compute(
        profile: &str,
        injected: CorruptionCounters,
        report: IngestReport,
        clean: &DatasetReport,
        recovered: &DatasetReport,
    ) -> Self {
        let row = |metric, c: f64, r: f64| DeltaRow { metric, clean: c, recovered: r };
        let deltas = vec![
            row(
                "GPU run time p25 (min)",
                clean.fig3.gpu_runtime_min.quantile(0.25),
                recovered.fig3.gpu_runtime_min.quantile(0.25),
            ),
            row(
                "GPU run time median (min)",
                clean.fig3.gpu_runtime_min.median(),
                recovered.fig3.gpu_runtime_min.median(),
            ),
            row(
                "GPU run time p75 (min)",
                clean.fig3.gpu_runtime_min.quantile(0.75),
                recovered.fig3.gpu_runtime_min.quantile(0.75),
            ),
            row("SM util median (%)", clean.fig4.sm.median(), recovered.fig4.sm.median()),
            row("mem util median (%)", clean.fig4.mem.median(), recovered.fig4.mem.median()),
            row(
                "job-avg power median (W)",
                clean.fig9.avg_power.median(),
                recovered.fig9.avg_power.median(),
            ),
            row(
                "job-max power median (W)",
                clean.fig9.max_power.median(),
                recovered.fig9.max_power.median(),
            ),
            row(
                "mature job share",
                clean.fig15.share(LifecycleClass::Mature).job_share,
                recovered.fig15.share(LifecycleClass::Mature).job_share,
            ),
            row(
                "single-GPU job share",
                clean.fig13.row(SizeBucket::One).job_share,
                recovered.fig13.row(SizeBucket::One).job_share,
            ),
            row(
                "top-5% users' job share",
                clean.fig10.top5_job_share,
                recovered.fig10.top5_job_share,
            ),
        ];
        DataQualityFig { profile: profile.to_string(), injected, report, deltas, series: None }
    }

    /// Whether the ledger balances: every injected fault was detected,
    /// and every detected fault was either repaired or quarantined.
    pub fn balanced(&self) -> bool {
        self.report.balances_against(&self.injected)
    }

    /// Largest absolute headline deviation, percent.
    pub fn max_abs_delta_pct(&self) -> f64 {
        self.deltas.iter().map(|d| d.delta_pct().abs()).fold(0.0, f64::max)
    }

    /// Renders the ledgers and the delta table as text.
    pub fn render(&self) -> String {
        let mut s =
            format!("DataQuality — profile {} (corrupt -> ingest -> re-analyze):\n", self.profile);
        s.push_str("  injected faults:\n");
        for class in FaultClass::ALL {
            if self.injected.get(class) > 0 {
                s.push_str(&format!("    {:<18} {:>8}\n", class.label(), self.injected.get(class)));
            }
        }
        for line in self.report.render().lines() {
            s.push_str(&format!("  {line}\n"));
        }
        s.push_str(&format!("  ledger balanced: {}\n", if self.balanced() { "yes" } else { "NO" }));
        s.push_str("  headline statistics, clean vs recovered:\n");
        s.push_str("    metric                         clean  recovered    delta\n");
        for d in &self.deltas {
            s.push_str(&format!(
                "    {:<28} {:>8.2}  {:>9.2}  {:>+6.1}%\n",
                d.metric,
                d.clean,
                d.recovered,
                d.delta_pct()
            ));
        }
        if let Some(study) = &self.series {
            s.push_str(&format!(
                "  series micro-study: {} jobs, {} faults repaired ({} samples imputed, {} \
                 appended), mean active fraction {:.3} -> {:.3} (max |delta| {:.3})\n",
                study.jobs,
                study.repaired.total(),
                study.imputed_samples,
                study.appended_samples,
                study.mean_active_clean,
                study.mean_active_recovered,
                study.max_abs_active_delta
            ));
        }
        s
    }

    /// The recovered-vs-clean delta bars as an SVG document.
    pub fn to_svg(&self) -> String {
        let bars: Vec<(String, f64)> =
            self.deltas.iter().map(|d| (d.metric.to_string(), d.delta_pct())).collect();
        crate::svg::bar_chart(
            &format!("Data quality: recovered vs clean ({} profile)", self.profile),
            "recovered deviation from clean (%)",
            &bars,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    fn lossy_fig() -> DataQualityFig {
        DataQualityFig::round_trip(&small_sim().dataset, DataQualityProfile::Lossy, 42, &Obs::off())
            .expect("lossy round trip succeeds")
    }

    #[test]
    fn lossy_round_trip_balances_and_stays_close() {
        let fig = lossy_fig();
        assert!(fig.balanced(), "ledger must balance");
        // The repair pipeline's whole point: headline statistics land
        // near the clean values even under 10% window loss and 3%
        // missing epilogs.
        assert!(
            fig.max_abs_delta_pct() < 15.0,
            "max headline delta {:.1}%",
            fig.max_abs_delta_pct()
        );
    }

    #[test]
    fn render_and_svg_carry_the_ledger() {
        let fig = lossy_fig();
        let text = fig.render();
        assert!(text.contains("ledger balanced: yes"));
        assert!(text.contains("clean vs recovered"));
        let svg = fig.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("recovered deviation from clean"));
    }
}
