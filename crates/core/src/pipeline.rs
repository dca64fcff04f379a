//! The end-to-end analysis pipeline: one call from a simulation output
//! to every figure of the paper.

use crate::figures::*;
use crate::report::{markdown_table, Comparison};
use crate::userstats::{user_stats, UserStats};
use crate::view::gpu_views;
use sc_cluster::{ClusterSpec, SimOutput};
use sc_obs::StageLog;
use sc_stats::StatsError;
use sc_telemetry::dataset::DatasetFunnel;

/// A figure stage failed on a degenerate input. Carries the stage name
/// so a pipeline over repaired (possibly thinned) data can report
/// *which* figure could not be computed instead of unwinding.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineError {
    /// The pipeline stage ("fig3" … "fig17", "goodput", "timeline").
    pub stage: &'static str,
    /// The underlying statistics error.
    pub source: StatsError,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline stage {}: {}", self.stage, self.source)
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Unwraps one fan-out slot, tagging a figure error with its stage.
fn take<T>(slot: Option<Result<T, StatsError>>, stage: &'static str) -> Result<T, PipelineError> {
    slot.expect("fan-out task ran").map_err(|source| PipelineError { stage, source })
}

/// Every figure of the paper, computed from one simulation run.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Table I rows.
    pub table1: Vec<(String, String)>,
    /// Dataset funnel (Sec. II).
    pub funnel: DatasetFunnel,
    /// Fig. 3 — run times and queue waits.
    pub fig3: Fig3,
    /// Fig. 4 — utilization CDFs.
    pub fig4: Fig4,
    /// Fig. 5 — utilization by interface.
    pub fig5: Fig5,
    /// Fig. 6 — active/idle phases.
    pub fig6: Fig6,
    /// Fig. 7 — variability and bottleneck radar.
    pub fig7: Fig7,
    /// Fig. 8 — bottleneck combinations.
    pub fig8: Fig8,
    /// Fig. 9 — power.
    pub fig9: Fig9,
    /// Fig. 10 — per-user averages.
    pub fig10: Fig10,
    /// Fig. 11 — per-user variability.
    pub fig11: Fig11,
    /// Fig. 12 — activity correlations.
    pub fig12: Fig12,
    /// Fig. 13 — multi-GPU sizes.
    pub fig13: Fig13,
    /// Fig. 14 — cross-GPU balance.
    pub fig14: Fig14,
    /// Fig. 15 — lifecycle mix.
    pub fig15: Fig15,
    /// Fig. 16 — utilization by class.
    pub fig16: Fig16,
    /// Fig. 17 — per-user lifecycle structure.
    pub fig17: Fig17,
    /// Goodput and failure attribution (reliability extension; not a
    /// paper figure).
    pub goodput: GoodputFig,
    /// Cluster state over the run (observability extension; not a
    /// paper figure).
    pub timeline: ClusterTimelineFig,
    /// The per-user statistics the user-level figures were computed
    /// from.
    pub users: Vec<UserStats>,
}

impl AnalysisReport {
    /// Computes every figure from a simulation output.
    ///
    /// # Panics
    ///
    /// Panics if the output lacks the populations a figure needs (e.g.
    /// no multi-GPU jobs, no detailed subset) — run a large enough
    /// trace.
    pub fn from_sim(out: &SimOutput) -> Self {
        Self::from_sim_logged(out, &StageLog::new())
    }

    /// Like [`AnalysisReport::from_sim`], recording a wall-clock span
    /// per pipeline stage (view building, user stats, each figure)
    /// into `log` — the substrate of the Chrome trace export. The
    /// report itself is identical to `from_sim`'s.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`AnalysisReport::from_sim`].
    pub fn from_sim_logged(out: &SimOutput, log: &StageLog) -> Self {
        match Self::try_from_sim_logged(out, log) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// The `Result`-based core of the pipeline: computes every figure,
    /// recording one span per stage, and surfaces the first degenerate
    /// input as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as a [`PipelineError`].
    pub fn try_from_sim_logged(out: &SimOutput, log: &StageLog) -> Result<Self, PipelineError> {
        let views = log.time("gpu_views", || gpu_views(&out.dataset));
        let users = log.time("user_stats", || user_stats(&views));
        // The figure computations are independent of each other; fan
        // them out over the sc-par thread budget. Each task writes its
        // own slot, so no figure depends on task scheduling order.
        let mut fig3 = None;
        let mut fig4 = None;
        let mut fig5 = None;
        let mut fig6 = None;
        let mut fig7 = None;
        let mut fig8 = None;
        let mut fig9 = None;
        let mut fig10 = None;
        let mut fig11 = None;
        let mut fig12 = None;
        let mut fig13 = None;
        let mut fig14 = None;
        let mut fig15 = None;
        let mut fig16 = None;
        let mut fig17 = None;
        let mut goodput = None;
        let mut timeline = None;
        {
            let (views, users, detailed) = (&views, &users, &out.detailed);
            sc_par::run_tasks(vec![
                Box::new(|| fig3 = Some(log.time("fig03", || Fig3::try_compute(&out.dataset)))),
                Box::new(|| fig4 = Some(log.time("fig04", || Fig4::try_compute(views)))),
                Box::new(|| fig5 = Some(log.time("fig05", || Fig5::try_compute(views)))),
                Box::new(|| fig6 = Some(log.time("fig06", || Fig6::try_compute(detailed)))),
                Box::new(|| fig7 = Some(log.time("fig07", || Fig7::try_compute(detailed, views)))),
                Box::new(|| fig8 = Some(log.time("fig08", || Fig8::try_compute(views)))),
                Box::new(|| fig9 = Some(log.time("fig09", || Fig9::try_compute(views)))),
                Box::new(|| fig10 = Some(log.time("fig10", || Fig10::try_compute(users)))),
                Box::new(|| fig11 = Some(log.time("fig11", || Fig11::try_compute(users)))),
                Box::new(|| fig12 = Some(log.time("fig12", || Fig12::try_compute(users)))),
                Box::new(|| fig13 = Some(log.time("fig13", || Fig13::try_compute(views, users)))),
                Box::new(|| fig14 = Some(log.time("fig14", || Fig14::try_compute(views)))),
                Box::new(|| fig15 = Some(log.time("fig15", || Fig15::try_compute(views)))),
                Box::new(|| fig16 = Some(log.time("fig16", || Fig16::try_compute(views)))),
                Box::new(|| fig17 = Some(log.time("fig17", || Fig17::try_compute(users)))),
                Box::new(|| goodput = Some(log.time("goodput", || GoodputFig::try_compute(out)))),
                Box::new(|| {
                    timeline = Some(log.time("timeline", || ClusterTimelineFig::try_compute(out)))
                }),
            ]);
        }
        Ok(AnalysisReport {
            table1: ClusterSpec::supercloud().table1(),
            funnel: out.dataset.funnel(),
            fig3: take(fig3, "fig3")?,
            fig4: take(fig4, "fig4")?,
            fig5: take(fig5, "fig5")?,
            fig6: take(fig6, "fig6")?,
            fig7: take(fig7, "fig7")?,
            fig8: take(fig8, "fig8")?,
            fig9: take(fig9, "fig9")?,
            fig10: take(fig10, "fig10")?,
            fig11: take(fig11, "fig11")?,
            fig12: take(fig12, "fig12")?,
            fig13: take(fig13, "fig13")?,
            fig14: take(fig14, "fig14")?,
            fig15: take(fig15, "fig15")?,
            fig16: take(fig16, "fig16")?,
            fig17: take(fig17, "fig17")?,
            goodput: take(goodput, "goodput")?,
            timeline: take(timeline, "timeline")?,
            users,
        })
    }

    /// All paper-vs-measured comparisons, grouped by figure.
    pub fn all_comparisons(&self) -> Vec<(&'static str, Vec<Comparison>)> {
        vec![
            ("Fig. 3 — run times and queue waits", self.fig3.comparisons()),
            ("Fig. 4 — GPU resource utilization", self.fig4.comparisons()),
            ("Fig. 5 — job-type mix", self.fig5.comparisons()),
            ("Fig. 6 — active/idle phases", self.fig6.comparisons()),
            ("Fig. 7 — variability and bottlenecks", self.fig7.comparisons()),
            ("Fig. 8 — bottleneck combinations", self.fig8.comparisons()),
            ("Fig. 9 — power and power capping", self.fig9.comparisons()),
            ("Fig. 10 — per-user averages", self.fig10.comparisons()),
            ("Fig. 11 — per-user variability", self.fig11.comparisons()),
            ("Fig. 12 — expert-user correlations", self.fig12.comparisons()),
            ("Fig. 13 — multi-GPU jobs", self.fig13.comparisons()),
            ("Fig. 14 — cross-GPU balance", self.fig14.comparisons()),
            ("Fig. 15 — lifecycle mix", self.fig15.comparisons()),
            ("Fig. 16 — utilization by class", self.fig16.comparisons()),
            ("Fig. 17 — per-user lifecycle structure", self.fig17.comparisons()),
            ("Goodput — failure attribution", self.goodput.comparisons()),
        ]
    }

    /// Renders every figure's series as plain text (what the repro
    /// harness prints).
    pub fn render_text(&self) -> String {
        let mut s = String::from("Table I — system specification:\n");
        for (k, v) in &self.table1 {
            s.push_str(&format!("  {k}: {v}\n"));
        }
        s.push_str(&format!(
            "Dataset funnel: {} total jobs, {} CPU jobs, {} GPU jobs analyzed ({} filtered \
             <30 s), {} users\n\n",
            self.funnel.total_jobs,
            self.funnel.cpu_jobs,
            self.funnel.gpu_jobs,
            self.funnel.gpu_jobs_filtered_out,
            self.funnel.unique_users
        ));
        for part in [
            self.fig3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.fig6.render(),
            self.fig7.render(),
            self.fig8.render(),
            self.fig9.render(),
            self.fig10.render(),
            self.fig11.render(),
            self.fig12.render(),
            self.fig13.render(),
            self.fig14.render(),
            self.fig15.render(),
            self.fig16.render(),
            self.fig17.render(),
            self.goodput.render(),
            self.timeline.render(),
        ] {
            s.push_str(&part);
            s.push('\n');
        }
        s
    }

    /// Renders the paper-vs-measured comparison as Markdown (the body
    /// of `EXPERIMENTS.md`).
    pub fn experiments_markdown(&self) -> String {
        let mut s = String::from(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Every table and figure of the HPCA 2022 Supercloud characterization,\n\
             regenerated from the synthetic reproduction. Absolute agreement is not\n\
             expected (the substrate is a calibrated simulator, not the production\n\
             cluster); the *shape* — orderings, who dominates, where the mass sits —\n\
             is the reproduction target. Ratios near 1.00× indicate close agreement.\n\n",
        );
        s.push_str(&format!(
            "## Table I / dataset funnel\n\n\
             | Metric | Paper | Measured |\n|---|---|---|\n\
             | total jobs | 74820 | {} |\n\
             | analyzed GPU jobs | 47120 | {} |\n\
             | unique users | 191 | {} |\n\
             | detailed-series jobs | 2149 | {} |\n\n",
            self.funnel.total_jobs,
            self.funnel.gpu_jobs,
            self.funnel.unique_users,
            "(see harness output)"
        ));
        for (title, rows) in self.all_comparisons() {
            s.push_str(&markdown_table(title, &rows));
            s.push('\n');
        }
        s
    }
}

/// The figures computable from a joined dataset alone — what a consumer
/// of the *published* dataset (the paper's dcc.mit.edu release, our
/// [`sc_telemetry::Dataset::to_json`] export) can regenerate without the
/// 100 ms time-series subset (Figs. 6–7 need that subset and are
/// excluded here).
#[derive(Debug, Clone)]
pub struct DatasetReport {
    /// Fig. 3 — run times and queue waits.
    pub fig3: Fig3,
    /// Fig. 4 — utilization CDFs.
    pub fig4: Fig4,
    /// Fig. 5 — utilization by interface.
    pub fig5: Fig5,
    /// Fig. 8 — bottleneck combinations (from max aggregates).
    pub fig8: Fig8,
    /// Fig. 9 — power.
    pub fig9: Fig9,
    /// Fig. 10 — per-user averages.
    pub fig10: Fig10,
    /// Fig. 11 — per-user variability.
    pub fig11: Fig11,
    /// Fig. 12 — activity correlations.
    pub fig12: Fig12,
    /// Fig. 13 — multi-GPU sizes.
    pub fig13: Fig13,
    /// Fig. 14 — cross-GPU balance.
    pub fig14: Fig14,
    /// Fig. 15 — lifecycle mix.
    pub fig15: Fig15,
    /// Fig. 16 — utilization by class.
    pub fig16: Fig16,
    /// Fig. 17 — per-user lifecycle structure.
    pub fig17: Fig17,
}

impl DatasetReport {
    /// Computes every dataset-only figure, returning a typed error when
    /// a figure's population is missing — as it is for a small exported
    /// dataset, or one that went through [`mod@crate::ingest`] repair
    /// and is thinner than a clean simulation output.
    ///
    /// # Errors
    ///
    /// Returns the first failing stage as a [`PipelineError`].
    pub fn try_from_dataset(dataset: &sc_telemetry::Dataset) -> Result<Self, PipelineError> {
        let views = gpu_views(dataset);
        let users = user_stats(&views);
        // Same fan-out as `AnalysisReport::from_sim`, minus the two
        // figures that need the detailed time-series subset.
        let mut fig3 = None;
        let mut fig4 = None;
        let mut fig5 = None;
        let mut fig8 = None;
        let mut fig9 = None;
        let mut fig10 = None;
        let mut fig11 = None;
        let mut fig12 = None;
        let mut fig13 = None;
        let mut fig14 = None;
        let mut fig15 = None;
        let mut fig16 = None;
        let mut fig17 = None;
        {
            let (views, users) = (&views, &users);
            sc_par::run_tasks(vec![
                Box::new(|| fig3 = Some(Fig3::try_compute(dataset))),
                Box::new(|| fig4 = Some(Fig4::try_compute(views))),
                Box::new(|| fig5 = Some(Fig5::try_compute(views))),
                Box::new(|| fig8 = Some(Fig8::try_compute(views))),
                Box::new(|| fig9 = Some(Fig9::try_compute(views))),
                Box::new(|| fig10 = Some(Fig10::try_compute(users))),
                Box::new(|| fig11 = Some(Fig11::try_compute(users))),
                Box::new(|| fig12 = Some(Fig12::try_compute(users))),
                Box::new(|| fig13 = Some(Fig13::try_compute(views, users))),
                Box::new(|| fig14 = Some(Fig14::try_compute(views))),
                Box::new(|| fig15 = Some(Fig15::try_compute(views))),
                Box::new(|| fig16 = Some(Fig16::try_compute(views))),
                Box::new(|| fig17 = Some(Fig17::try_compute(users))),
            ]);
        }
        Ok(DatasetReport {
            fig3: take(fig3, "fig3")?,
            fig4: take(fig4, "fig4")?,
            fig5: take(fig5, "fig5")?,
            fig8: take(fig8, "fig8")?,
            fig9: take(fig9, "fig9")?,
            fig10: take(fig10, "fig10")?,
            fig11: take(fig11, "fig11")?,
            fig12: take(fig12, "fig12")?,
            fig13: take(fig13, "fig13")?,
            fig14: take(fig14, "fig14")?,
            fig15: take(fig15, "fig15")?,
            fig16: take(fig16, "fig16")?,
            fig17: take(fig17, "fig17")?,
        })
    }

    /// Renders every figure's series as text.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for part in [
            self.fig3.render(),
            self.fig4.render(),
            self.fig5.render(),
            self.fig8.render(),
            self.fig9.render(),
            self.fig10.render(),
            self.fig11.render(),
            self.fig12.render(),
            self.fig13.render(),
            self.fig14.render(),
            self.fig15.render(),
            self.fig16.render(),
            self.fig17.render(),
        ] {
            s.push_str(&part);
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::small_sim;

    #[test]
    fn dataset_report_roundtrips_through_json() {
        // The "published dataset" workflow: export the joined dataset,
        // reload it, and regenerate the dataset-only figures.
        let json = small_sim().dataset.to_json().expect("serializable");
        let dataset = sc_telemetry::Dataset::from_json(&json).expect("parseable");
        let report = DatasetReport::try_from_dataset(&dataset).expect("pipeline");
        let direct = DatasetReport::try_from_dataset(&small_sim().dataset).expect("pipeline");
        assert_eq!(report.fig4.sm.median(), direct.fig4.sm.median());
        assert!(report.render_text().contains("Fig. 15"));
    }

    #[test]
    fn full_pipeline_runs_on_small_trace() {
        let report = AnalysisReport::from_sim(small_sim());
        assert!(!report.users.is_empty());
        assert_eq!(report.all_comparisons().len(), 16);
        let text = report.render_text();
        for marker in ["Table I", "Fig. 3(a)", "Fig. 9(b)", "Fig. 17(b)", "ClusterTimeline"] {
            assert!(text.contains(marker), "missing {marker}");
        }
        let md = report.experiments_markdown();
        assert!(md.contains("# EXPERIMENTS"));
        assert!(md.contains("| Metric | Paper | Measured | Ratio |"));
    }

    #[test]
    fn logged_pipeline_records_a_span_per_stage() {
        let log = StageLog::new();
        let report = AnalysisReport::from_sim_logged(small_sim(), &log);
        assert!(!report.users.is_empty());
        let spans = log.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        for stage in ["gpu_views", "user_stats", "fig03", "fig17", "goodput", "timeline"] {
            assert!(names.contains(&stage), "missing stage {stage} in {names:?}");
        }
        // Views and user stats run before any figure span opens.
        assert_eq!(names[0], "gpu_views");
        assert_eq!(names[1], "user_stats");
        // The spans render to a loadable Chrome trace document.
        let doc = sc_obs::chrome_trace_json(&spans);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"gpu_views\""));
    }
}
