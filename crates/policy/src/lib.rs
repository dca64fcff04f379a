//! Closed-loop scheduling policies and the deterministic A/B harness.
//!
//! The paper's Section VII opportunity analyses (power capping, GPU
//! sharing, tier routing) are *offline* what-ifs scored against the
//! measured dataset. This crate closes the loop: each opportunity
//! becomes a [`sc_cluster::Policy`] that rides inside the discrete-event
//! loop and changes what the simulated cluster actually does, and
//! [`PolicyExperiment`] replays the *same* seeded trace twice — once as
//! the production baseline, once with the policy — to measure the deltas
//! the analytic models only predict.
//!
//! - [`PowerCapPolicy`]: per-GPU power-cap enforcement; capped jobs
//!   stretch by the [`sc_opportunity::powercap`] DVFS slowdown model and
//!   report capped telemetry.
//! - [`CosharePolicy`]: packs predicted-low-utilization single-GPU jobs
//!   two per GPU, with interference drawn from the
//!   [`sc_opportunity::colocation`] phase-overlap model.
//! - [`TieredPolicy`]: routes jobs between fast and slow tiers by
//!   lifecycle class using [`sc_opportunity::tiering::RoutingPolicy`].
//! - [`PredictedClassPolicy`]: wraps any of the above and replaces each
//!   job's ground-truth labels with an `sc-learn` classifier's
//!   predictions, so an A/B against the oracle-label arm isolates the
//!   cost of classifier error.
//!
//! Every policy is a pure function of the simulation state it observes
//! (ground truth is regenerated from per-job seeds), so policy runs are
//! byte-identical at any `sc_par` thread budget.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coshare;
pub mod experiment;
pub mod powercap;
pub mod predicted;
pub mod tiered;

pub use coshare::{shareable_archetype, CosharePolicy, ShareGate};
pub use experiment::{ExperimentResult, PolicyExperiment};
pub use powercap::PowerCapPolicy;
pub use predicted::{lifecycle_for_archetype, PredictedClassPolicy};
pub use tiered::TieredPolicy;

use sc_cluster::{ClusterSpec, Policy};
use sc_opportunity::tiering::RoutingPolicy;

/// A parsed `--policy` selection, as accepted by `repro_figures`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// No policy: the A/B harness runs two identical baselines.
    Off,
    /// Enforce a per-GPU power cap, watts.
    PowerCap {
        /// The cap, watts.
        cap_w: f64,
    },
    /// Pack low-utilization single-GPU jobs two per GPU.
    Coshare,
    /// Route non-mature classes to a slow tier (the harness gives both
    /// arms the same two-tier hardware so only routing differs).
    Tiered,
    /// Label-gated co-sharing driven by a classifier's *predicted*
    /// archetypes instead of ground truth. The experiment harness also
    /// runs the oracle-label arm so the report can show what classifier
    /// error costs.
    CosharePredicted,
}

impl PolicySpec {
    /// The standard what-if arms a query service exposes: the power cap
    /// that actually bites this workload (mean board power sits far
    /// below TDP, so 250 W throttles nothing), co-sharing, and tier
    /// routing. [`PolicySpec::Off`] is excluded — an off arm is two
    /// identical baselines, not a what-if.
    pub const STANDARD_ARMS: [PolicySpec; 3] =
        [PolicySpec::PowerCap { cap_w: 150.0 }, PolicySpec::Coshare, PolicySpec::Tiered];

    /// Parses a CLI selector: `off`, `powercap:<watts>`, `coshare`, or
    /// `tiered`.
    pub fn parse(s: &str) -> Result<PolicySpec, String> {
        match s {
            "off" => Ok(PolicySpec::Off),
            "coshare" => Ok(PolicySpec::Coshare),
            "coshare-predicted" => Ok(PolicySpec::CosharePredicted),
            "tiered" => Ok(PolicySpec::Tiered),
            _ => {
                if let Some(w) = s.strip_prefix("powercap:") {
                    let cap_w: f64 =
                        w.parse().map_err(|_| format!("bad watts in --policy {s:?}"))?;
                    if !cap_w.is_finite() || cap_w <= 0.0 {
                        return Err(format!("--policy powercap needs positive watts, got {w}"));
                    }
                    Ok(PolicySpec::PowerCap { cap_w })
                } else {
                    Err(format!(
                        "unknown policy {s:?}: expected off | powercap:<watts> | coshare | \
                         coshare-predicted | tiered"
                    ))
                }
            }
        }
    }

    /// Display label (`powercap:250` style; watts rounded).
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Off => "off".to_string(),
            PolicySpec::PowerCap { cap_w } => format!("powercap:{}", cap_w.round() as i64),
            PolicySpec::Coshare => "coshare".to_string(),
            PolicySpec::CosharePredicted => "coshare-predicted".to_string(),
            PolicySpec::Tiered => "tiered".to_string(),
        }
    }

    /// Builds the policy object, or `None` for [`PolicySpec::Off`].
    ///
    /// `cluster` must be the spec the simulation will actually run with
    /// (tier routing reads its slow-tier layout).
    ///
    /// # Panics
    ///
    /// Panics for [`PolicySpec::CosharePredicted`], which needs a trace
    /// to train its classifier on — use
    /// [`PolicyExperiment::run`], which trains the predictor
    /// and runs the oracle arm alongside.
    pub fn build(&self, cluster: &ClusterSpec) -> Option<Box<dyn Policy>> {
        match *self {
            PolicySpec::Off => None,
            PolicySpec::PowerCap { cap_w } => Some(Box::new(PowerCapPolicy::new(cap_w))),
            PolicySpec::Coshare => Some(Box::new(CosharePolicy::default())),
            PolicySpec::CosharePredicted => {
                panic!("coshare-predicted trains on a trace; run it through PolicyExperiment")
            }
            PolicySpec::Tiered => {
                Some(Box::new(TieredPolicy::new(RoutingPolicy::DemoteNonMature, cluster.clone())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_cli_matrix() {
        assert_eq!(PolicySpec::parse("off").unwrap(), PolicySpec::Off);
        assert_eq!(PolicySpec::parse("coshare").unwrap(), PolicySpec::Coshare);
        assert_eq!(PolicySpec::parse("tiered").unwrap(), PolicySpec::Tiered);
        assert_eq!(
            PolicySpec::parse("powercap:250").unwrap(),
            PolicySpec::PowerCap { cap_w: 250.0 }
        );
        assert_eq!(PolicySpec::parse("powercap:250").unwrap().label(), "powercap:250");
    }

    #[test]
    fn standard_arm_labels_round_trip_through_parse() {
        // Query tokens are built from labels, so every standard arm's
        // label must parse back to the same spec.
        for arm in PolicySpec::STANDARD_ARMS {
            assert_eq!(PolicySpec::parse(&arm.label()).unwrap(), arm, "{}", arm.label());
        }
    }

    #[test]
    fn predicted_label_round_trips_but_build_needs_a_trace() {
        assert_eq!(PolicySpec::parse("coshare-predicted").unwrap(), PolicySpec::CosharePredicted);
        assert_eq!(PolicySpec::CosharePredicted.label(), "coshare-predicted");
        let built = std::panic::catch_unwind(|| {
            PolicySpec::CosharePredicted.build(&ClusterSpec::supercloud())
        });
        assert!(built.is_err(), "building without a trace must panic");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PolicySpec::parse("powercap:banana").is_err());
        assert!(PolicySpec::parse("powercap:-5").is_err());
        assert!(PolicySpec::parse("powercap:0").is_err());
        assert!(PolicySpec::parse("turbo").is_err());
    }

    #[test]
    fn build_matches_spec() {
        let cluster = ClusterSpec::supercloud();
        assert!(PolicySpec::Off.build(&cluster).is_none());
        assert_eq!(
            PolicySpec::PowerCap { cap_w: 250.0 }.build(&cluster).unwrap().name(),
            "powercap"
        );
        assert_eq!(PolicySpec::Coshare.build(&cluster).unwrap().name(), "coshare");
        assert_eq!(PolicySpec::Tiered.build(&cluster).unwrap().name(), "tiered");
    }
}
