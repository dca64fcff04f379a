//! Declarative scenario DSL for the Supercloud reproduction.
//!
//! A scenario is one TOML file — cluster shape, workload preset with
//! overrides, arrival process, failure profile, data-quality profile,
//! and policy arm — parsed into a validated [`Scenario`] with typed
//! line/field diagnostics ([`ScenarioError`]) instead of panics. Four
//! presets ship under `scenarios/` and are embedded at compile time:
//!
//! | preset | system | arrivals | failures |
//! |---|---|---|---|
//! | `supercloud` | the paper's cluster, flag-default-identical | diurnal | off |
//! | `philly` | Microsoft's batch DNN-training baseline | diurnal | supercloud |
//! | `nersc` | an open-science HPC centre | up-and-down | supercloud |
//! | `in2p3` | a HEP grid site | spikes | transient |
//!
//! Every binary builds its run from a scenario — the `supercloud`
//! preset unless told otherwise, with CLI flags overriding single
//! fields — so `repro_figures --scenario supercloud` and a bare
//! `repro_figures` are the same run, at any thread budget.
//! [`CrossSystemFig`] runs any set of scenarios through the identical
//! pipeline and tabulates headline metrics side by side.
//!
//! # Example
//!
//! ```
//! use sc_scenario::Scenario;
//!
//! let s = Scenario::preset("supercloud").expect("committed preset");
//! assert_eq!(s.workload_spec(), sc_workload::WorkloadSpec::supercloud());
//!
//! let err = Scenario::parse("[scenario]\nname = \"x\"\nscale = -2.0\n").unwrap_err();
//! assert_eq!(err.line, 3); // typed diagnostics, never panics
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cross;
pub mod error;
pub mod preset;
pub mod scenario;
pub mod toml;

pub use cross::{CrossSystemFig, SystemRow};
pub use error::{ErrorKind, ScenarioError};
pub use scenario::{
    ClusterScenario, FailureScenario, ReliabilityScenario, Scenario, WorkloadScenario,
};
