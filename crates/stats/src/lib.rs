//! Statistics substrate for the Supercloud characterization study.
//!
//! The HPCA 2022 paper analyzed its 42 GB dataset with the SciPy stack
//! (Pandas, NumPy, Matplotlib). This crate provides the equivalent
//! primitives in Rust, implemented from scratch:
//!
//! - [`Ecdf`]: empirical cumulative distribution functions with quantile
//!   inversion — the paper's dominant presentation device.
//! - [`descriptive`]: means, standard deviations, percentiles, and the
//!   coefficient of variation (CoV) used throughout Secs. III–V.
//! - [`BoxStats`]: five-number box-plot summaries (Figs. 5 and 16).
//! - [`correlation`]: Spearman rank correlation with p-values (Fig. 12).
//! - [`Histogram`]: linear- and log-binned histograms.
//! - [`lorenz`]: Lorenz curves, Gini coefficients, and top-*k*% shares
//!   (the "top 5% of users submit 44% of jobs" Pareto analysis).
//! - [`segment`]: run-length segmentation of time series into active and
//!   idle intervals (Fig. 6), batch or incremental ([`SegmentBuilder`]).
//! - [`streaming`]: one-pass mergeable aggregators (Welford
//!   mean/variance, log-bucket quantile sketch, mergeable histogram)
//!   backing the streaming telemetry collector.
//! - [`hash`]: the workspace's deterministic hashes (MurmurHash3
//!   finalizer, FNV-1a digest).
//! - [`dist`]: parametric distributions (lognormal, Pareto, beta, …)
//!   built on [`rand`]'s uniform source, used by the workload generator.
//!
//! # Example
//!
//! ```
//! use sc_stats::Ecdf;
//!
//! let runtimes = vec![4.0, 8.0, 30.0, 120.0, 300.0];
//! let cdf = Ecdf::new(runtimes).expect("non-empty, finite data");
//! assert_eq!(cdf.quantile(0.5), 30.0);
//! assert!(cdf.fraction_at_most(100.0) >= 0.6);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface degenerate inputs as typed errors, not
// panics; tests are exempt (unwrap there is an assertion).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod autocorr;
pub mod bootstrap;
pub mod boxplot;
pub mod correlation;
pub mod descriptive;
pub mod dist;
pub mod ecdf;
pub mod error;
pub mod hash;
pub mod histogram;
pub mod kstest;
pub mod lorenz;
pub mod segment;
pub mod streaming;

pub use autocorr::{acf, autocorrelation, decorrelation_lag, moving_average};
pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use boxplot::BoxStats;
pub use correlation::{pearson, spearman, SpearmanResult};
pub use descriptive::{coefficient_of_variation, mean, percentile, std_dev, Summary};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use histogram::Histogram;
pub use kstest::{ks_two_sample, KsResult};
pub use lorenz::Lorenz;
pub use segment::{segment_intervals, Interval, IntervalKind, SegmentBuilder, Segmentation};
pub use streaming::{LogQuantileSketch, MergeHistogram, Welford};
