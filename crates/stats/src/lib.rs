//! Statistics utilities for the `eproc` experiment harness.
//!
//! * [`summary`] — descriptive statistics and order-statistic quantiles;
//! * [`online`] — Welford streaming accumulator;
//! * [`regression`] — least-squares fits, in particular `y = c · n ln n`
//!   (the model the paper fits to Figure 1's odd-degree series);
//! * [`scaling`] — competing growth-model fits (`c·m`, `a+b·m`,
//!   `c·n ln n`) with residual-based model selection, the statistical
//!   core of the `eproc scale` size-sweep subsystem;
//! * [`sketch`] — deterministic mergeable quantile sketches (tail
//!   statistics without per-trial buffering);
//! * [`table`] — plain-text/CSV table rendering for the experiment
//!   binaries;
//! * [`seeds`] — SplitMix64 seed derivation so every table cell is
//!   reproducible from one base seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod online;
pub mod regression;
pub mod scaling;
pub mod seeds;
pub mod sketch;
pub mod summary;
pub mod table;

pub use online::OnlineStats;
pub use regression::{try_fit_c_nlogn, try_fit_linear, try_fit_proportional, FitError};
pub use scaling::{fit_growth_models, GrowthModel, GrowthSelection, ModelFit, ScalingPoint};
pub use seeds::SeedSequence;
pub use sketch::{QuantileSketch, SketchRaw};
pub use summary::{EmptySample, Summary};
pub use table::TextTable;
