//! # slingshot-stats
//!
//! Statistics utilities for the Slingshot reproduction: exact sample
//! quantiles with the paper's boxplot whisker definition, latency
//! histograms, time-bucketed rate series, and the Hoefler–Belli style
//! run-until-confident stopping rule the paper uses for its
//! microbenchmarks (implemented here, not yet driven by any sweep).

#![warn(missing_docs)]

mod histogram;
mod sample;
mod stopping;
mod timeseries;

pub use histogram::Histogram;
pub use sample::{BoxSummary, Sample};
pub use stopping::{median_confidence_interval, z_for_confidence, StoppingRule};
pub use timeseries::{GaugePoint, GaugeSeries, RateSeries};
