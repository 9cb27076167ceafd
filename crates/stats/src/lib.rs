//! # stats — measurement toolkit for the buffer-sizing experiments
//!
//! Pure-Rust statistics used by the *Sizing Router Buffers* reproduction:
//!
//! * [`Welford`] — streaming mean/variance (numerically stable), used for
//!   utilization and window-sum summaries;
//! * [`Histogram`] — fixed-bin histograms with CDF export, used for the
//!   aggregate-window distribution of Figure 6 and queue distributions;
//! * [`TimeSeries`] — `(t, value)` series with time-weighted averaging and
//!   downsampling for the Figure 3–5 plots;
//! * [`gaussian`] — `erf`/`Φ`/`Φ⁻¹` and a normal fit with a goodness-of-fit
//!   measure (Figure 6 compares the window-sum distribution to a normal);
//! * [`mod@quantile`] — exact small-sample quantiles;
//! * [`fct`] — flow-completion-time aggregation (AFCT, per-size breakdowns)
//!   for Figures 8 and 9.

#![warn(missing_docs)]
pub mod fct;
pub mod gaussian;
pub mod histogram;
pub mod quantile;
pub mod summary;
pub mod timeseries;
pub mod welford;

pub use fct::FctCollector;
pub use gaussian::{ks_statistic, normal_cdf, normal_pdf, normal_quantile, GaussianFit};
pub use histogram::Histogram;
pub use quantile::quantile;
pub use summary::SeriesSummary;
pub use timeseries::TimeSeries;
pub use welford::Welford;
