//! # tabula-viz
//!
//! The visualization substrate of the Tabula reproduction: the analysis
//! tasks the paper's dashboard performs on returned samples (heat maps,
//! linear regression, statistical means), plus timing helpers
//! so the benchmark harness can report the paper's *data-to-visualization*
//! breakdown (data-system time vs. sample-visualization time, Table II).
//!
//! The paper measures visualization with Matlab (heat maps, histograms)
//! and scikit-learn (means, regression); here the equivalent renderers are
//! implemented directly. Their cost is linear in the number of tuples the
//! middleware returns — the property that makes sampling pay off. There
//! is no histogram renderer: the histogram loss is the heat-map loss over
//! the points `(v, 0)`, and the paper harness renders no histogram.

pub mod heatmap;
pub mod regression;
pub mod stats;
pub mod timing;

pub use heatmap::{Heatmap, HeatmapConfig};
pub use regression::RegressionFit;
pub use stats::mean_of;
pub use timing::timed;
