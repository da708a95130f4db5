//! # tabula-baselines
//!
//! The approaches the paper compares Tabula against (Section V):
//!
//! | Paper name      | Here                                  |
//! |-----------------|---------------------------------------|
//! | SampleFirst     | [`SampleFirst`]                       |
//! | SampleOnTheFly  | [`SampleOnTheFly`]                    |
//! | POIsam          | [`PoiSam`]                            |
//! | SnappyData      | [`SnappyLike`]                        |
//! | FullSamCube     | [`full_sam_cube`]                     |
//! | PartSamCube     | [`part_sam_cube`]                     |
//!
//! Tabula itself is `tabula-core`'s builder, and Tabula\* (no sample
//! selection) the same builder with a candidate cap of 0. The paper's own
//! two-phase order of its Algorithms 2 and 3, which the builder replaced
//! with one coarse-to-fine pass, is [`two_phase_cube`]. The cubes return a
//! `SamplingCube` like the builder's; the sampling-side baselines share the
//! [`Approach`] interface the benchmark harness drives.

pub mod poisam;
pub mod sam_cube;
pub mod sample_first;
pub mod sample_on_the_fly;
pub mod snappy;
pub mod two_phase;

pub use poisam::PoiSam;
pub use sam_cube::{full_sam_cube, part_sam_cube};
pub use sample_first::SampleFirst;
pub use sample_on_the_fly::SampleOnTheFly;
pub use snappy::{AvgAnswer, SnappyLike};
pub use two_phase::two_phase_cube;

use std::time::Duration;
use tabula_storage::{Predicate, RowId};

/// A query answer from a baseline: the sample handed to the dashboard
/// plus the data-system time spent producing it.
#[derive(Debug, Clone)]
pub struct ApproachAnswer {
    /// Sample rows (ids into the raw table).
    pub rows: Vec<RowId>,
    /// Wall time of query execution + any online sampling.
    pub data_system_time: Duration,
}

/// Common interface of the tuple-returning approaches.
pub trait Approach {
    /// Display name.
    fn name(&self) -> &'static str;
    /// Bytes of pre-built state held in memory (0 for purely online
    /// approaches).
    fn memory_bytes(&self) -> usize;
    /// Answer one dashboard query.
    fn query(&self, pred: &Predicate) -> ApproachAnswer;
}
