//! The materialized sampling cube: the artifact queried by the dashboard.
//!
//! Physical layout (paper Figure 4): a **cube table** mapping each iceberg
//! cell to a sample id, and a **sample table** holding the persisted
//! representative samples. Queries whose cell is *not* in the cube table
//! are answered with the **global sample** — the dry run proved its loss
//! is within θ for those cells, so the guarantee holds either way.

use crate::builder::attr_columns;
use crate::compile::compile_predicate;
use crate::cube_table::CubeTable;
use crate::incremental::FoldCarry;
use crate::loss::AccuracyLoss;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use tabula_storage::cube::CellKey;
use tabula_storage::{CellSpace, CubeKey, Predicate, RowId, Table};

/// Where a query answer's sample came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SampleProvenance {
    /// A materialized local (representative) sample; payload is the
    /// sample-table id.
    Local(u32),
    /// The global random sample.
    Global,
    /// The query's cell cannot exist (a predicate value outside the
    /// attribute's domain), so the raw answer is empty.
    EmptyDomain,
}

/// Answer to a dashboard query: row ids of the sample plus provenance.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// Sample rows (ids into the raw table the cube was built over).
    pub rows: Arc<Vec<RowId>>,
    /// Which path produced them.
    pub provenance: SampleProvenance,
}

impl QueryAnswer {
    /// Number of tuples the dashboard will receive.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the answer carries no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Per-stage build statistics reported by the benchmark harness.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BuildStats {
    /// Wall time of the dry-run stage.
    pub dry_run: Duration,
    /// Wall time of the real run: fetching the fresh cells' rows, testing
    /// them against the kept samples and drawing samples for the rest.
    pub real_run: Duration,
    /// Wall time of Algorithm 3, per level: the SamGraph join of the
    /// level's draws (their contexts prepared, then the representation
    /// relation walked for each draw against the others), the greedy
    /// cover, and the representatives joining the kept set.
    pub selection: Duration,
    /// Total initialization wall time.
    pub total: Duration,
    /// Populated cells across the whole cube lattice.
    pub total_cells: usize,
    /// Iceberg cells found by the dry run.
    pub iceberg_cells: usize,
    /// Cuboids processed / skipped by the real run.
    pub cuboids_processed: usize,
    /// Cuboids skipped because they held no iceberg cells.
    pub cuboids_skipped: usize,
    /// Distinct finest-cuboid keys: the runs of the real run's partition.
    /// (Absent from snapshots written before the partition existed, as is
    /// `gathered_rows`; those still load.)
    #[serde(default)]
    pub finest_runs: usize,
    /// Row ids the real run fetched, over all fresh iceberg cells.
    #[serde(default)]
    pub gathered_rows: usize,
    /// Samples before representative selection: the cells that drew one
    /// plus the cells that kept their previous one.
    pub samples_before_selection: usize,
    /// Samples persisted after selection.
    pub samples_after_selection: usize,
    /// Edges the SamGraph joins found, each draw's self-edge included (0
    /// under the builder's Tabula\*, which joins nothing).
    pub samgraph_edges: usize,
    /// Tuples in the global sample.
    pub global_sample_size: usize,
}

/// Memory footprint of the cube's three physical components (paper §V-B).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Bytes of the global sample's tuples.
    pub global_bytes: usize,
    /// Bytes of the cube table (cell keys + sample ids).
    pub cube_table_bytes: usize,
    /// Bytes of the persisted samples' tuples.
    pub sample_table_bytes: usize,
}

impl MemoryBreakdown {
    /// Total bytes.
    pub fn total(&self) -> usize {
        self.global_bytes + self.cube_table_bytes + self.sample_table_bytes
    }
}

/// The queryable materialized sampling cube.
#[derive(Debug, Clone)]
pub struct SamplingCube {
    table: Arc<Table>,
    attrs: Vec<String>,
    cols: Vec<usize>,
    theta: f64,
    cells: CubeTable,
    samples: Vec<Arc<Vec<RowId>>>,
    global_sample: Arc<Vec<RowId>>,
    /// The EmptyDomain answer: no rows, shared by every such query.
    no_rows: Arc<Vec<RowId>>,
    stats: BuildStats,
    /// The registry the metrics of a refresh that starts from this cube
    /// land in.
    registry: Arc<tabula_obs::Registry>,
    /// What the run of the pipeline that made this cube leaves the next
    /// fold ([`FoldCarry`] under that run's loss), until a fold takes it.
    /// Clones share it; a thawed or [`from_entries`](Self::from_entries)
    /// cube has none.
    carry: Arc<Mutex<Option<Box<dyn Any + Send + Sync>>>>,
}

impl SamplingCube {
    /// Assemble a cube. Used by the builder; not part of the typical user
    /// path.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        table: Arc<Table>,
        attrs: Vec<String>,
        cols: Vec<usize>,
        theta: f64,
        cells: CubeTable,
        samples: Vec<Arc<Vec<RowId>>>,
        global_sample: Arc<Vec<RowId>>,
        stats: BuildStats,
    ) -> Self {
        SamplingCube {
            table,
            attrs,
            cols,
            theta,
            cells,
            samples,
            global_sample,
            no_rows: Arc::new(Vec::new()),
            stats,
            registry: Arc::clone(tabula_obs::global()),
            carry: Arc::default(),
        }
    }

    /// Keep `carry` for the next fold of this cube.
    pub(crate) fn with_carry<L: AccuracyLoss>(self, carry: FoldCarry<L>) -> Self {
        *self.carry.lock().unwrap_or_else(PoisonError::into_inner) = Some(Box::new(carry));
        self
    }

    /// Take what the run that made this cube carried, if it ran under a
    /// loss of type `L`: the first fold of this cube (or of a clone)
    /// resumes from it, any other scans the whole table.
    pub(crate) fn take_carry<L: AccuracyLoss>(&self) -> Option<FoldCarry<L>> {
        let carry = self.carry.lock().unwrap_or_else(PoisonError::into_inner).take()?;
        carry.downcast().ok().map(|carry| *carry)
    }

    /// Assemble a cube whose cells were materialized outside the builder
    /// (the baseline cubes of `tabula-baselines`): each of `cells`, a key
    /// of `space`, is served by the sample of the id beside it, an index
    /// into `samples`. `attrs` and `theta` are checked as the builder checks
    /// them.
    #[allow(clippy::too_many_arguments)]
    pub fn from_entries<'a>(
        table: Arc<Table>,
        attrs: &[impl AsRef<str>],
        theta: f64,
        space: &CellSpace,
        cells: impl Iterator<Item = (&'a CubeKey, u32)>,
        samples: Vec<Vec<RowId>>,
        global_sample: Vec<RowId>,
        stats: BuildStats,
    ) -> Result<Self> {
        let attrs: Vec<String> = attrs.iter().map(|a| a.as_ref().to_owned()).collect();
        let cols = attr_columns(&table, &attrs, theta)?;
        let cells = CubeTable::from_cells(space, cells);
        let samples = samples.into_iter().map(Arc::new).collect();
        Ok(Self::new(table, attrs, cols, theta, cells, samples, Arc::new(global_sample), stats))
    }

    /// Re-home this cube in `registry` (the default is the process-wide
    /// one): the `refresh.*` metrics of every generation refreshed from it
    /// land there. Use a private [`tabula_obs::Registry`] when isolated
    /// accounting is needed, e.g. in tests or benchmarks.
    pub fn with_registry(mut self, registry: &Arc<tabula_obs::Registry>) -> Self {
        self.registry = Arc::clone(registry);
        self
    }

    /// The registry this cube reports into.
    pub fn registry(&self) -> &Arc<tabula_obs::Registry> {
        &self.registry
    }

    /// The raw table the cube was built over.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The cubed attribute names, in cube order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// The cubed attributes' column indexes in the raw table, in cube
    /// order (parallel to [`SamplingCube::attrs`]).
    pub fn cubed_cols(&self) -> &[usize] {
        &self.cols
    }

    /// The accuracy-loss threshold the cube guarantees.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Build statistics.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// Number of materialized (iceberg) cells in the cube table.
    pub fn materialized_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of persisted samples in the sample table.
    pub fn persisted_samples(&self) -> usize {
        self.samples.len()
    }

    /// The global sample's row ids.
    pub fn global_sample(&self) -> &Arc<Vec<RowId>> {
        &self.global_sample
    }

    /// Answer `SELECT sample FROM cube WHERE <pred>`.
    ///
    /// Every predicate term must be an equality on a cubed attribute (the
    /// paper: "the attributes in the WHERE clause must be a subset of the
    /// cubed attributes"). A pure lookup: it counts nothing.
    pub fn query(&self, pred: &Predicate) -> Result<QueryAnswer> {
        let key = self.compile(pred)?;
        Ok(self.answer(key.map_or(SampleProvenance::EmptyDomain, |key| self.probe(&key))))
    }

    /// Answer a query already resolved to a cube cell. A cell no key of
    /// the cube spells (another arity, a code past a dictionary) is not
    /// materialized: the global sample answers it.
    pub fn query_cell(&self, cell: &CellKey) -> QueryAnswer {
        let key = self.cells.space().encode_cell(cell);
        self.answer(key.map_or(SampleProvenance::Global, |key| self.probe(&key)))
    }

    /// Resolve a predicate to the key of its cube cell. `Ok(None)` means
    /// some predicate value is outside its attribute's domain (the raw
    /// answer is empty).
    pub fn compile(&self, pred: &Predicate) -> Result<Option<CubeKey>> {
        compile_predicate(&self.table, self.cells.space(), &self.attrs, &self.cols, pred)
    }

    /// The answer from `provenance`.
    fn answer(&self, provenance: SampleProvenance) -> QueryAnswer {
        QueryAnswer { rows: Arc::clone(self.rows(provenance)), provenance }
    }

    /// The rows a provenance stands for — the one place that mapping is
    /// spelled: a persisted sample, the global sample, or the cube's one
    /// empty answer.
    pub fn rows(&self, provenance: SampleProvenance) -> &Arc<Vec<RowId>> {
        match provenance {
            SampleProvenance::Local(id) => &self.samples[id as usize],
            SampleProvenance::Global => &self.global_sample,
            SampleProvenance::EmptyDomain => &self.no_rows,
        }
    }

    /// Which sample serves the cell `key`.
    pub fn probe(&self, key: &CubeKey) -> SampleProvenance {
        self.cells.probe(key).map_or(SampleProvenance::Global, SampleProvenance::Local)
    }

    /// The paper's memory-footprint accounting: bytes of the three
    /// physical components, counting each persisted sample tuple at the
    /// table's row width (what materializing it in the data system costs).
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let row = self.table.row_bytes();
        MemoryBreakdown {
            global_bytes: self.global_sample.len() * row,
            cube_table_bytes: self.cells.heap_bytes(),
            sample_table_bytes: self.samples.iter().map(|s| s.len() * row).sum(),
        }
    }

    /// Iterate the cube table (cell → sample id), decoded on the fly, in
    /// ascending key order.
    pub fn cube_table(&self) -> impl Iterator<Item = (CellKey, u32)> + '_ {
        self.cells.iter()
    }

    /// The cube table itself: sorted keys and aligned sample ids.
    pub fn cells(&self) -> &CubeTable {
        &self.cells
    }

    /// A persisted sample's rows by id.
    pub fn sample(&self, id: u32) -> &Arc<Vec<RowId>> {
        &self.samples[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SamplingCubeBuilder;
    use crate::loss::MeanLoss;
    use crate::CoreError;
    use tabula_data::example_dcm_table;
    use tabula_storage::CmpOp;

    fn cube() -> SamplingCube {
        let t = Arc::new(example_dcm_table());
        let fare = t.schema().index_of("fare").unwrap();
        SamplingCubeBuilder::new(Arc::clone(&t), &["D", "C", "M"], MeanLoss::new(fare), 0.10)
            .seed(1)
            .build()
            .unwrap()
    }

    #[test]
    fn build_stats_written_before_the_partition_still_parse() {
        // The `stats` block of a snapshot taken when the real run chose a
        // plan per cuboid: two counters since removed, two not yet there.
        let old = r#"{"cuboids_processed":5,"cuboids_skipped":3,
            "dry_run":{"nanos":1,"secs":0},"global_sample_size":8,"group_all_plans":4,
            "iceberg_cells":9,"prune_plans":1,"real_run":{"nanos":2,"secs":0},
            "samgraph_edges":7,"samples_after_selection":2,"samples_before_selection":9,
            "selection":{"nanos":3,"secs":0},"total":{"nanos":6,"secs":0},"total_cells":20}"#;
        let stats: BuildStats = serde_json::from_str(old).unwrap();
        assert_eq!((stats.cuboids_processed, stats.iceberg_cells), (5, 9));
        assert_eq!((stats.finest_runs, stats.gathered_rows), (0, 0));
    }

    #[test]
    fn query_hits_local_sample_for_iceberg_cells() {
        let c = cube();
        assert!(c.materialized_cells() > 0);
        // Find some materialized cell and query it by predicate.
        let (cell, sample_id) = c.cube_table().next().unwrap();
        let answer = c.query_cell(&cell);
        assert_eq!(answer.provenance, SampleProvenance::Local(sample_id));
        assert!(!answer.is_empty());
    }

    #[test]
    fn query_falls_back_to_global_sample() {
        let c = cube();
        // Query a cell that should not be iceberg: the D = "[5,10)" slice
        // (fares near the global mean in the mini table). If it happens to
        // be materialized under this seed, use ALL instead — whichever is
        // absent from the cube table.
        let all_cell = CellKey::new(vec![None, None, None]);
        let ans = c.query_cell(&all_cell);
        match ans.provenance {
            SampleProvenance::Global => {
                assert_eq!(ans.rows.len(), c.global_sample().len());
            }
            SampleProvenance::Local(_) => { /* legitimate if ALL is iceberg */ }
            SampleProvenance::EmptyDomain => panic!("ALL cell cannot be empty-domain"),
        }
    }

    #[test]
    fn out_of_domain_value_yields_empty_answer() {
        let c = cube();
        let ans = c.query(&Predicate::eq("M", "bitcoin")).unwrap();
        assert_eq!(ans.provenance, SampleProvenance::EmptyDomain);
        assert!(ans.is_empty());
        assert_eq!(c.table().take(&ans.rows).len(), 0);
    }

    #[test]
    fn non_cubed_attribute_is_rejected() {
        let c = cube();
        assert!(matches!(
            c.query(&Predicate::eq("fare", 5.0)),
            Err(CoreError::NotCubedAttribute(_))
        ));
        let range = Predicate::all().and("C", CmpOp::Gt, 1i64);
        assert!(matches!(c.query(&range), Err(CoreError::Config(_))));
    }

    #[test]
    fn contradictory_equalities_are_empty() {
        let c = cube();
        let p = Predicate::eq("M", "cash").and("M", CmpOp::Eq, "credit");
        let ans = c.query(&p).unwrap();
        assert_eq!(ans.provenance, SampleProvenance::EmptyDomain);
    }

    #[test]
    fn memory_breakdown_is_consistent() {
        let c = cube();
        let m = c.memory_breakdown();
        assert!(m.global_bytes > 0);
        assert_eq!(m.total(), m.global_bytes + m.cube_table_bytes + m.sample_table_bytes);
        // Sample table dominated by actual tuples.
        let row = c.table().row_bytes();
        let expected: usize =
            (0..c.persisted_samples() as u32).map(|i| c.sample(i).len() * row).sum();
        assert_eq!(m.sample_table_bytes, expected);
        // The cube table is charged what its arrays hold: a packed `u64`
        // key and a `u32` sample id per cell.
        assert_eq!(m.cube_table_bytes, c.materialized_cells() * 12);
    }

    #[test]
    fn materialized_answer_has_sample_tuples() {
        let c = cube();
        let ans = c.query(&Predicate::eq("M", "dispute")).unwrap();
        let mat = c.table().take(&ans.rows);
        assert_eq!(mat.len(), ans.len());
        assert_eq!(mat.schema(), c.table().schema());
    }
}
