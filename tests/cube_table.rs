//! One cube table, three front doors, both key layouts.
//!
//! The cube holds its cell → sample-id map once, as sorted keys in the
//! snapshot's encoding. `SamplingCube::query`, `Server::query` and SQL
//! `SELECT sample` all end in the same probe of it, before and after a
//! snapshot round trip, and must agree on every cell — the materialized
//! ones, the ones that ride the global sample, and the ones that cannot
//! exist. Behind the probe the server keeps one table per *sample*, taken
//! at install: cells that share a sample ship the same `Arc`, even to
//! racing clients, and the tables add up to exactly the cube's own sample
//! table.

mod common;

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Barrier};

use common::{constant_attr_table, cube_over, lattice, measured_table, predicate_of, wide_table};
use tabula::baselines::two_phase_cube;
use tabula::core::builder::{RefreshConfig, SamplingCubeBuilder};
use tabula::core::loss::MeanLoss;
use tabula::core::{CoreError, CubeKeys, SampleProvenance, SamplingCube};
use tabula::data::{example_dcm_table, TaxiConfig, TaxiGenerator, CUBED_ATTRIBUTES};
use tabula::obs::Registry;
use tabula::serve::{Server, SERVE_EVICTIONS, SERVE_HITS, SERVE_MISSES};
use tabula::sql::ast::WhereTerm;
use tabula::sql::{QueryResult, Session, Statement};
use tabula::storage::{CellKey, CmpOp, ColumnType, CuboidMask, Predicate, Table, Value};

/// Absent cells probed per cuboid.
const ABSENT_PER_CUBOID: usize = 8;

fn rows_of(table: &Table) -> Vec<Vec<Value>> {
    (0..table.len()).map(|r| table.row(r)).collect()
}

/// Every predicate worth asking of `cube`, with the answer it must get.
fn probes(cube: &SamplingCube) -> Vec<(Predicate, SampleProvenance)> {
    let table = cube.table();
    let n = cube.attrs().len();
    let mut probes = Vec::new();
    let mut materialized = HashSet::new();
    for (cell, id) in cube.cube_table() {
        probes.push((predicate_of(cube, &cell), SampleProvenance::Local(id)));
        materialized.insert(cell);
    }
    assert_eq!(materialized.len(), cube.materialized_cells(), "cube_table() repeats a cell");
    // Cells that hold rows but are not iceberg cells: the global sample.
    let every_cell = lattice(table, cube.cubed_cols());
    for mask in CuboidMask::enumerate(n) {
        let absent: Vec<&CellKey> = every_cell
            .iter()
            .map(|(cell, _)| cell)
            .filter(|cell| cell.mask() == mask && !materialized.contains(*cell))
            .collect();
        let step = absent.len().div_ceil(ABSENT_PER_CUBOID).max(1);
        for cell in absent.iter().step_by(step) {
            probes.push((predicate_of(cube, cell), SampleProvenance::Global));
        }
    }
    // A value outside the first attribute's dictionary, and — where the
    // attribute has two values to contradict each other — a conjunction
    // no row can satisfy.
    let (attr, col) = (&cube.attrs()[0], cube.cubed_cols()[0]);
    let outside: Value = match table.schema().field(col).ty {
        ColumnType::Int64 => i64::MIN.into(),
        _ => "no such value".into(),
    };
    probes.push((Predicate::eq(attr.clone(), outside), SampleProvenance::EmptyDomain));
    let cat = table.cat(col).unwrap();
    if cat.cardinality() >= 2 {
        let pred =
            Predicate::eq(attr.clone(), cat.decode(0)).and(attr.clone(), CmpOp::Eq, cat.decode(1));
        probes.push((pred, SampleProvenance::EmptyDomain));
    }
    probes
}

/// One server under test and what it has shipped so far.
struct Door {
    server: Server,
    /// The table shipped for each sample (`None`: the global one), kept
    /// alive so no later table can reuse its address.
    shipped: HashMap<Option<u32>, Arc<Table>>,
    /// Queries answered from a Local or the global sample.
    sample_queries: u64,
}

impl Door {
    fn new(cube: &Arc<SamplingCube>) -> Door {
        let server = Server::in_registry(Arc::clone(cube), &Arc::new(Registry::new()));
        Door { server: server.unwrap(), shipped: HashMap::new(), sample_queries: 0 }
    }

    /// Ask `pred`, whose answer must be `rows` out of `provenance`.
    fn ask(&mut self, pred: &Predicate, provenance: SampleProvenance, rows: &Arc<Vec<u32>>) {
        let cube = self.server.cube();
        let answer = self.server.query(pred).unwrap();
        let context = format!("{pred:?}");
        assert_eq!((answer.provenance, &answer.rows), (provenance, rows), "{context}");
        let sample = match provenance {
            SampleProvenance::EmptyDomain => {
                assert!(answer.table.is_empty(), "{context}");
                assert_eq!(answer.table.schema(), cube.table().schema(), "{context}");
                return;
            }
            SampleProvenance::Global => None,
            SampleProvenance::Local(id) => Some(id),
        };
        self.sample_queries += 1;
        // A sample shipped before comes back as the very same table.
        if let Some(first) = self.shipped.get(&sample) {
            assert!(Arc::ptr_eq(first, &answer.table), "{context}");
            return;
        }
        assert_eq!(rows_of(&answer.table), rows_of(&cube.table().take(rows)), "{context}");
        self.shipped.insert(sample, answer.table);
    }

    /// `serve.hits` is every sample answer; nothing is materialized or
    /// evicted after the install.
    fn assert_counters(&self) {
        let snap = self.server.registry().snapshot();
        assert_eq!(snap.counter(SERVE_HITS), self.sample_queries);
        assert_eq!((snap.counter(SERVE_MISSES), snap.counter(SERVE_EVICTIONS)), (0, 0));
    }

    /// Once every cell has been asked, the server has shipped each
    /// persisted sample's table once: exactly the cube's own sample table.
    fn assert_bound(&self) {
        let cube = self.server.cube();
        let touched: Vec<u32> = self.shipped.keys().flatten().copied().collect();
        assert_eq!(touched.len(), cube.persisted_samples(), "every sample serves some cell");
        let bytes: usize =
            self.shipped.iter().filter(|(id, _)| id.is_some()).map(|(_, t)| t.heap_bytes()).sum();
        assert_eq!(bytes, cube.memory_breakdown().sample_table_bytes);
    }
}

/// Build → freeze → thaw → serve → SQL, asking every door every probe.
fn assert_every_door_agrees(built: SamplingCube, flat_keys: bool) {
    let cells = built.materialized_cells();
    let n = built.attrs().len();
    assert_eq!(matches!(built.cells().keys(), CubeKeys::Flat(_)), flat_keys);
    let per_cell = if flat_keys { 4 * n + 4 } else { 12 };
    assert_eq!(built.memory_breakdown().cube_table_bytes, cells * per_cell);

    let bytes = built.snapshot_bytes(0).unwrap();
    let (restored, info) = SamplingCube::from_snapshot_bytes(bytes.clone()).unwrap();
    assert_eq!(info.cells, cells);
    assert_eq!(restored.snapshot_bytes(0).unwrap(), bytes, "re-freeze must reproduce the file");
    assert!(restored.cube_table().eq(built.cube_table()));

    let path = std::env::temp_dir()
        .join(format!("tabula-cube-table-{}-{n}-{cells}.tabsnap", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let mut session = Session::new().with_registry(Arc::new(Registry::new()));
    let loaded = session.load_cube("c", &path);
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.unwrap().cells, cells);

    let probes = probes(&built);
    let (built, restored) = (Arc::new(built), Arc::new(restored));
    let mut doors: Vec<Door> = [&built, &restored].into_iter().map(Door::new).collect();
    for door in &doors {
        assert_eq!(door.server.cube().materialized_cells(), cells);
    }

    for (pred, provenance) in &probes {
        let rows = match provenance {
            SampleProvenance::Local(id) => Arc::clone(built.sample(*id)),
            SampleProvenance::Global => Arc::clone(built.global_sample()),
            SampleProvenance::EmptyDomain => Arc::new(Vec::new()),
        };
        for cube in [&built, &restored] {
            let answer = cube.query(pred).unwrap();
            assert_eq!((answer.provenance, &answer.rows), (*provenance, &rows), "{pred:?}");
        }
        for door in &mut doors {
            // First, then again.
            door.ask(pred, *provenance, &rows);
            door.ask(pred, *provenance, &rows);
        }
        let conditions = pred
            .terms()
            .iter()
            .map(|t| WhereTerm { column: t.column.clone(), op: t.op, value: t.value.clone() })
            .collect();
        let sql = Statement::SelectSample { cube: "c".into(), conditions }.to_string();
        match session.execute(&sql).unwrap() {
            QueryResult::Sample { table, provenance: got } => {
                assert_eq!(got, *provenance, "{sql}");
                assert_eq!(rows_of(&table), rows_of(&restored.table().take(&rows)), "{sql}");
            }
            other => panic!("{sql}: {other:?}"),
        }
    }
    for door in &mut doors {
        door.assert_counters();
        door.assert_bound();
        // A new generation of the same cube: nothing the old one shipped
        // comes back.
        let old: Vec<Arc<Table>> = std::mem::take(&mut door.shipped).into_values().collect();
        door.server.install(door.server.cube()).unwrap();
        for (pred, provenance) in &probes {
            let answer = door.server.query(pred).unwrap();
            assert_eq!(answer.provenance, *provenance, "{pred:?}");
            assert!(!old.iter().any(|t| Arc::ptr_eq(t, &answer.table)), "{pred:?}");
        }
    }

    // Cell keys straight in, no predicate: the same lookup again.
    for (cell, id) in built.cube_table() {
        for cube in [&built, &restored] {
            assert_eq!(cube.query_cell(&cell).provenance, SampleProvenance::Local(id), "{cell}");
        }
    }
    // A key of another arity, however long, names no stored cell.
    for len in [n + 1, 32, 33, 40] {
        for code in [Some(0), None] {
            for cube in [&built, &restored] {
                let answer = cube.query_cell(&CellKey::new(vec![code; len]));
                assert_eq!(
                    (answer.provenance, &answer.rows),
                    (SampleProvenance::Global, built.global_sample()),
                    "{len} codes of {code:?}"
                );
            }
        }
    }
    // A code at, past or far past an attribute's dictionary names no cell.
    for (i, &col) in built.cubed_cols().iter().enumerate() {
        let card = built.table().cat(col).unwrap().cardinality() as u32;
        for code in [card, card + 1, u32::MAX] {
            let mut codes = vec![None; n];
            codes[i] = Some(code);
            let cell = CellKey::new(codes);
            for cube in [&built, &restored] {
                let answer = cube.query_cell(&cell);
                assert_eq!(
                    (answer.provenance, &answer.rows),
                    (SampleProvenance::Global, built.global_sample()),
                    "{cell}"
                );
            }
        }
    }
    // A column the cube is not over is no part of any cell.
    let schema = built.table().schema();
    let other = schema.fields().iter().find(|f| !built.attrs().contains(&f.name)).unwrap();
    let pred = Predicate::eq(other.name.clone(), 0i64);
    for cube in [&built, &restored] {
        let err = cube.query(&pred).unwrap_err();
        assert!(matches!(&err, CoreError::NotCubedAttribute(c) if *c == other.name), "{err:?}");
    }
    for door in &doors {
        let err = door.server.query(&pred).unwrap_err();
        assert!(matches!(&err, CoreError::NotCubedAttribute(c) if *c == other.name), "{err:?}");
    }
}

#[test]
fn wide_schema_with_flat_keys() {
    let cube = cube_over(&wide_table());
    assert!(cube.materialized_cells() > 1_000, "{}", cube.materialized_cells());
    assert_every_door_agrees(cube, true);
}

#[test]
fn taxi_schema_with_packed_keys() {
    let table = Arc::new(TaxiGenerator::new(TaxiConfig { rows: 4_000, seed: 42 }).generate());
    let fare = table.schema().index_of("fare_amount").unwrap();
    let cube =
        SamplingCubeBuilder::new(Arc::clone(&table), &CUBED_ATTRIBUTES, MeanLoss::new(fare), 0.05)
            .seed(42)
            .build()
            .unwrap();
    assert!(cube.materialized_cells() > 1_000, "{}", cube.materialized_cells());
    // Enough samples that every door serves many distinct ones, and each
    // shared by many cells. Building coarse to fine keeps 44 at 4 000 rows
    // (the two-phase order kept more, for fewer cells apiece).
    let (samples, cells) = (cube.persisted_samples(), cube.materialized_cells());
    assert!(samples > 40 && samples * 10 < cells, "{samples} samples for {cells} cells");
    assert_every_door_agrees(cube, false);
}

#[test]
fn single_valued_attribute() {
    let cube = cube_over(&constant_attr_table());
    assert!(cube.materialized_cells() > 0);
    // The constant attribute's one code and its `*` are different cells.
    let pinned: Vec<CellKey> =
        cube.cube_table().map(|(cell, _)| cell).filter(|c| c.codes[1].is_some()).collect();
    assert!(!pinned.is_empty());
    for cell in &pinned {
        let mut starred = cell.clone();
        starred.codes[1] = None;
        let (a, b) = (cube.query_cell(cell), cube.query_cell(&starred));
        assert!(matches!(a.provenance, SampleProvenance::Local(_)));
        assert_ne!(a.provenance, b.provenance, "{cell} vs {starred}");
    }
    assert_every_door_agrees(cube, false);
}

#[test]
fn empty_and_single_row_tables() {
    for table in
        [measured_table(&[vec![], vec![]], &[]), measured_table(&[vec![4], vec![2]], &[3.0])]
    {
        let cube = cube_over(&table);
        assert_eq!(cube.materialized_cells(), 0, "the global sample is the whole table");
        assert_every_door_agrees(cube, false);
    }
}

/// `tests/data/dcm_cube_pr12.tabsnap` was written by the commit before the
/// cube table existed (PR 12: hash-map cube, keys encoded and sorted on
/// every write) for the DCM example cube built below, at epoch 42. The
/// builder then ran Algorithms 2 and 3 in the paper's two-phase order, which
/// `tabula_baselines::two_phase_cube` keeps.
#[test]
fn a_snapshot_from_before_the_cube_table_loads_and_refreezes_identically() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/dcm_cube_pr12.tabsnap");
    let bytes = std::fs::read(path).unwrap();
    let (old, info) = SamplingCube::from_snapshot_bytes(bytes.clone()).unwrap();
    assert_eq!(info.epoch, 42);
    assert!(matches!(old.cells().keys(), CubeKeys::Packed(_)));
    assert_eq!(old.snapshot_bytes(42).unwrap(), bytes);
    // The file path streams the very same bytes.
    let file = std::env::temp_dir().join(format!("tabula-pr12-{}.tabsnap", std::process::id()));
    old.write_snapshot(&file, 42).unwrap();
    let written = std::fs::read(&file).unwrap();
    std::fs::remove_file(&file).unwrap();
    assert_eq!(written, bytes);

    let table = Arc::new(example_dcm_table());
    let fare = table.schema().index_of("fare").unwrap();
    let config = RefreshConfig { seed: 1, ..RefreshConfig::default() };
    let loss = MeanLoss::new(fare);
    let fresh = two_phase_cube(Arc::clone(&table), &["D", "C", "M"], &loss, 0.10, &config).unwrap();
    assert!(old.cube_table().eq(fresh.cube_table()));
    assert_eq!(old.global_sample(), fresh.global_sample());
    for (cell, _) in lattice(&table, &[0, 1, 2]) {
        let (a, b) = (old.query_cell(&cell), fresh.query_cell(&cell));
        assert_eq!((a.provenance, a.rows), (b.provenance, b.rows), "{cell}");
    }
}

/// Clients racing for one Local cell that no query has asked yet: every
/// one of them ships the table the generation took at install.
#[test]
fn racing_clients_ship_the_one_table_of_their_sample() {
    const CLIENTS: usize = 8;
    let cube = Arc::new(cube_over(&wide_table()));
    let (cell, id) = cube.cube_table().next().expect("an iceberg cell");
    let pred = predicate_of(&cube, &cell);
    let registry = Arc::new(Registry::new());
    let server = Server::in_registry(Arc::clone(&cube), &registry).unwrap();
    let start = Barrier::new(CLIENTS);
    let answers: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    server.query(&pred).unwrap()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for answer in &answers {
        assert_eq!(answer.provenance, SampleProvenance::Local(id));
        assert!(Arc::ptr_eq(&answer.table, &answers[0].table));
    }
    assert_eq!(rows_of(&answers[0].table), rows_of(&cube.table().take(cube.sample(id))));
    let snap = registry.snapshot();
    assert_eq!((snap.counter(SERVE_MISSES), snap.counter(SERVE_HITS)), (0, CLIENTS as u64));
}
