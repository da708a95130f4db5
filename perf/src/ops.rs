//! Workload inputs, made from the seed inside the harness: the program
//! only ever sees SQL text, predicates and rows.

use crate::config::{CUBE, REVISIT, TABLE};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use tabula_data::{QueryCell, Workload, CUBED_ATTRIBUTES};
use tabula_sql::ast::WhereTerm;
use tabula_sql::Statement;
use tabula_storage::{CuboidMask, Predicate, Table};

/// One dashboard query.
pub struct Op {
    /// `SELECT sample FROM c WHERE …`
    pub sql: String,
    pub pred: Predicate,
    /// Dense id of the distinct cell, for working-set accounting.
    pub qid: u32,
}

fn conditions(pred: &Predicate) -> Vec<WhereTerm> {
    pred.terms()
        .iter()
        .map(|t| WhereTerm { column: t.column.clone(), op: t.op, value: t.value.clone() })
        .collect()
}

/// The raw fallback of the same predicate: `SELECT * FROM nyctaxi WHERE …`.
pub fn raw_sql(pred: &Predicate) -> String {
    Statement::SelectRaw { table: TABLE.into(), conditions: conditions(pred) }.to_string()
}

fn ops_of(cells: Vec<QueryCell>) -> Vec<Op> {
    let mut ids: HashMap<String, u32> = HashMap::new();
    cells
        .into_iter()
        .map(|q| {
            let next = ids.len() as u32;
            let qid = *ids.entry(q.description).or_insert(next);
            let sql =
                Statement::SelectSample { cube: CUBE.into(), conditions: conditions(&q.predicate) }
                    .to_string();
            Op { sql, pred: q.predicate, qid }
        })
        .collect()
}

/// A fleet of pan/zoom sessions, replayed back to back: `walks` walks of
/// `steps` steps over the cuboid lattice, each starting at the overview.
///
/// The walk is `Workload::generate_session`'s — zoom in, zoom out or pan
/// with equal odds, and with probability `REVISIT` re-issue one of the last
/// 16 queries — with its two kinds of choice drawn apart: the *moves* come
/// from a generator seeded by the walk's number alone, the *places* (anchor
/// rows, the attribute a zoom constrains or releases) from the run's seed.
/// A walk's zoom level wanders, and with it every per-query cost: over ten
/// seeds, `generate_session` fleets of this size had a mean of 1.4 to 1.9
/// constrained attributes and the median query time spread 20 %. With the
/// moves fixed, every seed visits the same zoom levels in the same order, at
/// other places.
pub fn session_ops(table: &Table, walks: usize, steps: usize, seed: u64) -> Vec<Op> {
    const WINDOW: usize = 16;
    let workload = Workload::new(&CUBED_ATTRIBUTES);
    let cols = cubed_cols(table);
    let n = cols.len();
    let mut cells: Vec<QueryCell> = Vec::with_capacity(walks * steps);
    for walk in 0..walks as u64 {
        let mut moves = SmallRng::seed_from_u64(walk);
        let mut places = SmallRng::seed_from_u64((seed ^ 0x5E55).wrapping_add(walk << 32));
        let start = cells.len();
        let mut row = places.gen_range(0..table.len());
        let mut mask = 0u32;
        for _ in 0..steps {
            let walked = cells.len() - start;
            if walked > 0 && moves.gen_bool(REVISIT) {
                let back = moves.gen_range(0..walked.min(WINDOW));
                cells.push(cells[cells.len() - 1 - back].clone());
                continue;
            }
            // One of the attributes that are (or are not) constrained.
            let mut pick = |held: bool| {
                let of: Vec<usize> = (0..n).filter(|&i| (mask >> i & 1 == 1) == held).collect();
                of[places.gen_range(0..of.len())]
            };
            match moves.gen_range(0..3u32) {
                0 if mask.count_ones() < n as u32 => mask |= 1 << pick(false),
                1 if mask != 0 => mask &= !(1 << pick(true)),
                _ => row = places.gen_range(0..table.len()),
            }
            let cell = workload.cell_for_row(table, &cols, row, CuboidMask(mask));
            cells.push(cell.expect("columns are categorical"));
        }
    }
    ops_of(cells)
}

fn cubed_cols(table: &Table) -> Vec<usize> {
    CUBED_ATTRIBUTES
        .iter()
        .map(|a| table.schema().index_of(a).expect("cubed attribute in the taxi schema"))
        .collect()
}

/// `n` distinct cells drawn uniformly from the three finest lattice levels
/// (at least 5 of the 7 attributes constrained).
pub fn cold_ops(table: &Table, n: usize, seed: u64) -> Vec<Op> {
    let workload = Workload::new(&CUBED_ATTRIBUTES);
    let cols = cubed_cols(table);
    let fine: Vec<u32> = (0u32..1 << cols.len()).filter(|m| m.count_ones() >= 5).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC01D);
    let mut seen = std::collections::HashSet::new();
    let mut cells = Vec::with_capacity(n);
    // A table too small to hold `n` distinct fine cells stops short.
    for _ in 0..n * 64 {
        if cells.len() == n {
            break;
        }
        let row = rng.gen_range(0..table.len());
        let mask = CuboidMask(fine[rng.gen_range(0..fine.len())]);
        let cell = workload.cell_for_row(table, &cols, row, mask).expect("columns are categorical");
        if seen.insert(cell.description.clone()) {
            cells.push(cell);
        }
    }
    ops_of(cells)
}
