//! The paper's tiny running example: trip distance bins (D), passenger
//! count (C) and payment method (M). Used by Table I / Figure 5
//! illustrations, doc examples and unit tests across the workspace.

use tabula_storage::{ColumnType, Field, Point, Schema, Table, TableBuilder};

/// Build the running-example table.
///
/// `D` is the binned trip distance (`"[0,5)"`, `"[5,10)"`, ...), `C` the
/// passenger count, `M` the payment method — the three cubed attributes of
/// the paper's Figures 3–6 — plus a fare, a tip, and a pickup point so all
/// four built-in loss functions have something to measure.
pub fn example_dcm_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("D", ColumnType::Str),
        Field::new("C", ColumnType::Int64),
        Field::new("M", ColumnType::Str),
        Field::new("fare", ColumnType::Float64),
        Field::new("tip", ColumnType::Float64),
        Field::new("pickup", ColumnType::Point),
    ]);
    let mut b = TableBuilder::with_capacity(schema, 0);
    // (D, C, M, fare, tip, x, y) — a small but deliberately skewed mix:
    // short cash trips cluster spatially at (0.2, 0.2); dispute trips sit
    // far away at (0.9, 0.9) with outlier fares.
    let rows: &[(&str, i64, &str, f64, f64, f64, f64)] = &[
        ("[0,5)", 1, "credit", 6.0, 1.2, 0.21, 0.20),
        ("[0,5)", 1, "credit", 7.0, 1.4, 0.22, 0.19),
        ("[0,5)", 1, "cash", 5.5, 0.0, 0.20, 0.21),
        ("[0,5)", 1, "dispute", 30.0, 0.0, 0.90, 0.91),
        ("[0,5)", 2, "cash", 6.5, 0.0, 0.19, 0.22),
        ("[0,5)", 2, "credit", 8.0, 1.6, 0.23, 0.20),
        ("[0,5)", 2, "cash", 5.0, 0.0, 0.18, 0.18),
        ("[5,10)", 1, "credit", 14.0, 2.8, 0.50, 0.52),
        ("[5,10)", 1, "cash", 13.0, 0.0, 0.52, 0.50),
        ("[5,10)", 2, "credit", 15.5, 3.1, 0.51, 0.49),
        ("[5,10)", 3, "cash", 12.5, 0.0, 0.49, 0.51),
        ("[10,15)", 1, "credit", 24.0, 4.8, 0.70, 0.30),
        ("[10,15)", 2, "cash", 23.0, 0.0, 0.71, 0.29),
        ("[15,20)", 2, "cash", 33.0, 0.0, 0.30, 0.75),
        ("[15,20)", 3, "dispute", 95.0, 0.0, 0.92, 0.88),
        ("[15,20)", 3, "cash", 34.0, 0.0, 0.31, 0.74),
    ];
    for &(d, c, m, fare, tip, x, y) in rows {
        b.push_row(&[
            d.into(),
            c.into(),
            m.into(),
            fare.into(),
            tip.into(),
            Point::new(x, y).into(),
        ])
        .expect("static rows conform to schema");
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabula_storage::Predicate;

    #[test]
    fn shape_and_contents() {
        let t = example_dcm_table();
        assert_eq!(t.len(), 16);
        assert_eq!(t.schema().len(), 6);
        assert_eq!(t.cat(0).unwrap().cardinality(), 4); // D bins
        assert_eq!(t.cat(1).unwrap().cardinality(), 3); // C ∈ {1,2,3}
        assert_eq!(t.cat(2).unwrap().cardinality(), 3); // M
    }

    #[test]
    fn dispute_population_is_a_spatial_and_fare_outlier() {
        let t = example_dcm_table();
        let rows = Predicate::eq("M", "dispute").filter(&t).unwrap();
        assert_eq!(rows.len(), 2);
        let fares = t.column_by_name("fare").unwrap().as_f64_slice().unwrap();
        assert!(rows.iter().all(|&r| fares[r as usize] >= 30.0));
    }
}
