//! The qualitative claims of the paper's evaluation (Section V), checked
//! on the rows of the same `tabula_bench::paper` functions the `paper`
//! binary prints, at 5 000 rows (Fig 10 at its quarter, 1 250) and on
//! deterministic fields only: counts, bytes, losses and answer sizes, never
//! wall time. EXPERIMENTS.md marks each of these ✓ at 20 000 rows.
//!
//! Not asserted here, because they depend on scale (EXPERIMENTS.md says
//! so beside each): the factors — Tabula\* ≈ 50× Tabula in Fig 9, the
//! sample table ≈ 100× the cube table, FullSamCube ≈ 40× Tabula's init
//! time — and every wall-time ordering (Figs 8, 11–14, Table II's times).
//! Tabula's and SampleOnTheFly's θ bound on a random workload, and the
//! planted-cell violations of the baselines, are `tests/guarantee.rs`'s and
//! `tests/baselines_comparison.rs`'s.

use std::sync::OnceLock;
use tabula_bench::paper::{self, Panel, Row, Setup};

fn setup() -> &'static Setup {
    static SETUP: OnceLock<Setup> = OnceLock::new();
    SETUP.get_or_init(|| Setup::new(5_000))
}

fn field(r: &Row, name: &str) -> f64 {
    r.get(name).unwrap_or_else(|| panic!("{} {} {} has no {name}", r.figure, r.x, r.approach))
}

/// The rows of one series and approach, in ladder order.
fn line<'a>(rows: &'a [Row], panel: Panel, approach: &str) -> Vec<&'a Row> {
    rows.iter().filter(|r| r.series == panel.name() && r.approach == approach).collect()
}

const THETA_LADDERS: [Panel; 3] = [Panel::Heatmap, Panel::Mean, Panel::Regression];

#[test]
fn fig08_cells_are_theta_independent_and_gathered_rows_grow_as_theta_shrinks() {
    let rows = paper::fig08(setup());
    for panel in THETA_LADDERS {
        let line = line(&rows, panel, "Tabula");
        assert_eq!(line.len(), 4, "{}", panel.name());
        for w in line.windows(2) {
            let (loose, tight) = (w[0], w[1]);
            assert_eq!(
                field(loose, "cells"),
                field(tight, "cells"),
                "{}: cells vs θ",
                panel.name()
            );
            assert!(
                field(loose, "gathered") <= field(tight, "gathered"),
                "{}: gathered rows shrink from {} to {}",
                panel.name(),
                loose.x,
                tight.x
            );
        }
        let (first, last) = (line[0], line[3]);
        assert!(field(first, "gathered") < field(last, "gathered"), "{}: flat", panel.name());
    }
}

#[test]
fn fig09_memory_grows_as_theta_shrinks_and_selection_always_saves() {
    let rows = paper::fig09(setup());
    let global = field(&rows[0], "global_B");
    assert!(rows.iter().all(|r| field(r, "global_B") == global), "global sample is θ-independent");
    for panel in Panel::ALL {
        let (tabula, star) = (line(&rows, panel, "Tabula"), line(&rows, panel, "Tabula*"));
        assert_eq!(tabula.len(), 4, "{}", panel.name());
        for (t, s) in tabula.iter().zip(&star) {
            assert!(
                field(t, "total_B") <= field(s, "total_B"),
                "{} {}: Tabula {} B > Tabula* {} B",
                panel.name(),
                t.x,
                field(t, "total_B"),
                field(s, "total_B")
            );
        }
        let (t, s) = (tabula[3], star[3]);
        assert!(
            field(t, "total_B") < field(s, "total_B"),
            "{} {}: selection saves nothing at the tightest point",
            panel.name(),
            t.x
        );
        for w in tabula.windows(2) {
            assert!(
                field(w[0], "total_B") <= field(w[1], "total_B"),
                "{}: memory shrinks from {} to {}",
                panel.name(),
                w[0].x,
                w[1].x
            );
        }
    }
    let tightest = line(&rows, Panel::Heatmap, "Tabula")[3];
    let (samples, cube) = (field(tightest, "sample_B"), field(tightest, "cube_B"));
    assert!(
        samples >= 10.0 * cube,
        "heat map 250 m: sample table {samples} B, cube table {cube} B"
    );
}

#[test]
fn fig10_tabula_materializes_no_more_cells_than_part_and_full_samcube() {
    let rows = paper::fig10(setup());
    let get = |x: &str, approach: &str, name: &str| {
        let r = rows.iter().find(|r| r.x == x && r.approach == approach).expect("row exists");
        field(r, name)
    };
    for x in ["$2", "$1", "$0.5"] {
        let cells = |approach| get(x, approach, "materialized");
        let (tabula, part, full) = (cells("Tabula"), cells("PartSamCube"), cells("FullSamCube"));
        assert!(tabula <= part && part <= full, "θ = {x}: {tabula} / {part} / {full}");
        // Both naive cubes group the whole lattice.
        let lattice = get(x, "FullSamCube", "cells");
        assert_eq!(get(x, "PartSamCube", "cells"), lattice, "θ = {x}");
        assert_eq!(lattice, full, "θ = {x}");
    }
}

/// Tabula and SampleOnTheFly never exceed θ (an empty answer counts as
/// exceeding it); each SampleFirst exceeds θ at every θ.
fn assert_losses(rows: &[Row], panel: Panel) {
    for rung in panel.ladder().iter().filter(|g| rows.iter().any(|r| r.x == g.label)) {
        for r in rows.iter().filter(|r| r.x == rung.label) {
            let what = format!("{} {} {}", r.figure, r.x, r.approach);
            if r.approach == "Tabula" || r.approach == "SampleOnTheFly" {
                let max = field(r, "loss_max");
                assert_eq!(
                    field(r, "over_theta"),
                    0.0,
                    "{what}: loss max {max} > θ {}",
                    rung.theta
                );
                assert!(max <= rung.theta * 1.0001, "{what}");
            } else if r.approach.starts_with("SamFirst") {
                assert!(field(r, "over_theta") > 0.0, "{what}: never exceeds θ {}", rung.theta);
            }
        }
    }
}

#[test]
fn fig11_heatmap_losses() {
    assert_losses(&paper::fig11(setup()), Panel::Heatmap);
}

#[test]
fn fig13_regression_losses() {
    assert_losses(&paper::fig13(setup()), Panel::Regression);
}

#[test]
fn fig14_mean_losses() {
    assert_losses(&paper::fig14(setup()), Panel::Mean);
}

/// Heat map and regression only. For the mean task the claim fails at
/// 5 000 and at 20 000 rows alike: SampleFirst-1 % keeps at least 1 000
/// rows and ships ≈ 210 of them to a query, while Tabula's mean answers
/// average 44 (5 000 rows) and 66 (20 000) tuples.
#[test]
fn table2_tabula_returns_the_most_tuples_of_the_sampled_approaches() {
    let rows = paper::table2(setup());
    for panel in [Panel::Heatmap, Panel::Regression] {
        let answer = |approach| field(line(&rows, panel, approach)[0], "answer");
        let tabula = answer("Tabula");
        for other in ["SamFirst-0.1%", "SamFirst-1%", "SampleOnTheFly", "POIsam"] {
            assert!(tabula > answer(other), "{}: Tabula {tabula} ≤ {other}", panel.name());
        }
    }
}
