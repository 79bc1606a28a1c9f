//! Walks [`FIGURES`] at the minimum population: every simulator-side figure
//! must produce well-formed tables whose text and CSV renderings agree, and
//! must reproduce them exactly from the same seeds. (The live ids sleep on
//! the wall clock and are exercised by CI's `reproduce` smoke instead.)

use std::collections::BTreeSet;

use bench::experiments::{Selection, FIGURES};
use bench::RunContext;

#[test]
fn ids_are_unique_and_every_entry_is_filled_in() {
    let ids: BTreeSet<_> = FIGURES.iter().map(|f| f.id).collect();
    assert_eq!(ids.len(), FIGURES.len());
    assert!(FIGURES
        .iter()
        .all(|f| !f.title.is_empty() && !f.claim.is_empty() && !f.headline.is_empty()));
}

#[test]
fn every_simulator_figure_renders_and_reruns_identically() {
    // Every `scaled()` population clamps to its minimum of 100 nodes.
    let ctx = RunContext { scale: 1e-6 };
    let simulated = || FIGURES.iter().filter(|f| f.selection != Selection::Live);
    // The two passes run side by side: halves the wall clock (fig13's 302
    // nodes × 2400 s dominate) and shows concurrent runs share no state.
    let run_all = || simulated().map(|f| (f.run)(&ctx)).collect::<Vec<_>>();
    let (first, second) = std::thread::scope(|s| {
        let rerun = s.spawn(run_all);
        (run_all(), rerun.join().expect("rerun panicked"))
    });

    let mut table_names = BTreeSet::new();
    for ((figure, outcome), again) in simulated().zip(&first).zip(&second) {
        assert!(!outcome.tables.is_empty(), "{}: no table", figure.id);
        assert!(
            !outcome.measured.is_empty(),
            "{}: no headline value",
            figure.id
        );
        for table in &outcome.tables {
            assert!(
                table_names.insert(table.name),
                "{}: second table named {}",
                figure.id,
                table.name
            );
            assert!(!table.rows.is_empty(), "{}: empty table", table.name);
            assert!(
                table.rows.iter().all(|r| r.len() == table.columns.len()),
                "{}: ragged",
                table.name
            );

            // Both renderings carry exactly the table's cells, header first.
            let cells: Vec<&str> = table
                .columns
                .iter()
                .copied()
                .chain(table.rows.iter().flatten().map(String::as_str))
                .collect();
            let csv = table.to_csv();
            assert_eq!(
                csv.lines().flat_map(|l| l.split(',')).collect::<Vec<_>>(),
                cells,
                "{}",
                table.name
            );
            let text = table.to_text();
            let body = text
                .strip_prefix(&format!("# {}\n", table.title))
                .expect("caption first");
            assert_eq!(body.lines().count(), table.rows.len() + 1, "{}", table.name);
            // Cells may hold single spaces ("nested cells (ours)"); columns are
            // separated by at least two.
            let text_cells: Vec<&str> = body
                .lines()
                .flat_map(|l| l.split("  "))
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .collect();
            assert_eq!(text_cells, cells, "{}", table.name);
        }
        assert_eq!(
            again, outcome,
            "{}: same seeds, different result",
            figure.id
        );
    }
}
