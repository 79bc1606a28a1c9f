//! One table type behind every figure: the same rows render as the aligned
//! stdout table and as `<dir>/<name>.csv`.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A named series: column names plus rows of already-formatted cells, so
/// the text and CSV renderings cannot disagree on a digit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// File stem of the CSV (`fig06` → `fig06.csv`).
    pub name: &'static str,
    /// Caption printed above the text rendering.
    pub title: String,
    /// Column names — the CSV header.
    pub columns: &'static [&'static str],
    /// One `Vec` of cells per row, `columns.len()` wide.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Builds a table from pre-formatted rows.
    ///
    /// # Panics
    ///
    /// Panics on a ragged row or a cell that would break the CSV (comma or
    /// newline) — both are bugs in the figure definition.
    pub fn new(
        name: &'static str,
        title: impl Into<String>,
        columns: &'static [&'static str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> Table {
        let rows: Vec<Vec<String>> = rows.into_iter().collect();
        for row in &rows {
            assert_eq!(row.len(), columns.len(), "{name}: ragged row {row:?}");
            assert!(
                !row.iter().any(|c| c.contains([',', '\n'])),
                "{name}: unquotable cell in {row:?}"
            );
        }
        Table {
            name,
            title: title.into(),
            columns,
            rows,
        }
    }

    /// The aligned text rendering: caption, header, one line per row, every
    /// column right-aligned to its widest cell.
    pub fn to_text(&self) -> String {
        let header: Vec<String> = self.columns.iter().map(|c| (*c).to_string()).collect();
        let lines = || std::iter::once(&header).chain(&self.rows);
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| lines().map(|r| r[i].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = format!("# {}\n", self.title);
        for row in lines() {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, &w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }

    /// The CSV rendering: header line, then one comma-joined line per row.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes [`Table::to_csv`] to `<dir>/<name>.csv` (creating `dir`),
    /// returning the path written.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            "t",
            "a sample",
            &["n", "overhead"],
            [
                vec!["100".to_string(), "0.570".to_string()],
                vec!["20000".to_string(), "0.6".to_string()],
            ],
        )
    }

    #[test]
    fn csv_written_and_readable() {
        let dir = std::env::temp_dir().join(format!("autosel_table_test_{}", std::process::id()));
        let p = sample().write_csv(&dir).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(p, dir.join("t.csv"));
        assert_eq!(body, "n,overhead\n100,0.570\n20000,0.6\n");
    }

    #[test]
    fn text_is_right_aligned_under_the_caption() {
        assert_eq!(
            sample().to_text(),
            "# a sample\n    n  overhead\n  100     0.570\n20000       0.6\n"
        );
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn ragged_rows_are_rejected() {
        let _ = Table::new("t", "x", &["a", "b"], [vec!["1".to_string()]]);
    }
}
