//! Plain-text table output for the experiment harness.

use std::fmt::Write as _;

/// A simple aligned text table: a header row plus data rows, rendered with
/// column padding — the harness's equivalent of a paper figure.
///
/// # Example
///
/// ```
/// use thynvm_bench::Table;
///
/// let mut t = Table::new("Figure X", &["system", "value"]);
/// t.row(&["ThyNVM".into(), format!("{:.2}", 1.049)]);
/// let text = t.render();
/// assert!(text.contains("ThyNVM"));
/// assert!(text.contains("1.05"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one data row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different arity than the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as padded plain text.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    s.push_str("  ");
                }
                let _ = write!(s, "{:<width$}", cell, width = widths[i]);
            }
            s
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        // `2 * (ncols - 1)` accounts for the two-space gaps between columns;
        // saturate so a zero-column table renders an empty rule instead of
        // underflowing (debug panic / absurd allocation in release).
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols.saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }
}

/// Formats a float with sensible precision for figures.
pub fn fmt_f(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a byte count as MB (10^6, matching the paper's axes).
pub fn fmt_mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["a", "long-header"]);
        t.row(&["xxxxxxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].contains("== T =="));
        assert!(lines[1].starts_with("a       "));
        assert!(lines[3].starts_with("xxxxxxxx"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Table::new("T", &["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new("T", &["a"]);
        assert!(t.is_empty());
        t.row(&["1".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(12345.6), "12346");
        assert_eq!(fmt_f(42.25), "42.2");
        assert_eq!(fmt_f(1.0495), "1.050");
    }

    #[test]
    fn mb_formatting() {
        assert_eq!(fmt_mb(1_500_000), "1.5");
        assert_eq!(fmt_mb(0), "0.0");
    }

    #[test]
    fn zero_column_table_renders_without_underflow() {
        // Regression: `2 * (ncols - 1)` underflowed for ncols == 0, which
        // panicked in debug and asked `"-".repeat` for ~usize::MAX bytes in
        // release.
        let t = Table::new("Empty", &[]);
        let s = t.render();
        assert!(s.contains("== Empty =="));
        assert!(s.len() < 64, "separator must be empty, got {} bytes", s.len());
    }

    #[test]
    fn single_column_table_separator_matches_width() {
        let mut t = Table::new("T", &["col"]);
        t.row(&["abcdef".into()]);
        let s = t.render();
        assert!(s.lines().any(|l| l == "------"), "separator spans the one column:\n{s}");
    }
}
