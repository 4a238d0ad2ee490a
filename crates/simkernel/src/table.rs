//! Aligned ASCII table rendering for the "table" benchmarks.
//!
//! Each T* experiment prints one [`Table`]: a title, a header row, and
//! data rows. Cells are strings; numeric helpers format with fixed
//! precision so the emitted tables diff cleanly between runs.

use std::fmt;

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use simkernel::Table;
/// let mut t = Table::new("T0: demo", &["strategy", "utility"]);
/// t.row(&["static", "0.41"]);
/// t.row(&["self-aware", "0.78"]);
/// let s = t.to_string();
/// assert!(s.contains("self-aware"));
/// assert!(s.contains("utility"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of preformatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows
            .push(cells.iter().map(|s| (*s).to_string()).collect());
    }

    /// Appends a row from owned strings (convenient with `format!`).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cell at `(row, col)`, if present.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (i, cell) in cells.iter().enumerate() {
                if !first {
                    write!(f, "  ")?;
                }
                first = false;
                write!(f, "{cell:<w$}", w = widths[i])?;
            }
            writeln!(f)
        };
        fmt_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            fmt_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float with 3 decimal places (table convention).
#[must_use]
pub fn num(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats `mean ± ci` with 3 decimal places.
#[must_use]
pub fn num_ci(mean: f64, ci: f64) -> String {
    format!("{mean:.3}±{ci:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_rows() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(&["1", "2"]);
        t.row_owned(vec!["333".into(), "4".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        assert!(s.contains("a    bbbb"));
        assert!(s.contains("333"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn cell_access() {
        let mut t = Table::new("x", &["c1", "c2"]);
        t.row(&["v1", "v2"]);
        assert_eq!(t.cell(0, 1), Some("v2"));
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(t.cell(0, 5), None);
    }

    #[test]
    #[should_panic(expected = "row width must match header width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(num(1.23456), "1.235");
        assert_eq!(num_ci(1.0, 0.5), "1.000±0.500");
    }

    #[test]
    fn columns_align() {
        let mut t = Table::new("align", &["name", "v"]);
        t.row(&["short", "1"]);
        t.row(&["a-very-long-name", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        // header line and both data rows should place column 2 at the
        // same byte offset
        let off = |l: &str| l.rfind(char::is_numeric).or_else(|| l.rfind('v'));
        assert_eq!(off(lines[1]), off(lines[3]));
    }
}
