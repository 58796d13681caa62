//! Fixed-width text tables and CSV output for the experiment binaries.

use std::fmt::Write as _;
use std::io;

/// A simple left-aligned text table.
///
/// # Example
///
/// ```
/// use wl_analysis::report::Table;
///
/// let mut t = Table::new(&["n", "skew", "gamma"]);
/// t.row(&["4", "0.00102", "0.00411"]);
/// let s = t.to_string();
/// assert!(s.contains("skew"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|s| (*s).to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the headers.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
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

    /// Writes the table as CSV (headers first) to the given writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{}", self.headers.join(","))?;
        for r in &self.rows {
            writeln!(w, "{}", r.join(","))?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "## {t}");
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for i in 0..ncols {
                let _ = write!(line, " {:<width$} |", cells[i], width = widths[i]);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{}|", "-".repeat(w + 2));
        }
        let _ = writeln!(out, "{sep}");
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r, &widths));
        }
        f.write_str(&out)
    }
}

/// Formats a quantity in engineering-friendly microseconds/milliseconds.
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    let a = s.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a < 1e-3 {
        format!("{:.3}us", s * 1e6)
    } else if a < 1.0 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{s:.4}s")
    }
}

/// Formats a ratio as a percentage with two decimals.
#[must_use]
pub fn fmt_pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]).with_title("T");
        t.row(&["1", "2"]);
        t.row(&["333", "4"]);
        let s = t.to_string();
        assert!(s.contains("## T"));
        assert!(s.contains("| a   | long-header |"));
        assert!(s.contains("| 333 | 4           |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1", "2"]);
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "x,y\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_secs(0.0), "0");
        assert!(fmt_secs(5e-6).contains("us"));
        assert!(fmt_secs(0.005).contains("ms"));
        assert!(fmt_secs(2.5).contains('s'));
        assert_eq!(fmt_pct(0.5), "50.00%");
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new(&["x"]);
        t.row_owned(vec!["v".to_string()]);
        assert_eq!(t.len(), 1);
    }
}
