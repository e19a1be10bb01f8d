//! Aligned-text table printing and CSV output for the experiments.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// A simple table: headers plus string rows, printed column-aligned.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render the aligned table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write the table as CSV to `dir/name.csv` (creating `dir`).
    ///
    /// # Panics
    ///
    /// Panics on I/O errors (experiments fail loudly).
    pub fn write_csv(&self, dir: &Path, name: &str) {
        fs::create_dir_all(dir).expect("creating CSV directory");
        let mut out = String::new();
        // RFC 4180: quote any cell containing a comma, quote, or line
        // break, doubling internal quotes.
        let esc = |s: &str| {
            if s.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, out).expect("writing CSV");
        eprintln!("wrote {}", path.display());
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// A guarded ratio for baseline normalizations: `num / den`, or NaN when
/// the denominator is zero or non-finite. NaN renders as `NaN` in tables
/// and as `null` in the JSON metrics (never invalid JSON), instead of the
/// `inf` a degenerate quick-mode baseline used to produce.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den.is_finite() && den != 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["size", "speedup"]);
        t.row(vec!["2".into(), "1.50".into()]);
        t.row(vec!["131072".into(), "10.25".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("size"));
        assert!(lines[2].ends_with("1.50"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn zero_column_table_renders() {
        let t = Table::new(&[]);
        let r = t.render();
        assert_eq!(r, "\n\n", "header line + empty rule, no panic");
    }

    #[test]
    fn csv_escapes_quotes_and_line_breaks() {
        let dir = std::env::temp_dir().join("elision-bench-test-csv-esc");
        let mut t = Table::new(&["plain", "q\"uote"]);
        t.row(vec!["line\nbreak".into(), "cr\rhere".into()]);
        t.write_csv(&dir, "t");
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(body, "plain,\"q\"\"uote\"\n\"line\nbreak\",\"cr\rhere\"\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ratio_guards_degenerate_baselines() {
        assert_eq!(ratio(6.0, 3.0), 2.0);
        assert!(ratio(1.0, 0.0).is_nan(), "zero baseline must not produce inf");
        assert!(ratio(1.0, f64::NAN).is_nan());
        assert!(ratio(1.0, f64::INFINITY).is_nan());
        assert!(ratio(f64::NAN, 2.0).is_nan(), "NaN numerator stays NaN");
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("elision-bench-test-csv");
        let mut t = Table::new(&["a", "b,c"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&dir, "t");
        let body = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert_eq!(body, "a,\"b,c\"\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
