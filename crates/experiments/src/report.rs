//! Report emission: markdown tables, CSV files, duration formatting.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Format seconds the way the paper's Table I does: `2s`, `1m37s`,
/// `2h58m`.
pub fn fmt_hms(seconds: f64) -> String {
    let s = seconds.round().max(0.0) as u64;
    if s < 60 {
        format!("{s}s")
    } else if s < 3600 {
        let m = s / 60;
        let r = s % 60;
        if r == 0 {
            format!("{m}m")
        } else {
            format!("{m}m{r}s")
        }
    } else {
        let h = s / 3600;
        let m = (s % 3600) / 60;
        if m == 0 {
            format!("{h}h")
        } else {
            format!("{h}h{m}m")
        }
    }
}

/// A simple aligned markdown table builder.
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a GitHub-flavoured markdown table with padded columns.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            out.push('|');
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(out, " {c:<w$} |");
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{:-<1$}|", "", w + 2);
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Render as CSV (header + rows, minimal quoting).
    pub(crate) fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV form to `path` (creating parent directories).
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(self.to_csv().as_bytes())?;
        f.flush()
    }
}

/// Format a ratio like the paper's labels: `0.79x`, `1.4x`, `12x`, `84x`.
pub(crate) fn fmt_ratio(r: f64) -> String {
    if !r.is_finite() {
        "-".into()
    } else if r >= 10.0 {
        format!("{r:.0}x")
    } else {
        format!("{r:.2}x")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hms_matches_paper_style() {
        assert_eq!(fmt_hms(2.0), "2s");
        assert_eq!(fmt_hms(97.0), "1m37s");
        assert_eq!(fmt_hms(60.0), "1m");
        assert_eq!(fmt_hms(3600.0), "1h");
        assert_eq!(fmt_hms(2.0 * 3600.0 + 58.0 * 60.0), "2h58m");
        assert_eq!(fmt_hms(0.4), "0s");
    }

    #[test]
    fn markdown_table_alignment() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["traffic light".into(), "1".into()]);
        t.row(vec!["x".into(), "12345".into()]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("name"));
        assert!(lines[2].contains("traffic light"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn rejects_bad_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["hello, world".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"hello, world\",plain"));
    }

    #[test]
    fn csv_round_trips_to_disk() {
        let mut t = Table::new(&["x"]);
        t.row(vec!["1".into()]);
        let dir = std::env::temp_dir().join("exsample_report_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, "x\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn ratio_formats() {
        assert_eq!(fmt_ratio(0.79), "0.79x");
        assert_eq!(fmt_ratio(1.41), "1.41x");
        assert_eq!(fmt_ratio(12.3), "12x");
        assert_eq!(fmt_ratio(f64::INFINITY), "-");
    }
}
