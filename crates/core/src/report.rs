//! Plain-text report rendering for experiment output.
//!
//! The `repro` binary prints the same rows/series the paper's
//! tables and figures report; [`Table`] lays them out with aligned
//! columns, and the formatting helpers render loads and confidence
//! intervals compactly.

use sp_stats::ConfidenceInterval;

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use sp_core::Table;
///
/// let mut t = Table::new(vec!["cluster", "load"]);
/// t.row(vec!["10".into(), "1.5e6".into()]);
/// let s = t.render();
/// assert!(s.contains("cluster"));
/// assert!(s.contains("1.5e6"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded; longer
    /// rows extend the layout.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = w - cell.chars().count();
                // Right-align numeric-looking cells, left-align text.
                if cell
                    .chars()
                    .next()
                    .map(|c| c.is_ascii_digit() || c == '-' || c == '+')
                    == Some(true)
                {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                } else {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&render_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&render_row(r, &widths));
            out.push('\n');
        }
        out
    }
}

/// Scientific formatting with 3 significant digits (`1.23e6`).
pub fn sci(x: f64) -> String {
    if x == 0.0 {
        return "0".to_string();
    }
    format!("{x:.3e}")
}

/// Formats a confidence interval as `mean ± half`.
pub fn ci(ci: &ConfidenceInterval) -> String {
    if ci.half_width > 0.0 {
        format!("{} ±{}", sci(ci.mean), sci(ci.half_width))
    } else {
        sci(ci.mean)
    }
}

/// Formats a ratio as a signed percentage change (`-79.3%`).
pub fn pct_change(new: f64, old: f64) -> String {
    if old == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (new - old) / old * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["short".into(), "1".into()]);
        t.row(vec!["much longer name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        // Numeric cells right-aligned: "1" ends at the same column as
        // "12345".
        let c1 = lines[2].rfind('1').unwrap();
        let c2 = lines[3].rfind('5').unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn table_handles_ragged_rows() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x".into(), "extra".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains("extra"));
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(sci(0.0), "0");
        assert!(sci(1_234_567.0).starts_with("1.235e6"));
        assert!(sci(-0.00123).contains("e-3"));
    }

    #[test]
    fn pct_change_formatting() {
        assert_eq!(pct_change(50.0, 100.0), "-50.0%");
        assert_eq!(pct_change(110.0, 100.0), "+10.0%");
        assert_eq!(pct_change(1.0, 0.0), "n/a");
    }

    #[test]
    fn ci_formatting() {
        let with = ConfidenceInterval {
            mean: 100.0,
            half_width: 5.0,
            count: 10,
        };
        assert!(ci(&with).contains('±'));
        let without = ConfidenceInterval {
            mean: 100.0,
            half_width: 0.0,
            count: 1,
        };
        assert!(!ci(&without).contains('±'));
    }
}
