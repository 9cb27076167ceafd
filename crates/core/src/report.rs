//! Plain-text table and ASCII-plot rendering for the experiment binaries.

/// A simple fixed-width table printer.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table as artifact data: `{"columns": [...], "rows": [[...]]}`,
    /// holding exactly the cells [`Table::render`] prints.
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        let cells = |cs: &[String]| Json::Arr(cs.iter().map(|c| Json::Str(c.clone())).collect());
        Json::obj()
            .with("columns", cells(&self.headers))
            .with("rows", Json::Arr(self.rows.iter().map(|r| cells(r)).collect()))
    }

    /// Renders the table to a string.
    ///
    /// Column widths count *characters*, not bytes: cells like `"μ=1.5"`
    /// or `"RTT̄·C"` would otherwise report an inflated `len()` and push
    /// their column out of alignment.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let chars = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| chars(h)).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(chars(c));
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                // Right-align by hand: format!'s width specifier also pads
                // by chars, but counting explicitly keeps the invariant in
                // one place with the width computation above.
                for _ in 0..widths[i].saturating_sub(chars(c)) {
                    out.push(' ');
                }
                out.push_str(c);
                if i + 1 < ncols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Renders an ASCII scatter/line plot of `(x, y)` points, `width`×`height`
/// characters. Good enough to eyeball the shapes the paper plots.
#[expect(
    clippy::cast_possible_truncation,
    reason = "plot coordinates are scaled into [0, width) and [0, levels)"
)]
pub fn ascii_plot(points: &[(f64, f64)], width: usize, height: usize, title: &str) -> String {
    assert!(width >= 10 && height >= 4);
    if points.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in points {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / (xmax - xmin)) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / (ymax - ymin)) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = b'*';
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{ymax:>12.4} +\n"));
    for row in &grid {
        out.push_str("             |");
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!("{ymin:>12.4} +"));
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "              x: {xmin:.4} .. {xmax:.4}\n"
    ));
    out
}

/// Formats a utilization in the paper's style (`99.8%`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// ASCII intensity ramp used by [`sparkline`], dimmest to brightest.
const SPARK_RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `values` as a one-line ASCII sparkline of `width` characters.
///
/// Values are bucketed to `width` (mean per bucket), normalized to the
/// series' min..max range, and mapped onto a 10-level intensity ramp —
/// enough to show the sawtooth/plateau shapes RESULTS.md embeds next to
/// each figure without a full plot. Returns `"(no data)"` for an empty
/// series; a constant series renders at mid-intensity.
#[expect(
    clippy::cast_possible_truncation,
    reason = "plot coordinates are scaled into [0, width) and [0, levels)"
)]
pub fn sparkline(values: &[f64], width: usize) -> String {
    assert!(width > 0);
    if values.is_empty() {
        return "(no data)".to_string();
    }
    let width = width.min(values.len());
    // Mean per bucket, splitting the series evenly.
    let mut buckets = Vec::with_capacity(width);
    for b in 0..width {
        let lo = b * values.len() / width;
        let hi = ((b + 1) * values.len() / width).max(lo + 1);
        let slice = &values[lo..hi];
        buckets.push(slice.iter().sum::<f64>() / slice.len() as f64);
    }
    let min = buckets.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = buckets.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    let levels = SPARK_RAMP.len();
    buckets
        .iter()
        .map(|&v| {
            let idx = if span.abs() < 1e-12 {
                levels / 2
            } else {
                (((v - min) / span) * (levels - 1) as f64).round() as usize
            };
            SPARK_RAMP[idx.min(levels - 1)] as char
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["n", "buffer", "util"]);
        t.row(&["100".into(), "64".into(), "96.9%".into()]);
        t.row(&["400".into(), "129".into(), "100%".into()]);
        let s = t.render();
        assert!(s.contains("n  buffer"));
        assert!(s.contains("96.9%"));
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn json_export_keeps_the_printed_cells() {
        let mut t = Table::new(&["n", "util"]);
        t.row(&["1".into(), "96.9%".into()]);
        let j = t.to_json();
        let cells = |key: &str| j.get(key).and_then(crate::Json::as_arr).unwrap().to_vec();
        assert_eq!(cells("columns"), [crate::Json::Str("n".into()), crate::Json::Str("util".into())]);
        assert_eq!(cells("rows")[0].as_arr().unwrap()[1].as_str(), Some("96.9%"));
    }

    #[test]
    #[should_panic]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn plot_contains_points_and_bounds() {
        let pts: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, (i * i) as f64)).collect();
        let s = ascii_plot(&pts, 40, 10, "parabola");
        assert!(s.contains("parabola"));
        assert!(s.contains('*'));
        assert!(s.contains("x: 0.0000 .. 49.0000"));
    }

    #[test]
    fn plot_handles_degenerate_input() {
        let s = ascii_plot(&[(1.0, 2.0)], 20, 5, "dot");
        assert!(s.contains('*'));
        assert!(ascii_plot(&[], 20, 5, "empty").contains("no data"));
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.969), "96.9%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn table_aligns_non_ascii_cells_by_char_count() {
        // Regression: widths used byte `len()`, so multi-byte cells like
        // "μ=1.5" (6 chars, 7 bytes) or "RTT̄·C" got over-padded columns.
        let mut t = Table::new(&["name", "value"]);
        t.row(&["μ=1.5".into(), "1".into()]);
        t.row(&["sigma".into(), "22".into()]);
        t.row(&["RTT̄·C".into(), "333".into()]);
        let s = t.render();
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        // Header, rule and every row line up to the same char width.
        assert!(
            widths.iter().all(|&w| w == widths[0]),
            "ragged table:\n{s}"
        );
        // And the ASCII-only rule line matches that width in bytes too.
        let rule = s.lines().nth(1).unwrap();
        assert_eq!(rule.len(), widths[0]);
    }

    #[test]
    fn sparkline_shapes() {
        let ramp: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = sparkline(&ramp, 10);
        assert_eq!(s.chars().count(), 10);
        assert!(s.starts_with(' ') && s.ends_with('@'));
        // Constant series: mid-intensity, no panic.
        let flat = sparkline(&[5.0; 40], 8);
        assert_eq!(flat.chars().count(), 8);
        assert!(flat.chars().all(|c| c == flat.chars().next().unwrap()));
        // Degenerate inputs.
        assert_eq!(sparkline(&[], 10), "(no data)");
        assert_eq!(sparkline(&[1.0], 10).chars().count(), 1);
        // Deterministic.
        assert_eq!(sparkline(&ramp, 10), sparkline(&ramp, 10));
    }
}
