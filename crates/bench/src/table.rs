//! Plain-text table rendering for the paper artifacts.

/// Render an aligned text table with a header row.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (c, cell) in cells.iter().enumerate().take(cols) {
            if c > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>w$}", w = widths[c]));
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, &rule);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Format a speedup as the paper prints it (three decimals).
pub fn speedup_cell(x: f64) -> String {
    format!("{x:.3}")
}

/// Format an efficiency (two decimals).
pub fn efficiency_cell(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage (one decimal + %).
pub fn percent_cell(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        // All lines equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w));
    }

    #[test]
    fn cells_format() {
        assert_eq!(speedup_cell(1.5), "1.500");
        assert_eq!(efficiency_cell(0.876), "0.88");
        assert_eq!(percent_cell(12.34), "12.3%");
    }
}
