//! Terminal figures: render a time series as an ASCII chart.
//!
//! The paper's convergence behaviour (figures F1/F2 in EXPERIMENTS.md) is
//! best seen as a curve; this renderer keeps the experiment binaries
//! self-contained with no plotting dependency.

use crate::stats::round_half_away;
use std::fmt::Write as _;

/// Renders `(x, y)` samples as a fixed-size ASCII chart with y-axis labels.
///
/// Points are bucketed by x; each column shows the *maximum* y in its
/// bucket (appropriate for worst-case skew curves). Returns a multi-line
/// string.
///
/// # Panics
///
/// Panics if `width`/`height` are zero.
#[must_use]
pub fn ascii_chart(samples: &[(f64, f64)], width: usize, height: usize, y_label: &str) -> String {
    assert!(width > 0 && height > 0, "chart dimensions must be positive");
    if samples.is_empty() {
        return format!("(no samples)\n{:>12}", y_label);
    }
    let x_min = samples
        .iter()
        .map(|&(x, _)| x)
        .fold(f64::INFINITY, f64::min);
    let x_max = samples
        .iter()
        .map(|&(x, _)| x)
        .fold(f64::NEG_INFINITY, f64::max);
    let y_max = samples.iter().map(|&(_, y)| y).fold(0.0f64, f64::max);
    let y_min = 0.0f64.min(samples.iter().map(|&(_, y)| y).fold(0.0, f64::min));
    let y_span = (y_max - y_min).max(f64::MIN_POSITIVE);
    let x_span = (x_max - x_min).max(f64::MIN_POSITIVE);

    // Column -> max y in the bucket.
    let mut cols: Vec<Option<f64>> = vec![None; width];
    for &(x, y) in samples {
        let c = round_half_away(((x - x_min) / x_span) * (width - 1) as f64) as usize;
        let cell = &mut cols[c.min(width - 1)];
        *cell = Some(cell.map_or(y, |prev: f64| prev.max(y)));
    }

    let mut out = String::new();
    for row in (0..height).rev() {
        let _y_lo = y_min + y_span * row as f64 / height as f64;
        let label = if row == height - 1 {
            format!("{y_max:10.3e}")
        } else if row == 0 {
            format!("{y_min:10.3e}")
        } else {
            " ".repeat(10)
        };
        let _ = write!(out, "{label} |");
        for c in cols.iter() {
            let ch = match c {
                Some(y) => {
                    let level = ((y - y_min) / y_span * height as f64).ceil() as usize;
                    if level > row {
                        '*'
                    } else {
                        ' '
                    }
                }
                None => ' ',
            };
            out.push(ch);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{} +{}", " ".repeat(10), "-".repeat(width));
    let _ = writeln!(
        out,
        "{}  {:<12.3}{}{:>12.3}   ({y_label})",
        " ".repeat(10),
        x_min,
        " ".repeat(width.saturating_sub(26)),
        x_max
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_decay_curve() {
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64, 100.0 * 0.9f64.powi(i)))
            .collect();
        let chart = ascii_chart(&samples, 40, 10, "skew");
        // Tall on the left, short on the right.
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines.len() >= 12);
        let top = lines[0];
        assert!(top.contains('*'), "top row should show the initial peak");
        let first_star = top.find('*').unwrap();
        assert!(first_star < 20, "peak must be on the left");
        assert!(chart.contains("skew"));
    }

    #[test]
    fn empty_samples_graceful() {
        let chart = ascii_chart(&[], 10, 5, "y");
        assert!(chart.contains("no samples"));
    }

    #[test]
    fn single_point() {
        let chart = ascii_chart(&[(1.0, 5.0)], 10, 5, "v");
        assert!(chart.contains('*'));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_rejected() {
        let _ = ascii_chart(&[(0.0, 1.0)], 0, 5, "y");
    }
}
