//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a phase that produced no sample is a bug in
/// the benchmark, not a number to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (in `0..=1`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `q` that still has at least ten
/// samples beyond it — the rule for reporting a tail. With fewer than
/// twenty samples no tail is supported and the median is what is left.
pub fn supported_quantile(samples: usize, q: f64) -> f64 {
    if samples < 20 {
        return 0.5;
    }
    q.min(1.0 - 10.0 / samples as f64).max(0.5)
}

/// [`percentile`] at [`supported_quantile`] of `q`: asks for p99.9 of
/// 3 000 samples and gets their p99.67.
pub fn tail(sorted: &[f64], q: f64) -> f64 {
    percentile(sorted, supported_quantile(sorted.len(), q))
}

/// Sorts a sample set ascending, for [`percentile`] and [`tail`].
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples support p99 exactly (ten beyond), not p99.9.
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        assert_eq!(supported_quantile(1000, 0.999), 0.99);
        assert_eq!(supported_quantile(30_000, 0.999), 0.999);
        // 100 samples support p90 at most; 10 support only the median.
        assert_eq!(supported_quantile(100, 0.99), 0.9);
        assert_eq!(supported_quantile(10, 0.99), 0.5);
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), 90.0);
    }
}
