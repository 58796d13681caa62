//! Descriptive statistics over measurement samples.

/// Summary statistics of a sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample set.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        assert!(samples.iter().all(|v| !v.is_nan()), "NaN sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        Some(Self {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean,
            std_dev: var.sqrt(),
            median: percentile_sorted(&sorted, 0.50),
            p95: percentile_sorted(&sorted, 0.95),
            p99: percentile_sorted(&sorted, 0.99),
        })
    }
}

/// Linear-interpolated percentile of a *sorted* sample set, `q ∈ [0, 1]`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample set");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// `x` rounded to the nearest integer, half-way cases away from zero:
/// [`f64::round`], bit for bit, without its libm call, so a stored byte
/// that rounds does not depend on the platform's libm.
///
/// Below 2⁵² in magnitude `x` truncates exactly through `i64`, and the
/// fraction `x - trunc(x)` is exact, so comparing it with ±½ decides the
/// rounding. At or above 2⁵², and for ±∞ and NaN, `x` is already
/// integral (or not a number) and comes back as it is.
#[must_use]
pub fn round_half_away(x: f64) -> f64 {
    const INTEGRAL_FROM: f64 = 4_503_599_627_370_496.0; // 2^52
    if x.abs() >= INTEGRAL_FROM || x.is_nan() {
        return x;
    }
    let whole = x as i64 as f64;
    let frac = x - whole;
    let rounded = if frac >= 0.5 {
        whole + 1.0
    } else if frac <= -0.5 {
        whole - 1.0
    } else {
        whole
    };
    // A negative fraction that rounds to zero rounds to -0.
    rounded.copysign(x)
}

/// Welford-style online accumulator for streams too large to keep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Online {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Online {
    /// A fresh accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn push(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.count += 1;
        let d = v - self.mean;
        self.mean += d / self.count as f64;
        self.m2 += d * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Running population standard deviation (0 if fewer than 2 samples).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Minimum so far (`+inf` if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum so far (`−inf` if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.mean, 2.5);
        assert!((s.median - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn summary_rejects_nan() {
        let _ = Summary::of(&[1.0, f64::NAN]);
    }

    #[test]
    fn percentiles_interpolate() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 0.3), 7.0);
    }

    #[test]
    fn p95_p99_on_uniform_ramp() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert!((s.p95 - 95.0).abs() < 1e-9);
        assert!((s.p99 - 99.0).abs() < 1e-9);
    }

    #[test]
    fn online_matches_batch() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let batch = Summary::of(&data).unwrap();
        let mut on = Online::new();
        for &v in &data {
            on.push(v);
        }
        assert_eq!(on.count(), 8);
        assert!((on.mean() - batch.mean).abs() < 1e-12);
        assert!((on.std_dev() - batch.std_dev).abs() < 1e-12);
        assert_eq!(on.min(), batch.min);
        assert_eq!(on.max(), batch.max);
    }

    #[test]
    fn online_small_counts() {
        let mut on = Online::new();
        assert_eq!(on.std_dev(), 0.0);
        on.push(5.0);
        assert_eq!(on.mean(), 5.0);
        assert_eq!(on.std_dev(), 0.0);
    }
}
