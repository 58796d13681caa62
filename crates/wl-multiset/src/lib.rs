//! Multisets of reals and the fault-tolerant averaging function
//! (paper §4.2 and Appendix).
//!
//! The heart of the Welch–Lynch algorithm is `mid(reduce(·))`: throw away
//! the `f` largest and `f` smallest of the collected clock readings, then
//! take the midpoint of what remains. The Appendix develops the machinery —
//! multisets, the reduction operator, the *x-distance* between multisets —
//! and proves Lemmas 21–24 which drive the per-round halving of the skew.
//!
//! This crate implements all of it:
//!
//! * [`Multiset`] — a sorted finite collection of reals with `min`, `max`,
//!   `diam`, [`Multiset::mid`], [`Multiset::mean`], [`Multiset::reduce`],
//!   and the single-deletion operators [`Multiset::drop_min`] (the paper's
//!   `s`) and [`Multiset::drop_max`] (`l`).
//! * [`distance::x_distance`] — the minimum number of unmatched elements
//!   over all injections, computed exactly by a greedy matching.
//! * [`lemmas`] — executable statements of Appendix Lemmas 21–24, used by
//!   the property-test suite.
//! * [`AveragingFn`] — midpoint (the paper's choice) or mean (the §7
//!   variant with convergence rate `f/(n−2f)`).
//!
//! # Example
//!
//! ```
//! use wl_multiset::Multiset;
//!
//! let arrivals = Multiset::from_iter([10.0, 10.2, 9.9, 55.0, -3.0]);
//! // One fault tolerated: drop the largest (55.0) and smallest (-3.0).
//! let reduced = arrivals.reduce(1);
//! assert_eq!(reduced.min(), Some(9.9));
//! assert_eq!(reduced.max(), Some(10.2));
//! assert!((reduced.mid().unwrap() - 10.05).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod lemmas;

use std::fmt;

/// A finite multiset of real numbers, kept sorted ascending.
///
/// Matches the paper's Appendix definition: a finite collection in which the
/// same number may appear more than once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Multiset {
    sorted: Vec<f64>,
}

impl Multiset {
    /// The empty multiset.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a multiset from a slice of values.
    ///
    /// # Panics
    ///
    /// Panics if any value is NaN (a multiset of *reals* cannot contain NaN;
    /// letting one in would silently corrupt `min`/`max`).
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        values.iter().copied().collect()
    }

    /// Number of elements, counting multiplicity (the paper's `|U|`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the multiset has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The smallest element, `min(U)`.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// The largest element, `max(U)`.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The diameter `diam(U) = max(U) − min(U)`.
    #[must_use]
    pub fn diam(&self) -> Option<f64> {
        Some(self.max()? - self.min()?)
    }

    /// The midpoint `mid(U) = (max(U) + min(U)) / 2`.
    ///
    /// This is the paper's choice of "ordinary averaging function": it makes
    /// the error halve at each round (Lemma 9 / Lemma 24).
    #[must_use]
    pub fn mid(&self) -> Option<f64> {
        Some(midpoint(self.min()?, self.max()?))
    }

    /// The arithmetic mean of all elements (§7 variant).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.len() as f64)
        }
    }

    /// The paper's `s(U)`: one occurrence of the minimum removed.
    #[must_use]
    pub fn drop_min(&self) -> Self {
        Self {
            sorted: self.sorted.get(1..).unwrap_or(&[]).to_vec(),
        }
    }

    /// The paper's `l(U)`: one occurrence of the maximum removed.
    #[must_use]
    pub fn drop_max(&self) -> Self {
        let n = self.sorted.len().saturating_sub(1);
        Self {
            sorted: self.sorted.get(..n).unwrap_or(&[]).to_vec(),
        }
    }

    /// The paper's `reduce(U) = l^f s^f (U)`: removes the `f` largest and
    /// `f` smallest elements.
    ///
    /// # Panics
    ///
    /// Panics unless `|U| ≥ 2f+1`, the precondition under which the paper
    /// defines `reduce` (it needs a non-empty remainder).
    #[must_use]
    pub fn reduce(&self, f: usize) -> Self {
        assert!(
            self.len() >= 2 * f + 1,
            "reduce requires |U| >= 2f+1 (got |U|={}, f={f})",
            self.len()
        );
        Self {
            sorted: self.sorted[f..self.len() - f].to_vec(),
        }
    }

    /// The multiset `U + r`: every element shifted by `r`.
    #[must_use]
    pub fn shift(&self, r: f64) -> Self {
        Self {
            sorted: self.sorted.iter().map(|v| v + r).collect(),
        }
    }

    /// Inserts a value, keeping the internal order.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn insert(&mut self, value: f64) {
        assert!(!value.is_nan(), "multiset elements must not be NaN");
        let pos = self.sorted.partition_point(|&v| v < value);
        self.sorted.insert(pos, value);
    }

    /// The elements in ascending order.
    #[must_use]
    pub fn as_sorted_slice(&self) -> &[f64] {
        &self.sorted
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.sorted.iter().copied()
    }
}

impl FromIterator<f64> for Multiset {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut sorted: Vec<f64> = iter.into_iter().collect();
        assert!(
            sorted.iter().all(|v| !v.is_nan()),
            "multiset elements must not be NaN"
        );
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }
}

impl Extend<f64> for Multiset {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl fmt::Display for Multiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.sorted.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// The midpoint of two reals: `(a + b) / 2`, computed overflow-safely.
#[must_use]
pub fn midpoint(a: f64, b: f64) -> f64 {
    a + (b - a) / 2.0
}

/// The "ordinary averaging function" applied after `reduce` (paper §4.1/§7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AveragingFn {
    /// Midpoint of the reduced range — the paper's choice; halves the error
    /// each round regardless of `n`.
    #[default]
    Midpoint,
    /// Arithmetic mean of the reduced multiset — the §7 variant; converges
    /// at rate `f/(n−2f)` and approaches error `2ε` for large `n`.
    Mean,
}

impl AveragingFn {
    /// Applies `avg(reduce(values))` for fault bound `f`.
    ///
    /// This is the complete fault-tolerant averaging function: immune to up
    /// to `f` arbitrary values as long as `values.len() ≥ 2f+1`.
    ///
    /// # Panics
    ///
    /// Panics unless `values.len() ≥ 2f+1`.
    #[must_use]
    pub fn apply(self, values: &Multiset, f: usize) -> f64 {
        self.apply_sorted(&mut values.sorted.clone(), f)
    }

    /// [`apply`](AveragingFn::apply) without a [`Multiset`]: sorts
    /// `values` in place and averages `values[f .. len−f]`, allocating
    /// nothing — the per-update path of the automata, which keep the
    /// buffer. Bit-identical to the multiset path.
    ///
    /// # Panics
    ///
    /// Panics if a value is NaN or unless `values.len() ≥ 2f+1`.
    #[must_use]
    pub fn apply_sorted(self, values: &mut [f64], f: usize) -> f64 {
        assert!(
            values.iter().all(|v| !v.is_nan()),
            "multiset elements must not be NaN"
        );
        values.sort_by(f64::total_cmp);
        assert!(
            values.len() >= 2 * f + 1,
            "reduce requires |U| >= 2f+1 (got |U|={}, f={f})",
            values.len()
        );
        let reduced = &values[f..values.len() - f];
        match self {
            AveragingFn::Midpoint => midpoint(reduced[0], reduced[reduced.len() - 1]),
            AveragingFn::Mean => reduced.iter().sum::<f64>() / reduced.len() as f64,
        }
    }

    /// The asymptotic per-round convergence rate of the skew for this
    /// averaging function (§7): 1/2 for the midpoint, `f/(n−2f)` for the
    /// mean.
    ///
    /// # Panics
    ///
    /// Panics if `n ≤ 2f` (the averaging function is undefined there).
    #[must_use]
    pub fn convergence_rate(self, n: usize, f: usize) -> f64 {
        assert!(n > 2 * f, "need n > 2f");
        match self {
            AveragingFn::Midpoint => 0.5,
            AveragingFn::Mean => f as f64 / (n - 2 * f) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(vals: &[f64]) -> Multiset {
        Multiset::from_values(vals)
    }

    #[test]
    fn empty_multiset_accessors() {
        let m = Multiset::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.min(), None);
        assert_eq!(m.max(), None);
        assert_eq!(m.diam(), None);
        assert_eq!(m.mid(), None);
        assert_eq!(m.mean(), None);
    }

    #[test]
    fn keeps_duplicates() {
        let m = ms(&[2.0, 1.0, 2.0]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.as_sorted_slice(), &[1.0, 2.0, 2.0]);
    }

    #[test]
    fn min_max_diam_mid_mean() {
        let m = ms(&[3.0, -1.0, 5.0, 3.0]);
        assert_eq!(m.min(), Some(-1.0));
        assert_eq!(m.max(), Some(5.0));
        assert_eq!(m.diam(), Some(6.0));
        assert_eq!(m.mid(), Some(2.0));
        assert_eq!(m.mean(), Some(2.5));
    }

    #[test]
    fn drop_min_max_remove_one_occurrence() {
        let m = ms(&[1.0, 1.0, 2.0, 3.0, 3.0]);
        assert_eq!(m.drop_min().as_sorted_slice(), &[1.0, 2.0, 3.0, 3.0]);
        assert_eq!(m.drop_max().as_sorted_slice(), &[1.0, 1.0, 2.0, 3.0]);
        assert!(Multiset::new().drop_min().is_empty());
        assert!(Multiset::new().drop_max().is_empty());
    }

    #[test]
    fn reduce_strips_f_each_side() {
        let m = ms(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let r = m.reduce(2);
        assert_eq!(r.as_sorted_slice(), &[2.0, 3.0, 4.0]);
        assert_eq!(m.reduce(0), m);
    }

    #[test]
    #[should_panic(expected = "2f+1")]
    fn reduce_rejects_too_small() {
        let _ = ms(&[1.0, 2.0]).reduce(1);
    }

    #[test]
    fn reduce_immune_to_f_arbitrary_values() {
        // Lemma 6's intuition: after reduce, the surviving range lies within
        // the range of the n-f "good" values, whatever the f bad ones are.
        let good = [10.0, 10.1, 10.2, 9.9, 10.05];
        for bad in [-1e18, 0.0, 10.05, 1e18, f64::MAX] {
            let mut all = good.to_vec();
            all.push(bad);
            let m = Multiset::from_values(&all);
            let r = m.reduce(1);
            assert!(r.min().unwrap() >= 9.9);
            assert!(r.max().unwrap() <= 10.2);
        }
    }

    #[test]
    fn shift_commutes_with_mid_and_reduce() {
        // The Appendix notes mid(U+r) = mid(U)+r, reduce(U+r) = reduce(U)+r.
        let m = ms(&[1.0, 4.0, 2.0, 8.0, 0.5]);
        let r = 3.25;
        assert!((m.shift(r).mid().unwrap() - (m.mid().unwrap() + r)).abs() < 1e-12);
        assert_eq!(m.shift(r).reduce(1), m.reduce(1).shift(r));
    }

    #[test]
    fn insert_keeps_sorted() {
        let mut m = ms(&[1.0, 3.0]);
        m.insert(2.0);
        m.insert(0.0);
        m.insert(4.0);
        assert_eq!(m.as_sorted_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn insert_rejects_nan() {
        Multiset::new().insert(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn from_iter_rejects_nan() {
        let _: Multiset = [1.0, f64::NAN].into_iter().collect();
    }

    #[test]
    fn extend_and_iter() {
        let mut m = Multiset::new();
        m.extend([3.0, 1.0, 2.0]);
        let v: Vec<f64> = m.iter().collect();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", ms(&[2.0, 1.0])), "{1, 2}");
        assert_eq!(format!("{}", Multiset::new()), "{}");
    }

    #[test]
    fn averaging_fn_midpoint_vs_mean() {
        let m = ms(&[0.0, 1.0, 2.0, 9.0, 100.0]);
        // reduce(1) leaves {1, 2, 9}.
        assert_eq!(AveragingFn::Midpoint.apply(&m, 1), 5.0);
        assert_eq!(AveragingFn::Mean.apply(&m, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn apply_sorted_rejects_nan() {
        let _ = AveragingFn::Midpoint.apply_sorted(&mut [1.0, f64::NAN, 2.0], 1);
    }

    #[test]
    #[should_panic(expected = "2f+1")]
    fn apply_sorted_rejects_too_small() {
        let _ = AveragingFn::Mean.apply_sorted(&mut [1.0, 2.0], 1);
    }

    /// Values where a different sort or a different summation order would
    /// show in the bits: duplicates, both zeros, subnormals, huge and
    /// ordinary magnitudes side by side.
    fn awkward_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            -50.0f64..50.0,
            (0u64..4).prop_map(|k| k as f64 * 0.25),
            Just(0.0),
            Just(-0.0),
            (1u64..8).prop_map(f64::from_bits),
            (1u64..8).prop_map(|b| -f64::from_bits(b)),
            -1e300f64..1e300,
        ]
    }

    proptest! {
        /// `apply_sorted` is the `Multiset` path, bit for bit: the explicit
        /// `from_values → reduce → mid | mean` composition is the reference.
        #[test]
        fn prop_apply_sorted_matches_the_multiset_path(
            values in proptest::collection::vec(awkward_value(), 1..20),
            f_pick in 0usize..16,
        ) {
            let f = f_pick % ((values.len() - 1) / 2 + 1);
            let reduced = Multiset::from_values(&values).reduce(f);
            for (avg, reference) in [
                (AveragingFn::Midpoint, reduced.mid().unwrap()),
                (AveragingFn::Mean, reduced.mean().unwrap()),
            ] {
                let got = avg.apply_sorted(&mut values.clone(), f);
                prop_assert_eq!(got.to_bits(), reference.to_bits());
                let via_apply = avg.apply(&Multiset::from_values(&values), f);
                prop_assert_eq!(via_apply.to_bits(), reference.to_bits());
            }
        }
    }

    #[test]
    fn convergence_rates() {
        assert_eq!(AveragingFn::Midpoint.convergence_rate(4, 1), 0.5);
        assert_eq!(AveragingFn::Mean.convergence_rate(4, 1), 0.5);
        assert_eq!(AveragingFn::Mean.convergence_rate(10, 1), 0.125);
        // Mean beats midpoint once n > 4f.
        assert!(AveragingFn::Mean.convergence_rate(16, 1) < 0.5);
    }

    #[test]
    fn midpoint_helper_is_symmetric() {
        assert_eq!(midpoint(1.0, 3.0), 2.0);
        assert_eq!(midpoint(3.0, 1.0), 2.0);
        assert_eq!(midpoint(-1.0, 1.0), 0.0);
    }
}
