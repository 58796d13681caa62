//! Per-round convergence: measuring the halving of the skew.
//!
//! Lemma 10 / §7 predict `β_{i+1} ≈ β_i/2 + 2ε + 2ρP` for the maintenance
//! algorithm; Lemma 20 predicts `B^{i+1} ≤ B^i/2 + 2ε + 2ρ(11δ+39ε)` for
//! startup. Both are geometric approaches to a fixed point: this module
//! extracts the per-round skew series from an execution and estimates the
//! contraction factor.

use crate::skew::{SkewEvaluator, EVENT_EPS};
use crate::ExecutionView;
use wl_clock::Clock;
use wl_time::{RealDur, RealTime};

/// The skew measured once per synchronization round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSeries {
    /// `skews[i]` is the max pairwise nonfaulty skew just after update
    /// wave `i`.
    pub skews: Vec<f64>,
    /// The real times at which the waves were measured.
    pub times: Vec<RealTime>,
}

/// Groups all nonfaulty correction changes into waves — changes within
/// `wave_gap` of each other belong to one resynchronization wave — and
/// returns, in time order, the instant just after the last change of
/// each wave: where [`round_series`] measures.
///
/// This avoids measuring mid-wave, where one process has updated and
/// another has not (that transient is covered by Theorem 16's Case 2, not
/// by the per-round recurrence).
#[must_use]
pub fn wave_instants<C: Clock>(view: &ExecutionView<'_, C>, wave_gap: RealDur) -> Vec<RealTime> {
    let mut changes: Vec<RealTime> = view.nonfaulty_change_times().collect();
    changes.sort_by(RealTime::total_cmp);
    waves_of_sorted(&changes, wave_gap)
}

/// [`wave_instants`] over change instants the caller has already sorted
/// by [`RealTime::total_cmp`].
#[must_use]
pub fn waves_of_sorted(changes: &[RealTime], wave_gap: RealDur) -> Vec<RealTime> {
    let mut instants = Vec::new();
    let eps = RealDur::from_secs(EVENT_EPS);
    let mut i = 0;
    while i < changes.len() {
        let mut last = changes[i];
        let mut j = i + 1;
        while j < changes.len() && (changes[j] - last).as_secs() <= wave_gap.as_secs() {
            last = changes[j];
            j += 1;
        }
        instants.push(last + eps);
        i = j;
    }
    instants
}

/// The max pairwise nonfaulty skew at each of [`wave_instants`].
#[must_use]
pub fn round_series<C: Clock>(view: &ExecutionView<'_, C>, wave_gap: RealDur) -> RoundSeries {
    let times = wave_instants(view, wave_gap);
    let mut eval = SkewEvaluator::new(view);
    RoundSeries {
        skews: times.iter().map(|&t| eval.skew_at(t)).collect(),
        times,
    }
}

impl RoundSeries {
    /// Estimates the contraction factor toward the fixed point: the median
    /// of `(s_{i+1} − s∞) / (s_i − s∞)` over rounds where the numerator
    /// and denominator are both meaningfully above the floor `s∞`
    /// (taken as the final value).
    ///
    /// Returns `None` with fewer than 3 rounds or when the series starts
    /// at the floor already.
    #[must_use]
    pub fn contraction_factor(&self) -> Option<f64> {
        if self.skews.len() < 3 {
            return None;
        }
        let floor = *self.skews.last().unwrap();
        let mut ratios = Vec::new();
        for w in self.skews.windows(2) {
            let a = w[0] - floor;
            let b = w[1] - floor;
            if a > 10.0 * f64::EPSILON && a > 4.0 * floor.max(1e-12) * 0.1 && b > 0.0 {
                ratios.push(b / a);
            }
        }
        if ratios.is_empty() {
            return None;
        }
        ratios.sort_by(f64::total_cmp);
        Some(ratios[ratios.len() / 2])
    }

    /// The skew after the final measured round.
    #[must_use]
    pub fn final_skew(&self) -> Option<f64> {
        self.skews.last().copied()
    }

    /// Checks that each round's skew obeys a recurrence bound
    /// `s_{i+1} ≤ bound(s_i)` (with a relative tolerance), returning the
    /// first violating round if any.
    #[must_use]
    pub fn check_recurrence<F: Fn(f64) -> f64>(&self, bound: F, rel_tol: f64) -> Option<usize> {
        for (i, w) in self.skews.windows(2).enumerate() {
            let limit = bound(w[0]);
            if w[1] > limit * (1.0 + rel_tol) + 1e-12 {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecutionView;
    use wl_clock::drift::FleetClock;
    use wl_clock::LinearClock;
    use wl_sim::CorrectionHistory;
    use wl_time::ClockTime;

    /// Builds a two-process execution whose skew halves at each of 6 waves.
    fn halving_execution() -> (Vec<FleetClock>, Vec<CorrectionHistory>) {
        let clocks = vec![
            FleetClock::Linear(LinearClock::new(1.0, ClockTime::ZERO)),
            FleetClock::Linear(LinearClock::new(1.0, ClockTime::from_secs(1.0))),
        ];
        let h0 = CorrectionHistory::with_initial(0.0);
        let mut h1 = CorrectionHistory::with_initial(0.0);
        // Process 1 halves its 1s offset at t = 1, 2, 3, ...
        let mut offset = 1.0;
        for i in 1..=6 {
            offset /= 2.0;
            h1.record(RealTime::from_secs(i as f64), offset - 1.0);
        }
        (clocks, vec![h0, h1])
    }

    #[test]
    fn waves_detected_and_skew_halves() {
        let (clocks, corr) = halving_execution();
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let series = round_series(&view, RealDur::from_secs(0.1));
        assert_eq!(series.skews.len(), 6);
        assert!((series.skews[0] - 0.5).abs() < 1e-9);
        assert!((series.skews[1] - 0.25).abs() < 1e-9);
        let c = series.contraction_factor().unwrap();
        assert!((c - 0.5).abs() < 0.05, "contraction {c}");
    }

    #[test]
    fn recurrence_check_passes_for_halving() {
        let (clocks, corr) = halving_execution();
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let series = round_series(&view, RealDur::from_secs(0.1));
        assert_eq!(series.check_recurrence(|s| s / 2.0, 0.01), None);
        // A tighter (wrong) bound is violated at round 0.
        assert_eq!(series.check_recurrence(|s| s / 4.0, 0.01), Some(0));
    }

    #[test]
    fn close_changes_grouped_into_one_wave() {
        let clocks = vec![
            FleetClock::Linear(LinearClock::new(1.0, ClockTime::ZERO)),
            FleetClock::Linear(LinearClock::new(1.0, ClockTime::ZERO)),
        ];
        let mut h0 = CorrectionHistory::with_initial(0.0);
        let mut h1 = CorrectionHistory::with_initial(0.0);
        // Both processes update within 1ms of each other: one wave.
        h0.record(RealTime::from_secs(1.0), 0.1);
        h1.record(RealTime::from_secs(1.0005), 0.1);
        let corr = vec![h0, h1];
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let series = round_series(&view, RealDur::from_secs(0.01));
        assert_eq!(series.skews.len(), 1);
        // After both applied the same correction, skew is zero.
        assert!(series.skews[0] < 1e-9);
    }

    #[test]
    fn too_few_rounds_no_contraction_estimate() {
        let (clocks, corr) = crate::testutil::fixed_skew_pair(0.1);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let series = round_series(&view, RealDur::from_secs(0.1));
        assert!(series.contraction_factor().is_none());
    }
}
