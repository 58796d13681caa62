//! Checking Theorem 19's (α₁, α₂, α₃)-validity envelope.
//!
//! Validity rules out trivial "solutions" like resetting all clocks to 0:
//! every nonfaulty local time must advance linearly with real time,
//! `α₁(t − tmax⁰) − α₃ ≤ L_p(t) − T⁰ ≤ α₂(t − tmin⁰) + α₃`.

use crate::skew::SkewEvaluator;
use crate::ExecutionView;
use wl_clock::Clock;
use wl_core::{theory, Params};
use wl_time::{RealDur, RealTime};

/// The verdict of a validity check.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidityReport {
    /// The rates `(α₁, α₂, α₃)` from Theorem 19.
    pub alphas: (f64, f64, f64),
    /// Worst signed slack of the lower envelope (≥ 0 means it held;
    /// the smallest observed `L_p(t) − T⁰ − (α₁(t−tmax⁰) − α₃)`).
    pub lower_slack: f64,
    /// Worst signed slack of the upper envelope (≥ 0 means it held).
    pub upper_slack: f64,
    /// Whether both envelopes held at every sample.
    pub holds: bool,
    /// Empirical rate: least-squares slope of `L_p(t)` against `t` over
    /// all nonfaulty samples — should be ≈ 1.
    pub empirical_rate: f64,
}

/// Checks validity on samples every `step` over `[from, to]`.
///
/// `tmin0`/`tmax0` are the earliest/latest real times at which a nonfaulty
/// process received its START (the scenario knows them).
#[must_use]
pub fn check_validity<C: Clock>(
    view: &ExecutionView<'_, C>,
    params: &Params,
    tmin0: RealTime,
    tmax0: RealTime,
    from: RealTime,
    to: RealTime,
    step: RealDur,
) -> ValidityReport {
    assert!(step.as_secs() > 0.0, "step must be positive");
    let alphas = theory::validity_rates(params);
    let (a1, a2, a3) = alphas;
    let t0 = params.t0;

    let mut lower_slack = f64::INFINITY;
    let mut upper_slack = f64::INFINITY;

    // Accumulators for the least-squares slope.
    let (mut sx, mut sy, mut sxx, mut sxy, mut count) = (0.0, 0.0, 0.0, 0.0, 0.0);

    let mut eval = SkewEvaluator::new(view);
    let mut t = from.max(tmax0);
    while t <= to {
        for &local in eval.local_times_at(t) {
            let l = local - t0;
            let lower = a1 * (t - tmax0).as_secs() - a3;
            let upper = a2 * (t - tmin0).as_secs() + a3;
            lower_slack = lower_slack.min(l - lower);
            upper_slack = upper_slack.min(upper - l);
            let x = t.as_secs();
            sx += x;
            sy += l;
            sxx += x * x;
            sxy += x * l;
            count += 1.0;
        }
        t += step;
    }

    let denom = count * sxx - sx * sx;
    let empirical_rate = if denom.abs() > 1e-30 {
        (count * sxy - sx * sy) / denom
    } else {
        f64::NAN
    };

    ValidityReport {
        alphas,
        lower_slack,
        upper_slack,
        holds: lower_slack >= -1e-9 && upper_slack >= -1e-9,
        empirical_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixed_skew_pair;
    use crate::ExecutionView;
    use wl_sim::CorrectionHistory;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    /// An honest pair started exactly at T0's inverse: local time tracks
    /// real time + T0 - start.
    #[test]
    fn ideal_clocks_satisfy_validity() {
        let p = params();
        let (clocks, mut corr) = fixed_skew_pair(0.0);
        // Make local time read T0 at t = 1.0 (the paper's normalization).
        corr = corr
            .into_iter()
            .map(|_| CorrectionHistory::with_initial(p.t0 - 1.0))
            .collect();
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let r = check_validity(
            &view,
            &p,
            RealTime::from_secs(1.0),
            RealTime::from_secs(1.0),
            RealTime::from_secs(1.0),
            RealTime::from_secs(60.0),
            RealDur::from_secs(1.0),
        );
        assert!(r.holds, "{r:?}");
        assert!((r.empirical_rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frozen_clock_violates_validity() {
        let p = params();
        let (clocks, _) = fixed_skew_pair(0.0);
        // Corrections that cancel physical progress: L stays at T0.
        let mut h0 = CorrectionHistory::with_initial(p.t0 - 1.0);
        let mut h1 = CorrectionHistory::with_initial(p.t0 - 1.0);
        let mut t = 2.0;
        while t < 60.0 {
            h0.record(RealTime::from_secs(t), p.t0 - t);
            h1.record(RealTime::from_secs(t), p.t0 - t);
            t += 1.0;
        }
        let corr = vec![h0, h1];
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let r = check_validity(
            &view,
            &p,
            RealTime::from_secs(1.0),
            RealTime::from_secs(1.0),
            RealTime::from_secs(1.0),
            RealTime::from_secs(60.0),
            RealDur::from_secs(1.0),
        );
        assert!(!r.holds, "a frozen clock must violate the lower envelope");
        assert!(r.lower_slack < 0.0);
        assert!(r.empirical_rate < 0.1);
    }

    #[test]
    fn too_fast_clock_violates_upper_envelope() {
        let p = params();
        // Rate 1.1 blows straight through alpha2 ≈ 1 + tiny.
        let clocks = vec![wl_clock::drift::FleetClock::Linear(
            wl_clock::LinearClock::new(1.1, wl_time::ClockTime::ZERO),
        )];
        let corr = vec![CorrectionHistory::with_initial(p.t0 - 1.0)];
        let view = ExecutionView::new(&clocks, &corr, vec![false]);
        let r = check_validity(
            &view,
            &p,
            RealTime::from_secs(1.0),
            RealTime::from_secs(1.0),
            RealTime::from_secs(1.0),
            RealTime::from_secs(30.0),
            RealDur::from_secs(1.0),
        );
        assert!(!r.holds);
        assert!(r.upper_slack < 0.0);
    }
}
