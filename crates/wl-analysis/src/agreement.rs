//! Checking Theorem 16's γ-agreement property on an execution.

use crate::skew::SkewSeries;
use crate::ExecutionView;
use wl_clock::Clock;
use wl_core::{theory, Params};
use wl_time::{RealDur, RealTime};

/// The verdict of an agreement check.
#[derive(Debug, Clone, PartialEq)]
pub struct AgreementReport {
    /// Largest observed pairwise skew among nonfaulty processes.
    pub max_skew: f64,
    /// The theoretical bound γ from Theorem 16.
    pub gamma: f64,
    /// Steady-state skew: maximum over the second half of the window.
    pub steady_skew: f64,
    /// Whether the observed maximum respects γ.
    pub holds: bool,
    /// Ratio `max_skew / gamma` — how much of the bound is used.
    pub tightness: f64,
}

/// The running state of an agreement check: feed it every `(t, skew)`
/// sample of the window `[from, to]`, in any order, then
/// [`finish`](AgreementFold::finish) it against Theorem 16's γ.
/// [`check_agreement`] is this fold over
/// [`SkewSeries::sample_with_events`]; a caller that already evaluates
/// those instants for another purpose folds them here itself.
#[derive(Debug, Clone)]
pub struct AgreementFold {
    steady_from: RealTime,
    max_skew: f64,
    steady_skew: f64,
}

impl AgreementFold {
    /// An empty fold over the window `[from, to]`; its second half is
    /// the steady-state window.
    #[must_use]
    pub fn new(from: RealTime, to: RealTime) -> Self {
        Self {
            steady_from: from + (to - from) * 0.5,
            max_skew: 0.0,
            steady_skew: 0.0,
        }
    }

    /// Adds the skew sampled at `t`.
    pub fn observe(&mut self, t: RealTime, skew: f64) {
        self.max_skew = self.max_skew.max(skew);
        if t >= self.steady_from {
            self.steady_skew = self.steady_skew.max(skew);
        }
    }

    /// The verdict over everything observed.
    #[must_use]
    pub fn finish(self, params: &Params) -> AgreementReport {
        let gamma = theory::gamma(params);
        AgreementReport {
            max_skew: self.max_skew,
            gamma,
            steady_skew: self.steady_skew,
            holds: self.max_skew <= gamma + 1e-12,
            tightness: if gamma > 0.0 {
                self.max_skew / gamma
            } else {
                f64::NAN
            },
        }
    }
}

/// Measures agreement over `[from, to]`, sampling every `step` plus at all
/// correction changes, and compares against Theorem 16's γ.
///
/// `from` should be at or after the latest nonfaulty START (the theorem's
/// guarantee begins at `tmin⁰`; before the first round completes the skew
/// is governed by A4's β instead, which γ also covers).
#[must_use]
pub fn check_agreement<C: Clock>(
    view: &ExecutionView<'_, C>,
    params: &Params,
    from: RealTime,
    to: RealTime,
    step: RealDur,
) -> AgreementReport {
    let mut fold = AgreementFold::new(from, to);
    for (t, skew) in SkewSeries::sample_with_events(view, from, to, step).samples {
        fold.observe(t, skew);
    }
    fold.finish(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixed_skew_pair;
    use crate::ExecutionView;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    #[test]
    fn small_offset_within_gamma() {
        let p = params();
        // gamma is a bit over beta + eps; a skew of eps/2 certainly passes.
        let (clocks, corr) = fixed_skew_pair(p.eps / 2.0);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let r = check_agreement(
            &view,
            &p,
            RealTime::ZERO,
            RealTime::from_secs(10.0),
            RealDur::from_secs(0.5),
        );
        assert!(r.holds, "{r:?}");
        assert!(r.tightness < 1.0);
        assert!((r.max_skew - p.eps / 2.0).abs() < 1e-12);
    }

    #[test]
    fn large_offset_violates_gamma() {
        let p = params();
        let (clocks, corr) = fixed_skew_pair(10.0 * theory::gamma(&p));
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let r = check_agreement(
            &view,
            &p,
            RealTime::ZERO,
            RealTime::from_secs(10.0),
            RealDur::from_secs(0.5),
        );
        assert!(!r.holds);
        assert!(r.tightness > 1.0);
    }

    #[test]
    fn steady_skew_uses_second_half() {
        let p = params();
        let (clocks, mut corr) = fixed_skew_pair(0.002);
        // Offset corrected at t = 2 (first half); steady state is clean.
        corr[1].record(RealTime::from_secs(2.0), -0.002);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let r = check_agreement(
            &view,
            &p,
            RealTime::ZERO,
            RealTime::from_secs(10.0),
            RealDur::from_secs(0.25),
        );
        assert!(r.max_skew >= 0.002 - 1e-12);
        assert!(r.steady_skew < 1e-9);
    }
}
