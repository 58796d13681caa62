//! Measurement and property checking for clock-synchronization executions.
//!
//! Given the physical clocks and the recorded correction histories of an
//! execution, this crate reconstructs every process' local-time function
//! `L_p(t) = Ph_p(t) + CORR_p(t)` exactly and checks the paper's claims
//! against it:
//!
//! * [`skew`] — pairwise local-time differences among nonfaulty processes,
//!   sampled densely or at chosen instants. Its [`skew::SkewEvaluator`]
//!   is the one place local times are evaluated on a sampling path:
//!   every sampler below is a monotone pass through it.
//! * [`agreement`] — Theorem 16's γ-agreement property.
//! * [`validity`] — Theorem 19's (α₁, α₂, α₃)-validity envelope.
//! * [`adjustment`] — Theorem 4(a)'s bound on every `ADJ`.
//! * [`convergence`] — per-round skew series and halving-factor estimation
//!   (Lemma 10 / §7, Lemma 20 for startup).
//! * [`report`] — fixed-width text tables and CSV output for the
//!   experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjustment;
pub mod agreement;
pub mod convergence;
pub mod plot;
pub mod report;
pub mod skew;
pub mod stats;
pub mod validity;

use wl_clock::Clock;
use wl_sim::{CorrectionHistory, ProcessId};
use wl_time::RealTime;

/// A read-only view of an execution sufficient for all analyses.
///
/// Borrowed from the simulation (clocks) and its outcome (correction
/// histories, fault designations).
pub struct ExecutionView<'a, C> {
    /// Physical clock per process.
    pub clocks: &'a [C],
    /// Correction history per process.
    pub corr: &'a [CorrectionHistory],
    /// Designated-faulty flags per process.
    pub faulty: Vec<bool>,
}

impl<'a, C: Clock> ExecutionView<'a, C> {
    /// Creates a view; `faulty[p]` excludes `p` from agreement checks.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree on `n`.
    #[must_use]
    pub fn new(clocks: &'a [C], corr: &'a [CorrectionHistory], faulty: Vec<bool>) -> Self {
        assert_eq!(
            clocks.len(),
            corr.len(),
            "clocks/correction length mismatch"
        );
        assert_eq!(clocks.len(), faulty.len(), "clocks/faulty length mismatch");
        Self {
            clocks,
            corr,
            faulty,
        }
    }

    /// Builds the view from a fault plan.
    #[must_use]
    pub fn with_plan(
        clocks: &'a [C],
        corr: &'a [CorrectionHistory],
        plan: &wl_sim::faults::FaultPlan,
    ) -> Self {
        let faulty = (0..clocks.len())
            .map(|i| plan.is_faulty(ProcessId(i)))
            .collect();
        Self::new(clocks, corr, faulty)
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.clocks.len()
    }

    /// Local time of process `p` at real time `t`.
    #[must_use]
    pub fn local_time(&self, p: usize, t: RealTime) -> f64 {
        self.corr[p].local_time(&self.clocks[p], t).as_secs()
    }

    /// Ids of nonfaulty processes.
    #[must_use]
    pub fn nonfaulty(&self) -> Vec<usize> {
        (0..self.n()).filter(|&i| !self.faulty[i]).collect()
    }

    /// Every nonfaulty correction-change instant (the paper's update
    /// times `u^i_p`), process by process — each process' run is in time
    /// order, the concatenation is not.
    pub fn nonfaulty_change_times(&self) -> impl Iterator<Item = RealTime> + '_ {
        let honest = self.corr.iter().zip(&self.faulty).filter(|&(_, &f)| !f);
        honest.flat_map(|(history, _)| history.change_times())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use wl_clock::drift::FleetClock;
    use wl_clock::LinearClock;
    use wl_sim::CorrectionHistory;
    use wl_time::ClockTime;

    /// Two ideal clocks offset by `skew` seconds, constant corrections.
    pub fn fixed_skew_pair(skew: f64) -> (Vec<FleetClock>, Vec<CorrectionHistory>) {
        let clocks = vec![
            FleetClock::Linear(LinearClock::new(1.0, ClockTime::ZERO)),
            FleetClock::Linear(LinearClock::new(1.0, ClockTime::from_secs(skew))),
        ];
        let corr = vec![
            CorrectionHistory::with_initial(0.0),
            CorrectionHistory::with_initial(0.0),
        ];
        (clocks, corr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::fixed_skew_pair;

    #[test]
    fn view_local_time_and_nonfaulty() {
        let (clocks, corr) = fixed_skew_pair(0.5);
        let view = ExecutionView::new(&clocks, &corr, vec![false, true]);
        assert_eq!(view.n(), 2);
        assert_eq!(view.nonfaulty(), vec![0]);
        assert_eq!(view.local_time(1, RealTime::from_secs(2.0)), 2.5);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn view_rejects_mismatched_lengths() {
        let (clocks, corr) = fixed_skew_pair(0.1);
        let _ = ExecutionView::new(&clocks, &corr[..1], vec![false]);
    }
}
