//! Per-process correction history: reconstructing `L_p(t)` after the fact.

use wl_time::{ClockDur, ClockTime, RealTime};

/// The piecewise-constant history of a process' `CORR` variable.
///
/// The local time of process `p` is `L_p(t) = Ph_p(t) + CORR_p(t)` (paper
/// §3.2); `CORR_p` changes only at update events. The simulator records
/// every change so the analysis can evaluate `L_p` at *any* real time
/// exactly — each constant-`CORR` stretch corresponds to one of the paper's
/// logical clocks `C^i_p`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrectionHistory {
    /// `(t, corr)` pairs, non-decreasing in `t`; `corr` holds from `t`
    /// until the next entry.
    entries: Vec<(RealTime, f64)>,
}

impl CorrectionHistory {
    /// Starts a history with the initial correction, in force from the
    /// beginning of the execution.
    #[must_use]
    pub fn with_initial(corr: f64) -> Self {
        Self {
            entries: vec![(RealTime::from_secs(f64::NEG_INFINITY), corr)],
        }
    }

    /// Records a correction change at real time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the last recorded change (the simulator only
    /// moves forward).
    pub fn record(&mut self, t: RealTime, corr: f64) {
        if let Some(&(last, _)) = self.entries.last() {
            assert!(
                t.total_cmp(&last).is_ge(),
                "correction history must be recorded in time order"
            );
        }
        self.entries.push((t, corr));
    }

    /// The correction in force at real time `t` (the latest change at or
    /// before `t`).
    ///
    /// # Panics
    ///
    /// Panics if the history is empty (construct via
    /// [`CorrectionHistory::with_initial`]).
    #[must_use]
    pub fn corr_at(&self, t: RealTime) -> f64 {
        assert!(!self.entries.is_empty(), "empty correction history");
        let idx = self
            .entries
            .partition_point(|&(at, _)| at.total_cmp(&t).is_le());
        if idx == 0 {
            // t precedes the first entry; extend it backwards.
            self.entries[0].1
        } else {
            self.entries[idx - 1].1
        }
    }

    /// Evaluates the local time `L_p(t) = Ph_p(t) + CORR_p(t)`.
    #[must_use]
    pub fn local_time<C: wl_clock::Clock + ?Sized>(&self, clock: &C, t: RealTime) -> ClockTime {
        clock.read(t) + ClockDur::from_secs(self.corr_at(t))
    }

    /// All recorded `(t, corr)` change points.
    #[must_use]
    pub fn entries(&self) -> &[(RealTime, f64)] {
        &self.entries
    }

    /// Real times at which the correction changed (excluding the initial
    /// sentinel), i.e. the paper's update times `u^i_p`.
    pub fn change_times(&self) -> impl Iterator<Item = RealTime> + '_ {
        self.entries.iter().skip(1).map(|&(t, _)| t)
    }

    /// The adjustments `ADJ^i_p = CORR^{i+1} − CORR^i` in order.
    #[must_use]
    pub fn adjustments(&self) -> Vec<f64> {
        self.entries.windows(2).map(|w| w[1].1 - w[0].1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_clock::LinearClock;

    #[test]
    fn corr_at_steps() {
        let mut h = CorrectionHistory::with_initial(0.0);
        h.record(RealTime::from_secs(1.0), 5.0);
        h.record(RealTime::from_secs(2.0), -1.0);
        assert_eq!(h.corr_at(RealTime::from_secs(0.5)), 0.0);
        assert_eq!(h.corr_at(RealTime::from_secs(1.0)), 5.0);
        assert_eq!(h.corr_at(RealTime::from_secs(1.5)), 5.0);
        assert_eq!(h.corr_at(RealTime::from_secs(100.0)), -1.0);
    }

    #[test]
    fn local_time_combines_clock_and_corr() {
        let mut h = CorrectionHistory::with_initial(2.0);
        h.record(RealTime::from_secs(10.0), 3.0);
        let clk = LinearClock::ideal();
        assert_eq!(
            h.local_time(&clk, RealTime::from_secs(1.0)),
            ClockTime::from_secs(3.0)
        );
        assert_eq!(
            h.local_time(&clk, RealTime::from_secs(10.0)),
            ClockTime::from_secs(13.0)
        );
    }

    #[test]
    fn adjustments_are_diffs() {
        let mut h = CorrectionHistory::with_initial(1.0);
        h.record(RealTime::from_secs(1.0), 1.5);
        h.record(RealTime::from_secs(2.0), 1.25);
        assert_eq!(h.adjustments(), vec![0.5, -0.25]);
        let times: Vec<RealTime> = h.change_times().collect();
        assert_eq!(
            times,
            vec![RealTime::from_secs(1.0), RealTime::from_secs(2.0)]
        );
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn rejects_out_of_order_records() {
        let mut h = CorrectionHistory::with_initial(0.0);
        h.record(RealTime::from_secs(2.0), 1.0);
        h.record(RealTime::from_secs(1.0), 2.0);
    }

    #[test]
    fn equal_time_records_allowed_last_wins() {
        let mut h = CorrectionHistory::with_initial(0.0);
        h.record(RealTime::from_secs(1.0), 1.0);
        h.record(RealTime::from_secs(1.0), 2.0);
        assert_eq!(h.corr_at(RealTime::from_secs(1.0)), 2.0);
    }
}
