//! Logical clocks: a physical clock plus a correction (paper §3.2).

use crate::{Clock, Piece};
use wl_time::{ClockDur, ClockTime, RealTime};

/// A logical clock `C(t) = Ph(t) + CORR` for a *fixed* correction value.
///
/// In the paper, process `p`'s `i`-th logical clock `C^i_p` is its physical
/// clock plus the value its `CORR` variable held during round `i`. A
/// `LogicalClock` snapshot is what the analysis reasons about; the running
/// algorithm itself just stores the scalar `CORR`.
///
/// # Example
///
/// ```
/// use wl_clock::{Clock, LinearClock, LogicalClock};
/// use wl_time::{ClockDur, ClockTime, RealTime};
///
/// let phys = LinearClock::new(1.0, ClockTime::from_secs(100.0));
/// let logical = LogicalClock::new(phys, ClockDur::from_secs(-100.0));
/// assert_eq!(logical.read(RealTime::from_secs(7.0)), ClockTime::from_secs(7.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalClock<C> {
    phys: C,
    corr: ClockDur,
}

impl<C: Clock> LogicalClock<C> {
    /// Wraps a physical clock with a correction value.
    #[must_use]
    pub fn new(phys: C, corr: ClockDur) -> Self {
        Self { phys, corr }
    }

    /// The correction applied on top of the physical clock.
    #[must_use]
    pub fn corr(&self) -> ClockDur {
        self.corr
    }

    /// The underlying physical clock.
    #[must_use]
    pub fn physical(&self) -> &C {
        &self.phys
    }

    /// Returns a new logical clock whose correction is shifted by `adj`
    /// (the paper's `CORR := CORR + ADJ`, i.e. switching from `C^i` to
    /// `C^{i+1}`).
    #[must_use]
    pub fn adjusted(&self, adj: ClockDur) -> Self
    where
        C: Clone,
    {
        Self {
            phys: self.phys.clone(),
            corr: self.corr + adj,
        }
    }
}

impl<C: Clock> Clock for LogicalClock<C> {
    fn read(&self, t: RealTime) -> ClockTime {
        self.phys.read(t) + self.corr
    }

    fn time_of(&self, big_t: ClockTime) -> RealTime {
        self.phys.time_of(big_t - self.corr)
    }

    fn rate_at(&self, t: RealTime) -> f64 {
        self.phys.rate_at(t)
    }

    /// The correction is added after the physical reading, which no one
    /// affine formula reproduces bit for bit past `t`: the piece holds
    /// at `t` only.
    fn piece(&self, t: RealTime) -> Piece {
        Piece {
            origin: t,
            reading: self.read(t),
            rate: self.rate_at(t),
            until: t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearClock;
    use proptest::prelude::*;

    #[test]
    fn correction_shifts_reading() {
        let phys = LinearClock::ideal();
        let lc = LogicalClock::new(phys, ClockDur::from_secs(5.0));
        assert_eq!(lc.read(RealTime::from_secs(1.0)), ClockTime::from_secs(6.0));
    }

    #[test]
    fn inverse_accounts_for_correction() {
        let phys = LinearClock::new(2.0, ClockTime::ZERO);
        let lc = LogicalClock::new(phys, ClockDur::from_secs(10.0));
        // reads 10 + 2t; reads 14 at t=2.
        assert_eq!(
            lc.time_of(ClockTime::from_secs(14.0)),
            RealTime::from_secs(2.0)
        );
    }

    #[test]
    fn adjusted_accumulates() {
        let lc = LogicalClock::new(LinearClock::ideal(), ClockDur::from_secs(1.0));
        let lc2 = lc.adjusted(ClockDur::from_secs(2.5));
        assert_eq!(lc2.corr(), ClockDur::from_secs(3.5));
        // The original is unchanged (a *new* logical clock, as in the paper).
        assert_eq!(lc.corr(), ClockDur::from_secs(1.0));
    }

    #[test]
    fn accessors() {
        let phys = LinearClock::new(1.5, ClockTime::from_secs(2.0));
        let lc = LogicalClock::new(phys.clone(), ClockDur::ZERO);
        assert_eq!(lc.physical(), &phys);
        assert_eq!(lc.rate_at(RealTime::ZERO), 1.5);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(rate in 0.5f64..2.0, off in -10f64..10.0,
                          corr in -100f64..100.0, t in -1e4f64..1e4) {
            let lc = LogicalClock::new(
                LinearClock::new(rate, ClockTime::from_secs(off)),
                ClockDur::from_secs(corr),
            );
            let t = RealTime::from_secs(t);
            prop_assert!((lc.time_of(lc.read(t)) - t).abs().as_secs() < 1e-6);
        }
    }
}
