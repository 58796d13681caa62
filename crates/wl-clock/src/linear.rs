//! Constant-rate clocks: `C(t) = offset + rate · t`.

use crate::Clock;
use wl_time::{ClockDur, ClockTime, RealDur, RealTime};

/// A clock advancing at a constant rate (`dC/dt = rate` everywhere).
///
/// This is the standard physical-clock model: a quartz oscillator with a
/// fixed frequency error. A ρ-bounded linear clock has
/// `rate ∈ [1/(1+ρ), 1+ρ]`.
///
/// # Example
///
/// ```
/// use wl_clock::{Clock, LinearClock};
/// use wl_time::{ClockTime, RealTime};
///
/// let clk = LinearClock::new(1.0, ClockTime::from_secs(3.0));
/// assert_eq!(clk.read(RealTime::from_secs(2.0)), ClockTime::from_secs(5.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearClock {
    rate: f64,
    offset: ClockTime,
}

impl LinearClock {
    /// Creates a clock with the given rate that reads `offset` at real time 0.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite (the paper's
    /// clocks are monotonically increasing).
    #[must_use]
    pub fn new(rate: f64, offset: ClockTime) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "clock rate must be positive and finite, got {rate}"
        );
        assert!(offset.is_finite(), "clock offset must be finite");
        Self { rate, offset }
    }

    /// A perfect clock: rate 1, reading 0 at real time 0.
    #[must_use]
    pub fn ideal() -> Self {
        Self::new(1.0, ClockTime::ZERO)
    }

    /// The constant rate of this clock.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The reading at real time 0.
    #[must_use]
    pub fn offset(&self) -> ClockTime {
        self.offset
    }
}

impl Default for LinearClock {
    fn default() -> Self {
        Self::ideal()
    }
}

impl Clock for LinearClock {
    #[inline]
    fn read(&self, t: RealTime) -> ClockTime {
        self.offset + ClockDur::from_secs(self.rate * t.as_secs())
    }

    #[inline]
    fn time_of(&self, big_t: ClockTime) -> RealTime {
        RealTime::ZERO + RealDur::from_secs((big_t - self.offset).as_secs() / self.rate)
    }

    fn rate_at(&self, _t: RealTime) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ideal_clock_is_identity() {
        let c = LinearClock::ideal();
        for s in [-5.0, 0.0, 1.5, 1e6] {
            assert_eq!(c.read(RealTime::from_secs(s)).as_secs(), s);
            assert_eq!(c.time_of(ClockTime::from_secs(s)).as_secs(), s);
        }
    }

    #[test]
    fn fast_clock_gains_time() {
        let c = LinearClock::new(1.001, ClockTime::ZERO);
        let reading = c.read(RealTime::from_secs(1000.0));
        assert!((reading.as_secs() - 1001.0).abs() < 1e-9);
    }

    #[test]
    fn slow_clock_loses_time() {
        let c = LinearClock::new(1.0 / 1.001, ClockTime::ZERO);
        let reading = c.read(RealTime::from_secs(1001.0));
        assert!((reading.as_secs() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn default_is_ideal() {
        assert_eq!(LinearClock::default(), LinearClock::ideal());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LinearClock::new(0.0, ClockTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_rate_rejected() {
        let _ = LinearClock::new(-1.0, ClockTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_offset_rejected() {
        let _ = LinearClock::new(1.0, ClockTime::from_secs(f64::NAN));
    }

    proptest! {
        #[test]
        fn prop_inverse_roundtrip(
            rate in 0.5f64..2.0,
            off in -1e3f64..1e3,
            t in -1e6f64..1e6,
        ) {
            let c = LinearClock::new(rate, ClockTime::from_secs(off));
            let t = RealTime::from_secs(t);
            let back = c.time_of(c.read(t));
            prop_assert!((back - t).abs().as_secs() < 1e-6);
        }

        #[test]
        fn prop_monotone(
            rate in 0.5f64..2.0,
            off in -1e3f64..1e3,
            t1 in -1e6f64..1e6,
            dt in 1e-9f64..1e6,
        ) {
            let c = LinearClock::new(rate, ClockTime::from_secs(off));
            let a = c.read(RealTime::from_secs(t1));
            let b = c.read(RealTime::from_secs(t1 + dt));
            prop_assert!(b > a);
        }

        #[test]
        fn prop_lemma1_mean_value_bound(
            rho in 1e-8f64..1e-2,
            pick in 0.0f64..1.0,
            t1 in -1e4f64..1e4,
            dt in 0.0f64..1e4,
        ) {
            // Lemma 1: (t2-t1)/(1+rho) <= C(t2)-C(t1) <= (1+rho)(t2-t1).
            let (lo, hi) = crate::rate_bounds(rho);
            let rate = lo + pick * (hi - lo);
            let c = LinearClock::new(rate, ClockTime::ZERO);
            let t2 = t1 + dt;
            let elapsed = (c.read(RealTime::from_secs(t2))
                - c.read(RealTime::from_secs(t1))).as_secs();
            let slack = 1e-9 * (1.0 + dt);
            prop_assert!(elapsed >= dt / (1.0 + rho) - slack);
            prop_assert!(elapsed <= dt * (1.0 + rho) + slack);
        }
    }
}
