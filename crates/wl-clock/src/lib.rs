//! ρ-bounded physical and logical clocks (paper §2.1, §3.1).
//!
//! The paper models a *clock* as a monotonically increasing, everywhere
//! differentiable function from real times to clock times; a clock `C` is
//! *ρ-bounded* when `1/(1+ρ) ≤ dC(t)/dt ≤ 1+ρ` for all `t` (§3.1). Each
//! process owns a read-only physical clock `Ph_p`; its *local time* is
//! `L_p(t) = Ph_p(t) + CORR_p(t)` where `CORR` is the software correction
//! the synchronization algorithm maintains (§3.2).
//!
//! This crate provides:
//!
//! * [`Clock`] — the trait: forward reading `C(t)` and the inverse `c(T)`.
//! * [`LinearClock`] — constant drift rate, the workhorse model.
//! * [`PiecewiseLinearClock`] — drift rate that changes over time, still
//!   exactly invertible (used for adversarial / wandering drift scenarios).
//! * [`drift`] — factories producing whole fleets of clocks for experiments.
//! * [`LogicalClock`] — a physical clock plus a correction, the paper's
//!   `C^i_p`.
//! * [`checks`] — ρ-boundedness validators used heavily by the test suite.
//!
//! # Example
//!
//! ```
//! use wl_clock::{Clock, LinearClock};
//! use wl_time::{RealTime, ClockTime};
//!
//! // A clock running 100 ppm fast, reading 5.0 at real time 0.
//! let clk = LinearClock::new(1.0 + 100e-6, ClockTime::from_secs(5.0));
//! let t = RealTime::from_secs(10.0);
//! let reading = clk.read(t);
//! // The inverse takes us back to the same real time.
//! assert!((clk.time_of(reading) - t).abs().as_secs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod drift;
mod linear;
mod logical;
mod piecewise;

pub use linear::LinearClock;
pub use logical::LogicalClock;
pub use piecewise::{PiecewiseLinearClock, Segment};

use wl_time::{ClockDur, ClockTime, RealTime};

/// A monotonically increasing map from real time to clock time (paper §2.1).
///
/// Implementations must be strictly increasing so that the inverse
/// [`Clock::time_of`] is well defined. Upper-case `C` in the paper is
/// [`Clock::read`]; lower-case `c` (the inverse) is [`Clock::time_of`].
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Returns `C(t)`: the clock reading at real time `t`.
    fn read(&self, t: RealTime) -> ClockTime;

    /// Returns `c(T)`: the real time at which the clock reads `T`.
    ///
    /// This is the exact functional inverse of [`Clock::read`].
    fn time_of(&self, big_t: ClockTime) -> RealTime;

    /// The instantaneous rate `dC/dt` at real time `t`.
    fn rate_at(&self, t: RealTime) -> f64;

    /// The affine stretch of this clock in force at `t`, and where it
    /// ends: `piece(t).at(t)` is `read(t)`, and so is `piece(t).at(t')`
    /// for every later `t'` before `piece(t).until`.
    fn piece(&self, t: RealTime) -> Piece;
}

/// One affine stretch of a clock: `C(t) = reading + rate · (t − origin)`
/// from the instant it was asked for until `until` (exclusive). A clock
/// whose reading is not of that form past one instant answers
/// `until == t`: the piece holds at `t` only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Piece {
    /// The real time the stretch is measured from.
    pub origin: RealTime,
    /// The clock reading at `origin`.
    pub reading: ClockTime,
    /// The rate `dC/dt` over the stretch.
    pub rate: f64,
    /// The first real time the stretch may no longer hold.
    pub until: RealTime,
}

impl Piece {
    /// The reading at `t` — the one formula every affine clock reads by.
    #[inline]
    #[must_use]
    pub fn at(&self, t: RealTime) -> ClockTime {
        self.reading + ClockDur::from_secs(self.rate * (t - self.origin).as_secs())
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn read(&self, t: RealTime) -> ClockTime {
        (**self).read(t)
    }
    fn time_of(&self, big_t: ClockTime) -> RealTime {
        (**self).time_of(big_t)
    }
    fn rate_at(&self, t: RealTime) -> f64 {
        (**self).rate_at(t)
    }
    fn piece(&self, t: RealTime) -> Piece {
        (**self).piece(t)
    }
}

impl<C: Clock + ?Sized> Clock for Box<C> {
    fn read(&self, t: RealTime) -> ClockTime {
        (**self).read(t)
    }
    fn time_of(&self, big_t: ClockTime) -> RealTime {
        (**self).time_of(big_t)
    }
    fn rate_at(&self, t: RealTime) -> f64 {
        (**self).rate_at(t)
    }
    fn piece(&self, t: RealTime) -> Piece {
        (**self).piece(t)
    }
}

impl<C: Clock + ?Sized> Clock for std::sync::Arc<C> {
    fn read(&self, t: RealTime) -> ClockTime {
        (**self).read(t)
    }
    fn time_of(&self, big_t: ClockTime) -> RealTime {
        (**self).time_of(big_t)
    }
    fn rate_at(&self, t: RealTime) -> f64 {
        (**self).rate_at(t)
    }
    fn piece(&self, t: RealTime) -> Piece {
        (**self).piece(t)
    }
}

/// The admissible rate interval `[1/(1+ρ), 1+ρ]` for a ρ-bounded clock.
#[must_use]
pub fn rate_bounds(rho: f64) -> (f64, f64) {
    (1.0 / (1.0 + rho), 1.0 + rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_time::ClockTime;

    #[test]
    fn rate_bounds_bracket_one() {
        let (lo, hi) = rate_bounds(1e-4);
        assert!(lo < 1.0 && 1.0 < hi);
        // 1 - rho < 1/(1+rho), the corollary noted in §3.1.
        assert!(1.0 - 1e-4 < lo);
    }

    #[test]
    fn trait_object_and_smart_pointer_impls() {
        let c = LinearClock::new(1.0, ClockTime::ZERO);
        let as_ref: &dyn Clock = &c;
        let boxed: Box<dyn Clock> = Box::new(c.clone());
        let arced: std::sync::Arc<dyn Clock> = std::sync::Arc::new(c.clone());
        let t = RealTime::from_secs(2.0);
        assert_eq!(as_ref.read(t), boxed.read(t));
        assert_eq!(boxed.read(t), arced.read(t));
        assert_eq!(arced.rate_at(t), 1.0);
    }
}
