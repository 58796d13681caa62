//! Type-safe time quantities for the Welch–Lynch clock-synchronization library.
//!
//! The paper ("A New Fault-Tolerant Algorithm for Clock Synchronization",
//! Welch & Lynch) is scrupulous about the distinction between *real* times
//! (lower-case `t`, the global frame in which executions unfold) and *clock*
//! times (upper-case `T`, the values read off a process' physical or logical
//! clock). Mixing the two is the classic source of off-by-a-drift-factor bugs
//! in clock-synchronization code, so this crate encodes the distinction in
//! the type system:
//!
//! * [`RealTime`] / [`RealDur`] — points and spans on the real-time axis.
//! * [`ClockTime`] / [`ClockDur`] — points and spans on a clock-time axis.
//!
//! Arithmetic is only defined within an axis (`RealTime - RealTime =
//! RealDur`, `ClockTime + ClockDur = ClockTime`, …). Crossing the axes is
//! the job of a clock (see the `wl-clock` crate), never of plain arithmetic.
//!
//! All quantities are `f64` seconds under the hood; the simulator orders
//! events with [`RealTime::total_cmp`]-based keys so NaN never enters the
//! event queue unnoticed.
//!
//! # Example
//!
//! ```
//! use wl_time::{RealTime, RealDur, ClockTime, ClockDur};
//!
//! let t0 = RealTime::from_secs(1.0);
//! let t1 = t0 + RealDur::from_secs(0.5);
//! assert_eq!(t1 - t0, RealDur::from_secs(0.5));
//!
//! let big_t = ClockTime::from_secs(100.0) + ClockDur::from_secs(2.0);
//! assert_eq!(big_t.as_secs(), 102.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! time_point {
    ($(#[$meta:meta])* $name:ident, $dur:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The time-point at the origin of the axis (0 seconds).
            pub const ZERO: Self = Self(0.0);

            /// Creates a time-point from a number of seconds.
            #[must_use]
            pub fn from_secs(secs: f64) -> Self {
                Self(secs)
            }

            /// Returns the value in seconds.
            #[must_use]
            pub fn as_secs(self) -> f64 {
                self.0
            }

            /// Returns `true` if the underlying value is finite (not NaN/inf).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Total ordering over the raw representation (IEEE `totalOrder`).
            ///
            /// Used by the simulator's event queue, which must be a total
            /// order even if a NaN sneaks in via a buggy clock model.
            #[must_use]
            pub fn total_cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }

            /// The pointwise maximum of two time-points.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The pointwise minimum of two time-points.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.9}", $tag), self.0)
            }
        }

        impl Sub for $name {
            type Output = $dur;
            fn sub(self, rhs: Self) -> $dur {
                $dur(self.0 - rhs.0)
            }
        }

        impl Add<$dur> for $name {
            type Output = Self;
            fn add(self, rhs: $dur) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign<$dur> for $name {
            fn add_assign(&mut self, rhs: $dur) {
                self.0 += rhs.0;
            }
        }

        impl Sub<$dur> for $name {
            type Output = Self;
            fn sub(self, rhs: $dur) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign<$dur> for $name {
            fn sub_assign(&mut self, rhs: $dur) {
                self.0 -= rhs.0;
            }
        }
    };
}

macro_rules! duration {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero-length duration.
            pub const ZERO: Self = Self(0.0);

            /// Creates a duration from a number of seconds.
            #[must_use]
            pub fn from_secs(secs: f64) -> Self {
                Self(secs)
            }

            /// Creates a duration from a number of milliseconds.
            #[must_use]
            pub fn from_millis(ms: f64) -> Self {
                Self(ms * 1e-3)
            }

            /// Creates a duration from a number of microseconds.
            #[must_use]
            pub fn from_micros(us: f64) -> Self {
                Self(us * 1e-6)
            }

            /// Returns the value in seconds.
            #[must_use]
            pub fn as_secs(self) -> f64 {
                self.0
            }

            /// Returns the value in milliseconds.
            #[must_use]
            pub fn as_millis(self) -> f64 {
                self.0 * 1e3
            }

            /// Returns the absolute value of the duration.
            #[must_use]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns `true` if the underlying value is finite.
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// The pointwise maximum of two durations.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The pointwise minimum of two durations.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Total ordering over the raw representation.
            #[must_use]
            pub fn total_cmp(&self, other: &Self) -> Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!("{:.9}", $tag), self.0)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|d| d.0).sum())
            }
        }
    };
}

time_point!(
    /// A point on the *real time* axis — the paper's lower-case `t`.
    ///
    /// Real time is the global, objective frame of the execution model
    /// (paper §2.3). Processes never observe real time directly; only the
    /// simulator, the analysis, and the clocks themselves do.
    RealTime,
    RealDur,
    "s"
);

time_point!(
    /// A point on a *clock time* axis — the paper's upper-case `T`.
    ///
    /// A clock-time value is only meaningful relative to a specific clock
    /// (a physical clock `Ph_p` or a logical clock `C^i_p`); this type does
    /// not record which one, the surrounding code does.
    ClockTime,
    ClockDur,
    "s(clk)"
);

duration!(
    /// A span of *real* time.
    RealDur,
    "s"
);

duration!(
    /// A span of *clock* time.
    ClockDur,
    "s(clk)"
);

impl RealDur {
    /// Reinterprets a real-time span as a clock-time span.
    ///
    /// This is an *identity on the numeric value*, useful when a parameter
    /// (such as the message delay bound `δ`) is defined on the real axis but
    /// the algorithm uses it as a clock-time constant; the paper performs
    /// the same silent reinterpretation when it writes `ADJ := T + δ − AV`.
    #[must_use]
    pub fn as_clock(self) -> ClockDur {
        ClockDur::from_secs(self.0)
    }
}

impl ClockDur {
    /// Reinterprets a clock-time span as a real-time span (numeric identity).
    #[must_use]
    pub fn as_real(self) -> RealDur {
        RealDur::from_secs(self.0)
    }
}

impl ClockTime {
    /// Interprets the clock-time coordinate as a real-time coordinate.
    ///
    /// Used for drift-free reference clocks where the two axes coincide,
    /// and by analysis code that plots both on the same chart.
    #[must_use]
    pub fn as_real(self) -> RealTime {
        RealTime::from_secs(self.0)
    }
}

impl RealTime {
    /// Interprets the real-time coordinate as a clock-time coordinate.
    #[must_use]
    pub fn as_clock(self) -> ClockTime {
        ClockTime::from_secs(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn real_time_arithmetic_roundtrip() {
        let t = RealTime::from_secs(10.0);
        let d = RealDur::from_secs(2.5);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        assert_eq!(t - t, RealDur::ZERO);
    }

    #[test]
    fn clock_time_arithmetic_roundtrip() {
        let big_t = ClockTime::from_secs(100.0);
        let big_d = ClockDur::from_secs(7.0);
        assert_eq!((big_t + big_d) - big_t, big_d);
        assert_eq!(big_t - big_d + big_d, big_t);
    }

    #[test]
    fn duration_scalar_ops() {
        let d = RealDur::from_secs(4.0);
        assert_eq!(d * 0.5, RealDur::from_secs(2.0));
        assert_eq!(0.5 * d, RealDur::from_secs(2.0));
        assert_eq!(d / 2.0, RealDur::from_secs(2.0));
        assert_eq!(d / RealDur::from_secs(2.0), 2.0);
        assert_eq!(-d, RealDur::from_secs(-4.0));
        assert_eq!(d.abs(), d);
        assert_eq!((-d).abs(), d);
    }

    #[test]
    fn duration_unit_constructors() {
        assert_eq!(RealDur::from_millis(1500.0), RealDur::from_secs(1.5));
        assert_eq!(RealDur::from_micros(250.0), RealDur::from_secs(0.00025));
        assert!((ClockDur::from_millis(3.0).as_millis() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn axis_reinterpretation_is_numeric_identity() {
        let d = RealDur::from_secs(0.01);
        assert_eq!(d.as_clock().as_secs(), d.as_secs());
        assert_eq!(d.as_clock().as_real(), d);
        let t = RealTime::from_secs(3.0);
        assert_eq!(t.as_clock().as_real(), t);
    }

    #[test]
    fn display_includes_axis_tag() {
        assert!(format!("{}", ClockTime::from_secs(1.0)).contains("(clk)"));
        assert!(!format!("{}", RealTime::from_secs(1.0)).contains("(clk)"));
        assert!(format!("{}", ClockDur::from_secs(1.0)).contains("(clk)"));
    }

    #[test]
    fn min_max_helpers() {
        let a = RealTime::from_secs(1.0);
        let b = RealTime::from_secs(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = ClockDur::from_secs(-1.0);
        let y = ClockDur::from_secs(1.0);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn duration_sum() {
        let total: RealDur = (1..=4).map(|i| RealDur::from_secs(i as f64)).sum();
        assert_eq!(total, RealDur::from_secs(10.0));
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(t in -1e9f64..1e9, d in -1e6f64..1e6) {
            let t = RealTime::from_secs(t);
            let d = RealDur::from_secs(d);
            let back = (t + d) - d;
            prop_assert!((back - t).abs().as_secs() < 1e-6);
        }

        #[test]
        fn prop_total_cmp_consistent_with_partial(a in -1e9f64..1e9, b in -1e9f64..1e9) {
            let (ta, tb) = (RealTime::from_secs(a), RealTime::from_secs(b));
            if a < b {
                prop_assert_eq!(ta.total_cmp(&tb), Ordering::Less);
            } else if a > b {
                prop_assert_eq!(ta.total_cmp(&tb), Ordering::Greater);
            } else {
                prop_assert_eq!(ta.total_cmp(&tb), Ordering::Equal);
            }
        }

        #[test]
        fn prop_duration_scaling_linearity(d in -1e6f64..1e6, k in -100f64..100.0) {
            let dur = ClockDur::from_secs(d);
            let lhs = (dur * k).as_secs();
            prop_assert!((lhs - d * k).abs() <= 1e-9 * (1.0 + lhs.abs()));
        }
    }
}
