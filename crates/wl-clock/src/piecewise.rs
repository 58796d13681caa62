//! Piecewise-linear clocks: drift rate that changes over time.
//!
//! Real oscillators wander with temperature and ageing; the paper's analysis
//! only assumes the rate stays inside `[1/(1+ρ), 1+ρ]` at every instant.
//! [`PiecewiseLinearClock`] models exactly that: a finite list of rate
//! segments, each active over a real-time interval, with the first and last
//! rates extended to ±∞. The map stays continuous, strictly increasing, and
//! *exactly* invertible (no numeric root finding).

use crate::{Clock, Piece};
use wl_time::{ClockDur, ClockTime, RealDur, RealTime};

/// One drift segment: from `start` (real time) the clock runs at `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Real time at which this segment begins.
    pub start: RealTime,
    /// Clock reading at `start` (continuity anchor, derived at construction).
    pub clock_at_start: ClockTime,
    /// Rate `dC/dt` throughout the segment.
    pub rate: f64,
}

/// A continuous, strictly increasing, piecewise-linear clock.
///
/// # Example
///
/// ```
/// use wl_clock::{Clock, PiecewiseLinearClock};
/// use wl_time::{ClockTime, RealTime, RealDur};
///
/// // Starts at reading 0, runs fast for 10s, then slow.
/// let clk = PiecewiseLinearClock::from_rates(
///     RealTime::ZERO,
///     ClockTime::ZERO,
///     &[(RealDur::from_secs(10.0), 1.0001)],
///     0.9999,
/// );
/// let r = clk.read(RealTime::from_secs(20.0));
/// assert!((r.as_secs() - (10.0 * 1.0001 + 10.0 * 0.9999)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinearClock {
    /// Non-empty, sorted by `start`; the first segment also covers all real
    /// times before its `start`, the last all real times after.
    segments: Vec<Segment>,
}

impl PiecewiseLinearClock {
    /// Builds a clock anchored at `(t0, c0)` from `(length, rate)` pairs,
    /// followed by a final rate that extends forever.
    ///
    /// # Panics
    ///
    /// Panics if any rate is non-positive/non-finite or any length is
    /// negative.
    #[must_use]
    pub fn from_rates(
        t0: RealTime,
        c0: ClockTime,
        pieces: &[(RealDur, f64)],
        final_rate: f64,
    ) -> Self {
        let mut segments = Vec::with_capacity(pieces.len() + 1);
        let mut t = t0;
        let mut c = c0;
        for &(len, rate) in pieces {
            assert!(
                rate.is_finite() && rate > 0.0,
                "segment rate must be positive and finite, got {rate}"
            );
            assert!(
                len.as_secs() >= 0.0 && len.is_finite(),
                "segment length must be non-negative and finite"
            );
            segments.push(Segment {
                start: t,
                clock_at_start: c,
                rate,
            });
            c += ClockDur::from_secs(rate * len.as_secs());
            t += len;
        }
        assert!(
            final_rate.is_finite() && final_rate > 0.0,
            "final rate must be positive and finite, got {final_rate}"
        );
        segments.push(Segment {
            start: t,
            clock_at_start: c,
            rate: final_rate,
        });
        Self { segments }
    }

    /// The segments of this clock, sorted by start time.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The extremal rates `(min, max)` over all segments.
    #[must_use]
    pub fn rate_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for s in &self.segments {
            lo = lo.min(s.rate);
            hi = hi.max(s.rate);
        }
        (lo, hi)
    }

    /// The segment in force at `t`: the last one starting at or before
    /// it, or the first when `t` precedes every start (its rate extends
    /// backwards). Zero-length segments share a start with the next one;
    /// the last of them is the one that runs, so it is the one chosen.
    fn segment_index(&self, t: RealTime) -> usize {
        let after = self
            .segments
            .partition_point(|s| s.start.total_cmp(&t).is_le());
        after.saturating_sub(1)
    }

    /// The segment whose readings contain `big_t`, chosen the same way
    /// over `clock_at_start`.
    fn segment_for_clock(&self, big_t: ClockTime) -> &Segment {
        let after = self
            .segments
            .partition_point(|s| s.clock_at_start.total_cmp(&big_t).is_le());
        &self.segments[after.saturating_sub(1)]
    }
}

impl Clock for PiecewiseLinearClock {
    #[inline]
    fn read(&self, t: RealTime) -> ClockTime {
        self.piece(t).at(t)
    }

    #[inline]
    fn time_of(&self, big_t: ClockTime) -> RealTime {
        let s = self.segment_for_clock(big_t);
        s.start + RealDur::from_secs((big_t - s.clock_at_start).as_secs() / s.rate)
    }

    fn rate_at(&self, t: RealTime) -> f64 {
        self.segments[self.segment_index(t)].rate
    }

    /// The segment in force at `t`, until the next one starts.
    #[inline]
    fn piece(&self, t: RealTime) -> Piece {
        let i = self.segment_index(t);
        let s = &self.segments[i];
        Piece {
            origin: s.start,
            reading: s.clock_at_start,
            rate: s.rate,
            until: self
                .segments
                .get(i + 1)
                .map_or(RealTime::from_secs(f64::INFINITY), |next| next.start),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_piece() -> PiecewiseLinearClock {
        PiecewiseLinearClock::from_rates(
            RealTime::ZERO,
            ClockTime::ZERO,
            &[(RealDur::from_secs(10.0), 2.0)],
            0.5,
        )
    }

    #[test]
    fn reads_across_segments() {
        let c = two_piece();
        assert_eq!(c.read(RealTime::from_secs(5.0)).as_secs(), 10.0);
        assert_eq!(c.read(RealTime::from_secs(10.0)).as_secs(), 20.0);
        assert_eq!(c.read(RealTime::from_secs(14.0)).as_secs(), 22.0);
    }

    #[test]
    fn extends_before_first_segment() {
        let c = two_piece();
        assert_eq!(c.read(RealTime::from_secs(-1.0)).as_secs(), -2.0);
    }

    #[test]
    fn inverse_across_segments() {
        let c = two_piece();
        assert_eq!(c.time_of(ClockTime::from_secs(10.0)).as_secs(), 5.0);
        assert_eq!(c.time_of(ClockTime::from_secs(22.0)).as_secs(), 14.0);
        assert_eq!(c.time_of(ClockTime::from_secs(-2.0)).as_secs(), -1.0);
    }

    #[test]
    fn rate_at_reports_segment_rate() {
        let c = two_piece();
        assert_eq!(c.rate_at(RealTime::from_secs(3.0)), 2.0);
        assert_eq!(c.rate_at(RealTime::from_secs(12.0)), 0.5);
    }

    #[test]
    fn rate_range_spans_all_segments() {
        assert_eq!(two_piece().rate_range(), (0.5, 2.0));
    }

    #[test]
    fn single_rate_matches_linear() {
        let pw =
            PiecewiseLinearClock::from_rates(RealTime::ZERO, ClockTime::from_secs(1.0), &[], 1.25);
        let lin = crate::LinearClock::new(1.25, ClockTime::from_secs(1.0));
        for s in [-3.0, 0.0, 7.5] {
            let t = RealTime::from_secs(s);
            assert!((pw.read(t) - lin.read(t)).abs().as_secs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_rate() {
        let _ = PiecewiseLinearClock::from_rates(
            RealTime::ZERO,
            ClockTime::ZERO,
            &[(RealDur::from_secs(1.0), -0.5)],
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_length() {
        let _ = PiecewiseLinearClock::from_rates(
            RealTime::ZERO,
            ClockTime::ZERO,
            &[(RealDur::from_secs(-1.0), 1.0)],
            1.0,
        );
    }

    /// Zero-length pieces share their start with the piece after them.
    /// At that start the clock runs at the following rate, and a read
    /// through the chosen piece is the read itself, bit for bit, at,
    /// just before and just after every boundary — with 1–5 zero-length
    /// pieces leading, in the middle, and trailing into the final rate.
    #[test]
    fn zero_length_pieces_yield_to_the_following_rate() {
        for zeros in 1..=5 {
            let flat: Vec<(RealDur, f64)> = (0..zeros)
                .map(|j| (RealDur::ZERO, 3.0 + f64::from(j)))
                .collect();
            let one = |len: f64, rate: f64| vec![(RealDur::from_secs(len), rate)];
            let layouts = [
                [flat.clone(), one(1.0, 1.5), one(2.0, 0.75)].concat(),
                [one(1.0, 1.5), flat.clone(), one(2.0, 0.75)].concat(),
                [one(1.0, 1.5), one(2.0, 0.75), flat.clone()].concat(),
            ];
            for pieces in layouts {
                let c = PiecewiseLinearClock::from_rates(
                    RealTime::from_secs(0.5),
                    ClockTime::from_secs(-0.25),
                    &pieces,
                    1.25,
                );
                let segments = c.segments();
                for (i, s) in segments.iter().enumerate() {
                    let following = segments[i..]
                        .iter()
                        .take_while(|later| later.start == s.start)
                        .last()
                        .expect("the segment itself");
                    assert_eq!(
                        c.rate_at(s.start),
                        following.rate,
                        "{zeros} zeros: {pieces:?}"
                    );
                    assert_eq!(c.read(s.start), s.clock_at_start);
                    assert_eq!(c.time_of(s.clock_at_start), s.start);
                    let at = s.start.as_secs();
                    for t in [at.next_down(), at, at.next_up()].map(RealTime::from_secs) {
                        let piece = c.piece(t);
                        assert_eq!(
                            piece.at(t).as_secs().to_bits(),
                            c.read(t).as_secs().to_bits()
                        );
                        assert_eq!(piece.rate, c.rate_at(t));
                        assert!(piece.until > t, "a piece holds at the instant it was read");
                    }
                }
            }
        }
    }

    prop_compose! {
        fn arb_pieces()(
            lens in proptest::collection::vec(0.01f64..50.0, 0..8),
            rates in proptest::collection::vec(0.5f64..2.0, 9),
        ) -> (Vec<(RealDur, f64)>, f64) {
            let pieces = lens
                .iter()
                .zip(rates.iter())
                .map(|(&l, &r)| (RealDur::from_secs(l), r))
                .collect();
            (pieces, rates[8])
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip((pieces, last) in arb_pieces(), t in -100f64..500.0) {
            let c = PiecewiseLinearClock::from_rates(
                RealTime::ZERO, ClockTime::ZERO, &pieces, last);
            let t = RealTime::from_secs(t);
            let back = c.time_of(c.read(t));
            prop_assert!((back - t).abs().as_secs() < 1e-7);
        }

        #[test]
        fn prop_monotone((pieces, last) in arb_pieces(),
                         t in -100f64..500.0, dt in 1e-6f64..100.0) {
            let c = PiecewiseLinearClock::from_rates(
                RealTime::ZERO, ClockTime::ZERO, &pieces, last);
            prop_assert!(
                c.read(RealTime::from_secs(t + dt)) > c.read(RealTime::from_secs(t))
            );
        }

        #[test]
        fn prop_continuous_at_breakpoints((pieces, last) in arb_pieces()) {
            let c = PiecewiseLinearClock::from_rates(
                RealTime::ZERO, ClockTime::ZERO, &pieces, last);
            for s in c.segments() {
                let eps = 1e-7;
                let before = c.read(s.start - wl_time::RealDur::from_secs(eps));
                let at = c.read(s.start);
                prop_assert!((at - before).abs().as_secs() < 3.0 * eps);
            }
        }
    }
}
