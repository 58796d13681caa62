//! Fleet factories: build the physical clocks of all `n` processes at once.
//!
//! Assumption (A1) of the paper fixes a drift bound ρ and requires every
//! clock (faulty or not) to be ρ-bounded. Assumption (A4) requires the
//! *initial logical clocks* of nonfaulty processes to be within β of each
//! other along the real-time axis. A [`DriftModel`] decides each clock's
//! rate behaviour; the initial offsets (within β or arbitrary, for the
//! startup experiments) are chosen by the scenario code in `wl-sim`.

use crate::{rate_bounds, Clock, LinearClock, Piece, PiecewiseLinearClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wl_time::{ClockDur, ClockTime, RealDur, RealTime};

/// How the drift rates of a fleet of physical clocks are chosen.
///
/// All models keep every rate within `[1/(1+ρ), 1+ρ]`, satisfying (A1).
#[derive(Debug, Clone, PartialEq)]
pub enum DriftModel {
    /// All clocks perfect (rate exactly 1). Useful to isolate the effect of
    /// message-delay uncertainty ε from drift.
    Ideal,
    /// Rates evenly spread across the admissible interval; process 0
    /// slowest, process n−1 fastest.
    EvenSpread {
        /// Drift bound ρ.
        rho: f64,
    },
    /// The adversarial extreme the analysis is tight against: the first half
    /// of the fleet runs at the maximum rate `1+ρ`, the second half at the
    /// minimum `1/(1+ρ)`.
    Split {
        /// Drift bound ρ.
        rho: f64,
    },
    /// Each clock gets an independent uniformly random constant rate.
    RandomConstant {
        /// Drift bound ρ.
        rho: f64,
    },
    /// Each clock's rate is re-drawn uniformly at random every
    /// `segment_secs` of real time, up to `horizon_secs` (wandering
    /// oscillator). After the horizon the last rate persists.
    RandomPiecewise {
        /// Drift bound ρ.
        rho: f64,
        /// Length of each constant-rate segment, in seconds.
        segment_secs: f64,
        /// Total real-time horizon covered by random segments, in seconds.
        horizon_secs: f64,
    },
}

impl DriftModel {
    /// The drift bound ρ that this model respects.
    #[must_use]
    pub fn rho(&self) -> f64 {
        match *self {
            DriftModel::Ideal => 0.0,
            DriftModel::EvenSpread { rho }
            | DriftModel::Split { rho }
            | DriftModel::RandomConstant { rho }
            | DriftModel::RandomPiecewise { rho, .. } => rho,
        }
    }

    /// Builds the physical clocks of `n` processes.
    ///
    /// `offsets[p]` is the reading of clock `p` at real time 0 (the scenario
    /// chooses these to satisfy — or deliberately violate — assumption A4).
    /// `seed` makes the random models reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `offsets.len() != n`, or if ρ is negative.
    #[must_use]
    pub fn build(&self, n: usize, offsets: &[ClockTime], seed: u64) -> Vec<FleetClock> {
        assert_eq!(offsets.len(), n, "need one initial offset per process");
        assert!(self.rho() >= 0.0, "rho must be non-negative");
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|p| self.build_one(p, n, offsets[p], &mut rng))
            .collect()
    }

    fn build_one(&self, p: usize, n: usize, offset: ClockTime, rng: &mut StdRng) -> FleetClock {
        match *self {
            DriftModel::Ideal => FleetClock::Linear(LinearClock::new(1.0, offset)),
            DriftModel::EvenSpread { rho } => {
                let (lo, hi) = rate_bounds(rho);
                let frac = if n <= 1 {
                    0.5
                } else {
                    p as f64 / (n - 1) as f64
                };
                FleetClock::Linear(LinearClock::new(lo + frac * (hi - lo), offset))
            }
            DriftModel::Split { rho } => {
                let (lo, hi) = rate_bounds(rho);
                let rate = if p < n / 2 { hi } else { lo };
                FleetClock::Linear(LinearClock::new(rate, offset))
            }
            DriftModel::RandomConstant { rho } => {
                let (lo, hi) = rate_bounds(rho);
                FleetClock::Linear(LinearClock::new(rng.gen_range(lo..=hi), offset))
            }
            DriftModel::RandomPiecewise {
                rho,
                segment_secs,
                horizon_secs,
            } => {
                let (lo, hi) = rate_bounds(rho);
                let nseg = (horizon_secs / segment_secs).ceil().max(1.0) as usize;
                let pieces: Vec<(RealDur, f64)> = (0..nseg)
                    .map(|_| (RealDur::from_secs(segment_secs), rng.gen_range(lo..=hi)))
                    .collect();
                let last = rng.gen_range(lo..=hi);
                FleetClock::Piecewise(PiecewiseLinearClock::from_rates(
                    RealTime::ZERO,
                    offset,
                    &pieces,
                    last,
                ))
            }
        }
    }
}

/// A clock produced by a [`DriftModel`] — linear or piecewise-linear.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetClock {
    /// Constant-rate clock.
    Linear(LinearClock),
    /// Wandering-rate clock.
    Piecewise(PiecewiseLinearClock),
}

impl Clock for FleetClock {
    #[inline]
    fn read(&self, t: RealTime) -> ClockTime {
        match self {
            FleetClock::Linear(c) => c.read(t),
            FleetClock::Piecewise(c) => c.read(t),
        }
    }

    #[inline]
    fn time_of(&self, big_t: ClockTime) -> RealTime {
        match self {
            FleetClock::Linear(c) => c.time_of(big_t),
            FleetClock::Piecewise(c) => c.time_of(big_t),
        }
    }

    fn rate_at(&self, t: RealTime) -> f64 {
        match self {
            FleetClock::Linear(c) => c.rate_at(t),
            FleetClock::Piecewise(c) => c.rate_at(t),
        }
    }

    #[inline]
    fn piece(&self, t: RealTime) -> Piece {
        match self {
            FleetClock::Linear(c) => c.piece(t),
            FleetClock::Piecewise(c) => c.piece(t),
        }
    }
}

/// Generates initial clock offsets spread uniformly within a window of
/// length `spread` centered at `center`, deterministic in `seed`.
///
/// With `spread = β` (converted to the clock axis at rate ≈ 1) this realizes
/// assumption (A4); with a large `spread` it builds the arbitrary initial
/// configurations of the startup problem (§9.2).
#[must_use]
pub fn spread_offsets(n: usize, center: ClockTime, spread: ClockDur, seed: u64) -> Vec<ClockTime> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let frac: f64 = rng.gen_range(-0.5..=0.5);
            center + spread * frac
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::assert_rho_bounded;

    fn zero_offsets(n: usize) -> Vec<ClockTime> {
        vec![ClockTime::ZERO; n]
    }

    #[test]
    fn ideal_fleet_all_rate_one() {
        let clocks = DriftModel::Ideal.build(4, &zero_offsets(4), 1);
        for c in &clocks {
            assert_eq!(c.rate_at(RealTime::ZERO), 1.0);
        }
    }

    #[test]
    fn even_spread_covers_extremes() {
        let rho = 1e-4;
        let clocks = DriftModel::EvenSpread { rho }.build(5, &zero_offsets(5), 1);
        let (lo, hi) = rate_bounds(rho);
        assert_eq!(clocks[0].rate_at(RealTime::ZERO), lo);
        assert_eq!(clocks[4].rate_at(RealTime::ZERO), hi);
    }

    #[test]
    fn split_puts_half_fast_half_slow() {
        let rho = 1e-4;
        let clocks = DriftModel::Split { rho }.build(4, &zero_offsets(4), 1);
        let (lo, hi) = rate_bounds(rho);
        assert_eq!(clocks[0].rate_at(RealTime::ZERO), hi);
        assert_eq!(clocks[1].rate_at(RealTime::ZERO), hi);
        assert_eq!(clocks[2].rate_at(RealTime::ZERO), lo);
        assert_eq!(clocks[3].rate_at(RealTime::ZERO), lo);
    }

    #[test]
    fn random_models_deterministic_in_seed() {
        let m = DriftModel::RandomConstant { rho: 1e-3 };
        let a = m.build(6, &zero_offsets(6), 42);
        let b = m.build(6, &zero_offsets(6), 42);
        assert_eq!(a, b);
        let c = m.build(6, &zero_offsets(6), 43);
        assert_ne!(a, c);
    }

    #[test]
    fn all_models_are_rho_bounded() {
        let rho = 5e-4;
        let models = [
            DriftModel::EvenSpread { rho },
            DriftModel::Split { rho },
            DriftModel::RandomConstant { rho },
            DriftModel::RandomPiecewise {
                rho,
                segment_secs: 5.0,
                horizon_secs: 50.0,
            },
        ];
        for m in models {
            for c in m.build(5, &zero_offsets(5), 7) {
                assert_rho_bounded(&c, rho, RealTime::ZERO, RealTime::from_secs(100.0), 0.5);
            }
        }
    }

    #[test]
    fn offsets_applied_at_time_zero() {
        let offs: Vec<ClockTime> = (0..3).map(|i| ClockTime::from_secs(i as f64)).collect();
        let clocks = DriftModel::Ideal.build(3, &offs, 1);
        for (i, c) in clocks.iter().enumerate() {
            assert_eq!(c.read(RealTime::ZERO), offs[i]);
        }
    }

    #[test]
    fn spread_offsets_within_window() {
        let offs = spread_offsets(100, ClockTime::from_secs(10.0), ClockDur::from_secs(2.0), 3);
        for o in &offs {
            assert!(o.as_secs() >= 9.0 && o.as_secs() <= 11.0);
        }
        // Deterministic.
        assert_eq!(
            offs,
            spread_offsets(100, ClockTime::from_secs(10.0), ClockDur::from_secs(2.0), 3)
        );
    }

    #[test]
    #[should_panic(expected = "one initial offset")]
    fn build_rejects_wrong_offset_count() {
        let _ = DriftModel::Ideal.build(3, &zero_offsets(2), 1);
    }
}
