//! §4's round in closed form, with no event queue, automaton or RNG: the
//! oracle `tests/reference.rs` holds the simulator to. Round `i` of a
//! nonfaulty `p`, with `Tⁱ⁺¹ = Tⁱ + P` and `W` the [`Params::wait_window`]:
//!
//! - `p` broadcasts at `sⁱ_p = Ph_p⁻¹(Tⁱ − CORRⁱ_p)`, and the message
//!   reaches `q` at `sⁱ_p + d[p][q]` (a broadcast reaches its sender too);
//! - `p` updates at `uⁱ_p = Ph_p⁻¹(Tⁱ + W − CORRⁱ_p)`, with `ARR[q]` the
//!   local time (`Ph_p + CORR_p` then) of the latest message from `q` to
//!   arrive strictly before `uⁱ_p`, or `T⁰` if none has (the value
//!   [`crate::Maintenance::new`] picks for "initially arbitrary");
//! - `CORRⁱ⁺¹_p = CORRⁱ_p + (Tⁱ + δ − mid(reduce(ARR)))`.
//!
//! The trim and the midpoint are this module's own, so a defect in the
//! simulator's averaging function cannot hide on both sides.

use crate::Params;

/// A physical clock `Ph(t) = offset + rate · t` (A1, with a constant rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineClock {
    /// `Ph(0)`, clock seconds.
    pub offset: f64,
    /// `dPh/dt`, within `[1 − ρ, 1 + ρ]`.
    pub rate: f64,
}

impl AffineClock {
    /// The reading at real time `t`.
    #[must_use]
    pub fn read(&self, t: f64) -> f64 {
        self.offset + self.rate * t
    }

    /// The real time at which the clock reads `c`.
    #[must_use]
    pub fn real_time_of(&self, c: f64) -> f64 {
        (c - self.offset) / self.rate
    }
}

/// A byzantine sender, given by what it does: `sends[i][q]` is the real
/// instant at which it sends its round-`i` message to `q`.
#[derive(Debug, Clone, PartialEq)]
pub struct Byzantine {
    /// Its process id.
    pub id: usize,
    /// Send instants, per round, per receiver.
    pub sends: Vec<Vec<f64>>,
}

/// One round, per process (`NaN` in a byzantine process's slots).
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// `sⁱ_p`, the real time of the broadcast.
    pub broadcast: Vec<f64>,
    /// `uⁱ_p`, the real time of the update.
    pub update: Vec<f64>,
    /// `CORRⁱ⁺¹_p`, the correction from `uⁱ_p` on.
    pub corr: Vec<f64>,
}

/// The inputs of one execution.
#[derive(Debug, Clone, Copy)]
pub struct Execution<'a> {
    /// The paper's constants: `σ = 0`, one exchange, the midpoint.
    pub params: &'a Params,
    /// `Ph_p` for every process.
    pub clocks: &'a [AffineClock],
    /// `CORR⁰_p` for every process (unused for a byzantine one).
    pub corr0: &'a [f64],
    /// `d[p][q]`, the in-band delay of every message from `p` to `q`.
    pub delay: &'a [Vec<f64>],
    /// The byzantine senders; every other process is nonfaulty.
    pub byzantine: &'a [Byzantine],
}

impl Execution<'_> {
    /// The first `count` rounds. Assumes the §5.2 bound on `P`, under
    /// which no nonfaulty round-`i + 1` message arrives before its
    /// receiver's round-`i` update (Lemma 12).
    ///
    /// # Panics
    ///
    /// Panics if the parameters are not the base algorithm's, or an input
    /// is not sized for `n`.
    #[must_use]
    pub fn rounds(&self, count: usize) -> Vec<Round> {
        let (p, n) = (self.params, self.params.n);
        let base = p.sigma == 0.0 && p.exchanges == 1 && p.avg == crate::AveragingFn::Midpoint;
        assert!(base, "the base algorithm only");
        assert!(self.clocks.len() == n && self.corr0.len() == n && self.delay.len() == n);
        let faulty: Vec<bool> = (0..n)
            .map(|q| self.byzantine.iter().any(|b| b.id == q))
            .collect();
        // arrivals[q][s]: the real instants at which q hears from s.
        let mut arrivals = vec![vec![Vec::new(); n]; n];
        for b in self.byzantine {
            for (q, &at) in b.sends.iter().flat_map(|round| round.iter().enumerate()) {
                arrivals[q][b.id].push(at + self.delay[b.id][q]);
            }
        }
        // history[q]: (uʲ_q, CORRʲ⁺¹_q) so far, to stamp an arrival with
        // the correction in force when it came.
        let mut history: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        let mut corr = self.corr0.to_vec();
        let mut t = p.t0;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut round = Round {
                broadcast: vec![f64::NAN; n],
                update: vec![f64::NAN; n],
                corr: vec![f64::NAN; n],
            };
            for s in (0..n).filter(|&s| !faulty[s]) {
                let clock = self.clocks[s];
                round.broadcast[s] = clock.real_time_of(t - corr[s]);
                round.update[s] = clock.real_time_of(t + p.wait_window() - corr[s]);
                for (q, heard) in arrivals.iter_mut().enumerate() {
                    heard[s].push(round.broadcast[s] + self.delay[s][q]);
                }
            }
            for q in (0..n).filter(|&q| !faulty[q]) {
                let u = round.update[q];
                let stamp = |a: f64| {
                    let in_force = history[q].iter().rev().find(|&&(at, _)| at <= a);
                    self.clocks[q].read(a) + in_force.map_or(self.corr0[q], |&(_, c)| c)
                };
                let mut arr: Vec<f64> = arrivals[q]
                    .iter()
                    .map(|from| {
                        let latest = from.iter().copied().filter(|&a| a < u).reduce(f64::max);
                        latest.map_or(p.t0, stamp)
                    })
                    .collect();
                corr[q] += t + p.delta - mid_reduce(&mut arr, p.f);
                history[q].push((u, corr[q]));
                round.corr[q] = corr[q];
            }
            t += p.p_round;
            out.push(round);
        }
        out
    }
}

/// `mid(reduce(U))`: drop the `f` smallest and the `f` largest values and
/// take the midpoint of the rest (§4.1).
fn mid_reduce(values: &mut [f64], f: usize) -> f64 {
    values.sort_by(f64::total_cmp);
    let kept = &values[f..values.len() - f];
    (kept[0] + kept[kept.len() - 1]) / 2.0
}

/// How far, in seconds, another evaluation of the first `rounds` rounds
/// may sit from [`Execution::rounds`] when no clock value exceeds
/// `largest`: 16 ulps of `largest` per round.
///
/// A round is 16 floating-point operations: 3 for the broadcast instant,
/// 1 for the arrival, 3 for the stamp, 2 for the midpoint, 3 for the
/// adjustment, 4 for the update instant. Each result is at most `largest`
/// in magnitude, so two evaluations that round it differently part by at
/// most one ulp of `largest`. What a round inherits passes through
/// `mid∘reduce`, 1-Lipschitz in the largest deviation, times a rate ratio
/// of at most `(1 + ρ)/(1 − ρ)` (the receiver's own `CORR` cancels out of
/// its adjustment): deviations add across rounds, they do not compound,
/// and `ε_mach · largest ≥ ulp(largest)` absorbs the rate ratio.
#[must_use]
pub fn tolerance(largest: f64, rounds: usize) -> f64 {
    16.0 * rounds as f64 * f64::EPSILON * largest.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The f = 0 worst case of one round: at ρ = 0 with equal clocks, a
    /// process that hears every link at δ + ε and one that hears every
    /// link at δ − ε end the round exactly 2ε apart.
    #[test]
    fn f0_one_round_skew_is_two_eps() {
        let p = Params::auto(4, 0, 0.0, 0.010, 0.001).unwrap();
        let mut row = vec![p.delta; 4];
        (row[0], row[1]) = (p.delta + p.eps, p.delta - p.eps);
        let exec = Execution {
            params: &p,
            clocks: &[AffineClock {
                offset: 0.0,
                rate: 1.0,
            }; 4],
            corr0: &[0.0; 4],
            delay: &vec![row; 4],
            byzantine: &[],
        };
        let round = &exec.rounds(1)[0];
        let skew = round.corr[1] - round.corr[0];
        let tol = tolerance(round.update[0] + round.corr[0], 1);
        assert!(
            (skew - 2.0 * p.eps).abs() <= tol,
            "skew {skew} against ε {}",
            p.eps
        );
    }

    /// Adding `c` to every clock's offset and taking it off every
    /// `CORR⁰` leaves each update's instant and logical clock where they
    /// were: the algorithm sees local times only.
    #[test]
    fn shifting_clocks_against_corrections_changes_nothing() {
        let p = Params::auto(4, 1, 1e-4, 0.010, 0.001).unwrap();
        let delay: Vec<Vec<f64>> = (0..4)
            .map(|s| {
                (0..4)
                    .map(|q| p.delta + p.eps * ((s * 7 + q * 3) % 5) as f64 / 4.0)
                    .collect()
            })
            .collect();
        let liar = [Byzantine {
            id: 3,
            sends: (0..6)
                .map(|i| vec![1.003 + i as f64 * p.p_round; 4])
                .collect(),
        }];
        let run = |c: f64| {
            let clocks: Vec<AffineClock> = (0..4)
                .map(|q| AffineClock {
                    offset: 0.0003 * q as f64 + c,
                    rate: 1.0 + p.rho * (q as f64 - 1.5) / 1.5,
                })
                .collect();
            let corr0: Vec<f64> = (0..4).map(|q| -0.0002 * q as f64 - c).collect();
            let exec = Execution {
                params: &p,
                clocks: &clocks,
                corr0: &corr0,
                delay: &delay,
                byzantine: &liar,
            };
            let rounds = exec.rounds(5);
            let at = |r: &Round, q: usize| (r.update[q], clocks[q].read(r.update[q]) + r.corr[q]);
            rounds
                .iter()
                .flat_map(|r| (0..3).map(move |q| at(r, q)))
                .collect::<Vec<_>>()
        };
        let tol = tolerance(1.0 + 5.0 * p.p_round + 0.37, 5);
        for ((u, l), (u2, l2)) in run(0.0).into_iter().zip(run(0.37)) {
            let moved = (u - u2).abs() > tol || (l - l2).abs() > tol;
            assert!(!moved, "update ({u}, {l}) moved to ({u2}, {l2})");
        }
    }
}
