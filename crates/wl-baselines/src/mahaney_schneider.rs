//! The Mahaney–Schneider inexact-agreement algorithm (§10, \[MS\]).
//!
//! Same round structure as CNV, but instead of an egocentric threshold
//! around zero, an estimate is *accepted* only if at least `n − f` of the
//! collected estimates lie within a tolerance `τ` of it (a value vouched
//! for by a quorum cannot be "clearly faulty"). Accepted estimates are
//! averaged; rejected ones are replaced by the average of accepted ones
//! (a common realization of \[MS\]'s "discard and average the rest").
//!
//! Its distinguishing property, noted in §10, is *graceful degradation*
//! when more than one-third of the processes fail — the acceptance quorum
//! keeps single wild lies out even when the `3f+1` arithmetic no longer
//! holds.

use wl_core::Params;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// MS's message: the round trigger value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsMsg(pub ClockTime);

/// One process of the Mahaney–Schneider algorithm.
#[derive(Debug)]
pub struct MahaneySchneider {
    id: usize,
    params: Params,
    /// Acceptance tolerance τ.
    tolerance: f64,
    corr: f64,
    arr: Vec<f64>,
    /// Clock value claimed in the latest message (see `lm_cnv`: \[MS\]'s
    /// model also exchanges clock *values*).
    claimed: Vec<f64>,
    fresh: Vec<bool>,
    awaiting_update: bool,
    t_round: f64,
    rounds_done: u64,
    initial_corr: f64,
}

impl MahaneySchneider {
    /// Creates the automaton. The tolerance defaults to `2(β + 2ε)`:
    /// honest estimates differ pairwise by at most `β + 2ε` plus drift.
    ///
    /// # Panics
    ///
    /// Panics if `params` are timing-infeasible or `id ≥ n`.
    #[must_use]
    pub fn new(id: ProcessId, params: Params, initial_corr: f64) -> Self {
        params.validate_timing().expect("invalid parameters");
        assert!(id.index() < params.n, "process id out of range");
        let tolerance = 2.0 * (params.beta + 2.0 * params.eps);
        let arr = vec![params.t0; params.n];
        let claimed = vec![params.t0; params.n];
        let fresh = vec![false; params.n];
        Self {
            id: id.index(),
            t_round: params.t0,
            tolerance,
            params,
            corr: initial_corr,
            arr,
            claimed,
            fresh,
            awaiting_update: false,
            rounds_done: 0,
            initial_corr,
        }
    }

    /// Completed rounds.
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_done
    }

    /// Current correction.
    #[must_use]
    pub fn correction(&self) -> f64 {
        self.corr
    }

    fn local(&self, phys: ClockTime) -> f64 {
        phys.as_secs() + self.corr
    }

    fn phys_deadline(&self, local_target: f64) -> ClockTime {
        ClockTime::from_secs(local_target - self.corr)
    }

    fn broadcast_round(&mut self, out: &mut Actions<MsMsg>) {
        self.fresh.iter_mut().for_each(|b| *b = false);
        out.broadcast(MsMsg(ClockTime::from_secs(self.t_round)));
        out.set_timer(self.phys_deadline(self.t_round + self.params.wait_window()));
        self.awaiting_update = true;
    }

    fn update(&mut self, out: &mut Actions<MsMsg>) {
        // Estimates: own = 0; fresh peers = T + δ − arrival; stale = none.
        let mut est: Vec<f64> = Vec::with_capacity(self.params.n);
        for q in 0..self.params.n {
            if q == self.id {
                est.push(0.0);
            } else if self.fresh[q] {
                est.push(self.claimed[q] + self.params.delta - self.arr[q]);
            }
        }
        // Accept values vouched for by a quorum of n − f.
        let quorum = self.params.n - self.params.f;
        let accepted: Vec<f64> = est
            .iter()
            .copied()
            .filter(|&v| {
                est.iter()
                    .filter(|&&w| (v - w).abs() <= self.tolerance)
                    .count()
                    >= quorum
            })
            .collect();
        let adj = if accepted.is_empty() {
            0.0
        } else {
            // Rejected estimates are replaced by the mean of accepted ones,
            // so the final average equals the accepted mean.
            accepted.iter().sum::<f64>() / accepted.len() as f64
        };
        self.corr += adj;
        self.rounds_done += 1;
        out.note_correction(self.corr);
        self.t_round += self.params.p_round;
        out.set_timer(self.phys_deadline(self.t_round));
        self.awaiting_update = false;
    }
}

impl Automaton for MahaneySchneider {
    type Msg = MsMsg;

    fn on_input(&mut self, input: Input<MsMsg>, phys_now: ClockTime, out: &mut Actions<MsMsg>) {
        match input {
            Input::Message { from, msg } => {
                self.arr[from.index()] = self.local(phys_now);
                self.claimed[from.index()] = msg.0.as_secs();
                self.fresh[from.index()] = true;
            }
            Input::Start => self.broadcast_round(out),
            Input::Timer => {
                if self.awaiting_update {
                    self.update(out);
                } else {
                    self.broadcast_round(out);
                }
            }
        }
    }

    fn initial_correction(&self) -> f64 {
        self.initial_corr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    fn phys(local: f64, corr: f64) -> ClockTime {
        ClockTime::from_secs(local - corr)
    }

    fn feed(a: &mut MahaneySchneider, q: usize, arrival_local: f64) {
        let mut o = Actions::new();
        a.on_input(
            Input::Message {
                from: ProcessId(q),
                msg: MsMsg(ClockTime::from_secs(a.t_round)),
            },
            phys(arrival_local, a.corr),
            &mut o,
        );
    }

    #[test]
    fn quorum_filters_wild_estimate() {
        let p = params();
        let mut a = MahaneySchneider::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // Three honest arrivals right on time, one wildly early (its
        // estimate is huge and vouched for by only itself).
        feed(&mut a, 1, p.t0 + p.delta);
        feed(&mut a, 2, p.t0 + p.delta);
        feed(&mut a, 3, p.t0 + p.delta - 50.0);
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert!(a.correction().abs() < 1e-12, "corr {}", a.correction());
    }

    #[test]
    fn honest_spread_averaged() {
        let p = params();
        let mut a = MahaneySchneider::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // Peers ahead by 1ms, 1ms, 3ms (all within tolerance of each other
        // and of own 0? tolerance = 2(beta+2eps) which is ~a few ms).
        feed(&mut a, 1, p.t0 + p.delta - 0.001);
        feed(&mut a, 2, p.t0 + p.delta - 0.001);
        feed(&mut a, 3, p.t0 + p.delta - 0.003);
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        // Estimates {0, 1ms, 1ms, 3ms}; quorum n-f = 3 within tolerance.
        // All are within tol of each other (max spread 3ms <= tol?) — check
        // tol and accept-all: mean = 1.25ms.
        let tol = 2.0 * (p.beta + 2.0 * p.eps);
        assert!(tol > 0.003, "test premise: tolerance {tol} > 3ms");
        assert!(
            (a.correction() - 0.00125).abs() < 1e-9,
            "corr {}",
            a.correction()
        );
    }

    #[test]
    fn no_messages_no_adjustment() {
        let p = params();
        let mut a = MahaneySchneider::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        // Only own estimate 0, quorum is 3 > 1: nothing accepted.
        assert_eq!(a.correction(), 0.0);
        assert_eq!(a.rounds_completed(), 1);
    }

    #[test]
    fn graceful_degradation_with_extra_faults() {
        // n = 4, f = 1 nominally, but TWO wild values: quorum 3 still
        // rejects both because each wild value is vouched only by itself.
        let p = params();
        let mut a = MahaneySchneider::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        feed(&mut a, 1, p.t0 + p.delta);
        feed(&mut a, 2, p.t0 + p.delta + 40.0);
        feed(&mut a, 3, p.t0 + p.delta - 50.0);
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        // Accepted = {0, 0}: adjustment 0 despite 2 > f wild values.
        assert!(a.correction().abs() < 1e-12);
    }
}
