//! The interactive convergence algorithm (CNV) of Lamport and
//! Melliar-Smith, the direct ancestor of Welch–Lynch (§10, \[LM\]).
//!
//! Each round, every process obtains an estimate `Δ_q` of how far each
//! other clock leads its own, replaces estimates larger than a threshold
//! `Δ` by zero (the *egocentric* average: "values not too different from
//! my own"), and adjusts by the mean of all `n` estimates (its own being
//! zero).
//!
//! With `f` Byzantine processes each able to inject an error up to `Δ + 2ε`
//! without being discarded, the achieved agreement degrades linearly in
//! `n` (the paper quotes ≈ `2nε` for the closeness and `(2n+1)ε` for the
//! adjustment), compared to Welch–Lynch's `4ε` — the gap experiment E11
//! measures.

use wl_core::Params;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// CNV's message: "my clock just read `T`" (the round trigger value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CnvMsg(pub ClockTime);

/// One process of the interactive convergence algorithm.
#[derive(Debug)]
pub struct LmCnv {
    id: usize,
    params: Params,
    /// Discard threshold Δ: estimates with `|Δ_q| > Δ` are egocentrically
    /// replaced by 0.
    threshold: f64,
    corr: f64,
    /// Arrival local-time of the latest message from each process.
    arr: Vec<f64>,
    /// Clock value *claimed* in the latest message from each process.
    ///
    /// Unlike Welch–Lynch (arrival times only), \[LM\]'s processes read each
    /// other's clock values, so a Byzantine process can lie in the message
    /// *content* — the root of CNV's `2nε` degradation.
    claimed: Vec<f64>,
    /// Whether a fresh message arrived from q this round.
    fresh: Vec<bool>,
    awaiting_update: bool,
    t_round: f64,
    rounds_done: u64,
    initial_corr: f64,
}

impl LmCnv {
    /// Creates the automaton. The discard threshold defaults to
    /// `2(β + δ + ε)` — wide enough that all honest estimates (bounded by
    /// `β + 2ε` plus drift) survive, tight enough to cap Byzantine lies.
    ///
    /// # Panics
    ///
    /// Panics if `params` are timing-infeasible or `id ≥ n`.
    #[must_use]
    pub fn new(id: ProcessId, params: Params, initial_corr: f64) -> Self {
        params.validate_timing().expect("invalid parameters");
        assert!(id.index() < params.n, "process id out of range");
        let threshold = 2.0 * (params.beta + params.delta + params.eps);
        let arr = vec![params.t0; params.n];
        let claimed = vec![params.t0; params.n];
        let fresh = vec![false; params.n];
        Self {
            id: id.index(),
            t_round: params.t0,
            threshold,
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

    fn broadcast_round(&mut self, out: &mut Actions<CnvMsg>) {
        self.fresh.iter_mut().for_each(|b| *b = false);
        out.broadcast(CnvMsg(ClockTime::from_secs(self.t_round)));
        out.set_timer(self.phys_deadline(self.t_round + self.params.wait_window()));
        self.awaiting_update = true;
    }

    fn update(&mut self, out: &mut Actions<CnvMsg>) {
        // Egocentric average over n estimates; own estimate and discarded
        // ones contribute 0.
        let mut sum = 0.0;
        for q in 0..self.params.n {
            if q == self.id || !self.fresh[q] {
                continue;
            }
            // Estimated lead of q's clock: what q claims it read, plus the
            // nominal transit time, minus when it got here.
            let d = self.claimed[q] + self.params.delta - self.arr[q];
            if d.abs() <= self.threshold {
                sum += d;
            }
        }
        let adj = sum / self.params.n as f64;
        self.corr += adj;
        self.rounds_done += 1;
        out.note_correction(self.corr);
        self.t_round += self.params.p_round;
        out.set_timer(self.phys_deadline(self.t_round));
        self.awaiting_update = false;
    }
}

impl Automaton for LmCnv {
    type Msg = CnvMsg;

    fn on_input(&mut self, input: Input<CnvMsg>, phys_now: ClockTime, out: &mut Actions<CnvMsg>) {
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
    use wl_sim::Action;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    fn phys(local: f64, corr: f64) -> ClockTime {
        ClockTime::from_secs(local - corr)
    }

    #[test]
    fn start_broadcasts_and_waits() {
        let p = params();
        let mut a = LmCnv::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        assert!(matches!(out.as_slice()[0], Action::Broadcast(_)));
        assert!(matches!(out.as_slice()[1], Action::SetTimer { .. }));
    }

    #[test]
    fn symmetric_arrivals_zero_adjustment() {
        let p = params();
        let mut a = LmCnv::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // Two peers: one 1ms ahead, one 1ms behind; estimates cancel.
        for (q, off) in [(1usize, -0.001), (2, 0.001)] {
            let mut o = Actions::new();
            a.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: CnvMsg(p.t0_clock()),
                },
                phys(p.t0 + p.delta + off, 0.0),
                &mut o,
            );
        }
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert!(a.correction().abs() < 1e-12);
        assert_eq!(a.rounds_completed(), 1);
    }

    #[test]
    fn out_of_threshold_estimates_discarded() {
        let p = params();
        let mut a = LmCnv::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // A Byzantine arrival so late its estimate exceeds the threshold.
        let mut o = Actions::new();
        a.on_input(
            Input::Message {
                from: ProcessId(3),
                msg: CnvMsg(p.t0_clock()),
            },
            phys(p.t0 + p.delta + 10.0, 0.0),
            &mut o,
        );
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert!(a.correction().abs() < 1e-12, "egocentric discard failed");
    }

    #[test]
    fn byzantine_within_threshold_shifts_by_over_n() {
        // The CNV weakness: a lie just inside the threshold moves the
        // average by lie/n.
        let p = params();
        let mut a = LmCnv::new(ProcessId(0), p.clone(), 0.0);
        let lie = 0.9 * 2.0 * (p.beta + p.delta + p.eps);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        let mut o = Actions::new();
        a.on_input(
            Input::Message {
                from: ProcessId(3),
                msg: CnvMsg(p.t0_clock()),
            },
            phys(p.t0 + p.delta - lie, 0.0),
            &mut o,
        );
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert!((a.correction() - lie / 4.0).abs() < 1e-12);
    }

    #[test]
    fn stale_peers_do_not_contribute() {
        let p = params();
        let mut a = LmCnv::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // Nobody sends anything; update must be a no-op.
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert_eq!(a.correction(), 0.0);
    }
}
