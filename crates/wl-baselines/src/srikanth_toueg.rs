//! The Srikanth–Toueg clock synchronization algorithm (§10, \[ST\]).
//!
//! Instead of averaging, ST resynchronizes by *agreement on round starts*:
//! when a process' logical clock reaches `Tⁱ` it broadcasts a round-`i`
//! SYNC message; receiving `f+1` distinct SYNCs for round `i` is proof
//! some nonfaulty process is ready, so the receiver relays (this is the
//! non-authenticated echo that replaces digital signatures, requiring
//! `n > 3f`); receiving `2f+1` distinct SYNCs means every nonfaulty
//! process will soon have `f+1`, so the round is *accepted*: the clock is
//! set to `Tⁱ + δ` and the next round is scheduled.
//!
//! Fast clocks are dragged back to the round boundary and slow ones pulled
//! forward, so agreement tracks the message-latency spread: ≈ `δ + ε` per
//! §10 — worse than Welch–Lynch's `4ε` whenever `δ ≫ ε`, better in the
//! (unusual) regime `δ < 3ε`. The per-round adjustment is ≈ `3(δ+ε)`
//! (§10), reflecting the clock jumping to the boundary rather than to a
//! midpoint of estimates.

use std::collections::BTreeMap;
use wl_core::Params;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// ST's message: a SYNC for round `round`; `echo` marks relays (counted
/// identically, kept for traceability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StMsg {
    /// Round index.
    pub round: u32,
    /// Whether this was a relay triggered by `f+1` SYNCs rather than the
    /// sender's own clock.
    pub echo: bool,
}

/// One process of the Srikanth–Toueg algorithm.
#[derive(Debug)]
pub struct SrikanthToueg {
    id: usize,
    params: Params,
    corr: f64,
    /// Current round index (the next to accept).
    round: u32,
    /// Distinct SYNC senders seen per round ≥ `round`.
    votes: BTreeMap<u32, Vec<bool>>,
    /// Rounds for which this process has already broadcast.
    sent: BTreeMap<u32, bool>,
    rounds_done: u64,
    initial_corr: f64,
}

impl SrikanthToueg {
    /// Creates the automaton.
    ///
    /// # Panics
    ///
    /// Panics if `params` are timing-infeasible or `id ≥ n`.
    #[must_use]
    pub fn new(id: ProcessId, params: Params, initial_corr: f64) -> Self {
        params.validate_timing().expect("invalid parameters");
        assert!(id.index() < params.n, "process id out of range");
        Self {
            id: id.index(),
            params,
            corr: initial_corr,
            round: 0,
            votes: BTreeMap::new(),
            sent: BTreeMap::new(),
            rounds_done: 0,
            initial_corr,
        }
    }

    /// Completed (accepted) rounds.
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_done
    }

    /// Current correction.
    #[must_use]
    pub fn correction(&self) -> f64 {
        self.corr
    }

    /// This process' identity.
    #[must_use]
    pub fn id(&self) -> ProcessId {
        ProcessId(self.id)
    }

    /// The trigger value `Tⁱ` for a round.
    fn t_of(&self, round: u32) -> f64 {
        self.params.t0 + f64::from(round) * self.params.p_round
    }

    fn local(&self, phys: ClockTime) -> f64 {
        phys.as_secs() + self.corr
    }

    fn phys_deadline(&self, local_target: f64) -> ClockTime {
        ClockTime::from_secs(local_target - self.corr)
    }

    fn send_sync(&mut self, round: u32, echo: bool, out: &mut Actions<StMsg>) {
        let sent = self.sent.entry(round).or_insert(false);
        if !*sent {
            *sent = true;
            out.broadcast(StMsg { round, echo });
        }
    }

    fn vote_count(&self, round: u32) -> usize {
        self.votes
            .get(&round)
            .map_or(0, |v| v.iter().filter(|&&b| b).count())
    }

    fn try_progress(&mut self, phys_now: ClockTime, out: &mut Actions<StMsg>) {
        loop {
            let r = self.round;
            let votes = self.vote_count(r);
            // Relay once f+1 distinct processes vouch for round r.
            if votes >= self.params.f + 1 {
                self.send_sync(r, true, out);
            }
            // Accept at 2f+1: every nonfaulty process will relay soon.
            if votes >= 2 * self.params.f + 1 {
                let target = self.t_of(r) + self.params.delta;
                let adj = target - self.local(phys_now);
                self.corr += adj;
                self.rounds_done += 1;
                out.note_correction(self.corr);
                // Garbage-collect old rounds and move on.
                self.votes = self.votes.split_off(&(r + 1));
                self.sent = self.sent.split_off(&(r + 1));
                self.round = r + 1;
                out.set_timer(self.phys_deadline(self.t_of(r + 1)));
                continue;
            }
            break;
        }
    }
}

impl Automaton for SrikanthToueg {
    type Msg = StMsg;

    fn on_input(&mut self, input: Input<StMsg>, phys_now: ClockTime, out: &mut Actions<StMsg>) {
        match input {
            Input::Start => {
                // START arrives exactly when the initial clock reads T⁰
                // (A4), so the round-0 trigger is already due; arming a
                // timer for it would be dropped as "in the past" (§2.2).
                if self.local(phys_now) + 1e-9 >= self.t_of(self.round) {
                    self.send_sync(self.round, false, out);
                    self.try_progress(phys_now, out);
                } else {
                    out.set_timer(self.phys_deadline(self.t_of(self.round)));
                }
            }
            Input::Timer => {
                // The clock reached (at least) the current round's trigger.
                let r = self.round;
                if self.local(phys_now) + 1e-9 >= self.t_of(r) {
                    self.send_sync(r, false, out);
                    self.try_progress(phys_now, out);
                }
                // Stale timers (from before an early acceptance) fall
                // through harmlessly: the guard above fails.
            }
            Input::Message { from, msg } => {
                if msg.round >= self.round {
                    let n = self.params.n;
                    let entry = self
                        .votes
                        .entry(msg.round)
                        .or_insert_with(|| vec![false; n]);
                    entry[from.index()] = true;
                    self.try_progress(phys_now, out);
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

    fn sync_from(a: &mut SrikanthToueg, q: usize, round: u32, at_local: f64) -> Actions<StMsg> {
        let mut o = Actions::new();
        let corr = a.corr;
        a.on_input(
            Input::Message {
                from: ProcessId(q),
                msg: StMsg { round, echo: false },
            },
            phys(at_local, corr),
            &mut o,
        );
        o
    }

    #[test]
    fn start_arms_timer_for_t0_when_early() {
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0 - 0.5, 0.0), &mut out);
        match out.as_slice() {
            [Action::SetTimer { physical }] => {
                assert!((physical.as_secs() - p.t0).abs() < 1e-12);
            }
            other => panic!("expected SetTimer, got {other:?}"),
        }
    }

    #[test]
    fn start_at_t0_broadcasts_immediately() {
        // A4 delivers START exactly at T0 on the initial clock; the round-0
        // SYNC must go out right away (a timer for "now" would be dropped).
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        assert!(
            matches!(
                out.as_slice()[0],
                Action::Broadcast(StMsg {
                    round: 0,
                    echo: false
                })
            ),
            "{:?}",
            out.as_slice()
        );
    }

    #[test]
    fn own_timer_broadcasts_sync_once() {
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0, 0.0), &mut out);
        assert!(matches!(
            out.as_slice()[0],
            Action::Broadcast(StMsg {
                round: 0,
                echo: false
            })
        ));
        // A second (stale) timer does not re-broadcast.
        let mut out = Actions::new();
        a.on_input(Input::Timer, phys(p.t0 + 0.001, 0.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn f_plus_one_votes_trigger_relay_before_own_clock() {
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        // Two distinct senders (f+1 = 2) for round 0, before our timer.
        let o = sync_from(&mut a, 1, 0, p.t0 - 0.002);
        assert!(o.is_empty());
        let o = sync_from(&mut a, 2, 0, p.t0 - 0.001);
        assert!(matches!(
            o.as_slice()[0],
            Action::Broadcast(StMsg {
                round: 0,
                echo: true
            })
        ));
    }

    #[test]
    fn acceptance_sets_clock_to_round_boundary_plus_delta() {
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        let _ = sync_from(&mut a, 1, 0, p.t0 + 0.001);
        let _ = sync_from(&mut a, 2, 0, p.t0 + 0.002);
        // Our own relay counts via our own broadcast delivery in a full
        // simulation; feed a third distinct sender here (2f+1 = 3).
        let at = p.t0 + 0.003;
        let o = sync_from(&mut a, 3, 0, at);
        assert_eq!(a.rounds_completed(), 1);
        // Clock jumped to T0 + delta exactly at acceptance.
        let expect_corr = (p.t0 + p.delta) - at;
        assert!((a.correction() - expect_corr).abs() < 1e-12);
        // Next round timer armed on the new clock.
        assert!(o
            .as_slice()
            .iter()
            .any(|act| matches!(act, Action::SetTimer { .. })));
        assert_eq!(a.round, 1);
    }

    #[test]
    fn duplicate_senders_do_not_advance() {
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        for _ in 0..5 {
            let _ = sync_from(&mut a, 1, 0, p.t0 + 0.001);
        }
        assert_eq!(a.rounds_completed(), 0);
        assert_eq!(a.vote_count(0), 1);
    }

    #[test]
    fn old_round_messages_ignored() {
        let p = params();
        let mut a = SrikanthToueg::new(ProcessId(0), p.clone(), 0.0);
        for q in 1..=3 {
            let _ = sync_from(&mut a, q, 0, p.t0 + 0.001 * q as f64);
        }
        assert_eq!(a.round, 1);
        // Late round-0 votes are dropped.
        let o = sync_from(&mut a, 1, 0, p.t0 + 0.01);
        assert!(o.is_empty());
        assert!(!a.votes.contains_key(&0));
    }
}
