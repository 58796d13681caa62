//! Protocol-aware Byzantine strategies.
//!
//! The model allows a faulty process to do *anything*: the strategies here
//! are the ones that matter for a clock-synchronization protocol whose
//! inputs are message **arrival times**. A Byzantine process cannot fake an
//! arrival time directly — it can only choose *when* to send — so the
//! strongest attacks send protocol-shaped messages at adversarially chosen
//! moments, possibly different moments for different receivers.

use crate::msg::WlMsg;
use crate::params::Params;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// The classic "two-faced" attack: each round, send the round message
/// *early* to one half of the fleet and *late* to the other half, by
/// `amplitude` seconds each way.
///
/// Early receivers conclude this process' clock is ahead; late receivers
/// conclude it is behind — a consistent pull driving the two halves apart.
/// With `n = 3f` this attack defeats the averaging function (the \[DHS\]
/// impossibility); with `n ≥ 3f+1` `reduce` absorbs it (experiment E12).
#[derive(Debug)]
pub struct PullApart {
    params: Params,
    /// Current round base `Tⁱ` on its (drift-free conceptual) schedule.
    t_round: f64,
    /// How far to shift sends, each way.
    amplitude: f64,
    /// `early_mask[q]` — whether `q` receives the early send.
    early_mask: Vec<bool>,
    phase: PullPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PullPhase {
    Early,
    Late,
}

impl PullApart {
    /// Creates the attacker.
    ///
    /// `amplitude` should be at most about `β/2 + δ` to stay plausible
    /// enough that the honest wait-window still catches the late sends
    /// (arrivals outside the window are simply stale — a *weaker* attack).
    #[must_use]
    pub fn new(params: Params, amplitude: f64, early_below: usize) -> Self {
        let mask = (0..params.n).map(|q| q < early_below).collect();
        Self::with_early_mask(params, amplitude, mask)
    }

    /// Creates the attacker with an explicit early-target mask (the
    /// strongest version targets the *faster* honest clocks with the early
    /// send and the slower ones with the late send, freezing everyone's
    /// median at `n = 3f`).
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from `n`.
    #[must_use]
    pub fn with_early_mask(params: Params, amplitude: f64, early_mask: Vec<bool>) -> Self {
        assert_eq!(early_mask.len(), params.n, "mask must cover all processes");
        let t_round = params.t0;
        Self {
            params,
            t_round,
            amplitude,
            early_mask,
            phase: PullPhase::Early,
        }
    }

    fn send_to_half(&self, early: bool, out: &mut Actions<WlMsg>) {
        let msg = WlMsg::Round(ClockTime::from_secs(self.t_round));
        for q in 0..self.params.n {
            if self.early_mask[q] == early {
                out.send(ProcessId(q), msg);
            }
        }
    }

    /// Sends the early half. The late half follows in the same step when
    /// its instant is not after the early one's (amplitude 0, or a start
    /// past it): a timer for an instant already reached is suppressed
    /// (§2.2), and the attacker would fall silent.
    fn send_early(&mut self, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        self.send_to_half(true, out);
        let late_at = self.t_round + self.amplitude;
        if late_at <= phys_now.as_secs().max(self.t_round - self.amplitude) {
            self.send_late(out);
        } else {
            self.phase = PullPhase::Late;
            out.set_timer(ClockTime::from_secs(late_at));
        }
    }

    /// Sends the late half and schedules the next round's early send.
    fn send_late(&mut self, out: &mut Actions<WlMsg>) {
        self.send_to_half(false, out);
        self.t_round += self.params.p_round;
        self.phase = PullPhase::Early;
        out.set_timer(ClockTime::from_secs(self.t_round - self.amplitude));
    }
}

impl Automaton for PullApart {
    type Msg = WlMsg;

    fn on_input(&mut self, input: Input<WlMsg>, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        match input {
            Input::Start => {
                // Begin the attack at its nominal first round; its physical
                // clock starts near everyone else's (a faulty process still
                // has a rho-bounded clock, A1). A START at the early
                // instant may read its clock back an ulp short of it, and
                // a timer for it would be suppressed (§2.2): the slack is
                // `Maintenance`'s.
                let early_at = self.t_round - self.amplitude;
                if early_at <= phys_now.as_secs() + 1e-12 {
                    self.send_early(phys_now, out);
                } else {
                    self.phase = PullPhase::Early;
                    out.set_timer(ClockTime::from_secs(early_at));
                }
            }
            Input::Timer => match self.phase {
                PullPhase::Early => self.send_early(phys_now, out),
                PullPhase::Late => self.send_late(out),
            },
            Input::Message { .. } => {}
        }
    }
}

/// A Byzantine process that sends `Round` messages carrying random values
/// at random moments — protocol-shaped noise. `reduce` must shrug it off.
#[derive(Debug)]
pub struct RoundSpammer {
    n: usize,
    period: f64,
    rng: StdRng,
    value_range: (f64, f64),
}

impl RoundSpammer {
    /// Spams all `n` processes every `period` physical seconds with round
    /// values drawn uniformly from `value_range`.
    #[must_use]
    pub fn new(n: usize, period: f64, seed: u64, value_range: (f64, f64)) -> Self {
        Self {
            n,
            period,
            rng: StdRng::seed_from_u64(seed),
            value_range,
        }
    }
}

impl Automaton for RoundSpammer {
    type Msg = WlMsg;

    fn on_input(&mut self, input: Input<WlMsg>, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        match input {
            Input::Start | Input::Timer => {
                for q in 0..self.n {
                    let v = self.rng.gen_range(self.value_range.0..=self.value_range.1);
                    out.send(ProcessId(q), WlMsg::Round(ClockTime::from_secs(v)));
                }
                out.set_timer(phys_now + wl_time::ClockDur::from_secs(self.period));
            }
            Input::Message { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wl_sim::Action;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    #[test]
    fn pull_apart_sends_early_then_late_halves() {
        let p = params();
        let a = 0.002;
        let mut byz = PullApart::new(p.clone(), a, 2);
        let mut out = Actions::new();
        // START before the early moment: just a timer.
        byz.on_input(Input::Start, ClockTime::from_secs(p.t0 - 0.1), &mut out);
        assert!(matches!(out.as_slice(), [Action::SetTimer { .. }]));
        // Early timer: sends to processes 0 and 1 only.
        let mut out = Actions::new();
        byz.on_input(Input::Timer, ClockTime::from_secs(p.t0 - a), &mut out);
        let targets: Vec<usize> = out
            .as_slice()
            .iter()
            .filter_map(|act| match act {
                Action::Send { to, .. } => Some(to.index()),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![0, 1]);
        // Late timer: sends to 2 and 3 and schedules the next round.
        let mut out = Actions::new();
        byz.on_input(Input::Timer, ClockTime::from_secs(p.t0 + a), &mut out);
        let targets: Vec<usize> = out
            .as_slice()
            .iter()
            .filter_map(|act| match act {
                Action::Send { to, .. } => Some(to.index()),
                _ => None,
            })
            .collect();
        assert_eq!(targets, vec![2, 3]);
        match out.as_slice().last().unwrap() {
            Action::SetTimer { physical } => {
                let expect = p.t0 + p.p_round - a;
                assert!((physical.as_secs() - expect).abs() < 1e-12);
            }
            other => panic!("expected SetTimer, got {other:?}"),
        }
    }

    #[test]
    fn round_spammer_emits_protocol_shaped_noise() {
        let mut s = RoundSpammer::new(4, 0.01, 9, (0.0, 100.0));
        let mut out = Actions::new();
        s.on_input(Input::Start, ClockTime::ZERO, &mut out);
        let sends = out
            .as_slice()
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: WlMsg::Round(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(sends, 4);
        assert!(matches!(
            out.as_slice().last().unwrap(),
            Action::SetTimer { .. }
        ));
    }

    #[test]
    fn spammer_ignores_incoming() {
        let mut s = RoundSpammer::new(4, 0.01, 9, (0.0, 100.0));
        let mut out = Actions::new();
        s.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: WlMsg::Ready,
            },
            ClockTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
    }
}
