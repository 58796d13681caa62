//! The startup algorithm (paper §9.2): establishing synchronization from
//! arbitrary initial clocks.
//!
//! Rounds cannot be triggered by preagreed local times — the clocks may be
//! wildly apart — so each round is paced by message exchange instead:
//!
//! 1. Broadcast your local time `T`; for `(1+ρ)(2δ+4ε)` record everyone's
//!    estimated clock differences `DIFF[q] = T_q + δ − local-time()`.
//! 2. Compute (but do not yet apply) `A = mid(reduce(DIFF))`.
//! 3. Wait a second interval, then broadcast `READY`. If `f+1` READYs
//!    arrive first, broadcast READY early (the \[DLS\]-style double trigger).
//! 4. On `n − f` READYs: apply the adjustment (`CORR += A`,
//!    `DIFF -= A`) and begin the next round.
//!
//! Lemma 20: the clock spread `Bⁱ` satisfies
//! `B^{i+1} ≤ B^i/2 + 2ε + 2ρ(11δ+39ε)`, converging to ≈ `4ε`.
//!
//! ### Timer discipline
//!
//! Unlike the maintenance algorithm, a process here can have *two* timers
//! outstanding (an early READY cancels interest in the `V` timer, and the
//! next round's `U` timer may be set while the stale `V` timer is still in
//! the buffer). The paper's pseudocode guards clusters with
//! `local-time() = U` / `= V`; floating-point equality is not a faithful
//! implementation, so we remember each armed timer's physical deadline and
//! match interrupts against them with a sub-nanosecond tolerance.

use crate::msg::WlMsg;
use crate::params::StartupParams;
use wl_multiset::Multiset;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

const TIMER_TOL: f64 = 1e-9;

/// The §9.2 startup automaton for one process.
#[derive(Debug)]
pub struct Startup {
    id: usize,
    params: StartupParams,
    /// Correction to the physical clock (arbitrary at start).
    corr: f64,
    /// `DIFF[q]`: estimated difference between `q`'s clock and ours.
    diff: Vec<f64>,
    /// `A`: the adjustment computed at `U`, applied at `n−f` READYs.
    a: f64,
    /// Whether `A` has been computed in the current round (the `U` timer
    /// fired). The paper's READY reactions are both anchored after `U`:
    /// the `f+1` early-end applies "during its second waiting interval",
    /// and the `n−f` update uses "the adjustment calculated earlier".
    /// Without this guard, stray READYs from the previous round (the
    /// `n−f+1`-th to `n`-th copies, which arrive after a process has
    /// already advanced) could trigger an update with a stale `A` and the
    /// rounds cascade into divergence.
    a_computed: bool,
    asleep: bool,
    early_end: bool,
    /// Whether READY was already broadcast this round.
    sent_ready: bool,
    /// Processes from which a READY has been received this round.
    rcvd_ready: Vec<bool>,
    rcvd_ready_count: usize,
    /// Physical deadline of the pending `U` timer, if armed.
    pending_u: Option<f64>,
    /// Physical deadline of the pending `V` timer, if armed.
    pending_v: Option<f64>,
    rounds_done: u64,
    initial_corr: f64,
}

impl Startup {
    /// Creates the automaton with an arbitrary initial correction (the
    /// whole point of startup: nothing is assumed about it).
    ///
    /// # Panics
    ///
    /// Panics if `id ≥ n`.
    #[must_use]
    pub fn new(id: ProcessId, params: StartupParams, initial_corr: f64) -> Self {
        assert!(id.index() < params.n, "process id out of range");
        let n = params.n;
        Self {
            id: id.index(),
            params,
            corr: initial_corr,
            diff: vec![0.0; n],
            a: 0.0,
            a_computed: false,
            asleep: true,
            early_end: false,
            sent_ready: false,
            rcvd_ready: vec![false; n],
            rcvd_ready_count: 0,
            pending_u: None,
            pending_v: None,
            rounds_done: 0,
            initial_corr,
        }
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

    /// Completed rounds.
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_done
    }

    fn local(&self, phys: ClockTime) -> f64 {
        phys.as_secs() + self.corr
    }

    fn arm(&self, local_target: f64, out: &mut Actions<WlMsg>) -> f64 {
        let phys = local_target - self.corr;
        out.set_timer(ClockTime::from_secs(phys));
        phys
    }

    /// The paper's `begin-round` macro.
    fn begin_round(&mut self, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        let t = self.local(phys_now);
        out.broadcast(WlMsg::Time(ClockTime::from_secs(t)));
        let u = t + self.params.first_interval();
        self.pending_u = Some(self.arm(u, out));
        self.pending_v = None;
        self.a_computed = false;
        self.early_end = false;
        self.sent_ready = false;
        self.rcvd_ready.iter_mut().for_each(|b| *b = false);
        self.rcvd_ready_count = 0;
        out.annotate_with(|| format!("startup round {} begin", self.rounds_done));
    }

    fn on_u_timer(&mut self, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        self.a = Multiset::from_values(&self.diff)
            .reduce(self.params.f)
            .mid()
            .expect("n >= 2f+1 guaranteed by A2");
        self.a_computed = true;
        let v = self.local(phys_now) + self.params.second_interval();
        self.pending_v = Some(self.arm(v, out));
        // READYs that arrived before U (strays plus early peers) may
        // already satisfy the thresholds now that A is available.
        self.check_ready_thresholds(phys_now, out);
    }

    fn on_v_timer(&mut self, out: &mut Actions<WlMsg>) {
        if !self.early_end && !self.sent_ready {
            out.broadcast(WlMsg::Ready);
            self.sent_ready = true;
        }
    }

    fn on_ready(&mut self, from: ProcessId, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        if !self.rcvd_ready[from.index()] {
            self.rcvd_ready[from.index()] = true;
            self.rcvd_ready_count += 1;
        }
        self.check_ready_thresholds(phys_now, out);
    }

    fn check_ready_thresholds(&mut self, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        // Both reactions are anchored after U (see `a_computed`).
        if !self.a_computed {
            return;
        }
        if self.rcvd_ready_count >= self.params.f + 1 && !self.sent_ready {
            // Second waiting interval terminated early (\[DLS\] trigger).
            out.broadcast(WlMsg::Ready);
            self.sent_ready = true;
            self.early_end = true;
        }
        if self.rcvd_ready_count >= self.params.n - self.params.f {
            // Apply the adjustment computed at U and start the next round.
            for d in &mut self.diff {
                *d -= self.a;
            }
            self.corr += self.a;
            self.rounds_done += 1;
            out.note_correction(self.corr);
            self.begin_round(phys_now, out);
        }
    }
}

impl Automaton for Startup {
    type Msg = WlMsg;

    fn on_input(&mut self, input: Input<WlMsg>, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        match input {
            Input::Start => {
                if self.asleep {
                    self.asleep = false;
                    self.begin_round(phys_now, out);
                }
            }
            Input::Message { from, msg } => match msg {
                WlMsg::Time(t_q) => {
                    self.diff[from.index()] =
                        t_q.as_secs() + self.params.delta - self.local(phys_now);
                    if self.asleep {
                        self.asleep = false;
                        self.begin_round(phys_now, out);
                    }
                }
                WlMsg::Ready => {
                    if !self.asleep {
                        self.on_ready(from, phys_now, out);
                    }
                }
                WlMsg::Round(_) => {} // maintenance traffic; not ours
            },
            Input::Timer => {
                let now = phys_now.as_secs();
                if let Some(u) = self.pending_u {
                    if (now - u).abs() <= TIMER_TOL {
                        self.pending_u = None;
                        self.on_u_timer(phys_now, out);
                        return;
                    }
                }
                if let Some(v) = self.pending_v {
                    if (now - v).abs() <= TIMER_TOL {
                        self.pending_v = None;
                        self.on_v_timer(out);
                    }
                }
                // Stale timer from an abandoned interval: ignore.
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

    fn params() -> StartupParams {
        StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    fn phys(s: f64) -> ClockTime {
        ClockTime::from_secs(s)
    }

    #[test]
    fn start_broadcasts_local_time_and_arms_u() {
        let mut s = Startup::new(ProcessId(0), params(), 7.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(3.0), &mut out);
        // local = 3 + 7 = 10.
        assert!(matches!(
            out.as_slice()[0],
            Action::Broadcast(WlMsg::Time(t)) if (t.as_secs() - 10.0).abs() < 1e-12
        ));
        assert!(matches!(out.as_slice()[1], Action::SetTimer { .. }));
        assert!(s.pending_u.is_some());
    }

    #[test]
    fn time_message_wakes_a_sleeping_process() {
        let mut s = Startup::new(ProcessId(1), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: WlMsg::Time(phys(5.0)),
            },
            phys(2.0),
            &mut out,
        );
        // DIFF[0] = 5 + delta - 2.
        assert!((s.diff[0] - (5.0 + 0.010 - 2.0)).abs() < 1e-12);
        // Woke up: broadcast its own Time.
        assert!(matches!(
            out.as_slice()[0],
            Action::Broadcast(WlMsg::Time(_))
        ));
        assert!(!s.asleep);
    }

    #[test]
    fn u_timer_computes_adjustment_without_applying() {
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        let u_phys = s.pending_u.unwrap();
        s.diff = vec![0.5, 0.4, 0.6, 100.0];
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(u_phys), &mut out);
        // reduce(1) over {0.4,0.5,0.6,100} -> {0.5,0.6}, mid = 0.55.
        assert!((s.a - 0.55).abs() < 1e-12);
        assert_eq!(s.correction(), 0.0, "A must not be applied yet");
        assert!(s.pending_v.is_some());
    }

    #[test]
    fn v_timer_broadcasts_ready() {
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        let u = s.pending_u.unwrap();
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(u), &mut out);
        let v = s.pending_v.unwrap();
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(v), &mut out);
        assert!(matches!(out.as_slice()[0], Action::Broadcast(WlMsg::Ready)));
        assert!(s.sent_ready);
    }

    #[test]
    fn f_plus_one_readys_trigger_early_ready() {
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        // U fires first: the early-end trigger only applies during the
        // second waiting interval.
        let u = s.pending_u.unwrap();
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(u), &mut out);
        // f+1 = 2 READYs before V.
        let mut out = Actions::new();
        s.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: WlMsg::Ready,
            },
            phys(u + 0.001),
            &mut out,
        );
        assert!(out.is_empty());
        let mut out = Actions::new();
        s.on_input(
            Input::Message {
                from: ProcessId(2),
                msg: WlMsg::Ready,
            },
            phys(u + 0.002),
            &mut out,
        );
        assert!(matches!(out.as_slice()[0], Action::Broadcast(WlMsg::Ready)));
        assert!(s.early_end);
    }

    #[test]
    fn readys_before_u_are_deferred_until_a_is_computed() {
        // Stray READYs must not trigger anything before U; once U fires
        // with the thresholds already met, the reactions happen there.
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        for q in 1..=3 {
            let mut o = Actions::new();
            s.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: WlMsg::Ready,
                },
                phys(0.001),
                &mut o,
            );
            assert!(o.is_empty(), "READY before U must be inert");
        }
        assert_eq!(s.rounds_completed(), 0);
        let u = s.pending_u.unwrap();
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(u), &mut out);
        // n-f = 3 READYs were pending: the update happens at U.
        assert_eq!(s.rounds_completed(), 1);
        assert!(out
            .as_slice()
            .iter()
            .any(|a| matches!(a, Action::Broadcast(WlMsg::Time(_)))));
    }

    #[test]
    fn duplicate_readys_do_not_double_count() {
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        for _ in 0..5 {
            let mut o = Actions::new();
            s.on_input(
                Input::Message {
                    from: ProcessId(1),
                    msg: WlMsg::Ready,
                },
                phys(0.01),
                &mut o,
            );
            assert!(o.is_empty(), "one sender must never trigger early-end");
        }
        assert_eq!(s.rcvd_ready_count, 1);
    }

    #[test]
    fn n_minus_f_readys_apply_adjustment_and_begin_next_round() {
        let mut s = Startup::new(ProcessId(0), params(), 1.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        let u = s.pending_u.unwrap();
        s.diff = vec![0.2, 0.2, 0.2, 0.2];
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(u), &mut out);
        assert!((s.a - 0.2).abs() < 1e-12);
        // n - f = 3 READYs.
        for q in 1..=3 {
            let mut o = Actions::new();
            s.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: WlMsg::Ready,
                },
                phys(0.05),
                &mut o,
            );
            if q == 3 {
                // Applied: corr 1.0 + 0.2; diffs shifted; new round begun.
                assert!((s.correction() - 1.2).abs() < 1e-12);
                assert!((s.diff[0] - 0.0).abs() < 1e-12);
                assert!(o
                    .as_slice()
                    .iter()
                    .any(|a| matches!(a, Action::Broadcast(WlMsg::Time(_)))));
                assert!(o
                    .as_slice()
                    .iter()
                    .any(|a| matches!(a, Action::NoteCorrection(c) if (c - 1.2).abs() < 1e-12)));
            }
        }
        assert_eq!(s.rounds_completed(), 1);
        // READY bookkeeping reset for the new round.
        assert_eq!(s.rcvd_ready_count, 0);
        assert!(!s.sent_ready);
    }

    #[test]
    fn stale_timer_ignored() {
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(Input::Start, phys(0.0), &mut out);
        // A timer that matches neither pending deadline.
        let mut out = Actions::new();
        s.on_input(Input::Timer, phys(123.456), &mut out);
        assert!(out.is_empty());
        assert!(s.pending_u.is_some(), "U must remain armed");
    }

    #[test]
    fn round_traffic_ignored() {
        let mut s = Startup::new(ProcessId(0), params(), 0.0);
        let mut out = Actions::new();
        s.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: WlMsg::Round(phys(9.0)),
            },
            phys(1.0),
            &mut out,
        );
        assert!(out.is_empty());
        assert!(
            s.asleep,
            "Round messages must not wake the startup automaton"
        );
    }
}
