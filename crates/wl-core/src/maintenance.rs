//! The maintenance algorithm (paper §4.2), with the §9.3 staggered
//! broadcast and §7 multi-exchange / mean-averaging variants.
//!
//! Per round `i`, a process: broadcasts `Tⁱ` when its logical clock reads
//! `Tⁱ`; collects the local arrival times of everyone's `Tⁱ` messages for
//! `(1+ρ)(β+δ+ε)` of local time; computes
//! `ADJ = Tⁱ + δ − mid(reduce(ARR))`; adds `ADJ` to `CORR` (switching to
//! logical clock `Cⁱ⁺¹`); and sets a timer for `Tⁱ⁺¹ = Tⁱ + P`.
//!
//! The implementation keeps the paper's discipline of **exactly one
//! outstanding timer**, generalising the BCAST/UPDATE flag into a
//! two-phase cycle per *sub-exchange* so that stagger (`σ > 0`) and
//! multiple exchanges per round (`k > 1`) fit the same machine:
//!
//! ```text
//! AwaitSend --(timer at B_j + p·σ: broadcast)--> AwaitUpdate
//! AwaitUpdate --(timer at B_j + (n−1)σ + wait: average, adjust)--> AwaitSend
//! ```
//!
//! where `B_j = Tⁱ + j·E` is the base time of sub-exchange `j ∈ 0..k` and
//! `E` is [`Params::exchange_period`]. With `σ = 0, k = 1` this is
//! literally the paper's algorithm.

use crate::msg::WlMsg;
use crate::params::Params;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// Which timer the single outstanding timer is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for the moment to broadcast the current sub-exchange's
    /// `Round` message (the paper's `FLAG = BCAST`).
    AwaitSend,
    /// Waiting for the end of the collection window (the paper's
    /// `FLAG = UPDATE`).
    AwaitUpdate,
}

/// The §4.2 maintenance automaton for one process.
#[derive(Debug)]
pub struct Maintenance {
    id: usize,
    params: Params,
    /// The correction variable `CORR` (clock seconds).
    corr: f64,
    /// `ARR[q]`: local arrival time of the most recent message from `q`,
    /// normalised by the sender's stagger offset (`− q·σ`). "Initially
    /// arbitrary" per the paper; stale entries behave as faulty values and
    /// are absorbed by `reduce`.
    arr: Vec<f64>,
    /// Scratch for the update: `arr` copied and sorted, reused.
    sorted: Vec<f64>,
    phase: Phase,
    /// `T`: the base value of the current round (clock seconds).
    t_round: f64,
    /// Current sub-exchange index `j ∈ 0..k`.
    exchange: usize,
    /// Completed full rounds (diagnostics).
    rounds_done: u64,
    /// Completed updates, including sub-exchanges (diagnostics).
    updates_done: u64,
    initial_corr: f64,
}

impl Maintenance {
    /// Creates the automaton for process `id` with initial correction
    /// `corr⁰` (assumption A4 promises the resulting initial logical
    /// clocks of nonfaulty processes are within β).
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation or `id ≥ n`.
    #[must_use]
    pub fn new(id: ProcessId, params: Params, initial_corr: f64) -> Self {
        params.validate_timing().expect("invalid parameters");
        assert!(id.index() < params.n, "process id out of range");
        let arr = vec![params.t0; params.n];
        Self {
            id: id.index(),
            t_round: params.t0,
            params,
            corr: initial_corr,
            arr,
            sorted: Vec::new(),
            phase: Phase::AwaitSend,
            exchange: 0,
            rounds_done: 0,
            updates_done: 0,
            initial_corr,
        }
    }

    /// Re-creates a mid-execution automaton about to begin the round with
    /// base value `t_round`, holding correction `corr` — used by the
    /// reintegration procedure (§9.1) when a repaired process rejoins.
    ///
    /// The caller must schedule the first timer at the returned physical
    /// deadline (the automaton cannot emit actions outside a step).
    #[must_use]
    pub fn resume_at(id: ProcessId, params: Params, corr: f64, t_round: f64) -> (Self, ClockTime) {
        params.validate_timing().expect("invalid parameters");
        let arr = vec![params.t0; params.n];
        let me = Self {
            id: id.index(),
            t_round,
            params,
            corr,
            arr,
            sorted: Vec::new(),
            phase: Phase::AwaitSend,
            exchange: 0,
            rounds_done: 0,
            updates_done: 0,
            initial_corr: corr,
        };
        let deadline = me.send_deadline();
        (me, deadline)
    }

    /// Current correction `CORR`.
    #[must_use]
    pub fn correction(&self) -> f64 {
        self.corr
    }

    /// The base value `T` of the round in progress.
    #[must_use]
    pub fn round_base(&self) -> f64 {
        self.t_round
    }

    /// Completed full rounds.
    #[must_use]
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_done
    }

    /// Completed updates (equals rounds × exchanges).
    #[must_use]
    pub fn updates_completed(&self) -> u64 {
        self.updates_done
    }

    /// Current phase (for tests).
    #[must_use]
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Local time corresponding to a physical reading.
    fn local(&self, phys: ClockTime) -> f64 {
        phys.as_secs() + self.corr
    }

    /// Physical deadline for a local-time target on the current logical
    /// clock (the paper's `set-timer`: physical clock reaches `T − CORR`).
    fn phys_deadline(&self, local_target: f64) -> ClockTime {
        ClockTime::from_secs(local_target - self.corr)
    }

    /// Base local time `B_j` of the current sub-exchange.
    fn sub_base(&self) -> f64 {
        let tail = self.params.sigma * (self.params.n - 1) as f64;
        self.t_round + self.exchange as f64 * (self.params.exchange_period() + tail)
    }

    /// This process' broadcast moment for the current sub-exchange.
    fn send_local(&self) -> f64 {
        self.sub_base() + self.params.sigma * self.id as f64
    }

    /// Physical deadline of the next broadcast.
    fn send_deadline(&self) -> ClockTime {
        self.phys_deadline(self.send_local())
    }

    /// End of the collection window for the current sub-exchange.
    fn update_local(&self) -> f64 {
        self.sub_base() + self.params.sigma * (self.params.n - 1) as f64 + self.params.wait_window()
    }

    fn do_broadcast(&mut self, out: &mut Actions<WlMsg>) {
        out.broadcast(WlMsg::Round(ClockTime::from_secs(self.sub_base())));
        out.set_timer(self.phys_deadline(self.update_local()));
        self.phase = Phase::AwaitUpdate;
    }

    fn do_update(&mut self, out: &mut Actions<WlMsg>) {
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.arr);
        let av = self
            .params
            .avg
            .apply_sorted(&mut self.sorted, self.params.f);
        let adj = self.sub_base() + self.params.delta - av;
        self.corr += adj;
        self.updates_done += 1;
        out.note_correction(self.corr);
        out.annotate_with(|| {
            format!(
                "update round_base={:.6} exchange={} adj={:+.9}",
                self.t_round, self.exchange, adj
            )
        });

        self.exchange += 1;
        if self.exchange >= self.params.exchanges {
            self.exchange = 0;
            self.t_round += self.params.p_round;
            self.rounds_done += 1;
        }
        out.set_timer(self.send_deadline());
        self.phase = Phase::AwaitSend;
    }
}

impl Automaton for Maintenance {
    type Msg = WlMsg;

    fn on_input(&mut self, input: Input<WlMsg>, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        match input {
            // "receive(m) from q: ARR[q] := local-time()" — any protocol
            // message stamps the array; stagger is normalised out so the
            // stored value is comparable to the round base.
            Input::Message { from, msg } => {
                if matches!(msg, WlMsg::Round(_)) {
                    self.arr[from.index()] =
                        self.local(phys_now) - self.params.sigma * from.index() as f64;
                }
            }
            // START: A4 delivers it exactly when the initial logical clock
            // reads T⁰. With stagger, process p waits a further p·σ.
            Input::Start => {
                if self.send_local() <= self.local(phys_now) + 1e-12 {
                    self.do_broadcast(out);
                } else {
                    out.set_timer(self.send_deadline());
                    self.phase = Phase::AwaitSend;
                }
            }
            Input::Timer => match self.phase {
                Phase::AwaitSend => self.do_broadcast(out),
                Phase::AwaitUpdate => self.do_update(out),
            },
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

    fn proc(id: usize) -> Maintenance {
        Maintenance::new(ProcessId(id), params(), 0.0)
    }

    fn phys(local: f64, corr: f64) -> ClockTime {
        ClockTime::from_secs(local - corr)
    }

    #[test]
    fn start_broadcasts_round_value_and_arms_update_timer() {
        let mut m = proc(0);
        let mut out = Actions::new();
        let p = params();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        let acts = out.as_slice();
        assert!(matches!(
            acts[0],
            Action::Broadcast(WlMsg::Round(v)) if (v.as_secs() - p.t0).abs() < 1e-12
        ));
        match acts[1] {
            Action::SetTimer { physical } => {
                let expect = p.t0 + p.wait_window();
                assert!((physical.as_secs() - expect).abs() < 1e-12);
            }
            ref other => panic!("expected SetTimer, got {other:?}"),
        }
        assert_eq!(m.phase(), Phase::AwaitUpdate);
    }

    #[test]
    fn messages_stamp_arrival_array_with_local_time() {
        let mut m = proc(0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(params().t0, 0.0), &mut out);
        let mut out = Actions::new();
        m.on_input(
            Input::Message {
                from: ProcessId(2),
                msg: WlMsg::Round(ClockTime::from_secs(1.0)),
            },
            ClockTime::from_secs(1.25),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(m.arr[2], 1.25); // corr = 0 so local == physical
    }

    #[test]
    fn non_round_messages_ignored() {
        let mut m = proc(0);
        let mut out = Actions::new();
        let before = m.arr.clone();
        m.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: WlMsg::Ready,
            },
            ClockTime::from_secs(1.5),
            &mut out,
        );
        assert_eq!(m.arr, before);
    }

    #[test]
    fn update_computes_paper_adjustment() {
        // All four arrivals exactly at T0 + delta on the local clock means
        // AV = T0 + delta, ADJ = 0.
        let p = params();
        let mut m = proc(0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        for q in 0..4 {
            let mut o = Actions::new();
            m.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: WlMsg::Round(p.t0_clock()),
                },
                phys(p.t0 + p.delta, 0.0),
                &mut o,
            );
        }
        let mut out = Actions::new();
        m.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert!(m.correction().abs() < 1e-12, "corr {}", m.correction());
        assert_eq!(m.updates_completed(), 1);
        assert_eq!(m.rounds_completed(), 1);
        assert_eq!(m.round_base(), p.t0 + p.p_round);
        assert_eq!(m.phase(), Phase::AwaitSend);
        // It reported the correction and armed the next round's timer.
        assert!(out
            .as_slice()
            .iter()
            .any(|a| matches!(a, Action::NoteCorrection(_))));
        assert!(out
            .as_slice()
            .iter()
            .any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn update_note_reads_as_ever_and_is_skipped_when_unwanted() {
        let p = params();
        let step = |wants_notes: bool| {
            let mut m = proc(0);
            m.on_input(Input::Start, phys(p.t0, 0.0), &mut Actions::new());
            let mut out = Actions::new();
            out.wants_notes = wants_notes;
            m.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
            out
        };
        let (with, without) = (step(true), step(false));
        let is_note = |a: &&Action<WlMsg>| matches!(a, Action::Annotate(_));
        let notes: Vec<_> = with.as_slice().iter().filter(is_note).collect();
        // No arrivals: AV = T0, so ADJ = delta.
        let text = "update round_base=1.000000 exchange=0 adj=+0.010000000";
        assert_eq!(notes, [&Action::Annotate(text.into())]);
        // Nothing else depends on the flag.
        let rest: Vec<_> = with.as_slice().iter().filter(|a| !is_note(a)).collect();
        assert_eq!(rest, without.as_slice().iter().collect::<Vec<_>>());
    }

    #[test]
    fn update_shifts_toward_late_peers() {
        // Everyone's message arrives 1ms later than expected: our clock is
        // 1ms fast relative to the group; ADJ must be +1ms? No — arrivals
        // *later* on our clock mean the group is behind us... arrival time
        // AV = T0 + delta + 0.001 gives ADJ = -0.001: we slow down. Check.
        let p = params();
        let mut m = proc(0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        for q in 0..4 {
            let mut o = Actions::new();
            m.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: WlMsg::Round(p.t0_clock()),
                },
                phys(p.t0 + p.delta + 0.001, 0.0),
                &mut o,
            );
        }
        let mut out = Actions::new();
        m.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert!(
            (m.correction() + 0.001).abs() < 1e-12,
            "corr {}",
            m.correction()
        );
    }

    #[test]
    fn single_byzantine_outlier_is_discarded() {
        let p = params();
        let mut m = proc(0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // Three honest arrivals at T0+delta, one absurd arrival.
        for q in 0..3 {
            let mut o = Actions::new();
            m.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: WlMsg::Round(p.t0_clock()),
                },
                phys(p.t0 + p.delta, 0.0),
                &mut o,
            );
        }
        let mut o = Actions::new();
        m.on_input(
            Input::Message {
                from: ProcessId(3),
                msg: WlMsg::Round(p.t0_clock()),
            },
            phys(p.t0 + 500.0, 0.0),
            &mut o,
        );
        let mut out = Actions::new();
        m.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        // reduce(1) drops the outlier (and one honest min); midpoint of the
        // remaining two honest values is T0+delta, so ADJ = 0.
        assert!(m.correction().abs() < 1e-12, "corr {}", m.correction());
    }

    #[test]
    fn stagger_delays_send_and_normalises_arrivals() {
        let p = params().with_stagger(1e-4).unwrap();
        let mut m = Maintenance::new(ProcessId(2), p.clone(), 0.0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // Not its slot yet: only a timer for T0 + 2σ.
        match out.as_slice() {
            [Action::SetTimer { physical }] => {
                assert!((physical.as_secs() - (p.t0 + 2.0e-4)).abs() < 1e-12);
            }
            other => panic!("expected single SetTimer, got {other:?}"),
        }
        // Arrival from process 3 is normalised by 3σ.
        let mut o = Actions::new();
        m.on_input(
            Input::Message {
                from: ProcessId(3),
                msg: WlMsg::Round(p.t0_clock()),
            },
            phys(p.t0 + p.delta + 3.0e-4, 0.0),
            &mut o,
        );
        assert!((m.arr[3] - (p.t0 + p.delta)).abs() < 1e-12);
    }

    #[test]
    fn process_zero_with_stagger_broadcasts_immediately() {
        let p = params().with_stagger(1e-4).unwrap();
        let mut m = Maintenance::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        assert!(matches!(out.as_slice()[0], Action::Broadcast(_)));
    }

    #[test]
    fn two_exchanges_per_round_double_updates() {
        let p = match params().with_exchanges(2) {
            Ok(p) => p,
            Err(_) => {
                // Need a round long enough; re-derive with a longer P.
                let base = params();
                Params::new(
                    4,
                    1,
                    base.rho,
                    base.delta,
                    base.eps,
                    base.beta,
                    base.min_p() * 3.0,
                )
                .unwrap()
                .with_exchanges(2)
                .unwrap()
            }
        };
        let mut m = Maintenance::new(ProcessId(0), p.clone(), 0.0);
        let mut out = Actions::new();
        m.on_input(Input::Start, phys(p.t0, 0.0), &mut out);
        // First update: still round 0, second exchange pending.
        let mut out = Actions::new();
        m.on_input(Input::Timer, phys(p.t0 + p.wait_window(), 0.0), &mut out);
        assert_eq!(m.updates_completed(), 1);
        assert_eq!(m.rounds_completed(), 0);
        // Second exchange broadcast + update completes the round.
        let b2 = p.t0 + p.exchange_period();
        let mut out = Actions::new();
        m.on_input(Input::Timer, phys(b2 - m.correction(), 0.0), &mut out);
        assert!(matches!(out.as_slice()[0], Action::Broadcast(_)));
        let mut out = Actions::new();
        m.on_input(
            Input::Timer,
            phys(b2 + p.wait_window(), m.correction()),
            &mut out,
        );
        assert_eq!(m.updates_completed(), 2);
        assert_eq!(m.rounds_completed(), 1);
    }

    #[test]
    fn resume_at_reports_first_deadline() {
        let p = params();
        let (m, deadline) =
            Maintenance::resume_at(ProcessId(1), p.clone(), -0.5, p.t0 + 3.0 * p.p_round);
        assert_eq!(m.correction(), -0.5);
        assert_eq!(m.phase(), Phase::AwaitSend);
        // Deadline converts local target through corr.
        assert!((deadline.as_secs() - (p.t0 + 3.0 * p.p_round + 0.5)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_out_of_range_rejected() {
        let _ = Maintenance::new(ProcessId(4), params(), 0.0);
    }
}
