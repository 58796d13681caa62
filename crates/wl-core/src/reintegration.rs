//! Reintegration of a repaired process (paper §9.1).
//!
//! A repaired process `p` wakes at an arbitrary time with an arbitrary
//! clock. It first *orients* itself by passively watching `Round`
//! messages; it then picks a round `i` whose messages it is certain to
//! observe completely, collects them for a full window, runs the same
//! `mid(reduce(·))` averaging as everyone else to set its correction, and
//! rejoins the main algorithm at round `i+1`.
//!
//! The paper's three observations justify this:
//! 1. the arbitrary starting clock cancels in `Tⁱ + δ − AV`;
//! 2. `p` counts as one of the `f` faulty processes while it is away, so
//!    others tolerate its silence and `p` tolerates its own missing entry;
//! 3. applying the adjustment "whenever ready" is fine — it is the same
//!    additive constant either way.
//!
//! ### Committing to a round despite Byzantine noise
//!
//! Round messages carry their round value `Tⁱ`, so the joiner can group
//! observations by value. Two safeguards make the choice sound:
//!
//! * **`f+1` distinct senders** must have sent a value before it is
//!   trusted (at least one of them is nonfaulty, so the value is a real
//!   round that nonfaulty processes are executing).
//! * The first observed message of the value must arrive at least one full
//!   collection window after waking. All nonfaulty `Tⁱ` broadcasts arrive
//!   within a window shorter than that, so if the earliest one the joiner
//!   heard is that late, it cannot have missed any (the paper's "allowing
//!   part of a round to pass before it begins to collect").

use crate::maintenance::Maintenance;
use crate::msg::WlMsg;
use crate::params::Params;
use std::collections::BTreeMap;
use wl_sim::{Actions, Automaton, Input, ProcessId};
use wl_time::ClockTime;

/// Observations about one candidate round value.
#[derive(Debug, Clone)]
struct Candidate {
    /// Local time at which the first message carrying this value arrived.
    first_arrival: f64,
    /// Arrival local-times per sender.
    arr: Vec<Option<f64>>,
    distinct: usize,
}

/// Totally ordered f64 key for the candidate map.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key(f64);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug)]
enum State {
    /// Crashed: ignores everything until its START (repair) arrives.
    Asleep,
    /// Watching traffic, waiting for a committable round value.
    Orienting {
        /// Local time at which the process woke.
        woke_at: f64,
    },
    /// Committed to value `v`; collecting its messages until the timer.
    Collecting {
        /// The committed round value.
        v: f64,
    },
    /// Rejoined: drives the embedded maintenance automaton.
    Joined(Maintenance),
}

/// A repaired process executing the §9.1 reintegration procedure and then
/// the main algorithm.
#[derive(Debug)]
pub struct Rejoiner {
    id: usize,
    params: Params,
    corr: f64,
    state: State,
    candidates: BTreeMap<Key, Candidate>,
    /// Capacity guard against Byzantine value-spam.
    max_candidates: usize,
    /// Diagnostics: local time at which the process rejoined, if it has.
    joined_at: Option<f64>,
}

impl Rejoiner {
    /// Creates a rejoiner for process `id`. It stays inert until its START
    /// interrupt (the "repair" moment) arrives.
    ///
    /// # Panics
    ///
    /// Panics if `params` are invalid or `id ≥ n`.
    #[must_use]
    pub fn new(id: ProcessId, params: Params) -> Self {
        params.validate_timing().expect("invalid parameters");
        assert!(id.index() < params.n, "process id out of range");
        Self {
            id: id.index(),
            params,
            corr: 0.0,
            state: State::Asleep,
            candidates: BTreeMap::new(),
            max_candidates: 4096,
            joined_at: None,
        }
    }

    /// Whether the process has completed reintegration.
    #[must_use]
    pub fn has_joined(&self) -> bool {
        matches!(self.state, State::Joined(_))
    }

    /// Local time at which the process rejoined, if it has.
    #[must_use]
    pub fn joined_at(&self) -> Option<f64> {
        self.joined_at
    }

    /// Current correction.
    #[must_use]
    pub fn correction(&self) -> f64 {
        match &self.state {
            State::Joined(m) => m.correction(),
            _ => self.corr,
        }
    }

    fn local(&self, phys: ClockTime) -> f64 {
        phys.as_secs() + self.corr
    }

    /// The collection/guard window `W`.
    fn window(&self) -> f64 {
        self.params.wait_window()
    }

    fn record(&mut self, from: usize, v: f64, at_local: f64) {
        let n = self.params.n;
        let key = Key(v);
        if !self.candidates.contains_key(&key) && self.candidates.len() >= self.max_candidates {
            return; // spam guard
        }
        let c = self.candidates.entry(key).or_insert_with(|| Candidate {
            first_arrival: at_local,
            arr: vec![None; n],
            distinct: 0,
        });
        if c.arr[from].is_none() {
            c.distinct += 1;
        }
        c.arr[from] = Some(at_local);
    }

    /// Finds the first candidate meeting both safeguards.
    fn committable(&self, woke_at: f64) -> Option<f64> {
        let w = self.window();
        self.candidates
            .iter()
            .find(|(_, c)| c.distinct >= self.params.f + 1 && c.first_arrival >= woke_at + w)
            .map(|(k, _)| k.0)
    }

    fn try_commit(&mut self, woke_at: f64, out: &mut Actions<WlMsg>) {
        if let Some(v) = self.committable(woke_at) {
            let c = &self.candidates[&Key(v)];
            // Collect until a full window after the first arrival of v.
            let end_local = c.first_arrival + self.window();
            out.set_timer(ClockTime::from_secs(end_local - self.corr));
            out.annotate_with(|| format!("reintegration committed to round value {v:.6}"));
            self.state = State::Collecting { v };
        }
    }

    fn finish(&mut self, phys_now: ClockTime, v: f64, out: &mut Actions<WlMsg>) {
        let c = &self.candidates[&Key(v)];
        // Missing entries (including our own) behave as the paper's
        // "initially arbitrary" array slots: fill with a constant far from
        // nothing in particular; reduce() treats them as the ≤ f faults.
        let filler = c.first_arrival;
        let mut values: Vec<f64> = c.arr.iter().map(|o| o.unwrap_or(filler)).collect();
        let av = self.params.avg.apply_sorted(&mut values, self.params.f);
        let adj = v + self.params.delta - av;
        self.corr += adj;
        out.note_correction(self.corr);

        // Rejoin at the next round boundary.
        let next_round = v + self.params.p_round;
        let (inner, deadline) = Maintenance::resume_at(
            ProcessId(self.id),
            self.params.clone(),
            self.corr,
            next_round,
        );
        out.set_timer(deadline);
        out.annotate_with(|| {
            format!(
                "reintegration complete: adj={adj:+.9}, rejoining at round base {next_round:.6}"
            )
        });
        self.joined_at = Some(self.local(phys_now));
        self.candidates.clear();
        self.state = State::Joined(inner);
    }
}

impl Automaton for Rejoiner {
    type Msg = WlMsg;

    fn on_input(&mut self, input: Input<WlMsg>, phys_now: ClockTime, out: &mut Actions<WlMsg>) {
        // Split borrows: handle Joined delegation first.
        if let State::Joined(inner) = &mut self.state {
            inner.on_input(input, phys_now, out);
            return;
        }
        match (&self.state, input) {
            (State::Asleep, Input::Start) => {
                let woke_at = self.local(phys_now);
                out.annotate_with(|| format!("rejoiner woke at local {woke_at:.6}"));
                self.state = State::Orienting { woke_at };
            }
            (State::Asleep, _) => {} // still crashed
            (State::Orienting { woke_at }, Input::Message { from, msg }) => {
                let woke_at = *woke_at;
                if let WlMsg::Round(v) = msg {
                    let at = self.local(phys_now);
                    self.record(from.index(), v.as_secs(), at);
                    self.try_commit(woke_at, out);
                }
            }
            (State::Collecting { .. }, Input::Message { from, msg }) => {
                if let WlMsg::Round(val) = msg {
                    let at = self.local(phys_now);
                    self.record(from.index(), val.as_secs(), at);
                }
            }
            (State::Collecting { v }, Input::Timer) => {
                let v = *v;
                self.finish(phys_now, v, out);
            }
            // Timers while orienting (none are set) and STARTs while awake
            // are ignored.
            (State::Orienting { .. }, _) => {}
            (State::Collecting { .. }, _) => {}
            (State::Joined(_), _) => unreachable!("handled above"),
        }
    }

    fn initial_correction(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    fn phys(s: f64) -> ClockTime {
        ClockTime::from_secs(s)
    }

    fn round_msg(v: f64) -> WlMsg {
        WlMsg::Round(ClockTime::from_secs(v))
    }

    #[test]
    fn ignores_everything_while_asleep() {
        let mut r = Rejoiner::new(ProcessId(3), params());
        let mut out = Actions::new();
        r.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: round_msg(1.0),
            },
            phys(0.5),
            &mut out,
        );
        r.on_input(Input::Timer, phys(0.6), &mut out);
        assert!(out.is_empty());
        assert!(!r.has_joined());
        assert!(r.candidates.is_empty());
    }

    #[test]
    fn wakes_on_start_and_orients() {
        let mut r = Rejoiner::new(ProcessId(3), params());
        let mut out = Actions::new();
        r.on_input(Input::Start, phys(10.0), &mut out);
        assert!(matches!(r.state, State::Orienting { .. }));
    }

    #[test]
    fn does_not_commit_to_early_or_thin_candidates() {
        let p = params();
        let w = p.wait_window();
        let mut r = Rejoiner::new(ProcessId(3), p.clone());
        let mut out = Actions::new();
        r.on_input(Input::Start, phys(10.0), &mut out);
        // A value first heard *before* the guard window elapses: never
        // committable even with many senders.
        for q in 0..3 {
            let mut o = Actions::new();
            r.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: round_msg(5.0),
                },
                phys(10.0 + 0.5 * w),
                &mut o,
            );
            assert!(o.is_empty());
        }
        // A value heard late but from only one sender: not committable.
        let mut o = Actions::new();
        r.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: round_msg(6.0),
            },
            phys(10.0 + 2.0 * w),
            &mut o,
        );
        assert!(o.is_empty());
        assert!(matches!(r.state, State::Orienting { .. }));
    }

    #[test]
    fn commits_with_f_plus_one_late_senders() {
        let p = params();
        let w = p.wait_window();
        let mut r = Rejoiner::new(ProcessId(3), p.clone());
        let mut out = Actions::new();
        r.on_input(Input::Start, phys(10.0), &mut out);
        let t1 = 10.0 + 1.5 * w;
        let mut o = Actions::new();
        r.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: round_msg(6.0),
            },
            phys(t1),
            &mut o,
        );
        assert!(o.is_empty());
        let mut o = Actions::new();
        r.on_input(
            Input::Message {
                from: ProcessId(1),
                msg: round_msg(6.0),
            },
            phys(t1 + 0.001),
            &mut o,
        );
        // f+1 = 2 distinct senders, first arrival >= woke + w: committed.
        assert!(matches!(r.state, State::Collecting { .. }));
        assert!(o
            .as_slice()
            .iter()
            .any(|a| matches!(a, wl_sim::Action::SetTimer { .. })));
    }

    #[test]
    fn full_reintegration_sets_correction_and_joins() {
        let p = params();
        let w = p.wait_window();
        let v = 6.0;
        let mut r = Rejoiner::new(ProcessId(3), p.clone());
        let mut out = Actions::new();
        // Wake with a clock whose local time is way off (corr = 0, but the
        // commit math is offset-free anyway).
        r.on_input(Input::Start, phys(10.0), &mut out);
        // Three nonfaulty senders' round-v messages arrive delta after v on
        // *their* synchronized clocks; on our unsynchronized clock they land
        // at arbitrary-looking times around t1.
        let t1 = 10.0 + 2.0 * w;
        for (q, off) in [(0usize, 0.0), (1, 0.0002), (2, 0.0004)] {
            let mut o = Actions::new();
            r.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: round_msg(v),
                },
                phys(t1 + off),
                &mut o,
            );
        }
        assert!(matches!(r.state, State::Collecting { .. }));
        // Collection window elapses.
        let mut o = Actions::new();
        r.on_input(Input::Timer, phys(t1 + w), &mut o);
        assert!(r.has_joined());
        assert!(r.joined_at().is_some());
        // ADJ = v + delta - mid(reduce(arr)). arr (with filler for p0's own
        // missing entry = first_arrival = t1) sorted: {t1, t1, t1+2e-4, t1+4e-4};
        // reduce(1) -> {t1, t1+2e-4}, mid = t1 + 1e-4.
        let expect = v + p.delta - (t1 + 0.0001);
        assert!(
            (r.correction() - expect).abs() < 1e-9,
            "corr {} expect {expect}",
            r.correction()
        );
        // After joining, its local time at the next round base is right:
        // local(T) = phys + corr; it will broadcast at round base v + P.
    }

    #[test]
    fn joined_delegates_to_maintenance() {
        let p = params();
        let w = p.wait_window();
        let mut r = Rejoiner::new(ProcessId(3), p.clone());
        let mut out = Actions::new();
        r.on_input(Input::Start, phys(10.0), &mut out);
        let t1 = 10.0 + 2.0 * w;
        for q in 0..2 {
            let mut o = Actions::new();
            r.on_input(
                Input::Message {
                    from: ProcessId(q),
                    msg: round_msg(6.0),
                },
                phys(t1),
                &mut o,
            );
        }
        let mut o = Actions::new();
        r.on_input(Input::Timer, phys(t1 + w), &mut o);
        assert!(r.has_joined());
        // The next timer should make the inner maintenance broadcast.
        let corr = r.correction();
        let send_phys = 6.0 + p.p_round - corr;
        let mut o = Actions::new();
        r.on_input(Input::Timer, phys(send_phys), &mut o);
        assert!(o
            .as_slice()
            .iter()
            .any(|a| matches!(a, wl_sim::Action::Broadcast(WlMsg::Round(_)))));
    }

    #[test]
    fn candidate_spam_capped() {
        let p = params();
        let mut r = Rejoiner::new(ProcessId(3), p);
        r.max_candidates = 8;
        let mut out = Actions::new();
        r.on_input(Input::Start, phys(10.0), &mut out);
        for i in 0..100 {
            let mut o = Actions::new();
            r.on_input(
                Input::Message {
                    from: ProcessId(0),
                    msg: round_msg(1000.0 + i as f64),
                },
                phys(10.1),
                &mut o,
            );
        }
        assert!(r.candidates.len() <= 8);
    }
}
