//! Fault injection: crash wrappers, canned Byzantine behaviours, and the
//! fault plan bookkeeping used by analysis.
//!
//! The model permits *arbitrary* (Byzantine) process faults — a faulty
//! process may change state arbitrarily, set whatever timers it likes, and
//! send anything to anyone (§2.3). In code, a Byzantine process is simply a
//! different [`Automaton`] implementation; this module provides wrappers
//! that derive faulty behaviours from a correct one, plus generic
//! strategies that need no knowledge of the protocol at all.

use crate::{Actions, Automaton, Input, ProcessId};
use std::fmt;
use wl_time::{ClockTime, RealTime};

/// Which processes a scenario designates as faulty, with `n` and `f`.
///
/// The *analysis* needs to know the designated-faulty set (agreement is
/// only claimed among nonfaulty processes); the algorithm itself never
/// does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    n: usize,
    faulty: Vec<bool>,
}

impl FaultPlan {
    /// An all-correct plan for `n` processes.
    #[must_use]
    pub fn none(n: usize) -> Self {
        Self {
            n,
            faulty: vec![false; n],
        }
    }

    /// Marks the given processes faulty.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    #[must_use]
    pub fn with_faulty(n: usize, ids: &[ProcessId]) -> Self {
        let mut plan = Self::none(n);
        for id in ids {
            assert!(id.index() < n, "faulty id {id} out of range");
            plan.faulty[id.index()] = true;
        }
        plan
    }

    /// Total number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of designated-faulty processes.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faulty.iter().filter(|&&b| b).count()
    }

    /// Whether process `p` is designated faulty.
    #[must_use]
    pub fn is_faulty(&self, p: ProcessId) -> bool {
        self.faulty[p.index()]
    }

    /// Iterator over the nonfaulty process ids.
    pub fn nonfaulty(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.faulty
            .iter()
            .enumerate()
            .filter(|(_, &b)| !b)
            .map(|(i, _)| ProcessId(i))
    }

    /// Iterator over the faulty process ids.
    pub fn faulty_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.faulty
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| ProcessId(i))
    }

    /// Checks assumption A2: `n ≥ 3f + 1`.
    #[must_use]
    pub fn satisfies_a2(&self) -> bool {
        self.n >= 3 * self.fault_count() + 1
    }
}

/// Crash fault: behaves correctly until real time `crash_at`, then is
/// silent forever.
///
/// The wrapper cannot observe real time (processes can't), so it uses the
/// *physical clock reading* at which to die; the scenario converts the
/// intended real crash time via the process' clock.
pub struct CrashAt<A> {
    inner: A,
    /// Physical-clock reading at/after which all inputs are ignored.
    crash_phys: ClockTime,
}

impl<A: fmt::Debug> fmt::Debug for CrashAt<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashAt")
            .field("inner", &self.inner)
            .field("crash_phys", &self.crash_phys)
            .finish()
    }
}

impl<A: Automaton> CrashAt<A> {
    /// Wraps `inner`, crashing it once its physical clock reaches
    /// `crash_phys`.
    #[must_use]
    pub fn new(inner: A, crash_phys: ClockTime) -> Self {
        Self { inner, crash_phys }
    }
}

impl<A: Automaton> Automaton for CrashAt<A> {
    type Msg = A::Msg;

    fn on_input(&mut self, input: Input<A::Msg>, phys_now: ClockTime, out: &mut Actions<A::Msg>) {
        if phys_now >= self.crash_phys {
            return; // dead: consumes inputs, produces nothing
        }
        self.inner.on_input(input, phys_now, out);
    }

    fn initial_correction(&self) -> f64 {
        self.inner.initial_correction()
    }
}

/// Silent fault: never reacts to anything (a process that failed before
/// the execution started, or an omission-faulty peer).
#[derive(Debug, Default, Clone, Copy)]
pub struct Silent;

impl Automaton for Silent {
    // Works with any protocol whose message type the scenario picks; being
    // generic here would leak into object safety, so Silent is defined per
    // message type via `SilentFor`.
    type Msg = ();
    fn on_input(&mut self, _i: Input<()>, _now: ClockTime, _out: &mut Actions<()>) {}
}

/// Silent fault usable with any message type.
pub struct SilentFor<M>(std::marker::PhantomData<M>);

impl<M> Default for SilentFor<M> {
    fn default() -> Self {
        Self(std::marker::PhantomData)
    }
}

impl<M> fmt::Debug for SilentFor<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SilentFor")
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Automaton for SilentFor<M> {
    type Msg = M;
    fn on_input(&mut self, _i: Input<M>, _now: ClockTime, _out: &mut Actions<M>) {}
}

/// Converts an intended real crash time into the physical-clock deadline
/// `Ph_p(t_crash)` expected by [`CrashAt`].
#[must_use]
pub fn crash_phys_time<C: wl_clock::Clock + ?Sized>(clock: &C, t_crash: RealTime) -> ClockTime {
    clock.read(t_crash)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Echo {
        heard: usize,
    }

    impl Automaton for Echo {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, _now: ClockTime, out: &mut Actions<u32>) {
            if let Input::Message { from, msg } = input {
                self.heard += 1;
                out.send(from, msg + 1);
            }
        }
    }

    #[test]
    fn fault_plan_bookkeeping() {
        let plan = FaultPlan::with_faulty(7, &[ProcessId(1), ProcessId(4)]);
        assert_eq!(plan.n(), 7);
        assert_eq!(plan.fault_count(), 2);
        assert!(plan.is_faulty(ProcessId(1)));
        assert!(!plan.is_faulty(ProcessId(0)));
        let nf: Vec<usize> = plan.nonfaulty().map(ProcessId::index).collect();
        assert_eq!(nf, vec![0, 2, 3, 5, 6]);
        let fl: Vec<usize> = plan.faulty_ids().map(ProcessId::index).collect();
        assert_eq!(fl, vec![1, 4]);
    }

    #[test]
    fn a2_check() {
        assert!(FaultPlan::with_faulty(4, &[ProcessId(0)]).satisfies_a2());
        assert!(!FaultPlan::with_faulty(3, &[ProcessId(0)]).satisfies_a2());
        assert!(FaultPlan::none(1).satisfies_a2());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_plan_rejects_bad_id() {
        let _ = FaultPlan::with_faulty(3, &[ProcessId(3)]);
    }

    #[test]
    fn crash_wrapper_stops_at_deadline() {
        let mut c = CrashAt::new(Echo::default(), ClockTime::from_secs(10.0));
        let mut out = Actions::new();
        c.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: 1,
            },
            ClockTime::from_secs(9.0),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        let mut out2 = Actions::new();
        c.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: 1,
            },
            ClockTime::from_secs(10.0),
            &mut out2,
        );
        assert!(out2.is_empty());
        assert_eq!(c.inner.heard, 1);
    }

    #[test]
    fn silent_produces_nothing() {
        let mut s: SilentFor<u32> = SilentFor::default();
        let mut out = Actions::new();
        s.on_input(Input::Start, ClockTime::ZERO, &mut out);
        s.on_input(Input::Timer, ClockTime::ZERO, &mut out);
        s.on_input(
            Input::Message {
                from: ProcessId(0),
                msg: 3,
            },
            ClockTime::ZERO,
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn crash_phys_conversion_uses_clock() {
        let clk = wl_clock::LinearClock::new(2.0, ClockTime::ZERO);
        assert_eq!(
            crash_phys_time(&clk, RealTime::from_secs(3.0)),
            ClockTime::from_secs(6.0)
        );
    }
}
