//! The execution engine: drives automata through the global message buffer.
//!
//! Implements §2.3's execution semantics: events are delivered in order of
//! real time, with TIMER interrupts ordered after ordinary messages at the
//! same instant; each delivery triggers one process step whose outputs are
//! inserted back into the buffer with delays from the [`DelayModel`].
//! Everything is deterministic given the seed.
//!
//! The engine is generic over its two pluggable axes (see
//! `docs/engine.md`):
//!
//! * `Q:` [`EventQueue`] — the pending-event store ([`HeapQueue`], the
//!   one engine queue; test fakes substitute through the trait);
//! * `O:` [`Observer`] — the measurement sink ([`StdObservers`] default,
//!   [`crate::NullObserver`] for measurement-free runs).
//!
//! The processes are one [`DynFleet`]: a boxed automaton each.
//!
//! Construct simulations with [`SimBuilder`](crate::SimBuilder); the
//! defaulted type parameters keep `Simulation<M>` meaning exactly what it
//! always did.

use crate::delay::{DelayBounds, DelayModel};
use crate::event::{EventClass, Input, QueuedEvent};
use crate::history::CorrectionHistory;
use crate::observer::{Observer, SimStats, StdObservers};
use crate::queue::{EventQueue, HeapQueue};
use crate::trace::Trace;
use crate::{Action, Actions, Automaton, ProcessId};
use rand::rngs::StdRng;
use std::fmt;
use wl_clock::drift::FleetClock;
use wl_clock::Clock;
use wl_time::RealTime;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Stop once the next event would occur at or after this real time.
    pub t_end: RealTime,
    /// Seed for the delay model's randomness.
    pub seed: u64,
    /// The band every sampled delay must respect (assumption A3); the
    /// executor panics if the delay model steps outside it.
    pub delay_bounds: DelayBounds,
    /// If nonzero, the default observer bundle records a [`Trace`] of up
    /// to this many events.
    pub trace_capacity: usize,
    /// Safety valve: abort after this many deliveries (0 = unlimited).
    /// Protects tests from runaway Byzantine behaviours.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            t_end: RealTime::from_secs(10.0),
            seed: 0,
            delay_bounds: DelayBounds::new(
                wl_time::RealDur::from_millis(10.0),
                wl_time::RealDur::from_millis(1.0),
            ),
            trace_capacity: 0,
            max_events: 0,
        }
    }
}

/// The results of an execution.
#[derive(Debug)]
pub struct SimOutcome {
    /// Per-process correction history (index = process id).
    pub corr: Vec<CorrectionHistory>,
    /// Execution counters.
    pub stats: SimStats,
    /// Recorded trace (empty if tracing was disabled).
    pub trace: Trace,
    /// The real time at which the run stopped.
    pub stopped_at: RealTime,
}

/// The fleet: one boxed automaton per process, so one `Vec` holds any
/// mix of correct, faulty and rejoining processes.
pub type DynFleet<M> = Vec<Box<dyn Automaton<Msg = M>>>;

/// The discrete-event simulator.
///
/// Generic over the protocol's message type `M`, the event queue `Q` and
/// the observer `O` (see the module docs); the defaults make
/// `Simulation<M>` the heap-queue, standard-observer engine. Owns the
/// physical clocks (processes only ever see readings of their own
/// clock), the automata, the delay model, and the global message
/// buffer. Built by [`SimBuilder`](crate::SimBuilder).
pub struct Simulation<M, Q = HeapQueue<M>, O = StdObservers> {
    pub(crate) clocks: Vec<FleetClock>,
    pub(crate) procs: DynFleet<M>,
    pub(crate) delay: Box<dyn DelayModel>,
    pub(crate) queue: Q,
    pub(crate) observer: O,
    pub(crate) plan: crate::faults::FaultPlan,
    pub(crate) events_delivered: u64,
    pub(crate) rng: StdRng,
    pub(crate) seq: u64,
    pub(crate) now: RealTime,
    pub(crate) config: SimConfig,
    pub(crate) scratch: Actions<M>,
    /// A broadcast's `(deliver_at, seq, to)` per recipient, reused.
    pub(crate) fan: Vec<(RealTime, u64, ProcessId)>,
    /// `config.delay_bounds.slack_band()`, computed once at build.
    pub(crate) band: std::ops::RangeInclusive<f64>,
}

impl<M, Q: EventQueue<M>, O> fmt::Debug for Simulation<M, Q, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.procs.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("events_delivered", &self.events_delivered)
            .finish()
    }
}

impl<M, Q, O> Simulation<M, Q, O>
where
    M: Clone + fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    O: Observer<M>,
{
    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// The physical clocks (for analysis; processes cannot call this).
    #[must_use]
    pub fn clocks(&self) -> &[FleetClock] {
        &self.clocks
    }

    /// The current simulation real time.
    #[must_use]
    pub fn now(&self) -> RealTime {
        self.now
    }

    /// Events delivered so far (the `max_events` safety-valve counter —
    /// maintained by the engine itself, so it is available even under
    /// [`crate::NullObserver`]).
    #[must_use]
    pub fn events_delivered(&self) -> u64 {
        self.events_delivered
    }

    /// The designated-faulty plan this simulation was built with
    /// (defaults to all-correct).
    #[must_use]
    pub fn fault_plan(&self) -> &crate::faults::FaultPlan {
        &self.plan
    }

    /// The observer stack.
    #[must_use]
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Delivers the next event, if any remains before `t_end`.
    ///
    /// Returns the real time of the delivered event, or `None` when the
    /// run is over.
    pub fn step(&mut self) -> Option<RealTime> {
        if self.config.max_events != 0 && self.events_delivered >= self.config.max_events {
            return None;
        }
        let ev = self.queue.pop_next()?;
        if ev.at >= self.config.t_end {
            // Not consumed: it goes back with the `seq` it had, so every
            // further `step()` pops and re-pushes it and changes nothing.
            self.queue.push(ev);
            return None;
        }
        debug_assert!(
            ev.at.total_cmp(&self.now).is_ge() || !self.now.is_finite(),
            "event queue went backwards"
        );
        self.now = ev.at;
        self.events_delivered += 1;

        let p = ev.to;
        let phys_now = self.clocks[p.index()].read(ev.at);
        self.observer.on_deliver(p, &ev.input, ev.at);

        // Lent in place; moved out, to free `self`, only if the step emitted.
        self.scratch.wants_notes = self.observer.wants_notes();
        self.procs[p.index()].on_input(ev.input, phys_now, &mut self.scratch);
        if !self.scratch.is_empty() {
            let mut out = std::mem::take(&mut self.scratch);
            for action in out.drain() {
                self.apply_action(p, action);
            }
            self.scratch = out;
        }
        Some(self.now)
    }

    fn apply_action(&mut self, p: ProcessId, action: Action<M>) {
        match action {
            Action::Broadcast(msg) => {
                // Drawn, checked and announced in recipient order, as n
                // single sends would be; then sorted for the queue.
                let mut fan = std::mem::take(&mut self.fan);
                fan.clear();
                for q in 0..self.n() {
                    let to = ProcessId(q);
                    fan.push((self.draw_delivery(p, to, &msg), self.next_seq(), to));
                }
                sort_by_delivery(&mut fan);
                self.queue.push_fanout(p, msg, &fan);
                self.fan = fan;
            }
            Action::Send { to, msg } => {
                assert!(to.index() < self.n(), "send target {to} out of range");
                let at = self.draw_delivery(p, to, &msg);
                let seq = self.next_seq();
                self.queue.push_fanout(p, msg, &[(at, seq, to)]);
            }
            Action::SetTimer { physical } => {
                let fire_at = self.clocks[p.index()].time_of(physical);
                let suppressed = fire_at <= self.now;
                self.observer
                    .on_timer_set(p, self.now, physical, suppressed);
                if !suppressed {
                    // §2.2: if Ph⁻¹(T) is not in the future, no message is
                    // placed in the buffer.
                    let seq = self.next_seq();
                    self.queue.push(QueuedEvent {
                        at: fire_at,
                        class: EventClass::Timer,
                        seq,
                        to: p,
                        input: Input::Timer,
                    });
                }
            }
            Action::NoteCorrection(c) => {
                self.observer.on_correction(p, self.now, c);
            }
            Action::Annotate(text) => {
                self.observer.on_note(p, self.now, &text);
            }
        }
    }

    /// One message sent now: draws its delay, checks A3, tells the
    /// observer; returns the delivery time.
    fn draw_delivery(&mut self, from: ProcessId, to: ProcessId, msg: &M) -> RealTime {
        let d = self.delay.delay(from, to, self.now, &mut self.rng);
        assert!(
            self.band.contains(&d.as_secs()),
            "delay model produced {d} outside the band [{}, {}] (A3 violation)",
            self.config.delay_bounds.min_delay(),
            self.config.delay_bounds.max_delay(),
        );
        let deliver_at = self.now + d;
        self.observer.on_send(from, to, self.now, deliver_at, msg);
        deliver_at
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Runs to completion (any observer), returning the real time at
    /// which the run stopped.
    pub fn drive(&mut self) -> RealTime {
        while self.step().is_some() {}
        self.now
    }
}

/// Sorts a fan by `(at, seq)` — stable, and the `seq`s already ascend.
/// Not generic, so the sort is compiled once.
fn sort_by_delivery(fan: &mut [(RealTime, u64, ProcessId)]) {
    fan.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Outcome extraction, available when the standard observer bundle is
/// installed (the default).
impl<M, Q> Simulation<M, Q, StdObservers>
where
    M: Clone + fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
{
    /// Runs to completion and returns the outcome.
    #[must_use]
    pub fn run(&mut self) -> SimOutcome {
        let stopped_at = self.drive();
        SimOutcome {
            corr: self.observer.corr.histories().to_vec(),
            stats: self.observer.counters.stats(),
            trace: self.observer.trace.take(),
            stopped_at,
        }
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.observer.counters.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use crate::delay::{ConstantDelay, PerPairDelay, UniformDelay};
    use crate::observer::NullObserver;
    use crate::trace::TraceEvent;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use wl_clock::drift::DriftModel;
    use wl_time::{ClockDur, ClockTime, RealDur};

    /// Ping-pong: 0 sends to 1 on start; each message is answered until a
    /// hop budget runs out.
    #[derive(Debug)]
    struct PingPong {
        budget: u32,
        me: usize,
    }

    impl Automaton for PingPong {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, _now: ClockTime, out: &mut Actions<u32>) {
            match input {
                Input::Start => {
                    if self.me == 0 {
                        out.send(ProcessId(1), 0);
                    }
                }
                Input::Message { from, msg } => {
                    if msg < self.budget {
                        out.send(from, msg + 1);
                    }
                }
                Input::Timer => {}
            }
        }
    }

    fn simple_builder(budget: u32, delay_ms: f64, t_end: f64) -> SimBuilder<u32> {
        let n = 2;
        let clocks = DriftModel::Ideal.build(n, &vec![ClockTime::ZERO; n], 0);
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = (0..n)
            .map(|me| Box::new(PingPong { budget, me }) as Box<dyn Automaton<Msg = u32>>)
            .collect();
        SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_millis(delay_ms)))
            .starts(vec![RealTime::ZERO; n])
            .config(SimConfig {
                t_end: RealTime::from_secs(t_end),
                delay_bounds: DelayBounds::new(RealDur::from_millis(delay_ms), RealDur::ZERO),
                trace_capacity: 1000,
                ..SimConfig::default()
            })
    }

    fn simple_sim(budget: u32, delay_ms: f64, t_end: f64) -> Simulation<u32> {
        simple_builder(budget, delay_ms, t_end).build()
    }

    #[test]
    fn ping_pong_counts_messages() {
        let outcome = simple_sim(4, 1.0, 10.0).run();
        // msgs: 0,1,2,3,4 -> 5 sends; deliveries: 2 starts + 5 messages.
        assert_eq!(outcome.stats.messages_sent, 5);
        assert_eq!(outcome.stats.events_delivered, 7);
    }

    #[test]
    fn t_end_cuts_off_future_events() {
        // Each hop takes 1ms; with t_end = 2.5ms only msgs at 1ms and 2ms
        // are delivered.
        let outcome = simple_sim(100, 1.0, 0.0025).run();
        assert_eq!(outcome.stats.events_delivered, 2 + 2);
        assert!(outcome.stopped_at < RealTime::from_secs(0.0025));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = simple_sim(10, 1.0, 1.0).run();
        let b = simple_sim(10, 1.0, 1.0).run();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn boxed_queue_engine_matches_heap_engine() {
        let heap = simple_sim(10, 1.0, 1.0).run();
        let queue: Box<HeapQueue<u32>> = Box::default();
        let mut boxed_sim = simple_builder(10, 1.0, 1.0).build_with_queue(queue);
        let boxed = boxed_sim.run();
        assert_eq!(heap.stats, boxed.stats);
        assert_eq!(
            format!("{:?}", heap.trace.events()),
            format!("{:?}", boxed.trace.events())
        );
    }

    #[test]
    fn null_observer_runs_without_measurement() {
        let mut sim = simple_builder(10, 1.0, 1.0).build_with(HeapQueue::new(), NullObserver);
        let stopped = sim.drive();
        // 2 starts + 11 message hops.
        assert_eq!(sim.events_delivered(), 13);
        assert!(stopped > RealTime::ZERO);
    }

    #[test]
    fn trace_records_sends_and_delivers() {
        let outcome = simple_sim(1, 1.0, 1.0).run();
        let sends = outcome
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { .. }))
            .count();
        assert_eq!(sends, 2);
        let delivers = outcome
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { .. }))
            .count();
        assert_eq!(delivers, 2);
    }

    /// An automaton that sets a timer in the past (on purpose).
    #[derive(Debug)]
    struct BadTimer;
    impl Automaton for BadTimer {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, phys_now: ClockTime, out: &mut Actions<u32>) {
            if matches!(input, Input::Start) {
                out.set_timer(phys_now - ClockDur::from_secs(1.0));
                out.set_timer(phys_now + ClockDur::from_secs(0.5));
            }
        }
    }

    #[test]
    fn past_timers_suppressed_future_timers_fire() {
        let clocks = DriftModel::Ideal.build(1, &[ClockTime::ZERO], 0);
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = vec![Box::new(BadTimer)];
        let mut sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
            .starts(vec![RealTime::from_secs(2.0)])
            .config(SimConfig {
                t_end: RealTime::from_secs(10.0),
                delay_bounds: DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO),
                ..SimConfig::default()
            })
            .build();
        let outcome = sim.run();
        assert_eq!(outcome.stats.timers_suppressed, 1);
        assert_eq!(outcome.stats.timers_set, 1);
        // START + 1 timer
        assert_eq!(outcome.stats.events_delivered, 2);
    }

    /// Records the order in which inputs arrive.
    #[derive(Debug, Default)]
    struct OrderProbe {
        log: Vec<&'static str>,
    }
    impl Automaton for OrderProbe {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, phys_now: ClockTime, out: &mut Actions<u32>) {
            match input {
                Input::Start => {
                    // Timer for phys time 1.0; a message will arrive at the
                    // same real time.
                    out.set_timer(phys_now + ClockDur::from_secs(1.0));
                    out.send(ProcessId(0), 7);
                    self.log.push("start");
                }
                Input::Timer => self.log.push("timer"),
                Input::Message { .. } => self.log.push("msg"),
            }
        }
    }

    #[test]
    fn timer_after_message_at_same_instant() {
        // Message delay exactly 1.0s, timer due at the same real time 1.0s:
        // §2.3 property 4 requires the message first.
        let clocks = DriftModel::Ideal.build(1, &[ClockTime::ZERO], 0);
        let probe = Box::new(OrderProbe::default());
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = vec![probe];
        let mut sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_secs(1.0)))
            .starts(vec![RealTime::ZERO])
            .config(SimConfig {
                t_end: RealTime::from_secs(5.0),
                delay_bounds: DelayBounds::new(RealDur::from_secs(1.0), RealDur::ZERO),
                trace_capacity: 100,
                ..SimConfig::default()
            })
            .build();
        let outcome = sim.run();
        // Inspect the trace: Deliver at t=1.0 must precede Timer at t=1.0.
        let order: Vec<&str> = outcome
            .trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Deliver { .. } => Some("msg"),
                TraceEvent::Timer { .. } => Some("timer"),
                _ => None,
            })
            .collect();
        assert_eq!(order, vec!["msg", "timer"]);
    }

    #[test]
    fn correction_notes_recorded() {
        #[derive(Debug)]
        struct Corrector;
        impl Automaton for Corrector {
            type Msg = u32;
            fn on_input(&mut self, input: Input<u32>, _now: ClockTime, out: &mut Actions<u32>) {
                if matches!(input, Input::Start) {
                    out.note_correction(1.5);
                }
            }
            fn initial_correction(&self) -> f64 {
                -2.0
            }
        }
        let clocks = DriftModel::Ideal.build(1, &[ClockTime::ZERO], 0);
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = vec![Box::new(Corrector)];
        let mut sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
            .starts(vec![RealTime::from_secs(1.0)])
            .config(SimConfig {
                t_end: RealTime::from_secs(2.0),
                delay_bounds: DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO),
                ..SimConfig::default()
            })
            .build();
        let outcome = sim.run();
        assert_eq!(outcome.corr[0].corr_at(RealTime::from_secs(0.5)), -2.0);
        assert_eq!(outcome.corr[0].corr_at(RealTime::from_secs(1.5)), 1.5);
    }

    #[test]
    #[should_panic(expected = "A3 violation")]
    fn out_of_band_delay_detected() {
        let clocks = DriftModel::Ideal.build(2, &[ClockTime::ZERO; 2], 0);
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = (0..2)
            .map(|me| Box::new(PingPong { budget: 1, me }) as Box<dyn Automaton<Msg = u32>>)
            .collect();
        // Delay model says 5ms but declared bounds say 1ms +/- 0.
        let mut sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_millis(5.0)))
            .starts(vec![RealTime::ZERO; 2])
            .config(SimConfig {
                t_end: RealTime::from_secs(1.0),
                delay_bounds: DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO),
                ..SimConfig::default()
            })
            .build();
        let _ = sim.run();
    }

    /// Broadcasts once, on START.
    #[derive(Debug)]
    struct Shout;
    impl Automaton for Shout {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, _now: ClockTime, out: &mut Actions<u32>) {
            if matches!(input, Input::Start) {
                out.broadcast(7);
            }
        }
    }

    fn shouters(n: usize, delay: impl DelayModel + 'static, config: SimConfig) -> Simulation<u32> {
        SimBuilder::new()
            .clocks(DriftModel::Ideal.build(n, &vec![ClockTime::ZERO; n], 0))
            .procs((0..n).map(|_| Box::new(Shout) as _).collect())
            .delay(delay)
            .starts(vec![RealTime::ZERO; n])
            .config(config)
            .build()
    }

    /// The sibling of `out_of_band_delay_detected` whose offending send is
    /// a broadcast: the fan-out arm keeps the same release-mode check.
    #[test]
    #[should_panic(expected = "A3 violation")]
    fn out_of_band_broadcast_delay_detected() {
        // Delay model says 5ms but declared bounds say 1ms +/- 0.
        let config = SimConfig {
            t_end: RealTime::from_secs(1.0),
            delay_bounds: DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO),
            ..SimConfig::default()
        };
        let _ = shouters(2, ConstantDelay::new(RealDur::from_millis(5.0)), config).run();
    }

    /// The band the executor precomputes is `DelayBounds::contains`, to
    /// the ulp: both admit `min − 1 ps` and `max + 1 ps` and nothing beyond.
    #[test]
    fn a3_band_is_delay_bounds_contains() {
        let bounds = DelayBounds::new(RealDur::from_millis(10.0), RealDur::from_millis(1.0));
        let band = shouters(
            1,
            ConstantDelay::new(RealDur::ZERO),
            SimConfig {
                delay_bounds: bounds,
                ..SimConfig::default()
            },
        )
        .band;
        let lo: f64 = bounds.min_delay().as_secs() - 1e-12;
        let hi: f64 = bounds.max_delay().as_secs() + 1e-12;
        for (edge, inside) in [(lo, lo.next_up()), (hi, hi.next_down())] {
            let outside = edge + (edge - inside);
            for (s, admitted) in [(outside, false), (edge, true), (inside, true)] {
                assert_eq!(band.contains(&s), admitted, "at {s:e}");
                assert_eq!(bounds.contains(RealDur::from_secs(s)), admitted, "at {s:e}");
            }
        }
        assert!(!band.contains(&f64::NAN));
    }

    /// `t_end` falls inside every broadcast's fan-out: the first event at
    /// or past it is popped and pushed back by each further `step()`,
    /// which must change nothing — not even when that event was the head
    /// of a fan whose next recipient already took its place in the heap.
    #[test]
    fn stepping_past_t_end_changes_nothing() {
        let n = 4;
        let bounds = DelayBounds::new(RealDur::from_millis(10.0), RealDur::from_millis(5.0));
        let config = |seed: u64, t_end_ms: f64| SimConfig {
            t_end: RealTime::from_secs(t_end_ms / 1e3),
            seed,
            delay_bounds: bounds,
            trace_capacity: 1000,
            ..SimConfig::default()
        };
        for seed in 0..8 {
            let mut sim = shouters(n, UniformDelay::new(bounds), config(seed, 10.0));
            sim.drive();
            let (delivered, queued) = (sim.events_delivered(), sim.queue.len());
            assert!((n as u64) < delivered && delivered < (n + n * n) as u64);
            assert_eq!(queued as u64, (n + n * n) as u64 - delivered);
            for _ in 0..3 {
                assert_eq!(sim.step(), None);
                assert_eq!(sim.queue.len(), queued);
                assert_eq!(sim.events_delivered(), delivered);
            }
            // What is left is still the execution's tail: with the horizon
            // lifted (a test-only liberty) it ends as an unstopped run does.
            sim.config.t_end = RealTime::from_secs(1.0);
            let resumed = sim.run();
            let straight = shouters(n, UniformDelay::new(bounds), config(seed, 1e3)).run();
            assert_eq!(resumed.stats, straight.stats);
            assert_eq!(
                format!("{:?}", resumed.trace.events()),
                format!("{:?}", straight.trace.events())
            );
        }
    }

    /// Broadcasts on START and annotates every input through a closure
    /// that counts how often it is asked to render.
    #[derive(Debug)]
    struct Chatty(Arc<AtomicUsize>);
    impl Automaton for Chatty {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, _now: ClockTime, out: &mut Actions<u32>) {
            if matches!(input, Input::Start) {
                out.broadcast(1);
            }
            out.annotate_with(|| format!("note {}", self.0.fetch_add(1, Ordering::Relaxed)));
        }
    }

    #[test]
    fn notes_render_only_for_an_observer_that_keeps_them() {
        // Two processes: 2 STARTs + 4 messages = 6 annotated steps.
        let chatty = |trace_capacity: usize| {
            let rendered = Arc::new(AtomicUsize::new(0));
            let builder = SimBuilder::new()
                .clocks(DriftModel::Ideal.build(2, &[ClockTime::ZERO; 2], 0))
                .procs(vec![
                    Box::new(Chatty(rendered.clone())),
                    Box::new(Chatty(rendered.clone())),
                ])
                .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
                .starts(vec![RealTime::ZERO; 2])
                .delay_bounds(DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO))
                .trace_capacity(trace_capacity);
            (builder, rendered)
        };
        let notes = |trace: &Trace| -> Vec<String> {
            trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Note { text, .. } => Some(text.clone()),
                    _ => None,
                })
                .collect()
        };

        let (builder, rendered) = chatty(100);
        let mut sim = builder.build_with(HeapQueue::new(), NullObserver);
        sim.drive();
        assert_eq!(sim.events_delivered(), 6);
        assert_eq!(rendered.load(Ordering::Relaxed), 0);

        let (builder, rendered) = chatty(0);
        let outcome = builder.build().run();
        assert_eq!(outcome.stats.events_delivered, 6);
        assert_eq!(rendered.load(Ordering::Relaxed), 0);

        let (builder, rendered) = chatty(100);
        let outcome = builder.build().run();
        assert_eq!(rendered.load(Ordering::Relaxed), 6);
        let expected: Vec<String> = (0..6).map(|k| format!("note {k}")).collect();
        assert_eq!(notes(&outcome.trace), expected);

        // Taking the trace mid-run stops the rendering with the recording.
        let (builder, rendered) = chatty(100);
        let mut sim = builder.build();
        sim.step();
        sim.step();
        assert_eq!(notes(&sim.observer.trace.take()), expected[..2]);
        sim.drive();
        assert_eq!(sim.events_delivered(), 6);
        assert_eq!(rendered.load(Ordering::Relaxed), 2);

        // A step that emits nothing leaves the next step's note intact:
        // some delivery is silent (the next trace event is the next
        // delivery) and the step after it renders a note.
        let (builder, _) = picky(true, 100);
        let trace = builder.build().run().trace;
        let events = trace.events();
        let delivery = |e: &TraceEvent| matches!(e, TraceEvent::Deliver { .. });
        let Some(i) = events.windows(3).position(|w| {
            delivery(&w[0]) && delivery(&w[1]) && matches!(w[2], TraceEvent::Send { .. })
        }) else {
            panic!("no loud step follows a silent one: {events:?}");
        };
        let TraceEvent::Deliver { to, .. } = events[i + 1] else {
            unreachable!()
        };
        assert!(events[i + 2..]
            .iter()
            .take_while(|e| !delivery(e))
            .any(|e| matches!(e, TraceEvent::Note { by, .. } if *by == to)));
        assert_eq!(notes(&trace).len(), 6);
    }

    /// Loud on START and on its own messages above 0 — broadcasts the
    /// count down and annotates — and silent on everything else. On entry
    /// to every step it checks the scratch it is lent.
    #[derive(Debug)]
    struct Picky {
        me: ProcessId,
        wants_notes: Arc<AtomicBool>,
    }
    impl Automaton for Picky {
        type Msg = u32;
        fn on_input(&mut self, input: Input<u32>, _now: ClockTime, out: &mut Actions<u32>) {
            assert!(out.is_empty(), "lent {:?}", out.as_slice());
            assert_eq!(out.wants_notes, self.wants_notes.load(Ordering::Relaxed));
            let next = match input {
                Input::Start => Some(2),
                Input::Message { from, msg } if from == self.me && msg > 0 => Some(msg - 1),
                _ => None,
            };
            if let Some(k) = next {
                out.broadcast(k);
                let me = self.me;
                out.annotate_with(|| format!("{me} sends {k}"));
            }
        }
    }

    /// Two `Picky`s: 2 STARTs, then 4 deliveries each of 2, 1 and 0 — 14
    /// steps, 6 loud and 8 silent. The flag is what the automata expect
    /// `wants_notes` to read.
    fn picky(wants_notes: bool, trace_capacity: usize) -> (SimBuilder<u32>, Arc<AtomicBool>) {
        let flag = Arc::new(AtomicBool::new(wants_notes));
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = (0..2)
            .map(|q| {
                Box::new(Picky {
                    me: ProcessId(q),
                    wants_notes: flag.clone(),
                }) as Box<dyn Automaton<Msg = u32>>
            })
            .collect();
        let builder = SimBuilder::new()
            .clocks(DriftModel::Ideal.build(2, &[ClockTime::ZERO; 2], 0))
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
            .starts(vec![RealTime::ZERO; 2])
            .delay_bounds(DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO))
            .trace_capacity(trace_capacity);
        (builder, flag)
    }

    #[test]
    fn a_silent_step_lends_the_scratch_and_keeps_the_flag() {
        let (builder, _) = picky(false, 100);
        let mut sim = builder.build_with(HeapQueue::new(), NullObserver);
        sim.drive();
        assert_eq!(sim.events_delivered(), 14);

        for (wants_notes, trace_capacity) in [(false, 0), (true, 100)] {
            let (builder, _) = picky(wants_notes, trace_capacity);
            let outcome = builder.build().run();
            assert_eq!(outcome.stats.events_delivered, 14);
            assert_eq!(outcome.stats.messages_sent, 12);
        }

        // The flag follows the observer mid-run: taking the trace clears it.
        let (builder, flag) = picky(true, 100);
        let mut sim = builder.build();
        for _ in 0..4 {
            sim.step();
        }
        sim.observer.trace.take();
        flag.store(false, Ordering::Relaxed);
        sim.drive();
        assert_eq!(sim.events_delivered(), 14);
    }

    #[test]
    fn max_events_safety_valve() {
        let clocks = DriftModel::Ideal.build(2, &[ClockTime::ZERO; 2], 0);
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = (0..2)
            .map(|me| {
                Box::new(PingPong {
                    budget: u32::MAX,
                    me,
                }) as Box<dyn Automaton<Msg = u32>>
            })
            .collect();
        let mut sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
            .starts(vec![RealTime::ZERO; 2])
            .config(SimConfig {
                t_end: RealTime::from_secs(1e9),
                delay_bounds: DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO),
                max_events: 50,
                ..SimConfig::default()
            })
            .build();
        let outcome = sim.run();
        assert_eq!(outcome.stats.events_delivered, 50);
    }

    #[test]
    fn per_pair_delays_respected() {
        let clocks = DriftModel::Ideal.build(2, &[ClockTime::ZERO; 2], 0);
        let procs: Vec<Box<dyn Automaton<Msg = u32>>> = (0..2)
            .map(|me| Box::new(PingPong { budget: 0, me }) as Box<dyn Automaton<Msg = u32>>)
            .collect();
        let mut m = PerPairDelay::new(2, Box::new(ConstantDelay::new(RealDur::from_millis(9.0))));
        m.set(ProcessId(0), ProcessId(1), RealDur::from_millis(11.0));
        let mut sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(m)
            .starts(vec![RealTime::ZERO; 2])
            .config(SimConfig {
                t_end: RealTime::from_secs(1.0),
                delay_bounds: DelayBounds::new(
                    RealDur::from_millis(10.0),
                    RealDur::from_millis(1.0),
                ),
                trace_capacity: 100,
                ..SimConfig::default()
            })
            .build();
        let outcome = sim.run();
        let deliver_at = outcome
            .trace
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Deliver { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!((deliver_at.as_secs() - 0.011).abs() < 1e-12);
    }
}
