//! [`SimBuilder`]: the one way to construct a [`Simulation`].
//!
//! Replaces the old six-argument positional `Simulation::new` with a
//! typed builder that names every ingredient and selects the engine's
//! pluggable axes (the queue and the observer; the processes are always
//! one [`DynFleet`] of boxed automata):
//!
//! ```
//! use wl_sim::{Actions, Automaton, Input, ProcessId, SimBuilder, SimConfig};
//! use wl_sim::delay::{ConstantDelay, DelayBounds};
//! use wl_clock::drift::DriftModel;
//! use wl_time::{ClockTime, RealDur, RealTime};
//!
//! #[derive(Debug)]
//! struct Quiet;
//! impl Automaton for Quiet {
//!     type Msg = u8;
//!     fn on_input(&mut self, _i: Input<u8>, _n: ClockTime, _o: &mut Actions<u8>) {}
//! }
//!
//! let n = 3;
//! let mut sim = SimBuilder::new()
//!     .clocks(DriftModel::Ideal.build(n, &vec![ClockTime::ZERO; n], 0))
//!     .procs((0..n).map(|_| Box::new(Quiet) as _).collect())
//!     .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
//!     .starts(vec![RealTime::ZERO; n])
//!     .delay_bounds(DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO))
//!     .t_end(RealTime::from_secs(1.0))
//!     .build();
//! let outcome = sim.run();
//! assert_eq!(outcome.stats.events_delivered, 3); // the three STARTs
//! ```
//!
//! Terminal methods pick the queue and observer types:
//! [`build`](SimBuilder::build) (heap queue, standard observers),
//! [`build_with_queue`](SimBuilder::build_with_queue) (custom queue,
//! standard observers), and [`build_with`](SimBuilder::build_with)
//! (everything custom).

use crate::delay::{DelayBounds, DelayModel};
use crate::event::{EventClass, Input, QueuedEvent};
use crate::executor::{DynFleet, SimConfig, Simulation};
use crate::faults::FaultPlan;
use crate::observer::{Observer, StdObservers};
use crate::queue::{EventQueue, HeapQueue};
use crate::{Actions, ProcessId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::marker::PhantomData;
use wl_clock::drift::FleetClock;
use wl_time::RealTime;

/// Builder for [`Simulation`]s. See the module docs.
pub struct SimBuilder<M> {
    clocks: Vec<FleetClock>,
    procs: Option<DynFleet<M>>,
    delay: Option<Box<dyn DelayModel>>,
    starts: Vec<RealTime>,
    plan: Option<FaultPlan>,
    config: SimConfig,
    _msg: PhantomData<fn() -> M>,
}

impl<M> Default for SimBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> SimBuilder<M> {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self {
            clocks: Vec::new(),
            procs: None,
            delay: None,
            starts: Vec::new(),
            plan: None,
            config: SimConfig::default(),
            _msg: PhantomData,
        }
    }

    /// Sets the process automata (one boxed automaton per process).
    #[must_use]
    pub fn procs(mut self, procs: DynFleet<M>) -> Self {
        self.procs = Some(procs);
        self
    }

    /// Sets the physical clocks, `clocks[p]` belonging to process `p`.
    #[must_use]
    pub fn clocks(mut self, clocks: Vec<FleetClock>) -> Self {
        self.clocks = clocks;
        self
    }

    /// Sets the message-delay model.
    #[must_use]
    pub fn delay(mut self, delay: impl DelayModel + 'static) -> Self {
        self.delay = Some(Box::new(delay));
        self
    }

    /// Sets an already-boxed delay model (avoids double indirection for
    /// callers that select the model dynamically).
    #[must_use]
    pub fn delay_boxed(mut self, delay: Box<dyn DelayModel>) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Sets the real times at which each process' START is delivered
    /// (assumption A4 fixes these to `c⁰_p(T⁰)`; scenarios compute them).
    #[must_use]
    pub fn starts(mut self, starts: Vec<RealTime>) -> Self {
        self.starts = starts;
        self
    }

    /// Records which processes the scenario designates faulty (analysis
    /// metadata; defaults to all-correct).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Replaces the whole executor configuration.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the simulated horizon.
    #[must_use]
    pub fn t_end(mut self, t_end: RealTime) -> Self {
        self.config.t_end = t_end;
        self
    }

    /// Sets the delay RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the admissible delay band (A3).
    #[must_use]
    pub fn delay_bounds(mut self, bounds: DelayBounds) -> Self {
        self.config.delay_bounds = bounds;
        self
    }

    /// Enables standard-observer trace recording with this capacity.
    #[must_use]
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.config.trace_capacity = capacity;
        self
    }

    /// Sets the event-count safety valve (0 = unlimited).
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.config.max_events = max_events;
        self
    }
}

impl<M> SimBuilder<M>
where
    M: Clone + std::fmt::Debug + Send + 'static,
{
    /// Builds the default engine: [`HeapQueue`] + [`StdObservers`].
    ///
    /// # Panics
    ///
    /// Panics if procs or the delay model are missing, `n == 0`, or the
    /// clock/start vectors disagree with the fleet on `n`.
    #[must_use]
    pub fn build(self) -> Simulation<M, HeapQueue<M>, StdObservers> {
        self.build_with_queue(HeapQueue::<M>::new())
    }

    /// Builds with a custom event queue and the standard observers.
    ///
    /// # Panics
    ///
    /// As [`build`](SimBuilder::build).
    #[must_use]
    pub fn build_with_queue<Q: EventQueue<M>>(self, queue: Q) -> Simulation<M, Q, StdObservers> {
        let initial: Vec<f64> = {
            let procs = self.procs.as_ref().expect("SimBuilder: procs not set");
            procs.iter().map(|a| a.initial_correction()).collect()
        };
        let observers = StdObservers::new(&initial, self.config.trace_capacity);
        self.build_with(queue, observers)
    }

    /// Builds with a custom event queue and a custom observer stack.
    ///
    /// The observer receives no special seeding — a caller installing its
    /// own [`crate::CorrectionSink`] seeds it from the automata's
    /// [`crate::Automaton::initial_correction`] values.
    ///
    /// # Panics
    ///
    /// As [`build`](SimBuilder::build).
    #[must_use]
    pub fn build_with<Q: EventQueue<M>, O: Observer<M>>(
        self,
        mut queue: Q,
        observer: O,
    ) -> Simulation<M, Q, O> {
        let procs = self.procs.expect("SimBuilder: procs not set");
        let delay = self.delay.expect("SimBuilder: delay model not set");
        let n = procs.len();
        assert!(n > 0, "need at least one process");
        assert_eq!(self.clocks.len(), n, "one clock per process");
        assert_eq!(self.starts.len(), n, "one start time per process");
        let plan = self.plan.unwrap_or_else(|| FaultPlan::none(n));
        assert_eq!(plan.n(), n, "fault plan sized for a different fleet");

        let mut seq = 0;
        for (i, &at) in self.starts.iter().enumerate() {
            queue.push(QueuedEvent {
                at,
                class: EventClass::Normal,
                seq,
                to: ProcessId(i),
                input: Input::Start,
            });
            seq += 1;
        }

        let rng = StdRng::seed_from_u64(self.config.seed);
        Simulation {
            clocks: self.clocks,
            procs,
            delay,
            queue,
            observer,
            plan,
            events_delivered: 0,
            rng,
            seq,
            now: RealTime::from_secs(f64::NEG_INFINITY),
            band: self.config.delay_bounds.slack_band(),
            config: self.config,
            scratch: Actions::new(),
            fan: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::ConstantDelay;
    use crate::Automaton;
    use wl_clock::drift::DriftModel;
    use wl_time::{ClockTime, RealDur};

    #[derive(Debug)]
    struct Mute;
    impl Automaton for Mute {
        type Msg = u8;
        fn on_input(&mut self, _i: Input<u8>, _n: ClockTime, _o: &mut Actions<u8>) {}
        fn initial_correction(&self) -> f64 {
            0.25
        }
    }

    fn base(n: usize) -> SimBuilder<u8> {
        SimBuilder::new()
            .clocks(DriftModel::Ideal.build(n, &vec![ClockTime::ZERO; n], 0))
            .procs(
                (0..n)
                    .map(|_| Box::new(Mute) as Box<dyn Automaton<Msg = u8>>)
                    .collect(),
            )
            .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
            .starts(vec![RealTime::ZERO; n])
            .delay_bounds(DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO))
    }

    #[test]
    fn build_seeds_initial_corrections() {
        let mut sim = base(2).build();
        let outcome = sim.run();
        assert_eq!(outcome.corr.len(), 2);
        assert_eq!(outcome.corr[0].corr_at(RealTime::from_secs(5.0)), 0.25);
    }

    #[test]
    fn granular_setters_reach_config() {
        let sim = base(1)
            .t_end(RealTime::from_secs(7.0))
            .seed(9)
            .trace_capacity(3)
            .max_events(11)
            .build();
        assert_eq!(sim.config.t_end, RealTime::from_secs(7.0));
        assert_eq!(sim.config.seed, 9);
        assert_eq!(sim.config.trace_capacity, 3);
        assert_eq!(sim.config.max_events, 11);
    }

    #[test]
    fn default_plan_is_all_correct() {
        let sim = base(3).build();
        assert_eq!(sim.fault_plan().n(), 3);
        assert_eq!(sim.fault_plan().fault_count(), 0);
    }

    #[test]
    fn explicit_plan_is_kept() {
        let sim = base(3)
            .fault_plan(FaultPlan::with_faulty(3, &[ProcessId(1)]))
            .build();
        assert!(sim.fault_plan().is_faulty(ProcessId(1)));
    }

    #[test]
    #[should_panic(expected = "procs not set")]
    fn missing_procs_detected() {
        let _ = SimBuilder::<u8>::new()
            .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
            .build();
    }

    #[test]
    #[should_panic(expected = "one clock per process")]
    fn clock_count_checked() {
        let _ = base(2).clocks(Vec::new()).build();
    }

    #[test]
    #[should_panic(expected = "fault plan sized")]
    fn plan_size_checked() {
        let _ = base(2).fault_plan(FaultPlan::none(5)).build();
    }
}
