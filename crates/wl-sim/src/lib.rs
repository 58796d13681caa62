//! A discrete-event simulator for the Welch–Lynch execution model (§2).
//!
//! The paper models a distributed system as interrupt-driven automata with
//! read-only physical clocks, communicating through a *global message
//! buffer*: a message sent at real time `t` is assigned a delivery time
//! `t' ∈ [t+δ−ε, t+δ+ε]` and is received exactly at `t'`. Two special
//! "messages" exist — `START` (system wake-up) and `TIMER` (the physical
//! clock reached a requested value) — and at equal delivery times TIMER
//! events sort *after* ordinary messages (§2.3, property 4).
//!
//! This crate implements that model faithfully and generically:
//!
//! * [`Automaton`] — the process transition function: consumes an
//!   [`Input`] plus the current *physical* clock reading, emits
//!   [`Action`]s.
//! * [`delay::DelayModel`] — pluggable message-delay distributions within
//!   `[δ−ε, δ+ε]`, including adversarial ones.
//! * [`faults`] — crash / churn / silence wrappers and fault bookkeeping;
//!   fully Byzantine behaviours are just alternative `Automaton`
//!   implementations (they may send different lies to different peers).
//! * [`Simulation`] — the executor: seeded, deterministic, streaming every
//!   observable occurrence through its [`Observer`] so the analysis can
//!   reconstruct each local-time function `L_p(t)` exactly.
//!
//! # The pluggable engine
//!
//! The executor is generic over two axes, both chosen through
//! [`SimBuilder`] (see `docs/engine.md` for the contracts):
//!
//! * **Event queue** — anything implementing [`EventQueue`]. The engine
//!   ships one, [`HeapQueue`] (a binary heap); the trait is the seam test
//!   fakes substitute through.
//! * **Observer** — anything implementing [`Observer`]: the default
//!   [`StdObservers`] bundle (counters + correction histories + bounded
//!   trace), a [`NullObserver`] for measurement-free runs, or a
//!   caller-written bundle of sinks.
//!
//! The processes are one [`DynFleet`] — a boxed [`Automaton`] each — so
//! one collection holds any mix of correct, faulty and rejoining
//! processes.
//!
//! # Example
//!
//! ```
//! use wl_sim::{Actions, Automaton, Input, ProcessId, SimBuilder, SimConfig};
//! use wl_sim::delay::{ConstantDelay, DelayBounds};
//! use wl_clock::drift::DriftModel;
//! use wl_time::{ClockTime, RealDur, RealTime};
//!
//! // An automaton that broadcasts "hello" once on START.
//! #[derive(Debug)]
//! struct Hello(u32);
//! impl Automaton for Hello {
//!     type Msg = &'static str;
//!     fn on_input(&mut self, input: Input<&'static str>, _now: ClockTime,
//!                 out: &mut Actions<&'static str>) {
//!         match input {
//!             Input::Start => out.broadcast("hello"),
//!             Input::Message { .. } => self.0 += 1,
//!             Input::Timer => {}
//!         }
//!     }
//! }
//!
//! let n = 3;
//! let mut sim = SimBuilder::new()
//!     .clocks(DriftModel::Ideal.build(n, &vec![ClockTime::ZERO; n], 0))
//!     .procs((0..n).map(|_| Box::new(Hello(0)) as _).collect())
//!     .delay(ConstantDelay::new(RealDur::from_millis(1.0)))
//!     .starts(vec![RealTime::ZERO; n])
//!     .t_end(RealTime::from_secs(1.0))
//!     .delay_bounds(DelayBounds::new(RealDur::from_millis(1.0), RealDur::ZERO))
//!     .build();
//! let outcome = sim.run();
//! assert_eq!(outcome.stats.messages_sent, 9); // 3 broadcasts x 3 receivers
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod delay;
mod event;
mod executor;
pub mod faults;
mod history;
pub mod observer;
pub mod queue;
pub mod trace;

pub use builder::SimBuilder;
pub use event::{EventClass, Input, QueuedEvent};
pub use executor::{DynFleet, SimConfig, SimOutcome, Simulation};
pub use history::CorrectionHistory;
pub use observer::{
    CorrectionSink, Counters, NullObserver, Observer, SimStats, StdObservers, TraceSink,
};
pub use queue::{EventQueue, HeapQueue};

use std::fmt;
use wl_time::ClockTime;

/// Identifies a process: an index in `0..n`.
///
/// The paper's processes are named `p, q, r`; here they are dense indices so
/// arrays can be used for per-process state (the algorithm's `ARR[1..n]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The index as `usize`.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// An output of a process step (paper §2.1: "the messages it sends out, and
/// the timers it sets for itself").
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Send `msg` to every process, including the sender itself (§2.2:
    /// "Every process can communicate directly with every process,
    /// including itself"; the algorithm relies on hearing its own
    /// broadcast).
    Broadcast(M),
    /// Send `msg` to a single process. Byzantine automata use this to tell
    /// different lies to different peers.
    Send {
        /// Recipient.
        to: ProcessId,
        /// Message body.
        msg: M,
    },
    /// Request a TIMER interrupt when this process' *physical* clock
    /// reaches `physical`. Per §2.2, if that moment is already in the past
    /// no interrupt is ever delivered.
    SetTimer {
        /// Physical-clock deadline.
        physical: ClockTime,
    },
    /// Report the process' new correction variable `CORR` (observability
    /// only — lets the analysis reconstruct `L_p(t) = Ph_p(t) + CORR_p(t)`
    /// without peeking into process state).
    NoteCorrection(f64),
    /// Free-form trace annotation (observability only).
    Annotate(String),
}

/// Ordered list of actions produced by one step, with builder conveniences.
#[derive(Debug)]
pub struct Actions<M> {
    items: Vec<Action<M>>,
    /// Whether anyone reads [`Action::Annotate`]s: [`Observer::wants_notes`],
    /// set by the executor before every step (a wrapper automaton steps its
    /// inner one into the same `Actions`, so the flag reaches it).
    pub wants_notes: bool,
}

impl<M> Default for Actions<M> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            wants_notes: true,
        }
    }
}

impl<M> Actions<M> {
    /// Creates an empty action list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a broadcast to all processes (including the caller).
    pub fn broadcast(&mut self, msg: M) {
        self.items.push(Action::Broadcast(msg));
    }

    /// Queues a point-to-point send.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.items.push(Action::Send { to, msg });
    }

    /// Queues a timer for a physical-clock deadline.
    pub fn set_timer(&mut self, physical: ClockTime) {
        self.items.push(Action::SetTimer { physical });
    }

    /// Records the new correction value.
    pub fn note_correction(&mut self, corr: f64) {
        self.items.push(Action::NoteCorrection(corr));
    }

    /// Records a trace annotation.
    pub fn annotate(&mut self, note: impl Into<String>) {
        self.items.push(Action::Annotate(note.into()));
    }

    /// Records the annotation `render` produces — rendered only if
    /// [`wants_notes`](Self::wants_notes), so an unread note costs nothing.
    pub fn annotate_with(&mut self, render: impl FnOnce() -> String) {
        if self.wants_notes {
            self.items.push(Action::Annotate(render()));
        }
    }

    /// Drains the accumulated actions.
    pub fn drain(&mut self) -> impl Iterator<Item = Action<M>> + '_ {
        self.items.drain(..)
    }

    /// Number of queued actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no actions are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The queued actions as a slice (for assertions in tests).
    #[must_use]
    pub fn as_slice(&self) -> &[Action<M>] {
        &self.items
    }
}

/// A process transition function (paper §2.1).
///
/// The new state, messages sent, and timers set are a function of the
/// current state, the received interrupt, and the *physical* clock time.
/// Implementations must not consult any other source of time — that is the
/// whole point of the model.
pub trait Automaton: Send + fmt::Debug {
    /// The ordinary-message type exchanged by this algorithm.
    type Msg: Clone + fmt::Debug + Send;

    /// Processes one interrupt, pushing outputs into `out`.
    ///
    /// `phys_now` is `Ph_p(t)` — the process' raw physical clock at the
    /// moment of the interrupt. Local time is `phys_now + CORR` where the
    /// automaton maintains `CORR` itself.
    fn on_input(
        &mut self,
        input: Input<Self::Msg>,
        phys_now: ClockTime,
        out: &mut Actions<Self::Msg>,
    );

    /// The initial value of the correction variable, used to seed the
    /// correction history before the first `NoteCorrection`.
    fn initial_correction(&self) -> f64 {
        0.0
    }
}

impl<A: Automaton + ?Sized> Automaton for Box<A> {
    type Msg = A::Msg;
    fn on_input(
        &mut self,
        input: Input<Self::Msg>,
        phys_now: ClockTime,
        out: &mut Actions<Self::Msg>,
    ) {
        (**self).on_input(input, phys_now, out);
    }
    fn initial_correction(&self) -> f64 {
        (**self).initial_correction()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display() {
        assert_eq!(ProcessId(3).to_string(), "p3");
        assert_eq!(ProcessId(3).index(), 3);
    }

    #[test]
    fn actions_builder_accumulates_in_order() {
        let mut a: Actions<u8> = Actions::new();
        assert!(a.is_empty());
        a.broadcast(1);
        a.send(ProcessId(2), 9);
        a.set_timer(ClockTime::from_secs(5.0));
        a.note_correction(-0.25);
        a.annotate("note");
        assert_eq!(a.len(), 5);
        let v: Vec<Action<u8>> = a.drain().collect();
        assert_eq!(v[0], Action::Broadcast(1));
        assert_eq!(
            v[1],
            Action::Send {
                to: ProcessId(2),
                msg: 9
            }
        );
        assert_eq!(
            v[2],
            Action::SetTimer {
                physical: ClockTime::from_secs(5.0)
            }
        );
        assert_eq!(v[3], Action::NoteCorrection(-0.25));
        assert_eq!(v[4], Action::Annotate("note".into()));
        assert!(a.is_empty());
    }
}
