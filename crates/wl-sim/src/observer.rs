//! Streaming execution observers: the [`Observer`] trait and the standard
//! sinks.
//!
//! The engine *streams* everything observable about an execution
//! (deliveries, sends, timers, corrections, annotations) through a sink
//! chosen at build time:
//!
//! * [`Counters`] — the [`SimStats`] counters, and nothing else.
//! * [`CorrectionSink`] — per-process [`CorrectionHistory`], from which
//!   the analysis reconstructs every local-time function `L_p(t)`.
//! * [`TraceSink`] — the bounded structured [`Trace`].
//! * [`NullObserver`] — nothing at all: measurement-free runs allocate
//!   nothing per event.
//!
//! [`StdObservers`] is the counters + corrections + trace bundle that
//! backs [`crate::SimOutcome`]. A different combination of sinks is a
//! bundle written the same way — a struct of sinks whose [`Observer`]
//! impl forwards each callback — installed with
//! [`crate::SimBuilder::build_with`].

use crate::history::CorrectionHistory;
use crate::trace::{Trace, TraceEvent};
use crate::{Input, ProcessId};
use wl_time::{ClockTime, RealTime};

/// Counters describing an execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events delivered (START + TIMER + messages).
    pub events_delivered: u64,
    /// Point-to-point message deliveries scheduled (a broadcast to `n`
    /// processes counts `n`).
    pub messages_sent: u64,
    /// Timers scheduled.
    pub timers_set: u64,
    /// Timers requested for a physical-clock value already in the past —
    /// per §2.2 no interrupt is generated. A nonzero count for a nonfaulty
    /// process indicates a parameter-validation bug (Theorem 4(b) says this
    /// never happens when `P` is large enough).
    pub timers_suppressed: u64,
}

/// A streaming sink for everything observable about an execution.
///
/// Every callback defaults to a no-op, so an observer implements only
/// what it measures. Callbacks fire in the exact order the corresponding
/// occurrences happen in the execution; within one delivery, `on_deliver`
/// precedes the callbacks of the actions that step produced.
pub trait Observer<M>: Send {
    /// An event (START, TIMER, or message) was delivered to `to` at `at`.
    fn on_deliver(&mut self, to: ProcessId, input: &Input<M>, at: RealTime) {
        let _ = (to, input, at);
    }

    /// A message entered the buffer at `at`, scheduled for `deliver_at`.
    fn on_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: RealTime,
        deliver_at: RealTime,
        msg: &M,
    ) {
        let _ = (from, to, at, deliver_at, msg);
    }

    /// A timer was requested for physical-clock value `physical`
    /// (`suppressed` per §2.2 if that moment had already passed).
    fn on_timer_set(&mut self, by: ProcessId, at: RealTime, physical: ClockTime, suppressed: bool) {
        let _ = (by, at, physical, suppressed);
    }

    /// Process `by` reported a new correction variable value.
    fn on_correction(&mut self, by: ProcessId, at: RealTime, corr: f64) {
        let _ = (by, at, corr);
    }

    /// Free-form annotation from the automaton.
    fn on_note(&mut self, by: ProcessId, at: RealTime, text: &str) {
        let _ = (by, at, text);
    }

    /// Whether `on_note` does anything. Asked before every step: on
    /// `false`, [`crate::Actions::annotate_with`] renders no note.
    fn wants_notes(&self) -> bool {
        true
    }
}

/// Observes nothing. Runs built with it do no per-event measurement work
/// at all.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl<M> Observer<M> for NullObserver {
    fn wants_notes(&self) -> bool {
        false
    }
}

/// Counts events into [`SimStats`] — the counting observer behind
/// `SimOutcome::stats`, replacing the executor's inline counter fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    stats: SimStats,
}

impl Counters {
    /// A zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }
}

impl<M> Observer<M> for Counters {
    fn on_deliver(&mut self, _to: ProcessId, _input: &Input<M>, _at: RealTime) {
        self.stats.events_delivered += 1;
    }
    fn on_send(&mut self, _f: ProcessId, _t: ProcessId, _at: RealTime, _d: RealTime, _m: &M) {
        self.stats.messages_sent += 1;
    }
    fn on_timer_set(&mut self, _by: ProcessId, _at: RealTime, _p: ClockTime, suppressed: bool) {
        if suppressed {
            self.stats.timers_suppressed += 1;
        } else {
            self.stats.timers_set += 1;
        }
    }
}

/// Records per-process correction histories, seeded with each automaton's
/// initial correction.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectionSink {
    hist: Vec<CorrectionHistory>,
}

impl CorrectionSink {
    /// A sink for `initial.len()` processes, each history starting at the
    /// given initial correction.
    #[must_use]
    pub fn new(initial: &[f64]) -> Self {
        Self {
            hist: initial
                .iter()
                .map(|&c| CorrectionHistory::with_initial(c))
                .collect(),
        }
    }

    /// The histories recorded so far (index = process id).
    #[must_use]
    pub fn histories(&self) -> &[CorrectionHistory] {
        &self.hist
    }

    /// Consumes the sink, returning the histories.
    #[must_use]
    pub fn into_histories(self) -> Vec<CorrectionHistory> {
        self.hist
    }
}

impl<M> Observer<M> for CorrectionSink {
    fn on_correction(&mut self, by: ProcessId, at: RealTime, corr: f64) {
        self.hist[by.index()].record(at, corr);
    }
}

/// Records a bounded structured [`Trace`], exactly as the executor used to
/// inline: events are only rendered (including the `Debug` formatting of
/// message bodies) when a nonzero capacity was requested.
#[derive(Debug, Default)]
pub struct TraceSink {
    trace: Trace,
    capacity: usize,
}

impl TraceSink {
    /// A sink retaining at most `capacity` events (0 disables recording).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            trace: Trace::with_capacity(capacity),
            capacity,
        }
    }

    fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the trace out, leaving an empty disabled one (recording
    /// stops: subsequent events are no longer rendered).
    pub fn take(&mut self) -> Trace {
        self.capacity = 0;
        std::mem::take(&mut self.trace)
    }
}

impl<M: std::fmt::Debug> Observer<M> for TraceSink {
    fn on_deliver(&mut self, to: ProcessId, input: &Input<M>, at: RealTime) {
        if !self.is_enabled() {
            return;
        }
        let te = match input {
            Input::Start => TraceEvent::Start { to, at },
            Input::Timer => TraceEvent::Timer { to, at },
            Input::Message { from, msg } => TraceEvent::Deliver {
                from: *from,
                to,
                at,
                msg: format!("{msg:?}"),
            },
        };
        self.trace.push(te);
    }
    fn on_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: RealTime,
        deliver_at: RealTime,
        _m: &M,
    ) {
        if self.is_enabled() {
            self.trace.push(TraceEvent::Send {
                from,
                to,
                at,
                deliver_at,
            });
        }
    }
    fn on_timer_set(&mut self, by: ProcessId, at: RealTime, physical: ClockTime, suppressed: bool) {
        if self.is_enabled() {
            self.trace.push(TraceEvent::TimerSet {
                by,
                at,
                physical,
                suppressed,
            });
        }
    }
    fn on_correction(&mut self, by: ProcessId, at: RealTime, corr: f64) {
        if self.is_enabled() {
            self.trace.push(TraceEvent::Correction { by, at, corr });
        }
    }
    fn on_note(&mut self, by: ProcessId, at: RealTime, text: &str) {
        if self.is_enabled() {
            self.trace.push(TraceEvent::Note {
                by,
                at,
                text: text.to_owned(),
            });
        }
    }
    fn wants_notes(&self) -> bool {
        self.is_enabled()
    }
}

/// The standard bundle: counters + correction histories + bounded trace.
///
/// This is what [`crate::SimBuilder::build`] installs and what
/// [`crate::Simulation::run`] drains into a [`crate::SimOutcome`]; its
/// observable behaviour is byte-identical to the pre-observer executor
/// (pinned by `harness_parity`).
#[derive(Debug)]
pub struct StdObservers {
    /// Execution counters.
    pub counters: Counters,
    /// Per-process correction histories.
    pub corr: CorrectionSink,
    /// The bounded structured trace.
    pub trace: TraceSink,
}

impl StdObservers {
    /// The standard bundle for processes with the given initial
    /// corrections and trace capacity.
    #[must_use]
    pub fn new(initial_corrs: &[f64], trace_capacity: usize) -> Self {
        Self {
            counters: Counters::new(),
            corr: CorrectionSink::new(initial_corrs),
            trace: TraceSink::with_capacity(trace_capacity),
        }
    }
}

impl<M: std::fmt::Debug> Observer<M> for StdObservers {
    fn on_deliver(&mut self, to: ProcessId, input: &Input<M>, at: RealTime) {
        Observer::<M>::on_deliver(&mut self.counters, to, input, at);
        self.trace.on_deliver(to, input, at);
    }
    fn on_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        at: RealTime,
        deliver_at: RealTime,
        msg: &M,
    ) {
        Observer::<M>::on_send(&mut self.counters, from, to, at, deliver_at, msg);
        self.trace.on_send(from, to, at, deliver_at, msg);
    }
    fn on_timer_set(&mut self, by: ProcessId, at: RealTime, physical: ClockTime, suppressed: bool) {
        Observer::<M>::on_timer_set(&mut self.counters, by, at, physical, suppressed);
        Observer::<M>::on_timer_set(&mut self.trace, by, at, physical, suppressed);
    }
    fn on_correction(&mut self, by: ProcessId, at: RealTime, corr: f64) {
        Observer::<M>::on_correction(&mut self.corr, by, at, corr);
        Observer::<M>::on_correction(&mut self.trace, by, at, corr);
    }
    fn on_note(&mut self, by: ProcessId, at: RealTime, text: &str) {
        Observer::<M>::on_note(&mut self.trace, by, at, text);
    }
    fn wants_notes(&self) -> bool {
        self.trace.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }

    #[test]
    fn counters_count() {
        let mut c = Counters::new();
        Observer::<u32>::on_deliver(&mut c, ProcessId(0), &Input::Start, t(0.0));
        Observer::<u32>::on_send(&mut c, ProcessId(0), ProcessId(1), t(0.0), t(0.1), &7);
        Observer::<u32>::on_timer_set(&mut c, ProcessId(0), t(0.0), ClockTime::ZERO, false);
        Observer::<u32>::on_timer_set(&mut c, ProcessId(0), t(0.0), ClockTime::ZERO, true);
        assert_eq!(
            c.stats(),
            SimStats {
                events_delivered: 1,
                messages_sent: 1,
                timers_set: 1,
                timers_suppressed: 1,
            }
        );
    }

    #[test]
    fn correction_sink_seeds_initials() {
        let mut s = CorrectionSink::new(&[-1.0, 2.0]);
        Observer::<u32>::on_correction(&mut s, ProcessId(1), t(3.0), 5.0);
        assert_eq!(s.histories()[0].corr_at(t(10.0)), -1.0);
        assert_eq!(s.histories()[1].corr_at(t(2.0)), 2.0);
        assert_eq!(s.histories()[1].corr_at(t(3.0)), 5.0);
    }

    #[test]
    fn trace_sink_disabled_records_nothing() {
        let mut s = TraceSink::with_capacity(0);
        Observer::<u32>::on_deliver(&mut s, ProcessId(0), &Input::Start, t(0.0));
        Observer::<u32>::on_note(&mut s, ProcessId(0), t(0.0), "x");
        assert!(s.trace().events().is_empty());
        assert!(!s.is_enabled());
    }
}
