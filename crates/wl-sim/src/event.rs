//! Event queue entries and their delivery ordering (paper §2.3).

use crate::ProcessId;
use std::cmp::Ordering;
use wl_time::RealTime;

/// What a process receives at a step.
#[derive(Debug, Clone, PartialEq)]
pub enum Input<M> {
    /// The initial system wake-up (§2.1). Delivered exactly once.
    Start,
    /// A timer interrupt: the process' physical clock reached a value it
    /// asked for via [`crate::Action::SetTimer`].
    Timer,
    /// An ordinary message.
    Message {
        /// The sender's identity (the model attaches the sending process'
        /// name to every message).
        from: ProcessId,
        /// Message body.
        msg: M,
    },
}

/// Delivery class, implementing §2.3 property 4: TIMER messages that arrive
/// at the same real time as ordinary messages are ordered *after* them
/// ("messages that arrive at the same time as a timer is due to go off get
/// in just under the wire").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// START and ordinary messages.
    Normal = 0,
    /// TIMER interrupts.
    Timer = 1,
}

/// A scheduled delivery in the global message buffer.
#[derive(Debug, Clone)]
pub struct QueuedEvent<M> {
    /// Delivery real time `t'`.
    pub at: RealTime,
    /// Delivery class for same-instant ordering.
    pub class: EventClass,
    /// Monotone sequence number: deterministic FIFO tie-break.
    pub seq: u64,
    /// Recipient.
    pub to: ProcessId,
    /// What is delivered.
    pub input: Input<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}

impl<M> Eq for QueuedEvent<M> {}

impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        let (t1, c1, s1) = self.cmp_key();
        let (t2, c2, s2) = other.cmp_key();
        t1.total_cmp(&t2)
            .then_with(|| c1.cmp(&c2))
            .then_with(|| s1.cmp(&s2))
    }
}

impl<M> QueuedEvent<M> {
    fn cmp_key(&self) -> (RealTime, EventClass, u64) {
        (self.at, self.class, self.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: f64, class: EventClass, seq: u64) -> QueuedEvent<()> {
        QueuedEvent {
            at: RealTime::from_secs(at),
            class,
            seq,
            to: ProcessId(0),
            input: Input::Timer,
        }
    }

    #[test]
    fn earlier_time_first() {
        assert!(ev(1.0, EventClass::Normal, 5) < ev(2.0, EventClass::Normal, 1));
    }

    #[test]
    fn timer_sorts_after_normal_at_same_instant() {
        // Paper §2.3 property 4.
        let msg = ev(1.0, EventClass::Normal, 10);
        let timer = ev(1.0, EventClass::Timer, 1);
        assert!(msg < timer);
    }

    #[test]
    fn seq_breaks_remaining_ties() {
        assert!(ev(1.0, EventClass::Normal, 1) < ev(1.0, EventClass::Normal, 2));
    }

    #[test]
    fn class_enum_order() {
        assert!(EventClass::Normal < EventClass::Timer);
    }
}
