//! The executor's pending-event store: the [`EventQueue`] contract and
//! [`HeapQueue`], the one engine implementation.
//!
//! The executor only needs one thing from its pending-event store: *pop
//! events in the model's delivery order* — ascending `(t', class, seq)`,
//! where `class` realizes §2.3 property 4 (TIMERs sort after ordinary
//! messages at the same instant) and `seq` is the deterministic FIFO
//! tie-break. That order is **total** ([`QueuedEvent`]'s `Ord`), so any
//! correct priority queue yields byte-identical executions: the queue is
//! purely a cost choice, and the binary heap won it at every `n` measured
//! (PERF.md, PR 2 and PR 6). The trait stays so tests can substitute a
//! fake: `ShuffledTieQueue` in `tests/common` permutes the `seq`
//! tie-break — the one part of the order the paper leaves open — to show
//! the theorems survive any legal interleaving.

use crate::event::QueuedEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending-event store for the executor.
///
/// # Contract
///
/// `pop_next` must return the minimum remaining event under
/// [`QueuedEvent`]'s total order, and implementations must be
/// deterministic: the pop sequence is a pure function of the push
/// sequence. The executor only ever pushes events at or after the
/// timestamp of the last event popped (discrete-event causality);
/// implementations may rely on that.
pub trait EventQueue<M>: Send {
    /// Inserts a scheduled delivery.
    fn push(&mut self, ev: QueuedEvent<M>);

    /// Removes and returns the next event in delivery order.
    fn pop_next(&mut self) -> Option<QueuedEvent<M>>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The binary-heap queue: a `BinaryHeap<Reverse<QueuedEvent<M>>>`, popping
/// in [`QueuedEvent`]'s total order. `O(log n)` push/pop, no tuning knobs.
pub struct HeapQueue<M> {
    heap: BinaryHeap<Reverse<QueuedEvent<M>>>,
}

impl<M> Default for HeapQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> HeapQueue<M> {
    /// An empty heap queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
        }
    }
}

impl<M> std::fmt::Debug for HeapQueue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapQueue")
            .field("len", &self.heap.len())
            .finish()
    }
}

impl<M: Send> EventQueue<M> for HeapQueue<M> {
    fn push(&mut self, ev: QueuedEvent<M>) {
        self.heap.push(Reverse(ev));
    }

    fn pop_next(&mut self) -> Option<QueuedEvent<M>> {
        self.heap.pop().map(|r| r.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

impl<M, Q: EventQueue<M> + ?Sized> EventQueue<M> for Box<Q> {
    fn push(&mut self, ev: QueuedEvent<M>) {
        (**self).push(ev);
    }
    fn pop_next(&mut self) -> Option<QueuedEvent<M>> {
        (**self).pop_next()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventClass, Input};
    use crate::ProcessId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wl_time::RealTime;

    fn ev(at: f64, class: EventClass, seq: u64) -> QueuedEvent<u32> {
        QueuedEvent {
            at: RealTime::from_secs(at),
            class,
            seq,
            to: ProcessId(0),
            // A distinct payload per event, so the property also verifies
            // that every pop returns exactly the payload that was pushed.
            input: Input::Message {
                from: ProcessId(0),
                msg: seq as u32,
            },
        }
    }

    /// The reference the heap is checked against: an unordered `Vec`
    /// whose `pop_next` is a linear scan for the minimum `(t', class,
    /// seq)` — the contract spelled out with no heap in it.
    #[derive(Default)]
    struct SortedReference(Vec<QueuedEvent<u32>>);

    impl EventQueue<u32> for SortedReference {
        fn push(&mut self, ev: QueuedEvent<u32>) {
            self.0.push(ev);
        }
        fn pop_next(&mut self) -> Option<QueuedEvent<u32>> {
            let key = |e: &QueuedEvent<u32>| (e.at.as_secs(), e.class, e.seq);
            let min = (0..self.0.len()).min_by(|&a, &b| {
                key(&self.0[a])
                    .partial_cmp(&key(&self.0[b]))
                    .expect("finite")
            })?;
            Some(self.0.swap_remove(min))
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    /// Drains both queues under an identical randomized push/pop schedule
    /// — the executor's causal pattern: every push lands at or after the
    /// last pop — and asserts identical pop sequences (keys *and*
    /// payloads).
    fn parity_run(
        mut reference: impl EventQueue<u32>,
        mut subject: impl EventQueue<u32>,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..2000 {
            if rng.gen_range(0..3) < 2 || reference.len() == 0 {
                // Push an event at or after `now` (DES causality), with
                // occasional exact-tie timestamps and far-future jumps.
                let dt = match rng.gen_range(0u32..10) {
                    0 => 0.0,
                    9 => rng.gen_range(0.0..50.0),
                    _ => rng.gen_range(0.0..0.02),
                };
                let class = if rng.gen_range(0..4) == 0 {
                    EventClass::Timer
                } else {
                    EventClass::Normal
                };
                let e = ev(now + dt, class, seq);
                seq += 1;
                reference.push(e.clone());
                subject.push(e);
            } else {
                let a = reference.pop_next().expect("reference nonempty");
                let b = subject.pop_next().expect("subject nonempty");
                assert_eq!(a.seq, b.seq, "pop order diverged at t={}", a.at);
                assert_eq!(a.input, b.input, "payload diverged at seq={}", a.seq);
                now = a.at.as_secs();
            }
        }
        while let Some(a) = reference.pop_next() {
            let b = subject.pop_next().expect("subject drained early");
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.input, b.input);
        }
        assert!(subject.pop_next().is_none());
    }

    #[test]
    fn heap_matches_sorted_reference_randomized() {
        for seed in [1u64, 3, 4, 7, 99] {
            parity_run(SortedReference::default(), HeapQueue::<u32>::new(), seed);
        }
    }

    #[test]
    fn boxed_heap_matches_sorted_reference() {
        // The `Box<Q>` forwarding impl the `*_with_queue` entry points
        // substitute through.
        let boxed: Box<dyn EventQueue<u32>> = Box::new(HeapQueue::<u32>::new());
        parity_run(SortedReference::default(), boxed, 7);
    }

    #[test]
    fn ties_pop_in_class_then_seq_order() {
        let mut q: HeapQueue<u32> = HeapQueue::new();
        q.push(ev(1.0, EventClass::Timer, 0));
        q.push(ev(1.0, EventClass::Normal, 2));
        q.push(ev(1.0, EventClass::Normal, 1));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_next()).map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert!(q.is_empty());
    }
}
