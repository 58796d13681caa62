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

use crate::event::{EventClass, Input, QueuedEvent};
use crate::ProcessId;
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use wl_time::RealTime;

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

    /// Inserts one broadcast: `msg` from `from` to each `(at, seq, to)` of
    /// `sorted`, which ascends by `(at, seq)`. This body — one ordinary
    /// message [`push`](EventQueue::push)ed per recipient — is the
    /// definition; an override may change how the fan is stored, never
    /// what `pop_next` and `len` answer.
    fn push_fanout(&mut self, from: ProcessId, msg: M, sorted: &[(RealTime, u64, ProcessId)])
    where
        M: Clone,
    {
        for &(at, seq, to) in sorted {
            self.push(message(at, seq, to, from, msg.clone()));
        }
    }

    /// Removes and returns the next event in delivery order.
    fn pop_next(&mut self) -> Option<QueuedEvent<M>>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Whether no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn message<M>(at: RealTime, seq: u64, to: ProcessId, from: ProcessId, msg: M) -> QueuedEvent<M> {
    QueuedEvent {
        at,
        class: EventClass::Normal,
        seq,
        to,
        input: Input::Message { from, msg },
    }
}

/// The binary-heap queue, popping in [`QueuedEvent`]'s total order.
/// `O(log n)` push/pop, no tuning knobs.
///
/// A broadcast is **one** entry: its earliest delivery plus the index of
/// a recycled vector of the later recipients. Popping it rewrites the
/// entry in place to the next recipient, which can only sift down, so a
/// round of `n` broadcasts keeps `2n` entries in the heap, not `n²`.
pub struct HeapQueue<M> {
    heap: BinaryHeap<Reverse<Entry<M>>>,
    /// Each live fan's later recipients, latest first; `free` indexes the
    /// empty vectors, which are reused.
    fans: Vec<Vec<(RealTime, u64, ProcessId)>>,
    free: Vec<u32>,
}

/// A heap entry: the delivery it stands for now, and its fan if any.
struct Entry<M> {
    ev: QueuedEvent<M>,
    fan: Option<u32>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.ev == other.ev
    }
}
impl<M> Eq for Entry<M> {}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.ev.cmp(&other.ev)
    }
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
            fans: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<M> std::fmt::Debug for HeapQueue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapQueue")
            .field("entries", &self.heap.len())
            .finish_non_exhaustive()
    }
}

impl<M: Clone + Send> EventQueue<M> for HeapQueue<M> {
    fn push(&mut self, ev: QueuedEvent<M>) {
        self.heap.push(Reverse(Entry { ev, fan: None }));
    }

    fn push_fanout(&mut self, from: ProcessId, msg: M, sorted: &[(RealTime, u64, ProcessId)]) {
        let Some((&(at, seq, to), later)) = sorted.split_first() else {
            return;
        };
        let fan = (!later.is_empty()).then(|| {
            let ix = self.free.pop().unwrap_or_else(|| {
                self.fans.push(Vec::new());
                u32::try_from(self.fans.len() - 1).expect("fewer than 2^32 live broadcasts")
            });
            self.fans[ix as usize].extend(later.iter().rev());
            ix
        });
        let ev = message(at, seq, to, from, msg);
        self.heap.push(Reverse(Entry { ev, fan }));
    }

    fn pop_next(&mut self) -> Option<QueuedEvent<M>> {
        let mut top = self.heap.peek_mut()?;
        let Some(ix) = top.0.fan else {
            return Some(PeekMut::pop(top).0.ev);
        };
        let later = &mut self.fans[ix as usize];
        let (at, seq, to) = later.pop().expect("a live fan has a recipient left");
        if later.is_empty() {
            self.free.push(ix);
            top.0.fan = None;
        }
        let mut next = top.0.ev.clone();
        (next.at, next.seq, next.to) = (at, seq, to);
        Some(std::mem::replace(&mut top.0.ev, next))
    }

    fn len(&self) -> usize {
        self.heap.len() + self.fans.iter().map(Vec::len).sum::<usize>()
    }
}

impl<M, Q: EventQueue<M> + ?Sized> EventQueue<M> for Box<Q> {
    fn push(&mut self, ev: QueuedEvent<M>) {
        (**self).push(ev);
    }
    fn push_fanout(&mut self, from: ProcessId, msg: M, sorted: &[(RealTime, u64, ProcessId)])
    where
        M: Clone,
    {
        (**self).push_fanout(from, msg, sorted);
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
    /// payloads) and identical `len`s. The schedule mixes single pushes
    /// with `push_fanout`s of 0, 1 and 2..=16 recipients (all at one
    /// instant, split over two instants, all distinct), and pops land
    /// mid-fan. `SortedReference` keeps the provided `push_fanout`, so a
    /// subject that overrides it is checked against the definition.
    fn parity_run(
        mut reference: impl EventQueue<u32>,
        mut subject: impl EventQueue<u32>,
        seed: u64,
    ) {
        fn same(a: &QueuedEvent<u32>, b: &QueuedEvent<u32>) {
            assert_eq!(a.seq, b.seq, "pop order diverged at t={}", a.at);
            assert_eq!(a.at.as_secs().to_bits(), b.at.as_secs().to_bits());
            assert_eq!((a.class, a.to), (b.class, b.to), "seq={}", a.seq);
            assert_eq!(a.input, b.input, "payload diverged at seq={}", a.seq);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for _ in 0..2000 {
            let roll = if reference.len() == 0 {
                0
            } else {
                rng.gen_range(0u32..6)
            };
            if roll < 3 {
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
            } else if roll == 3 {
                let k = match rng.gen_range(0u32..4) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(2usize..=16),
                };
                let shape = rng.gen_range(0u32..3);
                let base = now + rng.gen_range(0.0..0.02);
                let mut fan = Vec::new();
                for q in 0..k {
                    let dt = match shape {
                        0 => 0.0,
                        1 => 0.01 * f64::from(rng.gen_range(0u32..2)),
                        _ => rng.gen_range(0.0..0.02),
                    };
                    fan.push((RealTime::from_secs(base + dt), seq, ProcessId(q)));
                    seq += 1;
                }
                fan.sort_by(|a, b| a.0.total_cmp(&b.0));
                reference.push_fanout(ProcessId(k), seq as u32, &fan);
                subject.push_fanout(ProcessId(k), seq as u32, &fan);
            } else {
                let a = reference.pop_next().expect("reference nonempty");
                let b = subject.pop_next().expect("subject nonempty");
                same(&a, &b);
                now = a.at.as_secs();
            }
            assert_eq!(reference.len(), subject.len());
        }
        while let Some(a) = reference.pop_next() {
            let b = subject.pop_next().expect("subject drained early");
            same(&a, &b);
            assert_eq!(reference.len(), subject.len());
        }
        assert!(subject.pop_next().is_none());
        assert!(subject.is_empty());
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
