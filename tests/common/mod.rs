//! Helpers shared by the root integration-test binaries.
//!
//! Currently: [`ShuffledTieQueue`], an interleaving-legal event queue
//! that permutes same-instant same-class ties pseudo-randomly. Used by
//! `queue_properties.rs` (the theorems survive any legal tie-breaking)
//! and `adversary_determinism.rs` (adversarial runs replay under any
//! legal tie-breaking).

use welch_lynch::sim::{EventQueue, QueuedEvent};

/// Orders by `(at, class, mix(seq))` instead of `(at, class, seq)`:
/// time-legal and §2.3-property-4-legal, but same-instant same-class
/// ties resolve in a seeded pseudo-random order.
pub struct ShuffledTieQueue<M> {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<Keyed<M>>>,
    salt: u64,
}

struct Keyed<M> {
    tie: u64,
    ev: QueuedEvent<M>,
}

impl<M> PartialEq for Keyed<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl<M> Eq for Keyed<M> {}
impl<M> PartialOrd for Keyed<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Keyed<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ev
            .at
            .total_cmp(&other.ev.at)
            .then_with(|| self.ev.class.cmp(&other.ev.class))
            .then_with(|| self.tie.cmp(&other.tie))
            .then_with(|| self.ev.seq.cmp(&other.ev.seq))
    }
}

fn mix(seq: u64, salt: u64) -> u64 {
    // SplitMix64 finalizer: a seeded permutation of the tie-break space.
    let mut z = seq ^ salt;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<M> ShuffledTieQueue<M> {
    /// A queue whose tie permutation is derived from `salt`.
    pub fn new(salt: u64) -> Self {
        Self {
            heap: std::collections::BinaryHeap::new(),
            salt,
        }
    }
}

impl<M: Send> EventQueue<M> for ShuffledTieQueue<M> {
    fn push(&mut self, ev: QueuedEvent<M>) {
        let tie = mix(ev.seq, self.salt);
        self.heap.push(std::cmp::Reverse(Keyed { tie, ev }));
    }
    fn pop_next(&mut self) -> Option<QueuedEvent<M>> {
        self.heap.pop().map(|r| r.0.ev)
    }
    fn len(&self) -> usize {
        self.heap.len()
    }
}
