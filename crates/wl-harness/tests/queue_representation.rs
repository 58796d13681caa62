//! The engine queue's one-entry-per-broadcast representation cannot be
//! seen from outside: every scenario assembled on [`HeapQueue`] (which
//! overrides `EventQueue::push_fanout`) runs event for event like the
//! same scenario on a plain binary heap that keeps the provided
//! `push_fanout` — one `push` per recipient, the method's definition.
//!
//! All six algorithms × the four delay models × {fault-free, a
//! two-faced attacker (`Silent` for startup, the one fault it realizes),
//! a rejoiner for the two algorithms that have one}; compared: the
//! counters, every correction history bit for bit, and the structured
//! trace (its first 16 384 events).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wl_core::{Params, StartupParams};
use wl_harness::{
    assemble, assemble_with_queue, DelayKind, FaultKind, LmCnv, MahaneySchneider, Maintenance,
    Rejoiner, ScenarioSpec, SrikanthToueg, Startup, SyncAlgorithm,
};
use wl_sim::{EventQueue, ProcessId, QueuedEvent};
use wl_time::RealTime;

/// `BinaryHeap<Reverse<QueuedEvent>>` and nothing else — the engine
/// queue as it was before broadcasts shared an entry.
struct PlainHeap<M>(BinaryHeap<Reverse<QueuedEvent<M>>>);

impl<M: Send> EventQueue<M> for PlainHeap<M> {
    fn push(&mut self, ev: QueuedEvent<M>) {
        self.0.push(Reverse(ev));
    }
    fn pop_next(&mut self) -> Option<QueuedEvent<M>> {
        self.0.pop().map(|r| r.0)
    }
    fn len(&self) -> usize {
        self.0.len()
    }
}

fn assert_same_execution<A: SyncAlgorithm>(spec: &ScenarioSpec, what: &str) {
    let spec = spec.clone().trace(1 << 14);
    let plain = assemble_with_queue::<A, _>(&spec, PlainHeap(BinaryHeap::new()))
        .sim
        .run();
    let fanned = assemble::<A>(&spec).sim.run();
    let label = format!("{} / {:?} / {what}", A::NAME, spec.delay);
    assert!(plain.stats.messages_sent > 0, "{label}: nothing was sent");
    assert_eq!(plain.stats, fanned.stats, "{label}: counters");
    let bits = |outcome: &wl_sim::SimOutcome| -> Vec<Vec<(u64, u64)>> {
        let entry_bits = |&(t, c): &(RealTime, f64)| (t.as_secs().to_bits(), c.to_bits());
        outcome
            .corr
            .iter()
            .map(|h| h.entries().iter().map(entry_bits).collect())
            .collect()
    };
    assert_eq!(bits(&plain), bits(&fanned), "{label}: correction histories");
    assert_eq!(
        format!("{:?}", plain.trace.events()),
        format!("{:?}", fanned.trace.events()),
        "{label}: trace"
    );
}

/// Every variant under every delay model.
fn check<A: SyncAlgorithm>(variants: &[(&str, &ScenarioSpec)]) {
    for delay in [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
        DelayKind::SharedMedium,
    ] {
        for (what, spec) in variants {
            assert_same_execution::<A>(&(*spec).clone().delay(delay), what);
        }
    }
}

#[test]
fn fanned_and_plain_heaps_run_the_same_execution() {
    let aligned = |n, f| {
        let params = Params::auto(n, f, 1e-6, 0.010, 0.001).expect("feasible");
        ScenarioSpec::new(params)
            .seed(23)
            .t_end(RealTime::from_secs(4.0))
    };
    let two_faced = FaultKind::TwoFaced(0.002);
    let repair_at = RealTime::from_secs(1.5);
    let clean = &aligned(4, 1);
    let attacked = &clean.clone().fault(ProcessId(0), two_faced);
    let repaired = &clean.clone().rejoiner(ProcessId(1), repair_at);
    let both = &aligned(7, 2)
        .fault(ProcessId(0), two_faced)
        .rejoiner(ProcessId(1), repair_at);
    let plain = [("clean", clean), ("two-faced", attacked)];
    check::<Maintenance>(&[plain[0], plain[1], ("rejoiner", repaired)]);
    check::<Rejoiner>(&[("rejoiner", repaired), ("rejoiner + two-faced", both)]);
    check::<LmCnv>(&plain);
    check::<MahaneySchneider>(&plain);
    check::<SrikanthToueg>(&plain);

    let sp = StartupParams::new(4, 1, 1e-6, 0.010, 0.001).expect("feasible");
    let cold = &ScenarioSpec::startup(&sp, 5.0)
        .seed(23)
        .t_end(RealTime::from_secs(3.0));
    let muted = &cold.clone().fault(ProcessId(2), FaultKind::Silent);
    check::<Startup>(&[("clean", cold), ("silent", muted)]);
}
