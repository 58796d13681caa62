//! Property tests for the pluggable event queue: the Welch–Lynch
//! theorems hold under **any interleaving-legal queue**, not just the
//! FIFO-tie-break heap.
//!
//! §2.3 constrains delivery order only by (1) delivery real time and
//! (2) TIMERs after ordinary messages at the same instant. The `seq`
//! tie-break among same-instant, same-class events is a simulator
//! convention, not a model guarantee — so a queue that permutes those
//! ties arbitrarily is still a legal execution of the model, and
//! Theorem 16 (agreement) and the adjustment bound (Lemma 10) must
//! survive it. [`ShuffledTieQueue`] below does exactly that, with a
//! seeded permutation so failures replay.

mod common;

use common::ShuffledTieQueue;
use proptest::prelude::*;
use welch_lynch::core::Params;
use welch_lynch::harness::{
    assemble_enum_with_queue, assemble_with_queue, run, DelayKind, FaultKind, Maintenance,
    ScenarioSpec,
};
use welch_lynch::sim::ProcessId;
use welch_lynch::time::RealTime;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Agreement (Theorem 16) and the adjustment bound survive arbitrary
    /// legal tie-breaking, across seeds, delay models, and fleet sizes.
    #[test]
    fn prop_agreement_under_any_legal_interleaving(
        seed in 0u64..10_000,
        salt in 1u64..u64::MAX,
        delay_idx in 0usize..4,
        n_idx in 0usize..3,
    ) {
        let (n, f) = [(4, 1), (5, 1), (7, 2)][n_idx];
        let params = Params::auto(n, f, 1e-6, 0.010, 0.001).expect("feasible");
        let t_end = 15.0;
        let delay = [
            DelayKind::Constant,
            DelayKind::Uniform,
            DelayKind::AdversarialSplit,
            DelayKind::SharedMedium,
        ][delay_idx];
        let spec = ScenarioSpec::new(params.clone())
            .seed(seed)
            .delay(delay)
            .t_end(RealTime::from_secs(t_end));
        let built = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt));
        let summary = run::run_summary(built, t_end);
        prop_assert!(
            summary.agreement.holds,
            "Theorem 16 violated under shuffled ties: max skew {} > gamma {}",
            summary.agreement.max_skew,
            summary.agreement.gamma,
        );
        prop_assert!(
            summary.adjustments.holds,
            "adjustment bound violated under shuffled ties: {} > {}",
            summary.adjustments.max_abs,
            summary.adjustments.bound,
        );
        prop_assert_eq!(summary.stats.timers_suppressed, 0);
    }

    /// Same spec, different tie permutations: counters that only count
    /// *what* happened (not in which tie order) are permutation-invariant.
    #[test]
    fn prop_event_counts_tie_invariant(
        seed in 0u64..1_000,
        salt_a in 1u64..u64::MAX,
        salt_b in 1u64..u64::MAX,
    ) {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).expect("feasible");
        let spec = ScenarioSpec::new(params)
            .seed(seed)
            .delay(DelayKind::Constant)
            .t_end(RealTime::from_secs(8.0));
        let a = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt_a))
            .sim
            .run();
        let b = assemble_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt_b))
            .sim
            .run();
        // With a constant delay model the delay RNG is never consulted,
        // so the two runs see identical message timings; only tie order
        // differs, and the aggregate counters must agree.
        prop_assert_eq!(a.stats, b.stats);
    }

    /// The theorems also survive arbitrary legal tie-breaking when the
    /// fleet runs on the enum-dispatched fast path with a designated
    /// Byzantine attacker in it: the `f`-resilient bounds hold for the
    /// nonfaulty processes no matter how ties resolve.
    #[test]
    fn prop_agreement_enum_fleet_under_any_legal_interleaving(
        seed in 0u64..10_000,
        salt in 1u64..u64::MAX,
        n_idx in 0usize..3,
    ) {
        let (n, f) = [(4, 1), (5, 1), (7, 2)][n_idx];
        let params = Params::auto(n, f, 1e-6, 0.010, 0.001).expect("feasible");
        let attack = params.beta / 2.0;
        let t_end = 15.0;
        let spec = ScenarioSpec::new(params)
            .seed(seed)
            .delay(DelayKind::Uniform)
            .fault(ProcessId(0), FaultKind::TwoFaced(attack))
            .t_end(RealTime::from_secs(t_end));
        let built = assemble_enum_with_queue::<Maintenance, _>(&spec, ShuffledTieQueue::new(salt))
            .expect("faulted spec rides the enum path");
        let summary = run::run_summary_enum(built, t_end);
        prop_assert!(
            summary.agreement.holds,
            "Theorem 16 violated by enum fleet under shuffled ties: max skew {} > gamma {}",
            summary.agreement.max_skew,
            summary.agreement.gamma,
        );
        prop_assert!(
            summary.adjustments.holds,
            "adjustment bound violated by enum fleet under shuffled ties: {} > {}",
            summary.adjustments.max_abs,
            summary.adjustments.bound,
        );
    }
}
