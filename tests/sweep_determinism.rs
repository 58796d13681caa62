//! The sweep contract: a 64-scenario grid produces identical
//! results at any thread count, and grid seeds are stable.

use welch_lynch::core::Params;
use welch_lynch::harness::{derive_seed, DelayKind, ScenarioSpec, SweepRequest};
use welch_lynch::harness::{FaultKind, Maintenance};
use welch_lynch::sim::ProcessId;
use welch_lynch::time::RealTime;

/// A 64-point grid mixing seeds, delay models, and fault presence —
/// the shape a scaling experiment actually sweeps.
fn grid64() -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..64u64)
        .map(|i| {
            let mut spec = ScenarioSpec::new(params.clone())
                .seed(derive_seed(0xC10C_C10C, i))
                .delay(delays[(i % 3) as usize])
                .t_end(RealTime::from_secs(2.0));
            if i % 4 == 0 {
                spec = spec.fault(ProcessId(3), FaultKind::Silent);
            }
            spec
        })
        .collect()
}

#[test]
fn sweep_64_grid_identical_at_every_thread_count() {
    let baseline = SweepRequest::new().threads(1).run::<Maintenance>(grid64());
    assert_eq!(baseline.len(), 64);
    for threads in [2usize, 4, 8] {
        let wide = SweepRequest::new()
            .threads(threads)
            .run::<Maintenance>(grid64());
        assert_eq!(wide.len(), baseline.len());
        for (a, b) in baseline.iter().zip(&wide) {
            assert_eq!(a.index, b.index, "order must match the input grid");
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.stats, b.stats,
                "threads={threads}: simulator counters differ"
            );
            assert!(
                a.steady_skew == b.steady_skew && a.max_skew == b.max_skew,
                "threads={threads}: measured skews differ at grid point {}",
                a.index
            );
            assert_eq!(a.max_abs_adjustment, b.max_abs_adjustment);
        }
    }
}

#[test]
fn derived_seeds_are_stable_across_runs() {
    // Pinned literals: changing `derive_seed` silently re-seeds every sweep
    // in the repo, so make that an explicit decision by updating these.
    let s: Vec<u64> = (0..4).map(|i| derive_seed(1, i)).collect();
    assert_eq!(
        s,
        vec![
            0x910A_2DEC_8902_5CC1,
            0x6078_BF18_0FF8_632F,
            0x09A2_3C3A_0FFE_DFE9,
            0x3FA6_6524_0947_3294,
        ]
    );
    assert_eq!(s.iter().collect::<std::collections::HashSet<_>>().len(), 4);
}
