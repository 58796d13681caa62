//! Property-based end-to-end tests: agreement and safety invariants hold
//! for randomized feasible parameters, seeds, drift models, and fault
//! mixes — not just the hand-picked configurations.

use proptest::prelude::*;
use welch_lynch::analysis::adjustment::check_adjustments;
use welch_lynch::analysis::agreement::check_agreement;
use welch_lynch::analysis::ExecutionView;
use welch_lynch::clock::drift::DriftModel;
use welch_lynch::core::Params;
use welch_lynch::harness::{assemble, DelayKind, FaultKind, Maintenance, ScenarioSpec};
use welch_lynch::sim::ProcessId;
use welch_lynch::time::{RealDur, RealTime};

fn arb_fault(beta: f64) -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Silent),
        Just(FaultKind::RoundSpam),
        (5.0f64..30.0).prop_map(FaultKind::CrashAt),
        (0.1f64..1.0).prop_map(move |k| FaultKind::PullApart(k * beta)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Theorem 16 under randomized conditions: any feasible parameters,
    /// any seed, any delay model, any single-fault behaviour.
    #[test]
    fn prop_agreement_holds_randomized(
        seed in 0u64..10_000,
        rho_exp in 1.0f64..3.0,            // rho in [1e-6, 1e-4]-ish
        eps_frac in 0.01f64..0.2,          // eps = frac * delta
        delay_idx in 0usize..4,
        fault in proptest::option::of(arb_fault(1.0)), // beta scaled below
        victim in 0usize..4,
        drift_split in proptest::bool::ANY,
    ) {
        let rho = 10f64.powf(-3.0 - rho_exp);
        let delta = 0.010;
        let eps = eps_frac * delta;
        let params = Params::auto(4, 1, rho, delta, eps).expect("feasible");
        let delay = [
            DelayKind::Constant,
            DelayKind::Uniform,
            DelayKind::AdversarialSplit,
            DelayKind::SharedMedium,
        ][delay_idx];
        let drift = if drift_split {
            DriftModel::Split { rho }
        } else {
            DriftModel::RandomConstant { rho }
        };
        let t_end = 20.0;
        let mut spec = ScenarioSpec::new(params.clone())
            .seed(seed)
            .delay(delay)
            .drift(drift)
            .t_end(RealTime::from_secs(t_end));
        if let Some(f) = fault {
            // Rescale pull-apart amplitude to the actual beta.
            let f = match f {
                FaultKind::PullApart(k) => FaultKind::PullApart(k * params.beta),
                other => other,
            };
            spec = spec.fault(ProcessId(victim), f);
        }
        let built = assemble::<Maintenance>(&spec);
        let plan = built.plan.clone();
        let mut sim = built.sim;
        let outcome = sim.run();
        prop_assert_eq!(outcome.stats.timers_suppressed, 0);
        let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
        let report = check_agreement(
            &view,
            &params,
            RealTime::from_secs(params.t0 + 2.0 * params.p_round),
            RealTime::from_secs(t_end * 0.95),
            RealDur::from_secs(params.p_round / 5.0),
        );
        prop_assert!(report.holds, "agreement violated: {:?} (params {:?})", report, params);

        let adj = check_adjustments(&view, &params, 1);
        prop_assert!(adj.holds, "adjustment bound violated: {:?}", adj);
    }

    /// The simulator is deterministic: identical seeds give identical
    /// correction histories.
    #[test]
    fn prop_execution_deterministic(seed in 0u64..1000) {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let run = |seed| {
            let built = assemble::<Maintenance>(
                &ScenarioSpec::new(params.clone())
                    .seed(seed)
                    .t_end(RealTime::from_secs(8.0)),
            );
            let mut sim = built.sim;
            sim.run().corr
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b);
    }

    /// Feasible parameter derivation is robust across the hardware space.
    #[test]
    fn prop_params_auto_always_feasible(
        rho_exp in 0.0f64..4.0,
        delta_ms in 0.5f64..200.0,
        eps_frac in 0.001f64..0.5,
        f in 1usize..5,
    ) {
        let rho = 10f64.powf(-3.0 - rho_exp);
        let delta = delta_ms * 1e-3;
        let eps = eps_frac * delta;
        let n = 3 * f + 1;
        let params = Params::auto(n, f, rho, delta, eps).expect("must derive");
        prop_assert!(params.validate().is_ok());
        prop_assert!(params.p_round >= params.min_p());
        prop_assert!(params.p_round <= params.max_p());
        // The derived beta respects the paper floor beta > 4 eps.
        prop_assert!(params.beta > 4.0 * eps);
    }
}
