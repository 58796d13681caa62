//! End-to-end integration tests: the maintenance algorithm achieves
//! γ-agreement (Theorem 16) in full simulated executions.

use wl_analysis::adjustment::check_adjustments;
use wl_analysis::agreement::check_agreement;
use wl_analysis::ExecutionView;
use wl_core::WlMsg;
use wl_core::{theory, Params};
use wl_harness::{
    assemble, derive_seed, BuiltScenario, DelayKind, FaultKind, Maintenance, ScenarioSpec,
    SweepRequest,
};
use wl_sim::trace::TraceEvent;
use wl_sim::ProcessId;
use wl_time::{RealDur, RealTime};

fn run_and_check(
    built: BuiltScenario<WlMsg>,
    t_end: f64,
) -> wl_analysis::agreement::AgreementReport {
    let params = built.params.clone();
    let plan = built.plan.clone();
    let mut sim = built.sim;
    let outcome = sim.run();
    assert_eq!(
        outcome.stats.timers_suppressed, 0,
        "Theorem 4(b): no nonfaulty timer may land in the past"
    );
    let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
    // Start checking after the latest start (the theorem's tmin0 suffices,
    // but tmax0 is cleaner for the first sample) and after one full round.
    let from = RealTime::from_secs(params.t0 + 2.0 * params.p_round);
    check_agreement(
        &view,
        &params,
        from,
        RealTime::from_secs(t_end * 0.98),
        RealDur::from_secs(params.p_round / 7.0),
    )
}

#[test]
fn fault_free_n4_agreement_holds() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let t_end = 60.0;
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params)
            .seed(11)
            .t_end(RealTime::from_secs(t_end)),
    );
    let r = run_and_check(built, t_end);
    assert!(r.holds, "agreement violated: {r:?}");
    // The bound should not be vacuous: the algorithm does real work, the
    // skew is nonzero but well inside gamma.
    assert!(r.max_skew > 0.0);
}

#[test]
fn agreement_holds_across_seeds_and_delay_models() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    for seed in [1, 2, 3] {
        for delay in [
            DelayKind::Constant,
            DelayKind::Uniform,
            DelayKind::AdversarialSplit,
        ] {
            let built = assemble::<Maintenance>(
                &ScenarioSpec::new(params.clone())
                    .seed(seed)
                    .delay(delay)
                    .t_end(RealTime::from_secs(40.0)),
            );
            let r = run_and_check(built, 40.0);
            assert!(r.holds, "seed={seed} delay={delay:?}: {r:?}");
        }
    }
}

#[test]
fn agreement_holds_with_silent_fault() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params)
            .seed(5)
            .fault(ProcessId(3), FaultKind::Silent)
            .t_end(RealTime::from_secs(40.0)),
    );
    let r = run_and_check(built, 40.0);
    assert!(r.holds, "{r:?}");
}

#[test]
fn agreement_holds_with_crash_mid_run() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params)
            .seed(6)
            .fault(ProcessId(2), FaultKind::CrashAt(15.0))
            .t_end(RealTime::from_secs(40.0)),
    );
    let r = run_and_check(built, 40.0);
    assert!(r.holds, "{r:?}");
}

#[test]
fn agreement_holds_with_round_spammer() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params)
            .seed(7)
            .fault(ProcessId(1), FaultKind::RoundSpam)
            .t_end(RealTime::from_secs(40.0)),
    );
    let r = run_and_check(built, 40.0);
    assert!(r.holds, "{r:?}");
}

#[test]
fn agreement_holds_with_pull_apart_attacker() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let amp = params.beta / 2.0;
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params)
            .seed(8)
            .fault(ProcessId(0), FaultKind::PullApart(amp))
            .t_end(RealTime::from_secs(40.0)),
    );
    let r = run_and_check(built, 40.0);
    assert!(r.holds, "{r:?}");
}

/// A pull-apart of amplitude 0 sends both halves at `Tⁱ`, every round:
/// its late instant is its early one, and a timer set for the current
/// instant would be suppressed (§2.2).
#[test]
fn zero_amplitude_pull_apart_sends_every_round() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let rounds = 5;
    let t_end = params.t0 + (rounds as f64 - 0.5) * params.p_round;
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params.clone())
            .seed(8)
            .fault(ProcessId(0), FaultKind::PullApart(0.0))
            .t_end(RealTime::from_secs(t_end))
            .trace(100_000),
    );
    let mut sim = built.sim;
    let outcome = sim.run();
    assert_eq!(outcome.stats.timers_suppressed, 0);
    let mut sends_per_round = vec![0; rounds];
    for ev in outcome.trace.events() {
        if let TraceEvent::Send { from, at, .. } = ev {
            if *from == ProcessId(0) {
                let round = ((at.as_secs() - params.t0) / params.p_round).round() as usize;
                sends_per_round[round] += 1;
            }
        }
    }
    assert_eq!(sends_per_round, vec![params.n; rounds]);
}

#[test]
fn agreement_holds_n7_f2_two_byzantine() {
    let params = Params::auto(7, 2, 1e-6, 0.010, 0.001).unwrap();
    let amp = params.beta / 2.0;
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params)
            .seed(9)
            .fault(ProcessId(0), FaultKind::PullApart(amp))
            .fault(ProcessId(4), FaultKind::RoundSpam)
            .t_end(RealTime::from_secs(40.0)),
    );
    let r = run_and_check(built, 40.0);
    assert!(r.holds, "{r:?}");
}

/// Lemma 10's fixed point, reached: an adversarial split of the delay
/// band plus `f` pull-apart attackers of amplitude β drive the steady
/// skew to at least 4ε, against the recurrence β' ≤ β/2 + 2ε + 2ρP
/// whose fixed point is `steady_state_beta` = 4ε + 4ρP — and Theorem 16
/// still holds. Both executions settle at 4.000155 ms (ε = 1 ms; the
/// fixed point is 4.000248 ms, γ = 5.5 ms). Two fixed specs, not a seed
/// sweep: the claim is that the bound is reached by *some* execution,
/// and over other seeds the same shape may settle at 2ε.
#[test]
fn split_band_and_pull_apart_reach_lemma_10s_fixed_point() {
    for (n, f) in [(4, 1), (7, 2)] {
        let params = Params::auto(n, f, 1e-6, 0.010, 0.001).unwrap();
        let mut spec = ScenarioSpec::new(params.clone())
            .seed(derive_seed(0xAD5E, (8 * n + f) as u64))
            .delay(DelayKind::AdversarialSplit)
            .t_end(RealTime::from_secs(6.0));
        for p in 0..f {
            spec = spec.fault(ProcessId(p), FaultKind::PullApart(params.beta));
        }
        let o = &SweepRequest::new()
            .threads(1)
            .run::<Maintenance>(vec![spec])[0];
        let fixed_point = theory::steady_state_beta(&params);
        assert!(
            4.0 * params.eps <= o.steady_skew && o.steady_skew <= fixed_point,
            "n={n} f={f}: steady skew {} outside [4ε, {fixed_point}]",
            o.steady_skew
        );
        assert!(
            o.max_skew <= theory::gamma(&params),
            "n={n} f={f}: max skew {} above γ",
            o.max_skew
        );
        assert!(
            o.agreement_holds && o.adjustment_holds,
            "n={n} f={f}: {o:?}"
        );
    }
}

#[test]
fn adjustments_respect_theorem_4a() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let plan;

    let mut sim = {
        let built = assemble::<Maintenance>(
            &ScenarioSpec::new(params.clone())
                .seed(13)
                .t_end(RealTime::from_secs(60.0)),
        );
        plan = built.plan;
        built.sim
    };
    let outcome = sim.run();
    let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
    let r = check_adjustments(&view, &params, 1);
    assert!(r.count > 0);
    assert!(
        r.holds,
        "adjustment bound violated: max {} vs bound {}",
        r.max_abs, r.bound
    );
    // Steady-state adjustments should be comfortably below the bound too.
    assert!(r.mean_abs < theory::adjustment_bound(&params));
}
