//! Integration tests for the convergence claims (Lemma 10) and the §7
//! variants (k exchanges per round, mean averaging).

use welch_lynch::analysis::convergence::round_series;
use welch_lynch::analysis::ExecutionView;
use welch_lynch::core::{theory, AveragingFn, Params};
use welch_lynch::harness::{assemble, DelayKind, FaultKind, Maintenance, ScenarioSpec};
use welch_lynch::sim::ProcessId;
use welch_lynch::time::{RealDur, RealTime};

fn wide_params() -> Params {
    let (rho, delta, eps) = (1e-6, 0.010, 0.001);
    let beta = 50.0 * eps;
    let p = 2.0 * welch_lynch::core::params::min_p(rho, delta, eps, beta);
    Params::new(4, 1, rho, delta, eps, beta, p).unwrap()
}

fn run_rounds(params: &Params, adversarial: bool, seed: u64) -> Vec<f64> {
    let t_end = params.t0 + 14.0 * params.p_round;
    let mut spec = ScenarioSpec::new(params.clone())
        .seed(seed)
        .spread_frac(0.95)
        .t_end(RealTime::from_secs(t_end));
    if adversarial {
        spec = spec
            .delay(DelayKind::AdversarialSplit)
            .fault(ProcessId(0), FaultKind::PullApart(params.beta / 2.0));
    }
    let built = assemble::<Maintenance>(&spec);
    let plan = built.plan.clone();
    let mut sim = built.sim;
    let outcome = sim.run();
    let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
    round_series(&view, RealDur::from_secs(params.p_round / 4.0)).skews
}

#[test]
fn lemma10_recurrence_holds_every_round() {
    let params = wide_params();
    for adversarial in [false, true] {
        let skews = run_rounds(&params, adversarial, 7);
        assert!(skews.len() >= 10);
        for w in skews.windows(2) {
            let bound = theory::round_recurrence(&params, w[0]);
            assert!(
                w[1] <= bound * 1.05 + 1e-12,
                "adversarial={adversarial}: {} -> {} exceeds bound {bound}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn adversarial_execution_converges_to_4eps_fixed_point() {
    let params = wide_params();
    let skews = run_rounds(&params, true, 7);
    let fixed_point = theory::steady_state_beta(&params);
    let last = *skews.last().unwrap();
    // The worst case rides the recurrence exactly (see `paper_report
    // halving`), so the final value is within 5% of the predicted fixed
    // point.
    assert!(
        (last - fixed_point).abs() / fixed_point < 0.05,
        "final skew {last} vs fixed point {fixed_point}"
    );
}

#[test]
fn mean_contraction_rate_matches_paper_formula() {
    // Under the worst case, the mean variant contracts at f/(n-2f).
    let (rho, delta, eps) = (1e-6, 0.010, 0.001);
    let beta = 50.0 * eps;
    let p = 2.0 * welch_lynch::core::params::min_p(rho, delta, eps, beta);
    for n in [6usize, 8] {
        let mut params = Params::new(n, 1, rho, delta, eps, beta, p).unwrap();
        params.avg = AveragingFn::Mean;
        let t_end = params.t0 + 14.0 * params.p_round;
        let built = assemble::<Maintenance>(
            &ScenarioSpec::new(params.clone())
                .seed(55)
                .spread_frac(0.95)
                .delay(DelayKind::AdversarialSplit)
                .fault(ProcessId(0), FaultKind::PullApart(params.beta / 2.0))
                .t_end(RealTime::from_secs(t_end)),
        );
        let plan = built.plan.clone();
        let mut sim = built.sim;
        let outcome = sim.run();
        let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
        let series = round_series(&view, RealDur::from_secs(params.p_round / 4.0));
        let c = series.contraction_factor().expect("enough rounds");
        let predicted = AveragingFn::Mean.convergence_rate(n, 1);
        assert!(
            (c - predicted).abs() < 0.08,
            "n={n}: contraction {c} vs predicted {predicted}"
        );
    }
}

#[test]
fn k_exchange_variant_synchronizes() {
    let (rho, delta, eps) = (1e-4, 0.010, 1e-4);
    let p_round = 2.0;
    let beta = Params::min_beta_for(rho, delta, eps, p_round).unwrap() * 1.3;
    for k in [2usize, 3] {
        let params = Params::new(4, 1, rho, delta, eps, beta, p_round)
            .unwrap()
            .with_exchanges(k)
            .unwrap();
        let built = assemble::<Maintenance>(
            &ScenarioSpec::new(params.clone())
                .seed(77)
                .t_end(RealTime::from_secs(30.0)),
        );
        let plan = built.plan.clone();
        let mut sim = built.sim;
        let outcome = sim.run();
        assert_eq!(outcome.stats.timers_suppressed, 0, "k={k}");
        let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
        let skew = welch_lynch::analysis::skew::SkewSeries::sample_with_events(
            &view,
            RealTime::from_secs(15.0),
            RealTime::from_secs(29.0),
            RealDur::from_secs(p_round / 5.0),
        )
        .max();
        assert!(skew < theory::gamma(&params), "k={k}: skew {skew}");
    }
}

#[test]
fn staggered_variant_synchronizes_in_simulation() {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001)
        .unwrap()
        .with_stagger(5e-4)
        .unwrap();
    let built = assemble::<Maintenance>(
        &ScenarioSpec::new(params.clone())
            .seed(13)
            .t_end(RealTime::from_secs(30.0)),
    );
    let plan = built.plan.clone();
    let mut sim = built.sim;
    let outcome = sim.run();
    assert_eq!(outcome.stats.timers_suppressed, 0);
    let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
    let skew = welch_lynch::analysis::skew::SkewSeries::sample_with_events(
        &view,
        RealTime::from_secs(15.0),
        RealTime::from_secs(29.0),
        RealDur::from_secs(params.p_round / 5.0),
    )
    .max();
    assert!(skew < theory::gamma(&params), "stagger: skew {skew}");
}
