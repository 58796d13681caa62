//! The simulator judged against the paper: a differential test of the
//! event-driven engine against `wl_core::reference`, §4's round in closed
//! form. Both get the same execution: constant-rate clocks, `CORR⁰`
//! within A4, one fixed in-band delay per directed link, and up to `f`
//! `PullApart` attackers with random early masks and amplitudes. Every
//! update instant and correction the simulator records must agree with
//! the reference to `reference::tolerance` (16 ulps of the largest clock
//! value per round; the function says why). A disagreement is either a
//! simulator bug or a misreading of §4 in the reference; the message
//! names the round and the process to start from.

use proptest::prelude::*;
use wl_clock::drift::FleetClock;
use wl_clock::{Clock, LinearClock};
use wl_core::byzantine::PullApart;
use wl_core::reference::{tolerance, AffineClock, Byzantine, Execution};
use wl_core::{Maintenance, Params, WlMsg};
use wl_sim::delay::{ConstantDelay, PerPairDelay};
use wl_sim::{DynFleet, ProcessId, SimBuilder, SimOutcome};
use wl_time::{ClockTime, RealDur, RealTime};

/// `PullApart`'s sends on its own clock: round `i`'s message goes out at
/// `Tⁱ − a` to the early receivers and at `Tⁱ + a` to the rest.
fn pull_apart_sends(
    p: &Params,
    clock: AffineClock,
    a: f64,
    early: &[bool],
    rounds: usize,
) -> Vec<Vec<f64>> {
    let mut t = p.t0;
    (0..rounds)
        .map(|_| {
            let at = |e: bool| clock.real_time_of(if e { t - a } else { t + a });
            let round = early.iter().map(|&e| at(e)).collect();
            t += p.p_round;
            round
        })
        .collect()
}

/// The same execution on the simulator, built straight through
/// `SimBuilder`; `attack[j]` is byzantine sender `j`'s amplitude and mask.
fn simulate(exec: &Execution, attack: &[(f64, Vec<bool>)], t_end: f64) -> SimOutcome {
    let (p, n) = (exec.params, exec.params.n);
    let clocks: Vec<FleetClock> = exec
        .clocks
        .iter()
        .map(|c| FleetClock::Linear(LinearClock::new(c.rate, ClockTime::from_secs(c.offset))))
        .collect();
    // Every link is fixed; the constant base answers none of them.
    let base = Box::new(ConstantDelay::new(RealDur::from_secs(p.delta)));
    let delay = PerPairDelay::new(n, base, |s, q| Some(RealDur::from_secs(exec.delay[s][q])));
    let mut procs: DynFleet<WlMsg> = (0..n)
        .map(|q| Box::new(Maintenance::new(ProcessId(q), p.clone(), exec.corr0[q])) as _)
        .collect();
    // A4: a nonfaulty START comes when its initial logical clock reads
    // T⁰. An attacker starts at 0, well before its first send.
    let mut starts: Vec<RealTime> = (0..n)
        .map(|q| clocks[q].time_of(ClockTime::from_secs(p.t0 - exec.corr0[q])))
        .collect();
    for (b, (a, early)) in exec.byzantine.iter().zip(attack) {
        procs[b.id] = Box::new(PullApart::with_early_mask(p.clone(), *a, early.clone()));
        starts[b.id] = RealTime::ZERO;
    }
    SimBuilder::new()
        .clocks(clocks)
        .procs(procs)
        .delay(delay)
        .starts(starts)
        .delay_bounds(p.delay_bounds())
        .t_end(RealTime::from_secs(t_end))
        .build()
        .run()
}

proptest! {
    #[test]
    fn simulator_computes_section_4s_round(
        n in 4usize..11,
        f_pick in 0usize..4,
        rho in prop_oneof![Just(0.0), (0.0f64..1.0).prop_map(|x| 1e-4 * (1.0 - x))],
        eps in 0.0002f64..0.002,
        rounds in 4usize..8,
        starts in proptest::collection::vec(0.0f64..0.9, 10),
        rates in proptest::collection::vec(-1.0f64..1.0, 10),
        corr0 in proptest::collection::vec(-1.0f64..1.0, 10),
        links in proptest::collection::vec(-1.0f64..1.0, 100),
        byz_pick in 0usize..4,
        first_byz in 0usize..10,
        masks in proptest::collection::vec(proptest::bool::ANY, 30),
        amps in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let f = f_pick % ((n - 1) / 3 + 1);
        let p = Params::auto(n, f, rho, 0.010, eps).unwrap();
        let ids: Vec<usize> = (0..byz_pick.min(f)).map(|j| (first_byz + j) % n).collect();
        // Offsets follow from A4 start instants drawn within 0.9β: q's
        // initial logical clock reads T⁰ at real time 1 + starts[q]·β.
        // An attacker has no CORR.
        let corr0: Vec<f64> =
            (0..n).map(|q| if ids.contains(&q) { 0.0 } else { corr0[q] * p.beta }).collect();
        let clocks: Vec<AffineClock> = (0..n)
            .map(|q| {
                let rate = 1.0 + rho * rates[q];
                AffineClock { offset: p.t0 - corr0[q] - rate * (1.0 + starts[q] * p.beta), rate }
            })
            .collect();
        let delay: Vec<Vec<f64>> =
            (0..n).map(|s| (0..n).map(|q| p.delta + eps * links[10 * s + q]).collect()).collect();
        let attack: Vec<(f64, Vec<bool>)> = (0..ids.len())
            .map(|j| (amps[j] * (p.beta + p.delta + eps), masks[10 * j..10 * j + n].to_vec()))
            .collect();
        // Two rounds past the last update cover every send that can
        // arrive before it.
        let byzantine: Vec<Byzantine> = ids
            .iter()
            .zip(&attack)
            .map(|(&id, (a, early))| Byzantine {
                id,
                sends: pull_apart_sends(&p, clocks[id], *a, early, rounds + 2),
            })
            .collect();
        let exec = Execution { params: &p, clocks: &clocks, corr0: &corr0, delay: &delay, byzantine: &byzantine };
        let expected = exec.rounds(rounds);
        // (round, process, update instant) of every nonfaulty update.
        let updates = || {
            expected.iter().enumerate().flat_map(|(i, r)| {
                r.update.iter().enumerate().filter(|(_, u)| !u.is_nan()).map(move |(q, &u)| (i, q, u))
            })
        };
        let largest = updates().map(|(_, q, u)| u.abs().max(clocks[q].read(u).abs())).fold(0.0, f64::max);
        let tol = tolerance(largest, rounds);

        // A byzantine message landing within the tolerance of its
        // receiver's update may fall on either side of it in the two
        // evaluations, and then ARR differs by a whole message, not by
        // ulps. (At an exact tie the simulator's order is its queue's,
        // which §4 does not fix.) Nonfaulty messages never come near an
        // update (Lemma 12), so only the attacker's are screened.
        for b in &byzantine {
            for sends in &b.sends {
                for (q, &at) in sends.iter().enumerate() {
                    let arrival = at + delay[b.id][q];
                    prop_assume!(updates().all(|(_, r, u)| r != q || (arrival - u).abs() > 2.0 * tol));
                }
            }
        }

        let t_end = updates().map(|(_, _, u)| u).fold(0.0, f64::max) + p.p_round / 2.0;
        let sim = simulate(&exec, &attack, t_end);
        for (i, q, u) in updates() {
            let c = expected[i].corr[q];
            let recorded = sim.corr[q].entries().get(i + 1);
            prop_assert!(
                recorded.is_some_and(|&(at, corr)| (at.as_secs() - u).abs() <= tol && (corr - c).abs() <= tol),
                "round {i}, process {q}: the simulator's update is {recorded:?}, \
                 the reference's ({u}, {c:e}) (tolerance {tol:e})"
            );
        }
    }
}
