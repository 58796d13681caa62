//! The adversary grammar's realization: each [`AdversaryStrategy`] mapped
//! onto the `wl-sim` mechanism it runs on.
//!
//! The paper's skew bound ε(1+ρ) + ρ(4d+4ε) is a worst-case guarantee
//! over every admissible adversary: arbitrary (Byzantine) behaviour from
//! up to `f` processes (A2) plus arbitrary per-message delay scheduling
//! within `[δ−ε, δ+ε]` (A3). `wl-sim` models both, so this module builds
//! neither again; it only decides which one a strategy is:
//!
//! * behaviour strategies become member automata ([`canonical_member`]):
//!   the legacy-equivalent ones are exactly the automata the [`FaultKind`]
//!   gallery builds, and [`AdversaryStrategy::Churn`] wraps the member's
//!   correct automaton in [`wl_sim::faults::Churn`];
//! * delay-only strategies ([`AdversaryStrategy::TargetedDelay`],
//!   [`AdversaryStrategy::Partition`]) keep every member correct and fix
//!   chosen links to an edge of the band on a
//!   [`wl_sim::delay::PerPairDelay`] over the scenario's base model.
//!
//! No realization draws from [`AdversarySpec::seed`]; it stays in the
//! content hash, the canon and the wire so a future randomized strategy
//! needs no format change.
//!
//! Scenario plumbing lives in [`mod@crate::assemble`]: adversary members
//! join the [`FaultPlan`](wl_sim::faults::FaultPlan) (unless the
//! strategy is delay-only — in-band delay scheduling is the
//! *environment's* prerogative under A3, so those members stay
//! designated-correct), and [`AdversarySpec`] rides
//! [`crate::ScenarioSpec`] through the cache, segment store, service
//! wire codec, and frontier driver unchanged.

use crate::algo::{AssemblyCtx, FleetRole, SyncAlgorithm};
use crate::spec::{AdversarySpec, AdversaryStrategy, FaultKind, ScenarioSpec};
use wl_sim::delay::{DelayModel, PerPairDelay};
use wl_sim::faults::Churn;
use wl_sim::{Automaton, ProcessId};

/// Puts a delay-only strategy's links on a [`PerPairDelay`] over the
/// scenario's base delay model; behaviour strategies leave `base` as is.
///
/// * [`AdversaryStrategy::TargetedDelay`]: member→victim links ride the
///   ceiling δ+ε, victim→member links the floor δ−ε — the victim hears
///   the members as late as possible and is heard as early as possible,
///   skewing every mutual clock estimate in opposite directions.
/// * [`AdversaryStrategy::Partition`]: member↔member links ride the
///   ceiling, member↔non-member links the floor — a soft partition
///   entirely inside the admissible band.
///
/// Every other link defers to `base`, whose RNG stream is drawn only by
/// those links.
///
/// # Panics
///
/// Panics if a member, or the victim, is not a process of the scenario.
pub(crate) fn wrap_delay_model(
    spec: &ScenarioSpec,
    base: Box<dyn DelayModel>,
) -> Box<dyn DelayModel> {
    let Some(adv) = &spec.adversary else {
        return base;
    };
    let n = spec.params.n;
    let mut member = vec![false; n];
    for m in &adv.members {
        assert!(m.index() < n, "adversary member {m} out of range");
        member[m.index()] = true;
    }
    let victim = match adv.strategy {
        AdversaryStrategy::TargetedDelay { victim } => {
            assert!(victim < n, "targeted-delay victim {victim} out of range");
            Some(victim)
        }
        AdversaryStrategy::Partition => None,
        _ => return base,
    };
    let bounds = spec.params.delay_bounds();
    let (floor, ceiling) = (bounds.min_delay(), bounds.max_delay());
    Box::new(PerPairDelay::new(n, base, |from, to| {
        let (fm, tm) = (member[from], member[to]);
        match victim {
            Some(v) if fm && to == v => Some(ceiling),
            Some(v) if from == v && tm => Some(floor),
            None if fm && tm => Some(ceiling),
            None if fm != tm => Some(floor),
            _ => None,
        }
    }))
}

/// Realizes an [`AdversarySpec`] for one member under algorithm `A`:
/// the canonical construction behind
/// [`SyncAlgorithm::adversary_member`].
///
/// The legacy-equivalent strategies box
/// [`SyncAlgorithm::fleet_automaton`]'s realization of the corresponding
/// [`FaultKind`], building **exactly** the automata the static gallery
/// builds (pinned by the `adversary_determinism` tests) — so each
/// algorithm's supported set, and its panic on unsupported kinds, carries
/// over unchanged. [`AdversaryStrategy::Churn`] is realized generically
/// by wrapping the algorithm's correct automaton in [`Churn`].
/// Delay-only strategies build the member's *correct* automaton (the
/// attack lives in the delay model's fixed links).
///
/// # Panics
///
/// Panics if the algorithm has no realization of the mapped fault kind,
/// or a churn phase is not positive.
pub fn canonical_member<A: SyncAlgorithm>(
    spec: &ScenarioSpec,
    id: ProcessId,
    adv: &AdversarySpec,
    ctx: &AssemblyCtx<'_>,
) -> Box<dyn Automaton<Msg = A::Msg>> {
    let boxed = |role| {
        A::fleet_automaton(spec, id, role, ctx)
            .expect("fleet_automaton realizes correct and designated-faulty roles")
    };
    let faulty = |kind| boxed(FleetRole::Faulty(kind));
    match adv.strategy {
        AdversaryStrategy::Crash { at } => faulty(FaultKind::CrashAt(at)),
        AdversaryStrategy::Mute => faulty(FaultKind::Silent),
        AdversaryStrategy::Spam => faulty(FaultKind::RoundSpam),
        AdversaryStrategy::PullApart { amplitude, high } => faulty(if high {
            FaultKind::PullApartHigh(amplitude)
        } else {
            FaultKind::PullApart(amplitude)
        }),
        AdversaryStrategy::TwoFacedValue { amplitude } => faulty(FaultKind::TwoFaced(amplitude)),
        // Without an algorithm-specific override, a collusion group is a
        // set of two-faced attackers sharing one amplitude and split —
        // already in phase, since the mask depends only on the spec.
        AdversaryStrategy::Collude { amplitude } => faulty(FaultKind::TwoFaced(amplitude)),
        AdversaryStrategy::Churn { up, down } => {
            Box::new(Churn::new(boxed(FleetRole::Correct), up, down))
        }
        AdversaryStrategy::TargetedDelay { .. } | AdversaryStrategy::Partition => {
            boxed(FleetRole::Correct)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_point_as, Capture};
    use crate::Maintenance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wl_core::Params;
    use wl_sim::delay::{ConstantDelay, DelayBounds};
    use wl_time::{RealDur, RealTime};

    /// The delay `wrap_delay_model` gives each directed link of a
    /// 4-process scenario under `adv` (`delays[from][to]`), over a
    /// constant base of δ, with the scenario's band.
    fn wrapped(adv: AdversarySpec) -> (Vec<Vec<RealDur>>, DelayBounds) {
        let spec =
            ScenarioSpec::new(Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()).adversary(adv);
        let bounds = spec.params.delay_bounds();
        let mut model = wrap_delay_model(&spec, Box::new(ConstantDelay::new(bounds.delta)));
        let mut rng = StdRng::seed_from_u64(3);
        let delays = (0..4)
            .map(|from| {
                (0..4)
                    .map(|to| model.delay(ProcessId(from), ProcessId(to), RealTime::ZERO, &mut rng))
                    .collect()
            })
            .collect();
        (delays, bounds)
    }

    #[test]
    fn targeted_links_plan_matrix() {
        let (d, b) = wrapped(AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::TargetedDelay { victim: 2 },
        ));
        assert_eq!(d[0][2], b.max_delay());
        assert_eq!(d[2][0], b.min_delay());
        assert_eq!(d[0][1], b.delta);
        assert_eq!(d[1][2], b.delta);
    }

    #[test]
    fn partition_links_split_members_from_rest() {
        let (d, b) = wrapped(AdversarySpec::new(
            vec![ProcessId(0), ProcessId(1)],
            AdversaryStrategy::Partition,
        ));
        assert_eq!(d[0][1], b.max_delay());
        assert_eq!(d[0][3], b.min_delay());
        assert_eq!(d[3][0], b.min_delay());
        assert_eq!(d[2][3], b.delta);
    }

    #[test]
    fn behaviour_strategies_leave_the_base_models_delays() {
        let (d, b) = wrapped(AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::Mute,
        ));
        assert!(d.iter().flatten().all(|&x| x == b.delta), "{d:?}");
    }

    /// Each legacy-equivalent strategy runs the very execution of its
    /// static [`FaultKind`]: [`canonical_member`] builds the gallery's own
    /// automata for it.
    #[test]
    fn gallery_equivalents_reproduce_static_outcomes() {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let (amp, mid) = (params.beta, 3.0);
        let base = ScenarioSpec::new(params)
            .seed(11)
            .t_end(RealTime::from_secs(6.0));
        let pairs = [
            (
                FaultKind::CrashAt(mid),
                AdversaryStrategy::Crash { at: mid },
            ),
            (FaultKind::Silent, AdversaryStrategy::Mute),
            (FaultKind::RoundSpam, AdversaryStrategy::Spam),
            (
                FaultKind::PullApart(amp),
                AdversaryStrategy::PullApart {
                    amplitude: amp,
                    high: false,
                },
            ),
            (
                FaultKind::PullApartHigh(amp),
                AdversaryStrategy::PullApart {
                    amplitude: amp,
                    high: true,
                },
            ),
            (
                FaultKind::TwoFaced(amp),
                AdversaryStrategy::TwoFacedValue { amplitude: amp },
            ),
        ];
        for (kind, strategy) in pairs {
            let static_spec = base.clone().fault(ProcessId(0), kind);
            let adv_spec = base
                .clone()
                .adversary(AdversarySpec::new(vec![ProcessId(0)], strategy));
            let s = run_point_as::<Maintenance>(Capture::Scalar, 0, &static_spec, None);
            let a = run_point_as::<Maintenance>(Capture::Scalar, 0, &adv_spec, None);
            assert!(
                s.bit_identical(&a),
                "{kind:?}: the adversarial equivalent diverged from the static gallery"
            );
        }
    }
}
