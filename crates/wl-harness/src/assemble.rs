//! The single scenario-assembly path.
//!
//! Every scenario is one [`BuiltScenario`] produced by one private body,
//! `assembly`: the algorithm-independent parts (clocks, STARTs,
//! corrections, seed, fault plan) in a fixed RNG draw order, one boxed
//! automaton per fleet slot — correct, designated-faulty, rejoining or
//! adversary member alike — and one `SimBuilder` chain.
//!
//! The RNG draw order and sim-seed salting are those of the legacy
//! per-crate builders, so executions are bit-for-bit identical to them
//! (pinned by the `assembly_traces` digests, generated from their
//! executions).

use crate::algo::{AssemblyCtx, FleetRole, StartDiscipline, SyncAlgorithm};
use crate::spec::{DelayKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wl_clock::drift::FleetClock;
use wl_clock::Clock;
use wl_core::Params;
use wl_sim::delay::{ConstantDelay, DelayModel, PerPairDelay, SharedMediumDelay, UniformDelay};
use wl_sim::faults::FaultPlan;
use wl_sim::{EventQueue, HeapQueue, ProcessId, SimBuilder, SimConfig, Simulation, StdObservers};
use wl_time::{ClockTime, RealTime};

/// A fully assembled scenario, generic over the protocol message type
/// and (defaulted) the engine's event queue. The simulation carries the
/// standard observer bundle.
pub struct BuiltScenario<M, Q = HeapQueue<M>> {
    /// The simulation, ready to run.
    pub sim: Simulation<M, Q, StdObservers>,
    /// Which processes are designated faulty (for the analysis).
    pub plan: FaultPlan,
    /// The parameters the scenario was built from.
    pub params: Params,
    /// The A4 start times `t⁰_p` (when each initial logical clock reads
    /// `T⁰`) — even for a rejoiner, whose *simulation* START is instead
    /// deferred to its repair time (`spec.rejoiner`). Mirrors the legacy
    /// builders' `starts` field.
    pub starts: Vec<RealTime>,
    /// Initial corrections per process (all zero unless cold-starting).
    pub initial_corrs: Vec<f64>,
}

impl<M, Q> std::fmt::Debug for BuiltScenario<M, Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuiltScenario")
            .field("plan", &self.plan)
            .field("params", &self.params)
            .finish()
    }
}

/// Assembles `spec` under algorithm `A`.
///
/// The assembly realizes the spec's assumptions in a fixed RNG draw
/// order so that identical `(spec, A)` pairs produce identical
/// executions — on any machine, at any sweep width:
///
/// 1. **Round-aligned** (A4): `n` initial offsets within
///    `spread_frac · β`, then the drift-model build seed, then START at
///    `c⁰_p(T⁰)`.
/// 2. **Cold start** (§9.2): the drift-model build seed, then `n`
///    initial corrections within ±`initial_spread/2`, then `n` START
///    times inside `[1, 1+δ)`.
///
/// The simulator's delay RNG is decorrelated with the algorithm's salt.
///
/// # Panics
///
/// Panics if the spec fails the algorithm's validation, a fault id is out
/// of range, or the algorithm does not support a requested fault kind or
/// rejoiner.
#[must_use]
pub fn assemble<A: SyncAlgorithm>(spec: &ScenarioSpec) -> BuiltScenario<A::Msg> {
    assemble_with_queue::<A, _>(spec, HeapQueue::new())
}

/// [`assemble`] with a caller-supplied event queue — the seam test
/// fakes substitute through (`ShuffledTieQueue` in `tests/common`).
///
/// # Panics
///
/// As [`assemble`].
#[must_use]
pub fn assemble_with_queue<A: SyncAlgorithm, Q: EventQueue<A::Msg>>(
    spec: &ScenarioSpec,
    queue: Q,
) -> BuiltScenario<A::Msg, Q> {
    assembly::<A>(spec).build(queue)
}

/// An assembly short of its terminal `build*` call (which picks the
/// queue and the observer).
pub(crate) struct Assembly<M> {
    pub(crate) builder: SimBuilder<M>,
    plan: FaultPlan,
    params: Params,
    starts: Vec<RealTime>,
    initial_corrs: Vec<f64>,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> Assembly<M> {
    fn build<Q: EventQueue<M>>(self, queue: Q) -> BuiltScenario<M, Q> {
        BuiltScenario {
            sim: self.builder.build_with_queue(queue),
            plan: self.plan,
            params: self.params,
            starts: self.starts,
            initial_corrs: self.initial_corrs,
        }
    }
}

/// The one assembly body: one automaton per slot, in slot order.
///
/// # Panics
///
/// As [`assemble`].
pub(crate) fn assembly<A: SyncAlgorithm>(spec: &ScenarioSpec) -> Assembly<A::Msg> {
    let parts = assembly_parts::<A>(spec);
    let ctx = AssemblyCtx {
        clocks: &parts.clocks,
        initial_corrs: &parts.initial_corrs,
    };
    // `fleet_automaton` declines only an unsupported role, and the one
    // optional role is the rejoiner.
    let in_role = |id, role| {
        A::fleet_automaton(spec, id, role, &ctx)
            .unwrap_or_else(|| panic!("{} does not support rejoiners", A::NAME))
    };
    // Delay-only adversary members stay correct processes: their attack
    // lives in the shared delay model.
    let behaviour_adversary = spec
        .adversary
        .as_ref()
        .filter(|adv| !adv.strategy.is_delay_only());
    let mut sim_starts = parts.starts.clone();
    let mut fleet = Vec::with_capacity(spec.params.n);
    for (i, start) in sim_starts.iter_mut().enumerate() {
        let id = ProcessId(i);
        fleet.push(
            if let Some((_, repair_at)) = spec.rejoiner.filter(|&(rid, _)| rid == id) {
                *start = repair_at;
                in_role(id, FleetRole::Rejoiner)
            } else if let Some(adv) = behaviour_adversary.filter(|adv| adv.controls(id)) {
                A::adversary_member(spec, id, adv, &ctx)
            } else if let Some(&(_, kind)) = spec.faults.iter().find(|&&(fid, _)| fid == id) {
                in_role(id, FleetRole::Faulty(kind))
            } else {
                in_role(id, FleetRole::Correct)
            },
        );
    }
    let builder = SimBuilder::new()
        .clocks(parts.clocks)
        .procs(fleet)
        .starts(sim_starts)
        .fault_plan(parts.plan.clone())
        .config(sim_config(spec, parts.sim_seed))
        .delay_boxed(delay_model(spec));
    Assembly {
        builder,
        plan: parts.plan,
        params: spec.params.clone(),
        starts: parts.starts,
        initial_corrs: parts.initial_corrs,
    }
}

/// The algorithm-independent half of an assembly: clocks, START times,
/// initial corrections, the salted simulator seed, and the fault plan,
/// in one RNG draw order.
struct AssemblyParts {
    clocks: Vec<FleetClock>,
    starts: Vec<RealTime>,
    initial_corrs: Vec<f64>,
    sim_seed: u64,
    plan: FaultPlan,
}

fn assembly_parts<A: SyncAlgorithm>(spec: &ScenarioSpec) -> AssemblyParts {
    A::validate(spec);
    let p = &spec.params;
    let n = p.n;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let drift = spec.effective_drift();

    let (clocks, starts, initial_corrs, sim_seed) = match A::discipline(spec) {
        StartDiscipline::RoundAligned { sim_seed_salt } => {
            // Initial offsets: logical clocks (corr = 0) read T⁰ within a
            // window of spread_frac · β, so their inverses at T⁰ are within
            // β even after drift widens the spread slightly (A4).
            let window = p.beta * spec.spread_frac;
            let offsets: Vec<ClockTime> = (0..n)
                .map(|_| ClockTime::from_secs(rng.gen_range(-window / 2.0..=window / 2.0)))
                .collect();
            let clocks = drift.build(n, &offsets, rng.gen());
            // A4: START arrives when the initial logical clock reads T⁰.
            let starts: Vec<RealTime> = clocks.iter().map(|c| c.time_of(p.t0_clock())).collect();
            (
                clocks,
                starts,
                vec![0.0; n],
                spec.seed.wrapping_add(sim_seed_salt),
            )
        }
        StartDiscipline::ColdStart { sim_seed_salt } => {
            let clocks = drift.build(n, &vec![ClockTime::ZERO; n], rng.gen());
            let initial_corrs: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(-spec.initial_spread / 2.0..=spec.initial_spread / 2.0))
                .collect();
            // STARTs delivered within a small real-time window — the
            // problem statement lets the environment wake processes
            // arbitrarily; the first Time broadcast wakes the rest anyway.
            let starts: Vec<RealTime> = (0..n)
                .map(|_| RealTime::from_secs(1.0 + rng.gen_range(0.0..p.delta)))
                .collect();
            (
                clocks,
                starts,
                initial_corrs,
                spec.seed.wrapping_add(sim_seed_salt),
            )
        }
    };

    let mut faulty_ids: Vec<ProcessId> = spec.faults.iter().map(|&(id, _)| id).collect();
    if let Some((id, _)) = spec.rejoiner {
        faulty_ids.push(id);
    }
    // Behaviour-adversary members are designated faulty (A2 bookkeeping);
    // delay-only members stay correct — in-band delay scheduling is the
    // environment's prerogative under A3, not a process fault.
    if let Some(adv) = &spec.adversary {
        if !adv.strategy.is_delay_only() {
            faulty_ids.extend(adv.members.iter().copied());
        }
    }
    let plan = FaultPlan::with_faulty(n, &faulty_ids);

    AssemblyParts {
        clocks,
        starts,
        initial_corrs,
        sim_seed,
        plan,
    }
}

fn sim_config(spec: &ScenarioSpec, sim_seed: u64) -> SimConfig {
    SimConfig {
        t_end: spec.t_end,
        seed: sim_seed,
        delay_bounds: spec.params.delay_bounds(),
        trace_capacity: spec.trace_capacity,
        max_events: spec.max_events,
    }
}

fn delay_model(spec: &ScenarioSpec) -> Box<dyn DelayModel> {
    let p = &spec.params;
    let bounds = p.delay_bounds();
    let constant = || Box::new(ConstantDelay::new(bounds.delta));
    let base: Box<dyn DelayModel> = match spec.delay {
        DelayKind::Constant => constant(),
        DelayKind::Uniform => Box::new(UniformDelay::new(bounds)),
        // The split the ε terms of the analysis are tight against: every
        // link fixed, fast (δ−ε) to the lower half of the receivers and
        // slow (δ+ε) to the rest, so each half misreads every clock in
        // the opposite direction (≈ 2ε, Lemma 9). The base answers none.
        DelayKind::AdversarialSplit => Box::new(PerPairDelay::new(p.n, constant(), |_, to| {
            Some(if to < p.n / 2 {
                bounds.min_delay()
            } else {
                bounds.max_delay()
            })
        })),
        DelayKind::SharedMedium => Box::new(SharedMediumDelay::new(bounds, p.n)),
    };
    // A delay-only adversary pins its chosen links to the band edges and
    // defers the rest to the base model.
    crate::adversary::wrap_delay_model(spec, base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FaultKind;
    use crate::{LmCnv, Maintenance, Startup};
    use wl_core::StartupParams;

    fn params() -> Params {
        Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
    }

    #[test]
    fn build_produces_n_processes_and_valid_starts() {
        let p = params();
        let built = ScenarioSpec::new(p.clone()).seed(3).build::<Maintenance>();
        assert_eq!(built.sim.n(), 4);
        assert_eq!(built.plan.fault_count(), 0);
        // Starts are within beta of each other (A4).
        let min = built
            .starts
            .iter()
            .cloned()
            .fold(RealTime::from_secs(f64::INFINITY), RealTime::min);
        let max = built
            .starts
            .iter()
            .cloned()
            .fold(RealTime::from_secs(f64::NEG_INFINITY), RealTime::max);
        assert!((max - min).as_secs() <= p.beta, "start spread exceeds beta");
    }

    #[test]
    fn faults_recorded_in_plan() {
        let p = Params::auto(7, 2, 1e-6, 0.010, 0.001).unwrap();
        let built = ScenarioSpec::new(p)
            .fault(ProcessId(1), FaultKind::Silent)
            .fault(ProcessId(5), FaultKind::PullApart(0.002))
            .build::<Maintenance>();
        assert_eq!(built.plan.fault_count(), 2);
        assert!(built.plan.is_faulty(ProcessId(1)));
        assert!(built.plan.is_faulty(ProcessId(5)));
        assert!(built.plan.satisfies_a2());
    }

    #[test]
    fn rejoiner_marked_faulty() {
        let built = ScenarioSpec::new(params())
            .rejoiner(ProcessId(2), RealTime::from_secs(5.0))
            .build::<Maintenance>();
        assert!(built.plan.is_faulty(ProcessId(2)));
    }

    #[test]
    fn short_run_executes_rounds() {
        let p = params();
        let mut sim = ScenarioSpec::new(p.clone())
            .t_end(RealTime::from_secs(5.0))
            .build::<Maintenance>()
            .sim;
        let outcome = sim.run();
        assert!(outcome.stats.messages_sent >= (p.n * p.n) as u64);
        assert_eq!(
            outcome.stats.timers_suppressed, 0,
            "no timer may land in the past"
        );
    }

    #[test]
    fn startup_scenario_builds_and_runs() {
        let sp = StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let built = ScenarioSpec::startup(&sp, 5.0)
            .seed(7)
            .t_end(RealTime::from_secs(3.0))
            .build::<Startup>();
        assert_eq!(built.sim.n(), 4);
        assert!(built.initial_corrs.iter().any(|&c| c != 0.0));
        let mut sim = built.sim;
        let outcome = sim.run();
        assert!(outcome.stats.messages_sent > 0);
    }

    #[test]
    fn same_spec_same_execution() {
        let p = params();
        let spec = ScenarioSpec::new(p)
            .seed(11)
            .t_end(RealTime::from_secs(5.0));
        let a = assemble::<Maintenance>(&spec).sim.run();
        let b = assemble::<Maintenance>(&spec).sim.run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.corr, b.corr);
    }

    #[test]
    fn baseline_builds_under_same_spec() {
        let p = params();
        let spec = ScenarioSpec::new(p)
            .seed(11)
            .t_end(RealTime::from_secs(5.0));
        let mut sim = assemble::<LmCnv>(&spec).sim;
        let outcome = sim.run();
        assert!(outcome.stats.messages_sent > 0);
    }

    /// The split fixes every link, fast to the receivers below `n/2` and
    /// slow to the rest whoever sends, and draws nothing from the RNG.
    #[test]
    fn adversarial_split_directions() {
        let spec = ScenarioSpec::new(params()).delay(DelayKind::AdversarialSplit);
        let b = spec.params.delay_bounds();
        let mut model = delay_model(&spec);
        let mut rng = StdRng::seed_from_u64(7);
        for from in 0..4 {
            for to in 0..4 {
                let want = if to < 2 { b.min_delay() } else { b.max_delay() };
                let got = model.delay(ProcessId(from), ProcessId(to), RealTime::ZERO, &mut rng);
                assert_eq!(got, want, "{from} -> {to}");
            }
        }
        assert_eq!(
            rng.gen::<u64>(),
            StdRng::seed_from_u64(7).gen::<u64>(),
            "the split drew"
        );
    }

    #[test]
    #[should_panic(expected = "does not support rejoiners")]
    fn baselines_reject_rejoiners() {
        let _ = ScenarioSpec::new(params())
            .rejoiner(ProcessId(1), RealTime::from_secs(2.0))
            .build::<LmCnv>();
    }
}
