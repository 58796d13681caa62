//! The single scenario-assembly path: [`assemble`].
//!
//! Replaces the duplicated builders that used to live in
//! `wl_core::scenario` and `wl_baselines::scenario`. The RNG draw order
//! and sim-seed salting are preserved exactly, so executions are
//! bit-for-bit identical to the legacy paths (pinned by the
//! `harness_parity` integration tests).

use crate::algo::{AssemblyCtx, FleetRole, StartDiscipline, SyncAlgorithm};
use crate::spec::{DelayKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wl_clock::drift::FleetClock;
use wl_clock::Clock;
use wl_core::Params;
use wl_sim::delay::{AdversarialSplitDelay, ConstantDelay, DelayModel, UniformDelay};
use wl_sim::faults::FaultPlan;
use wl_sim::{
    Automaton, CorrectionSink, Counters, EventQueue, HeapQueue, NullObserver, Observer, ProcessId,
    SimBuilder, SimConfig, Simulation,
};
use wl_time::{ClockTime, RealTime};

/// A fully assembled scenario, generic over the protocol message type and
/// (defaulted) the engine's event queue.
pub struct BuiltScenario<M, Q = HeapQueue<M>> {
    /// The simulation, ready to run.
    pub sim: Simulation<M, Q>,
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
    let AssemblyParts {
        clocks,
        starts,
        initial_corrs,
        sim_seed,
        plan,
    } = assembly_parts::<A>(spec);

    let ctx = AssemblyCtx {
        clocks: &clocks,
        initial_corrs: &initial_corrs,
    };
    let n = spec.params.n;
    let mut starts_adj = starts.clone();
    let mut procs: Vec<Box<dyn Automaton<Msg = A::Msg>>> = Vec::with_capacity(n);
    for (i, start_slot) in starts_adj.iter_mut().enumerate() {
        let id = ProcessId(i);
        let fault = spec
            .faults
            .iter()
            .find(|&&(fid, _)| fid == id)
            .map(|&(_, k)| k);
        let is_rejoiner = spec.rejoiner.map(|(rid, _)| rid) == Some(id);
        let adversary_member = spec
            .adversary
            .as_ref()
            .filter(|adv| adv.controls(id) && !adv.strategy.is_delay_only());
        let auto: Box<dyn Automaton<Msg = A::Msg>> = if is_rejoiner {
            let (_, repair_at) = spec.rejoiner.expect("checked above");
            *start_slot = repair_at;
            A::rejoiner_automaton(spec, id, &ctx)
                .unwrap_or_else(|| panic!("{} does not support rejoiners", A::NAME))
        } else if let Some(adv) = adversary_member {
            A::adversary_member(spec, id, adv, &ctx)
        } else if let Some(kind) = fault {
            A::faulty(spec, id, kind, &ctx)
        } else {
            A::correct(spec, id, &ctx)
        };
        procs.push(auto);
    }

    let sim = SimBuilder::new()
        .clocks(clocks)
        .procs(procs)
        .starts(starts_adj)
        .fault_plan(plan.clone())
        .config(sim_config(spec, sim_seed))
        .delay_boxed(delay_model(spec))
        .build_with_queue(queue);

    BuiltScenario {
        sim,
        plan,
        params: spec.params.clone(),
        starts,
        initial_corrs,
    }
}

/// The algorithm-independent half of an assembly: clocks, START times,
/// initial corrections, the salted simulator seed, and the fault plan.
/// One RNG draw order, shared verbatim by the boxed and monomorphized
/// paths — byte-identical executions are a consequence, not a hope.
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
    let base: Box<dyn DelayModel> = match spec.delay {
        DelayKind::Constant => Box::new(ConstantDelay::new(wl_time::RealDur::from_secs(p.delta))),
        DelayKind::Uniform => Box::new(UniformDelay::new(p.delay_bounds())),
        DelayKind::AdversarialSplit => {
            Box::new(AdversarialSplitDelay::new(p.delay_bounds(), p.n / 2))
        }
    };
    // A delay-only adversary pins its chosen links to the band edges and
    // defers the rest to the base model (shared by all assembly paths, so
    // the mono/enum/boxed parity guarantees carry over to adversarial
    // delay scheduling).
    crate::adversary::wrap_delay_model(spec, base)
}

/// The simulation type of the monomorphized fast path: algorithm `A`'s
/// message type, the heap queue, observer `O`, and a `Vec<A>` fleet.
pub type MonoSimulation<A, O> =
    Simulation<<A as SyncAlgorithm>::Msg, HeapQueue<<A as SyncAlgorithm>::Msg>, O, Vec<A>>;

/// A scenario assembled on the monomorphized fast path: a `Vec<A>` fleet
/// (no per-event virtual dispatch) under a `(Counters, CorrectionSink)`
/// observer pair (no trace machinery). Produced by [`assemble_mono`];
/// executions are byte-identical to the boxed [`assemble`] path.
pub struct MonoScenario<A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>> {
    /// The simulation, ready to [`Simulation::drive`].
    pub sim: MonoSimulation<A, (Counters, CorrectionSink)>,
    /// Which processes are designated faulty (always none on this path).
    pub plan: FaultPlan,
    /// The parameters the scenario was built from.
    pub params: Params,
    /// The A4 start times `t⁰_p` (see [`BuiltScenario::starts`]).
    pub starts: Vec<RealTime>,
    /// Initial corrections per process (all zero unless cold-starting).
    pub initial_corrs: Vec<f64>,
}

/// Assembles `spec` on the monomorphized fast path, if it qualifies.
///
/// Qualifying specs are the all-correct ones — no faults, no rejoiner,
/// tracing disabled — under an algorithm that offers
/// [`SyncAlgorithm::correct_mono`]. Everything else returns `None` and
/// callers fall back to [`assemble`]; [`crate::SweepRunner`] does this
/// per grid point, so mixed fault/fault-free grids take the fast path
/// exactly where it applies.
///
/// The RNG draw order, simulator seed, delay model, and fault plan are
/// shared with [`assemble`] (one `assembly_parts` body), so the two
/// paths produce bit-identical executions — pinned by the
/// `mono_path_bit_identical_to_boxed` sweep test.
#[must_use]
pub fn assemble_mono<A>(spec: &ScenarioSpec) -> Option<MonoScenario<A>>
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    let (parts, fleet) = mono_parts::<A>(spec)?;
    let observers = (Counters::new(), CorrectionSink::new(&parts.initial_corrs));
    let sim = SimBuilder::new()
        .clocks(parts.clocks)
        .fleet(fleet)
        .starts(parts.starts.clone())
        .fault_plan(parts.plan.clone())
        .config(sim_config(spec, parts.sim_seed))
        .delay_boxed(delay_model(spec))
        .build_with(HeapQueue::new(), observers);
    Some(MonoScenario {
        sim,
        plan: parts.plan,
        params: spec.params.clone(),
        starts: parts.starts,
        initial_corrs: parts.initial_corrs,
    })
}

/// [`assemble_mono`] under a caller-chosen observer — the fully
/// measurement-free variant with [`NullObserver`] is what the raw
/// Monte Carlo throughput benchmarks use (`sim.null_mev_per_s` in the
/// repo benchmark).
///
/// Returns `None` under exactly the same conditions as
/// [`assemble_mono`].
#[must_use]
pub fn assemble_mono_observed<A, O>(
    spec: &ScenarioSpec,
    observer: O,
) -> Option<MonoSimulation<A, O>>
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
    O: Observer<<A as SyncAlgorithm>::Msg>,
{
    let (parts, fleet) = mono_parts::<A>(spec)?;
    Some(
        SimBuilder::new()
            .clocks(parts.clocks)
            .fleet(fleet)
            .starts(parts.starts)
            .fault_plan(parts.plan)
            .config(sim_config(spec, parts.sim_seed))
            .delay_boxed(delay_model(spec))
            .build_with(HeapQueue::new(), observer),
    )
}

/// [`assemble_mono_observed`] with [`NullObserver`]: zero per-event
/// measurement work. The engine's own `events_delivered` counter is the
/// only instrument left.
#[must_use]
pub fn assemble_mono_null<A>(spec: &ScenarioSpec) -> Option<MonoSimulation<A, NullObserver>>
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    assemble_mono_observed::<A, _>(spec, NullObserver)
}

fn mono_parts<A>(spec: &ScenarioSpec) -> Option<(AssemblyParts, Vec<A>)>
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    if !spec.faults.is_empty() || spec.rejoiner.is_some() || spec.trace_capacity != 0 {
        return None;
    }
    // A behaviour adversary needs the boxed wrapper automata; a delay-only
    // adversary leaves every process correct (the attack lives in the
    // shared delay model), so the fast path stays available.
    if spec
        .adversary
        .as_ref()
        .is_some_and(|adv| !adv.strategy.is_delay_only())
    {
        return None;
    }
    let parts = assembly_parts::<A>(spec);
    let ctx = AssemblyCtx {
        clocks: &parts.clocks,
        initial_corrs: &parts.initial_corrs,
    };
    let fleet: Option<Vec<A>> = (0..spec.params.n)
        .map(|i| A::correct_mono(spec, ProcessId(i), &ctx))
        .collect();
    Some((parts, fleet?))
}

/// The simulation type of the enum-dispatched fast path: algorithm `A`'s
/// message type, the heap queue, observer `O`, and a
/// `Vec<A::FleetAuto>` fleet (enum-match dispatch, no boxing).
pub type EnumSimulation<A, O> = Simulation<
    <A as SyncAlgorithm>::Msg,
    HeapQueue<<A as SyncAlgorithm>::Msg>,
    O,
    Vec<<A as SyncAlgorithm>::FleetAuto>,
>;

/// A scenario assembled on the enum-dispatched fast path: a mixed fleet
/// (correct + faulty + rejoining processes) stored as a
/// `Vec<A::FleetAuto>` instead of `Vec<Box<dyn Automaton>>`, under a
/// `(Counters, CorrectionSink)` observer pair. Produced by
/// [`assemble_enum`] (heap queue) or
/// [`assemble_enum_with_queue`] (any queue); executions are
/// byte-identical to the boxed [`assemble`] path.
pub struct EnumScenario<A: SyncAlgorithm, Q = HeapQueue<<A as SyncAlgorithm>::Msg>> {
    /// The simulation, ready to [`Simulation::drive`].
    pub sim: Simulation<
        <A as SyncAlgorithm>::Msg,
        Q,
        (Counters, CorrectionSink),
        Vec<<A as SyncAlgorithm>::FleetAuto>,
    >,
    /// Which processes are designated faulty (for the analysis).
    pub plan: FaultPlan,
    /// The parameters the scenario was built from.
    pub params: Params,
    /// The A4 start times `t⁰_p` (see [`BuiltScenario::starts`]).
    pub starts: Vec<RealTime>,
    /// Initial corrections per process (all zero unless cold-starting).
    pub initial_corrs: Vec<f64>,
}

/// Assembles `spec` on the enum-dispatched fast path, if it qualifies.
///
/// This is the faulted-fleet counterpart of [`assemble_mono`]: any mix
/// of correct, designated-faulty, and rejoining processes runs as a
/// `Vec<A::FleetAuto>` — enum-match dispatch instead of
/// `Box<dyn Automaton>` virtual calls, one contiguous allocation instead
/// of one per process. Only tracing disqualifies a spec (the path runs
/// `(Counters, CorrectionSink)` observers, which record no trace), plus
/// a rejoiner under an algorithm that does not support one; both return
/// `None` and callers fall back to [`assemble`].
///
/// The RNG draw order, simulator seed, delay model, fault plan, rejoiner
/// START deferral, and per-process automaton construction
/// ([`SyncAlgorithm::fleet_automaton`] — the same single body the boxed
/// path boxes) are all shared with [`assemble`], so the two paths
/// produce bit-identical executions — pinned by
/// `enum_path_bit_identical_to_boxed` and the `fleet_parity` proptests.
///
/// # Panics
///
/// As [`assemble`] (validation failures, unsupported fault kinds).
#[must_use]
pub fn assemble_enum<A: SyncAlgorithm>(spec: &ScenarioSpec) -> Option<EnumScenario<A>> {
    assemble_enum_with_queue::<A, _>(spec, HeapQueue::new())
}

/// [`assemble_enum`] with a caller-supplied event queue — what the
/// `fleet_parity` proptests use to pit the enum fleet against the boxed
/// fleet under the *same* (arbitrary, legal) tie-breaking queue.
///
/// # Panics
///
/// As [`assemble_enum`].
#[must_use]
pub fn assemble_enum_with_queue<A: SyncAlgorithm, Q: EventQueue<A::Msg>>(
    spec: &ScenarioSpec,
    queue: Q,
) -> Option<EnumScenario<A, Q>> {
    if spec.trace_capacity != 0 {
        return None;
    }
    // Behaviour-adversary members are wrapper automata outside the fleet
    // enum; the boxed path hosts them. Delay-only adversaries qualify
    // (all processes correct, attack in the shared delay model).
    if spec
        .adversary
        .as_ref()
        .is_some_and(|adv| !adv.strategy.is_delay_only())
    {
        return None;
    }
    let parts = assembly_parts::<A>(spec);
    let ctx = AssemblyCtx {
        clocks: &parts.clocks,
        initial_corrs: &parts.initial_corrs,
    };
    let n = spec.params.n;
    let mut starts_adj = parts.starts.clone();
    let mut fleet: Vec<A::FleetAuto> = Vec::with_capacity(n);
    for (i, start_slot) in starts_adj.iter_mut().enumerate() {
        let id = ProcessId(i);
        let fault = spec
            .faults
            .iter()
            .find(|&&(fid, _)| fid == id)
            .map(|&(_, k)| k);
        let role = if spec.rejoiner.map(|(rid, _)| rid) == Some(id) {
            let (_, repair_at) = spec.rejoiner.expect("checked above");
            *start_slot = repair_at;
            FleetRole::Rejoiner
        } else if let Some(kind) = fault {
            FleetRole::Faulty(kind)
        } else {
            FleetRole::Correct
        };
        fleet.push(A::fleet_automaton(spec, id, role, &ctx)?);
    }

    // Mirror `build_with_queue`: the correction sink is seeded from the
    // *built fleet's* per-process initial corrections (a faulty wrapper
    // reports 0.0 even in a cold-start scenario, exactly as on the boxed
    // path).
    let initial: Vec<f64> = fleet.iter().map(Automaton::initial_correction).collect();
    let observers = (Counters::new(), CorrectionSink::new(&initial));
    let sim = SimBuilder::new()
        .clocks(parts.clocks)
        .fleet(fleet)
        .starts(starts_adj)
        .fault_plan(parts.plan.clone())
        .config(sim_config(spec, parts.sim_seed))
        .delay_boxed(delay_model(spec))
        .build_with(queue, observers);
    Some(EnumScenario {
        sim,
        plan: parts.plan,
        params: spec.params.clone(),
        starts: parts.starts,
        initial_corrs: parts.initial_corrs,
    })
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

    #[test]
    #[should_panic(expected = "does not support rejoiners")]
    fn baselines_reject_rejoiners() {
        let _ = ScenarioSpec::new(params())
            .rejoiner(ProcessId(1), RealTime::from_secs(2.0))
            .build::<LmCnv>();
    }
}
