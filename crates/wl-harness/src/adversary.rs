//! The pluggable Adversary API: stateful fault *strategies* instead of
//! static fault tags.
//!
//! The paper's skew bound ε(1+ρ) + ρ(4d+4ε) is a worst-case guarantee
//! over every admissible adversary: arbitrary (Byzantine) behaviour from
//! up to `f` processes (A2) plus arbitrary per-message delay scheduling
//! within `[δ−ε, δ+ε]` (A3). The closed [`FaultKind`] enum replays a
//! fixed gallery of such adversaries; this module makes the adversary a
//! first-class *strategy object* instead:
//!
//! * [`Adversary`] — the trait: a per-activation hook over a member's
//!   outgoing actions (messages and timers), a per-link delay plan
//!   within the A3 band, and a deterministic seeded RNG supplied by the
//!   harness. Implementations are stateful and per-member.
//! * [`AdversaryActor`] — the interposition wrapper: runs the member's
//!   inner automaton, hands its outgoing actions to the strategy, and
//!   forwards whatever survives. This is how behaviour strategies get
//!   "access to outgoing messages" without touching the protocol code.
//! * [`AdversaryDelay`] — the delay-side wrapper: a [`DelayModel`] that
//!   overrides chosen directed links to the floor (δ−ε) or ceiling
//!   (δ+ε) of the band and defers every other link to the base model,
//!   threading per-pair state through the existing delay plumbing.
//! * [`canonical_member`] — realizes an [`AdversarySpec`] for one member
//!   under any [`SyncAlgorithm`]: the legacy-equivalent strategies map
//!   onto the same automata the [`FaultKind`] gallery builds (so a
//!   strategy search starting from the gallery can never do worse), and
//!   the new strategies ([`AdversaryStrategy::Churn`], delay-only
//!   attacks) are realized generically.
//!
//! Scenario plumbing lives in [`mod@crate::assemble`]: adversary members
//! join the [`FaultPlan`](wl_sim::faults::FaultPlan) (unless the
//! strategy is delay-only — in-band delay scheduling is the
//! *environment's* prerogative under A3, so those members stay
//! designated-correct), and [`AdversarySpec`] rides
//! [`crate::ScenarioSpec`] through the cache, segment store, service
//! wire codec, and frontier driver unchanged. The search subsystem on
//! top is [`crate::search`].

use crate::algo::{AssemblyCtx, FleetRole, SyncAlgorithm};
use crate::spec::{AdversarySpec, AdversaryStrategy, FaultKind, ScenarioSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use wl_sim::delay::{DelayBounds, DelayModel};
use wl_sim::{Action, Actions, Automaton, Input, ProcessId};
use wl_time::{ClockTime, RealDur, RealTime};

/// What the adversary does to one directed communication link, fixed for
/// the whole execution (per-pair state, as threaded through
/// [`AdversaryDelay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkPlan {
    /// Defer to the scenario's base delay model.
    Base,
    /// Ride the bottom of the A3 band: every message takes δ−ε.
    Floor,
    /// Ride the top of the A3 band: every message takes δ+ε.
    Ceiling,
}

/// A pluggable adversary strategy: the open-ended counterpart of the
/// closed [`AdversaryStrategy`] grammar.
///
/// A strategy instance is attached to **one** member process (multiple
/// members get independently seeded instances; coordination comes from
/// shared parameters, exactly like the gallery's colluding `PullApart`
/// attackers). Both hooks default to "do nothing", so a strategy
/// implements only the side it uses:
///
/// * [`Adversary::intercept`] — called after every activation of the
///   member's inner automaton with the actions it produced. The strategy
///   may drop, reorder, rewrite, or inject messages and timers. `rng` is
///   deterministically seeded from the [`AdversarySpec`] seed and the
///   member id, so executions remain pure functions of the spec.
/// * [`Adversary::link_plan`] — consulted once per directed link at
///   assembly time; [`LinkPlan::Floor`]/[`LinkPlan::Ceiling`] pin that
///   link to an edge of the A3 band. Delay choices outside the band are
///   unrepresentable by construction.
pub trait Adversary<M>: Send + fmt::Debug {
    /// Inspects and rewrites the member's outgoing actions.
    fn intercept(
        &mut self,
        member: ProcessId,
        phys_now: ClockTime,
        actions: &mut Vec<Action<M>>,
        rng: &mut StdRng,
    ) {
        let _ = (member, phys_now, actions, rng);
    }

    /// The delay plan for the directed link `from → to`.
    fn link_plan(&self, from: ProcessId, to: ProcessId) -> LinkPlan {
        let _ = (from, to);
        LinkPlan::Base
    }
}

/// The interposition wrapper realizing a behaviour [`Adversary`]: runs
/// the member's inner automaton and filters its outgoing actions through
/// the strategy.
pub struct AdversaryActor<M> {
    member: ProcessId,
    inner: Box<dyn Automaton<Msg = M>>,
    strategy: Box<dyn Adversary<M>>,
    rng: StdRng,
    scratch: Actions<M>,
    /// The inner step's actions while the strategy rewrites them, reused.
    acts: Vec<Action<M>>,
}

impl<M> fmt::Debug for AdversaryActor<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversaryActor")
            .field("member", &self.member)
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> AdversaryActor<M> {
    /// Wraps `inner`, filtering its actions through `strategy`. The RNG
    /// is seeded deterministically from the adversary seed and the
    /// member id (SplitMix64 increment keeps distinct members
    /// decorrelated).
    #[must_use]
    pub fn new(
        member: ProcessId,
        inner: Box<dyn Automaton<Msg = M>>,
        strategy: Box<dyn Adversary<M>>,
        adversary_seed: u64,
    ) -> Self {
        let seed = adversary_seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(member.index() as u64 + 1));
        Self {
            member,
            inner,
            strategy,
            rng: StdRng::seed_from_u64(seed),
            scratch: Actions::new(),
            acts: Vec::new(),
        }
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Automaton for AdversaryActor<M> {
    type Msg = M;

    fn on_input(&mut self, input: Input<M>, phys_now: ClockTime, out: &mut Actions<M>) {
        // The wrapper forwards notes, so the inner automaton renders them
        // only if the engine's observer reads them.
        self.scratch.wants_notes = out.wants_notes;
        self.inner.on_input(input, phys_now, &mut self.scratch);
        self.acts.extend(self.scratch.drain());
        self.strategy
            .intercept(self.member, phys_now, &mut self.acts, &mut self.rng);
        for act in self.acts.drain(..) {
            match act {
                Action::Broadcast(m) => out.broadcast(m),
                Action::Send { to, msg } => out.send(to, msg),
                Action::SetTimer { physical } => out.set_timer(physical),
                Action::NoteCorrection(c) => out.note_correction(c),
                Action::Annotate(s) => out.annotate(s),
            }
        }
    }

    fn initial_correction(&self) -> f64 {
        self.inner.initial_correction()
    }
}

/// Crash-recovery churn: the member alternates `up` seconds alive and
/// `down` seconds dead on its own physical clock. While dead it drops
/// every outgoing message (send-omission, like a crashed process) but
/// keeps its timers, so the inner automaton's state machine resumes
/// where it left off on recovery.
#[derive(Debug, Clone, Copy)]
pub struct ChurnStrategy {
    up: f64,
    down: f64,
}

impl ChurnStrategy {
    /// Alternate `up` seconds alive, `down` seconds dead. Both must be
    /// positive.
    ///
    /// # Panics
    ///
    /// Panics unless `up > 0` and `down > 0`.
    #[must_use]
    pub fn new(up: f64, down: f64) -> Self {
        assert!(up > 0.0 && down > 0.0, "churn phases must be positive");
        Self { up, down }
    }

    /// Whether the member is alive at this physical-clock reading.
    #[must_use]
    pub fn alive(&self, phys_now: ClockTime) -> bool {
        phys_now.as_secs().rem_euclid(self.up + self.down) < self.up
    }
}

impl<M> Adversary<M> for ChurnStrategy {
    fn intercept(
        &mut self,
        _member: ProcessId,
        phys_now: ClockTime,
        actions: &mut Vec<Action<M>>,
        _rng: &mut StdRng,
    ) {
        if !self.alive(phys_now) {
            actions.retain(|a| !matches!(a, Action::Broadcast(_) | Action::Send { .. }));
        }
    }
}

/// The delay-only strategies' link planner: members stay
/// protocol-correct and the adversary schedules delays.
///
/// * [`AdversaryStrategy::TargetedDelay`]: member→victim links ride the
///   ceiling, victim→member links the floor — the victim hears the
///   members as late as possible and is heard as early as possible,
///   skewing every mutual clock estimate in opposite directions.
/// * [`AdversaryStrategy::Partition`]: member↔member links ride the
///   ceiling, member↔non-member links the floor — a soft partition
///   entirely inside the admissible band.
#[derive(Debug, Clone)]
pub struct TargetedLinks {
    member: Vec<bool>,
    victim: Option<usize>,
}

impl TargetedLinks {
    /// Builds the planner for a delay-only strategy, or `None` when the
    /// strategy manipulates member behaviour instead of delays.
    #[must_use]
    pub fn from_spec(n: usize, adv: &AdversarySpec) -> Option<Self> {
        let mut member = vec![false; n];
        for m in &adv.members {
            assert!(m.index() < n, "adversary member {m} out of range");
            member[m.index()] = true;
        }
        match adv.strategy {
            AdversaryStrategy::TargetedDelay { victim } => {
                assert!(victim < n, "targeted-delay victim {victim} out of range");
                Some(Self {
                    member,
                    victim: Some(victim),
                })
            }
            AdversaryStrategy::Partition => Some(Self {
                member,
                victim: None,
            }),
            _ => None,
        }
    }

    /// The plan for the directed link `from → to` (inherent twin of the
    /// [`Adversary::link_plan`] hook, usable without a message type).
    #[must_use]
    pub fn plan(&self, from: ProcessId, to: ProcessId) -> LinkPlan {
        let fm = self.member[from.index()];
        let tm = self.member[to.index()];
        match self.victim {
            Some(v) => {
                if fm && to.index() == v {
                    LinkPlan::Ceiling
                } else if from.index() == v && tm {
                    LinkPlan::Floor
                } else {
                    LinkPlan::Base
                }
            }
            None => {
                if fm && tm {
                    LinkPlan::Ceiling
                } else if fm != tm {
                    LinkPlan::Floor
                } else {
                    LinkPlan::Base
                }
            }
        }
    }
}

impl<M> Adversary<M> for TargetedLinks {
    fn link_plan(&self, from: ProcessId, to: ProcessId) -> LinkPlan {
        self.plan(from, to)
    }
}

/// A [`DelayModel`] that pins adversary-chosen links to an edge of the
/// A3 band and defers every other link to the base model.
///
/// The per-pair plan is a dense `n × n` matrix fixed at assembly time
/// (the same shape as [`wl_sim::delay::PerPairDelay`]), so lookups are
/// branch-light and the wrapped model's RNG stream is consumed **only**
/// on deferred links — overridden links draw nothing, keeping the
/// execution a pure function of the spec.
pub struct AdversaryDelay {
    n: usize,
    plans: Vec<LinkPlan>,
    bounds: DelayBounds,
    base: Box<dyn DelayModel>,
}

impl fmt::Debug for AdversaryDelay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversaryDelay")
            .field("n", &self.n)
            .field("bounds", &self.bounds)
            .field("base", &self.base)
            .finish()
    }
}

impl AdversaryDelay {
    /// Builds the wrapper from a link planner.
    #[must_use]
    pub fn new(
        n: usize,
        links: &TargetedLinks,
        bounds: DelayBounds,
        base: Box<dyn DelayModel>,
    ) -> Self {
        let plans = (0..n * n)
            .map(|i| links.plan(ProcessId(i / n), ProcessId(i % n)))
            .collect();
        Self {
            n,
            plans,
            bounds,
            base,
        }
    }
}

impl DelayModel for AdversaryDelay {
    fn delay(&mut self, from: ProcessId, to: ProcessId, t: RealTime, rng: &mut StdRng) -> RealDur {
        match self.plans[from.index() * self.n + to.index()] {
            LinkPlan::Base => self.base.delay(from, to, t, rng),
            LinkPlan::Floor => self.bounds.min_delay(),
            LinkPlan::Ceiling => self.bounds.max_delay(),
        }
    }
}

/// Wraps the scenario's base delay model with the adversary's link
/// schedule when the strategy is delay-only; behaviour strategies leave
/// the base model untouched.
pub(crate) fn wrap_delay_model(
    spec: &ScenarioSpec,
    base: Box<dyn DelayModel>,
) -> Box<dyn DelayModel> {
    let Some(adv) = &spec.adversary else {
        return base;
    };
    let n = spec.params.n;
    match TargetedLinks::from_spec(n, adv) {
        Some(links) => Box::new(AdversaryDelay::new(
            n,
            &links,
            spec.params.delay_bounds(),
            base,
        )),
        None => base,
    }
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
/// by wrapping the algorithm's correct automaton in an [`AdversaryActor`]
/// running [`ChurnStrategy`]. Delay-only strategies build the member's
/// *correct* automaton (the attack lives in [`AdversaryDelay`]).
///
/// # Panics
///
/// Panics if the algorithm has no realization of the mapped fault kind.
pub fn canonical_member<A: SyncAlgorithm>(
    spec: &ScenarioSpec,
    id: ProcessId,
    adv: &AdversarySpec,
    ctx: &AssemblyCtx<'_>,
) -> Box<dyn Automaton<Msg = A::Msg>> {
    let boxed = |role| -> Box<dyn Automaton<Msg = A::Msg>> {
        Box::new(
            A::fleet_automaton(spec, id, role, ctx)
                .expect("fleet_automaton realizes correct and designated-faulty roles"),
        )
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
        AdversaryStrategy::Churn { up, down } => Box::new(AdversaryActor::new(
            id,
            boxed(FleetRole::Correct),
            Box::new(ChurnStrategy::new(up, down)),
            adv.seed,
        )),
        AdversaryStrategy::TargetedDelay { .. } | AdversaryStrategy::Partition => {
            boxed(FleetRole::Correct)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Beacon;

    impl Automaton for Beacon {
        type Msg = u32;
        fn on_input(&mut self, _i: Input<u32>, phys_now: ClockTime, out: &mut Actions<u32>) {
            out.send(ProcessId(1), 7);
            out.set_timer(phys_now + wl_time::ClockDur::from_secs(1.0));
        }
    }

    #[test]
    fn churn_drops_sends_only_while_down() {
        let strat = ChurnStrategy::new(2.0, 1.0);
        assert!(strat.alive(ClockTime::from_secs(0.5)));
        assert!(strat.alive(ClockTime::from_secs(1.9)));
        assert!(!strat.alive(ClockTime::from_secs(2.5)));
        assert!(strat.alive(ClockTime::from_secs(3.1)));

        let mut actor = AdversaryActor::new(ProcessId(0), Box::new(Beacon), Box::new(strat), 9);
        let mut out = Actions::new();
        actor.on_input(Input::Timer, ClockTime::from_secs(0.5), &mut out);
        assert_eq!(out.len(), 2, "alive: send + timer pass through");
        let mut out = Actions::new();
        actor.on_input(Input::Timer, ClockTime::from_secs(2.5), &mut out);
        let acts: Vec<_> = out.drain().collect();
        assert_eq!(acts.len(), 1, "down: send dropped, timer kept");
        assert!(matches!(acts[0], Action::SetTimer { .. }));
    }

    #[test]
    fn targeted_links_plan_matrix() {
        let adv = AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::TargetedDelay { victim: 2 },
        );
        let links = TargetedLinks::from_spec(4, &adv).unwrap();
        assert_eq!(links.plan(ProcessId(0), ProcessId(2)), LinkPlan::Ceiling);
        assert_eq!(links.plan(ProcessId(2), ProcessId(0)), LinkPlan::Floor);
        assert_eq!(links.plan(ProcessId(0), ProcessId(1)), LinkPlan::Base);
        assert_eq!(links.plan(ProcessId(1), ProcessId(2)), LinkPlan::Base);
    }

    #[test]
    fn partition_links_split_members_from_rest() {
        let adv = AdversarySpec::new(
            vec![ProcessId(0), ProcessId(1)],
            AdversaryStrategy::Partition,
        );
        let links = TargetedLinks::from_spec(4, &adv).unwrap();
        assert_eq!(links.plan(ProcessId(0), ProcessId(1)), LinkPlan::Ceiling);
        assert_eq!(links.plan(ProcessId(0), ProcessId(3)), LinkPlan::Floor);
        assert_eq!(links.plan(ProcessId(3), ProcessId(0)), LinkPlan::Floor);
        assert_eq!(links.plan(ProcessId(2), ProcessId(3)), LinkPlan::Base);
    }

    #[test]
    fn behaviour_strategies_have_no_link_planner() {
        let adv = AdversarySpec::new(vec![ProcessId(0)], AdversaryStrategy::Mute);
        assert!(TargetedLinks::from_spec(4, &adv).is_none());
    }

    #[test]
    fn adversary_delay_stays_in_band_and_skips_base_rng_on_overrides() {
        use wl_sim::delay::UniformDelay;
        let bounds = DelayBounds::new(RealDur::from_millis(10.0), RealDur::from_millis(1.0));
        let adv = AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::TargetedDelay { victim: 1 },
        );
        let links = TargetedLinks::from_spec(3, &adv).unwrap();
        let mut model = AdversaryDelay::new(3, &links, bounds, Box::new(UniformDelay::new(bounds)));
        let mut rng = StdRng::seed_from_u64(3);
        let d = model.delay(ProcessId(0), ProcessId(1), RealTime::ZERO, &mut rng);
        assert_eq!(d, bounds.max_delay());
        let d = model.delay(ProcessId(1), ProcessId(0), RealTime::ZERO, &mut rng);
        assert_eq!(d, bounds.min_delay());
        let d = model.delay(ProcessId(2), ProcessId(1), RealTime::ZERO, &mut rng);
        assert!(bounds.contains(d));
    }
}
