//! [`SyncAlgorithm`]: the plug-in trait every synchronization algorithm
//! implements to run under the harness.
//!
//! The harness owns everything algorithm-independent (clocks, offsets,
//! START times, fault bookkeeping, delay models, simulator config); an
//! algorithm contributes:
//!
//! * its message type ([`SyncAlgorithm::Msg`]);
//! * its start discipline ([`SyncAlgorithm::discipline`]) — round-aligned
//!   per assumption A4, or the §9.2 cold start;
//! * automata for correct, faulty, and rejoining processes
//!   ([`SyncAlgorithm::fleet_automaton`]), each boxed into the one fleet
//!   type every scenario runs on.
//!
//! Implementations exist for the paper's [`Maintenance`], [`Startup`] and
//! [`Rejoiner`] and for the §10 baselines [`LmCnv`], [`MahaneySchneider`]
//! and [`SrikanthToueg`]. The sim-seed salts (`0x5EED`, `0xF00D`,
//! `0xBA5E`) are inherited from the legacy per-crate builders so that
//! executions are bit-for-bit identical to the pre-harness code paths —
//! the `assembly_traces` digests, generated from those paths, pin this.

use crate::spec::{FaultKind, ScenarioSpec};
use wl_baselines::byzantine::ValueTwoFaced;
use wl_baselines::lm_cnv::{CnvMsg, LmCnv};
use wl_baselines::mahaney_schneider::{MahaneySchneider, MsMsg};
use wl_baselines::srikanth_toueg::{SrikanthToueg, StMsg};
use wl_clock::drift::FleetClock;
use wl_core::byzantine::{PullApart, RoundSpammer};
use wl_core::{Maintenance, Params, Rejoiner, Startup, WlMsg};
use wl_sim::faults::{crash_phys_time, CrashAt, SilentFor};
use wl_sim::{Automaton, ProcessId};
use wl_time::{ClockTime, RealTime};

/// The role a fleet slot plays in a scenario — the single argument that
/// selects which automaton [`SyncAlgorithm::fleet_automaton`] builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetRole {
    /// A correct process.
    Correct,
    /// A designated-faulty process realizing this fault kind.
    Faulty(FaultKind),
    /// The §9.1 rejoiner (START deferred to its repair time).
    Rejoiner,
}

/// How a scenario's initial offsets, corrections, and START times are
/// derived — and which salt decorrelates the delay RNG from the assembly
/// RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartDiscipline {
    /// Assumption A4: initial offsets within `spread_frac · β`, START
    /// delivered when each initial logical clock reads `T⁰`.
    RoundAligned {
        /// Added (wrapping) to the spec seed for the simulator's delay RNG.
        sim_seed_salt: u64,
    },
    /// §9.2 startup: zero clock offsets, arbitrary initial *corrections*
    /// within ±`initial_spread/2`, STARTs inside a small real-time window.
    ColdStart {
        /// Added (wrapping) to the spec seed for the simulator's delay RNG.
        sim_seed_salt: u64,
    },
}

/// Assembly state an algorithm may consult when building automata.
pub struct AssemblyCtx<'a> {
    /// The physical clocks (index = process id).
    pub clocks: &'a [FleetClock],
    /// Initial corrections (all zero for round-aligned scenarios).
    pub initial_corrs: &'a [f64],
}

/// A synchronization algorithm pluggable into the harness.
///
/// Methods are associated functions (no `self`): the implementing type is
/// the algorithm's *automaton* type, used purely as a type-level tag at
/// assembly time — `assemble::<Maintenance>(&spec)`.
pub trait SyncAlgorithm {
    /// The protocol message type.
    type Msg: Clone + std::fmt::Debug + Send + 'static;

    /// Human-readable name matching the §10 table.
    const NAME: &'static str;

    /// Validates the spec before assembly (default: no check — mirrors the
    /// legacy baseline builders, which trusted their callers).
    ///
    /// # Panics
    ///
    /// Implementations panic on invalid parameters.
    fn validate(_spec: &ScenarioSpec) {}

    /// The start discipline and sim-seed salt.
    fn discipline(spec: &ScenarioSpec) -> StartDiscipline;

    /// The **single** automaton-construction body: builds the automaton
    /// filling fleet slot `id` in role `role`, boxed for the one fleet
    /// type ([`wl_sim::DynFleet`]) every scenario runs on.
    ///
    /// Returns `None` only for an unsupported *role* (today: a rejoiner
    /// under an algorithm without one).
    ///
    /// # Panics
    ///
    /// Panics if the algorithm has no realization of a requested
    /// [`FaultKind`].
    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>>;

    /// The automaton of an adversary *member* process, boxed. Default:
    /// the canonical realization
    /// ([`crate::adversary::canonical_member`]) — legacy-equivalent
    /// strategies map onto the automata
    /// [`SyncAlgorithm::fleet_automaton`] builds for the corresponding
    /// [`FaultKind`], churn wraps the correct automaton, and delay-only
    /// strategies build the correct automaton unchanged. Algorithms
    /// override this to give the new
    /// strategies sharper realizations (see `Maintenance`'s
    /// member-aware collusion mask).
    ///
    /// # Panics
    ///
    /// Panics if the algorithm has no realization of the strategy.
    fn adversary_member(
        spec: &ScenarioSpec,
        id: ProcessId,
        adv: &crate::spec::AdversarySpec,
        ctx: &AssemblyCtx<'_>,
    ) -> Box<dyn Automaton<Msg = Self::Msg>>
    where
        Self: Sized,
    {
        crate::adversary::canonical_member::<Self>(spec, id, adv, ctx)
    }
}

/// The attacker's early-send threshold, chosen so the *honest* processes
/// are split down the middle: the smallest index with ⌈honest/2⌉ honest
/// processes strictly below it. Works for any placement of the designated
/// faulty ids, not just the low indices.
fn early_below(n: usize, spec: &ScenarioSpec) -> usize {
    let faulty: Vec<bool> = {
        let mut v = vec![false; n];
        for &(id, _) in &spec.faults {
            v[id.index()] = true;
        }
        v
    };
    let honest = faulty.iter().filter(|&&f| !f).count();
    let target = honest.div_ceil(2);
    let mut seen = 0usize;
    for (idx, &is_faulty) in faulty.iter().enumerate() {
        if seen == target {
            return idx;
        }
        if !is_faulty {
            seen += 1;
        }
    }
    n
}

/// The legacy Welch–Lynch threshold: assumes the `f` designated-faulty
/// processes occupy the low indices (`early_below = f + ⌈(n−f)/2⌉`).
/// Kept verbatim for the maintenance pull-apart — pinned by the
/// `assembly_traces` digests.
fn early_below_legacy_wl(n: usize, f: usize) -> usize {
    f + (n - f).div_ceil(2)
}

// ---------------------------------------------------------------------------
// Welch–Lynch maintenance (§4) — also hosts rejoiners and the full fault
// gallery.
// ---------------------------------------------------------------------------

impl SyncAlgorithm for Maintenance {
    type Msg = WlMsg;
    const NAME: &'static str = "Welch-Lynch";

    fn validate(spec: &ScenarioSpec) {
        spec.params.validate_timing().expect("invalid parameters");
    }

    fn discipline(_spec: &ScenarioSpec) -> StartDiscipline {
        StartDiscipline::RoundAligned {
            sim_seed_salt: 0x5EED,
        }
    }

    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>> {
        let p = &spec.params;
        let n = p.n;
        Some(match role {
            FleetRole::Correct => Box::new(Maintenance::new(id, p.clone(), 0.0)),
            FleetRole::Rejoiner => Box::new(Rejoiner::new(id, p.clone())),
            FleetRole::Faulty(kind) => match kind {
                FaultKind::CrashAt(t) => Box::new(CrashAt::new(
                    Maintenance::new(id, p.clone(), 0.0),
                    crash_phys_time(&ctx.clocks[id.index()], RealTime::from_secs(t)),
                )),
                FaultKind::Silent => Box::new(SilentFor::<WlMsg>::default()),
                FaultKind::RoundSpam => Box::new(RoundSpammer::new(
                    n,
                    p.wait_window() / 2.0,
                    spec.seed.wrapping_add(id.index() as u64),
                    (p.t0 - 10.0 * p.p_round, p.t0 + 100.0 * p.p_round),
                )),
                // Against Welch–Lynch, the generic two-faced attack *is*
                // the pull-apart: lying about your clock means sending Tⁱ
                // at a shifted moment.
                FaultKind::PullApart(a) | FaultKind::TwoFaced(a) => {
                    Box::new(PullApart::new(p.clone(), a, early_below_legacy_wl(n, p.f)))
                }
                FaultKind::PullApartHigh(a) => {
                    // Early sends go to the upper-index honest half.
                    let threshold = p.f + (n - p.f) / 2;
                    let mask = (0..n).map(|q| q >= threshold).collect();
                    Box::new(PullApart::with_early_mask(p.clone(), a, mask))
                }
            },
        })
    }

    fn adversary_member(
        spec: &ScenarioSpec,
        id: ProcessId,
        adv: &crate::spec::AdversarySpec,
        ctx: &AssemblyCtx<'_>,
    ) -> Box<dyn Automaton<Msg = WlMsg>> {
        if let crate::spec::AdversaryStrategy::Collude { amplitude } = adv.strategy {
            // A member-aware colluding mask: the early targets are the
            // upper half of the *non-member* processes, wherever the
            // members sit — every member pulls the same honest halves in
            // the same directions, so the per-member pulls add. (The
            // legacy threshold assumes attackers occupy the low indices;
            // a spec may name any members.)
            let n = spec.params.n;
            let honest: Vec<usize> = (0..n).filter(|&q| !adv.controls(ProcessId(q))).collect();
            let below = honest.len() / 2;
            let mask: Vec<bool> = (0..n)
                .map(|q| {
                    honest
                        .iter()
                        .position(|&h| h == q)
                        .is_some_and(|pos| pos >= below)
                })
                .collect();
            return Box::new(PullApart::with_early_mask(
                spec.params.clone(),
                amplitude,
                mask,
            ));
        }
        crate::adversary::canonical_member::<Self>(spec, id, adv, ctx)
    }
}

// ---------------------------------------------------------------------------
// Welch–Lynch reintegration (§9.1): a maintenance fleet in which
// `spec.rejoiner` names the repaired process. Same assembly as
// `Maintenance`; the tag exists so call sites can say what they mean.
// ---------------------------------------------------------------------------

impl SyncAlgorithm for Rejoiner {
    type Msg = WlMsg;
    const NAME: &'static str = "Welch-Lynch (rejoin)";

    fn validate(spec: &ScenarioSpec) {
        assert!(
            spec.rejoiner.is_some(),
            "a Rejoiner scenario needs `spec.rejoiner` set"
        );
        <Maintenance as SyncAlgorithm>::validate(spec);
    }

    fn discipline(spec: &ScenarioSpec) -> StartDiscipline {
        <Maintenance as SyncAlgorithm>::discipline(spec)
    }

    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>> {
        <Maintenance as SyncAlgorithm>::fleet_automaton(spec, id, role, ctx)
    }
}

// ---------------------------------------------------------------------------
// Welch–Lynch startup (§9.2).
// ---------------------------------------------------------------------------

impl SyncAlgorithm for Startup {
    type Msg = WlMsg;
    const NAME: &'static str = "Welch-Lynch (startup)";

    fn discipline(_spec: &ScenarioSpec) -> StartDiscipline {
        StartDiscipline::ColdStart {
            sim_seed_salt: 0xF00D,
        }
    }

    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>> {
        Some(match role {
            FleetRole::Correct => Box::new(Startup::new(
                id,
                spec.startup_params(),
                ctx.initial_corrs[id.index()],
            )),
            FleetRole::Faulty(FaultKind::Silent) => Box::new(SilentFor::<WlMsg>::default()),
            FleetRole::Faulty(other) => {
                panic!("the startup scenarios only realize Silent faults, got {other:?}")
            }
            FleetRole::Rejoiner => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// §10 baselines. All three share the round-aligned discipline with the
// legacy 0xBA5E salt and one role table; they differ in message type and
// in the two automata they hand it.
// ---------------------------------------------------------------------------

/// The baselines' start discipline.
const BASELINE_DISCIPLINE: StartDiscipline = StartDiscipline::RoundAligned {
    sim_seed_salt: 0xBA5E,
};

/// The baselines' role table: `correct(id, params, 0.0)` for a correct
/// process, [`SilentFor`] for `Silent`, and for `TwoFaced(a)` the
/// protocol's two-faced `liar(params, a, early_mask)`, its early half
/// the lower half of the honest processes ([`early_below`]).
///
/// # Panics
///
/// Panics on any other fault kind.
fn baseline_automaton<A, C, L>(
    spec: &ScenarioSpec,
    id: ProcessId,
    role: FleetRole,
    correct: fn(ProcessId, Params, f64) -> C,
    liar: fn(Params, f64, Vec<bool>) -> L,
) -> Option<Box<dyn Automaton<Msg = A::Msg>>>
where
    A: SyncAlgorithm,
    C: Automaton<Msg = A::Msg> + 'static,
    L: Automaton<Msg = A::Msg> + 'static,
{
    let p = &spec.params;
    Some(match role {
        FleetRole::Correct => Box::new(correct(id, p.clone(), 0.0)),
        FleetRole::Faulty(FaultKind::Silent) => Box::new(SilentFor::<A::Msg>::default()),
        FleetRole::Faulty(FaultKind::TwoFaced(a)) => {
            let below = early_below(p.n, spec);
            Box::new(liar(p.clone(), a, (0..p.n).map(|q| q < below).collect()))
        }
        FleetRole::Faulty(other) => panic!(
            "{} scenarios realize Silent/TwoFaced faults, got {other:?}",
            A::NAME
        ),
        FleetRole::Rejoiner => return None,
    })
}

impl SyncAlgorithm for LmCnv {
    type Msg = CnvMsg;
    const NAME: &'static str = "LM-CNV";

    fn discipline(_spec: &ScenarioSpec) -> StartDiscipline {
        BASELINE_DISCIPLINE
    }

    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        _ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>> {
        baseline_automaton::<Self, _, _>(spec, id, role, LmCnv::new, |p, a, mask| {
            ValueTwoFaced::new(p, a, mask, |claim| CnvMsg(ClockTime::from_secs(claim)))
        })
    }
}

impl SyncAlgorithm for MahaneySchneider {
    type Msg = MsMsg;
    const NAME: &'static str = "Mahaney-Schneider";

    fn discipline(_spec: &ScenarioSpec) -> StartDiscipline {
        BASELINE_DISCIPLINE
    }

    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        _ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>> {
        baseline_automaton::<Self, _, _>(spec, id, role, MahaneySchneider::new, |p, a, mask| {
            ValueTwoFaced::new(p, a, mask, |claim| MsMsg(ClockTime::from_secs(claim)))
        })
    }
}

impl SyncAlgorithm for SrikanthToueg {
    type Msg = StMsg;
    const NAME: &'static str = "Srikanth-Toueg";

    fn discipline(_spec: &ScenarioSpec) -> StartDiscipline {
        BASELINE_DISCIPLINE
    }

    fn fleet_automaton(
        spec: &ScenarioSpec,
        id: ProcessId,
        role: FleetRole,
        _ctx: &AssemblyCtx<'_>,
    ) -> Option<Box<dyn Automaton<Msg = Self::Msg>>> {
        // Srikanth–Toueg's round message carries no clock value, so its
        // two-faced liar lies in time: the pull-apart, sending round `i`.
        baseline_automaton::<Self, _, _>(spec, id, role, SrikanthToueg::new, |p, a, mask| {
            PullApart::with_message(p, a, mask, |round, _| StMsg {
                round: round as u32,
                echo: false,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioSpec;
    use wl_core::Params;

    fn spec_with_faults(n: usize, f: usize, faults: &[(usize, FaultKind)]) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(Params::auto(n, f, 1e-6, 0.010, 0.001).unwrap());
        for &(id, kind) in faults {
            spec = spec.fault(ProcessId(id), kind);
        }
        spec
    }

    #[test]
    fn early_below_matches_legacy_for_single_low_attacker() {
        // One attacker at index 0 — the only configuration the legacy
        // builders supported — must keep the legacy threshold.
        let spec = spec_with_faults(4, 1, &[(0, FaultKind::TwoFaced(0.01))]);
        assert_eq!(early_below(4, &spec), 1 + 3usize.div_ceil(2));
        let spec = spec_with_faults(7, 2, &[(0, FaultKind::TwoFaced(0.01))]);
        assert_eq!(early_below(7, &spec), 1 + 6usize.div_ceil(2));
    }

    #[test]
    fn early_below_splits_honest_set_with_high_index_faults() {
        // Silent fault at a HIGH index must not shift the early window
        // into the honest range: honest = {0,1,...,5} minus the attacker,
        // threshold puts ceil(honest/2) honest processes below it.
        let spec = spec_with_faults(
            7,
            2,
            &[(0, FaultKind::TwoFaced(0.01)), (6, FaultKind::Silent)],
        );
        // honest = {1,2,3,4,5}, ceil(5/2) = 3 below -> threshold after id 3.
        assert_eq!(early_below(7, &spec), 4);
    }

    #[test]
    fn legacy_wl_threshold_unchanged() {
        assert_eq!(early_below_legacy_wl(4, 1), 3);
        assert_eq!(early_below_legacy_wl(7, 2), 5);
    }
}
