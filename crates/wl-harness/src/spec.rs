//! [`ScenarioSpec`]: the algorithm-agnostic description of a scenario.
//!
//! A spec realizes the paper's assumptions concretely:
//!
//! * physical clocks from a [`DriftModel`] (A1), with initial offsets
//!   chosen so the initial logical clocks of nonfaulty processes are
//!   within β (A4) — or deliberately *not*, for the startup scenarios;
//! * a delay model within `[δ−ε, δ+ε]` (A3);
//! * START messages delivered exactly when each initial logical clock
//!   reads `T⁰` (A4) — or inside a small real-time window, for startup;
//! * a fault plan assigning behaviours to up to `f` processes (A2) — or
//!   more, for the impossibility experiments.
//!
//! The same spec can be assembled under any [`SyncAlgorithm`]: experiment
//! E11 runs Welch–Lynch, LM-CNV, Mahaney–Schneider, and Srikanth–Toueg
//! from literally the same value, so "identical conditions" is a type-level
//! guarantee instead of a code-review obligation.
//!
//! [`SyncAlgorithm`]: crate::SyncAlgorithm

use wl_clock::drift::DriftModel;
use wl_core::{Params, StartupParams};
use wl_sim::ProcessId;
use wl_time::RealTime;

/// Which delay model a scenario uses (all within the A3 band).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayKind {
    /// Every message takes exactly δ.
    Constant,
    /// Uniform noise over `[δ−ε, δ+ε]`.
    Uniform,
    /// Adversarial: fast to the low-index half, slow to the rest.
    AdversarialSplit,
    /// §9.3's shared medium: concurrent frames queue, `2ε/n` each.
    SharedMedium,
}

/// Fault behaviours assignable to a process.
///
/// Each algorithm realizes the kinds that make sense for its message
/// alphabet (see [`SyncAlgorithm::fleet_automaton`]); asking for an
/// unsupported kind panics with a clear message.
///
/// [`SyncAlgorithm::fleet_automaton`]: crate::SyncAlgorithm::fleet_automaton
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Correct until the given real time, then silent.
    CrashAt(f64),
    /// Never sends anything.
    Silent,
    /// Sends random protocol-shaped `Round` noise.
    RoundSpam,
    /// The two-faced early/late attack with the given amplitude (seconds).
    PullApart(f64),
    /// The two-faced attack targeting the *upper-index* half of the honest
    /// processes with the early send (with even-spread drift, those are the
    /// fast clocks — the strongest configuration, used by the
    /// fault-boundary experiment E12).
    PullApartHigh(f64),
    /// The value/timing two-faced attack against the baselines: claims a
    /// clock `amplitude` ahead to the low half and `amplitude` behind to
    /// the rest. For Welch–Lynch this is realized as [`FaultKind::PullApart`].
    TwoFaced(f64),
}

/// A pluggable adversary strategy: *how* the adversary's member processes
/// misbehave, and how the adversary steers message delays within the A3
/// band `[δ−ε, δ+ε]`.
///
/// The closed [`FaultKind`] enum assigns one behaviour per process; a
/// strategy instead describes a coordinated, stateful plan for a *group*
/// of members (see [`AdversarySpec`]). The first five variants are the
/// canonical reimplementations of the legacy kinds; the rest are new
/// attacks the enum could not express. Realization lives in
/// [`crate::adversary`]; each algorithm realizes the strategies that make
/// sense for its message alphabet and panics with a clear message
/// otherwise, exactly like [`FaultKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryStrategy {
    /// Correct until the given real time, then silent
    /// (canonical [`FaultKind::CrashAt`]).
    Crash {
        /// Crash time (real seconds).
        at: f64,
    },
    /// Never sends anything (canonical [`FaultKind::Silent`]).
    Mute,
    /// Sends random protocol-shaped `Round` noise
    /// (canonical [`FaultKind::RoundSpam`]).
    Spam,
    /// The two-faced early/late timing attack (canonical
    /// [`FaultKind::PullApart`] / [`FaultKind::PullApartHigh`]).
    PullApart {
        /// Attack amplitude (seconds).
        amplitude: f64,
        /// `true` targets the upper-index honest half with the early send
        /// (the strongest split under even-spread drift).
        high: bool,
    },
    /// Two-faced clock *values*: claims a clock `amplitude` ahead to one
    /// half and `amplitude` behind to the other (canonical
    /// [`FaultKind::TwoFaced`]).
    TwoFacedValue {
        /// Claimed-value offset (seconds).
        amplitude: f64,
    },
    /// Collusion group: every member runs the two-faced timing attack in
    /// phase with a shared amplitude and the *same* early-target mask, so
    /// the per-member pulls add instead of cancelling.
    Collude {
        /// Shared attack amplitude (seconds).
        amplitude: f64,
    },
    /// Crash-recovery churn: alive for `up` real seconds, dead for `down`,
    /// repeating. While dead the member drops all output (like a crash);
    /// on recovery it resumes its correct automaton's state.
    Churn {
        /// Seconds alive per cycle.
        up: f64,
        /// Seconds dead per cycle.
        down: f64,
    },
    /// Members stay protocol-correct but the adversary schedules delays:
    /// member→victim messages ride the top of the band (δ+ε) while
    /// victim→member messages ride the bottom (δ−ε) — targeted asymmetric
    /// delays against one process.
    TargetedDelay {
        /// Index of the targeted process.
        victim: usize,
    },
    /// Partial connectivity: member↔member edges ride the top of the band
    /// and member↔non-member edges the bottom, threaded through the
    /// delay model's per-pair state. Members stay protocol-correct.
    Partition,
}

impl AdversaryStrategy {
    /// Whether the strategy misbehaves only through *delay scheduling*
    /// (members run their correct automata).
    #[must_use]
    pub fn is_delay_only(&self) -> bool {
        matches!(
            self,
            AdversaryStrategy::TargetedDelay { .. } | AdversaryStrategy::Partition
        )
    }
}

/// The adversary block of a [`ScenarioSpec`]: which processes the
/// adversary controls, the [`AdversaryStrategy`] they execute, and the
/// adversary's private RNG seed.
///
/// This is the canonically-serializable grammar the whole stack speaks:
/// it hashes into [`ScenarioSpec::content_hash`], serializes through the
/// cache's canonical text form and the service wire codec, and persists
/// in the segment store under the adversarial record tags (`A`/`B` — see
/// `docs/store-format.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySpec {
    /// The processes the adversary controls (its *members*).
    pub members: Vec<ProcessId>,
    /// The strategy all members execute.
    pub strategy: AdversaryStrategy,
    /// The adversary's private seed (independent of the spec seed, so a
    /// randomized strategy can vary without disturbing the environment).
    pub seed: u64,
}

impl AdversarySpec {
    /// An adversary controlling `members` running `strategy`.
    #[must_use]
    pub fn new(members: Vec<ProcessId>, strategy: AdversaryStrategy) -> Self {
        Self {
            members,
            strategy,
            seed: 1,
        }
    }

    /// Sets the adversary's private seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether `id` is one of the adversary's members.
    #[must_use]
    pub fn controls(&self, id: ProcessId) -> bool {
        self.members.contains(&id)
    }
}

/// A fully specified scenario, ready to assemble under any algorithm.
///
/// Construct with [`ScenarioSpec::new`] (round-aligned, A4 start) or
/// [`ScenarioSpec::startup`] (§9.2 cold start), then chain the builder
/// methods. The spec is plain data: `Clone` it, mutate copies for grid
/// sweeps, send it across threads.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The paper's global constants.
    pub params: Params,
    /// Drift model; `None` uses the adversarial default — `Split` at
    /// `params.rho`, or `Ideal` when `rho == 0`.
    pub drift: Option<DriftModel>,
    /// Message-delay model (default: uniform).
    pub delay: DelayKind,
    /// RNG seed for offsets, drift rates, corrections, and delays.
    pub seed: u64,
    /// Simulated horizon.
    pub t_end: RealTime,
    /// Fraction of β used as the initial offset window (A4 headroom).
    pub spread_frac: f64,
    /// Fault behaviours per process.
    pub faults: Vec<(ProcessId, FaultKind)>,
    /// §9.1 rejoiner: the process and its repair time. It counts as
    /// faulty until it rejoins.
    pub rejoiner: Option<(ProcessId, RealTime)>,
    /// Pluggable adversary: a coordinated strategy over a member group,
    /// replacing (and strictly generalizing) static `faults` entries.
    /// `None` means no adversary — the spec hashes and serializes exactly
    /// as it did before the Adversary API existed.
    pub adversary: Option<AdversarySpec>,
    /// Trace capacity (0 = tracing disabled).
    pub trace_capacity: usize,
    /// Safety valve on event count (0 = unlimited).
    pub max_events: u64,
    /// §9.2 startup only: width (seconds) of the arbitrary initial
    /// correction window.
    pub initial_spread: f64,
}

impl ScenarioSpec {
    /// A round-aligned (A4) scenario with the defaults the experiments
    /// assume: split drift at `params.rho`, uniform delays, 30 simulated
    /// seconds, 80% of β as the initial offset window, no faults.
    #[must_use]
    pub fn new(params: Params) -> Self {
        Self {
            params,
            drift: None,
            delay: DelayKind::Uniform,
            seed: 1,
            t_end: RealTime::from_secs(30.0),
            spread_frac: 0.8,
            faults: Vec::new(),
            rejoiner: None,
            adversary: None,
            trace_capacity: 0,
            max_events: 0,
            initial_spread: 0.0,
        }
    }

    /// A §9.2 cold-start scenario: clocks with the same rate behaviour as
    /// [`ScenarioSpec::new`], but initial *corrections* arbitrary within
    /// ±`initial_spread/2` — the clocks start wildly unsynchronized.
    ///
    /// Startup needs only the A1–A3 constants; `β` and `P` exist in
    /// [`Params`] for the round-aligned algorithms and the analysis
    /// helpers, so workable values are derived here **without** demanding
    /// §5.2 feasibility — high-drift startup scenarios (where no feasible
    /// maintenance `(β, P)` exists) remain constructible, exactly as the
    /// legacy `build_startup` allowed.
    #[must_use]
    pub fn startup(sp: &StartupParams, initial_spread: f64) -> Self {
        let params = Params::auto(sp.n, sp.f, sp.rho, sp.delta, sp.eps).unwrap_or_else(|_| {
            // No feasible maintenance round exists; fill β/P with the
            // natural scales so analysis windows stay meaningful. The
            // cold-start assembly itself only reads ρ and δ.
            let beta = 4.5 * sp.eps + 8.0 * sp.rho * sp.delta + 1e-7;
            Params {
                n: sp.n,
                f: sp.f,
                rho: sp.rho,
                delta: sp.delta,
                eps: sp.eps,
                beta,
                p_round: wl_core::params::min_p(sp.rho, sp.delta, sp.eps, beta),
                t0: 1.0,
                avg: wl_core::AveragingFn::default(),
                sigma: 0.0,
                exchanges: 1,
            }
        });
        let mut spec = Self::new(params);
        spec.initial_spread = initial_spread;
        spec
    }

    /// Sets the RNG seed (offsets, drift rates, corrections, delays).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the simulated horizon.
    #[must_use]
    pub fn t_end(mut self, t_end: RealTime) -> Self {
        self.t_end = t_end;
        self
    }

    /// Sets the drift model.
    #[must_use]
    pub fn drift(mut self, drift: DriftModel) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn delay(mut self, delay: DelayKind) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the fraction of β used for initial offsets (default 0.8).
    #[must_use]
    pub fn spread_frac(mut self, frac: f64) -> Self {
        self.spread_frac = frac;
        self
    }

    /// Assigns a fault behaviour to a process.
    #[must_use]
    pub fn fault(mut self, p: ProcessId, kind: FaultKind) -> Self {
        self.faults.push((p, kind));
        self
    }

    /// Marks the listed processes silent (legacy baseline-builder shape).
    #[must_use]
    pub fn silent(mut self, ids: &[ProcessId]) -> Self {
        for &id in ids {
            self.faults.push((id, FaultKind::Silent));
        }
        self
    }

    /// Replaces process `p` with a §9.1 rejoiner repaired at `repair_at`.
    #[must_use]
    pub fn rejoiner(mut self, p: ProcessId, repair_at: RealTime) -> Self {
        self.rejoiner = Some((p, repair_at));
        self
    }

    /// Installs a pluggable adversary (see [`AdversarySpec`]).
    #[must_use]
    pub fn adversary(mut self, adv: AdversarySpec) -> Self {
        self.adversary = Some(adv);
        self
    }

    /// Enables trace recording with the given capacity.
    #[must_use]
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Sets the event-count safety valve.
    #[must_use]
    pub fn max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// The default drift model for these parameters: the adversarial
    /// `Split` extreme, or `Ideal` when drift is disabled.
    #[must_use]
    pub fn effective_drift(&self) -> DriftModel {
        self.drift.clone().unwrap_or({
            if self.params.rho > 0.0 {
                DriftModel::Split {
                    rho: self.params.rho,
                }
            } else {
                DriftModel::Ideal
            }
        })
    }

    /// The startup constants corresponding to `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` violates A2/A3 (impossible for validated specs).
    #[must_use]
    pub fn startup_params(&self) -> StartupParams {
        let p = &self.params;
        StartupParams::new(p.n, p.f, p.rho, p.delta, p.eps)
            .expect("spec params satisfy the startup constraints")
    }

    /// Builds and runs nothing — convenience passthrough to
    /// [`assemble()`](crate::assemble()) for fluent call sites.
    #[must_use]
    pub fn build<A: crate::SyncAlgorithm>(&self) -> crate::BuiltScenario<A::Msg> {
        crate::assemble::<A>(self)
    }

    /// The spec with its drift made explicit (`drift: None` and an
    /// explicit [`ScenarioSpec::effective_drift`] assemble identically,
    /// so the cache must treat them as the same spec — as the hash does).
    #[must_use]
    pub(crate) fn canonical(&self) -> ScenarioSpec {
        let mut spec = self.clone();
        spec.drift = Some(self.effective_drift());
        spec
    }

    /// A stable content hash of everything that determines this spec's
    /// execution.
    ///
    /// Equal *specs* assemble into bit-identical executions under the
    /// same algorithm (executions are pure functions of the spec), so
    /// [`crate::SweepCache`] uses this hash as its lookup key — and,
    /// because a 64-bit non-cryptographic hash can collide in principle,
    /// confirms every hit by comparing the stored spec for equality.
    /// The hash is FNV-1a over a fixed field serialization — stable
    /// across machines and runs, *not* across releases that add spec
    /// fields (the disk store additionally gates every record on
    /// [`crate::cache::ENGINE_VERSION`] for exactly that reason).
    ///
    /// # Examples
    ///
    /// ```
    /// use wl_core::Params;
    /// use wl_harness::ScenarioSpec;
    ///
    /// let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
    /// let spec = ScenarioSpec::new(params).seed(7);
    ///
    /// // Equal specs hash equally; any execution-relevant edit changes it.
    /// assert_eq!(spec.content_hash(), spec.clone().content_hash());
    /// assert_ne!(spec.content_hash(), spec.clone().seed(8).content_hash());
    ///
    /// // `drift: None` and its explicit default are the *same* execution,
    /// // and hash identically.
    /// let explicit = spec.clone().drift(spec.effective_drift());
    /// assert_eq!(spec.content_hash(), explicit.content_hash());
    /// ```
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            // FNV-1a, one byte at a time, over the little-endian word.
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        let p = &self.params;
        mix(p.n as u64);
        mix(p.f as u64);
        mix(p.rho.to_bits());
        mix(p.delta.to_bits());
        mix(p.eps.to_bits());
        mix(p.beta.to_bits());
        mix(p.p_round.to_bits());
        mix(p.t0.to_bits());
        mix(match p.avg {
            wl_core::AveragingFn::Midpoint => 0,
            wl_core::AveragingFn::Mean => 1,
        });
        mix(p.sigma.to_bits());
        mix(p.exchanges as u64);
        match self.effective_drift() {
            DriftModel::Ideal => mix(0),
            DriftModel::EvenSpread { rho } => {
                mix(1);
                mix(rho.to_bits());
            }
            DriftModel::Split { rho } => {
                mix(2);
                mix(rho.to_bits());
            }
            DriftModel::RandomConstant { rho } => {
                mix(3);
                mix(rho.to_bits());
            }
            DriftModel::RandomPiecewise {
                rho,
                segment_secs,
                horizon_secs,
            } => {
                mix(4);
                mix(rho.to_bits());
                mix(segment_secs.to_bits());
                mix(horizon_secs.to_bits());
            }
        }
        mix(match self.delay {
            DelayKind::Constant => 0,
            DelayKind::Uniform => 1,
            DelayKind::AdversarialSplit => 2,
            DelayKind::SharedMedium => 3,
        });
        mix(self.seed);
        mix(self.t_end.as_secs().to_bits());
        mix(self.spread_frac.to_bits());
        mix(self.faults.len() as u64);
        for &(id, kind) in &self.faults {
            mix(id.index() as u64);
            match kind {
                FaultKind::CrashAt(t) => {
                    mix(0);
                    mix(t.to_bits());
                }
                FaultKind::Silent => mix(1),
                FaultKind::RoundSpam => mix(2),
                FaultKind::PullApart(a) => {
                    mix(3);
                    mix(a.to_bits());
                }
                FaultKind::PullApartHigh(a) => {
                    mix(4);
                    mix(a.to_bits());
                }
                FaultKind::TwoFaced(a) => {
                    mix(5);
                    mix(a.to_bits());
                }
            }
        }
        match self.rejoiner {
            None => mix(0),
            Some((id, at)) => {
                mix(1);
                mix(id.index() as u64);
                mix(at.as_secs().to_bits());
            }
        }
        mix(self.trace_capacity as u64);
        mix(self.max_events);
        mix(self.initial_spread.to_bits());
        // The adversary block mixes *only when present*: every legacy
        // (non-adversarial) spec keeps the hash it had before the field
        // existed, and the ENGINE_VERSION gate handles the format epoch.
        if let Some(adv) = &self.adversary {
            mix(0xad5e_c0de);
            mix(adv.members.len() as u64);
            for &m in &adv.members {
                mix(m.index() as u64);
            }
            match adv.strategy {
                AdversaryStrategy::Crash { at } => {
                    mix(0);
                    mix(at.to_bits());
                }
                AdversaryStrategy::Mute => mix(1),
                AdversaryStrategy::Spam => mix(2),
                AdversaryStrategy::PullApart { amplitude, high } => {
                    mix(3);
                    mix(amplitude.to_bits());
                    mix(u64::from(high));
                }
                AdversaryStrategy::TwoFacedValue { amplitude } => {
                    mix(4);
                    mix(amplitude.to_bits());
                }
                AdversaryStrategy::Collude { amplitude } => {
                    mix(5);
                    mix(amplitude.to_bits());
                }
                AdversaryStrategy::Churn { up, down } => {
                    mix(6);
                    mix(up.to_bits());
                    mix(down.to_bits());
                }
                AdversaryStrategy::TargetedDelay { victim } => {
                    mix(7);
                    mix(victim as u64);
                }
                AdversaryStrategy::Partition => mix(8),
            }
            mix(adv.seed);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble, Startup};

    #[test]
    fn content_hash_stable_and_sensitive() {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let spec = ScenarioSpec::new(params.clone()).seed(7);
        assert_eq!(spec.content_hash(), spec.clone().content_hash());
        assert_ne!(
            spec.content_hash(),
            spec.clone().seed(8).content_hash(),
            "seed must be part of the identity"
        );
        assert_ne!(
            spec.content_hash(),
            spec.clone().delay(DelayKind::Constant).content_hash()
        );
        assert_ne!(
            spec.content_hash(),
            spec.clone()
                .fault(ProcessId(1), crate::FaultKind::Silent)
                .content_hash()
        );
        assert_ne!(
            spec.content_hash(),
            spec.clone().t_end(RealTime::from_secs(31.0)).content_hash()
        );
        // The None drift and its explicit default hash identically
        // (effective_drift is what the assembly consumes).
        assert_eq!(
            spec.content_hash(),
            spec.clone().drift(spec.effective_drift()).content_hash()
        );
    }

    #[test]
    fn adversary_block_extends_the_hash_without_disturbing_legacy_specs() {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let spec = ScenarioSpec::new(params).seed(7);
        let adv = AdversarySpec::new(
            vec![ProcessId(0)],
            AdversaryStrategy::PullApart {
                amplitude: 0.002,
                high: false,
            },
        );
        let with = spec.clone().adversary(adv.clone());
        // Installing an adversary changes the identity...
        assert_ne!(spec.content_hash(), with.content_hash());
        // ...and every adversary dimension is part of it.
        assert_ne!(
            with.content_hash(),
            spec.clone().adversary(adv.clone().seed(2)).content_hash(),
            "adversary seed must be part of the identity"
        );
        assert_ne!(
            with.content_hash(),
            spec.clone()
                .adversary(AdversarySpec::new(
                    vec![ProcessId(1)],
                    AdversaryStrategy::PullApart {
                        amplitude: 0.002,
                        high: false,
                    },
                ))
                .content_hash(),
            "member set must be part of the identity"
        );
        assert_ne!(
            with.content_hash(),
            spec.clone()
                .adversary(AdversarySpec::new(
                    vec![ProcessId(0)],
                    AdversaryStrategy::PullApart {
                        amplitude: 0.003,
                        high: false,
                    },
                ))
                .content_hash(),
            "strategy parameters must be part of the identity"
        );
        assert_ne!(
            with.content_hash(),
            spec.clone()
                .adversary(AdversarySpec::new(
                    vec![ProcessId(0)],
                    AdversaryStrategy::PullApart {
                        amplitude: 0.002,
                        high: true,
                    },
                ))
                .content_hash()
        );
    }

    #[test]
    fn startup_constructible_at_high_drift() {
        // rho = 0.2 admits no feasible maintenance (beta, P), but startup
        // only needs A1-A3 — the legacy build_startup accepted this and
        // the harness must too.
        let sp = StartupParams::new(4, 1, 0.2, 0.010, 0.001).unwrap();
        let spec = ScenarioSpec::startup(&sp, 2.0)
            .seed(5)
            .t_end(RealTime::from_secs(2.0));
        let mut sim = assemble::<Startup>(&spec).sim;
        assert!(sim.run().stats.messages_sent > 0);
    }
}
