//! Driver-powered worst-case skew search over adversary parameters.
//!
//! The static fault gallery ([`FaultKind`]) probes a handful of
//! hand-picked attacks; this module *searches* the adversary space for
//! the empirically worst skew a scenario family admits. The search is a
//! two-stage local optimizer per starting point:
//!
//! 1. **Coordinate descent** — each continuous strategy parameter
//!    (amplitude, crash time, churn period) is probed `±step` with the
//!    step halving every round, walking uphill in worst-window skew.
//! 2. **Seeded annealing** — a Metropolis pass perturbs one random
//!    parameter at a time, accepting downhill moves with probability
//!    `exp(Δ/T)` under a geometrically cooling temperature, to hop out
//!    of the local plateau coordinate descent settles on.
//!
//! Starting points are seeded from the **adversarial equivalents of the
//! static gallery** ([`gallery_pairs`]): every legacy [`FaultKind`]
//! attack maps to an [`AdversaryStrategy`] that assembles the *same*
//! automata, so the search result can never undercut the best static
//! scenario — plus the strategies the closed enum could not express
//! (collusion, churn, targeted delays, partitions).
//!
//! Everything is deterministic: candidate specs inherit the family
//! seed, the annealer's randomness is a pure function of
//! [`SearchConfig::seed`], and every evaluation goes through the cached
//! sweep body — re-running a search against a warm [`SweepCache`]
//! (or a hydrated [`crate::cache::SweepStore`]) replays it without
//! executing a single simulation. Reports carry the margin to the
//! paper's Theorem 16 bound γ ([`wl_core::theory::gamma`]).

use crate::algo::SyncAlgorithm;
use crate::spec::{AdversarySpec, AdversaryStrategy, FaultKind, ScenarioSpec};
use crate::sweep::{SweepCache, SweepRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wl_sim::ProcessId;

/// Tuning knobs for [`search_worst_case`]. All defaults are modest; CI's
/// `search-smoke` job uses [`SearchConfig::smoke`] to stay in budget.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Seed for the annealer's RNG — the *only* source of randomness in
    /// the search. Two searches with the same seed, family, and config
    /// visit identical candidates in identical order.
    pub seed: u64,
    /// Coordinate-descent rounds per starting point (each round probes
    /// every continuous parameter once, then halves the step).
    pub descent_rounds: usize,
    /// Metropolis steps per starting point after descent.
    pub anneal_steps: usize,
    /// How many of the best-scoring starting points get the full
    /// refinement treatment (the rest are still *evaluated*, preserving
    /// the ≥-gallery guarantee, just not refined).
    pub refine_top: usize,
    /// Worker threads for batched evaluations (`0` = machine-sized, as
    /// [`crate::SweepRunner`]).
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EA2C4,
            descent_rounds: 3,
            anneal_steps: 12,
            refine_top: 3,
            threads: 0,
        }
    }
}

impl SearchConfig {
    /// The tiny bounded configuration CI's `search-smoke` job runs: one
    /// descent round, a handful of anneal steps, one refined start.
    #[must_use]
    pub fn smoke() -> Self {
        Self {
            seed: 0x5EA2C4,
            descent_rounds: 1,
            anneal_steps: 4,
            refine_top: 1,
            threads: 0,
        }
    }
}

/// What [`search_worst_case`] found for one scenario family.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// The worst spec found (carries the adversary block; re-running it
    /// through any sweep reproduces `best_skew` bit-for-bit).
    pub best_spec: ScenarioSpec,
    /// The empirical worst-case skew (worst window max over the
    /// agreement window, the [`crate::SweepOutcome::max_skew`] scalar).
    pub best_skew: f64,
    /// Human label of the winning strategy.
    pub best_label: String,
    /// The best skew any *static* [`FaultKind`] gallery scenario reached.
    pub gallery_max: f64,
    /// Label of the best static gallery entry.
    pub gallery_label: String,
    /// Theorem 16's γ for the family's parameters.
    pub bound: f64,
    /// `bound - best_skew` (positive while the theorem holds).
    pub margin: f64,
    /// Total candidate evaluations (cache hits included).
    pub evaluations: usize,
    /// The search seed, echoed for reproduction.
    pub seed: u64,
}

impl std::fmt::Display for SearchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "worst-case: {:.3e} s via {} (seed {:#x}, {} evaluations)",
            self.best_skew, self.best_label, self.seed, self.evaluations
        )?;
        writeln!(
            f,
            "gallery max: {:.3e} s via {}",
            self.gallery_max, self.gallery_label
        )?;
        write!(
            f,
            "bound gamma: {:.3e} s, margin {:.3e} s ({:.1}% of bound used)",
            self.bound,
            self.margin,
            100.0 * self.best_skew / self.bound
        )
    }
}

/// One labelled candidate in the search space: a strategy applied to
/// the first `f` processes of the family's base spec.
#[derive(Debug, Clone)]
struct Candidate {
    label: String,
    strategy: AdversaryStrategy,
}

impl Candidate {
    fn spec(&self, base: &ScenarioSpec) -> ScenarioSpec {
        let members: Vec<ProcessId> = (0..base.params.f).map(ProcessId).collect();
        base.clone()
            .adversary(AdversarySpec::new(members, self.strategy))
    }
}

/// The legacy gallery and its adversarial equivalents, as
/// `(label, FaultKind, AdversaryStrategy)` triples. The equivalence is
/// load-bearing: each strategy assembles the *same* automata as its
/// `FaultKind` (see [`crate::adversary::canonical_member`]), so seeding
/// the search from this list guarantees the found worst case is at
/// least the static gallery's.
#[must_use]
pub fn gallery_pairs(base: &ScenarioSpec) -> Vec<(String, FaultKind, AdversaryStrategy)> {
    let amp = base.params.beta;
    let mid = base.t_end.as_secs() / 2.0;
    vec![
        (
            format!("crash@{mid:.1}s"),
            FaultKind::CrashAt(mid),
            AdversaryStrategy::Crash { at: mid },
        ),
        ("mute".into(), FaultKind::Silent, AdversaryStrategy::Mute),
        ("spam".into(), FaultKind::RoundSpam, AdversaryStrategy::Spam),
        (
            format!("pull-apart({amp:.0e})"),
            FaultKind::PullApart(amp),
            AdversaryStrategy::PullApart {
                amplitude: amp,
                high: false,
            },
        ),
        (
            format!("pull-apart-high({amp:.0e})"),
            FaultKind::PullApartHigh(amp),
            AdversaryStrategy::PullApart {
                amplitude: amp,
                high: true,
            },
        ),
        (
            format!("two-faced({amp:.0e})"),
            FaultKind::TwoFaced(amp),
            AdversaryStrategy::TwoFacedValue { amplitude: amp },
        ),
    ]
}

/// The static gallery scenarios for a family: each legacy kind applied
/// to the first `f` processes of `base`.
#[must_use]
pub fn static_gallery(base: &ScenarioSpec) -> Vec<(String, ScenarioSpec)> {
    gallery_pairs(base)
        .into_iter()
        .map(|(label, kind, _)| {
            let mut spec = base.clone();
            for p in 0..base.params.f {
                spec = spec.fault(ProcessId(p), kind);
            }
            (label, spec)
        })
        .collect()
}

/// Every starting point of the search: the gallery equivalents plus the
/// strategies the closed enum could not express.
fn starting_points(base: &ScenarioSpec) -> Vec<Candidate> {
    let amp = base.params.beta;
    let p_round = base.params.p_round;
    let n = base.params.n;
    let f = base.params.f;
    let mut starts: Vec<Candidate> = gallery_pairs(base)
        .into_iter()
        .map(|(label, _, strategy)| Candidate { label, strategy })
        .collect();
    starts.push(Candidate {
        label: format!("collude({amp:.0e})"),
        strategy: AdversaryStrategy::Collude { amplitude: amp },
    });
    starts.push(Candidate {
        label: "churn".into(),
        strategy: AdversaryStrategy::Churn {
            up: 2.0 * p_round,
            down: p_round,
        },
    });
    // Targeted delays victimize an honest process; the faulty member
    // set is `0..f`, so every honest index is a distinct attack.
    for victim in f..n {
        starts.push(Candidate {
            label: format!("targeted-delay(victim={victim})"),
            strategy: AdversaryStrategy::TargetedDelay { victim },
        });
    }
    starts.push(Candidate {
        label: "partition".into(),
        strategy: AdversaryStrategy::Partition,
    });
    starts
}

/// The continuous parameters of a strategy, with their `[lo, hi]` boxes.
fn continuous_params(s: &AdversaryStrategy, base: &ScenarioSpec) -> Vec<(f64, f64, f64)> {
    let amp_hi = 8.0 * base.params.beta;
    let t_end = base.t_end.as_secs();
    let period_lo = base.params.p_round / 4.0;
    match *s {
        AdversaryStrategy::Crash { at } => vec![(at, 0.0, t_end)],
        AdversaryStrategy::PullApart { amplitude, .. }
        | AdversaryStrategy::TwoFacedValue { amplitude }
        | AdversaryStrategy::Collude { amplitude } => vec![(amplitude, 0.0, amp_hi)],
        AdversaryStrategy::Churn { up, down } => {
            vec![(up, period_lo, t_end), (down, period_lo, t_end)]
        }
        AdversaryStrategy::Mute
        | AdversaryStrategy::Spam
        | AdversaryStrategy::TargetedDelay { .. }
        | AdversaryStrategy::Partition => Vec::new(),
    }
}

/// Rebuilds a strategy with parameter `i` replaced by `v` (clamped by
/// the caller).
fn with_param(s: &AdversaryStrategy, i: usize, v: f64) -> AdversaryStrategy {
    match (*s, i) {
        (AdversaryStrategy::Crash { .. }, 0) => AdversaryStrategy::Crash { at: v },
        (AdversaryStrategy::PullApart { high, .. }, 0) => {
            AdversaryStrategy::PullApart { amplitude: v, high }
        }
        (AdversaryStrategy::TwoFacedValue { .. }, 0) => {
            AdversaryStrategy::TwoFacedValue { amplitude: v }
        }
        (AdversaryStrategy::Collude { .. }, 0) => AdversaryStrategy::Collude { amplitude: v },
        (AdversaryStrategy::Churn { down, .. }, 0) => AdversaryStrategy::Churn { up: v, down },
        (AdversaryStrategy::Churn { up, .. }, 1) => AdversaryStrategy::Churn { up, down: v },
        _ => *s,
    }
}

/// Evaluates candidates through the cached sweep body, returning the
/// worst-window skew of each. Cache hits replay for free; misses
/// simulate through the exact per-point body every sweep uses.
fn evaluate<A: SyncAlgorithm>(
    base: &ScenarioSpec,
    candidates: &[Candidate],
    cache: &SweepCache,
    threads: usize,
    evaluations: &mut usize,
) -> Vec<f64> {
    *evaluations += candidates.len();
    let specs: Vec<ScenarioSpec> = candidates.iter().map(|c| c.spec(base)).collect();
    SweepRequest::new()
        .threads(threads)
        .cached(cache)
        .run::<A>(specs)
        .into_iter()
        .map(|o| o.max_skew)
        .collect()
}

/// Searches the adversary space of one scenario family for the
/// empirical worst-case skew under algorithm `A`.
///
/// `base` describes the family (parameters, horizon, seed, delay/drift
/// models); its `faults`/`adversary` fields are ignored — the search
/// installs its own adversary per candidate. Deterministic: same
/// `(base, cfg)` → same report, at any thread count, and a warm `cache`
/// replays the whole search without simulating.
///
/// # Panics
///
/// Panics if the base spec's `f` exceeds `n` (malformed parameters).
#[must_use]
pub fn search_worst_case<A: SyncAlgorithm>(
    base: &ScenarioSpec,
    cfg: &SearchConfig,
    cache: &SweepCache,
) -> SearchReport {
    let base = {
        // The family's own fault/adversary assignment is replaced by
        // the search's candidates.
        let mut b = base.clone();
        b.faults.clear();
        b.adversary = None;
        b
    };
    let mut evaluations = 0usize;

    // Stage 0: the static gallery, for the report's baseline row.
    let gallery = static_gallery(&base);
    let gallery_specs: Vec<ScenarioSpec> = gallery.iter().map(|(_, s)| s.clone()).collect();
    evaluations += gallery_specs.len();
    let gallery_skews: Vec<f64> = SweepRequest::new()
        .threads(cfg.threads)
        .cached(cache)
        .run::<A>(gallery_specs)
        .into_iter()
        .map(|o| o.max_skew)
        .collect();
    let (gallery_best, _) = argmax(&gallery_skews);
    let gallery_max = gallery_skews[gallery_best];
    let gallery_label = gallery[gallery_best].0.clone();

    // Stage 1: evaluate every starting point (includes the gallery's
    // adversarial equivalents — the ≥-gallery floor).
    let starts = starting_points(&base);
    let start_skews = evaluate::<A>(&base, &starts, cache, cfg.threads, &mut evaluations);
    let mut order: Vec<usize> = (0..starts.len()).collect();
    order.sort_by(|&a, &b| start_skews[b].total_cmp(&start_skews[a]).then(a.cmp(&b)));
    let (mut best, mut best_skew) = (starts[order[0]].clone(), start_skews[order[0]]);

    // Stage 2+3: refine the top starts.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    for &s in order.iter().take(cfg.refine_top.max(1).min(starts.len())) {
        let (cand, skew) = refine::<A>(
            &base,
            starts[s].clone(),
            start_skews[s],
            cfg,
            cache,
            &mut rng,
            &mut evaluations,
        );
        if skew > best_skew {
            best = cand;
            best_skew = skew;
        }
    }

    let bound = wl_core::theory::gamma(&base.params);
    SearchReport {
        best_spec: best.spec(&base),
        best_skew,
        best_label: best.label.clone(),
        gallery_max,
        gallery_label,
        bound,
        margin: bound - best_skew,
        evaluations,
        seed: cfg.seed,
    }
}

/// Coordinate descent then annealing on one starting point.
fn refine<A: SyncAlgorithm>(
    base: &ScenarioSpec,
    start: Candidate,
    start_skew: f64,
    cfg: &SearchConfig,
    cache: &SweepCache,
    rng: &mut StdRng,
    evaluations: &mut usize,
) -> (Candidate, f64) {
    let boxes = continuous_params(&start.strategy, base);
    let (mut cur, mut cur_skew) = (start, start_skew);
    if boxes.is_empty() {
        return (cur, cur_skew);
    }

    // Coordinate descent with halving steps.
    for round in 0..cfg.descent_rounds {
        for (i, &(_, lo, hi)) in boxes.iter().enumerate() {
            let step = (hi - lo) / f64::from(1u32 << (round as u32 + 2));
            let v = continuous_params(&cur.strategy, base)[i].0;
            let probes: Vec<Candidate> = [v - step, v + step]
                .into_iter()
                .filter(|x| (lo..=hi).contains(x))
                .map(|x| Candidate {
                    label: cur.label.clone(),
                    strategy: with_param(&cur.strategy, i, x),
                })
                .collect();
            if probes.is_empty() {
                continue;
            }
            let skews = evaluate::<A>(base, &probes, cache, cfg.threads, evaluations);
            let (j, _) = argmax(&skews);
            if skews[j] > cur_skew {
                cur = probes[j].clone();
                cur_skew = skews[j];
            }
        }
    }

    // Metropolis annealing: geometric cooling from a temperature sized
    // to the theorem bound (the objective's natural scale).
    let mut temp = 0.05 * wl_core::theory::gamma(&base.params);
    for _ in 0..cfg.anneal_steps {
        let i = rng.gen_range(0..boxes.len());
        let (_, lo, hi) = boxes[i];
        let v = continuous_params(&cur.strategy, base)[i].0;
        let jump = (hi - lo) * 0.25 * (rng.gen::<f64>() * 2.0 - 1.0);
        let proposal = Candidate {
            label: cur.label.clone(),
            strategy: with_param(&cur.strategy, i, (v + jump).clamp(lo, hi)),
        };
        let skew = evaluate::<A>(
            base,
            std::slice::from_ref(&proposal),
            cache,
            cfg.threads,
            evaluations,
        )[0];
        let accept = skew > cur_skew || rng.gen::<f64>() < ((skew - cur_skew) / temp).exp();
        if accept && skew > cur_skew {
            cur = proposal;
            cur_skew = skew;
        } else if accept {
            // Downhill acceptance moves the walker but never the
            // incumbent: `cur_skew` tracks the best-so-far, so the
            // returned pair is monotone in the start.
            cur = Candidate {
                label: cur.label.clone(),
                strategy: proposal.strategy,
            };
        }
        temp *= 0.7;
    }
    (cur, cur_skew)
}

fn argmax(xs: &[f64]) -> (usize, f64) {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    (best, xs[best])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_point_as, Capture};
    use crate::Maintenance;
    use wl_core::Params;
    use wl_time::RealTime;

    fn family() -> ScenarioSpec {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        ScenarioSpec::new(params)
            .seed(11)
            .t_end(RealTime::from_secs(6.0))
    }

    #[test]
    fn search_beats_or_matches_gallery_and_respects_bound() {
        let cache = SweepCache::new();
        let report = search_worst_case::<Maintenance>(&family(), &SearchConfig::smoke(), &cache);
        assert!(
            report.best_skew >= report.gallery_max,
            "search {} fell below gallery {}",
            report.best_skew,
            report.gallery_max
        );
        assert!(
            report.best_skew <= report.bound,
            "empirical skew {} exceeds gamma {}",
            report.best_skew,
            report.bound
        );
        assert!(report.margin >= 0.0);
        assert!(report.evaluations > 0);
        assert!(report.best_spec.adversary.is_some());
    }

    #[test]
    fn search_is_deterministic_and_cache_replayable() {
        let cache = SweepCache::new();
        let cfg = SearchConfig::smoke();
        let a = search_worst_case::<Maintenance>(&family(), &cfg, &cache);
        let misses_after_first = cache.misses();
        // Same cache: the whole search replays from memory.
        let b = search_worst_case::<Maintenance>(&family(), &cfg, &cache);
        assert_eq!(cache.misses(), misses_after_first, "warm search simulated");
        assert_eq!(a.best_skew.to_bits(), b.best_skew.to_bits());
        assert_eq!(a.best_label, b.best_label);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(
            a.best_spec.content_hash(),
            b.best_spec.content_hash(),
            "winning spec must be byte-reproducible"
        );
        // Fresh cache, same seed: bit-identical report.
        let c = search_worst_case::<Maintenance>(&family(), &cfg, &SweepCache::new());
        assert_eq!(a.best_skew.to_bits(), c.best_skew.to_bits());
        assert_eq!(a.best_label, c.best_label);
    }

    #[test]
    fn gallery_equivalents_reproduce_static_outcomes() {
        // The ≥-gallery guarantee rests on this: each gallery pair's
        // adversarial spec runs the exact same execution as its static
        // FaultKind spec.
        let base = family();
        for (label, kind, strategy) in gallery_pairs(&base) {
            let mut static_spec = base.clone();
            for p in 0..base.params.f {
                static_spec = static_spec.fault(ProcessId(p), kind);
            }
            let adv_spec = base.clone().adversary(AdversarySpec::new(
                (0..base.params.f).map(ProcessId).collect(),
                strategy,
            ));
            let s = run_point_as::<Maintenance>(Capture::Scalar, 0, &static_spec, None);
            let a = run_point_as::<Maintenance>(Capture::Scalar, 0, &adv_spec, None);
            assert!(
                s.bit_identical(&a),
                "{label}: adversarial equivalent diverged from the static gallery"
            );
        }
    }

    #[test]
    fn report_display_mentions_margin() {
        let cache = SweepCache::new();
        let report = search_worst_case::<Maintenance>(&family(), &SearchConfig::smoke(), &cache);
        let text = format!("{report}");
        assert!(text.contains("bound gamma"));
        assert!(text.contains("margin"));
        assert!(text.contains("gallery max"));
    }
}
