//! Shared measurement helpers: run a [`BuiltScenario`] to completion and
//! extract the standard quantities. One body, generic over the message
//! type and the queue — the same code summarizes Welch–Lynch and
//! baseline runs.

use crate::algo::SyncAlgorithm;
use crate::assemble::{assemble, assembly, BuiltScenario};
use crate::sketch::SkewSketch;
use crate::spec::ScenarioSpec;
use crate::sweep::{Capture, SweepSeries};
use wl_analysis::adjustment::{check_adjustments, AdjustmentReport};
use wl_analysis::agreement::{AgreementFold, AgreementReport};
use wl_analysis::convergence::{waves_of_sorted, RoundSeries};
use wl_analysis::skew::{around_change, grid, SkewEvaluator, SkewSeries};
use wl_analysis::ExecutionView;
use wl_clock::drift::FleetClock;
use wl_core::Params;
use wl_sim::{EventQueue, HeapQueue, NullObserver, SimStats, Simulation};
use wl_time::{RealDur, RealTime};

/// Everything the experiments usually need from one run.
#[derive(Debug)]
pub struct RunSummary {
    /// Agreement check from two rounds in to the end.
    pub agreement: AgreementReport,
    /// Adjustment check (first adjustment skipped as warm-up).
    pub adjustments: AdjustmentReport,
    /// Skew at each resynchronization wave.
    pub rounds: RoundSeries,
    /// Raw simulator counters (events delivered, timers suppressed, …).
    pub stats: SimStats,
}

/// The window Theorem 16 is checked on: from two rounds in, `t0 + 2P`,
/// to `0.98·t_end`.
///
/// # Errors
///
/// A horizon so short that the window is empty is refused, naming
/// `t_end` and [`min_horizon`] — every run body and every CLI that
/// takes a horizon asks here first.
pub fn agreement_window(params: &Params, t_end: f64) -> Result<(RealTime, RealTime), String> {
    let from = params.t0 + 2.0 * params.p_round;
    let to = t_end * 0.98;
    if from <= to {
        Ok((RealTime::from_secs(from), RealTime::from_secs(to)))
    } else {
        Err(format!(
            "t_end = {t_end} s is too short: the agreement window [t0 + 2P, 0.98 t_end] is \
             empty below t_end = {} s",
            min_horizon(params)
        ))
    }
}

/// The smallest horizon (seconds) [`agreement_window`] accepts for
/// `params`, to within rounding.
#[must_use]
pub fn min_horizon(params: &Params) -> f64 {
    (params.t0 + 2.0 * params.p_round) / 0.98
}

/// Runs a built scenario for `t_end` simulated seconds and summarizes it
/// against the Welch–Lynch theorem suite.
///
/// # Panics
///
/// Panics if `t_end` is below [`min_horizon`].
#[must_use]
pub fn run_summary<M, Q>(built: BuiltScenario<M, Q>, t_end: f64) -> RunSummary
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
{
    drive_and_summarize(built, t_end, Capture::Scalar).0
}

/// [`run_summary`] plus a [`SweepSeries`] captured from the same
/// execution: the per-round skew series, a dense event-aware skew
/// sampling, and the nonfaulty correction series (see [`SweepSeries`]
/// for the exact contents).
///
/// The capture is a post-hoc, read-only pass over the correction
/// histories the standard observers already record — not a sampler
/// streamed during the run, because the event-adjacent samples
/// (immediately before/after each correction, where the skew is
/// extremal) need the completed history. It leaves the scalar summary
/// bit-for-bit what [`run_summary`] returns.
///
/// # Panics
///
/// Panics if `t_end` is below [`min_horizon`].
#[must_use]
pub fn run_capture<M, Q>(built: BuiltScenario<M, Q>, t_end: f64) -> (RunSummary, SweepSeries)
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
{
    let (summary, _, series) = drive_and_summarize(built, t_end, Capture::Series);
    (summary, series.expect("capture requested"))
}

// The repo benchmark's spellings, from when a point ran on one of three
// fleet types. Each is the one assembly or the one run; `_mono` / `_enum`
// accept just the specs those fleets held, so its rows keep their points.
pub use self::{run_capture as run_capture_enum, run_capture as run_capture_mono};
pub use self::{run_summary as run_summary_enum, run_summary as run_summary_mono};

/// The benchmark's spelling of [`assemble`], for a spec with no
/// designated fault, rejoiner or behaviour adversary; `None` otherwise.
#[must_use]
pub fn assemble_mono<A: SyncAlgorithm>(spec: &ScenarioSpec) -> Option<BuiltScenario<A::Msg>> {
    held(spec, true).then(|| assemble::<A>(spec))
}

/// The benchmark's spelling of [`assemble`], for a spec with no
/// behaviour adversary; `None` otherwise.
#[must_use]
pub fn assemble_enum<A: SyncAlgorithm>(spec: &ScenarioSpec) -> Option<BuiltScenario<A::Msg>> {
    held(spec, false).then(|| assemble::<A>(spec))
}

/// [`assemble_mono`]'s assembly under [`NullObserver`]: the engine's own
/// event counter the only instrument (the benchmark's `sim.null_mev_per_s`).
#[must_use]
pub fn assemble_mono_null<A: SyncAlgorithm>(
    spec: &ScenarioSpec,
) -> Option<Simulation<A::Msg, HeapQueue<A::Msg>, NullObserver>> {
    let builder = held(spec, true).then(|| assembly::<A>(spec).builder)?;
    Some(builder.build_with(HeapQueue::new(), NullObserver))
}

fn held(spec: &ScenarioSpec, mono: bool) -> bool {
    let member = (spec.adversary.as_ref()).is_some_and(|adv| !adv.strategy.is_delay_only());
    !member && !(mono && (!spec.faults.is_empty() || spec.rejoiner.is_some()))
}

/// A run's summary with the payload its [`Capture`] level asked for:
/// a sketch under `Sketch`, a series under `Series`, never both.
pub(crate) type Summarized = (RunSummary, Option<SkewSketch>, Option<SweepSeries>);

/// Which consumers a sample instant of the one pass feeds.
type Consumers = u8;
const AGREEMENT: Consumers = 1;
const ROUNDS: Consumers = 2;
const CAPTURE: Consumers = 4;

/// The head of one of the pass's instant streams: the instant, its
/// [`RealTime::order_key`], and the consumers it feeds. A spent stream's
/// key is `u64::MAX`, the key of no finite or infinite instant.
#[derive(Clone, Copy)]
struct Head {
    key: u64,
    t: RealTime,
    consumers: Consumers,
}

impl Head {
    const SPENT: Self = Self {
        key: u64::MAX,
        t: RealTime::ZERO,
        consumers: 0,
    };

    fn of(t: Option<RealTime>, consumers: Consumers) -> Self {
        t.map_or(Self::SPENT, |t| Self {
            key: t.order_key(),
            t,
            consumers,
        })
    }
}

/// The one drive-and-summarize body: run the simulation to completion,
/// then [`summarize`] the clocks and the observer bundle's counters and
/// correction histories.
pub(crate) fn drive_and_summarize<M, Q>(
    mut built: BuiltScenario<M, Q>,
    t_end: f64,
    capture: Capture,
) -> Summarized
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
{
    let window = agreement_window(&built.params, t_end).unwrap_or_else(|e| panic!("{e}"));
    built.sim.drive();
    let sim = &built.sim;
    let observed = sim.observer();
    let view = ExecutionView::with_plan(sim.clocks(), observed.corr.histories(), &built.plan);
    let stats = observed.counters.stats();
    summarize(&view, &built.params, window, t_end, capture, stats)
}

/// The theorem suite over a completed execution — deliberately not
/// generic over the simulation, so every algorithm shares one copy of
/// it.
///
/// Everything that samples local times — the agreement window at `P/7`,
/// the per-wave round series, and at `capture` above `Scalar` the skew
/// series over `[0, 0.99·t_end]` — is one time-ordered pass of the
/// [`SkewEvaluator`] over the union of their instants. The union is a
/// merge of five streams that are each in time order already: the
/// agreement grid, the capture grid, the instants 1 ns before each
/// nonfaulty correction change, the changes themselves (sorted once,
/// and shared with the wave finder), and the waves. Each stream is a
/// concrete cursor whose head keeps its order key, so an instant costs
/// the minimum of five integers. Each distinct instant is evaluated once
/// and handed to every stream element equal to it, for the consumers
/// that element is tagged for: the round series and the capture take
/// one sample per element, the agreement fold one per instant (it keeps
/// maxima). The two instants around a change belong to every window the
/// change falls in. A sample is a pure function of its instant, so the
/// order among equal instants cannot change a stored `(t, skew)` pair,
/// and every consumer's fold (`max`, the sketch's integer fields, which
/// a sketch capture folds each sample into as it comes) is
/// order-independent.
fn summarize(
    view: &ExecutionView<'_, FleetClock>,
    params: &Params,
    (from, to): (RealTime, RealTime),
    t_end: f64,
    capture: Capture,
    stats: SimStats,
) -> Summarized {
    let mut changes: Vec<RealTime> = view.nonfaulty_change_times().collect();
    changes.sort_by(RealTime::total_cmp);
    let waves = waves_of_sorted(&changes, RealDur::from_secs(params.p_round / 4.0));
    // The capture grid: step `P/10`, floored so even very long horizons
    // stay at ≤ ~4000 grid samples (event-adjacent samples make window
    // maxima exact regardless of grid density, so the floor costs nothing).
    let capturing = capture != Capture::Scalar;
    let capture_to = RealTime::from_secs(t_end * 0.99);
    let capture_step = RealDur::from_secs((params.p_round / 10.0).max(t_end / 4000.0));

    let mut agreement_grid = grid(from, to, RealDur::from_secs(params.p_round / 7.0));
    let mut capture_grid = capturing
        .then(|| grid(RealTime::ZERO, capture_to, capture_step))
        .into_iter()
        .flatten();
    let tagged: Vec<(RealTime, Consumers)> = changes
        .iter()
        .filter_map(|&t| {
            let mut consumers = 0;
            if t >= from && t <= to {
                consumers |= AGREEMENT;
            }
            if capturing && t >= RealTime::ZERO && t <= capture_to {
                consumers |= CAPTURE;
            }
            (consumers != 0).then_some((t, consumers))
        })
        .collect();
    // The tagged changes are walked by two indices: side 0 of
    // `around_change` is the instant 1 ns before a change, side 1 the
    // change itself.
    let change = |i: usize, side: usize| match tagged.get(i) {
        Some(&(t, consumers)) => Head::of(Some(around_change(t)[side]), consumers),
        None => Head::SPENT,
    };
    let wave = |i: usize| Head::of(waves.get(i).copied(), ROUNDS);
    let (mut before, mut at, mut waved) = (0, 0, 0);
    let mut heads = [
        Head::of(agreement_grid.next(), AGREEMENT),
        Head::of(capture_grid.next(), CAPTURE),
        change(before, 0),
        change(at, 1),
        wave(waved),
    ];

    let mut eval = SkewEvaluator::new(view);
    let mut agreement = AgreementFold::new(from, to);
    let mut round_skews = Vec::with_capacity(waves.len());
    let mut sketch = (capture == Capture::Sketch).then(SkewSketch::new);
    let mut last_bin = 0;
    let (mut skew_times, mut skew_values) = (Vec::new(), Vec::new());
    loop {
        let Head { key, t, .. } = *heads
            .iter()
            .min_by_key(|head| head.key)
            .expect("five streams");
        if key == Head::SPENT.key {
            break;
        }
        let skew = eval.skew_at(t);
        let mut at_instant = 0;
        for (stream, head) in heads.iter_mut().enumerate() {
            while head.key == key {
                at_instant |= head.consumers;
                if head.consumers & ROUNDS != 0 {
                    round_skews.push(skew);
                }
                if head.consumers & CAPTURE != 0 {
                    if let Some(sketch) = &mut sketch {
                        sketch.fold(skew, &mut last_bin);
                    } else {
                        skew_times.push(t.as_secs());
                        skew_values.push(skew);
                    }
                }
                *head = match stream {
                    0 => Head::of(agreement_grid.next(), AGREEMENT),
                    1 => Head::of(capture_grid.next(), CAPTURE),
                    2 => {
                        before += 1;
                        change(before, 0)
                    }
                    3 => {
                        at += 1;
                        change(at, 1)
                    }
                    _ => {
                        waved += 1;
                        wave(waved)
                    }
                };
            }
        }
        // The fold keeps maxima: one observation per instant is all of it.
        if at_instant & AGREEMENT != 0 {
            agreement.observe(t, skew);
        }
    }

    let rounds = RoundSeries {
        skews: round_skews,
        times: waves,
    };
    let series = (capture == Capture::Series)
        .then(|| series_payload(view, &rounds, skew_times, skew_values));
    let summary = RunSummary {
        agreement: agreement.finish(params),
        adjustments: check_adjustments(view, params, 1),
        rounds,
        stats,
    };
    (summary, sketch, series)
}

/// Assembles the [`SweepSeries`] payload around the skew samples the
/// pass produced: the round series it also produced, and the nonfaulty
/// correction changes in time order.
fn series_payload(
    view: &ExecutionView<'_, FleetClock>,
    rounds: &RoundSeries,
    skew_times: Vec<f64>,
    skew_values: Vec<f64>,
) -> SweepSeries {
    let mut corr_changes: Vec<(u32, f64, f64)> = Vec::new();
    for p in view.nonfaulty() {
        for &(t, c) in view.corr[p].entries() {
            let t = t.as_secs();
            if t.is_finite() {
                corr_changes.push((p as u32, t, c));
            }
        }
    }
    corr_changes.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    SweepSeries {
        round_times: rounds.times.iter().map(|t| t.as_secs()).collect(),
        round_skews: rounds.skews.clone(),
        skew_times,
        skew_values,
        corr_procs: corr_changes.iter().map(|&(p, _, _)| p).collect(),
        corr_times: corr_changes.iter().map(|&(_, t, _)| t).collect(),
        corr_values: corr_changes.iter().map(|&(_, _, c)| c).collect(),
    }
}

/// The §10 comparison metrics: `(steady skew, max |ADJ|)`, sampled the way
/// experiment E11 samples baselines (settling for three rounds, steady
/// state over the second half of the horizon).
#[must_use]
pub fn baseline_metrics<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    mut built: BuiltScenario<M, Q>,
    t_end: f64,
) -> (f64, f64) {
    built.sim.drive();
    let (sim, params) = (&built.sim, &built.params);
    let view = ExecutionView::with_plan(sim.clocks(), sim.observer().corr.histories(), &built.plan);
    let series = SkewSeries::sample_with_events(
        &view,
        RealTime::from_secs(params.t0 + 3.0 * params.p_round),
        RealTime::from_secs(t_end * 0.95),
        RealDur::from_secs(params.p_round / 5.0),
    );
    let steady = series.max_after(RealTime::from_secs(t_end / 2.0));
    let adj = check_adjustments(&view, params, 1);
    (steady, adj.max_abs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_point_as, SweepOutcome};
    use crate::{derive_seed, DelayKind, FaultKind, Maintenance};
    use wl_clock::drift::DriftModel;
    use wl_sim::ProcessId;

    /// The pass as it was before the merge: every instant of every
    /// consumer collected into one tagged list, stable-sorted by time,
    /// and evaluated entry by entry — the oracle [`summarize`] must
    /// match bit for bit.
    fn summarize_by_sorting(
        view: &ExecutionView<'_, FleetClock>,
        params: &Params,
        (from, to): (RealTime, RealTime),
        t_end: f64,
        capture: Capture,
        stats: SimStats,
    ) -> Summarized {
        use wl_analysis::convergence::wave_instants;
        let agreement_grid: Vec<RealTime> =
            grid(from, to, RealDur::from_secs(params.p_round / 7.0)).collect();
        let capturing = capture != Capture::Scalar;
        let capture_to = RealTime::from_secs(t_end * 0.99);
        let capture_grid: Vec<RealTime> = if capturing {
            let step = (params.p_round / 10.0).max(t_end / 4000.0);
            grid(RealTime::ZERO, capture_to, RealDur::from_secs(step)).collect()
        } else {
            Vec::new()
        };
        let waves = wave_instants(view, RealDur::from_secs(params.p_round / 4.0));

        let mut instants: Vec<(RealTime, Consumers)> = Vec::new();
        let mut feed = |ts: &[RealTime], consumers: Consumers| {
            instants.extend(ts.iter().map(|&t| (t, consumers)));
        };
        feed(&agreement_grid, AGREEMENT);
        feed(&capture_grid, CAPTURE);
        for t in view.nonfaulty_change_times() {
            let mut consumers = 0;
            if t >= from && t <= to {
                consumers |= AGREEMENT;
            }
            if capturing && t >= RealTime::ZERO && t <= capture_to {
                consumers |= CAPTURE;
            }
            if consumers != 0 {
                feed(&around_change(t), consumers);
            }
        }
        feed(&waves, ROUNDS);
        instants.sort_by(|a, b| a.0.total_cmp(&b.0));

        let mut eval = SkewEvaluator::new(view);
        let mut agreement = AgreementFold::new(from, to);
        let mut round_skews = Vec::new();
        let mut sketch = SkewSketch::new();
        let (mut skew_times, mut skew_values) = (Vec::new(), Vec::new());
        for (t, consumers) in instants {
            let skew = eval.skew_at(t);
            if consumers & AGREEMENT != 0 {
                agreement.observe(t, skew);
            }
            if consumers & ROUNDS != 0 {
                round_skews.push(skew);
            }
            if consumers & CAPTURE != 0 {
                if capture == Capture::Sketch {
                    sketch.observe(skew);
                } else {
                    skew_times.push(t.as_secs());
                    skew_values.push(skew);
                }
            }
        }
        let rounds = RoundSeries {
            skews: round_skews,
            times: waves,
        };
        let series = (capture == Capture::Series)
            .then(|| series_payload(view, &rounds, skew_times, skew_values));
        let summary = RunSummary {
            agreement: agreement.finish(params),
            adjustments: check_adjustments(view, params, 1),
            rounds,
            stats,
        };
        (
            summary,
            (capture == Capture::Sketch).then_some(sketch),
            series,
        )
    }

    /// A summary as one comparable record: every scalar, the sketch and
    /// the series through [`SweepOutcome::bit_identical`], and the round
    /// series and γ by their bits.
    fn same(a: &Summarized, b: &Summarized) -> bool {
        let outcome = |(summary, sketch, series): &Summarized| {
            let mut outcome = SweepOutcome::new(0, 0, summary);
            (outcome.sketch, outcome.series) = (sketch.clone(), series.clone());
            outcome
        };
        let bits = |(summary, _, _): &Summarized| {
            let rounds = &summary.rounds;
            let mut bits: Vec<u64> = rounds.skews.iter().map(|s| s.to_bits()).collect();
            bits.extend(rounds.times.iter().map(|t| t.as_secs().to_bits()));
            bits.push(summary.agreement.gamma.to_bits());
            bits.push(summary.agreement.tightness.to_bits());
            (bits, rounds.skews.len())
        };
        outcome(a).bit_identical(&outcome(b)) && bits(a) == bits(b)
    }

    /// The merged pass is the sorted pass, bit for bit, on linear and
    /// piecewise drift, with and without faults, at every capture level,
    /// over the run's own window and over windows whose edges sit
    /// exactly on capture-grid instants and on correction changes — the
    /// instants two streams share.
    #[test]
    fn merged_pass_matches_the_sorted_oracle() {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let wandering = DriftModel::RandomPiecewise {
            rho: params.rho,
            segment_secs: params.p_round / 10.0,
            horizon_secs: 1.2,
        };
        let delays = [
            DelayKind::Constant,
            DelayKind::Uniform,
            DelayKind::AdversarialSplit,
        ];
        for i in 0..12u64 {
            let mut spec = ScenarioSpec::new(params.clone())
                .seed(derive_seed(0x0_2AC1E, i))
                .delay(delays[i as usize % 3])
                .t_end(RealTime::from_secs(1.5 + 0.25 * (i % 3) as f64));
            if i % 2 == 1 {
                spec = spec.drift(wandering.clone());
            }
            match i % 4 {
                2 => spec = spec.fault(ProcessId(3), FaultKind::PullApart(0.002)),
                3 => spec = spec.rejoiner(ProcessId(0), RealTime::from_secs(1.3)),
                _ => {}
            }
            let t_end = spec.t_end.as_secs();
            let mut built = crate::assemble::assemble::<Maintenance>(&spec);
            built.sim.drive();
            let sim = &built.sim;
            let histories = sim.observer().corr.histories();
            let view = ExecutionView::with_plan(sim.clocks(), histories, &built.plan);
            let stats = sim.observer().counters.stats();

            let step = (params.p_round / 10.0).max(t_end / 4000.0);
            let capture_grid: Vec<RealTime> = grid(
                RealTime::ZERO,
                RealTime::from_secs(t_end * 0.99),
                RealDur::from_secs(step),
            )
            .collect();
            let mut changes: Vec<RealTime> = view.nonfaulty_change_times().collect();
            changes.sort_by(RealTime::total_cmp);
            assert!(changes.len() > 8, "spec {i} changes its corrections");
            let on_grid = |at: f64| capture_grid[(capture_grid.len() as f64 * at) as usize];
            let on_change = |at: f64| changes[(changes.len() as f64 * at) as usize];
            let windows = [
                agreement_window(&params, t_end).unwrap(),
                (on_grid(0.3), on_grid(0.8)),
                (on_change(0.2), on_change(0.9)),
                (on_grid(0.1), on_change(0.6)),
                (on_change(0.4), on_change(0.4)),
            ];
            for window in windows {
                for capture in [Capture::Scalar, Capture::Sketch, Capture::Series] {
                    let merged = summarize(&view, &params, window, t_end, capture, stats);
                    let sorted =
                        summarize_by_sorting(&view, &params, window, t_end, capture, stats);
                    assert!(
                        same(&merged, &sorted),
                        "spec {i}, window {window:?}, {capture:?}: merged {merged:?} \
                         sorted {sorted:?}"
                    );
                }
            }
        }
    }

    /// A horizon below [`min_horizon`] is refused by name — by the check
    /// itself, and by the per-point body every sweep, worker and server
    /// pool runs, instead of an anonymous `empty sampling interval`.
    #[test]
    fn short_horizon_refusal_names_t_end_and_the_minimum() {
        let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap();
        let min = min_horizon(&params);
        assert!(agreement_window(&params, min + 1e-9).is_ok());
        assert!(agreement_window(&params, f64::NAN).is_err());
        let refusal = agreement_window(&params, 1.0).unwrap_err();
        assert!(refusal.starts_with("t_end = 1 s is too short"), "{refusal}");
        assert!(refusal.ends_with(&format!("t_end = {min} s")), "{refusal}");

        let spec = ScenarioSpec::new(params).t_end(RealTime::from_secs(1.0));
        let panic = std::panic::catch_unwind(|| {
            run_point_as::<Maintenance>(Capture::Sketch, 0, &spec, None)
        })
        .expect_err("a too-short spec does not run");
        assert_eq!(panic.downcast_ref::<String>(), Some(&refusal));
    }
}
