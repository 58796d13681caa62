//! Shared measurement helpers: run a [`BuiltScenario`] to completion and
//! extract the standard quantities. One body, generic over the message
//! type, the queue and the fleet storage — the same code summarizes
//! Welch–Lynch and baseline runs on every dispatch rung.

use crate::assemble::{assemble, assemble_enum, assemble_mono, BuiltScenario};
use crate::sketch::SkewSketch;
use crate::spec::ScenarioSpec;
use crate::sweep::{Capture, SweepAlgorithm, SweepSeries};
use wl_analysis::adjustment::{check_adjustments, AdjustmentReport};
use wl_analysis::agreement::{AgreementFold, AgreementReport};
use wl_analysis::convergence::{wave_instants, RoundSeries};
use wl_analysis::skew::{around_change, grid, SkewEvaluator, SkewSeries};
use wl_analysis::ExecutionView;
use wl_clock::drift::FleetClock;
use wl_core::Params;
use wl_sim::{EventQueue, Fleet, SimStats};
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

/// Runs a built scenario — of any rung — for `t_end` simulated seconds
/// and summarizes it against the Welch–Lynch theorem suite.
///
/// # Panics
///
/// Panics if `t_end` is below [`min_horizon`].
#[must_use]
pub fn run_summary<M, Q, F>(built: BuiltScenario<M, Q, F>, t_end: f64) -> RunSummary
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    F: Fleet<M>,
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
pub fn run_capture<M, Q, F>(built: BuiltScenario<M, Q, F>, t_end: f64) -> (RunSummary, SweepSeries)
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    F: Fleet<M>,
{
    let (summary, _, series) = drive_and_summarize(built, t_end, Capture::Series);
    (summary, series.expect("capture requested"))
}

// The per-rung spellings the repo benchmark imports.
pub use self::{run_capture as run_capture_enum, run_capture as run_capture_mono};
pub use self::{run_summary as run_summary_enum, run_summary as run_summary_mono};

/// A run's summary with the payload its [`Capture`] level asked for:
/// a sketch under `Sketch`, a series under `Series`, never both.
pub(crate) type Summarized = (RunSummary, Option<SkewSketch>, Option<SweepSeries>);

/// The dispatch ladder every sweep grid point takes: all-correct specs
/// run on the monomorphized `Vec<A>` fleet; faulted/rejoiner specs on
/// the enum-dispatched `Vec<A::FleetAuto>` fleet; only behaviour
/// adversaries fall back to `Box<dyn Automaton>`. The rungs are pinned
/// bit-identical by the `rungs_agree` table in `sweep.rs`.
pub(crate) fn run_dispatched<A: SweepAlgorithm>(
    spec: &ScenarioSpec,
    capture: Capture,
) -> Summarized {
    let t_end = spec.t_end.as_secs();
    if let Some(built) = assemble_mono::<A>(spec) {
        drive_and_summarize(built, t_end, capture)
    } else if let Some(built) = assemble_enum::<A>(spec) {
        drive_and_summarize(built, t_end, capture)
    } else {
        drive_and_summarize(assemble::<A>(spec), t_end, capture)
    }
}

/// Which consumers a sample instant of the one pass feeds.
type Consumers = u8;
const AGREEMENT: Consumers = 1;
const ROUNDS: Consumers = 2;
const CAPTURE: Consumers = 4;

/// The one drive-and-summarize body: run the simulation to completion,
/// then [`summarize`] the clocks and the observer bundle's counters and
/// correction histories.
pub(crate) fn drive_and_summarize<M, Q, F>(
    mut built: BuiltScenario<M, Q, F>,
    t_end: f64,
    capture: Capture,
) -> Summarized
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    F: Fleet<M>,
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
/// generic over the simulation, so every rung of every algorithm shares
/// one copy of it.
///
/// Everything that samples local times — the agreement window at `P/7`,
/// the per-wave round series, and at `capture` above `Scalar` the skew
/// series over `[0, 0.99·t_end]` — is one time-ordered pass of the
/// [`SkewEvaluator`] over the union of their instants: each instant is
/// evaluated once and handed to the consumers it is tagged for. The two
/// instants around a correction change belong to every window the change
/// falls in. A sample is a pure function of its instant, so the order
/// among equal instants cannot change a stored `(t, skew)` pair, and
/// every consumer's fold (`max`, the sketch's integer fields) is
/// order-independent.
fn summarize(
    view: &ExecutionView<'_, FleetClock>,
    params: &Params,
    (from, to): (RealTime, RealTime),
    t_end: f64,
    capture: Capture,
    stats: SimStats,
) -> Summarized {
    let agreement_grid = grid(from, to, RealDur::from_secs(params.p_round / 7.0));
    // The capture grid: step `P/10`, floored so even very long horizons
    // stay at ≤ ~4000 grid samples (event-adjacent samples make window
    // maxima exact regardless of grid density, so the floor costs nothing).
    let capturing = capture != Capture::Scalar;
    let capture_to = RealTime::from_secs(t_end * 0.99);
    let capture_grid = if capturing {
        let step = (params.p_round / 10.0).max(t_end / 4000.0);
        grid(RealTime::ZERO, capture_to, RealDur::from_secs(step))
    } else {
        Vec::new()
    };
    let waves = wave_instants(view, RealDur::from_secs(params.p_round / 4.0));

    // Sized once: this list is the pass's peak memory.
    let changes = view.nonfaulty_change_times().count();
    let mut instants: Vec<(RealTime, Consumers)> =
        Vec::with_capacity(agreement_grid.len() + capture_grid.len() + 2 * changes + waves.len());
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
    let mut round_skews = Vec::with_capacity(waves.len());
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
    use crate::sweep::run_point_as;
    use crate::Maintenance;

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
