//! Shared measurement helpers: run a [`BuiltScenario`] to completion and
//! extract the standard quantities. One body, generic over the message
//! type, the queue and the fleet storage — the same code summarizes
//! Welch–Lynch and baseline runs on every dispatch rung.

use crate::assemble::{assemble, assemble_enum, assemble_mono, BuiltScenario};
use crate::spec::ScenarioSpec;
use crate::sweep::{SweepAlgorithm, SweepSeries};
use wl_analysis::adjustment::{check_adjustments, AdjustmentReport};
use wl_analysis::agreement::{check_agreement, AgreementReport};
use wl_analysis::convergence::{round_series, RoundSeries};
use wl_analysis::skew::SkewSeries;
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

/// Runs a built scenario — of any rung — for `t_end` simulated seconds
/// and summarizes it against the Welch–Lynch theorem suite.
#[must_use]
pub fn run_summary<M, Q, F>(built: BuiltScenario<M, Q, F>, t_end: f64) -> RunSummary
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    F: Fleet<M>,
{
    drive_and_summarize(built, t_end, false).0
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
#[must_use]
pub fn run_capture<M, Q, F>(built: BuiltScenario<M, Q, F>, t_end: f64) -> (RunSummary, SweepSeries)
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    F: Fleet<M>,
{
    let (summary, series) = drive_and_summarize(built, t_end, true);
    (summary, series.expect("capture requested"))
}

// The per-rung spellings the repo benchmark imports.
pub use self::{run_capture as run_capture_enum, run_capture as run_capture_mono};
pub use self::{run_summary as run_summary_enum, run_summary as run_summary_mono};

/// The dispatch ladder every sweep grid point takes: all-correct specs
/// run on the monomorphized `Vec<A>` fleet; faulted/rejoiner specs on
/// the enum-dispatched `Vec<A::FleetAuto>` fleet; only behaviour
/// adversaries fall back to `Box<dyn Automaton>`. The rungs are pinned
/// bit-identical by the `rungs_agree` table in `sweep.rs`.
pub(crate) fn run_dispatched<A: SweepAlgorithm>(
    spec: &ScenarioSpec,
    capture: bool,
) -> (RunSummary, Option<SweepSeries>) {
    let t_end = spec.t_end.as_secs();
    if let Some(built) = assemble_mono::<A>(spec) {
        drive_and_summarize(built, t_end, capture)
    } else if let Some(built) = assemble_enum::<A>(spec) {
        drive_and_summarize(built, t_end, capture)
    } else {
        drive_and_summarize(assemble::<A>(spec), t_end, capture)
    }
}

/// The one drive-and-summarize body: run the simulation to completion,
/// then apply the theorem suite to the clocks and the observer bundle's
/// counters and correction histories — and optionally sample the series
/// payload from the same view.
fn drive_and_summarize<M, Q, F>(
    mut built: BuiltScenario<M, Q, F>,
    t_end: f64,
    capture: bool,
) -> (RunSummary, Option<SweepSeries>)
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    F: Fleet<M>,
{
    built.sim.drive();
    let (sim, params) = (&built.sim, &built.params);
    let observed = sim.observer();
    let view = ExecutionView::with_plan(sim.clocks(), observed.corr.histories(), &built.plan);
    let from = RealTime::from_secs(params.t0 + 2.0 * params.p_round);
    let agreement = check_agreement(
        &view,
        params,
        from,
        RealTime::from_secs(t_end * 0.98),
        RealDur::from_secs(params.p_round / 7.0),
    );
    let adjustments = check_adjustments(&view, params, 1);
    let rounds = round_series(&view, RealDur::from_secs(params.p_round / 4.0));
    let series = capture.then(|| capture_series(&view, params, t_end, &rounds));
    (
        RunSummary {
            agreement,
            adjustments,
            rounds,
            stats: observed.counters.stats(),
        },
        series,
    )
}

/// Builds the [`SweepSeries`] payload from a completed execution. The
/// uniform sampling step is `P/10`, floored so even very long horizons
/// stay at ≤ ~4000 grid samples (event-adjacent samples make window
/// maxima exact regardless of grid density, so the floor costs nothing).
fn capture_series(
    view: &ExecutionView<'_, FleetClock>,
    params: &Params,
    t_end: f64,
    rounds: &RoundSeries,
) -> SweepSeries {
    let step = (params.p_round / 10.0).max(t_end / 4000.0);
    let skew = SkewSeries::sample_with_events(
        view,
        RealTime::ZERO,
        RealTime::from_secs(t_end * 0.99),
        RealDur::from_secs(step),
    );
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
        skew_times: skew.samples.iter().map(|&(t, _)| t.as_secs()).collect(),
        skew_values: skew.samples.iter().map(|&(_, s)| s).collect(),
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
    let params = &built.params;
    let outcome = built.sim.run();
    let view = ExecutionView::with_plan(built.sim.clocks(), &outcome.corr, &built.plan);
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
