//! Shared measurement helpers: run a [`BuiltScenario`] to completion and
//! extract the standard quantities, generically over the message type —
//! the same code summarizes Welch–Lynch runs and baseline runs.
//!
//! These used to live in the `bench` crate (Welch–Lynch only) and were
//! re-implemented ad hoc inside experiment binaries for the baselines.

use crate::algo::SyncAlgorithm;
use crate::assemble::{
    assemble, assemble_enum, assemble_mono, BuiltScenario, EnumScenario, MonoScenario,
};
use crate::spec::ScenarioSpec;
use crate::sweep::{SweepAlgorithm, SweepSeries};
use wl_analysis::adjustment::{check_adjustments, AdjustmentReport};
use wl_analysis::agreement::{check_agreement, AgreementReport};
use wl_analysis::convergence::{round_series, RoundSeries};
use wl_analysis::skew::SkewSeries;
use wl_analysis::ExecutionView;
use wl_clock::drift::FleetClock;
use wl_core::Params;
use wl_sim::faults::FaultPlan;
use wl_sim::{
    Automaton, CorrectionSink, Counters, EventQueue, Fleet, Observer, SimStats, Simulation,
    StdObservers,
};
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

/// Runs a built scenario for `t_end` simulated seconds and summarizes it
/// against the Welch–Lynch theorem suite.
#[must_use]
pub fn run_summary<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    built: BuiltScenario<M, Q>,
    t_end: f64,
) -> RunSummary {
    run_boxed(built, t_end, false).0
}

/// [`run_summary`] over a [`MonoScenario`] (the monomorphized fast path):
/// drives the sim, then feeds the streamed counters and correction
/// histories through the identical analysis body. Results are
/// bit-identical to the boxed path's.
#[must_use]
pub fn run_summary_mono<A>(built: MonoScenario<A>, t_end: f64) -> RunSummary
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    run_mono(built, t_end, false).0
}

/// [`run_summary`] plus a [`SweepSeries`] captured from the same
/// execution: the per-round skew series, a dense event-aware skew
/// sampling, and the nonfaulty correction series (see [`SweepSeries`]
/// for the exact contents).
///
/// The capture is a post-hoc, read-only pass over the correction
/// histories the standard observers already record — deliberately *not*
/// a [`wl_sim::SkewProbe`] streamed during the run, because the
/// event-adjacent samples (immediately before/after each correction,
/// where the skew is extremal) need the completed history. That also
/// keeps the captured series identical on the boxed and monomorphized
/// run paths by construction, and leaves the scalar summary bit-for-bit
/// what [`run_summary`] returns.
#[must_use]
pub fn run_capture<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    built: BuiltScenario<M, Q>,
    t_end: f64,
) -> (RunSummary, SweepSeries) {
    captured(run_boxed(built, t_end, true))
}

/// [`run_capture`] over a [`MonoScenario`] — same series, same
/// bit-identity guarantees, on the fast path.
#[must_use]
pub fn run_capture_mono<A>(built: MonoScenario<A>, t_end: f64) -> (RunSummary, SweepSeries)
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    captured(run_mono(built, t_end, true))
}

/// [`run_summary`] over an [`EnumScenario`] (the enum-dispatched faulted
/// fast path): drives the sim, then feeds the streamed counters and
/// correction histories through the identical analysis body. Results
/// are bit-identical to the boxed path's.
#[must_use]
pub fn run_summary_enum<A: SyncAlgorithm, Q: EventQueue<A::Msg>>(
    built: EnumScenario<A, Q>,
    t_end: f64,
) -> RunSummary {
    run_enum(built, t_end, false).0
}

/// [`run_capture`] over an [`EnumScenario`] — same series, same
/// bit-identity guarantees, on the enum fast path.
#[must_use]
pub fn run_capture_enum<A: SyncAlgorithm, Q: EventQueue<A::Msg>>(
    built: EnumScenario<A, Q>,
    t_end: f64,
) -> (RunSummary, SweepSeries) {
    captured(run_enum(built, t_end, true))
}

/// The dispatch ladder every sweep grid point takes: fault-free specs run
/// on the monomorphized `Vec<A>` fleet; faulted/rejoiner specs on the
/// enum-dispatched `Vec<A::FleetAuto>` fleet; only traced specs and
/// behaviour adversaries fall back to `Box<dyn Automaton>`. All three
/// rungs share [`drive_and_summarize`] and are pinned bit-identical by
/// `mono_path_bit_identical_to_boxed` and `enum_path_bit_identical_to_boxed`.
pub(crate) fn run_dispatched<A: SweepAlgorithm>(
    spec: &ScenarioSpec,
    capture: bool,
) -> (RunSummary, Option<SweepSeries>) {
    let t_end = spec.t_end.as_secs();
    if let Some(built) = assemble_mono::<A>(spec) {
        run_mono(built, t_end, capture)
    } else if let Some(built) = assemble_enum::<A>(spec) {
        run_enum(built, t_end, capture)
    } else {
        run_boxed(assemble::<A>(spec), t_end, capture)
    }
}

fn run_boxed<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    b: BuiltScenario<M, Q>,
    t_end: f64,
    capture: bool,
) -> (RunSummary, Option<SweepSeries>) {
    drive_and_summarize(b.sim, std_sinks, &b.params, &b.plan, t_end, capture)
}

fn run_mono<A>(b: MonoScenario<A>, t_end: f64, capture: bool) -> (RunSummary, Option<SweepSeries>)
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    drive_and_summarize(b.sim, pair_sinks, &b.params, &b.plan, t_end, capture)
}

fn run_enum<A: SyncAlgorithm, Q: EventQueue<A::Msg>>(
    b: EnumScenario<A, Q>,
    t_end: f64,
    capture: bool,
) -> (RunSummary, Option<SweepSeries>) {
    drive_and_summarize(b.sim, pair_sinks, &b.params, &b.plan, t_end, capture)
}

/// The one drive-and-summarize body behind every `run_*` entry point:
/// run the simulation to completion, then apply the theorem suite to the
/// clocks and whatever `sinks` finds in the observer stack (counters +
/// correction histories) — and optionally sample the series payload from
/// the same view. Keeping this single keeps the run paths from diverging.
fn drive_and_summarize<M, Q, O, F>(
    mut sim: Simulation<M, Q, O, F>,
    sinks: fn(&O) -> (&Counters, &CorrectionSink),
    params: &Params,
    plan: &FaultPlan,
    t_end: f64,
    capture: bool,
) -> (RunSummary, Option<SweepSeries>)
where
    M: Clone + std::fmt::Debug + Send + 'static,
    Q: EventQueue<M>,
    O: Observer<M>,
    F: Fleet<M>,
{
    sim.drive();
    let (counters, corr) = sinks(sim.observer());
    let view = ExecutionView::with_plan(sim.clocks(), corr.histories(), plan);
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
            stats: counters.stats(),
        },
        series,
    )
}

/// Where the boxed path's standard observer bundle keeps its sinks.
fn std_sinks(o: &StdObservers) -> (&Counters, &CorrectionSink) {
    (&o.counters, &o.corr)
}

/// Where the mono/enum fast paths' observer pair keeps its sinks.
fn pair_sinks(o: &(Counters, CorrectionSink)) -> (&Counters, &CorrectionSink) {
    (&o.0, &o.1)
}

fn captured((summary, series): (RunSummary, Option<SweepSeries>)) -> (RunSummary, SweepSeries) {
    (summary, series.expect("capture requested"))
}

/// Runs `spec` with a monomorphized fleet and **no observer at all**
/// ([`wl_sim::NullObserver`]) and returns the engine's own delivered-event
/// count — the raw Monte Carlo throughput floor, with every measurement
/// cost removed. `None` if the spec does not qualify for the fast path
/// (see [`crate::assemble_mono`]).
#[must_use]
pub fn drive_unobserved<A>(spec: &ScenarioSpec) -> Option<u64>
where
    A: SyncAlgorithm + Automaton<Msg = <A as SyncAlgorithm>::Msg>,
{
    let mut sim = crate::assemble::assemble_mono_null::<A>(spec)?;
    sim.drive();
    Some(sim.events_delivered())
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

/// Runs a built scenario and returns only the steady-state skew measured
/// over the second half of the horizon.
#[must_use]
pub fn steady_skew<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    built: BuiltScenario<M, Q>,
    t_end: f64,
) -> f64 {
    run_summary(built, t_end).agreement.steady_skew
}

/// Samples the full skew series of a built scenario (for figure-style
/// outputs).
#[must_use]
pub fn skew_series<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    built: BuiltScenario<M, Q>,
    t_end: f64,
    step: f64,
) -> SkewSeries {
    let params = built.params.clone();
    let plan = built.plan.clone();
    let mut sim = built.sim;
    let outcome = sim.run();
    let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
    SkewSeries::sample_with_events(
        &view,
        RealTime::from_secs(params.t0),
        RealTime::from_secs(t_end * 0.98),
        RealDur::from_secs(step),
    )
}

/// The §10 comparison metrics: `(steady skew, max |ADJ|)`, sampled the way
/// experiment E11 samples baselines (settling for three rounds, steady
/// state over the second half of the horizon).
#[must_use]
pub fn baseline_metrics<M: Clone + std::fmt::Debug + Send + 'static, Q: EventQueue<M>>(
    built: BuiltScenario<M, Q>,
    t_end: f64,
) -> (f64, f64) {
    let params = built.params.clone();
    let plan = built.plan.clone();
    let mut sim = built.sim;
    let outcome = sim.run();
    let view = ExecutionView::with_plan(sim.clocks(), &outcome.corr, &plan);
    let series = SkewSeries::sample_with_events(
        &view,
        RealTime::from_secs(params.t0 + 3.0 * params.p_round),
        RealTime::from_secs(t_end * 0.95),
        RealDur::from_secs(params.p_round / 5.0),
    );
    let steady = series.max_after(RealTime::from_secs(t_end / 2.0));
    let adj = check_adjustments(&view, &params, 1);
    (steady, adj.max_abs)
}
