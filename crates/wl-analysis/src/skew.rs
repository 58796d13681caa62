//! Pairwise skew of nonfaulty local times.

use crate::ExecutionView;
use wl_clock::Clock;
use wl_time::{ClockDur, RealDur, RealTime};

/// How far (seconds) a "just before" / "just after" sample sits from
/// the correction change it brackets.
pub(crate) const EVENT_EPS: f64 = 1e-9;

/// One monotone pass over an execution's nonfaulty local times
/// `L_p(t) = Ph_p(t) + CORR_p(t)` — the evaluator under every sampler in
/// this crate.
///
/// The nonfaulty set is fixed at construction and each process keeps a
/// cursor into its correction history, so a sample costs one clock read
/// per process instead of an allocation and a binary search per process.
/// The price is the one precondition: instants must be fed in
/// **non-decreasing** order (under [`RealTime::total_cmp`]). For such
/// instants the cursor sits exactly where
/// [`CorrectionHistory::corr_at`](wl_sim::CorrectionHistory::corr_at)'s
/// search lands, and the local time is formed by the same expression as
/// [`ExecutionView::local_time`], so every value is bit-identical to the
/// random-access one.
pub struct SkewEvaluator<'v, C> {
    lanes: Vec<Lane<'v, C>>,
    local: Vec<f64>,
    last: RealTime,
}

/// One nonfaulty process: its clock, its `(t, corr)` change points, and
/// the index of the change in force at the last instant evaluated.
struct Lane<'v, C> {
    clock: &'v C,
    entries: &'v [(RealTime, f64)],
    at: usize,
}

impl<C: Clock> Lane<'_, C> {
    /// Moves the cursor to the change in force at `t` — the latest at or
    /// before it — and evaluates `L_p(t)`.
    #[inline]
    fn local_time_at(&mut self, t: RealTime) -> f64 {
        while self
            .entries
            .get(self.at + 1)
            .is_some_and(|next| next.0.total_cmp(&t).is_le())
        {
            self.at += 1;
        }
        let corr = self.entries[self.at].1;
        (self.clock.read(t) + ClockDur::from_secs(corr)).as_secs()
    }
}

impl<'v, C: Clock> SkewEvaluator<'v, C> {
    /// Positions a cursor before the first change of every nonfaulty
    /// process of `view`.
    ///
    /// # Panics
    ///
    /// Panics if a nonfaulty correction history is empty (construct them
    /// via [`wl_sim::CorrectionHistory::with_initial`]).
    #[must_use]
    pub fn new(view: &ExecutionView<'v, C>) -> Self {
        let lanes: Vec<_> = view
            .nonfaulty()
            .into_iter()
            .map(|p| {
                let entries = view.corr[p].entries();
                assert!(!entries.is_empty(), "empty correction history");
                Lane {
                    clock: &view.clocks[p],
                    entries,
                    at: 0,
                }
            })
            .collect();
        Self {
            local: Vec::with_capacity(lanes.len()),
            lanes,
            last: RealTime::from_secs(f64::NEG_INFINITY),
        }
    }

    /// The one precondition the cursors add, checked in debug builds.
    fn step_to(&mut self, t: RealTime) {
        debug_assert!(
            self.last.total_cmp(&t).is_le(),
            "instants must be non-decreasing: {t:?} after {:?}",
            self.last
        );
        self.last = t;
    }

    /// The nonfaulty local times at `t`, in process-id order.
    ///
    /// `t` must not precede the previous instant this evaluator was
    /// given.
    pub fn local_times_at(&mut self, t: RealTime) -> &[f64] {
        self.step_to(t);
        self.local.clear();
        let lanes = self.lanes.iter_mut();
        self.local.extend(lanes.map(|lane| lane.local_time_at(t)));
        &self.local
    }

    /// The maximum pairwise difference `|L_p(t) − L_q(t)|` over nonfaulty
    /// `p, q` at `t` — 0 when fewer than two nonfaulty processes exist.
    /// Same precondition as [`SkewEvaluator::local_times_at`].
    pub fn skew_at(&mut self, t: RealTime) -> f64 {
        self.step_to(t);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for lane in &mut self.lanes {
            let l = lane.local_time_at(t);
            lo = lo.min(l);
            hi = hi.max(l);
        }
        if self.lanes.len() < 2 {
            0.0
        } else {
            hi - lo
        }
    }
}

/// The maximum pairwise difference `|L_p(t) − L_q(t)|` over nonfaulty
/// `p, q` at one instant.
///
/// Returns 0 when fewer than two nonfaulty processes exist.
#[must_use]
pub fn max_skew_at<C: Clock>(view: &ExecutionView<'_, C>, t: RealTime) -> f64 {
    SkewEvaluator::new(view).skew_at(t)
}

/// The uniform grid `from, from + step, …` below `to`, then `to` itself —
/// in time order.
///
/// # Panics
///
/// Panics if `step` is not positive or `from > to`.
#[must_use]
pub fn grid(from: RealTime, to: RealTime, step: RealDur) -> Vec<RealTime> {
    assert!(step.as_secs() > 0.0, "step must be positive");
    assert!(from <= to, "empty sampling interval");
    let mut instants = Vec::new();
    let mut t = from;
    while t < to {
        instants.push(t);
        t += step;
    }
    instants.push(to);
    instants
}

/// The two instants at which a correction change at `t` makes the skew
/// extremal: 1 ns before it, and `t` itself.
#[must_use]
pub fn around_change(t: RealTime) -> [RealTime; 2] {
    [t - RealDur::from_secs(EVENT_EPS), t]
}

/// A time series of skew samples.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewSeries {
    /// `(t, max pairwise skew at t)` samples in time order.
    pub samples: Vec<(RealTime, f64)>,
}

impl SkewSeries {
    /// One pass of the evaluator over `instants`, which must be in time
    /// order.
    fn evaluate<C: Clock>(view: &ExecutionView<'_, C>, instants: Vec<RealTime>) -> Self {
        let mut eval = SkewEvaluator::new(view);
        let samples = instants.into_iter().map(|t| (t, eval.skew_at(t)));
        Self {
            samples: samples.collect(),
        }
    }

    /// Samples the skew on a uniform grid over `[from, to]` (inclusive of
    /// both endpoints).
    ///
    /// Because local time is piecewise linear between events, a dense grid
    /// plus sampling at every correction-change instant (see
    /// [`SkewSeries::sample_with_events`]) bounds the true maximum tightly.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive or `from > to`.
    #[must_use]
    pub fn sample<C: Clock>(
        view: &ExecutionView<'_, C>,
        from: RealTime,
        to: RealTime,
        step: RealDur,
    ) -> Self {
        Self::evaluate(view, grid(from, to, step))
    }

    /// Samples on a grid *and* immediately before/after every correction
    /// change in `[from, to]` — the skew is extremal at those instants.
    #[must_use]
    pub fn sample_with_events<C: Clock>(
        view: &ExecutionView<'_, C>,
        from: RealTime,
        to: RealTime,
        step: RealDur,
    ) -> Self {
        let mut instants = grid(from, to, step);
        for t in view.nonfaulty_change_times() {
            if t >= from && t <= to {
                instants.extend(around_change(t));
            }
        }
        instants.sort_by(RealTime::total_cmp);
        Self::evaluate(view, instants)
    }

    /// The maximum sampled skew.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples.iter().map(|&(_, s)| s).fold(0.0, f64::max)
    }

    /// The last sampled skew (steady-state estimate).
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|&(_, s)| s)
    }

    /// The maximum skew over samples with `t ≥ after` (steady-state window).
    #[must_use]
    pub fn max_after(&self, after: RealTime) -> f64 {
        self.samples
            .iter()
            .filter(|&&(t, _)| t >= after)
            .map(|&(_, s)| s)
            .fold(0.0, f64::max)
    }

    /// Skew values at the given instants (e.g. round boundaries), in the
    /// order given.
    #[must_use]
    pub fn at_times<C: Clock>(view: &ExecutionView<'_, C>, times: &[RealTime]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..times.len()).collect();
        order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
        let mut eval = SkewEvaluator::new(view);
        let mut skews = vec![0.0; times.len()];
        for i in order {
            skews[i] = eval.skew_at(times[i]);
        }
        skews
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fixed_skew_pair;
    use crate::ExecutionView;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wl_clock::drift::FleetClock;
    use wl_clock::{LinearClock, PiecewiseLinearClock};
    use wl_sim::CorrectionHistory;
    use wl_time::ClockTime;

    #[test]
    fn constant_offset_pair_has_constant_skew() {
        let (clocks, corr) = fixed_skew_pair(0.25);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        assert!((max_skew_at(&view, RealTime::from_secs(0.0)) - 0.25).abs() < 1e-12);
        assert!((max_skew_at(&view, RealTime::from_secs(9.0)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn faulty_processes_excluded() {
        let (clocks, corr) = fixed_skew_pair(100.0);
        let view = ExecutionView::new(&clocks, &corr, vec![false, true]);
        assert_eq!(max_skew_at(&view, RealTime::ZERO), 0.0);
    }

    #[test]
    fn series_max_and_last() {
        let (clocks, mut corr) = fixed_skew_pair(0.1);
        // Process 1 corrects its 0.1 offset away at t = 5.
        corr[1].record(RealTime::from_secs(5.0), -0.1);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let series = SkewSeries::sample(
            &view,
            RealTime::ZERO,
            RealTime::from_secs(10.0),
            RealDur::from_secs(1.0),
        );
        assert!((series.max() - 0.1).abs() < 1e-12);
        assert!(series.last().unwrap().abs() < 1e-12);
        assert!(series.max_after(RealTime::from_secs(5.0)) < 1e-12);
    }

    #[test]
    fn sample_with_events_catches_pre_correction_peak() {
        let (clocks, mut corr) = fixed_skew_pair(0.0);
        // Process 1 drifts via corrections: jumps +1 at t=2.5, fixed at 2.6.
        corr[1].record(RealTime::from_secs(2.5), 1.0);
        corr[1].record(RealTime::from_secs(2.6), 0.0);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        // Coarse grid alone (step 1s at 0,1,2,3,...) misses the spike.
        let coarse = SkewSeries::sample(
            &view,
            RealTime::ZERO,
            RealTime::from_secs(5.0),
            RealDur::from_secs(1.0),
        );
        assert!(coarse.max() < 0.5);
        let with_events = SkewSeries::sample_with_events(
            &view,
            RealTime::ZERO,
            RealTime::from_secs(5.0),
            RealDur::from_secs(1.0),
        );
        assert!((with_events.max() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn at_times_evaluates_pointwise() {
        let (clocks, corr) = fixed_skew_pair(0.3);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let v = SkewSeries::at_times(&view, &[RealTime::from_secs(1.0), RealTime::from_secs(2.0)]);
        assert_eq!(v.len(), 2);
        assert!((v[0] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn at_times_keeps_the_callers_order() {
        let (clocks, mut corr) = fixed_skew_pair(0.0);
        corr[1].record(RealTime::from_secs(1.5), 0.5);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let times = [2.0, 1.0, 2.0, 1.5].map(RealTime::from_secs);
        assert_eq!(SkewSeries::at_times(&view, &times), [0.5, 0.0, 0.5, 0.5]);
    }

    /// The one precondition the cursors add.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn evaluator_refuses_to_go_back_in_time() {
        let (clocks, corr) = fixed_skew_pair(0.1);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let mut eval = SkewEvaluator::new(&view);
        let _ = eval.skew_at(RealTime::from_secs(2.0));
        let _ = eval.skew_at(RealTime::from_secs(1.0));
    }

    /// Pointwise `hi − lo` over the random-access `view.local_time`: what
    /// every sample was before the evaluator, and the reference it must
    /// match bit for bit.
    fn pointwise_skew(view: &ExecutionView<'_, FleetClock>, t: RealTime) -> f64 {
        let ids = view.nonfaulty();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &p in &ids {
            let l = view.local_time(p, t);
            lo = lo.min(l);
            hi = hi.max(l);
        }
        if ids.len() < 2 {
            0.0
        } else {
            hi - lo
        }
    }

    /// `sample_with_events` as it was written over the pointwise skew:
    /// grid samples first, then each nonfaulty process' event pairs,
    /// stable-sorted by time.
    fn pointwise_sample_with_events(
        view: &ExecutionView<'_, FleetClock>,
        from: RealTime,
        to: RealTime,
        step: RealDur,
    ) -> Vec<(RealTime, f64)> {
        let mut samples = Vec::new();
        let mut t = from;
        while t < to {
            samples.push((t, pointwise_skew(view, t)));
            t += step;
        }
        samples.push((to, pointwise_skew(view, to)));
        let eps = RealDur::from_secs(1e-9);
        for p in view.nonfaulty() {
            for t in view.corr[p].change_times() {
                if t >= from && t <= to {
                    samples.push((t - eps, pointwise_skew(view, t - eps)));
                    samples.push((t, pointwise_skew(view, t)));
                }
            }
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        samples
    }

    /// A gap between consecutive instants or changes: none at all (equal
    /// times), well under the 1 ns event offset, or ordinary.
    fn arb_gap(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..4) {
            0 => 0.0,
            1 => rng.gen_range(0.0..1e-9),
            _ => rng.gen_range(0.0..0.3),
        }
    }

    /// A fleet of 1–6 processes, 0–3 of them faulty, on linear and
    /// piecewise clocks, whose histories change between t = 0 and ~3.
    fn arb_fleet(rng: &mut StdRng) -> (Vec<FleetClock>, Vec<CorrectionHistory>, Vec<bool>) {
        let n = rng.gen_range(1..7usize);
        let mut faulty = vec![false; n];
        for _ in 0..rng.gen_range(0..4) {
            faulty[rng.gen_range(0..n)] = true;
        }
        let rate = |rng: &mut StdRng| rng.gen_range(0.999..1.001);
        let clocks = (0..n)
            .map(|_| {
                let offset = ClockTime::from_secs(rng.gen_range(-1.0..1.0));
                if rng.gen_bool(0.5) {
                    FleetClock::Linear(LinearClock::new(rate(rng), offset))
                } else {
                    let pieces: Vec<(RealDur, f64)> = (0..rng.gen_range(1..5))
                        .map(|_| (RealDur::from_secs(rng.gen_range(0.0..1.0)), rate(rng)))
                        .collect();
                    FleetClock::Piecewise(PiecewiseLinearClock::from_rates(
                        RealTime::ZERO,
                        offset,
                        &pieces,
                        rate(rng),
                    ))
                }
            })
            .collect();
        let corr = (0..n)
            .map(|_| {
                let mut history = CorrectionHistory::with_initial(rng.gen_range(-0.5..0.5));
                let mut t = 0.0;
                for _ in 0..rng.gen_range(0..12) {
                    t += arb_gap(rng);
                    history.record(RealTime::from_secs(t), rng.gen_range(-0.5..0.5));
                }
                history
            })
            .collect();
        (clocks, corr, faulty)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 128,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// Over any non-decreasing instants — starting before the first
        /// change, running past the last, with repeats and sub-nanosecond
        /// steps — the cursors land where the binary search does: local
        /// times and skews are bit-equal to the random-access ones.
        #[test]
        fn prop_evaluator_matches_pointwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (clocks, corr, faulty) = arb_fleet(&mut rng);
            let view = ExecutionView::new(&clocks, &corr, faulty);
            let ids = view.nonfaulty();
            let mut eval = SkewEvaluator::new(&view);
            // A random walk, plus every change instant itself (faulty
            // processes' too) and the pair around it.
            let mut t = -0.5;
            let mut instants: Vec<RealTime> = (0..48)
                .map(|_| {
                    t += arb_gap(&mut rng);
                    RealTime::from_secs(t)
                })
                .collect();
            instants.extend(corr.iter().flat_map(CorrectionHistory::change_times));
            instants.extend(view.nonfaulty_change_times().flat_map(around_change));
            instants.sort_by(RealTime::total_cmp);
            for at in instants {
                let local: Vec<u64> = eval.local_times_at(at).iter().map(|l| l.to_bits()).collect();
                let want: Vec<u64> =
                    ids.iter().map(|&p| view.local_time(p, at).to_bits()).collect();
                proptest::prop_assert_eq!(local, want);
                proptest::prop_assert_eq!(
                    eval.skew_at(at).to_bits(),
                    pointwise_skew(&view, at).to_bits()
                );
                proptest::prop_assert_eq!(
                    max_skew_at(&view, at).to_bits(),
                    pointwise_skew(&view, at).to_bits()
                );
            }
        }

        /// `sample_with_events` is, sample for sample, the series the
        /// pointwise implementation built.
        #[test]
        fn prop_sample_with_events_matches_pointwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (clocks, corr, faulty) = arb_fleet(&mut rng);
            let view = ExecutionView::new(&clocks, &corr, faulty);
            let from = RealTime::from_secs(rng.gen_range(-0.5..1.0));
            let to = from + RealDur::from_secs(rng.gen_range(0.0..3.0));
            let step = RealDur::from_secs(rng.gen_range(0.01..0.5));
            let got = SkewSeries::sample_with_events(&view, from, to, step).samples;
            let want = pointwise_sample_with_events(&view, from, to, step);
            let bits = |s: &[(RealTime, f64)]| -> Vec<(u64, u64)> {
                s.iter().map(|&(t, v)| (t.as_secs().to_bits(), v.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let (clocks, corr) = fixed_skew_pair(0.0);
        let view = ExecutionView::new(&clocks, &corr, vec![false, false]);
        let _ = SkewSeries::sample(
            &view,
            RealTime::ZERO,
            RealTime::from_secs(1.0),
            RealDur::ZERO,
        );
    }
}
