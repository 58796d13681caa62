//! Message-delay models (assumption A3: every delay lies in `[δ−ε, δ+ε]`).
//!
//! The paper treats the delay of each message as adversarially chosen
//! within the band. Experiments therefore need both benign distributions
//! (uniform noise) and adversarial ones that *correlate* delays with the
//! sender/receiver to push the algorithm toward its worst case. Every
//! delay fault is one of two models: the shared medium, and
//! [`PerPairDelay`]'s fixed links over any other model — the harness's
//! adversarial split (every link fixed) and its delay-only adversaries
//! (chosen links pinned to a band edge) both run on it.

use crate::ProcessId;
use rand::rngs::StdRng;
use rand::Rng;
use wl_time::{RealDur, RealTime};

/// The admissible delay band `[δ−ε, δ+ε]` (assumption A3; requires δ > ε).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBounds {
    /// Median delay δ.
    pub delta: RealDur,
    /// Uncertainty ε.
    pub eps: RealDur,
}

impl DelayBounds {
    /// Creates the band, validating `δ > ε ≥ 0` (A3 requires δ > ε so that
    /// delays stay positive).
    ///
    /// # Panics
    ///
    /// Panics if `ε < 0` or `δ ≤ ε`.
    #[must_use]
    pub fn new(delta: RealDur, eps: RealDur) -> Self {
        assert!(eps.as_secs() >= 0.0, "eps must be non-negative");
        assert!(
            delta.as_secs() > eps.as_secs() || (eps.as_secs() == 0.0 && delta.as_secs() >= 0.0),
            "assumption A3 requires delta > eps (delta={delta}, eps={eps})"
        );
        Self { delta, eps }
    }

    /// Smallest admissible delay `δ − ε`.
    #[must_use]
    pub fn min_delay(&self) -> RealDur {
        self.delta - self.eps
    }

    /// Largest admissible delay `δ + ε`.
    #[must_use]
    pub fn max_delay(&self) -> RealDur {
        self.delta + self.eps
    }

    /// Whether `d` lies within the band (with a 1 ps numerical slack).
    #[must_use]
    pub fn contains(&self, d: RealDur) -> bool {
        self.slack_band().contains(&d.as_secs())
    }

    /// The seconds [`contains`](Self::contains) admits — the executor
    /// computes them once per run, not once per message.
    pub(crate) fn slack_band(&self) -> std::ops::RangeInclusive<f64> {
        self.min_delay().as_secs() - 1e-12..=self.max_delay().as_secs() + 1e-12
    }
}

/// A source of per-message delays.
pub trait DelayModel: Send + std::fmt::Debug {
    /// The delay of a message from `from` to `to`, sent at real time `t`.
    ///
    /// Must return a value within the experiment's [`DelayBounds`]; the
    /// executor asserts this on every message.
    fn delay(&mut self, from: ProcessId, to: ProcessId, t: RealTime, rng: &mut StdRng) -> RealDur;
}

/// Every message takes exactly the same time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantDelay {
    d: RealDur,
}

impl ConstantDelay {
    /// A constant delay `d`.
    #[must_use]
    pub fn new(d: RealDur) -> Self {
        Self { d }
    }
}

impl DelayModel for ConstantDelay {
    fn delay(&mut self, _f: ProcessId, _t: ProcessId, _at: RealTime, _rng: &mut StdRng) -> RealDur {
        self.d
    }
}

/// Delays drawn independently and uniformly from `[δ−ε, δ+ε]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformDelay {
    bounds: DelayBounds,
}

impl UniformDelay {
    /// Uniform noise over the full band.
    #[must_use]
    pub fn new(bounds: DelayBounds) -> Self {
        Self { bounds }
    }
}

impl DelayModel for UniformDelay {
    fn delay(&mut self, _f: ProcessId, _t: ProcessId, _at: RealTime, rng: &mut StdRng) -> RealDur {
        let lo = self.bounds.min_delay().as_secs();
        let hi = self.bounds.max_delay().as_secs();
        RealDur::from_secs(rng.gen_range(lo..=hi))
    }
}

/// Fixed delays on chosen directed links over a base model.
///
/// A fixed link always returns its delay and draws nothing from the RNG;
/// every other link asks `base`, so the base model's draws are exactly
/// those of the links left to it. It is the one fixed-link mechanism:
/// the harness's adversarial split fixes every link, its delay-only
/// adversaries pin chosen links to an edge of the A3 band, and tests
/// wire up deterministic heterogeneous links.
#[derive(Debug)]
pub struct PerPairDelay {
    n: usize,
    fixed: Vec<Option<RealDur>>,
    base: Box<dyn DelayModel>,
}

impl PerPairDelay {
    /// The links of `n` processes: `fixed(from, to)` is the delay of the
    /// link `from → to` if it is fixed, `None` to defer it to `base`.
    #[must_use]
    pub fn new(
        n: usize,
        base: Box<dyn DelayModel>,
        mut fixed: impl FnMut(usize, usize) -> Option<RealDur>,
    ) -> Self {
        Self {
            n,
            fixed: (0..n * n).map(|k| fixed(k / n, k % n)).collect(),
            base,
        }
    }
}

impl DelayModel for PerPairDelay {
    fn delay(&mut self, from: ProcessId, to: ProcessId, t: RealTime, rng: &mut StdRng) -> RealDur {
        match self.fixed[from.index() * self.n + to.index()] {
            Some(d) => d,
            None => self.base.delay(from, to, t, rng),
        }
    }
}

/// §9.3's shared broadcast medium (an Ethernet): one frame at a time is on
/// the wire, and a frame sent while it is busy queues behind the frames
/// in flight.
///
/// A *frame* is everything one process sends at one instant — a broadcast
/// is one frame — so all its recipients hear it together, `(δ−ε) + wait`
/// after it was sent. The frame time is `w = 2ε/n`: the widest for which
/// `n` back-to-back frames still fit the A3 band, so contention shows up
/// as queueing delay inside `[δ−ε, δ+ε]`, never as loss (which A3 rules
/// out). `wait` is capped at `2ε`, the longest backlog the band can
/// express. The model is deterministic: it draws nothing from the RNG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedMediumDelay {
    bounds: DelayBounds,
    frame: RealDur,
    /// When the medium next falls idle.
    busy_until: RealTime,
    /// The frame being fanned out: its sender, send time and delay.
    current: Option<(ProcessId, RealTime, RealDur)>,
}

impl SharedMediumDelay {
    /// An idle medium shared by `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(bounds: DelayBounds, n: usize) -> Self {
        assert!(n > 0, "a medium needs at least one process");
        Self {
            bounds,
            frame: bounds.eps * 2.0 / n as f64,
            busy_until: RealTime::from_secs(f64::NEG_INFINITY),
            current: None,
        }
    }

    /// The time one frame occupies the medium, `w = 2ε/n`.
    #[must_use]
    pub fn frame_time(&self) -> RealDur {
        self.frame
    }
}

impl DelayModel for SharedMediumDelay {
    fn delay(
        &mut self,
        from: ProcessId,
        _to: ProcessId,
        at: RealTime,
        _rng: &mut StdRng,
    ) -> RealDur {
        if let Some((sender, sent, d)) = self.current {
            if sender == from && sent == at {
                return d;
            }
        }
        let band = self.bounds.max_delay() - self.bounds.min_delay();
        let wait = (self.busy_until - at).max(RealDur::ZERO).min(band);
        self.busy_until = at + wait + self.frame;
        // Clamped to the band edge itself, never edge + slack.
        let d = (self.bounds.min_delay() + wait).min(self.bounds.max_delay());
        self.current = Some((from, at, d));
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn ms(x: f64) -> RealDur {
        RealDur::from_millis(x)
    }

    #[test]
    fn bounds_accessors() {
        let b = DelayBounds::new(ms(10.0), ms(1.0));
        assert_eq!(b.min_delay(), ms(9.0));
        assert_eq!(b.max_delay(), ms(11.0));
        assert!(b.contains(ms(10.5)));
        assert!(!b.contains(ms(8.0)));
        assert!(!b.contains(ms(12.0)));
    }

    #[test]
    fn bounds_allow_zero_eps() {
        let b = DelayBounds::new(ms(5.0), RealDur::ZERO);
        assert_eq!(b.min_delay(), b.max_delay());
    }

    #[test]
    #[should_panic(expected = "A3")]
    fn bounds_reject_eps_ge_delta() {
        let _ = DelayBounds::new(ms(1.0), ms(1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn bounds_reject_negative_eps() {
        let _ = DelayBounds::new(ms(1.0), ms(-0.1));
    }

    #[test]
    fn constant_delay_is_constant() {
        let mut m = ConstantDelay::new(ms(3.0));
        let mut r = rng();
        for i in 0..5 {
            assert_eq!(
                m.delay(ProcessId(i), ProcessId(0), RealTime::ZERO, &mut r),
                ms(3.0)
            );
        }
    }

    #[test]
    fn uniform_delay_stays_in_band() {
        let b = DelayBounds::new(ms(10.0), ms(2.0));
        let mut m = UniformDelay::new(b);
        let mut r = rng();
        for _ in 0..1000 {
            let d = m.delay(ProcessId(0), ProcessId(1), RealTime::ZERO, &mut r);
            assert!(b.contains(d), "delay {d} out of band");
        }
    }

    #[test]
    fn uniform_delay_spans_band() {
        let b = DelayBounds::new(ms(10.0), ms(2.0));
        let mut m = UniformDelay::new(b);
        let mut r = rng();
        let samples: Vec<f64> = (0..2000)
            .map(|_| {
                m.delay(ProcessId(0), ProcessId(1), RealTime::ZERO, &mut r)
                    .as_millis()
            })
            .collect();
        let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo < 8.5, "min {lo} not near band edge");
        assert!(hi > 11.5, "max {hi} not near band edge");
    }

    #[test]
    fn per_pair_matrix_lookup_and_override() {
        let base = Box::new(ConstantDelay::new(ms(5.0)));
        let mut m = PerPairDelay::new(3, base, |from, to| (from, to).eq(&(1, 2)).then(|| ms(6.0)));
        let mut r = rng();
        assert_eq!(
            m.delay(ProcessId(1), ProcessId(2), RealTime::ZERO, &mut r),
            ms(6.0)
        );
        assert_eq!(
            m.delay(ProcessId(2), ProcessId(1), RealTime::ZERO, &mut r),
            ms(5.0)
        );
    }

    /// `3n` processes broadcast at one instant through the executor, whose
    /// A3 assert is the authority: each broadcast is heard by everyone at
    /// one instant, the frames serialise `w` apart, and the backlog past
    /// `2ε` is heard at exactly `δ+ε`.
    #[test]
    fn shared_medium_serialises_broadcasts_and_clamps_the_backlog() {
        use crate::trace::TraceEvent;
        use crate::{Actions, Automaton, Input, SimBuilder, SimConfig};
        use wl_clock::drift::DriftModel;
        use wl_time::ClockTime;

        #[derive(Debug)]
        struct Shout;
        impl Automaton for Shout {
            type Msg = ();
            fn on_input(&mut self, input: Input<()>, _now: ClockTime, out: &mut Actions<()>) {
                if matches!(input, Input::Start) {
                    out.broadcast(());
                }
            }
        }

        // eps = 8ms over n = 4: w = 4ms, E10's frame time.
        let b = DelayBounds::new(ms(40.0), ms(8.0));
        let procs = 12;
        let outcome = SimBuilder::new()
            .clocks(DriftModel::Ideal.build(procs, &vec![ClockTime::ZERO; procs], 0))
            .procs((0..procs).map(|_| Box::new(Shout) as _).collect())
            .delay(SharedMediumDelay::new(b, 4))
            .starts(vec![RealTime::ZERO; procs])
            .config(SimConfig {
                t_end: RealTime::from_secs(1.0),
                delay_bounds: b,
                trace_capacity: 1000,
                ..SimConfig::default()
            })
            .build()
            .run();
        let heard: Vec<RealTime> = outcome
            .trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Send { deliver_at, .. } => Some(deliver_at),
                _ => None,
            })
            .collect();
        assert_eq!(heard.len(), procs * procs);
        for (k, frame) in heard.chunks(procs).enumerate() {
            assert!(frame.iter().all(|&t| t == frame[0]), "frame {k}: {frame:?}");
            let wait = (frame[0] - RealTime::ZERO - b.min_delay()).as_millis();
            let queued = (4.0 * k as f64).min(16.0);
            assert!((wait - queued).abs() < 1e-9, "frame {k} waited {wait}ms");
        }
        assert_eq!(heard[heard.len() - 1], RealTime::ZERO + b.max_delay());
    }

    #[test]
    fn shared_medium_idle_delay_is_the_band_floor() {
        let b = DelayBounds::new(ms(40.0), ms(8.0));
        let mut m = SharedMediumDelay::new(b, 4);
        assert_eq!(m.frame_time(), ms(4.0));
        let mut r = rng();
        let at = RealTime::from_secs(1.0);
        // Idle; busy for one frame time; idle again once it has passed.
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(1), at, &mut r),
            b.min_delay()
        );
        assert!(m.delay(ProcessId(1), ProcessId(0), at + ms(1.0), &mut r) > b.min_delay());
        assert_eq!(
            m.delay(ProcessId(2), ProcessId(0), at + ms(20.0), &mut r),
            b.min_delay()
        );
    }

    #[test]
    fn shared_medium_never_draws_from_the_rng() {
        let b = DelayBounds::new(ms(40.0), ms(8.0));
        let mut m = SharedMediumDelay::new(b, 4);
        let mut r = rng();
        for i in 0..100 {
            let at = RealTime::from_secs(1.0 + 0.001 * (i / 3) as f64);
            let _ = m.delay(ProcessId(i % 4), ProcessId((i + 1) % 4), at, &mut r);
        }
        assert_eq!(r.gen::<u64>(), rng().gen::<u64>());
    }

    /// Fixed links sit where they were set, inside the band, and draw
    /// nothing: the base model's stream serves only the links left to it.
    #[test]
    fn per_pair_fixed_links_stay_in_band_and_skip_the_base_rng() {
        let b = DelayBounds::new(ms(10.0), ms(1.0));
        let mut m = PerPairDelay::new(3, Box::new(UniformDelay::new(b)), |from, to| {
            match (from, to) {
                (0, 1) => Some(b.max_delay()),
                (1, 0) => Some(b.min_delay()),
                _ => None,
            }
        });
        let mut r = rng();
        assert_eq!(
            m.delay(ProcessId(0), ProcessId(1), RealTime::ZERO, &mut r),
            b.max_delay()
        );
        assert_eq!(
            m.delay(ProcessId(1), ProcessId(0), RealTime::ZERO, &mut r),
            b.min_delay()
        );
        assert_eq!(r.gen::<u64>(), rng().gen::<u64>(), "fixed links drew");
        let mut r = rng();
        let d = m.delay(ProcessId(2), ProcessId(1), RealTime::ZERO, &mut r);
        assert!(b.contains(d));
        let mut base = UniformDelay::new(b);
        assert_eq!(
            d,
            base.delay(ProcessId(2), ProcessId(1), RealTime::ZERO, &mut rng())
        );
    }
}
