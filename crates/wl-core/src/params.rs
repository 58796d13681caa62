//! Global constants and the §5.2 feasibility constraints.
//!
//! A real deployment fixes `ρ` (drift), `δ` (median delay), and `ε` (delay
//! uncertainty) by hardware; the designer chooses `β` (how closely, in real
//! time, processes reach the same round) and `P` (round length). §5.2 shows
//! the algorithm is correct iff `P` is large enough for timers to land in
//! the future and messages to land in the right round (Lemmas 8, 12), yet
//! small enough that drift cannot stretch the skew past `β` between
//! resynchronizations (Lemma 11). Solving the constraints for small ρ gives
//! the famous steady-state relation `β ≈ 4ε + 4ρP`.

use std::fmt;
use wl_multiset::AveragingFn;
use wl_time::{ClockDur, ClockTime, RealDur};

/// Why a parameter set is infeasible.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// Violates assumption A2: needs `n ≥ 3f + 1`.
    TooManyFaults {
        /// Total processes.
        n: usize,
        /// Fault bound.
        f: usize,
    },
    /// Violates assumption A3: needs `δ > ε ≥ 0`.
    BadDelayBand {
        /// Median delay (s).
        delta: f64,
        /// Uncertainty (s).
        eps: f64,
    },
    /// ρ must satisfy `0 ≤ ρ < 1`.
    BadRho(f64),
    /// β must be positive.
    BadBeta(f64),
    /// `P` below the §5.2 lower bound (timers would land in the past or
    /// messages in the wrong round — Lemmas 8 and 12 fail).
    RoundTooShort {
        /// Chosen round length (s).
        p: f64,
        /// Minimum feasible (s).
        min: f64,
    },
    /// `P` above the §5.2 upper bound (drift re-opens the skew past β
    /// between rounds — Lemma 11 fails).
    RoundTooLong {
        /// Chosen round length (s).
        p: f64,
        /// Maximum feasible (s).
        max: f64,
    },
    /// No feasible `P` exists for this `(ρ, β, δ, ε)` — β is too small.
    Infeasible {
        /// Lower bound on P (s).
        min: f64,
        /// Upper bound on P (s).
        max: f64,
    },
    /// Stagger/multi-exchange schedule does not fit inside the round.
    VariantDoesNotFit {
        /// Required clock time within the round (s).
        needed: f64,
        /// Round length (s).
        p: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::TooManyFaults { n, f: faults } => {
                write!(f, "assumption A2 needs n >= 3f+1, got n={n}, f={faults}")
            }
            ParamError::BadDelayBand { delta, eps } => {
                write!(
                    f,
                    "assumption A3 needs delta > eps >= 0, got delta={delta}, eps={eps}"
                )
            }
            ParamError::BadRho(r) => write!(f, "rho must be in [0, 1), got {r}"),
            ParamError::BadBeta(b) => write!(f, "beta must be positive, got {b}"),
            ParamError::RoundTooShort { p, min } => {
                write!(
                    f,
                    "round length P={p} below the section-5.2 lower bound {min}"
                )
            }
            ParamError::RoundTooLong { p, max } => {
                write!(
                    f,
                    "round length P={p} above the section-5.2 upper bound {max}"
                )
            }
            ParamError::Infeasible { min, max } => {
                write!(
                    f,
                    "no feasible P: lower bound {min} exceeds upper bound {max}"
                )
            }
            ParamError::VariantDoesNotFit { needed, p } => {
                write!(
                    f,
                    "variant schedule needs {needed}s inside a round of P={p}s"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// The paper's global constants, plus variant knobs.
///
/// All time quantities are in seconds. Construct with [`Params::new`]
/// (validates everything) or [`Params::auto`] (derives a feasible `(β, P)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Total number of processes `n` (A2: `n ≥ 3f+1`).
    pub n: usize,
    /// Maximum number of faults tolerated, `f`.
    pub f: usize,
    /// Clock drift bound ρ (A1).
    pub rho: f64,
    /// Median message delay δ in seconds (A3).
    pub delta: f64,
    /// Delay uncertainty ε in seconds (A3: delays lie in `[δ−ε, δ+ε]`).
    pub eps: f64,
    /// Initial/maintained closeness β in seconds (A4).
    pub beta: f64,
    /// Round length `P` in *clock* seconds.
    pub p_round: f64,
    /// The first round's trigger value `T⁰` (clock seconds).
    pub t0: f64,
    /// Averaging function applied after `reduce` (§7 ablation).
    pub avg: AveragingFn,
    /// Broadcast stagger spacing σ (§9.3); process `p` broadcasts at
    /// `Tⁱ + p·σ`. Zero disables staggering.
    pub sigma: f64,
    /// Clock-value exchanges per round `k ≥ 1` (§7 variant; 1 = paper's
    /// base algorithm).
    pub exchanges: usize,
}

impl Params {
    /// Validated constructor for the base algorithm.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] describing the first violated constraint.
    pub fn new(
        n: usize,
        f: usize,
        rho: f64,
        delta: f64,
        eps: f64,
        beta: f64,
        p_round: f64,
    ) -> Result<Self, ParamError> {
        let p = Self {
            n,
            f,
            rho,
            delta,
            eps,
            beta,
            p_round,
            t0: 1.0,
            avg: AveragingFn::Midpoint,
            sigma: 0.0,
            exchanges: 1,
        };
        p.validate()?;
        Ok(p)
    }

    /// Derives a feasible `(β, P)` automatically from the hardware-fixed
    /// `(ρ, δ, ε)` by iterating the §5.2 constraints: start from the
    /// steady-state `β ≈ 4ε + 4ρP`, pick `P` comfortably above the lower
    /// bound, and tighten until both bounds hold.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if `(n, f, ρ, δ, ε)` are themselves
    /// invalid, or no fixed point is found.
    pub fn auto(n: usize, f: usize, rho: f64, delta: f64, eps: f64) -> Result<Self, ParamError> {
        if n < 3 * f + 1 {
            return Err(ParamError::TooManyFaults { n, f });
        }
        check_basics(n, f, rho, delta, eps)?;
        // Seed beta near its floor: beta > 4*eps always; add drift headroom
        // and a small absolute floor so eps = 0 still works.
        let mut beta = 4.5 * eps + 8.0 * rho * delta + 1e-7;
        for _ in 0..64 {
            let min_p = min_p(rho, delta, eps, beta);
            let max_p = max_p(rho, delta, eps, beta);
            // Want some slack above the minimum so rounds aren't frantic.
            let p = if max_p.is_finite() {
                (2.0 * min_p).min(0.5 * (min_p + max_p))
            } else {
                2.0 * min_p
            };
            if p >= min_p && p <= max_p {
                let candidate = Self {
                    n,
                    f,
                    rho,
                    delta,
                    eps,
                    beta,
                    p_round: p,
                    t0: 1.0,
                    avg: AveragingFn::Midpoint,
                    sigma: 0.0,
                    exchanges: 1,
                };
                if candidate.validate().is_ok() {
                    return Ok(candidate);
                }
            }
            beta *= 1.5;
        }
        Err(ParamError::Infeasible {
            min: min_p(rho, delta, eps, beta),
            max: max_p(rho, delta, eps, beta),
        })
    }

    /// Returns a copy using the mean instead of the midpoint (§7 variant).
    #[must_use]
    pub fn with_mean_averaging(mut self) -> Self {
        self.avg = AveragingFn::Mean;
        self
    }

    /// Returns a copy with broadcast stagger σ (§9.3 variant).
    ///
    /// # Errors
    ///
    /// Fails if the staggered schedule does not fit inside the round.
    pub fn with_stagger(mut self, sigma: f64) -> Result<Self, ParamError> {
        self.sigma = sigma;
        self.validate()?;
        Ok(self)
    }

    /// Returns a copy performing `k` exchanges per round (§7 variant).
    ///
    /// # Errors
    ///
    /// Fails if the `k` sub-exchanges do not fit inside the round.
    pub fn with_exchanges(mut self, k: usize) -> Result<Self, ParamError> {
        assert!(k >= 1, "need at least one exchange per round");
        self.exchanges = k;
        self.validate()?;
        Ok(self)
    }

    /// Checks every constraint from §3 and §5.2.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.n < 3 * self.f + 1 {
            return Err(ParamError::TooManyFaults {
                n: self.n,
                f: self.f,
            });
        }
        self.validate_timing()
    }

    /// Checks every constraint *except* assumption A2 (`n ≥ 3f+1`).
    ///
    /// The algorithm runs mechanically for any `n > 2f` (the averaging
    /// function needs that many values); its *guarantees* require A2. The
    /// fault-boundary experiment (E12) deliberately runs with `n = 3f` to
    /// demonstrate the \[DHS\] impossibility, so the automata themselves only
    /// require timing feasibility.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate_timing(&self) -> Result<(), ParamError> {
        check_basics(self.n, self.f, self.rho, self.delta, self.eps)?;
        if !(self.beta > 0.0 && self.beta.is_finite()) {
            return Err(ParamError::BadBeta(self.beta));
        }
        let min = min_p(self.rho, self.delta, self.eps, self.beta);
        let max = max_p(self.rho, self.delta, self.eps, self.beta);
        if min > max {
            return Err(ParamError::Infeasible { min, max });
        }
        if self.p_round < min {
            return Err(ParamError::RoundTooShort {
                p: self.p_round,
                min,
            });
        }
        if self.p_round > max {
            return Err(ParamError::RoundTooLong {
                p: self.p_round,
                max,
            });
        }
        // Variant schedules must complete within the round: the last
        // sub-exchange's collection window (plus stagger tail) has to end
        // before the next round begins, with the same margin the base
        // algorithm's lower bound provides.
        let needed = self.schedule_span();
        if needed > self.p_round {
            return Err(ParamError::VariantDoesNotFit {
                needed,
                p: self.p_round,
            });
        }
        Ok(())
    }

    /// The §4.1 collection window `(1+ρ)(β+δ+ε)` in clock seconds —
    /// "just large enough to ensure p receives `Tⁱ` messages from all the
    /// nonfaulty processes".
    #[must_use]
    pub fn wait_window(&self) -> f64 {
        (1.0 + self.rho) * (self.beta + self.delta + self.eps)
    }

    /// The clock time consumed inside one round by the configured variant
    /// schedule (stagger tail + `k` sub-exchanges).
    #[must_use]
    pub fn schedule_span(&self) -> f64 {
        let stagger_tail = self.sigma * self.n.saturating_sub(1) as f64;
        self.exchanges as f64 * (self.exchange_period() + stagger_tail)
    }

    /// Local-time spacing between the `k` sub-exchanges of one round: the
    /// collection window plus a slack equal to the §5.2 minimum margin.
    #[must_use]
    pub fn exchange_period(&self) -> f64 {
        self.wait_window() + (1.0 + self.rho) * (self.beta + self.eps) + self.rho * self.delta
    }

    /// §5.2 lower bound on `P`.
    #[must_use]
    pub fn min_p(&self) -> f64 {
        min_p(self.rho, self.delta, self.eps, self.beta)
    }

    /// §5.2 upper bound on `P` (infinite when ρ = 0).
    #[must_use]
    pub fn max_p(&self) -> f64 {
        max_p(self.rho, self.delta, self.eps, self.beta)
    }

    /// The smallest β for which a given `P` is feasible (Lemma 11 solved
    /// for β); `None` if even β → ∞ fails (cannot happen for ρ < 1/8).
    #[must_use]
    pub fn min_beta_for(rho: f64, delta: f64, eps: f64, p: f64) -> Option<f64> {
        // Lemma 11 requires
        //   2ρP + β/2 + 2ε + 2ρ(2β+δ+2ε) + 2ρ²(β+δ+ε) ≤ β
        // ⇔ β (1/2 − 4ρ − 2ρ²) ≥ 2ρP + 2ε + 2ρ(δ+2ε) + 2ρ²(δ+ε)
        let coeff = 0.5 - 4.0 * rho - 2.0 * rho * rho;
        if coeff <= 0.0 {
            return None;
        }
        let rhs = 2.0 * rho * p
            + 2.0 * eps
            + 2.0 * rho * (delta + 2.0 * eps)
            + 2.0 * rho * rho * (delta + eps);
        Some(rhs / coeff)
    }

    /// The delay band as typed bounds for the simulator.
    #[must_use]
    pub fn delay_bounds(&self) -> wl_sim::delay::DelayBounds {
        wl_sim::delay::DelayBounds::new(
            RealDur::from_secs(self.delta),
            RealDur::from_secs(self.eps),
        )
    }

    /// `T⁰` as a typed clock time.
    #[must_use]
    pub fn t0_clock(&self) -> ClockTime {
        ClockTime::from_secs(self.t0)
    }

    /// The round length as a typed clock duration.
    #[must_use]
    pub fn p_round_clock(&self) -> ClockDur {
        ClockDur::from_secs(self.p_round)
    }
}

fn check_basics(n: usize, f: usize, rho: f64, delta: f64, eps: f64) -> Result<(), ParamError> {
    // The averaging function itself needs n > 2f to be defined at all.
    if n <= 2 * f {
        return Err(ParamError::TooManyFaults { n, f });
    }
    if !((0.0..1.0).contains(&rho) && rho.is_finite()) {
        return Err(ParamError::BadRho(rho));
    }
    if !(eps >= 0.0 && delta > eps && delta.is_finite()) {
        return Err(ParamError::BadDelayBand { delta, eps });
    }
    Ok(())
}

/// §5.2 lower bound on `P`: the larger of the Lemma 8 requirement
/// (`Uⁱ + ADJ < Tⁱ⁺¹`, i.e. timers set in the future) and the Lemma 12
/// requirement (`P ≥ 3(1+ρ)(β+ε) + ρδ`, i.e. round-`i` messages arrive
/// after clock `i` is set).
#[must_use]
pub fn min_p(rho: f64, delta: f64, eps: f64, beta: f64) -> f64 {
    let lemma8 = (1.0 + rho) * (beta + delta + eps) + (1.0 + rho) * (beta + eps) + rho * delta;
    let lemma12 = 3.0 * (1.0 + rho) * (beta + eps) + rho * delta;
    lemma8.max(lemma12)
}

/// §5.2 upper bound on `P` from Lemma 11: drift between resynchronizations
/// must not push the skew past β. Infinite when ρ = 0.
#[must_use]
pub fn max_p(rho: f64, delta: f64, eps: f64, beta: f64) -> f64 {
    if rho == 0.0 {
        return f64::INFINITY;
    }
    // From 2ρP + β/2 + 2ε + 2ρ(2β+δ+2ε) + 2ρ²(β+δ+ε) ≤ β:
    let numer = beta / 2.0
        - 2.0 * eps
        - 2.0 * rho * (2.0 * beta + delta + 2.0 * eps)
        - 2.0 * rho * rho * (beta + delta + eps);
    numer / (2.0 * rho)
}

/// Constants for the §9.2 startup algorithm (no β or `P`; rounds are paced
/// by message exchanges, not preagreed local times).
#[derive(Debug, Clone, PartialEq)]
pub struct StartupParams {
    /// Total number of processes.
    pub n: usize,
    /// Fault bound.
    pub f: usize,
    /// Drift bound ρ.
    pub rho: f64,
    /// Median delay δ (s).
    pub delta: f64,
    /// Delay uncertainty ε (s).
    pub eps: f64,
}

impl StartupParams {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] on violated assumptions A2/A3 or a bad ρ.
    pub fn new(n: usize, f: usize, rho: f64, delta: f64, eps: f64) -> Result<Self, ParamError> {
        if n < 3 * f + 1 {
            return Err(ParamError::TooManyFaults { n, f });
        }
        check_basics(n, f, rho, delta, eps)?;
        Ok(Self {
            n,
            f,
            rho,
            delta,
            eps,
        })
    }

    /// The first waiting interval `(1+ρ)(2δ+4ε)` — long enough to hear
    /// every nonfaulty process' clock value.
    #[must_use]
    pub fn first_interval(&self) -> f64 {
        (1.0 + self.rho) * (2.0 * self.delta + 4.0 * self.eps)
    }

    /// The second waiting interval
    /// `(1+ρ)(4ε + 4ρ(δ+2ε) + 2ρ²(δ+2ε))` — ensures new messages are not
    /// received before others finish their first interval.
    #[must_use]
    pub fn second_interval(&self) -> f64 {
        let d2e = self.delta + 2.0 * self.eps;
        (1.0 + self.rho) * (4.0 * self.eps + 4.0 * self.rho * d2e + 2.0 * self.rho * self.rho * d2e)
    }

    /// The delay band as typed bounds for the simulator.
    #[must_use]
    pub fn delay_bounds(&self) -> wl_sim::delay::DelayBounds {
        wl_sim::delay::DelayBounds::new(
            RealDur::from_secs(self.delta),
            RealDur::from_secs(self.eps),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RHO: f64 = 1e-6;
    const DELTA: f64 = 0.010;
    const EPS: f64 = 0.001;

    #[test]
    fn auto_produces_feasible_params() {
        let p = Params::auto(4, 1, RHO, DELTA, EPS).unwrap();
        assert!(p.validate().is_ok());
        assert!(p.p_round >= p.min_p());
        assert!(p.p_round <= p.max_p());
        // Steady-state shape: beta within an order of magnitude of 4eps.
        assert!(p.beta >= 4.0 * EPS, "beta {} vs 4eps {}", p.beta, 4.0 * EPS);
        assert!(p.beta < 40.0 * EPS, "beta {} suspiciously large", p.beta);
    }

    #[test]
    fn auto_works_for_larger_n_and_f() {
        for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4), (31, 10)] {
            let p = Params::auto(n, f, RHO, DELTA, EPS).unwrap();
            assert!(p.validate().is_ok(), "n={n} f={f}");
        }
    }

    #[test]
    fn auto_handles_zero_drift_and_zero_eps() {
        let p = Params::auto(4, 1, 0.0, DELTA, 0.0).unwrap();
        assert!(p.validate().is_ok());
        assert_eq!(p.max_p(), f64::INFINITY);
    }

    #[test]
    fn a2_rejected() {
        assert!(matches!(
            Params::auto(3, 1, RHO, DELTA, EPS),
            Err(ParamError::TooManyFaults { .. })
        ));
    }

    #[test]
    fn a3_rejected() {
        assert!(matches!(
            Params::auto(4, 1, RHO, 0.001, 0.001),
            Err(ParamError::BadDelayBand { .. })
        ));
        assert!(matches!(
            Params::auto(4, 1, RHO, 0.001, -0.1),
            Err(ParamError::BadDelayBand { .. })
        ));
    }

    #[test]
    fn bad_rho_rejected() {
        assert!(matches!(
            Params::auto(4, 1, -0.1, DELTA, EPS),
            Err(ParamError::BadRho(_))
        ));
        assert!(matches!(
            Params::auto(4, 1, 1.0, DELTA, EPS),
            Err(ParamError::BadRho(_))
        ));
    }

    #[test]
    fn p_too_short_rejected() {
        let auto = Params::auto(4, 1, RHO, DELTA, EPS).unwrap();
        let err = Params::new(4, 1, RHO, DELTA, EPS, auto.beta, auto.min_p() * 0.5);
        assert!(matches!(err, Err(ParamError::RoundTooShort { .. })));
    }

    #[test]
    fn p_too_long_rejected() {
        let auto = Params::auto(4, 1, RHO, DELTA, EPS).unwrap();
        let err = Params::new(4, 1, RHO, DELTA, EPS, auto.beta, auto.max_p() * 2.0);
        assert!(matches!(err, Err(ParamError::RoundTooLong { .. })));
    }

    #[test]
    fn beta_too_small_is_infeasible() {
        // With beta barely above 4eps-ish floor but huge drift demand:
        let err = Params::new(4, 1, 1e-3, DELTA, EPS, 4.0 * EPS, 1.0);
        assert!(err.is_err());
    }

    #[test]
    fn steady_state_relation_beta_approx_4eps_plus_4rhop() {
        // Solving the Lemma 11 constraint for beta and neglecting rho^1+
        // terms must reproduce beta ≈ 4eps + 4rhoP (§5.2 discussion).
        let p = 100.0;
        let beta = Params::min_beta_for(RHO, DELTA, EPS, p).unwrap();
        let approx = 4.0 * EPS + 4.0 * RHO * p;
        assert!(
            (beta - approx).abs() / approx < 0.01,
            "beta {beta} vs approx {approx}"
        );
    }

    #[test]
    fn min_beta_none_for_huge_rho() {
        assert!(Params::min_beta_for(0.2, DELTA, EPS, 1.0).is_none());
    }

    #[test]
    fn wait_window_formula() {
        let p = Params::auto(4, 1, RHO, DELTA, EPS).unwrap();
        let expect = (1.0 + RHO) * (p.beta + DELTA + EPS);
        assert!((p.wait_window() - expect).abs() < 1e-15);
    }

    #[test]
    fn variants_validate_fit() {
        let p = Params::auto(4, 1, RHO, DELTA, EPS).unwrap();
        // A tiny stagger fits.
        let st = p.clone().with_stagger(1e-4).unwrap();
        assert!(st.validate().is_ok());
        // A colossal stagger does not.
        assert!(matches!(
            p.clone().with_stagger(p.p_round),
            Err(ParamError::VariantDoesNotFit { .. })
        ));
        // k = 2 exchanges need a longer round than auto picked? If so the
        // error must say "does not fit"; otherwise it validates.
        match p.clone().with_exchanges(2) {
            Ok(k2) => assert!(k2.validate().is_ok()),
            Err(ParamError::VariantDoesNotFit { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn error_display_messages() {
        let e = ParamError::TooManyFaults { n: 3, f: 1 };
        assert!(e.to_string().contains("3f+1"));
        let e = ParamError::RoundTooShort { p: 1.0, min: 2.0 };
        assert!(e.to_string().contains("lower bound"));
    }

    #[test]
    fn startup_params_intervals() {
        let sp = StartupParams::new(4, 1, RHO, DELTA, EPS).unwrap();
        assert!((sp.first_interval() - (1.0 + RHO) * (2.0 * DELTA + 4.0 * EPS)).abs() < 1e-15);
        assert!(sp.second_interval() > 4.0 * EPS);
        assert!(sp.second_interval() < 5.0 * EPS); // rho terms are tiny here
    }

    #[test]
    fn startup_params_validation() {
        assert!(StartupParams::new(3, 1, RHO, DELTA, EPS).is_err());
        assert!(StartupParams::new(7, 2, RHO, DELTA, EPS).is_ok());
    }

    #[test]
    fn typed_accessors() {
        let p = Params::auto(4, 1, RHO, DELTA, EPS).unwrap();
        assert_eq!(p.t0_clock(), ClockTime::from_secs(p.t0));
        assert_eq!(p.p_round_clock().as_secs(), p.p_round);
        let b = p.delay_bounds();
        assert!((b.min_delay().as_secs() - (DELTA - EPS)).abs() < 1e-15);
    }
}
