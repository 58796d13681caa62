//! Refactor-safety net: the harness assembly path produces **byte-identical
//! executions** to the legacy per-crate builders it replaced.
//!
//! The `legacy` module below is a frozen, verbatim copy of the assembly
//! logic that used to live in `wl_core::scenario` and
//! `wl_baselines::scenario` (deleted when `wl-harness` was extracted), kept
//! here as a golden reference fixture — the only deviation is a trace
//! capacity knob on the baseline builders, which never had one (tracing
//! records events; it does not alter them). Each test assembles the same
//! configuration both ways, runs both simulations, and asserts equality of
//! the full `Debug`-formatted trace (every send, delivery, timer, and
//! correction, with exact times), the correction histories, and the
//! counters.
//!
//! If an intentional behaviour change ever lands in the harness, these
//! tests are expected to fail and the fixture should be updated with the
//! new golden behaviour — consciously. (One such conscious update: the
//! positional `Simulation::new` constructor was retired for `SimBuilder`,
//! so the frozen assembly logic below now hands its identically-derived
//! ingredients to the builder.)

use wl_core::Params;
use wl_harness::{
    assemble, DelayKind, FaultKind, LmCnv, MahaneySchneider, Maintenance, Rejoiner, ScenarioSpec,
    SrikanthToueg, Startup,
};
use wl_sim::trace::Trace;
use wl_sim::{ProcessId, SimOutcome, Simulation};
use wl_time::RealTime;

/// Frozen legacy assembly (see module docs).
mod legacy {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use wl_baselines::byzantine::{TimedTwoFaced, ValueTwoFaced};
    use wl_baselines::lm_cnv::{CnvMsg, LmCnv};
    use wl_baselines::mahaney_schneider::{MahaneySchneider, MsMsg};
    use wl_baselines::srikanth_toueg::{SrikanthToueg, StMsg};
    use wl_clock::drift::{DriftModel, FleetClock};
    use wl_clock::Clock;
    use wl_core::byzantine::{PullApart, RoundSpammer};
    use wl_core::{Maintenance, Rejoiner, Startup};
    use wl_core::{Params, StartupParams};
    use wl_sim::delay::{AdversarialSplitDelay, ConstantDelay, DelayModel, UniformDelay};
    use wl_sim::faults::{crash_phys_time, FaultPlan, SilentFor};
    use wl_sim::{Automaton, ProcessId, SimBuilder, SimConfig, Simulation};
    use wl_time::{ClockTime, RealTime};

    pub use wl_harness::{DelayKind, FaultKind};

    pub struct Built<M> {
        pub sim: Simulation<M>,
        pub plan: FaultPlan,
        pub starts: Vec<RealTime>,
    }

    /// Verbatim `wl_core::scenario::ScenarioBuilder` (fields + build).
    pub struct ScenarioBuilder {
        params: Params,
        drift: DriftModel,
        delay: DelayKind,
        seed: u64,
        t_end: RealTime,
        spread_frac: f64,
        faults: Vec<(ProcessId, FaultKind)>,
        trace_capacity: usize,
        rejoiner: Option<(ProcessId, RealTime)>,
    }

    impl ScenarioBuilder {
        pub fn new(params: Params) -> Self {
            let drift = if params.rho > 0.0 {
                DriftModel::Split { rho: params.rho }
            } else {
                DriftModel::Ideal
            };
            Self {
                params,
                drift,
                delay: DelayKind::Uniform,
                seed: 1,
                t_end: RealTime::from_secs(30.0),
                spread_frac: 0.8,
                faults: Vec::new(),
                trace_capacity: 0,
                rejoiner: None,
            }
        }

        pub fn seed(mut self, seed: u64) -> Self {
            self.seed = seed;
            self
        }

        pub fn t_end(mut self, t_end: RealTime) -> Self {
            self.t_end = t_end;
            self
        }

        pub fn drift(mut self, drift: DriftModel) -> Self {
            self.drift = drift;
            self
        }

        pub fn delay(mut self, delay: DelayKind) -> Self {
            self.delay = delay;
            self
        }

        pub fn spread_frac(mut self, frac: f64) -> Self {
            self.spread_frac = frac;
            self
        }

        pub fn fault(mut self, p: ProcessId, kind: FaultKind) -> Self {
            self.faults.push((p, kind));
            self
        }

        pub fn rejoiner(mut self, p: ProcessId, repair_at: RealTime) -> Self {
            self.rejoiner = Some((p, repair_at));
            self
        }

        pub fn trace(mut self, capacity: usize) -> Self {
            self.trace_capacity = capacity;
            self
        }

        pub fn build(self) -> Built<wl_core::WlMsg> {
            let p = &self.params;
            p.validate_timing().expect("invalid parameters");
            let n = p.n;
            let mut rng = StdRng::seed_from_u64(self.seed);

            let window = p.beta * self.spread_frac;
            let offsets: Vec<ClockTime> = (0..n)
                .map(|_| ClockTime::from_secs(rng.gen_range(-window / 2.0..=window / 2.0)))
                .collect();
            let clocks = self.drift.build(n, &offsets, rng.gen());

            let starts: Vec<RealTime> = clocks.iter().map(|c| c.time_of(p.t0_clock())).collect();

            let mut faulty_ids: Vec<ProcessId> = self.faults.iter().map(|&(id, _)| id).collect();
            if let Some((id, _)) = self.rejoiner {
                faulty_ids.push(id);
            }
            let plan = FaultPlan::with_faulty(n, &faulty_ids);

            let mut procs: Vec<Box<dyn Automaton<Msg = wl_core::WlMsg>>> = Vec::with_capacity(n);
            let mut starts_adj = starts.clone();
            for i in 0..n {
                let id = ProcessId(i);
                let fault = self
                    .faults
                    .iter()
                    .find(|&&(fid, _)| fid == id)
                    .map(|&(_, k)| k);
                let is_rejoiner = self.rejoiner.map(|(rid, _)| rid) == Some(id);
                let auto: Box<dyn Automaton<Msg = wl_core::WlMsg>> = if is_rejoiner {
                    let (_, repair_at) = self.rejoiner.unwrap();
                    starts_adj[i] = repair_at;
                    Box::new(Rejoiner::new(id, p.clone()))
                } else {
                    match fault {
                        None => Box::new(Maintenance::new(id, p.clone(), 0.0)),
                        Some(FaultKind::CrashAt(t)) => Box::new(wl_sim::faults::CrashAt::new(
                            Maintenance::new(id, p.clone(), 0.0),
                            crash_phys_time(&clocks[i], RealTime::from_secs(t)),
                        )),
                        Some(FaultKind::Silent) => Box::new(SilentFor::<wl_core::WlMsg>::default()),
                        Some(FaultKind::RoundSpam) => Box::new(RoundSpammer::new(
                            n,
                            p.wait_window() / 2.0,
                            self.seed.wrapping_add(i as u64),
                            (p.t0 - 10.0 * p.p_round, p.t0 + 100.0 * p.p_round),
                        )),
                        Some(FaultKind::PullApart(a)) | Some(FaultKind::TwoFaced(a)) => {
                            let early_below = p.f + (n - p.f).div_ceil(2);
                            Box::new(PullApart::new(p.clone(), a, early_below))
                        }
                        Some(FaultKind::PullApartHigh(a)) => {
                            let threshold = p.f + (n - p.f) / 2;
                            let mask = (0..n).map(|q| q >= threshold).collect();
                            Box::new(PullApart::with_early_mask(p.clone(), a, mask))
                        }
                    }
                };
                procs.push(auto);
            }

            let delay: Box<dyn DelayModel> = match self.delay {
                DelayKind::Constant => {
                    Box::new(ConstantDelay::new(wl_time::RealDur::from_secs(p.delta)))
                }
                DelayKind::Uniform => Box::new(UniformDelay::new(p.delay_bounds())),
                DelayKind::AdversarialSplit => {
                    Box::new(AdversarialSplitDelay::new(p.delay_bounds(), n / 2))
                }
                DelayKind::SharedMedium => panic!("SharedMedium is not in the legacy grid"),
            };

            let sim = SimBuilder::new()
                .clocks(clocks)
                .procs(procs)
                .delay_boxed(delay)
                .starts(starts_adj)
                .config(SimConfig {
                    t_end: self.t_end,
                    seed: self.seed.wrapping_add(0x5EED),
                    delay_bounds: p.delay_bounds(),
                    trace_capacity: self.trace_capacity,
                    max_events: 0,
                })
                .build();

            Built { sim, plan, starts }
        }
    }

    /// Verbatim `wl_core::scenario::build_startup` (+ trace knob).
    pub fn build_startup(
        params: &StartupParams,
        initial_spread: f64,
        silent: &[ProcessId],
        seed: u64,
        t_end: RealTime,
        trace_capacity: usize,
    ) -> Built<wl_core::WlMsg> {
        let n = params.n;
        let mut rng = StdRng::seed_from_u64(seed);
        let drift = if params.rho > 0.0 {
            DriftModel::Split { rho: params.rho }
        } else {
            DriftModel::Ideal
        };
        let clocks: Vec<FleetClock> = drift.build(n, &vec![ClockTime::ZERO; n], rng.gen());
        let initial_corrs: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(-initial_spread / 2.0..=initial_spread / 2.0))
            .collect();
        let plan = FaultPlan::with_faulty(n, silent);

        let procs: Vec<Box<dyn Automaton<Msg = wl_core::WlMsg>>> = (0..n)
            .map(|i| {
                let id = ProcessId(i);
                if plan.is_faulty(id) {
                    Box::new(SilentFor::<wl_core::WlMsg>::default())
                        as Box<dyn Automaton<Msg = wl_core::WlMsg>>
                } else {
                    Box::new(Startup::new(id, params.clone(), initial_corrs[i]))
                }
            })
            .collect();

        let starts: Vec<RealTime> = (0..n)
            .map(|_| RealTime::from_secs(1.0 + rng.gen_range(0.0..params.delta)))
            .collect();

        let sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(UniformDelay::new(params.delay_bounds()))
            .starts(starts.clone())
            .config(SimConfig {
                t_end,
                seed: seed.wrapping_add(0xF00D),
                delay_bounds: params.delay_bounds(),
                trace_capacity,
                max_events: 0,
            })
            .build();
        Built { sim, plan, starts }
    }

    fn common_setup(params: &Params, seed: u64) -> (Vec<FleetClock>, Vec<RealTime>, StdRng) {
        let n = params.n;
        let mut rng = StdRng::seed_from_u64(seed);
        let window = params.beta * 0.8;
        let offsets: Vec<ClockTime> = (0..n)
            .map(|_| ClockTime::from_secs(rng.gen_range(-window / 2.0..=window / 2.0)))
            .collect();
        let drift = if params.rho > 0.0 {
            DriftModel::Split { rho: params.rho }
        } else {
            DriftModel::Ideal
        };
        let clocks = drift.build(n, &offsets, rng.gen());
        let starts: Vec<RealTime> = clocks
            .iter()
            .map(|c| c.time_of(params.t0_clock()))
            .collect();
        (clocks, starts, rng)
    }

    /// Verbatim `wl_baselines::scenario::build_generic` (+ trace knob).
    fn build_generic<M, F>(
        params: &Params,
        silent: &[ProcessId],
        seed: u64,
        t_end: RealTime,
        trace_capacity: usize,
        make: F,
    ) -> Built<M>
    where
        M: Clone + std::fmt::Debug + Send + 'static,
        F: Fn(ProcessId) -> Box<dyn Automaton<Msg = M>>,
        SilentFor<M>: Automaton<Msg = M>,
    {
        let (clocks, starts, _rng) = common_setup(params, seed);
        let plan = FaultPlan::with_faulty(params.n, silent);
        let procs: Vec<Box<dyn Automaton<Msg = M>>> = (0..params.n)
            .map(|i| {
                let id = ProcessId(i);
                if plan.is_faulty(id) {
                    Box::new(SilentFor::<M>::default()) as Box<dyn Automaton<Msg = M>>
                } else {
                    make(id)
                }
            })
            .collect();
        let sim = SimBuilder::new()
            .clocks(clocks)
            .procs(procs)
            .delay(UniformDelay::new(params.delay_bounds()))
            .starts(starts.clone())
            .config(SimConfig {
                t_end,
                seed: seed.wrapping_add(0xBA5E),
                delay_bounds: params.delay_bounds(),
                trace_capacity,
                max_events: 0,
            })
            .build();
        Built { sim, plan, starts }
    }

    pub fn build_lm_cnv(
        params: &Params,
        silent: &[ProcessId],
        seed: u64,
        t_end: RealTime,
        cap: usize,
    ) -> Built<CnvMsg> {
        build_generic(params, silent, seed, t_end, cap, |id| {
            Box::new(LmCnv::new(id, params.clone(), 0.0))
        })
    }

    pub fn build_mahaney_schneider(
        params: &Params,
        silent: &[ProcessId],
        seed: u64,
        t_end: RealTime,
        cap: usize,
    ) -> Built<MsMsg> {
        build_generic(params, silent, seed, t_end, cap, |id| {
            Box::new(MahaneySchneider::new(id, params.clone(), 0.0))
        })
    }

    pub fn build_srikanth_toueg(
        params: &Params,
        silent: &[ProcessId],
        seed: u64,
        t_end: RealTime,
        cap: usize,
    ) -> Built<StMsg> {
        build_generic(params, silent, seed, t_end, cap, |id| {
            Box::new(SrikanthToueg::new(id, params.clone(), 0.0))
        })
    }

    pub fn build_lm_cnv_attacked(
        params: &Params,
        amplitude: f64,
        seed: u64,
        t_end: RealTime,
        cap: usize,
    ) -> Built<CnvMsg> {
        let n = params.n;
        let early_below = 1 + (n - 1).div_ceil(2);
        let built = build_generic(params, &[], seed, t_end, cap, |id| {
            if id.index() == 0 {
                Box::new(ValueTwoFaced::new(
                    params.clone(),
                    amplitude,
                    early_below,
                    |claim| CnvMsg(ClockTime::from_secs(claim)),
                ))
            } else {
                Box::new(LmCnv::new(id, params.clone(), 0.0))
            }
        });
        Built {
            plan: FaultPlan::with_faulty(n, &[ProcessId(0)]),
            ..built
        }
    }

    pub fn build_srikanth_toueg_attacked(
        params: &Params,
        amplitude: f64,
        seed: u64,
        t_end: RealTime,
        cap: usize,
    ) -> Built<StMsg> {
        let n = params.n;
        let early_below = 1 + (n - 1).div_ceil(2);
        let built = build_generic(params, &[], seed, t_end, cap, |id| {
            if id.index() == 0 {
                Box::new(TimedTwoFaced::new(
                    params.clone(),
                    amplitude,
                    early_below,
                    |round, _| StMsg {
                        round: round as u32,
                        echo: false,
                    },
                ))
            } else {
                Box::new(SrikanthToueg::new(id, params.clone(), 0.0))
            }
        });
        Built {
            plan: FaultPlan::with_faulty(n, &[ProcessId(0)]),
            ..built
        }
    }
}

const CAP: usize = 2_000_000;

fn run<M: Clone + std::fmt::Debug + Send + 'static>(mut sim: Simulation<M>) -> SimOutcome {
    sim.run()
}

/// Byte-level equality of two executions: trace (exact event sequence with
/// exact times), correction histories, counters.
fn assert_identical(a: SimOutcome, b: SimOutcome) {
    assert_eq!(a.stats, b.stats, "simulator counters differ");
    assert_eq!(a.corr, b.corr, "correction histories differ");
    assert!(
        !a.trace.events().is_empty(),
        "trace must be non-empty for a meaningful check"
    );
    let (fa, fb) = (trace_bytes(&a.trace), trace_bytes(&b.trace));
    assert_eq!(fa, fb, "trace event streams differ");
}

fn trace_bytes(t: &Trace) -> String {
    format!("{:?}", t.events())
}

fn params() -> Params {
    Params::auto(4, 1, 1e-6, 0.010, 0.001).unwrap()
}

#[test]
fn maintenance_parity_across_seeds() {
    let p = params();
    for seed in [1u64, 42, 1337] {
        let old = legacy::ScenarioBuilder::new(p.clone())
            .seed(seed)
            .t_end(RealTime::from_secs(12.0))
            .trace(CAP)
            .build();
        let new = assemble::<Maintenance>(
            &ScenarioSpec::new(p.clone())
                .seed(seed)
                .t_end(RealTime::from_secs(12.0))
                .trace(CAP),
        );
        assert_eq!(old.plan.fault_count(), new.plan.fault_count());
        assert_eq!(old.starts, new.starts);
        assert_identical(run(old.sim), run(new.sim));
    }
}

#[test]
fn maintenance_parity_with_fault_gallery() {
    let p = Params::auto(7, 2, 1e-6, 0.010, 0.001).unwrap();
    let faults: [(ProcessId, FaultKind); 3] = [
        (ProcessId(0), FaultKind::PullApart(p.beta / 2.0)),
        (ProcessId(3), FaultKind::RoundSpam),
        (ProcessId(5), FaultKind::CrashAt(6.0)),
    ];
    let mut old_b = legacy::ScenarioBuilder::new(p.clone())
        .seed(9)
        .t_end(RealTime::from_secs(10.0))
        .trace(CAP);
    let mut spec = ScenarioSpec::new(p)
        .seed(9)
        .t_end(RealTime::from_secs(10.0))
        .trace(CAP);
    for &(id, kind) in &faults {
        old_b = old_b.fault(id, kind);
        spec = spec.fault(id, kind);
    }
    assert_identical(
        run(old_b.build().sim),
        run(assemble::<Maintenance>(&spec).sim),
    );
}

#[test]
fn maintenance_parity_with_delay_and_drift_overrides() {
    let p = params();
    let drift = wl_clock::drift::DriftModel::EvenSpread { rho: p.rho };
    let old = legacy::ScenarioBuilder::new(p.clone())
        .seed(77)
        .drift(drift.clone())
        .delay(DelayKind::AdversarialSplit)
        .spread_frac(0.95)
        .t_end(RealTime::from_secs(10.0))
        .trace(CAP)
        .build();
    let new = assemble::<Maintenance>(
        &ScenarioSpec::new(p)
            .seed(77)
            .drift(drift)
            .delay(DelayKind::AdversarialSplit)
            .spread_frac(0.95)
            .t_end(RealTime::from_secs(10.0))
            .trace(CAP),
    );
    assert_identical(run(old.sim), run(new.sim));
}

#[test]
fn rejoiner_parity() {
    let p = params();
    let repair = RealTime::from_secs(7.3);
    let old = legacy::ScenarioBuilder::new(p.clone())
        .seed(19)
        .rejoiner(ProcessId(3), repair)
        .t_end(RealTime::from_secs(20.0))
        .trace(CAP)
        .build();
    let new = assemble::<Rejoiner>(
        &ScenarioSpec::new(p)
            .seed(19)
            .rejoiner(ProcessId(3), repair)
            .t_end(RealTime::from_secs(20.0))
            .trace(CAP),
    );
    assert_identical(run(old.sim), run(new.sim));
}

#[test]
fn startup_parity() {
    let sp = wl_core::StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap();
    for seed in [23u64, 99] {
        let old = legacy::build_startup(
            &sp,
            5.0,
            &[ProcessId(3)],
            seed,
            RealTime::from_secs(8.0),
            CAP,
        );
        let new = assemble::<Startup>(
            &ScenarioSpec::startup(&sp, 5.0)
                .seed(seed)
                .t_end(RealTime::from_secs(8.0))
                .silent(&[ProcessId(3)])
                .trace(CAP),
        );
        assert_eq!(old.starts, new.starts);
        assert_identical(run(old.sim), run(new.sim));
    }
}

#[test]
fn baseline_parity_lm_cnv_ms_st() {
    let p = params();
    let silent = [ProcessId(3)];
    let t = RealTime::from_secs(10.0);
    let spec = ScenarioSpec::new(p.clone())
        .seed(61)
        .t_end(t)
        .silent(&silent)
        .trace(CAP);
    assert_identical(
        run(legacy::build_lm_cnv(&p, &silent, 61, t, CAP).sim),
        run(assemble::<LmCnv>(&spec).sim),
    );
    assert_identical(
        run(legacy::build_mahaney_schneider(&p, &silent, 61, t, CAP).sim),
        run(assemble::<MahaneySchneider>(&spec).sim),
    );
    assert_identical(
        run(legacy::build_srikanth_toueg(&p, &silent, 61, t, CAP).sim),
        run(assemble::<SrikanthToueg>(&spec).sim),
    );
}

#[test]
fn baseline_parity_under_attack() {
    let p = params();
    let t = RealTime::from_secs(10.0);
    let amp = 1.9 * (p.beta + p.delta + p.eps);
    assert_identical(
        run(legacy::build_lm_cnv_attacked(&p, amp, 61, t, CAP).sim),
        run(assemble::<LmCnv>(
            &ScenarioSpec::new(p.clone())
                .seed(61)
                .t_end(t)
                .fault(ProcessId(0), FaultKind::TwoFaced(amp))
                .trace(CAP),
        )
        .sim),
    );
    assert_identical(
        run(legacy::build_srikanth_toueg_attacked(&p, p.delta / 2.0, 61, t, CAP).sim),
        run(assemble::<SrikanthToueg>(
            &ScenarioSpec::new(p.clone())
                .seed(61)
                .t_end(t)
                .fault(ProcessId(0), FaultKind::TwoFaced(p.delta / 2.0))
                .trace(CAP),
        )
        .sim),
    );
}
