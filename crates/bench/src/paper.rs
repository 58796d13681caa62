//! The paper report: every checkable claim of the paper as one section
//! of one character-deterministic transcript (`docs/paper-report.txt`).
//!
//! [`SECTIONS`] is the table of claims; [`render`] runs the chosen
//! sections against a [`SweepCache`] and returns the transcript plus the
//! CSV tables queued along the way. Rendering prints nothing and writes
//! no file, and the environment reaches it only through [`wl_harness`]
//! (`WL_SWEEP_THREADS`, `WL_SWEEP_SERVICE`), which changes how a sweep is
//! computed, never its result — so the same call serves the
//! `paper_report` binary (disk-backed cache) and the tier-1 golden test
//! (in-memory cache). Six sections read their statistics from stored
//! sweep records (warm = zero simulations); six run executions outside
//! the store, because the statistic is not in a record; `params` is
//! closed-form.

use crate::{default_params, fs};
use std::io;
use std::path::{Path, PathBuf};
use wl_analysis::agreement::{check_agreement, AgreementReport};
use wl_analysis::convergence::round_series;
use wl_analysis::plot::ascii_chart;
use wl_analysis::report::Table;
use wl_analysis::skew::{max_skew_at, SkewSeries};
use wl_analysis::validity::check_validity;
use wl_analysis::ExecutionView;
use wl_clock::drift::{DriftModel, FleetClock};
use wl_core::params::{max_p, min_p};
use wl_core::{theory, AveragingFn, Params, StartupParams};
use wl_harness::{
    assemble, run, Capture, DelayKind, FaultKind, LmCnv, MahaneySchneider, Maintenance, Rejoiner,
    ScenarioSpec, SrikanthToueg, Startup, SweepAlgorithm, SweepCache, SweepOutcome, SweepRequest,
    SweepRunner, SyncAlgorithm,
};
use wl_sim::delay::SharedMediumDelay;
use wl_sim::trace::{Trace, TraceEvent};
use wl_sim::ProcessId;
use wl_time::{RealDur, RealTime};

/// One claim of the paper and the function that reproduces it.
pub struct Section {
    /// The positional argument that selects the section, and the stem of
    /// its CSV file names.
    pub id: &'static str,
    /// Where the claim lives in the paper.
    pub paper: &'static str,
    /// What the section shows.
    pub title: &'static str,
    run: fn(&mut Ctx<'_>),
}

impl Section {
    /// The line that opens the section in the transcript.
    #[must_use]
    pub fn heading(&self) -> String {
        format!("=== {} — {}: {} ===", self.id, self.paper, self.title)
    }
}

/// Every section, in transcript order (E1–E12, then the figures).
pub static SECTIONS: [Section; 13] = [
    Section {
        id: "agreement",
        paper: "Theorem 16",
        title: "worst nonfaulty skew against the closed-form gamma",
        run: agreement,
    },
    Section {
        id: "halving",
        paper: "Lemma 10, §7",
        title: "the skew halves every round",
        run: halving,
    },
    Section {
        id: "adjustment",
        paper: "Theorem 4a",
        title: "every adjustment stays under (1+rho)(beta+eps)+rho*delta",
        run: adjustment,
    },
    Section {
        id: "validity",
        paper: "Theorem 19",
        title: "local time stays inside the validity envelope",
        run: validity,
    },
    Section {
        id: "params",
        paper: "§5.2",
        title: "the parameter feasibility region",
        run: params,
    },
    Section {
        id: "kexchange",
        paper: "§7",
        title: "k exchanges per round shrink the drift term",
        run: kexchange,
    },
    Section {
        id: "mean_mid",
        paper: "§7",
        title: "midpoint against mean averaging",
        run: mean_mid,
    },
    Section {
        id: "reintegration",
        paper: "§9.1",
        title: "a repaired process rejoins within gamma",
        run: reintegration,
    },
    Section {
        id: "startup",
        paper: "§9.2, Lemma 20",
        title: "synchronization established from arbitrary clocks",
        run: startup,
    },
    Section {
        id: "stagger",
        paper: "§9.3",
        title: "staggered broadcasts on a shared medium",
        run: stagger,
    },
    Section {
        id: "comparison",
        paper: "§10",
        title: "Welch-Lynch against LM-CNV, Mahaney-Schneider and Srikanth-Toueg",
        run: comparison,
    },
    Section {
        id: "boundary",
        paper: "A2 / [DHS]",
        title: "the n = 3f fault-tolerance boundary",
        run: boundary,
    },
    Section {
        id: "figures",
        paper: "Lemma 10, Lemma 20",
        title: "worst-case skew against time",
        run: figures,
    },
];

/// Resolves positional section ids, in the order given; none means the
/// full report.
///
/// # Errors
///
/// An unknown id is refused with a usage message naming every id.
pub fn select(ids: &[String]) -> Result<Vec<&'static Section>, String> {
    if ids.is_empty() {
        return Ok(SECTIONS.iter().collect());
    }
    ids.iter()
        .map(|id| {
            SECTIONS.iter().find(|s| s.id == id).ok_or_else(|| {
                let known: Vec<&str> = SECTIONS.iter().map(|s| s.id).collect();
                format!(
                    "unknown section {id:?}\nusage: paper_report [SECTION...]   \
                     (no SECTION = the full report)\nsections: {}",
                    known.join(" ")
                )
            })
        })
        .collect()
}

/// A rendered report: the transcript, and the CSV tables it queued as
/// `(file stem, table)`.
pub struct Report {
    /// What `paper_report` prints to stdout.
    pub text: String,
    /// What [`write_csv`] saves, one file per entry.
    pub csvs: Vec<(String, Table)>,
}

/// Renders `sections` in order. A pure function of its arguments: every
/// sweep goes through `cache`, and nothing is printed or written.
#[must_use]
pub fn render(sections: &[&Section], cache: &SweepCache) -> Report {
    let mut ctx = Ctx {
        cache,
        id: "",
        report: Report {
            text: String::new(),
            csvs: Vec::new(),
        },
    };
    for section in sections {
        ctx.id = section.id;
        ctx.line(section.heading());
        ctx.line("");
        (section.run)(&mut ctx);
        if !ctx.report.text.ends_with("\n\n") {
            ctx.line("");
        }
    }
    ctx.report
}

/// Saves one queued table as `<dir>/<stem>.csv`, creating `dir`, and
/// returns the path written.
///
/// # Errors
///
/// Propagates directory-creation and write failures — the caller names
/// only files this returned `Ok` for.
pub fn write_csv(dir: &Path, stem: &str, table: &Table) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{stem}.csv"));
    let mut csv = Vec::new();
    table.write_csv(&mut csv)?;
    std::fs::write(&path, csv)?;
    Ok(path)
}

/// What a section writes through: the shared cache and the report so far.
struct Ctx<'a> {
    cache: &'a SweepCache,
    id: &'static str,
    report: Report,
}

impl Ctx<'_> {
    /// Runs `specs` through the shared cache at `capture` richness.
    fn sweep<A: SweepAlgorithm>(
        &self,
        capture: Capture,
        specs: Vec<ScenarioSpec>,
    ) -> Vec<SweepOutcome> {
        SweepRequest::new()
            .cached(self.cache)
            .capture(capture)
            .run::<A>(specs)
    }

    /// Appends one line to the transcript.
    fn line(&mut self, line: impl AsRef<str>) {
        self.report.text.push_str(line.as_ref());
        self.report.text.push('\n');
    }

    /// Queues `table` as `<id>.csv`, or `<id>_<suffix>.csv` for a section
    /// with several.
    fn csv(&mut self, suffix: &str, table: Table) {
        let stem = if suffix.is_empty() {
            self.id.to_string()
        } else {
            format!("{}_{suffix}", self.id)
        };
        self.report.csvs.push((stem, table));
    }

    /// Appends `table` to the transcript and queues its CSV.
    fn emit(&mut self, suffix: &str, table: Table) {
        self.line(table.to_string());
        self.csv(suffix, table);
    }
}

/// Runs each spec under `A` outside the store, in parallel, and hands the
/// completed execution — its view, the A4 start times and the trace (empty
/// unless the spec asks for one) — to `measure`. For the statistics a
/// stored record does not carry.
fn execute<A: SyncAlgorithm, T: Send>(
    specs: Vec<ScenarioSpec>,
    measure: impl Fn(&ScenarioSpec, &ExecutionView<'_, FleetClock>, &[RealTime], &Trace) -> T + Sync,
) -> Vec<T> {
    SweepRunner::new().run(specs, |_, spec| {
        let mut built = assemble::<A>(spec);
        let outcome = built.sim.run();
        let view = ExecutionView::with_plan(built.sim.clocks(), &outcome.corr, &built.plan);
        measure(spec, &view, &built.starts, &outcome.trace)
    })
}

/// The two-faced attacker every Byzantine case uses: process 0 pulls the
/// fleet apart by `beta/2`.
fn pull_apart(spec: ScenarioSpec) -> ScenarioSpec {
    let amp = spec.params.beta / 2.0;
    spec.fault(ProcessId(0), FaultKind::PullApart(amp))
}

/// The worst-case push: adversarial delays plus the two-faced attacker
/// hold an execution at the recurrence's fixed point, where the
/// differences the §7 sections measure are visible (benign runs collapse
/// in one round and hide them).
fn worst_case_push(spec: ScenarioSpec) -> ScenarioSpec {
    pull_apart(spec.delay(DelayKind::AdversarialSplit))
}

/// The wide-start parameters of E2, E7 and F1: `beta = 50 eps`, so the
/// first rounds have visible error to burn, and `f = 1`.
fn wide_start_params(n: usize) -> Params {
    let (rho, delta, eps) = (1e-6, 0.010, 0.001);
    let beta = 50.0 * eps;
    let p_round = 2.0 * min_p(rho, delta, eps, beta);
    Params::new(n, 1, rho, delta, eps, beta, p_round).expect("feasible")
}

/// Fourteen rounds from clocks spread over 95 % of beta.
fn wide_start_spec(params: Params, seed: u64) -> ScenarioSpec {
    let t_end = params.t0 + 14.0 * params.p_round;
    ScenarioSpec::new(params)
        .seed(seed)
        .spread_frac(0.95)
        .t_end(RealTime::from_secs(t_end))
}

/// The scenario pair E2 tabulates and F1 draws: the wide start fault-free
/// and under the worst-case push.
fn halving_specs() -> Vec<ScenarioSpec> {
    let free = wide_start_spec(wide_start_params(4), 7);
    vec![free.clone(), worst_case_push(free)]
}

/// The cold-start scenario of E9 and F2: corrections spread over 5 s.
fn cold_start_spec(silent: &[ProcessId]) -> ScenarioSpec {
    let sp = StartupParams::new(4, 1, 1e-6, 0.010, 0.001).expect("feasible");
    ScenarioSpec::startup(&sp, 5.0)
        .seed(23)
        .t_end(RealTime::from_secs(10.0))
        .silent(silent)
}

/// E1 — for each (n, f, rho, eps, delay model, fault mix) the worst
/// observed nonfaulty skew against the closed-form gamma; the steady
/// state should sit near `4 eps` (§10).
fn agreement(ctx: &mut Ctx<'_>) {
    let mut table = Table::new(&[
        "n",
        "f",
        "rho",
        "eps",
        "delay",
        "faults",
        "max skew",
        "steady skew",
        "gamma",
        "skew/gamma",
        "holds",
    ])
    .with_title("E1: gamma-agreement sweep (Theorem 16), delta = 10ms, 60s horizon");

    let mut cases = Vec::new();
    let mut specs = Vec::new();
    for &(n, f) in &[(4usize, 1usize), (7, 2), (10, 3)] {
        for &rho in &[1e-6, 1e-4] {
            for &eps in &[1e-4, 1e-3] {
                for &delay in &[DelayKind::Uniform, DelayKind::AdversarialSplit] {
                    for faulted in [false, true] {
                        let params =
                            Params::auto(n, f, rho, 0.010, eps).expect("feasible parameters");
                        let gamma = theory::gamma(&params);
                        let mut spec = ScenarioSpec::new(params)
                            .seed(42 + n as u64)
                            .delay(delay)
                            .t_end(RealTime::from_secs(60.0));
                        let mut fault_desc = "none".to_string();
                        if faulted {
                            // Worst mix: one puller, the rest spam/silent.
                            spec = pull_apart(spec);
                            for extra in 1..f {
                                spec = spec.fault(
                                    ProcessId(extra),
                                    if extra % 2 == 0 {
                                        FaultKind::Silent
                                    } else {
                                        FaultKind::RoundSpam
                                    },
                                );
                            }
                            fault_desc = format!("{f} byz");
                        }
                        cases.push((n, f, rho, eps, delay, fault_desc, gamma));
                        specs.push(spec);
                    }
                }
            }
        }
    }

    let outcomes = ctx.sweep::<Maintenance>(Capture::Scalar, specs);
    for ((n, f, rho, eps, delay, fault_desc, gamma), o) in cases.into_iter().zip(&outcomes) {
        assert_eq!(o.stats.timers_suppressed, 0);
        table.row_owned(vec![
            n.to_string(),
            f.to_string(),
            format!("{rho:.0e}"),
            fs(eps),
            format!("{delay:?}"),
            fault_desc,
            fs(o.max_skew),
            fs(o.steady_skew),
            fs(gamma),
            format!("{:.2}", o.max_skew / gamma),
            o.agreement_holds.to_string(),
        ]);
    }
    ctx.emit("", table);
}

/// E2 — the maximum nonfaulty skew after every resynchronization wave
/// against Lemma 10's `beta_{i+1} <= beta_i/2 + 2 eps + 2 rho P`.
/// Fault-free runs converge much faster than the bound; the worst-case
/// push rides it round by round.
fn halving(ctx: &mut Ctx<'_>) {
    let specs = halving_specs();
    let params = specs[0].params.clone();

    let mut table = Table::new(&[
        "regime",
        "round",
        "measured skew",
        "Lemma 10 bound from prev",
        "within",
    ])
    .with_title(format!(
        "E2: per-round convergence; beta0 = {}, fixed point {} (4eps+4rhoP = {})",
        fs(params.beta),
        fs(theory::steady_state_beta(&params)),
        fs(4.0 * params.eps + 4.0 * params.rho * params.p_round),
    ));

    let measured = execute::<Maintenance, _>(specs, |spec, view, starts, _| {
        // The initial spread, measured just after the last START.
        let tmax0 = starts
            .iter()
            .cloned()
            .fold(RealTime::from_secs(f64::NEG_INFINITY), RealTime::max);
        let wave_gap = RealDur::from_secs(spec.params.p_round / 4.0);
        (max_skew_at(view, tmax0), round_series(view, wave_gap))
    });

    for (regime, (initial, series)) in ["fault-free", "byzantine+adv"].iter().zip(&measured) {
        table.row_owned(vec![
            regime.to_string(),
            "initial".to_string(),
            fs(*initial),
            "-".to_string(),
            "-".to_string(),
        ]);
        let mut prev = *initial;
        for (i, &s) in series.skews.iter().enumerate() {
            let bound = theory::round_recurrence(&params, prev);
            table.row_owned(vec![
                regime.to_string(),
                i.to_string(),
                fs(s),
                fs(bound),
                (s <= bound * 1.05).to_string(),
            ]);
            prev = s;
        }
        if let Some(c) = series.contraction_factor() {
            ctx.line(format!(
                "[{regime}] measured contraction factor: {c:.3} (paper worst case: 0.5)"
            ));
        }
    }
    ctx.emit("", table);
}

/// E3 — every `ADJ` of every nonfaulty process across fault mixes against
/// `(1+rho)(beta+eps)+rho*delta`; §10 summarizes the steady state as
/// "about 5 eps".
fn adjustment(ctx: &mut Ctx<'_>) {
    let mut table = Table::new(&[
        "scenario",
        "n",
        "f",
        "max |ADJ|",
        "mean |ADJ|",
        "bound (Thm 4a)",
        "~5eps",
        "holds",
    ])
    .with_title("E3: adjustment bound; rho=1e-6, delta=10ms, eps=1ms, 60s");

    // Label, n, f, whether process 0 pulls apart, and the other faults.
    type Case = (&'static str, usize, usize, bool, Option<(usize, FaultKind)>);
    let cases: [Case; 5] = [
        ("fault-free", 4, 1, false, None),
        ("1 silent", 4, 1, false, Some((3, FaultKind::Silent))),
        ("1 pull-apart", 4, 1, true, None),
        ("1 spam", 4, 1, false, Some((2, FaultKind::RoundSpam))),
        ("2 byz (n=7)", 7, 2, true, Some((3, FaultKind::RoundSpam))),
    ];
    let specs: Vec<ScenarioSpec> = cases
        .iter()
        .map(|&(_, n, f, pull, other)| {
            let mut spec = ScenarioSpec::new(default_params(n, f))
                .seed(21)
                .t_end(RealTime::from_secs(60.0));
            if pull {
                spec = pull_apart(spec);
            }
            if let Some((id, kind)) = other {
                spec = spec.fault(ProcessId(id), kind);
            }
            spec
        })
        .collect();

    let outcomes = ctx.sweep::<Maintenance>(Capture::Scalar, specs.clone());
    for ((&(name, n, f, ..), spec), o) in cases.iter().zip(&specs).zip(&outcomes) {
        table.row_owned(vec![
            name.to_string(),
            n.to_string(),
            f.to_string(),
            fs(o.max_abs_adjustment),
            fs(o.mean_abs_adjustment),
            fs(theory::adjustment_bound(&spec.params)),
            fs(5.0 * spec.params.eps),
            o.adjustment_holds.to_string(),
        ]);
    }
    ctx.emit("", table);
}

/// E4 — over long executions every nonfaulty local time stays inside
/// `alpha1 (t - tmax0) - alpha3 <= L_p(t) - T0 <= alpha2 (t - tmin0) + alpha3`,
/// and the empirical rate of local against real time is ~1.
fn validity(ctx: &mut Ctx<'_>) {
    let mut table = Table::new(&[
        "scenario",
        "alpha1",
        "alpha2",
        "alpha3",
        "lower slack",
        "upper slack",
        "emp. rate",
        "holds",
    ])
    .with_title("E4: validity envelope (Theorem 19), 120s horizon");

    let cases = [("fault-free", false), ("1 pull-apart", true)];
    let specs = cases
        .iter()
        .map(|&(_, pull)| {
            let spec = ScenarioSpec::new(default_params(4, 1))
                .seed(33)
                .t_end(RealTime::from_secs(120.0));
            if pull {
                pull_apart(spec)
            } else {
                spec
            }
        })
        .collect();

    let reports = execute::<Maintenance, _>(specs, |spec, view, starts, _| {
        let nonfaulty_starts = || {
            starts
                .iter()
                .enumerate()
                .filter(|&(i, _)| !view.faulty[i])
                .map(|(_, &t)| t)
        };
        let tmin0 = nonfaulty_starts().fold(RealTime::from_secs(f64::INFINITY), RealTime::min);
        let tmax0 = nonfaulty_starts().fold(RealTime::from_secs(f64::NEG_INFINITY), RealTime::max);
        check_validity(
            view,
            &spec.params,
            tmin0,
            tmax0,
            tmax0,
            RealTime::from_secs(spec.t_end.as_secs() * 0.98),
            RealDur::from_secs(1.0),
        )
    });

    for ((name, _), r) in cases.iter().zip(&reports) {
        let (a1, a2, a3) = r.alphas;
        table.row_owned(vec![
            (*name).to_string(),
            format!("{a1:.9}"),
            format!("{a2:.9}"),
            format!("{a3:.6}"),
            format!("{:+.6e}", r.lower_slack),
            format!("{:+.6e}", r.upper_slack),
            format!("{:.9}", r.empirical_rate),
            r.holds.to_string(),
        ]);
    }
    ctx.emit("", table);
}

/// E5 — closed-form: for fixed hardware `(rho, delta, eps)` the admissible
/// `[P_min, P_max]` band as beta grows, and the minimal feasible beta
/// against the paper's first-order `4 eps + 4 rho P`.
fn params(ctx: &mut Ctx<'_>) {
    let (rho, delta, eps) = (1e-4, 0.010, 0.001);

    let mut band = Table::new(&["beta", "P_min", "P_max", "feasible"]).with_title(format!(
        "E5a: admissible round-length band vs beta (rho={rho:.0e}, delta={delta}, eps={eps})"
    ));
    for k in [4.2, 4.5, 5.0, 6.0, 8.0, 12.0, 20.0, 50.0] {
        let beta = k * eps;
        let (lo, hi) = (min_p(rho, delta, eps, beta), max_p(rho, delta, eps, beta));
        band.row_owned(vec![
            fs(beta),
            fs(lo),
            if hi.is_finite() { fs(hi) } else { "inf".into() },
            (lo <= hi).to_string(),
        ]);
    }
    ctx.emit("band", band);

    let mut beta = Table::new(&["P", "min beta (exact)", "4eps+4rhoP (paper)", "rel. err"])
        .with_title("E5b: minimal beta vs P against the paper's first-order formula");
    for p in [0.1, 0.3, 1.0, 3.0, 10.0, 30.0] {
        let exact = Params::min_beta_for(rho, delta, eps, p).expect("rho small");
        let approx = 4.0 * eps + 4.0 * rho * p;
        beta.row_owned(vec![
            format!("{p}"),
            fs(exact),
            fs(approx),
            format!("{:.4}%", (exact - approx).abs() / approx * 100.0),
        ]);
    }
    ctx.emit("beta", beta);
}

/// E6 — with `k` exchanges per round the attainable closeness is
/// `beta >= 4 eps + 2 rho P 2^k/(2^k - 1)`: the drift term falls from
/// `4 rho P` toward `2 rho P`. `P` is fixed and drift set high
/// (rho = 1e-4) so the `rho P` term dominates eps and the k-dependence
/// shows.
fn kexchange(ctx: &mut Ctx<'_>) {
    let (rho, delta, eps) = (1e-4, 0.010, 1e-4);
    // Fixed round length long enough for 4 exchanges, beta sized for it.
    let p_round = 2.0;
    let beta = Params::min_beta_for(rho, delta, eps, p_round).expect("rho small") * 1.3;

    let mut table = Table::new(&[
        "k",
        "steady skew",
        "paper bound 4e+2rP*2^k/(2^k-1)",
        "k=1 baseline ratio",
    ])
    .with_title(format!(
        "E6: k exchanges per round; rho={rho:.0e}, P={p_round}s, eps={}, beta={}",
        fs(eps),
        fs(beta)
    ));

    let mut bounds = Vec::new();
    let mut specs = Vec::new();
    for k in 1..=4usize {
        let params = Params::new(4, 1, rho, delta, eps, beta, p_round)
            .expect("feasible")
            .with_exchanges(k)
            .expect("k exchanges fit in P");
        bounds.push(theory::k_exchange_beta(&params, k as u32));
        specs.push(worst_case_push(
            ScenarioSpec::new(params)
                .seed(77)
                .t_end(RealTime::from_secs(120.0)),
        ));
    }

    let outcomes = ctx.sweep::<Maintenance>(Capture::Scalar, specs);
    let k1_skew = outcomes[0].steady_skew;
    for (k, (o, &bound)) in outcomes.iter().zip(&bounds).enumerate() {
        table.row_owned(vec![
            (k + 1).to_string(),
            fs(o.steady_skew),
            fs(bound),
            format!("{:.3}", o.steady_skew / k1_skew),
        ]);
    }
    ctx.emit("", table);
    ctx.line(format!(
        "shape check: skew should decrease with k toward 4eps+2rhoP = {}",
        fs(4.0 * eps + 2.0 * rho * p_round)
    ));
}

/// E7 — the midpoint halves the error per round regardless of `n`; the
/// mean converges at rate `f/(n-2f)`: slower for small `n`, much faster
/// as `n` grows with `f` fixed. Contraction and final skew are read from
/// the per-round series of stored series records.
fn mean_mid(ctx: &mut Ctx<'_>) {
    let mut table = Table::new(&[
        "n",
        "avg",
        "contraction (measured)",
        "contraction (paper)",
        "final skew",
    ])
    .with_title("E7: midpoint vs mean; f = 1, wide start (beta0 = 50eps)");

    let mut labels = Vec::new();
    let mut specs = Vec::new();
    for n in [4usize, 6, 8, 12, 16] {
        for avg in [AveragingFn::Midpoint, AveragingFn::Mean] {
            let mut params = wide_start_params(n);
            params.avg = avg;
            labels.push((n, avg));
            specs.push(worst_case_push(wide_start_spec(params, 55)));
        }
    }

    let outcomes = ctx.sweep::<Maintenance>(Capture::Series, specs);
    for (&(n, avg), o) in labels.iter().zip(&outcomes) {
        let rounds = o.series.as_ref().expect("series sweep").rounds();
        table.row_owned(vec![
            n.to_string(),
            format!("{avg:?}"),
            rounds
                .contraction_factor()
                .map_or_else(|| "-".into(), |c| format!("{c:.3}")),
            format!("{:.3}", avg.convergence_rate(n, 1)),
            fs(rounds.final_skew().unwrap_or(f64::NAN)),
        ]);
    }
    ctx.emit("", table);
    ctx.line("shape check: Mean contraction ~ f/(n-2f) beats Midpoint's 0.5 once n > 4f.");
}

/// E8 — a process that never participated is repaired at an arbitrary
/// real time, mid-round included, and runs the §9.1 procedure; afterwards
/// it must be indistinguishable from the rest (within gamma of them).
fn reintegration(ctx: &mut Ctx<'_>) {
    let params = default_params(4, 1);
    let t_end = 40.0;
    let gamma = theory::gamma(&params);
    let mut table = Table::new(&[
        "repair at",
        "skew before (3 procs)",
        "skew after incl. rejoined",
        "gamma",
        "rejoined ok",
    ])
    .with_title("E8: reintegration; rejoiner repaired at varying phases of the round");

    // Repair at different phases of the round cycle, including mid-round.
    let cases: Vec<(f64, f64)> = [0.0, 0.25, 0.5, 0.75]
        .iter()
        .map(|&frac| (frac, 10.0 + frac * params.p_round))
        .collect();
    let specs = cases
        .iter()
        .map(|&(_, repair)| {
            ScenarioSpec::new(params.clone())
                .seed(19)
                .rejoiner(ProcessId(3), RealTime::from_secs(repair))
                .t_end(RealTime::from_secs(t_end))
        })
        .collect();

    let results = execute::<Rejoiner, _>(specs, |spec, view, _, _| {
        let (_, repair) = spec.rejoiner.expect("every case has a rejoiner");
        let step = RealDur::from_secs(params.p_round / 5.0);
        // Before: skew among the 3 never-faulty processes.
        let before = SkewSeries::sample_with_events(
            view,
            RealTime::from_secs(params.t0 + 2.0 * params.p_round),
            repair,
            step,
        )
        .max();
        // After: include the rejoined process; give it a generous window
        // (orientation + collection + one full round) to complete.
        let everyone = ExecutionView::new(view.clocks, view.corr, vec![false; view.n()]);
        let after = SkewSeries::sample_with_events(
            &everyone,
            RealTime::from_secs(repair.as_secs() + 4.0 * params.p_round),
            RealTime::from_secs(t_end * 0.98),
            step,
        )
        .max();
        (before, after)
    });

    for (&(frac, repair), &(before, after)) in cases.iter().zip(&results) {
        table.row_owned(vec![
            format!("{repair:.3}s (phase {frac})"),
            fs(before),
            fs(after),
            fs(gamma),
            (after <= gamma).to_string(),
        ]);
    }
    ctx.emit("", table);
}

/// E9 — clocks start with corrections spread over seconds (thousands of
/// times the target closeness); Lemma 20 predicts the per-round spread
/// `B^{i+1} <= B^i/2 + 2 eps + 2 rho (11 delta + 39 eps)`, converging to
/// about `4 eps`.
fn startup(ctx: &mut Ctx<'_>) {
    let regimes: [(&str, &[ProcessId]); 2] =
        [("fault-free", &[]), ("1 silent fault", &[ProcessId(3)])];
    let specs: Vec<ScenarioSpec> = regimes
        .iter()
        .map(|&(_, silent)| cold_start_spec(silent))
        .collect();
    let (rho, delta, eps) = {
        let p = &specs[0].params;
        (p.rho, p.delta, p.eps)
    };

    let mut table = Table::new(&["round", "measured spread B_i", "Lemma 20 bound", "within"])
        .with_title(format!(
            "E9: startup from {}s initial spread; limit 4eps+4rho(11delta+39eps) = {}",
            specs[0].initial_spread,
            fs(theory::startup_limit(rho, delta, eps))
        ));

    // Waves: corrections applied at (n-f) READYs cluster tightly.
    let series_per_regime = execute::<Startup, _>(specs, |_, view, _, _| {
        round_series(view, RealDur::from_secs(delta))
    });

    for ((label, _), series) in regimes.iter().zip(&series_per_regime) {
        ctx.line(format!("--- {label} ---"));
        let mut prev: Option<f64> = None;
        for (i, &b) in series.skews.iter().enumerate().take(12) {
            let bound = prev.map(|p| theory::startup_recurrence(rho, delta, eps, p));
            table.row_owned(vec![
                format!("{label} r{i}"),
                fs(b),
                bound.map_or_else(|| "-".into(), fs),
                bound.map_or_else(|| "-".into(), |bd| (b <= bd * 1.10 + 1e-9).to_string()),
            ]);
            prev = Some(b);
        }
        if let Some(last) = series.final_skew() {
            ctx.line(format!(
                "final spread: {} (≈4eps = {})",
                fs(last),
                fs(4.0 * eps)
            ));
        }
    }
    ctx.emit("", table);
}

/// What one E10 execution did to the shared medium, and to agreement.
struct MediumUse {
    sigma: f64,
    broadcasts: usize,
    /// Broadcasts that found the medium busy and queued.
    contended: usize,
    /// The longest any broadcast queued, seconds.
    worst_wait: f64,
    /// The worst skew just after a resynchronization wave.
    settled_skew: f64,
    /// Theorem 16 over the whole window, mid-wave transients included.
    agreement: AgreementReport,
}

/// E10's hardware, and the shared medium's frame time `w` on it: LAN-like
/// delays whose `eps = 8ms` over `n = 4` gives `w = 4ms`.
fn stagger_params() -> (Params, f64) {
    let (rho, delta, eps) = (1e-4, 0.040, 0.008);
    let beta = 6.0 * eps; // comfortably above the ~4.5 eps floor
    let p_round = 2.0 * min_p(rho, delta, eps, beta);
    let params = Params::new(4, 1, rho, delta, eps, beta, p_round).expect("feasible");
    let frame = SharedMediumDelay::new(params.delay_bounds(), params.n).frame_time();
    (params, frame.as_secs())
}

/// The two E10 executions: every process broadcasting at `T^i` (sigma = 0)
/// and process `p` at `T^i + p sigma` with `sigma = 2w + beta`, wide enough
/// that two clocks `beta` apart still cannot overlap. Broadcasts are read
/// off the trace: the `n` sends of one are consecutive and share a sender,
/// an instant and — on this medium — a delivery time.
fn stagger_runs() -> Vec<MediumUse> {
    let (base, frame) = stagger_params();
    let t_end = 8.0;
    let specs = [0.0, 2.0 * frame + base.beta]
        .iter()
        .map(|&sigma| {
            let params = base.clone().with_stagger(sigma).expect("stagger fits");
            ScenarioSpec::new(params)
                .seed(99)
                .delay(DelayKind::SharedMedium)
                .t_end(RealTime::from_secs(t_end))
                .trace(1 << 14)
        })
        .collect();
    execute::<Maintenance, _>(specs, |spec, view, _, trace| {
        assert_eq!(trace.dropped(), 0, "the trace must hold the whole run");
        let idle = spec.params.delay_bounds().min_delay();
        let mut frames: Vec<(ProcessId, RealTime, RealTime)> = trace
            .events()
            .iter()
            .filter_map(|event| match *event {
                TraceEvent::Send {
                    from,
                    at,
                    deliver_at,
                    ..
                } => Some((from, at, deliver_at)),
                _ => None,
            })
            .collect();
        frames.dedup();
        let waits: Vec<f64> = frames
            .iter()
            .map(|&(_, at, deliver_at)| {
                // Under a nanosecond is the rounding of `deliver_at - at`.
                let wait = (deliver_at - at - idle).as_secs();
                if wait > 1e-9 {
                    wait
                } else {
                    0.0
                }
            })
            .collect();
        let (from, to) = run::agreement_window(&spec.params, t_end).expect("8s > t0 + 2P");
        let step = RealDur::from_secs(spec.params.p_round / 7.0);
        let waves = round_series(view, RealDur::from_secs(spec.params.p_round / 4.0));
        MediumUse {
            sigma: spec.params.sigma,
            broadcasts: waits.len(),
            contended: waits.iter().filter(|&&w| w > 0.0).count(),
            worst_wait: waits.iter().fold(0.0, |a, &w| a.max(w)),
            settled_skew: waves.skews.iter().fold(0.0, |a, &s| a.max(s)),
            agreement: check_agreement(view, &spec.params, from, to, step),
        }
    })
}

/// E10 — the implementation study's finding: synchronized processes all
/// broadcast at the same instant, so a shared medium punishes the system
/// for behaving well; staggering process `p`'s broadcast to `T^i + p sigma`
/// spreads the frames out. In the paper's model contention is queueing
/// delay inside the A3 band, not loss, and every process hears the same
/// late frame.
fn stagger(ctx: &mut Ctx<'_>) {
    let (params, frame) = stagger_params();
    let band = 2.0 * params.eps;
    let mut table = Table::new(&[
        "sigma",
        "broadcasts",
        "contended",
        "contended share",
        "worst queueing",
        "of the 2eps band",
        "skew after a wave",
        "max skew",
        "gamma",
        "holds",
    ])
    .with_title(format!(
        "E10: staggered broadcast on a shared medium; frame time w = 2eps/n = {}, P = {}, 8s horizon",
        fs(frame),
        fs(params.p_round)
    ));
    for run in stagger_runs() {
        table.row_owned(vec![
            fs(run.sigma),
            run.broadcasts.to_string(),
            run.contended.to_string(),
            format!(
                "{:.1}%",
                run.contended as f64 / run.broadcasts as f64 * 100.0
            ),
            fs(run.worst_wait),
            format!("{:.1}%", run.worst_wait / band * 100.0),
            fs(run.settled_skew),
            fs(run.agreement.max_skew),
            fs(run.agreement.gamma),
            run.agreement.holds.to_string(),
        ]);
    }
    ctx.emit("", table);
    ctx.line(
        "shape check: in-band contention is common-mode (everyone hears the same late frame), so the \
         clocks settle within microseconds either way and max skew (the common adjustment, caught \
         mid-wave) stays far under gamma; what sigma = 0 spends is the eps budget, and staggering \
         hands it back.",
    );
}

/// `(steady skew, max |ADJ|)` of one comparison cell.
type Metrics = fn(&ScenarioSpec) -> (f64, f64);

fn welch_lynch_metrics(spec: &ScenarioSpec) -> (f64, f64) {
    let s = run::run_summary(assemble::<Maintenance>(spec), spec.t_end.as_secs());
    (s.agreement.steady_skew, s.adjustments.max_abs)
}

fn baseline_metrics<A: SyncAlgorithm>(spec: &ScenarioSpec) -> (f64, f64) {
    run::baseline_metrics(assemble::<A>(spec), spec.t_end.as_secs())
}

/// E11 — the four algorithms under identical conditions (literally the
/// same spec assembled four ways): fault-free, one silent fault, and a
/// two-faced attack. The paper's claims: WL agreement ~`4 eps`, adjustment
/// ~`5 eps`; LM-CNV ~`2n eps` / `(2n+1) eps`, linear in `n`; ST ~`delta+eps`
/// / `3(delta+eps)`, dominated by delta; WL wins when `eps << delta`, ST is
/// competitive once `delta < 3 eps`.
fn comparison(ctx: &mut Ctx<'_>) {
    for (delta, eps, regime) in [
        (0.010, 0.001, "eps << delta (WL's regime)"),
        (0.010, 0.004, "eps ~ delta/3 (crossover)"),
    ] {
        let params = Params::auto(4, 1, 1e-6, delta, eps).expect("feasible");
        let mut table = Table::new(&[
            "algorithm",
            "faults",
            "steady skew",
            "max |ADJ|",
            "paper agreement",
            "paper adjustment",
        ])
        .with_title(format!(
            "E11: section-10 comparison, n=4 f=1 delta={} eps={} — {}",
            fs(delta),
            fs(eps),
            regime
        ));
        let paper = theory::comparison_table(params.n, delta, eps);
        let base = ScenarioSpec::new(params.clone())
            .seed(61)
            .t_end(RealTime::from_secs(60.0));

        // The two-faced attack is where the algorithms separate. The
        // amplitude sits inside CNV's egocentric threshold so its average
        // absorbs the full lie, while reduce() caps WL's exposure.
        let amp = 1.9 * (params.beta + params.delta + params.eps);
        let two_faced = |kind| base.clone().fault(ProcessId(0), kind);
        // Name, row of the paper's table (Mahaney–Schneider has no
        // closed-form numbers, shape only), measurement, attacked spec.
        let algorithms: [(&str, Option<usize>, Metrics, ScenarioSpec); 4] = [
            (
                Maintenance::NAME,
                Some(0),
                welch_lynch_metrics,
                pull_apart(base.clone()),
            ),
            (
                LmCnv::NAME,
                Some(1),
                baseline_metrics::<LmCnv>,
                two_faced(FaultKind::TwoFaced(amp)),
            ),
            (
                MahaneySchneider::NAME,
                None,
                baseline_metrics::<MahaneySchneider>,
                two_faced(FaultKind::TwoFaced(amp)),
            ),
            (
                SrikanthToueg::NAME,
                Some(2),
                baseline_metrics::<SrikanthToueg>,
                two_faced(FaultKind::TwoFaced(params.delta / 2.0)),
            ),
        ];

        let mut rows = Vec::new();
        for faults in ["none", "1 silent", "1 two-faced"] {
            for (name, paper_row, metrics, attacked) in &algorithms {
                let spec = match faults {
                    "none" => base.clone(),
                    "1 silent" => base.clone().silent(&[ProcessId(3)]),
                    _ => attacked.clone(),
                };
                rows.push((*name, faults, *paper_row, *metrics, spec));
            }
        }
        let measured =
            SweepRunner::new().run(rows, |_, (name, faults, paper_row, metrics, spec)| {
                let (skew, adj) = metrics(spec);
                (*name, *faults, *paper_row, skew, adj)
            });

        for (name, faults, paper_row, skew, adj) in measured {
            let claim = paper_row.map(|i| &paper[i]);
            table.row_owned(vec![
                name.to_string(),
                faults.to_string(),
                fs(skew),
                fs(adj),
                claim.map_or_else(|| "-".into(), |c| fs(c.agreement)),
                claim.map_or_else(|| "-".into(), |c| fs(c.adjustment)),
            ]);
        }
        ctx.emit(&format!("eps{}", (eps * 1e3) as u32), table);
    }
}

/// One E12 case: `f` straddling attackers in a fleet of `n`.
fn boundary_spec(n: usize, f: usize, t_end: f64) -> ScenarioSpec {
    // Build params for the compliant size first, then override n; the
    // automata only need timing feasibility (validate_timing), which does
    // not depend on n. Drift is set high (1e-4) so that a frozen averaging
    // function shows up as visible divergence within the horizon.
    let mut params = Params::auto(3 * f + 1, f, 1e-4, 0.010, 0.001).expect("feasible");
    params.n = n;
    // The classic straddle: lies just outside the honest range (early to
    // the fast honest clocks, late to the slow ones). At n = 3f+1 `reduce`
    // still leaves an honest majority range; at n = 3f the lies pin each
    // process's median to its own value — no process ever corrects, and
    // drift pulls the fleet apart without bound. The amplitude must stay
    // well under P/2 so the attacker's own timers remain schedulable.
    let amp = 3.0 * params.beta;
    // Even-spread drift gives every honest clock a distinct rate, so a
    // frozen averaging function turns into visible divergence.
    let mut spec = ScenarioSpec::new(params.clone())
        .seed(101 + f as u64)
        .drift(DriftModel::EvenSpread { rho: params.rho })
        .t_end(RealTime::from_secs(t_end));
    for i in 0..f {
        spec = spec.fault(ProcessId(i), FaultKind::PullApartHigh(amp));
    }
    spec
}

/// E12 — \[DHS\]: without authentication, synchronization is impossible
/// unless more than two-thirds of the processes are nonfaulty. The
/// identical two-faced attack runs against `n = 3f+1`, where `reduce`
/// absorbs it, and `n = 3f`, where the skew is dragged wide.
fn boundary(ctx: &mut Ctx<'_>) {
    let t_end = 120.0;
    let mut table = Table::new(&[
        "n",
        "f",
        "regime",
        "max skew",
        "steady skew",
        "gamma",
        "bounded by gamma",
    ])
    .with_title("E12: fault boundary under the two-faced attack (f pull-apart byzantines)");

    let mut rows = Vec::new();
    let mut specs = Vec::new();
    for f in [1usize, 2] {
        for (n, regime) in [
            (3 * f + 1, "n = 3f+1 (A2 holds)"),
            (3 * f, "n = 3f (A2 violated)"),
        ] {
            let spec = boundary_spec(n, f, t_end);
            // The skew window opens two rounds past T0 (settled).
            let from = spec.params.t0 + 2.0 * spec.params.p_round;
            rows.push((n, f, regime, theory::gamma(&spec.params), from));
            specs.push(spec);
        }
    }

    let outcomes = ctx.sweep::<Maintenance>(Capture::Series, specs);
    for (&(n, f, regime, gamma, from), o) in rows.iter().zip(&outcomes) {
        let series = o.series.as_ref().expect("series sweep always captures");
        let max = series.max_skew_in(from, t_end * 0.98);
        let steady = series.max_skew_in(t_end / 2.0, t_end * 0.98);
        table.row_owned(vec![
            n.to_string(),
            f.to_string(),
            regime.to_string(),
            fs(max),
            fs(steady),
            fs(gamma),
            (max <= gamma).to_string(),
        ]);
    }
    ctx.emit("", table);
    ctx.line("shape check: the same attack is absorbed at n=3f+1 and not at n=3f.");
}

/// F1/F2 — worst-case skew as a function of time, as ASCII charts (the
/// series themselves go to CSV): maintenance from a wide spread, the
/// curve that halves down to `4 eps + 4 rho P`, and the Lemma 20 descent
/// of startup from seconds of disagreement. All three curves are read
/// from stored series records.
fn figures(ctx: &mut Ctx<'_>) {
    let specs = halving_specs();
    let maintenance_to = specs[0].t_end.as_secs() * 0.99;
    let maintenance = ctx.sweep::<Maintenance>(Capture::Series, specs);
    let startup = ctx.sweep::<Startup>(Capture::Series, vec![cold_start_spec(&[ProcessId(3)])]);

    let curves = [
        (
            "f1a",
            "F1a: maintenance from wide spread, fault-free (y = max skew, s)",
            &maintenance[0],
            (0.9, maintenance_to),
        ),
        (
            "f1b",
            "\nF1b: maintenance, Byzantine + adversarial delays (rides s/2 + 2eps)",
            &maintenance[1],
            (0.9, maintenance_to),
        ),
        (
            "f2",
            "\nF2: startup from 5s spread, one silent fault (Lemma 20 descent)",
            &startup[0],
            (1.0, 9.9),
        ),
    ];
    for (suffix, caption, outcome, (from, to)) in curves {
        let curve = outcome
            .series
            .as_ref()
            .expect("series sweep always captures")
            .skew_window(from, to);
        ctx.line(caption);
        ctx.line(ascii_chart(&curve, 72, 12, "t, seconds"));
        let mut table = Table::new(&["t_seconds", "max_skew_seconds"]);
        for &(x, y) in &curve {
            table.row_owned(vec![format!("{x:.6}"), format!("{y:.9}")]);
        }
        ctx.csv(suffix, table);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One cold full render per test binary.
    fn full() -> &'static (SweepCache, Report) {
        static FULL: OnceLock<(SweepCache, Report)> = OnceLock::new();
        FULL.get_or_init(|| {
            let cache = SweepCache::new();
            let report = render(&select(&[]).unwrap(), &cache);
            (cache, report)
        })
    }

    #[test]
    fn full_report_is_the_checked_in_transcript() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/paper-report.txt");
        let text = &full().1.text;
        if std::env::var("WL_UPDATE_GOLDEN").is_ok() {
            std::fs::write(path, text).unwrap();
        }
        let golden = std::fs::read_to_string(path).expect("checked-in transcript");
        let differing = golden.lines().zip(text.lines()).find(|(g, t)| g != t);
        assert!(
            golden == *text,
            "the report drifted from docs/paper-report.txt, first at {differing:?} \
             (intentional? regenerate with WL_UPDATE_GOLDEN=1 cargo test -p bench)"
        );
    }

    /// §9.3 both ways: unstaggered broadcasts contend for the medium,
    /// staggered ones never do — and, the executions being simulated, not
    /// scheduled, Theorem 16 is asked for gamma itself on both.
    #[test]
    fn stagger_clears_the_medium_and_agreement_holds_either_way() {
        let runs = stagger_runs();
        let [synchronized, staggered] = runs.as_slice() else {
            panic!("two runs");
        };
        assert_eq!(synchronized.sigma, 0.0);
        assert!(synchronized.contended > 0);
        assert!(staggered.sigma > 0.0 && staggered.broadcasts > 0);
        assert_eq!((staggered.contended, staggered.worst_wait), (0, 0.0));
        for run in &runs {
            let a = &run.agreement;
            assert!(
                a.max_skew < a.gamma && a.holds,
                "sigma {}: {a:?}",
                run.sigma
            );
        }
    }

    /// The section table: ids are unique, each one-id render is exactly
    /// that section's slice of the full transcript and opens with its
    /// heading, CSV stems carry the id — and the thirteen renders together
    /// are a second, character-identical render over the same cache that
    /// simulates nothing (CI's `WL_SWEEP_EXPECT_MISSES=0`, in process).
    #[test]
    fn each_section_renders_its_slice_and_a_second_render_is_warm() {
        let (cache, report) = full();
        let misses = cache.misses();
        let mut rest = report.text.as_str();
        for (i, section) in SECTIONS.iter().enumerate() {
            let id = section.id;
            assert!(SECTIONS[..i].iter().all(|s| s.id != id), "{id}: duplicate");
            let one = render(&select(&[id.to_string()]).unwrap(), cache);
            assert!(one.text.starts_with(&section.heading()), "{id}: heading");
            assert!(!one.csvs.is_empty(), "{id}: no CSV queued");
            for (stem, _) in &one.csvs {
                assert!(stem.starts_with(id), "{id}: CSV stem {stem}");
            }
            rest = rest
                .strip_prefix(one.text.as_str())
                .unwrap_or_else(|| panic!("{id}: not its slice of the full transcript"));
        }
        assert!(
            rest.is_empty(),
            "full transcript has more than the sections"
        );
        assert_eq!(cache.misses(), misses, "the second render simulated");
        let stems: Vec<&String> = report.csvs.iter().map(|(stem, _)| stem).collect();
        assert!(
            (1..stems.len()).all(|i| !stems[..i].contains(&stems[i])),
            "CSV stems collide: {stems:?}"
        );
    }

    #[test]
    fn unknown_section_is_refused_with_every_id() {
        let usage = select(&["agreement".into(), "ethernet".into()])
            .err()
            .expect("unknown id");
        assert!(usage.contains("\"ethernet\""), "{usage}");
        for section in &SECTIONS {
            assert!(usage.contains(section.id), "{}: not advertised", section.id);
        }
    }

    #[test]
    fn csv_writer_tells_written_from_failed() {
        let dir = std::env::temp_dir().join(format!("wl-paper-report-{}", std::process::id()));
        let mut table = Table::new(&["a", "b"]);
        table.row(&["1", "2"]);
        // Creates the directory, as `target/paper_report/` may not exist.
        let path = write_csv(&dir.join("nested"), "params_band", &table).expect("written");
        assert_eq!(path, dir.join("nested/params_band.csv"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        // A directory that cannot exist (its parent is a file) is an error.
        assert!(write_csv(&path.join("under-a-file"), "x", &table).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
