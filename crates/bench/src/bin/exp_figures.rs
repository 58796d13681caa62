//! F1/F2 — the convergence *figures*: worst-case skew as a function of
//! time, rendered as ASCII charts and CSV series.
//!
//! * **F1**: maintenance algorithm from a wide initial spread, fault-free
//!   vs Byzantine+adversarial (the curve that halves down to `4ε+4ρP`).
//! * **F2**: startup algorithm from seconds of disagreement (the Lemma 20
//!   geometric descent), log-scale flavour shown via the raw CSV.
//!
//! All three curves come out of `Capture::Series` records: the skew
//! series is part of the cached payload, so regenerating the figures
//! against a warm disk cache executes **zero** simulations.
//!
//! Run: `cargo run --release -p bench --bin exp_figures`

use bench::enforce_expected_misses;
use wl_analysis::plot::ascii_chart;
use wl_analysis::report::Table;
use wl_core::{Params, StartupParams};
use wl_harness::{
    Capture, DelayKind, DiskSweepCache, FaultKind, Maintenance, ScenarioSpec, Startup, SweepRequest,
};
use wl_sim::ProcessId;
use wl_time::RealTime;

/// The F1 maintenance scenario (fault-free or Byzantine) and the window
/// its curve is read over.
fn maintenance_spec(byz: bool) -> (ScenarioSpec, f64, f64) {
    let (rho, delta, eps) = (1e-6, 0.010, 0.001);
    let beta = 50.0 * eps;
    let p_round = 2.0 * wl_core::params::min_p(rho, delta, eps, beta);
    let params = Params::new(4, 1, rho, delta, eps, beta, p_round).unwrap();
    let t_end = params.t0 + 14.0 * params.p_round;
    let mut spec = ScenarioSpec::new(params.clone())
        .seed(7)
        .spread_frac(0.95)
        .t_end(RealTime::from_secs(t_end));
    if byz {
        spec = spec
            .delay(DelayKind::AdversarialSplit)
            .fault(ProcessId(0), FaultKind::PullApart(params.beta / 2.0));
    }
    (spec, 0.9, t_end * 0.99)
}

/// The F2 cold-start scenario and its window.
fn startup_spec() -> (ScenarioSpec, f64, f64) {
    let sp = StartupParams::new(4, 1, 1e-6, 0.010, 0.001).unwrap();
    let spec = ScenarioSpec::startup(&sp, 5.0)
        .seed(23)
        .t_end(RealTime::from_secs(10.0))
        .silent(&[ProcessId(3)]);
    (spec, 1.0, 9.9)
}

fn save_series(name: &str, series: &[(f64, f64)]) {
    let mut t = Table::new(&["t_seconds", "max_skew_seconds"]);
    for &(x, y) in series {
        t.row_owned(vec![format!("{x:.6}"), format!("{y:.9}")]);
    }
    let path = format!("target/{name}.csv");
    let _ = t.save_csv(&path);
    println!("(series saved to {path})");
}

fn main() {
    let mut disk = DiskSweepCache::open_shared();

    let (free_spec, free_from, free_to) = maintenance_spec(false);
    let (byz_spec, byz_from, byz_to) = maintenance_spec(true);
    let maintenance = SweepRequest::new()
        .cached(disk.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(vec![free_spec, byz_spec]);

    let (su_spec, su_from, su_to) = startup_spec();
    let startup = SweepRequest::new()
        .cached(disk.cache())
        .capture(Capture::Series)
        .run::<Startup>(vec![su_spec]);
    enforce_expected_misses(&disk);

    let window = |o: &wl_harness::SweepOutcome, from: f64, to: f64| {
        o.series
            .as_ref()
            .expect("series sweep always captures")
            .skew_window(from, to)
    };

    println!("F1a: maintenance from wide spread, fault-free (y = max skew, s)");
    let s = window(&maintenance[0], free_from, free_to);
    println!("{}", ascii_chart(&s, 72, 12, "t, seconds"));
    save_series("fig_f1a_maintenance_faultfree", &s);

    println!("\nF1b: maintenance, Byzantine + adversarial delays (rides s/2 + 2eps)");
    let s = window(&maintenance[1], byz_from, byz_to);
    println!("{}", ascii_chart(&s, 72, 12, "t, seconds"));
    save_series("fig_f1b_maintenance_byzantine", &s);

    println!("\nF2: startup from 5s spread, one silent fault (Lemma 20 descent)");
    let s = window(&startup[0], su_from, su_to);
    println!("{}", ascii_chart(&s, 72, 12, "t, seconds"));
    save_series("fig_f2_startup", &s);

    eprintln!("{}", disk.status());
    if let Err(e) = disk.persist() {
        eprintln!("warning: could not persist sweep cache: {e}");
    }
}
