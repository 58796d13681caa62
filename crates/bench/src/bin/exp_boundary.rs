//! E12 — the fault-tolerance boundary (assumption A2 / \[DHS\]).
//!
//! Dolev, Halpern and Strong proved clock synchronization without
//! authentication is impossible unless more than two-thirds of the
//! processes are nonfaulty. This experiment runs the identical two-faced
//! attack against `n = 3f+1` (where `reduce` provably absorbs it) and
//! `n = 3f` (where it does not): the skew stays bounded in the first case
//! and is dragged wide in the second. The four cases run concurrently
//! through `SweepRunner` — and through the shared disk cache with the
//! **series** payload (`Capture::Series`), so a warm re-run reads
//! its skew windows straight from cached records and executes zero
//! simulations.
//!
//! Run: `cargo run --release -p bench --bin exp_boundary`

use bench::{enforce_expected_misses, fs};
use wl_analysis::report::Table;
use wl_core::{theory, Params};
use wl_harness::{Capture, DiskSweepCache, FaultKind, Maintenance, ScenarioSpec, SweepRequest};
use wl_sim::ProcessId;
use wl_time::RealTime;

fn case_spec(n: usize, f: usize, t_end: f64, seed: u64) -> (ScenarioSpec, f64) {
    // Build params for the compliant size first, then override n; the
    // automata only need timing feasibility (validate_timing), which does
    // not depend on n. Drift is set high (1e-4) so that a frozen averaging
    // function shows up as visible divergence within the horizon.
    let mut params = Params::auto(3 * f + 1, f, 1e-4, 0.010, 0.001).unwrap();
    params.n = n;
    // The classic straddle: lies just outside the honest range (early to
    // the fast honest clocks, late to the slow ones). At n = 3f+1 `reduce`
    // still leaves an honest majority range; at n = 3f the lies pin each
    // process's median to its own value — no process ever corrects, and
    // drift pulls the fleet apart without bound. The amplitude must stay
    // well under P/2 so the attacker's own timers remain schedulable.
    let amp = 3.0 * params.beta;
    let gamma = theory::gamma(&params);
    // Even-spread drift gives every honest clock a distinct rate, so a
    // frozen averaging function turns into visible divergence.
    let mut spec = ScenarioSpec::new(params.clone())
        .seed(seed)
        .drift(wl_clock::drift::DriftModel::EvenSpread { rho: params.rho })
        .t_end(RealTime::from_secs(t_end));
    for i in 0..f {
        spec = spec.fault(ProcessId(i), FaultKind::PullApartHigh(amp));
    }
    (spec, gamma)
}

fn main() {
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
            let (spec, gamma) = case_spec(n, f, t_end, 101 + f as u64);
            // The skew windows below reproduce the legacy sampling span:
            // from two rounds past T0 (settled) to just short of the end.
            let from = spec.params.t0 + 2.0 * spec.params.p_round;
            rows.push((n, f, regime, gamma, from));
            specs.push(spec);
        }
    }

    let mut disk = DiskSweepCache::open_shared();
    let outcomes = SweepRequest::new()
        .cached(disk.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(specs);
    enforce_expected_misses(&disk);

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
    println!("{table}");
    println!("shape check: the same attack is absorbed at n=3f+1 and not at n=3f.");
    eprintln!("{}", disk.status());
    if let Err(e) = disk.persist() {
        eprintln!("warning: could not persist sweep cache: {e}");
    }
    let _ = table.save_csv("target/exp_boundary.csv");
    println!("(CSV saved to target/exp_boundary.csv)");
}
