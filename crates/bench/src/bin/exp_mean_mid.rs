//! E7 — midpoint vs mean averaging (§7).
//!
//! The midpoint halves the error per round regardless of `n`; the mean
//! converges at rate `f/(n−2f)` — slower for small `n`, dramatically
//! faster as `n` grows with `f` fixed, with steady error approaching `2ε`.
//! This experiment starts from a wide spread and measures the per-round
//! contraction factor and the steady skew for both variants across `n` —
//! a 10-point grid fanned out by `SweepRequest` through the shared disk
//! cache with the **series** payload (`Capture::Series`): the
//! per-round skew series it needs is read from cached records, so a warm
//! re-run executes zero simulations.
//!
//! Run: `cargo run --release -p bench --bin exp_mean_mid`

use bench::{enforce_expected_misses, fs};
use wl_analysis::report::Table;
use wl_core::{AveragingFn, Params};
use wl_harness::{
    Capture, DelayKind, DiskSweepCache, FaultKind, Maintenance, ScenarioSpec, SweepRequest,
};
use wl_time::RealTime;

fn main() {
    let (rho, delta, eps) = (1e-6, 0.010, 0.001);
    let f = 1usize;
    let beta = 50.0 * eps;
    let p_round = 2.0 * wl_core::params::min_p(rho, delta, eps, beta);
    let t_end = 1.0 + 14.0 * p_round;

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
            let mut params = Params::new(n, f, rho, delta, eps, beta, p_round).expect("feasible");
            params.avg = avg;
            labels.push((n, avg));
            // Adversarial delays plus a two-faced Byzantine hold the
            // execution at the averaging function's worst case, where the
            // convergence-rate difference between midpoint and mean is
            // visible (fault-free runs collapse in one round regardless of
            // the averaging function).
            specs.push(
                ScenarioSpec::new(params.clone())
                    .seed(55)
                    .spread_frac(0.95)
                    .delay(DelayKind::AdversarialSplit)
                    .fault(
                        wl_sim::ProcessId(0),
                        FaultKind::PullApart(params.beta / 2.0),
                    )
                    .t_end(RealTime::from_secs(t_end)),
            );
        }
    }

    let mut disk = DiskSweepCache::open_shared();
    let outcomes = SweepRequest::new()
        .cached(disk.cache())
        .capture(Capture::Series)
        .run::<Maintenance>(specs);
    enforce_expected_misses(&disk);
    // The cached series carries the same per-round skew series
    // (`round_series` at wave gap P/4) the legacy in-line analysis
    // computed; contraction and final skew drop out of it unchanged.
    let measured: Vec<_> = outcomes
        .iter()
        .map(|o| {
            let rounds = o.series.as_ref().expect("series sweep").rounds();
            (
                rounds.contraction_factor(),
                rounds.final_skew().unwrap_or(f64::NAN),
            )
        })
        .collect();

    for (&(n, avg), (c, final_skew)) in labels.iter().zip(&measured) {
        table.row_owned(vec![
            n.to_string(),
            format!("{avg:?}"),
            c.map_or_else(|| "-".into(), |c| format!("{c:.3}")),
            format!("{:.3}", avg.convergence_rate(n, f)),
            fs(*final_skew),
        ]);
    }
    println!("{table}");
    println!("shape check: Mean contraction ~ f/(n-2f) beats Midpoint's 0.5 once n > 4f.");
    eprintln!("{}", disk.status());
    if let Err(e) = disk.persist() {
        eprintln!("warning: could not persist sweep cache: {e}");
    }
    let _ = table.save_csv("target/exp_mean_mid.csv");
    println!("(CSV saved to target/exp_mean_mid.csv)");
}
