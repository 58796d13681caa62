//! The paper report and the sweep CLIs.
//!
//! [`paper`] reproduces the paper's checkable claims as the sections of
//! one transcript, checked in as `docs/paper-report.txt`; the
//! `paper_report` binary prints it. Scenario assembly and measurement
//! live in [`wl_harness`]; this crate keeps the report, the shared
//! argument layer of the `sweep_*` binaries ([`cli`]) and a few
//! conveniences (default constants, cell formatting, the demo grid).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod paper;

use wl_core::Params;
use wl_harness::{derive_seed, DelayKind, DiskSweepCache, ScenarioSpec};
use wl_time::RealTime;

/// Standard parameter set used across experiments unless stated otherwise:
/// `ρ = 1e-6`, `δ = 10ms`, `ε = 1ms`.
#[must_use]
pub fn default_params(n: usize, f: usize) -> Params {
    Params::auto(n, f, 1e-6, 0.010, 0.001).expect("default parameters are feasible")
}

/// Formats seconds for table cells.
#[must_use]
pub fn fs(x: f64) -> String {
    wl_analysis::report::fmt_secs(x)
}

/// Default size of [`demo_grid`] — the grid the `sweep_shard` and
/// `sweep_drive` smoke flows (and CI) run.
pub const DEMO_GRID: usize = 24;

/// The fixed demonstration grid shared by `sweep_shard` and
/// `sweep_drive`: three delay
/// models round-robined over machine-independent seeds. Both binaries
/// must build byte-identical grids or the CI `cmp`s would compare
/// different sweeps.
#[must_use]
pub fn demo_grid(size: usize) -> Vec<ScenarioSpec> {
    demo_grid_t(size, 2.0)
}

/// [`demo_grid`] with an explicit simulated horizon in seconds
/// (`sweep_drive --t-end`). Every process of one drive must pass the
/// same value — the horizon is part of the grid's identity, so shards
/// built at different horizons would never merge into the reference
/// store. Longer horizons multiply each point's skew-sample count,
/// which is what the CI `stats-smoke` job uses to demonstrate the
/// sketch-vs-series size asymptotics at a realistic sample volume.
#[must_use]
pub fn demo_grid_t(size: usize, t_end_secs: f64) -> Vec<ScenarioSpec> {
    let params = Params::auto(4, 1, 1e-6, 0.010, 0.001).expect("feasible parameters");
    let delays = [
        DelayKind::Constant,
        DelayKind::Uniform,
        DelayKind::AdversarialSplit,
    ];
    (0..size)
        .map(|i| {
            ScenarioSpec::new(params.clone())
                .seed(derive_seed(0x5AAD_BA5E, i as u64))
                .delay(delays[i % 3])
                .t_end(RealTime::from_secs(t_end_secs))
        })
        .collect()
}

/// CI guard: when `WL_SWEEP_EXPECT_MISSES` is set, the experiment's
/// actual cache-miss count must equal it or the process exits 1.
///
/// A miss is the only thing that triggers a simulation, so
/// `WL_SWEEP_EXPECT_MISSES=0` is a machine-checkable "this run executed
/// zero simulations" assertion — CI's warm-cache steps set it instead of
/// grepping human-readable output. Call it right after the sweep, before
/// persisting.
pub fn enforce_expected_misses(disk: &DiskSweepCache) {
    enforce_expected_misses_on(disk.cache(), &disk.status());
}

/// [`enforce_expected_misses`] against a bare in-memory cache — for
/// binaries (like `sweep_shard`) that hydrate a
/// [`SweepCache`](wl_harness::SweepCache) from a store file themselves
/// instead of going through [`DiskSweepCache`].
/// `context` is appended to the failure message.
pub fn enforce_expected_misses_on(cache: &wl_harness::SweepCache, context: &str) {
    let Ok(raw) = std::env::var("WL_SWEEP_EXPECT_MISSES") else {
        return;
    };
    let Ok(want) = raw.parse::<u64>() else {
        eprintln!("WL_SWEEP_EXPECT_MISSES={raw} is not a number");
        std::process::exit(1);
    };
    let got = cache.misses();
    if got != want {
        eprintln!("WL_SWEEP_EXPECT_MISSES={want} but this run missed {got} time(s) ({context})");
        std::process::exit(1);
    }
}
