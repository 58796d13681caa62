//! Worst-case skew search CLI (`wl_harness::search`): hunt the
//! empirically worst adversary per scenario family and report the
//! margin to Theorem 16's γ bound.
//!
//! ```text
//! # Search the default Welch–Lynch maintenance families:
//! sweep_search
//!
//! # CI smoke: tiny bounded search with the ordering invariants enforced:
//! sweep_search --smoke --check
//!
//! # Reproduce a reported result exactly:
//! sweep_search --seed 0x5EA2C4
//! ```
//!
//! Every evaluation rides the shared disk cache
//! (`WL_SWEEP_CACHE_DIR`), so a repeated search replays from the store
//! without executing a single simulation — `WL_SWEEP_EXPECT_MISSES=0`
//! pins that in CI like any other cached experiment.
//!
//! `--check` turns the report into a machine-checkable assertion pair:
//! the found worst case must be **at least** the static fault-gallery
//! maximum (the search starts from the gallery's adversarial
//! equivalents, so falling below it means the equivalence broke) and
//! **at most** the theoretical bound γ (above it, either the theorem's
//! assumptions were violated or the simulator drifted).

use bench::{cli, default_params, enforce_expected_misses};
use wl_harness::{
    search_worst_case, DiskSweepCache, Maintenance, ScenarioSpec, SearchConfig, SearchReport,
};
use wl_time::RealTime;

fn usage() -> ! {
    eprintln!(
        "usage: sweep_search [--seed S] [--descent R] [--anneal N] [--refine K] \
         [--threads T] [--smoke] [--check]"
    );
    std::process::exit(2);
}

/// The searched families: the paper's standard maintenance parameter
/// points (n, f), one seeded spec each. Small by design — each family
/// costs `starts + probes` simulations cold.
fn families() -> Vec<(String, ScenarioSpec)> {
    [(4usize, 1usize), (7, 2)]
        .into_iter()
        .map(|(n, f)| {
            let spec = ScenarioSpec::new(default_params(n, f))
                .seed(wl_harness::derive_seed(0xAD5E, (n * 8 + f) as u64))
                .t_end(RealTime::from_secs(6.0));
            (format!("maintenance n={n} f={f}"), spec)
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = SearchConfig::default();
    let mut check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => cfg.seed = parse_seed(it.next()),
            "--descent" => cfg.descent_rounds = cli::require("--descent", it.next()),
            "--anneal" => cfg.anneal_steps = cli::require("--anneal", it.next()),
            "--refine" => cfg.refine_top = cli::require("--refine", it.next()),
            "--threads" => cfg.threads = cli::require("--threads", it.next()),
            "--smoke" => {
                let seed = cfg.seed;
                cfg = SearchConfig::smoke();
                cfg.seed = seed;
            }
            "--check" => check = true,
            _ => usage(),
        }
    }

    let mut disk = DiskSweepCache::open_shared();
    let mut failures = 0usize;
    for (name, base) in families() {
        let report = search_worst_case::<Maintenance>(&base, &cfg, disk.cache());
        println!("== family: {name} ==");
        println!("{report}");
        if check {
            failures += usize::from(!enforce(&name, &report));
        }
    }
    enforce_expected_misses(&disk);
    eprintln!("{}", disk.status());
    if let Err(e) = disk.persist() {
        eprintln!("warning: could not persist sweep cache: {e}");
    }
    if failures > 0 {
        eprintln!("sweep_search --check: {failures} family check(s) failed");
        std::process::exit(1);
    }
}

/// The `--check` invariants for one family; prints and returns rather
/// than exiting so every family is reported before the process fails.
fn enforce(name: &str, report: &SearchReport) -> bool {
    let mut ok = true;
    if report.best_skew < report.gallery_max {
        eprintln!(
            "check failed [{name}]: found worst case {:.3e} below static gallery max {:.3e}",
            report.best_skew, report.gallery_max
        );
        ok = false;
    }
    if report.best_skew > report.bound {
        eprintln!(
            "check failed [{name}]: found worst case {:.3e} exceeds theoretical bound {:.3e}",
            report.best_skew, report.bound
        );
        ok = false;
    }
    if ok {
        println!(
            "check ok: gallery {:.3e} <= found {:.3e} <= gamma {:.3e}",
            report.gallery_max, report.best_skew, report.bound
        );
    }
    ok
}

/// Seeds accept decimal or `0x` hex, matching how reports echo them.
fn parse_seed(v: Option<&String>) -> u64 {
    let Some(raw) = v else { usage() };
    let parsed = raw
        .strip_prefix("0x")
        .or_else(|| raw.strip_prefix("0X"))
        .map_or_else(|| raw.parse().ok(), |hex| u64::from_str_radix(hex, 16).ok());
    parsed.unwrap_or_else(|| {
        eprintln!("--seed: cannot parse {raw:?}");
        std::process::exit(2);
    })
}
