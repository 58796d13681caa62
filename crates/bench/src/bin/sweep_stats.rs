//! Streaming-aggregate reader for sweep stores — `wl_harness::sketch`
//! behind a path argument.
//!
//! Opens one or more sweep stores, folds every record's [`SkewSketch`]
//! (deriving one on the fly for series-bearing records) into per-family
//! aggregates, and prints skew quantiles plus the margin to the paper's
//! worst-case bound γ for each algorithm family:
//!
//! ```text
//! sweep_stats target/drive/merged.wls
//! ```
//!
//! The output is deterministic — character-identical across runs,
//! machines, and shard counts over the same records — so CI can `cmp`
//! it against a golden transcript. Multiple stores are merged first
//! (`merge_from`: shard stores of one grid are disjoint or agree), and
//! the report then folds the records' sketches together (sketch ⊔ sketch
//! = histogram add), which is exactly how a fleet's shard stores
//! aggregate without ever materializing series.
//!
//! [`SkewSketch`]: wl_harness::SkewSketch

use wl_harness::{store_report, SweepStore};

fn usage() -> ! {
    eprintln!("usage: sweep_stats STORE [STORE ...]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        usage();
    }
    let mut merged = SweepStore::new();
    for path in &args {
        let store = SweepStore::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open store {path}: {e}");
            std::process::exit(1)
        });
        if store.skipped_lines() > 0 || store.stale_records() > 0 {
            eprintln!(
                "warning: {path}: skipped {} corrupt line(s), {} stale record(s)",
                store.skipped_lines(),
                store.stale_records()
            );
        }
        merged.merge_from(&store).unwrap_or_else(|conflict| {
            eprintln!("stores disagree: {conflict}");
            std::process::exit(1)
        });
    }
    print!("{}", store_report(&merged));
}
