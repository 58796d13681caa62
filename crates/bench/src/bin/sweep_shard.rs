//! Shard-and-merge driver for distributed sweeps — and the CI smoke test
//! for the determinism contract behind them (`docs/sweeps.md`).
//!
//! Runs a fixed demonstration grid (or `--grid N` points of it) as one
//! shard of `N`, persisting the shard's results to its own store file;
//! a separate invocation merges shard stores into one. Because store
//! files are canonical (records sorted, engine-versioned, checksummed),
//! **the merge of the shard stores is byte-identical to the store a
//! single unsharded run writes** — CI runs both and `cmp`s the files:
//!
//! ```text
//! sweep_shard --shard 0/2 --store a.wls
//! sweep_shard --shard 1/2 --store b.wls        # other process/machine
//! sweep_shard --merge merged.wls a.wls b.wls
//! sweep_shard --shard 0/1 --store full.wls     # the 1-process reference
//! cmp merged.wls full.wls
//! ```

use bench::{cli, enforce_expected_misses_on, DEMO_GRID};
use wl_harness::{Maintenance, Shard, SweepCache, SweepRequest, SweepStore, SweepSummary};

/// The shared flags each mode honours; any other falls to [`usage`].
/// `--migrate` alone takes `--format`: every store a run writes is
/// binary, and text is an export.
const SHARD_FLAGS: &[&str] = &["--compact", "--capture"];
const MIGRATE_FLAGS: &[&str] = &["--format", "--compact"];

fn usage() -> ! {
    eprintln!(
        "usage:\n  sweep_shard --shard K/N --store FILE [--grid SIZE] [--t-end SECS] \
         [--expect-hits N] {shard}\n  \
         sweep_shard --merge OUT IN1 IN2 [IN3 ...]\n  \
         sweep_shard --migrate SRC DST {migrate}",
        shard = cli::common_usage(SHARD_FLAGS),
        migrate = cli::common_usage(MIGRATE_FLAGS),
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--shard") => run_shard(&args[1..]),
        Some("--merge") => run_merge(&args[1..]),
        Some("--migrate") => run_migrate(&args[1..]),
        _ => usage(),
    }
}

fn run_shard(args: &[String]) {
    let mut it = args.iter();
    let shard: Shard = it
        .next()
        .unwrap_or_else(|| usage())
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("bad shard: {e}");
            std::process::exit(2)
        });
    let mut store_path: Option<String> = None;
    let mut grid_size = DEMO_GRID;
    let mut t_end = 2.0f64;
    let mut expect_hits: Option<u64> = None;
    let mut common = cli::CommonArgs::default();
    while let Some(flag) = it.next() {
        if common.take(SHARD_FLAGS, flag, &mut it) {
            continue;
        }
        match flag.as_str() {
            "--store" => store_path = it.next().cloned(),
            "--grid" => {
                grid_size = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--t-end" => {
                t_end = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--expect-hits" => {
                expect_hits = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            _ => usage(),
        }
    }
    let compact = common.compact;
    let store_path = store_path.unwrap_or_else(|| usage());
    let grid = cli::demo_grid_at(grid_size, t_end);

    // A text store opens like a binary one and is saved back as binary.
    let mut store = SweepStore::open(&store_path).unwrap_or_else(|e| {
        eprintln!("cannot open store {store_path}: {e}");
        std::process::exit(1)
    });
    let cache: SweepCache = store.hydrate();
    let outcomes = SweepRequest::new()
        .shard(shard)
        .cached(&cache)
        .capture(common.capture())
        .run::<Maintenance>(grid);
    let summary = SweepSummary::collect(&outcomes);
    enforce_expected_misses_on(&cache, &format!("shard {shard} over {store_path}"));
    let added = store.absorb(&cache);
    if compact {
        let stats = store.compact().unwrap_or_else(|e| {
            eprintln!("cannot compact store {store_path}: {e}");
            std::process::exit(1)
        });
        println!(
            "compacted {store_path}: {} live, {} stale + {} superseded dropped, {} -> {} bytes",
            stats.live,
            stats.dropped_stale,
            stats.dropped_superseded,
            stats.bytes_before,
            stats.bytes_after
        );
    } else {
        store.save().unwrap_or_else(|e| {
            eprintln!("cannot save store {store_path}: {e}");
            std::process::exit(1)
        });
    }
    println!(
        "shard {shard}: {} grid points ({} hits, {} misses), {} events, all-agree {}; \
         {added} records written to {store_path}",
        outcomes.len(),
        cache.hits(),
        cache.misses(),
        summary.events,
        summary.all_hold(),
    );
    // Machine-checkable smoke assertion: CI pins "this run was entirely
    // cache-served" through the exit code instead of grepping the line
    // above.
    if let Some(want) = expect_hits {
        if cache.hits() != want {
            eprintln!(
                "expected exactly {want} cache hit(s), observed {} ({} misses)",
                cache.hits(),
                cache.misses()
            );
            std::process::exit(1);
        }
    }
}

fn run_merge(args: &[String]) {
    // OUT IN1 IN2 [IN3 ...]; no flags.
    if args.iter().any(|arg| arg.starts_with("--")) {
        usage();
    }
    let [out, inputs @ ..] = args else { usage() };
    if inputs.len() < 2 {
        usage();
    }
    let mut merged = SweepStore::new();
    for input in inputs {
        let shard_store = SweepStore::open(input).unwrap_or_else(|e| {
            eprintln!("cannot open shard store {input}: {e}");
            std::process::exit(1)
        });
        if shard_store.skipped_lines() > 0 || shard_store.stale_records() > 0 {
            eprintln!(
                "warning: {input}: skipped {} corrupt line(s), {} stale record(s)",
                shard_store.skipped_lines(),
                shard_store.stale_records()
            );
        }
        match merged.merge_from(&shard_store) {
            Ok(stats) => println!(
                "merged {input}: {} added, {} agreed, {} upgraded",
                stats.added, stats.agreed, stats.upgraded
            ),
            Err(conflict) => {
                eprintln!("merge conflict: {conflict}");
                std::process::exit(1);
            }
        }
    }
    merged.save_to(out).unwrap_or_else(|e| {
        eprintln!("cannot save merged store {out}: {e}");
        std::process::exit(1)
    });
    println!("merged store: {} records -> {out}", merged.len());
}

/// `--migrate SRC DST [--format F] [--compact]`: lossless store
/// conversion — the one place text is written (`--format text`, an
/// export; the default is binary). Binary → text → binary reproduces the
/// source byte-for-byte; `--compact` additionally drops stale-engine
/// records from DST, in DST's format (after which the round trip is no
/// longer claimed).
fn run_migrate(args: &[String]) {
    let mut it = args.iter();
    let src = it.next().unwrap_or_else(|| usage());
    let dst = it.next().unwrap_or_else(|| usage());
    let mut common = cli::CommonArgs::default();
    while let Some(flag) = it.next() {
        if !common.take(MIGRATE_FLAGS, flag, &mut it) {
            usage();
        }
    }
    let format = common.format.unwrap_or_default();
    let compact = common.compact;
    let report = SweepStore::migrate(src, dst, format).unwrap_or_else(|e| {
        eprintln!("cannot migrate {src} -> {dst}: {e}");
        std::process::exit(1)
    });
    println!(
        "migrated {src} -> {dst} ({format} format): {} record(s), {} stale retained, \
         {} skipped, {} -> {} bytes",
        report.records, report.stale_retained, report.skipped, report.bytes_in, report.bytes_out
    );
    if compact {
        let mut store = SweepStore::open(dst).unwrap_or_else(|e| {
            eprintln!("cannot reopen {dst}: {e}");
            std::process::exit(1)
        });
        store.set_format(format);
        let stats = store.compact().unwrap_or_else(|e| {
            eprintln!("cannot compact {dst}: {e}");
            std::process::exit(1)
        });
        println!(
            "compacted {dst}: {} live, {} stale + {} superseded dropped, {} -> {} bytes",
            stats.live,
            stats.dropped_stale,
            stats.dropped_superseded,
            stats.bytes_before,
            stats.bytes_after
        );
    }
}
