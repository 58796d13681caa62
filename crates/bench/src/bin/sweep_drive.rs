//! Multi-process sweep driver CLI — `wl_harness::transport` behind flags.
//!
//! One invocation cuts the demonstration grid into chunks on a
//! **work-stealing frontier** — about 16 a worker, 4 to 256 points each
//! (`wl_harness::default_chunk`), or `--chunk C` points — spawns **this
//! same binary** `--workers N` times in `--frontier-worker` mode,
//! babysits the subprocesses (heartbeat via store/log growth,
//! restart-on-crash with bounded retries, optional stall kill after
//! `--stall-ms`, requeue of a claim not seen to grow for `--steal-ms`,
//! both timed on the driver's own clock), and merges the worker stores
//! into one canonical output store:
//!
//! ```text
//! sweep_drive --workers 3 --dir target/drive --out target/drive/merged.wls
//! sweep_shard --shard 0/1 --store target/ref.wls      # plain in-process sweep
//! cmp target/drive/merged.wls target/ref.wls          # byte-identical
//! ```
//!
//! `--crash-worker K` makes worker `K`'s *first* launch abort right
//! after checkpointing its first chunk, claim left orphaned (a
//! deterministic stand-in for `kill -9` mid-sweep); the driver restarts
//! it, the restart resumes from the checkpointed store, the orphan is
//! requeued and stolen, and the merged output is still byte-identical —
//! CI pins exactly that. The run fails if the injected crash did not
//! actually cause a restart, so the smoke cannot silently stop covering
//! the restart path.
//!
//! Everything shared lives in `--dir`: the frontier, and per worker slot
//! a store and a log. The harvest merges every `worker-*.wls` there, so
//! another machine sharing the directory joins by claiming from
//! `<dir>/frontier` and checkpointing into `<dir>/worker-<id>.wls`.
//! Workers inherit the driver's environment: with `WL_SWEEP_SERVICE`
//! exported, the fleet resolves its chunks against that results server.
//! A drive over a directory that already holds this grid's frontier
//! resumes it at the granule its manifest records, unless `--chunk`
//! names another. A frontier left over from a *different* grid or
//! engine version, or cut otherwise than an explicit `--chunk`, is
//! refused with a clear error naming the mismatched field — never
//! silently merged, never a hang.

use bench::{cli, DEMO_GRID};
use std::io;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;
use wl_harness::{
    drive_frontier, run_worker_frontier, Capture, FrontierDriverConfig, FrontierError,
    FrontierWorkerConfig, Maintenance, ScenarioSpec, SubprocessTransport, SweepRequest,
    SweepRunner, SweepStore, WorkerLaunch, WorkerTransport,
};

/// The shared flags each mode honours; any other falls to [`usage`].
/// The worker set is exactly what the driver's launch closure passes.
/// Every store a drive writes is binary (`sweep_shard --migrate` exports
/// text).
const DRIVER_FLAGS: &[&str] = &["--compact", "--chunk", "--capture"];
const WORKER_FLAGS: &[&str] = &["--capture"];

fn usage() -> ! {
    eprintln!(
        "usage:\n  sweep_drive --workers N [--grid SIZE] [--t-end SECS] [--dir DIR] [--out FILE] \
         [--retries R] [--stall-ms T] [--crash-worker K] [--steal-ms T] {driver}\n  \
         sweep_drive --frontier-worker --frontier DIR --worker-id ID --store FILE \
         [--grid SIZE] [--t-end SECS] [--steal-ms T] \
         [--crash-after-chunks M] {worker}\n\
         --chunk is the checkpoint granule: by default about 16 chunks a worker, 4 to 256 \
         points each, or what a resumed --dir records; workers inherit WL_SWEEP_SERVICE",
        driver = cli::common_usage(DRIVER_FLAGS),
        worker = cli::common_usage(WORKER_FLAGS),
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--workers") => driver_main(&args),
        Some("--frontier-worker") => frontier_worker_main(&args[1..]),
        _ => usage(),
    }
}

/// The frontier worker protocol: open the shared frontier (refusing a
/// foreign one), claim chunks until every chunk is done, checkpoint the
/// private store per chunk; print one progress line per chunk.
fn frontier_worker_main(args: &[String]) {
    let mut it = args.iter();
    let mut frontier: Option<String> = None;
    let mut worker: Option<String> = None;
    let mut store: Option<String> = None;
    let mut grid_size = DEMO_GRID;
    let mut t_end = 2.0f64;
    let mut common = cli::CommonArgs::default();
    let mut steal_ms = 2000u64;
    let mut crash_after_chunks = None;
    while let Some(flag) = it.next() {
        if common.take(WORKER_FLAGS, flag, &mut it) {
            continue;
        }
        match flag.as_str() {
            "--frontier" => frontier = it.next().cloned(),
            "--worker-id" => worker = it.next().cloned(),
            "--store" => store = it.next().cloned(),
            "--grid" => grid_size = parse(it.next()),
            "--t-end" => t_end = parse(it.next()),
            "--steal-ms" => steal_ms = parse(it.next()),
            "--crash-after-chunks" => crash_after_chunks = Some(parse(it.next())),
            _ => usage(),
        }
    }
    let worker = worker.unwrap_or_else(|| usage());
    let frontier = frontier.unwrap_or_else(|| usage());
    let store = store.unwrap_or_else(|| usage());
    let mut cfg = FrontierWorkerConfig::new(frontier, worker.clone(), store);
    cfg.steal_timeout = Duration::from_millis(steal_ms);
    cfg.crash_after_chunks = crash_after_chunks;
    cfg.capture = common.capture();
    let progress = run_worker_frontier::<Maintenance>(
        &SweepRunner::new(),
        cli::demo_grid_at(grid_size, t_end),
        &cfg,
        |p| {
            println!(
                "progress worker={worker} chunks={} stolen={} requeued={} points={} \
                 hits={} misses={} records={}",
                p.chunks, p.stolen, p.requeued, p.points, p.hits, p.misses, p.records
            );
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("frontier worker {worker}: {e}");
        // A refused value (an id that cannot name a claim file) is exit
        // 2, like any refused flag; a failed run is exit 1.
        let refused = matches!(&e, FrontierError::Io(e) if e.kind() == io::ErrorKind::InvalidInput);
        std::process::exit(if refused { 2 } else { 1 });
    });
    println!(
        "frontier worker {worker} complete: {} chunk(s), {} point(s) ({} hits, {} misses)",
        progress.chunks, progress.points, progress.hits, progress.misses
    );
}

/// The driver: cut the grid into chunks, run the fleet, merge, and
/// self-check the result.
fn driver_main(args: &[String]) {
    let mut it = args.iter();
    it.next(); // the "--workers" flag itself
    let workers: u32 = parse(it.next());
    let mut grid_size = DEMO_GRID;
    let mut t_end = 2.0f64;
    let mut dir = PathBuf::from("target/sweep-drive");
    let mut out: Option<PathBuf> = None;
    let mut retries = 2u32;
    let mut stall_ms: Option<u64> = None;
    let mut crash_worker: Option<u32> = None;
    let mut common = cli::CommonArgs::default();
    let mut steal_ms = 2000u64;
    while let Some(flag) = it.next() {
        if common.take(DRIVER_FLAGS, flag, &mut it) {
            continue;
        }
        match flag.as_str() {
            "--grid" => grid_size = parse(it.next()),
            "--t-end" => t_end = parse(it.next()),
            "--dir" => dir = PathBuf::from(parse::<String>(it.next())),
            "--out" => out = Some(PathBuf::from(parse::<String>(it.next()))),
            "--retries" => retries = parse(it.next()),
            "--stall-ms" => stall_ms = Some(parse(it.next())),
            "--crash-worker" => crash_worker = Some(parse(it.next())),
            "--steal-ms" => steal_ms = parse(it.next()),
            _ => usage(),
        }
    }
    let capture = common.capture();
    if workers == 0 {
        usage();
    }
    let grid = cli::demo_grid_at(grid_size, t_end);
    if let Some(k) = crash_worker {
        if k >= workers {
            eprintln!("--crash-worker {k} out of range 0..{workers}");
            std::process::exit(2);
        }
    }
    let out = out.unwrap_or_else(|| dir.join("merged.wls"));
    let exe = std::env::current_exe().expect("own executable path");

    let mut cfg = FrontierDriverConfig::new(workers, dir, out);
    cfg.chunk = common.chunk;
    cfg.max_restarts = retries;
    cfg.stall_timeout = stall_ms.map(Duration::from_millis);
    cfg.steal_timeout = Duration::from_millis(steal_ms);

    let mut transport = SubprocessTransport::new(move |launch: &WorkerLaunch| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--frontier-worker")
            .arg("--frontier")
            .arg(&launch.frontier)
            .arg("--worker-id")
            .arg(&launch.worker)
            .arg("--store")
            .arg(&launch.store)
            .arg("--grid")
            .arg(grid_size.to_string())
            .arg("--t-end")
            .arg(t_end.to_string())
            .arg("--capture")
            .arg(capture.to_string())
            .arg("--steal-ms")
            .arg(steal_ms.to_string());
        // Fault injection only poisons the first launch: the restart the
        // driver issues must run clean and converge.
        if launch.attempt == 0 && crash_worker == Some(launch.slot) {
            cmd.arg("--crash-after-chunks").arg("1");
        }
        cmd
    });

    // A foreign frontier (different grid or engine, or a chunking
    // `--chunk` contradicts) is a clear refusal, not a hang or a silent
    // merge.
    let fail = |e: &dyn std::fmt::Display| -> ! {
        eprintln!("sweep_drive failed: {e}");
        std::process::exit(1);
    };
    let report =
        drive_frontier::<Maintenance>(&cfg, &grid, &mut transport).unwrap_or_else(|e| fail(&e));
    let stores = transport.stores(&cfg).unwrap_or_else(|e| fail(&e));

    println!(
        "driver: {workers} worker(s) stealing {}-point chunks over {grid_size} grid \
         points; {} restart(s) ({} stall kill(s), {} slot(s) retired), {} claim(s) requeued; \
         merged {} store(s) = {} record(s) -> {}",
        report.chunk,
        report.restarts,
        report.stall_kills,
        report.retired,
        report.requeued,
        report.stores_merged,
        report.merged_records,
        cfg.out.display()
    );

    // Post-drive GC: rewrite every worker store (whose binary checkpoints
    // are appended segments, possibly with superseded versions) in
    // canonical form. The merged store needs no pass — the drive just
    // wrote it canonically.
    if common.compact {
        for path in &stores {
            let stats = SweepStore::open(path)
                .and_then(|mut store| store.compact())
                .unwrap_or_else(|e| {
                    eprintln!("compacting {} failed: {e}", path.display());
                    std::process::exit(1);
                });
            println!(
                "compacted {}: {} live record(s), {} stale + {} superseded dropped, \
                 {} -> {} bytes",
                path.display(),
                stats.live,
                stats.dropped_stale,
                stats.dropped_superseded,
                stats.bytes_before,
                stats.bytes_after
            );
        }
    }

    if crash_worker.is_some() && report.restarts == 0 {
        eprintln!("crash injection requested but no worker was ever restarted");
        std::process::exit(1);
    }

    verify_merged(&cfg, &grid, report.merged_records, capture);
}

/// The post-drive self-checks: exactly one record per grid point (a
/// surplus means the work dir held stores from another grid), and the
/// merged store serves the whole grid — at the drive's capture richness
/// — without a single simulation.
fn verify_merged(
    cfg: &FrontierDriverConfig,
    grid: &[ScenarioSpec],
    merged_records: usize,
    capture: Capture,
) {
    if merged_records != grid.len() {
        eprintln!(
            "merged store holds {merged_records} record(s) for a {}-point grid; \
             is {} reused from another grid? use a fresh --dir",
            grid.len(),
            cfg.dir.display()
        );
        std::process::exit(1);
    }

    let merged = SweepStore::open(&cfg.out).unwrap_or_else(|e| {
        eprintln!("cannot reopen merged store: {e}");
        std::process::exit(1);
    });
    let cache = merged.hydrate();
    let _ = SweepRequest::new()
        .cached(&cache)
        .capture(capture)
        .run::<Maintenance>(grid.to_vec());
    if cache.misses() != 0 {
        eprintln!(
            "merged store does not cover the grid: {} hit(s), {} miss(es)",
            cache.hits(),
            cache.misses()
        );
        std::process::exit(1);
    }
    println!(
        "merged store serves the full grid from cache: {} hits, 0 misses",
        cache.hits()
    );
}
